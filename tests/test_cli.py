import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eagibench
from eagibench.bank import load_shipped_bank, shipped_bank_path
from eagibench.cli import EXIT_BANK, EXIT_OK, EXIT_TRANSPORT, EXIT_USAGE, main
from eagibench.harness import OracleAgent


def test_generate_writes_instances(tmp_path, capsys):
    out = tmp_path / "instances.json"
    code = main(
        [
            "generate",
            "--n", "6",
            "--filter", '{"levels": [1, 3]}',
            "--mode", "Curriculum",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["instances"]) == 6
    assert doc["seed"] == 7
    assert all("prompt" in inst for inst in doc["instances"])


def test_generate_records_the_bank_argument_as_given(tmp_path, monkeypatch):
    from eagibench.bank import shipped_bank_path

    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_bytes(shipped_bank_path().read_bytes())
    for bank_args, recorded in (([], None), (["--bank", "./b.json"], "./b.json")):
        assert main(["generate", *bank_args, "--n", "2", "--out", "i.json"]) == EXIT_OK
        doc = json.loads((tmp_path / "i.json").read_text(encoding="utf-8"))
        assert doc["bank"] == recorded
        assert doc["bank_fingerprint"]


def test_generate_score_round_trip(tmp_path, bank, instances):
    inst_path = tmp_path / "instances.json"
    assert main(["generate", "--n", "24", "--mode", "Curriculum", "--seed", "0",
                 "--out", str(inst_path)]) == EXIT_OK

    agent = OracleAgent(list(instances.values()))
    answers = {
        i.id: agent.answer(i.prompt, {"instance_id": i.id}) for i in instances.values()
    }
    ans_path = tmp_path / "answers.json"
    ans_path.write_text(json.dumps(answers), encoding="utf-8")

    report_path = tmp_path / "report.json"
    assert main(["score", "--instances", str(inst_path), "--answers", str(ans_path),
                 "--out", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["competence_level"] == 6
    assert all(item["verdict"] == "Pass" for item in report["items"])


def test_run_oracle_end_to_end(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["run", "--n", "24", "--mode", "Curriculum", "--seed", "1",
                 "--agent", "oracle", "--out", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["competence_level"] == 6


def test_run_replay_determinism(tmp_path, bank, instances):
    agent = OracleAgent(list(instances.values()))
    answers = {
        i.id: agent.answer(i.prompt, {"instance_id": i.id}) for i in instances.values()
    }
    ans_path = tmp_path / "answers.json"
    ans_path.write_text(json.dumps(answers), encoding="utf-8")

    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["run", "--n", "12", "--mode", "Targeted", "--seed", "5",
                     "--agent", f"replay:{ans_path}", "--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("run_id")
        doc.pop("started_at")
        doc.pop("duration_s")
        reports.append(json.dumps(doc, sort_keys=True))
    assert reports[0] == reports[1]


def test_report_markdown(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    main(["run", "--n", "6", "--mode", "Curriculum", "--seed", "1",
          "--agent", "oracle", "--out", str(report_path)])
    assert main(["report", "--input", str(report_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "| Level |" in out


def test_usage_errors_exit_1(capsys):
    assert main(["run", "--n", "2", "--mode", "Targeted", "--agent", "bogus"]) == EXIT_USAGE
    assert main(["generate", "--n", "999", "--mode", "Targeted"]) == EXIT_USAGE
    assert main(["generate", "--n", "1", "--filter", "{not json"]) == EXIT_USAGE
    assert main(["generate", "--n", "1", "--filter", "[1]"]) == EXIT_USAGE
    directory = tempfile.gettempdir()
    assert main(["score", "--instances", directory, "--answers", directory]) == EXIT_USAGE
    assert main(["report", "--input", directory]) == EXIT_USAGE
    with tempfile.TemporaryDirectory() as scratch:
        deep = os.path.join(scratch, "deep.json")
        with open(deep, "w", encoding="utf-8") as f:
            f.write("[" * 100_000 + "]" * 100_000)
        assert main(["report", "--input", deep]) == EXIT_USAGE
    assert capsys.readouterr().err.count("error:") == 7


def test_bank_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "templates": [{"id": "x"}]}', encoding="utf-8")
    assert main(["generate", "--n", "1", "--bank", str(bad)]) == EXIT_BANK
    missing = tmp_path / "missing.json"
    assert main(["generate", "--n", "1", "--bank", str(missing)]) == EXIT_BANK
    assert main(["generate", "--n", "1", "--bank", str(tmp_path)]) == EXIT_BANK
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["generate", "--n", "1", "--bank", str(deep)]) == EXIT_BANK


@pytest.mark.parametrize(
    "diameter_in, stage",
    [(1e-80, "hover_rpm"), (1e100, "static_thrust")],
    ids=["underflow", "overflow"],
)
def test_grid_the_oracle_cannot_evaluate_names_the_stage(tmp_path, capsys, diameter_in, stage):
    doc = json.loads(shipped_bank_path().read_text(encoding="utf-8"))
    doc["grids"]["quad-14kg"]["prop_diameter_in"].append(diameter_in)
    bank = _write(tmp_path / "bank.json", doc)
    code = main(["run", "--n", "1", "--bank", bank, "--agent", "oracle", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_BANK
    assert f"template 'l5-quad-14kg': {stage}: " in capsys.readouterr().err


_KEYS = st.sampled_from(
    ["schema_version", "contexts", "grids", "ct_overrides", "cause_vocabulary", "templates",
     "id", "level", "tags", "pattern", "answer", "kind", "levels", "system_type", "domains",
     "standards"]
) | st.text(max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_KEYS, children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_JSON, _JSON)
@example([], {"levels": [float("inf")]})
def test_any_json_bank_or_filter_ends_in_an_exit_code(bank_document, filter_document):
    with tempfile.TemporaryDirectory() as scratch:
        bank = os.path.join(scratch, "bank.json")
        out = os.path.join(scratch, "out.json")
        with open(bank, "w", encoding="utf-8") as f:
            json.dump(bank_document, f)
        assert main(["generate", "--n", "1", "--bank", bank, "--out", out]) in range(4)
        flt = json.dumps(filter_document)
        assert main(["generate", "--n", "1", "--filter", flt, "--out", out]) in range(4)


def test_transport_exhaustion_exit_3(monkeypatch, tmp_path):
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.send_response(500)
            self.end_headers()

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        monkeypatch.setenv(
            "EAGI_REMOTE_URL", f"http://127.0.0.1:{server.server_address[1]}/chat"
        )
        code = main(["run", "--n", "1", "--mode", "Curriculum", "--seed", "0",
                     "--agent", "remote", "--fail-fast"])
        assert code == EXIT_TRANSPORT
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


def test_remote_url_must_be_http_or_https(monkeypatch, capsys):
    monkeypatch.setenv("EAGI_REMOTE_URL", "file:///etc/passwd")
    assert main(["run", "--n", "1", "--agent", "remote"]) == EXIT_USAGE
    assert "http or https" in capsys.readouterr().err


def test_cli_imports_no_third_party_http_client():
    src = str(Path(eagibench.__file__).resolve().parents[1])
    code = "import sys, eagibench.cli; print([m for m in ('requests', 'urllib3') if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "case",
    [
        "instances-without-key",
        "instances-list",
        "unknown-template",
        "answers-list",
        "replay-list",
        "report-without-items",
    ],
)
def test_malformed_input_files_exit_1_without_traceback(tmp_path, capsys, case):
    good = tmp_path / "instances.json"
    assert main(["generate", "--n", "2", "--out", str(good)]) == EXIT_OK
    answers = _write(tmp_path / "answers.json", {})
    bad = tmp_path / "bad.json"
    argv = {
        "instances-without-key": lambda: [
            "score", "--instances", _write(bad, {"schema_version": 1}), "--answers", answers],
        "instances-list": lambda: [
            "score", "--instances", _write(bad, []), "--answers", answers],
        "unknown-template": lambda: [
            "score", "--instances",
            _write(bad, {"instances": [{"provenance": {"template_id": "no-such"}}]}),
            "--answers", answers],
        "answers-list": lambda: [
            "score", "--instances", str(good), "--answers", _write(bad, ["x"])],
        "replay-list": lambda: [
            "run", "--n", "2", "--agent", f"replay:{_write(bad, ['x'])}"],
        "report-without-items": lambda: [
            "report", "--input", _write(bad, {"schema_version": 1})],
    }[case]()
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_bad_run_config_exits_before_any_agent_call(tmp_path, monkeypatch):
    from eagibench.harness import ReplayAgent

    calls = []
    monkeypatch.setattr(ReplayAgent, "answer", lambda self, *a: calls.append(a) or "")
    answers = _write(tmp_path / "answers.json", {})
    code = main(["run", "--n", "24", "--threshold", "0", "--agent", f"replay:{answers}"])
    assert code == EXIT_USAGE
    assert calls == []


def test_run_instantiates_each_item_once(tmp_path, monkeypatch, bank):
    import eagibench.bank as bank_module

    real = bank_module.instantiate
    calls = []

    def counting(template, bank):
        calls.append(template.id)
        return real(template, bank)

    monkeypatch.setattr(bank_module, "instantiate", counting)
    code = main(["run", "--n", "24", "--agent", "oracle", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK
    # one per template at load; sampling reuses the loaded instances
    assert len(calls) == len(bank) == 24

    instances = tmp_path / "instances.json"
    assert main(["generate", "--n", "24", "--out", str(instances)]) == EXIT_OK
    answers = _write(tmp_path / "answers.json", {})
    calls.clear()
    assert main(["score", "--instances", str(instances), "--answers", answers,
                 "--out", str(tmp_path / "s.json")]) == EXIT_OK
    # score looks its records up in the loaded bank: every call is the load's
    assert len(calls) == len(bank)


def test_score_and_replay_run_grade_alike(tmp_path, instances):
    agent = OracleAgent(list(instances.values()))
    answers = {
        i.id: agent.answer(i.prompt, {"instance_id": i.id}) for i in instances.values()
    }
    answers["l3-no-load-rpm"] = "about 5000 RPM"
    answers["l5-quad-14kg"] = '```json\n{"design": {"kv_rpm_per_volt": 100}}\n```'
    for missing in ("l1-kv-meaning", "l4-thrust-fix", "l6-hvac-vrf-review"):
        del answers[missing]
    ans_path = _write(tmp_path / "answers.json", answers)
    inst_path = tmp_path / "instances.json"
    common = ["--n", "24", "--mode", "Stratified", "--seed", "3"]
    assert main(["generate", *common, "--out", str(inst_path)]) == EXIT_OK
    scored, ran = tmp_path / "scored.json", tmp_path / "ran.json"
    assert main(["score", "--instances", str(inst_path), "--answers", ans_path,
                 "--out", str(scored)]) == EXIT_OK
    assert main(["run", *common, "--agent", f"replay:{ans_path}", "--out", str(ran)]) == EXIT_OK
    items = json.loads(scored.read_text(encoding="utf-8"))["items"]
    assert items == json.loads(ran.read_text(encoding="utf-8"))["items"]
    verdicts = {item["verdict"] for item in items}
    assert {"Pass", "Fail", "Unscorable"} <= verdicts


_TEMPLATE_IDS = st.sampled_from(sorted(i.id for i in load_shipped_bank().instances.values()))
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_INSTANCE_RECORDS = st.fixed_dictionaries(
    {"provenance": st.fixed_dictionaries({"template_id": _TEMPLATE_IDS})}) | _JSON
_INSTANCES_DOCUMENT = st.fixed_dictionaries(
    {"instances": st.lists(_INSTANCE_RECORDS, max_size=4)},
    optional={"mode": _JSON, "seed": _JSON, "bank_fingerprint": _JSON},
)
_ANSWERS_DOCUMENT = st.dictionaries(_TEMPLATE_IDS | st.text(max_size=8), _JSON | _TEXT, max_size=4)


def _file_contents(document):
    """As file contents: half the time a document of the expected shape,
    otherwise any JSON or any text."""
    return document.map(json.dumps) | (_JSON.map(json.dumps) | _TEXT)


@settings(max_examples=150, deadline=None)
@given(_file_contents(_INSTANCES_DOCUMENT), _file_contents(_ANSWERS_DOCUMENT))
@example(json.dumps({"instances": [{"provenance": {"template_id": "l2-prop-parameters"}}]}),
         json.dumps({"l2-prop-parameters": {"fields": [1]}}))
def test_any_instances_or_answers_file_scores_to_an_exit_code(instances_text, answers_text):
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        for name, text in (("instances", instances_text), ("answers", answers_text)):
            paths[name] = os.path.join(scratch, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as f:
                f.write(text)
        argv = ["score", "--instances", paths["instances"], "--answers", paths["answers"],
                "--out", os.path.join(scratch, "report.json")]
        assert main(argv) in range(4)
