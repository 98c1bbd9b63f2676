import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eagibench
import eagibench.cli as cli
from eagibench.bank import load_shipped_bank, shipped_bank_path
from eagibench.cli import EXIT_BANK, EXIT_OK, EXIT_TRANSPORT, EXIT_USAGE, main
from eagibench.harness import OracleAgent, ReplayAgent
from eagibench.taxonomy import CognitionLevel


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


def _generated(tmp_path, n, flt):
    out = tmp_path / "instances.json"
    code = main(["generate", "--n", str(n), "--filter", flt, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))["instances"] if code == EXIT_OK else None


def test_unknown_filter_key_exits_1_naming_it(tmp_path, capsys):
    assert _generated(tmp_path, 3, '{"level": [6, 6]}')[0] == EXIT_USAGE
    assert "unknown filter key 'level'" in capsys.readouterr().err


def test_bare_standards_string_is_one_value(tmp_path, capsys):
    code, instances = _generated(tmp_path, 1, '{"standards": "AHRI"}')
    assert code == EXIT_OK
    assert [i["id"] for i in instances] == ["l6-hvac-vrf-review"]
    assert _generated(tmp_path, 1, '{"standards": true}')[0] == EXIT_USAGE
    assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize(
    "levels, expected",
    [
        ("5", {"Create"}),
        ("[5]", {"Create"}),
        ("[4, 5]", {"Analyze", "Create"}),
        ('"Create"', {"Create"}),
        ('["Analyze", "Create"]', {"Analyze", "Create"}),
        ('"26"', None),
        ("[2.9, 4.99]", None),
        ("true", None),
    ],
    ids=["ordinal", "one-item", "range", "name", "name-range", "digit-string", "fractional",
         "bool"],
)
def test_filter_levels_read_each_bound_as_a_level(tmp_path, capsys, levels, expected):
    code, instances = _generated(tmp_path, 4, f'{{"levels": {levels}}}')
    if expected is None:
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.count("error:") == 1
    else:
        assert code == EXIT_OK
        assert {i["level"] for i in instances} <= expected


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


@pytest.mark.parametrize("out", ["missing/dir/r.json", "."], ids=["parent-missing", "directory"])
def test_bad_out_exits_before_any_agent_call(tmp_path, monkeypatch, capsys, out):
    from eagibench.harness import ReplayAgent

    calls = []
    monkeypatch.setattr(ReplayAgent, "answer", lambda self, *a: calls.append(a) or "")
    monkeypatch.chdir(tmp_path)
    answers = _write(tmp_path / "answers.json", {})
    code = main(["run", "--n", "24", "--agent", f"replay:{answers}", "--out", out])
    assert code == EXIT_USAGE
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["answers.json"]
    assert capsys.readouterr().err == f"error: --out {out}: not a file in an existing directory\n"


@pytest.fixture
def shipped_loads(monkeypatch, bank):
    """The CLI's bank loads return the session's loaded shipped bank."""
    monkeypatch.setattr(cli, "load_bank", lambda path: bank)


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, shipped_loads):
    report, scored, instances = (str(tmp_path / name) for name in ("r.json", "s.json", "i.json"))
    assert main(["run", "--agent", "oracle"]) == EXIT_USAGE
    assert "--n" in capsys.readouterr().err
    assert main(["run", "--n", "4", "--agent", "oracle", "--out", report]) == EXIT_OK

    generated = []
    for _ in range(3):
        assert main(["generate", "--n", "6", "--mode", "Stratified", "--seed", "3", "--out", instances]) == EXIT_OK
        generated.append(Path(instances).read_bytes())
    assert generated[0] == generated[2]

    answers = _write(tmp_path / "answers.json", {})
    assert main(["score", "--instances", instances, "--answers", answers, "--threshold", "0.9",
                 "--out", scored]) == EXIT_OK
    assert json.loads(Path(scored).read_text(encoding="utf-8"))["config"]["threshold"] == 0.9
    assert main(["run", "--n", "4", "--agent", "oracle", "--out", report]) == EXIT_OK
    assert json.loads(Path(report).read_text(encoding="utf-8"))["config"]["threshold"] == 0.7


def test_help_exits_0_on_every_call(capsys):
    for argv, names in ((["--help"], ("generate", "score", "run", "report")), (["run", "--help"], ("--agent",))):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            out = capsys.readouterr().out
            assert all(name in out for name in names), out


def test_main_builds_its_parser_once(monkeypatch, tmp_path, shipped_loads):
    built = []
    real_init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or real_init(self, *a, **k))
    cli._shared_parser.cache_clear()
    try:
        for verb in ("generate", "run", "generate"):
            extra = ["--agent", "oracle"] if verb == "run" else []
            assert main([verb, "--n", "2", *extra, "--out", str(tmp_path / "o.json")]) == EXIT_OK
        assert main(["run", "--agent", "oracle"]) == EXIT_USAGE
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 5  # the top-level parser and one per verb, once
    assert cli.build_parser() is not cli.build_parser()


def test_run_instantiates_each_item_once(tmp_path, monkeypatch, bank):
    import eagibench.bank as bank_module

    real = bank_module.instantiate
    calls = []

    def counting(template, bank, fronts=None):
        calls.append(template.id)
        return real(template, bank, fronts)

    monkeypatch.setattr(bank_module, "instantiate", counting)
    code = main(["run", "--n", "24", "--agent", "oracle", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK
    # one per template at load; sampling reuses the loaded instances
    assert len(calls) == len(bank.templates) == 24

    instances = tmp_path / "instances.json"
    assert main(["generate", "--n", "24", "--out", str(instances)]) == EXIT_OK
    answers = _write(tmp_path / "answers.json", {})
    calls.clear()
    assert main(["score", "--instances", str(instances), "--answers", answers,
                 "--out", str(tmp_path / "s.json")]) == EXIT_OK
    # score looks its records up in the loaded bank: every call is the load's
    assert len(calls) == len(bank.templates)


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


def test_score_asks_the_replay_agent_with_the_public_metadata(tmp_path, monkeypatch, shipped_loads):
    # score asks its agent through the harness loop, as run does: the instance id, level and tags.
    asked, real = [], ReplayAgent.answer
    monkeypatch.setattr(ReplayAgent, "answer", lambda self, prompt, metadata: asked.append(metadata)
                        or real(self, prompt, metadata))
    instances, answers = tmp_path / "i.json", _write(tmp_path / "a.json", {})
    assert main(["generate", "--n", "3", "--mode", "Curriculum", "--out", str(instances)]) == EXIT_OK
    records = json.loads(instances.read_text(encoding="utf-8"))["instances"]
    assert main(["score", "--instances", str(instances), "--answers", answers,
                 "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert asked == [{"instance_id": r["id"], "level": int(CognitionLevel[r["level"]]), "tags": r["tags"]}
                     for r in records]


@pytest.mark.parametrize("answer", [None, ["T = Ct * rho * n^2 * D^4"], 5], ids=["null", "list", "number"])
@pytest.mark.parametrize("verb", ["score", "run"])
def test_an_answer_that_is_not_a_json_string_exits_1_naming_its_id(tmp_path, capsys, verb, answer):
    # Read with str(), null was the reply "None", which fails where a missing answer is Unscorable, and
    # the formula in a list passed l1-thrust-equation, through both verbs.
    answers = _write(tmp_path / "answers.json", {"l1-kv-meaning": "RPM per volt", "l1-thrust-equation": answer})
    instances, common = tmp_path / "instances.json", ["--n", "24", "--mode", "Curriculum"]
    assert main(["generate", *common, "--out", str(instances)]) == EXIT_OK
    argv = {"score": ["score", "--instances", str(instances), "--answers", answers],
            "run": ["run", *common, "--agent", f"replay:{answers}"]}[verb]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == EXIT_USAGE
    message = f"error: replay answers: key 'l1-thrust-equation' must be a string, got {answer!r}\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "report.json").exists()


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


_ITEM = {"instance_id": "l3-no-load-rpm", "level": 3, "level_name": "Apply", "kind": "numeric",
         "value": 0.0, "verdict": "Fail", "evidence": [{"check_id": "c", "outcome": "fail", "detail": "d"}]}
_REPORT = {"schema_version": 1, "run_id": "r", "started_at": "", "duration_s": 0.0,
           "config": {"agent": "oracle", "threshold": 0.7}, "items": [_ITEM],
           "level_pass_rates": {"3": 0.0}, "competence_level": 0}


def test_unedited_report_fixture_renders(tmp_path):
    report, out = tmp_path / "report.json", tmp_path / "report.md"
    report.write_text(json.dumps(_REPORT), encoding="utf-8")
    assert main(["report", "--input", str(report), "--out", str(out)]) == EXIT_OK
    assert "competence level: 0" in out.read_text(encoding="utf-8")


def _with_any_values(document, **strategies):
    """``document`` with any subset of its values replaced, by any JSON or
    by the strategy given for that key."""
    return st.fixed_dictionaries({}, optional={k: strategies.get(k, _JSON) for k in document}).map(
        lambda replaced: {**document, **replaced})


_REPORT_DOCUMENT = _with_any_values(
    _REPORT, items=st.lists(_with_any_values(_ITEM) | _JSON, max_size=3) | _JSON)


@settings(max_examples=150, deadline=None)
@given(_file_contents(_REPORT_DOCUMENT))
@example(json.dumps({**_REPORT, "config": []}))
@example(json.dumps({**_REPORT, "config": "x"}))
@example(json.dumps({**_REPORT, "duration_s": 10**400}))
def test_any_report_file_renders_to_an_exit_code(report_text):
    with tempfile.TemporaryDirectory() as scratch:
        report, out = os.path.join(scratch, "report.json"), os.path.join(scratch, "report.md")
        with open(report, "w", encoding="utf-8") as f:
            f.write(report_text)
        assert main(["report", "--input", report, "--out", out]) in range(4)


def test_local_run_loads_no_transport_and_draws_a_fresh_run_id(tmp_path):
    src = str(Path(eagibench.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "from eagibench.cli import main\n"
        "for k in (1, 2):\n"
        "    main(['run', '--n', '2', '--agent', 'oracle', '--out', f'{sys.argv[1]}/r{k}.json'])\n"
        "print(json.dumps([m for m in ('http.client', 'urllib.request', 'ssl', 'email',\n"
        "    'concurrent.futures', 'uuid', 'hashlib', 'dataclasses', 'inspect') if m in sys.modules]))\n"
        # A remote run with no item to ask has no calls to overlap, so it starts no thread pool.
        "main(['run', '--n', '0', '--agent', 'remote', '--out', f'{sys.argv[1]}/r0.json'])\n"
        "print(json.dumps('concurrent.futures' in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env={**os.environ, "PYTHONPATH": src,
                                                          "EAGI_REMOTE_URL": "http://127.0.0.1:9/v1"},
        capture_output=True, text=True, check=True,
    )
    local, remote = done.stdout.splitlines()
    assert json.loads(local) == []
    assert json.loads(remote) is False
    run_ids = [json.loads((tmp_path / f"r{k}.json").read_text(encoding="utf-8"))["run_id"]
               for k in (1, 2)]
    assert all(re.fullmatch("[0-9a-f]{32}", run_id) for run_id in run_ids)
    assert run_ids[0] != run_ids[1]
