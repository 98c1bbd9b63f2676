import copy
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eagibench.bank import SampleMode, instantiate, load_shipped_bank, sample
from eagibench.harness import (
    EvaluationReport,
    ItemResult,
    OracleAgent,
    RemoteAgent,
    ReplayAgent,
    RunConfig,
    TransportError,
    assign_competence_level,
    emit_report,
    grade,
    report_from_json,
    run_evaluation,
)
from eagibench.scoring import Evidence, Score, Verdict, score_answer
from eagibench.taxonomy import TagFilter

EMPTY = TagFilter.empty()


@pytest.fixture()
def oracle_agent(instances):
    return OracleAgent(list(instances.values()))


@pytest.fixture()
def oracle_answers(instances, oracle_agent):
    return {
        i.id: oracle_agent.answer(i.prompt, {"instance_id": i.id}) for i in instances.values()
    }


class TestCompetenceAssignment:
    def test_rule_application(self):
        rates = {1: 1.0, 2: 1.0, 3: 1.0, 4: 0.9, 5: 0.2, 6: 0.0}
        assert assign_competence_level(rates, 0.7) == 4

    def test_all_below_threshold(self):
        assert assign_competence_level({1: 0.5, 2: 0.1}, 0.7) == 0

    def test_skip_empty_levels(self):
        assert assign_competence_level({2: 1.0}, 0.7) == 2

    def test_gap_does_not_break_chain(self):
        # no L3 items at all; L4 still reachable
        assert assign_competence_level({1: 1.0, 2: 1.0, 4: 1.0}, 0.7) == 4

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            assign_competence_level({1: 1.0}, 0.0)


class TestRunEvaluation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0.0},
            {"threshold": 1.5},
            {"max_in_flight": 0},
            {"remote_retries": -1},
            {"remote_timeout_s": 0.0},
            {"remote_timeout_s": -1.0},
            {"remote_timeout_s": float("nan")},
            {"remote_timeout_s": float("inf")},
            {"remote_backoff_s": -0.5},
            {"remote_backoff_s": float("nan")},
            {"threshold": True},
        ],
    )
    def test_config_rejects_out_of_domain_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_oracle_agent_full_bank_all_pass(self, bank, instances, oracle_agent):
        report = run_evaluation(
            sample(bank, EMPTY, len(bank.templates), SampleMode.Curriculum, 0), oracle_agent
        )
        assert all(item.score.verdict is Verdict.Pass for item in report.items)
        assert report.competence_level >= 4
        for level in range(1, 5):
            assert report.level_pass_rates[level] == 1.0

    def test_one_wrong_l3_answer_only_flips_that_item(self, bank, oracle_answers):
        wrong = dict(oracle_answers)
        wrong["l3-no-load-rpm"] = "about 5000 RPM"
        report = run_evaluation(
            sample(bank, EMPTY, 24, SampleMode.Curriculum, 0), ReplayAgent(wrong)
        )
        by_id = {item.instance_id: item for item in report.items}
        assert by_id["l3-no-load-rpm"].score.verdict is Verdict.Fail
        others = [i for i in report.items if i.instance_id != "l3-no-load-rpm"]
        assert all(i.score.verdict is Verdict.Pass for i in others)

    def test_empty_run_reports_zero_competence(self, bank, oracle_agent):
        report = run_evaluation(sample(bank, EMPTY, 0, SampleMode.Targeted, 0), oracle_agent)
        assert report.items == ()
        assert report.competence_level == 0

    def test_replay_determinism(self, bank, oracle_answers):
        def run():
            return run_evaluation(
                sample(bank, EMPTY, 12, SampleMode.Targeted, 99), ReplayAgent(oracle_answers)
            )

        a, b = run(), run()
        da, db = a.to_dict(), b.to_dict()
        for d in (da, db):
            d.pop("run_id")
            d.pop("started_at")
            d.pop("duration_s")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
        assert a.competence_level == b.competence_level


class TestReports:
    def test_json_round_trip(self, bank, oracle_agent):
        report = run_evaluation(sample(bank, EMPTY, 6, SampleMode.Curriculum, 0), oracle_agent)
        assert report_from_json(emit_report(report, "json")) == report

    def test_markdown_has_one_row_per_level(self, bank, oracle_agent):
        report = run_evaluation(sample(bank, EMPTY, 24, SampleMode.Curriculum, 0), oracle_agent)
        md = emit_report(report, "markdown")
        for level in range(1, 7):
            assert f"| {level} (" in md

    def test_empty_report_valid_documents(self, bank, oracle_agent):
        report = run_evaluation(sample(bank, EMPTY, 0, SampleMode.Targeted, 0), oracle_agent)
        parsed = json.loads(emit_report(report, "json"))
        assert parsed["items"] == []
        assert "competence level: 0" in emit_report(report, "markdown")

    def test_unknown_format_rejected(self, bank, oracle_agent):
        report = run_evaluation(sample(bank, EMPTY, 0, SampleMode.Targeted, 0), oracle_agent)
        with pytest.raises(ValueError):
            emit_report(report, "xml")

    @pytest.mark.parametrize(
        "document",
        [
            '{"schema_version": 1}',
            "[1]",
            '{"schema_version": 1, "items": [1]}',
            '{"schema_version": 1, "items": [], "run_id": "r", "started_at": "", '
            '"duration_s": 0, "config": {}, "level_pass_rates": [], "competence_level": 0}',
        ],
    )
    def test_malformed_report_raises_value_error(self, document):
        with pytest.raises(ValueError, match="report"):
            report_from_json(document)

    @pytest.mark.parametrize(
        "field, value",
        [("level", 3.7), ("level", 9), ("level", True), ("level_pass_rates", {"9": 1.0}),
         ("competence_level", True), ("competence_level", 3.7), ("competence_level", 7),
         ("level_pass_rates", {"3": 0.5}), ("competence_level", 6)],
        ids=["item-fractional", "item-9", "item-bool", "rate-9", "competence-bool",
             "competence-fractional", "competence-7", "rate-edited", "competence-6"],
    )
    def test_levels_read_only_as_levels(self, field, value):
        score = Score(1.0, Verdict.Pass, (Evidence("check", "pass", "detail"),))
        report = EvaluationReport("r", "", 0.0, {"threshold": 0.7}, (ItemResult("a", 3, "numeric", score),))
        document = json.loads(emit_report(report, "json"))
        (document["items"][0] if field == "level" else document)[field] = value
        with pytest.raises(ValueError, match="(?i)level"):
            report_from_json(document)

    @pytest.mark.parametrize(
        "edits, item_edits, field",
        [
            ({"level_pass_rates": {"3": 0.0, "4": 0.0}, "competence_level": 6}, {}, "competence_level"),
            ({}, {"level_name": "Create"}, "items"),
            ({}, {"value": "0.5"}, "items"),
            ({}, {"value": True}, "items"),
            ({"duration_s": "7"}, {}, "duration_s"),
            ({"schema_version": True}, {}, "schema_version"),
            ({"config": {"agent": "replay"}}, {}, "threshold"),
            ({"config": {"agent": "replay", "threshold": 0}}, {}, "threshold"),
            ({"config": {"agent": "replay", "threshold": 1.5}}, {}, "threshold"),
            ({"config": {"agent": "replay", "threshold": True}}, {}, "threshold"),
        ],
        ids=["competence-6-over-zero-rates", "level-name-edited", "value-string", "value-bool",
             "duration-string", "schema-version-bool", "config-without-threshold", "threshold-0",
             "threshold-1.5", "threshold-true"],
    )
    def test_report_that_does_not_re_emit_itself_rejected(self, edits, item_edits, field):
        passed = Score(1.0, Verdict.Pass, (Evidence("check", "pass", "detail"),))
        failed = Score(0.0, Verdict.Fail, (Evidence("check", "fail", "detail"),))
        report = EvaluationReport("r", "", 0.0, {"agent": "replay", "threshold": 0.7}, (
            ItemResult("a", 3, "numeric", passed), ItemResult("b", 4, "numeric", failed)))
        document = {**json.loads(emit_report(report, "json")), **edits}
        document["items"][1].update(item_edits)
        with pytest.raises(ValueError, match=field):
            report_from_json(document)


_text = st.text(max_size=12)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
# Any verdict; evidence may be empty only when Unscorable.
_scores = st.sampled_from(list(Verdict)).flatmap(lambda verdict: st.builds(
    Score, st.floats(0, 1), st.just(verdict),
    st.lists(st.builds(Evidence, _text, _text, _text), min_size=verdict is not Verdict.Unscorable,
             max_size=3).map(tuple),
))
_reports = st.builds(
    EvaluationReport,
    run_id=_text,
    started_at=_text,
    duration_s=st.floats(0, 1e6),
    config=st.builds(lambda config, threshold: {**config, "threshold": threshold},
                     st.dictionaries(_text, _json_values, max_size=4), st.floats(0, 1, exclude_min=True)),
    items=st.lists(st.builds(ItemResult, _text, st.integers(1, 6), _text, _scores), max_size=4).map(tuple),
)


@given(_reports)
def test_report_round_trips_through_its_json(report):
    assert report_from_json(emit_report(report, "json")) == report


def _nodes(node, prefix=()):
    """Every path below the root of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _nodes(child, prefix + (key,))


def _mixed_report() -> dict:
    """A written report of the shipped bank, every third item answered
    wrong or not at all, so each level 1-6 holds passes and failures."""
    bank = load_shipped_bank()
    instances = [instantiate(t, bank) for t in bank.templates]
    oracle = OracleAgent(instances)
    answers = [oracle.answer("", {"instance_id": inst.id}) if k % 3 != 1 else ("", "about 5000 RPM")[k % 2]
               for k, inst in enumerate(instances)]
    report = grade(instances, answers, RunConfig(), {"agent": "replay"})
    return json.loads(emit_report(report, "json"))


_MIXED = _mixed_report()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(_nodes(_MIXED))),
    st.sampled_from([None, 0, -1, "", "x", [], {}, [1], True, 1e308, "0.5", 3.7]),
)
def test_single_node_replacement_is_rejected_or_re_emits_itself(path, value):
    doc = copy.deepcopy(_MIXED)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    try:
        report = report_from_json(doc)
    except ValueError:
        return
    assert emit_report(report, "json") == json.dumps(doc, indent=2, sort_keys=True)
    assert emit_report(report, "markdown").startswith("# Evaluation report")


class _ChatHandler(BaseHTTPRequestHandler):
    behavior = "echo-canned"
    canned: dict = {}
    fail_first = 0
    calls = 0

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        prompt = request["messages"][0]["content"]
        if cls.behavior == "always-500" or (
            cls.behavior == "flaky" and cls.calls <= cls.fail_first
        ):
            self.send_response(500)
            self.end_headers()
            return
        if cls.behavior == "bad-status-line":
            self.wfile.write(b"NOT-HTTP 200 OK\r\n\r\n")
            return
        reply = None
        for key, text in cls.canned.items():
            if key in prompt:
                reply = text
                break
        body = json.dumps({"choices": [{"message": {"content": reply or "no idea"}}]}).encode()
        if cls.behavior.startswith("body:"):
            body = cls.behavior.removeprefix("body:").encode("latin-1")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        # A truncated reply promises more bytes than it sends, then closes.
        extra = 10 if cls.behavior == "truncated" else 0
        self.send_header("Content-Length", str(len(body) + extra))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    handler = type("Handler", (_ChatHandler,), {})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


class TestRemoteAgent:
    def test_wire_format_and_answer_flow(self, bank, instances, oracle_agent, chat_server):
        url, handler = chat_server
        # canned replies keyed by a prompt fragment
        handler.canned = {
            "no-load RPM of the 380": oracle_agent.answer("", {"instance_id": "l3-no-load-rpm"}),
        }
        config = RunConfig(remote_retries=0)
        agent = RemoteAgent(url=url, token="secret", config=config)
        flt = TagFilter.from_dict({"levels": [3, 3]})
        report = run_evaluation(sample(bank, flt, 4, SampleMode.Curriculum, 0), agent, config)
        by_id = {i.instance_id: i for i in report.items}
        assert by_id["l3-no-load-rpm"].score.verdict is Verdict.Pass
        # unanswered items are scored, not crashed
        assert by_id["l3-kv-torque"].score.verdict in (Verdict.Unscorable, Verdict.Fail)

    def test_retry_then_success(self, chat_server):
        url, handler = chat_server
        handler.behavior = "flaky"
        handler.fail_first = 2
        handler.canned = {"": "42 RPM"}
        config = RunConfig(remote_retries=2, remote_backoff_s=0.01)
        agent = RemoteAgent(url=url, config=config)
        assert "42" in agent.answer("whatever", {})

    def test_exhaustion_marks_item_unscorable_and_run_continues(self, bank, chat_server):
        url, handler = chat_server
        handler.behavior = "always-500"
        config = RunConfig(remote_retries=1, remote_backoff_s=0.01)
        agent = RemoteAgent(url=url, config=config)
        report = run_evaluation(sample(bank, EMPTY, 3, SampleMode.Curriculum, 0), agent, config)
        assert len(report.items) == 3
        assert all(i.score.verdict is Verdict.Unscorable for i in report.items)

    def test_fail_fast_raises_transport_error(self, bank, chat_server):
        url, handler = chat_server
        handler.behavior = "always-500"
        config = RunConfig(remote_retries=0, fail_fast=True, remote_backoff_s=0.01)
        agent = RemoteAgent(url=url, config=config)
        with pytest.raises(TransportError):
            run_evaluation(sample(bank, EMPTY, 2, SampleMode.Curriculum, 0), agent, config)

    def test_env_configuration(self, monkeypatch, chat_server):
        url, handler = chat_server
        handler.canned = {"": "ok"}
        monkeypatch.setenv("EAGI_REMOTE_URL", url)
        monkeypatch.setenv("EAGI_REMOTE_TOKEN", "tok")
        agent = RemoteAgent()
        assert agent.url == url
        assert agent.token == "tok"

    def test_missing_url_rejected(self, monkeypatch):
        monkeypatch.delenv("EAGI_REMOTE_URL", raising=False)
        with pytest.raises(ValueError):
            RemoteAgent()

    @pytest.mark.parametrize(
        "url", ["file:///etc/passwd", "ftp://127.0.0.1/chat", "data:,x", "127.0.0.1:8000/chat"]
    )
    def test_non_http_url_rejected(self, url):
        with pytest.raises(ValueError, match="http or https"):
            RemoteAgent(url=url)

    @pytest.mark.parametrize(
        "behavior",
        ["bad-status-line", "truncated", "body:[]", 'body:{"choices": "x"}',
         'body:{"choices": [1]}', 'body:{"choices": []}', "body:not json", "body:\xff\xfe",
         "body:" + "[" * 100_000],
        ids=["bad-status-line", "truncated", "list", "choices-text", "choices-number",
             "choices-empty", "not-json", "not-utf8", "nested-too-deep"],
    )
    def test_malformed_reply_is_a_failed_attempt_not_a_crash(self, bank, chat_server, behavior):
        url, handler = chat_server
        handler.behavior = behavior
        config = RunConfig(remote_retries=1, remote_backoff_s=0.01)
        agent = RemoteAgent(url=url, config=config)
        with pytest.raises(TransportError):
            agent.answer("whatever", {})
        assert handler.calls == 2
        report = run_evaluation(sample(bank, EMPTY, 3, SampleMode.Curriculum, 0), agent, config)
        assert len(report.items) == 3
        assert all(i.score.verdict is Verdict.Unscorable for i in report.items)

    @pytest.mark.parametrize("behavior, status", [("always-500", "500"), ("body:[]", "200")])
    def test_transport_error_names_the_http_status(self, chat_server, behavior, status):
        url, handler = chat_server
        handler.behavior = behavior
        agent = RemoteAgent(url=url, config=RunConfig(remote_retries=0))
        with pytest.raises(TransportError, match=f"HTTP.*{status}"):
            agent.answer("whatever", {})

    @pytest.mark.parametrize("choice", [{"message": {"content": None}}, {"text": None}], ids=["content", "text"])
    def test_null_content_is_an_empty_reply_and_not_retried(self, instances, chat_server, choice):
        # A refusal or a tool call sends null content: no reply, so Unscorable, and a retry would not change it.
        url, handler = chat_server
        handler.behavior = "body:" + json.dumps({"choices": [choice]})
        config = RunConfig(remote_retries=2, remote_backoff_s=0.01)
        agent = RemoteAgent(url=url, config=config)
        assert agent.answer("whatever", {}) == ""
        assert handler.calls == 1
        report = run_evaluation([instances["l1-thrust-equation"]], agent, config)
        assert [i.score.verdict for i in report.items] == [Verdict.Unscorable]
        assert handler.calls == 2

    @pytest.mark.parametrize("wrap", [lambda reply: [{"type": "text", "text": reply}], lambda reply: {"text": reply},
                                      lambda reply: 5, lambda reply: True], ids=["parts", "object", "number", "bool"])
    def test_content_that_is_not_a_string_is_a_failed_attempt(self, instances, oracle_agent, chat_server, wrap):
        # Content parts around the reference reply would pass through their Python repr; any
        # content but a string or null is not a chat completion, so the attempt fails.
        url, handler = chat_server
        reply = oracle_agent.answer("", {"instance_id": "l1-thrust-equation"})
        handler.behavior = "body:" + json.dumps({"choices": [{"message": {"content": wrap(reply)}}]})
        config = RunConfig(remote_retries=1, remote_backoff_s=0.01)
        agent = RemoteAgent(url=url, config=config)
        with pytest.raises(TransportError, match="not a chat completion"):
            agent.answer("whatever", {})
        assert handler.calls == 2
        report = run_evaluation([instances["l1-thrust-equation"]], agent, config)
        assert [i.score.verdict for i in report.items] == [Verdict.Unscorable]


def _stated_reply(body):
    """The reply a chat body states, as docs/answer-format.md reads it: the first choice's message
    content, or its text when it has no message; None unless that is a JSON string."""
    choices = body.get("choices") if isinstance(body, dict) else None
    if not (isinstance(choices, list) and choices and isinstance(choices[0], dict)):
        return None
    message = choices[0].get("message")
    reply = choices[0].get("text") if message is None else message.get("content") if isinstance(message, dict) else None
    return reply if isinstance(reply, str) else None


_REMOTE_ITEMS = ("l1-thrust-equation", "l3-no-load-rpm", "l4-vibration")


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fail_fast=st.booleans())
def test_any_chat_body_ends_every_item_scored_or_unscorable(instances, oracle_agent, chat_server, data, fail_fast):
    # Each item's reply is the body's content only when that is a string; any other body is an attempt that
    # failed, so the item is Unscorable, or under fail_fast the run raises TransportError.
    url, handler = chat_server
    items = [instances[i] for i in _REMOTE_ITEMS]
    content = st.sampled_from([oracle_agent.answer("", {"instance_id": i}) for i in _REMOTE_ITEMS]) | _json_values
    choice = (st.fixed_dictionaries({"message": st.fixed_dictionaries({"content": content})})
              | st.fixed_dictionaries({"text": content}) | st.fixed_dictionaries({"message": content}) | _json_values)
    body = data.draw(st.fixed_dictionaries({"choices": st.lists(choice, max_size=2)}) | _json_values)
    handler.behavior = "body:" + json.dumps(body)
    config = RunConfig(remote_retries=0, fail_fast=fail_fast)
    reply = _stated_reply(body)
    try:
        report = run_evaluation(items, RemoteAgent(url=url, config=config), config)
    except TransportError:
        assert fail_fast and reply is None
        return
    assert [i.instance_id for i in report.items] == list(_REMOTE_ITEMS)
    for item, instance in zip(report.items, items):
        if reply is None:
            assert item.score.verdict is Verdict.Unscorable
        else:
            assert item.score == score_answer(instance.answer_spec, reply)


class TestAdapters:
    def test_adapters_receive_only_public_metadata(self, bank, instances):
        seen = {}

        class Probe:
            name = "probe"

            def answer(self, prompt, metadata):
                seen.update(metadata)
                return ""

        run_evaluation(sample(bank, EMPTY, 1, SampleMode.Curriculum, 0), Probe())
        assert set(seen) == {"instance_id", "level", "tags"}

    def test_replay_agent_from_file(self, tmp_path, bank, oracle_answers):
        path = tmp_path / "answers.json"
        path.write_text(json.dumps(oracle_answers), encoding="utf-8")
        report = run_evaluation(
            sample(bank, EMPTY, 24, SampleMode.Curriculum, 0), ReplayAgent(path)
        )
        assert all(i.score.verdict is Verdict.Pass for i in report.items)

    def test_replay_file_that_is_not_an_object_raises_value_error(self, tmp_path):
        path = tmp_path / "answers.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            ReplayAgent(path)
