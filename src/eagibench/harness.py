"""End-to-end evaluation runner: agents, aggregation, reports.

Adapters receive only the rendered prompt and public metadata (instance
id, level, tags) through ``answer``; ground-truth specs never cross the
adapter call interface.  The oracle agent is the one deliberate
exception: it is constructed *from* the instance list so the harness can
self-test (every objective item it answers must score Pass).

Remote calls may run concurrently (bounded in flight); scoring and
aggregation stay sequential over the sampled item order, so reports are
reproducible for a fixed seed and replay file.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Protocol, Sequence
from urllib.parse import urlsplit

from .bank import _NULL, _TEXT, QuestionInstance, _typed
from .records import checked
from .scoring import Evidence, Score, Verdict, reference_answer, score_answer, unscorable
from .taxonomy import CognitionLevel

REMOTE_URL_ENV = "EAGI_REMOTE_URL"
REMOTE_TOKEN_ENV = "EAGI_REMOTE_TOKEN"

REPORT_SCHEMA_VERSION = 1


class TransportError(RuntimeError):
    """Remote agent call failed after exhausting retries."""


@checked
class RunConfig(NamedTuple):
    threshold: float = 0.7
    fail_fast: bool = False
    max_in_flight: int = 4
    remote_timeout_s: float = 30.0
    remote_retries: int = 2
    remote_backoff_s: float = 0.5
    model: str = "default"

    def _check(self):
        # Checked here so a bad value fails before any agent call is spent.
        for name, ok, rule in (
            ("threshold", not isinstance(self.threshold, bool) and 0.0 < self.threshold <= 1.0, "in (0, 1]"),
            ("max_in_flight", self.max_in_flight >= 1, "at least 1"),
            ("remote_retries", self.remote_retries >= 0, "at least 0"),
            ("remote_timeout_s", 0.0 < self.remote_timeout_s < math.inf, "positive and finite"),
            ("remote_backoff_s", self.remote_backoff_s >= 0.0, "at least 0"),  # NaN fails too
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


class AgentAdapter(Protocol):
    name: str

    def answer(self, prompt: str, metadata: Mapping) -> str: ...


class ReplayAgent:
    """Answers from a keyed file: {"<instance id>": "<answer text>", ...}, each a JSON string."""

    name = "replay"

    def __init__(self, answers: Mapping[str, str] | str | Path):
        if isinstance(answers, (str, Path)):
            answers = json.loads(Path(answers).read_text(encoding="utf-8"))
        if not isinstance(answers, Mapping):
            raise ValueError(f"replay answers must be a JSON object, got {type(answers).__name__}")
        try:
            self._answers = {key: _typed(key, text, _TEXT) for key, text in answers.items()}
        except TypeError as exc:  # bad input, as a usage error: the CLI exits 1
            raise ValueError(f"replay answers: {exc}") from None

    def answer(self, prompt: str, metadata: Mapping) -> str:
        return self._answers.get(metadata["instance_id"], "")


class OracleAgent(ReplayAgent):
    """Answers every item from its ground truth (self-consistency fixture)."""

    name = "oracle"

    def __init__(self, instances: Sequence[QuestionInstance]):
        super().__init__({inst.id: reference_answer(inst.answer_spec) for inst in instances})


class RemoteAgent:
    """HTTP chat-completion adapter.

    Sends ``{"model": ..., "messages": [{"role": "user", "content": ...}]}``
    and reads the first choice's message content.  Endpoint and bearer
    token come from EAGI_REMOTE_URL / EAGI_REMOTE_TOKEN unless given
    explicitly; timeout and retry counts come from the run config.  Each
    attempt opens its own connection, so concurrent calls share no state.
    """

    name = "remote"

    def __init__(
        self, url: Optional[str] = None, token: Optional[str] = None, config: RunConfig = RunConfig()
    ):
        self.url = url or os.environ.get(REMOTE_URL_ENV)
        if not self.url:
            raise ValueError(f"remote agent needs a URL ({REMOTE_URL_ENV} or explicit)")
        # urlopen would also read file:, ftp: and data: URLs.
        if urlsplit(self.url).scheme not in ("http", "https"):
            raise ValueError(f"remote agent URL must be http or https, got {self.url!r}")
        self.token = token if token is not None else os.environ.get(REMOTE_TOKEN_ENV)
        self.config = config

    def answer(self, prompt: str, metadata: Mapping) -> str:
        # Imported on first use: with ssl and email they are a third of start-up.
        import http.client
        import urllib.error
        import urllib.request
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        payload = {"model": self.config.model, "messages": [{"role": "user", "content": prompt}]}
        request = urllib.request.Request(self.url, json.dumps(payload).encode(), headers)  # a POST
        last_error: object = None
        for attempt in range(self.config.remote_retries + 1):
            status = None
            try:
                with urllib.request.urlopen(request, timeout=self.config.remote_timeout_s) as reply:
                    status = reply.status
                    return _chat_content(json.loads(reply.read().decode("utf-8")))
            # OSError: URLError, HTTPError (it names its status), timeouts.  HTTPException: a bad
            # status line, a short body.  ValueError, RecursionError: not UTF-8 JSON, not a chat
            # reply, JSON nested too deep to parse.
            except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error reply holds its connection until closed
                last_error = exc if status is None else f"HTTP {status}: {exc}"
                if attempt < self.config.remote_retries:
                    time.sleep(self.config.remote_backoff_s * (attempt + 1))
        raise TransportError(f"remote agent failed after retries: {last_error}")


def _chat_content(body: object) -> str:
    """The first choice's message content (or completion text) of a chat reply, a JSON string by
    :func:`bank._typed`; a null one (a refusal, a tool call) is an empty reply."""
    try:
        choice = body["choices"][0]
        message = choice.get("message")
        key, value = ("text", choice["text"]) if message is None else ("content", message["content"])
        return _typed(key, value, (*_TEXT, _NULL)) or ""
    except (LookupError, TypeError, AttributeError):
        raise ValueError(f"not a chat completion: {body!r:.200}") from None


class ItemResult(NamedTuple):
    instance_id: str
    level: int
    kind: str
    score: Score

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "level": self.level,
            "level_name": CognitionLevel(self.level).name,
            "kind": self.kind,
            "value": self.score.value,
            "verdict": self.score.verdict.value,
            "evidence": [
                {"check_id": e.check_id, "outcome": e.outcome, "detail": e.detail}
                for e in self.score.evidence
            ],
        }


class EvaluationReport(NamedTuple):
    run_id: str
    started_at: str
    duration_s: float
    config: Mapping
    items: tuple[ItemResult, ...]

    @property
    def level_pass_rates(self) -> dict[int, float]:
        total = Counter(item.level for item in self.items)
        passed = Counter(item.level for item in self.items if item.score.verdict is Verdict.Pass)
        return {level: passed[level] / total[level] for level in sorted(total)}

    @property
    def competence_level(self) -> int:
        return assign_competence_level(self.level_pass_rates, self.config["threshold"])

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "run_id": self.run_id,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "config": dict(self.config),
            "items": [item.to_dict() for item in self.items],
            "level_pass_rates": {str(k): v for k, v in self.level_pass_rates.items()},
            "competence_level": self.competence_level,
        }


def assign_competence_level(rates: Mapping[int, float], threshold: float) -> int:
    """Largest level whose pass rate, and every populated level below it,
    clears the threshold.  Levels with no items are skipped, not assumed
    passed; 0 when no populated level clears it."""
    if isinstance(threshold, bool) or not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    competence = 0
    for level in sorted(rates):
        if rates[level] >= threshold:
            competence = level
        else:
            break
    return competence


def _collect_answers(
    instances: Sequence[QuestionInstance], agent: AgentAdapter, config: RunConfig
) -> list[str | TransportError]:
    def ask(instance: QuestionInstance):
        metadata = {
            "instance_id": instance.id,
            "level": int(instance.level),
            "tags": instance.tags.to_dict(),
        }
        try:
            return agent.answer(instance.prompt, metadata)
        except TransportError as exc:
            return exc

    # Only the remote agent waits on I/O, and only two or more calls in
    # flight overlap.  Otherwise items are answered in order on this thread:
    # a pool gains nothing and costs about 2 ms of CPU per 24-item run, some
    # 18% of a replay run.
    if isinstance(agent, RemoteAgent) and min(config.max_in_flight, len(instances)) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
            return list(pool.map(ask, instances))
    return [ask(instance) for instance in instances]


def grade(
    instances: Sequence[QuestionInstance],
    answers: Sequence[str | TransportError],
    config: RunConfig,
    record: Mapping,
    started: Optional[float] = None,
) -> EvaluationReport:
    """Score each answer against the instance it is aligned with, into a
    report whose config is ``record`` with ``config.threshold`` added; the
    report derives its pass rates and competence from these.

    A ``TransportError`` answer marks its item Unscorable, or is re-raised
    when ``config.fail_fast`` is set.  Without a ``started`` time the
    grading is offline: run id ``offline``, no start time, zero duration.
    """
    items = []
    for instance, answer in zip(instances, answers, strict=True):
        if isinstance(answer, TransportError):
            if config.fail_fast:
                raise answer
            score = unscorable(f"agent transport failure: {answer}")
        else:
            score = score_answer(instance.answer_spec, answer)
        items.append(ItemResult(instance.id, int(instance.level), instance.kind, score))
    offline = started is None
    return EvaluationReport(
        run_id="offline" if offline else os.urandom(16).hex(),
        started_at="" if offline else time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        duration_s=0.0 if offline else round(time.time() - started, 6),
        config={**record, "threshold": config.threshold},
        items=tuple(items),
    )


def run_evaluation(
    instances: Sequence[QuestionInstance],
    agent: AgentAdapter,
    config: RunConfig = RunConfig(),
    sampling: Optional[Mapping] = None,
) -> EvaluationReport:
    """Prompt the agent per sampled item, score, and aggregate.

    ``sampling`` is the ``{filter, mode, n, seed}`` record of how the
    instances were drawn; it is copied into the report config.  Transport
    failures mark the item Unscorable and the run continues, unless
    ``config.fail_fast`` re-raises the failure.
    """
    started = time.time()
    answers = _collect_answers(instances, agent, config)
    agent_name = getattr(agent, "name", type(agent).__name__)
    record = {**(sampling or {}), "agent": agent_name, **config._asdict()}
    return grade(instances, answers, config, record, started)


def emit_report(report: EvaluationReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt == "markdown":
        return _markdown_report(report)
    raise ValueError(f"unknown report format: {fmt!r} (expected json or markdown)")


def report_from_json(document: str | Mapping) -> EvaluationReport:
    """Inverse of the json emitter: loads only a document it re-emits unchanged.

    The report is built from its five stored fields; pass rates and
    competence derive from the items and ``config.threshold``.  Raises
    ValueError for a document that is not a report, or for the first
    top-level key whose JSON text differs from what the report writes (a
    rate the items contradict, an unknown key, ``"0.5"`` or ``true`` for a number).
    """
    raw = json.loads(document) if isinstance(document, str) else document
    if not isinstance(raw, Mapping):
        raise ValueError(f"a report must be a JSON object, got {type(raw).__name__}")
    if raw.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema_version {raw.get('schema_version')!r}")
    try:
        if not isinstance(raw["config"], Mapping):
            raise TypeError(f"config must be a JSON object, got {type(raw['config']).__name__}")
        items = tuple(
            ItemResult(
                instance_id=item["instance_id"],
                level=int(CognitionLevel.parse(item["level"])),
                kind=item["kind"],
                score=Score(
                    value=float(item["value"]),
                    verdict=Verdict(item["verdict"]),
                    evidence=tuple(
                        Evidence(e["check_id"], e["outcome"], e["detail"]) for e in item["evidence"]
                    ),
                ),
            )
            for item in raw["items"]
        )
        report = EvaluationReport(
            raw["run_id"], raw["started_at"], float(raw["duration_s"]), raw["config"], items)
        stated, written = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()}
                           for d in (raw, report.to_dict()))
        differ = sorted(k for k in stated.keys() | written.keys() if stated.get(k) != written.get(k))
        if differ:
            raise ValueError(f"report field {differ[0]!r} is not what the report re-emits")
        return report
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from None


def _markdown_report(report: EvaluationReport) -> str:
    lines = [
        "# Evaluation report",
        "",
        f"- run id: `{report.run_id}`",
        f"- started: {report.started_at} (duration {report.duration_s:.2f} s)",
        f"- agent: {report.config.get('agent', '?')}",
        f"- items: {len(report.items)}",
        f"- **competence level: {report.competence_level}**",
        "",
        "| Level | Items | Pass rate |",
        "|-------|-------|-----------|",
    ]
    by_level = Counter(item.level for item in report.items)
    for level, rate in sorted(report.level_pass_rates.items()):
        lines.append(f"| {level} ({CognitionLevel(level).name}) | {by_level[level]} | {rate:.0%} |")
    failed = [i for i in report.items if i.score.verdict is not Verdict.Pass]
    if failed:
        lines += ["", "## Items not passed", ""]
        for item in failed:
            lines.append(
                f"- `{item.instance_id}` (L{item.level}, {item.kind}): "
                f"{item.score.verdict.value}, value {item.score.value:.2f}"
            )
            for e in item.score.evidence:
                lines.append(f"    - {e.check_id}: {e.outcome} - {e.detail}")
    return "\n".join(lines) + "\n"


def bank_fingerprint(path: str | Path) -> str:
    import hashlib
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
