"""Command-line interface.

Verbs:

    generate   sample questions from a bank into an instances file
    score      grade an answers file against an instances file
    run        end-to-end evaluation with an agent adapter
    report     render a JSON report as markdown

Exit codes: 0 success, 1 usage/config error, 2 bank error, 3 transport
exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .bank import (
    BankError,
    QuestionBank,
    SampleMode,
    load_bank,
    sample,
    shipped_bank_path,
)
from .harness import (
    OracleAgent,
    RemoteAgent,
    ReplayAgent,
    RunConfig,
    TransportError,
    _collect_answers,
    bank_fingerprint,
    emit_report,
    grade,
    report_from_json,
    run_evaluation,
)
from .taxonomy import TagFilter

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BANK = 2
EXIT_TRANSPORT = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _parse_filter(raw: Optional[str]) -> TagFilter:
    if not raw:
        return TagFilter.empty()
    try:
        return TagFilter.from_dict(json.loads(raw))
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad --filter: {exc}") from None


def _load_bank_arg(raw: Optional[str]) -> tuple[QuestionBank, Path]:
    path = Path(raw) if raw else shipped_bank_path()
    return load_bank(path), path


def _read_json_object(path: str, what: str) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _sampling(args, flt: TagFilter) -> dict:
    """The record of how instances were drawn, as generate and run write it."""
    mode = SampleMode.parse(args.mode).value
    return {"filter": flt.to_dict(), "mode": mode, "n": args.n, "seed": args.seed}


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _make_agent(descriptor: str, config: RunConfig, instances) -> object:
    if descriptor == "oracle":
        return OracleAgent(instances)
    if descriptor.startswith("replay:"):
        return ReplayAgent(descriptor.split(":", 1)[1])
    if descriptor == "remote":
        return RemoteAgent(config=config)
    raise UsageError(f"unknown agent {descriptor!r} (expected oracle, replay:PATH, or remote)")


def _cmd_generate(args) -> int:
    bank, path = _load_bank_arg(args.bank)
    flt = _parse_filter(args.filter)
    instances = sample(bank, flt, args.n, args.mode, args.seed)
    payload = {
        "schema_version": 1,
        "bank": args.bank,
        "bank_fingerprint": bank_fingerprint(path),
        **_sampling(args, flt),
        "instances": [
            {
                "id": inst.id,
                "level": inst.level.name,
                "tags": inst.tags.to_dict(),
                "kind": inst.kind,
                "prompt": inst.prompt,
                "provenance": dict(inst.provenance),
            }
            for inst in instances
        ],
    }
    _write_out(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def _cmd_score(args) -> int:
    bank, bank_path = _load_bank_arg(args.bank)
    instances_doc = _read_json_object(args.instances, "instances file")
    agent = ReplayAgent(_read_json_object(args.answers, "answers file"))
    recorded = instances_doc.get("bank_fingerprint")
    if recorded and recorded != bank_fingerprint(bank_path):
        print(
            "warning: bank file differs from the one the instances were generated from",
            file=sys.stderr,
        )
    records = instances_doc.get("instances")
    if not isinstance(records, list):
        raise UsageError(f'instances file {args.instances}: no "instances" list')
    try:
        instances = [bank.instances[record["provenance"]["template_id"]] for record in records]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"instances file {args.instances}: bad instance record ({exc!r})") from None
    config = RunConfig(threshold=args.threshold)
    record = {"mode": instances_doc.get("mode"), "seed": instances_doc.get("seed"), "agent": "replay-file"}
    answers = _collect_answers(instances, agent, config)
    _write_out(emit_report(grade(instances, answers, config, record), "json"), args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    bank, path = _load_bank_arg(args.bank)
    flt = _parse_filter(args.filter)
    config = RunConfig(threshold=args.threshold, fail_fast=args.fail_fast)
    instances = sample(bank, flt, args.n, args.mode, args.seed)
    agent = _make_agent(args.agent, config, instances)
    report = run_evaluation(instances, agent, config, _sampling(args, flt))
    _write_out(emit_report(report, "json"), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    report = report_from_json(_read_json_object(args.input, "report file"))
    _write_out(emit_report(report, "markdown"), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eagibench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bank", help="bank file (default: shipped bank)")
        p.add_argument("--filter", help='tag filter as JSON, e.g. {"levels": [1, 3]}')
        p.add_argument("--mode", default="Targeted", help="Targeted | Stratified | Curriculum")
        p.add_argument("--n", type=int, required=True, help="number of items")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default: stdout)")

    g = sub.add_parser("generate", help="sample questions into an instances file")
    common(g)
    g.set_defaults(fn=_cmd_generate)

    s = sub.add_parser("score", help="grade an answers file against an instances file")
    s.add_argument("--bank", help="bank file (default: shipped bank)")
    s.add_argument("--instances", required=True)
    s.add_argument("--answers", required=True)
    s.add_argument("--threshold", type=float, default=0.7)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_score)

    r = sub.add_parser("run", help="run an end-to-end evaluation")
    common(r)
    r.add_argument("--agent", required=True, help="oracle | replay:PATH | remote")
    r.add_argument("--threshold", type=float, default=0.7)
    r.add_argument("--fail-fast", action="store_true")
    r.set_defaults(fn=_cmd_run)

    m = sub.add_parser("report", help="render a JSON report as markdown")
    m.add_argument("--input", required=True)
    m.add_argument("--out")
    m.set_defaults(fn=_cmd_report)

    return parser


_shared_parser = functools.cache(build_parser)  # the parser main uses, built on its first call


def main(argv: Optional[list[str]] = None) -> int:
    """One CLI call's exit code.  Callable repeatedly in one process: every call parses
    with one parser, built on the first, and checks ``--out`` before doing any work."""
    try:
        args = _shared_parser().parse_args(argv)
        if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            raise UsageError(f"--out {args.out}: not a file in an existing directory")
        return args.fn(args)
    except BankError as exc:
        print(f"bank error: {exc}", file=sys.stderr)
        return EXIT_BANK
    # UsageError, SampleError, bad values in the inputs, an input path that
    # is missing, a directory or unreadable, and JSON nested too deep to parse.
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as exc:
        print(f"transport exhausted: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
