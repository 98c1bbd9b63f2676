"""The bytes the CLI writes for the shipped bank, pinned by digest.

Each case is one CLI call: ``run --agent oracle`` and ``generate`` in every
sampling mode at seeds 1, 7 and 1501, and ``score`` of a Curriculum
instances file against each answer set of ``data/replay_answers.json``
(prose, wrong and empty replies for every item, written once with
``bench/workloads.py``'s reply functions).  A report's digest leaves out
``run_id``, ``started_at`` and ``duration_s``, which differ between runs.

A change that means to alter these bytes regenerates the manifest with::

    PYTHONPATH=src python tests/test_output_bytes.py

and names each changed case in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from eagibench import cli

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "output_digests.json"
MODES = ("Targeted", "Stratified", "Curriculum")
SEEDS = (1, 7, 1501)
_UNPINNED = ("run_id", "started_at", "duration_s")


def _call(argv, out: Path) -> str:
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK, argv
    return out.read_text(encoding="utf-8")


def _report_body(text: str) -> str:
    body = {k: v for k, v in json.loads(text).items() if k not in _UNPINNED}
    return json.dumps(body, indent=2, sort_keys=True)


def digests(workdir: Path) -> dict:
    """Each case's name -> the sha256 of its output."""
    outputs = {}
    for mode in MODES:
        for seed in SEEDS:
            sampling = ["--n", "24", "--mode", mode, "--seed", str(seed)]
            outputs[f"run oracle {mode} {seed}"] = _report_body(
                _call(["run", *sampling, "--agent", "oracle"], workdir / "run.json"))
            outputs[f"generate {mode} {seed}"] = _call(["generate", *sampling], workdir / f"{mode}-{seed}.json")
    instances = workdir / "Curriculum-1.json"
    for variant, answers in json.loads((DATA / "replay_answers.json").read_text(encoding="utf-8")).items():
        answers_path = workdir / "answers.json"
        answers_path.write_text(json.dumps(answers), encoding="utf-8")
        outputs[f"score {variant}"] = _report_body(_call(
            ["score", "--instances", str(instances), "--answers", str(answers_path)], workdir / "score.json"))
    return {case: hashlib.sha256(text.encode("utf-8")).hexdigest() for case, text in outputs.items()}


def test_cli_output_bytes_match_the_manifest(tmp_path):
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    now = digests(tmp_path)
    changed = sorted(case for case in pinned.keys() | now.keys() if pinned.get(case) != now.get(case))
    assert not changed, f"output bytes changed for: {', '.join(changed)} (see this module's docstring)"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        MANIFEST.write_text(json.dumps(digests(Path(workdir)), indent=1, sort_keys=True) + "\n", encoding="utf-8")
