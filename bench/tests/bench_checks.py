"""Checks of the benchmark itself (not part of the package's test suite).

    python -m pytest -q bench/tests/bench_checks.py

The file name keeps it out of the default `test_*.py` discovery, so the
package's own test run does not pay for these subprocess runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from stub import ChatStub  # noqa: E402
from tracing import tree_errors  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_byte_identical_for_a_fixed_seed(name, tmp_path):
    first = workloads.generate(name, 7, tmp_path / "a")
    second = workloads.generate(name, 7, tmp_path / "b")
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for file in files:
        assert (first / file).read_bytes() == (second / file).read_bytes(), file


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS == tuple(workloads.WHY)


def test_generator_seed_changes_the_answers(tmp_path):
    one = workloads.generate("design-grid", 1, tmp_path)
    two = workloads.generate("design-grid", 2, tmp_path)
    assert (one / "answers.json").read_bytes() != (two / "answers.json").read_bytes()


def test_every_answer_variant_and_kind_is_generated(tmp_path):
    shipped = json.loads((workloads.generate("shipped-mixed", 3, tmp_path) / "workload.json").read_text())
    assert {e["variant"] for e in shipped["expected"].values()} == set(workloads.SHIPPED_VARIANTS)
    assert {e["kind"] for e in shipped["expected"].values()} == set(run.ANSWER_KINDS)
    grid = json.loads((workloads.generate("design-grid", 3, tmp_path) / "workload.json").read_text())
    assert {e["variant"] for e in grid["expected"].values()} == set(workloads.DESIGN_VARIANTS)


def test_one_command_prints_every_end_to_end_metric_with_zero_errors():
    done = bench("--workload", "all", "--seed", "5", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in run.WORKLOADS:
        for metric, unit in run.metric_units("end_to_end").items():
            assert result["metrics"][f"{name}/{metric}"]["unit"] == unit
            assert result["metrics"][f"{name}/{metric}"]["value"] > 0
        summary = json.loads((BENCH / "out" / "results" / f"{name}-seed5-trace0.json").read_text())
        assert summary["error_rate"]["value"] == 0
        assert list(summary)[-1] == "claim" and summary["claim"] is None
    lines = done.stdout.splitlines()
    for metric, unit in run.metric_units("end_to_end").items():
        assert sum(1 for line in lines if line.split()[:1] == [metric] and unit in line) == 3


@pytest.mark.parametrize("name", ["shipped-mixed", "remote-stub"])
def test_traced_run_reports_every_layer_and_a_well_formed_span_tree(name):
    done = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    summary = json.loads((BENCH / "out" / "results" / f"{name}-seed5-trace1.json").read_text())
    spans = json.loads((ROOT / summary["spans"]).read_text())["spans"]
    names = {s[1] for s in spans}
    assert {"cli.main", "bank.load_bank", "bank.sample", "scoring.score_answer",
            "harness.emit_report", "design_space.pareto_front"} <= names
    if name == "remote-stub":
        assert {"stub.queue", "stub.service"} <= names
    assert tree_errors([tuple(s) for s in spans]) == []


def test_tree_errors_flags_missing_parents_and_escaping_children():
    spans = [(1, "root", 0, 100, None, 0, None), (2, "child", 10, 120, 1, 0, None),
             (3, "orphan", 20, 30, 9, 0, None)]
    errors = tree_errors(spans)
    assert any("outside parent" in e for e in errors)
    assert any("missing parent" in e for e in errors)


def _drive_stub(stub, items, requests_per_item):
    import requests

    phase = run.Phase()
    body = {"messages": [{"role": "user", "content": "q"}]}
    start = time.perf_counter()
    for _ in range(items * requests_per_item):
        reply = requests.post(stub.url, json=body, timeout=5).json()
        assert reply["choices"][0]["message"]["content"] == "a"
    end = time.perf_counter()
    phase.windows.append((start, end))
    phase.durations_s.append(end - start)
    return phase


def test_stub_self_check_passes_on_a_faithful_stub():
    with ChatStub({"q": "a"}, 0.010, 2) as stub:
        phase = _drive_stub(stub, 4, 1)
        check = run.stub_check(stub, phase, 4, 10.0)
    assert check["problems"] == [], check
    assert check["requests_per_item"] == 1.0


def test_stub_self_check_fires_on_retries_and_on_a_slow_stub():
    with ChatStub({"q": "a"}, 0.010, 2) as stub:
        phase = _drive_stub(stub, 3, 2)
        check = run.stub_check(stub, phase, 3, 10.0)
    assert any("requests per item" in p for p in check["problems"])
    with ChatStub({"q": "a"}, 0.030, 2) as stub:
        phase = _drive_stub(stub, 3, 1)
        check = run.stub_check(stub, phase, 3, 10.0)
    assert any("service time" in p for p in check["problems"])


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, percentile, n = run.tail(values)
    assert (percentile, n) == (90.0, 100)
    assert sum(v > value for v in values) == 10
    value, percentile, n = run.tail(list(range(219)))
    assert sum(v > value for v in range(219)) == 10 and percentile == 95.43
    value, percentile, n = run.tail(list(range(2000)))
    assert sum(v > value for v in range(2000)) == 100 and percentile == 95.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "shipped-mixed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
