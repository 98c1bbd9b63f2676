"""eagibench benchmark: closed-loop runs of the documented CLI, one workload at a time.

    python3 bench/run.py --workload shipped-mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5     # every workload, one after another

Every timed call is ``eagibench.cli.main(["run", ...])`` in this process,
one caller, the next call only after the previous one returns.  Inputs
come from ``workloads.generate(workload, seed)``; every report is checked
against the expected verdicts fixed there.  With ``--trace 1`` the run is
split: an untraced half, then a traced half that records spans around the
package's public functions (see ``tracing.py``), followed by the probes
that give the per-layer metrics.  Between calls a helper process times a
fixed chunk of work (``calib.py``), and every reported time has its CPU
part scaled to a reference machine speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller summary,
ending with ``"claim": null``, goes to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calib import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("shipped-mixed", "design-grid", "remote-stub")
#: Reported in the summary only: it exists on remote-stub alone.
SUMMARY_ONLY = {"harness.queue_wait_ms_p50": "ms"}

ANSWER_KINDS = ("numeric", "fact", "structured", "diagnosis", "fix", "design", "rubric")
WARMUP_CALLS = 2
MIN_CALLS = 3
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 3
SPAN_CAP = 150_000
PROBE_REPEATS = 5
#: Self-check: the stub's service time may exceed its delay by this much.
STUB_MARGIN_MS = 2.0
SUBPROCESS_TIMEOUT_S = 60
#: After each timed call, calibrate for at least this share of the call's time.
CALIB_SHARE = 0.1
#: Calibration chunks run before each fresh interpreter of `measure_setup`.
SETUP_CALIB_CHUNKS = 10


@functools.cache
def metric_units(section: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# Statistics


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """The highest percentile, up to p95, with at least 10 samples beyond
    it, as (value, percentile, samples).  Below 220 samples this is the
    11th-largest sample.  Above it, the top few percent of calls are set by
    full garbage collections (about one call in 160 on shipped-mixed) and
    by neighbours' bursts on a shared machine, and a percentile among them
    moved by over a quarter from one run to the next."""
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    beyond = max(10, n // 20)
    return ordered[n - beyond - 1], round(100 * (n - beyond) / n, 2), n


# ---------------------------------------------------------------------------
# Machine speed (see calib.py)
#
#     reference_time = cpu * REFERENCE_S / median(chunk time) + median(wall - cpu)
#
# The CPU time of each timing is scaled to the reference speed.  Its off-CPU
# time, such as the stub's delay, enters as the median over the run: on a
# shared machine the vCPU is taken away in bursts (steal time), which lengthen
# a few timings by their whole duration without using CPU.


class SpeedProbe:
    """The calibration helper process of `calib.py`."""

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "calib.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.chunk()  # returns once the helper has built its data
        return self

    def chunk(self) -> float:
        """Run one calibration chunk and return its time in seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def time_calibration(speed_probe: SpeedProbe, chunks: list[float], at_least_s: float = 0.0) -> None:
    """Run calibration chunks, appending each one's time, until at least
    `at_least_s` has been spent (one chunk at minimum)."""
    spent = 0.0
    while True:
        chunks.append(speed_probe.chunk())
        spent += chunks[-1]
        if spent >= at_least_s:
            return


def speed(chunks: list[float]) -> float:
    """Machine speed relative to the reference: above 1 is faster."""
    return REFERENCE_S / median(chunks)


def reference_times(walls: list[float], cpus: list[float], chunks: list[float]) -> list[float]:
    """Timings at the reference speed, from their wall and CPU times and the
    calibration chunks timed alongside them."""
    factor = speed(chunks)
    off_cpu = median([w - c for w, c in zip(walls, cpus)])
    return [c * factor + off_cpu for c in cpus]


# ---------------------------------------------------------------------------
# One workload


class Workload:
    """Generated inputs plus the CLI argv and the verdict check for each call."""

    def __init__(self, name: str, seed: int):
        from eagibench.bank import shipped_bank_path
        from workloads import generate

        self.name = name
        self.directory = generate(name, seed, OUT / "inputs")
        self.manifest = json.loads((self.directory / "workload.json").read_text(encoding="utf-8"))
        self.expected = {k: v["verdict"] for k, v in self.manifest["expected"].items()}
        self.run = self.manifest["run"]
        shipped = self.manifest["bank"] == "shipped"
        self.bank = shipped_bank_path() if shipped else self.directory / self.manifest["bank"]
        self.bank_args = [] if shipped else ["--bank", str(self.bank)]
        self.answers = self.directory / self.manifest["answers"]
        self.report = self.directory / "report.json"
        self.agent = "remote" if self.run["agent"] == "remote" else f"replay:{self.answers}"
        #: One pass calls the CLI once per filter batch, scoring every answer once.
        self.batches = len(self.run["filters"])
        self._seeds = random.Random(f"calls:{seed}")
        self.calls = 0

    def filter_args(self, call: int) -> list[str]:
        flt = self.run["filters"][call % len(self.run["filters"])]
        return ["--filter", json.dumps(flt)] if flt else []

    def next_argv(self) -> list[str]:
        argv = [
            "run", *self.bank_args, *self.filter_args(self.calls),
            "--n", str(self.run["n"]), "--mode", self.run["mode"],
            "--seed", str(self._seeds.randrange(2**31)),
            "--agent", self.agent, "--out", str(self.report),
        ]
        self.calls += 1
        return argv

    def setup_argv(self) -> list[str]:
        out = self.directory / "setup-report.json"
        return ["run", *self.bank_args, *self.filter_args(0), "--n", "0",
                "--agent", self.agent, "--out", str(out)]

    def check(self, outcome) -> int:
        """Items of one call whose verdict differs from the expected one;
        every item counts when the call raised or exited non-zero."""
        n = self.run["n"]
        if outcome != 0:
            return n
        try:
            items = json.loads(self.report.read_text(encoding="utf-8"))["items"]
        except (OSError, ValueError, KeyError) as exc:
            print(f"[{self.name}] unreadable report: {exc}", file=sys.stderr)
            return n
        wrong = [i["instance_id"] for i in items if self.expected.get(i["instance_id"]) != i["verdict"]]
        for item_id in wrong[:3]:
            print(f"[{self.name}] {item_id}: unexpected verdict", file=sys.stderr)
        return len(wrong) + max(0, n - len(items))


class Phase:
    def __init__(self):
        self.durations_s: list[float] = []
        self.cpu_s: list[float] = []
        self.calib_s: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.items = 0
        self.failed = 0

    @property
    def run_ms(self) -> list[float]:
        """Wall time of each call."""
        return [d * 1e3 for d in self.durations_s]

    @property
    def ref_s(self) -> list[float]:
        """Time of each call at the reference speed."""
        return reference_times(self.durations_s, self.cpu_s, self.calib_s)

    @property
    def ref_ms(self) -> list[float]:
        return [t * 1e3 for t in self.ref_s]

    def pass_ms(self, batches: int) -> list[float]:
        """Mean time per call at the reference speed over each whole pass
        through `batches` filter batches.  Batches differ in cost, so a pass
        is the unit that every seed fills with the same work."""
        ref = self.ref_ms
        return [statistics.fmean(ref[i:i + batches]) for i in range(0, len(ref) - batches + 1, batches)]


def call_once(workload: Workload, phase: Phase, speed_probe: SpeedProbe, tracer=None, stub=None) -> None:
    from eagibench import cli

    argv = workload.next_argv()
    workload.report.unlink(missing_ok=True)
    run_id = workload.calls
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = cli.main(argv)
        else:
            with tracer.root("cli.main", run_id) as root_id:
                outcome = cli.main(argv)
    except Exception:  # an exception out of cli.main fails every item of the call
        traceback.print_exc()
        outcome = "raised"
    end = time.perf_counter()
    phase.cpu_s.append(time.process_time() - cpu_start)
    phase.durations_s.append(end - start)
    phase.windows.append((start, end))
    phase.items += workload.run["n"]
    phase.failed += workload.check(outcome)
    time_calibration(speed_probe, phase.calib_s, CALIB_SHARE * (end - start))
    if tracer is not None and stub is not None:
        for event in stub.events_between(start, end):
            accepted, started, replied = (int(t * 1e9) for t in (event.accepted, event.started, event.replied))
            tracer.add("stub.queue", accepted, started, root_id)
            tracer.add("stub.service", started, replied, root_id)


def closed_loop(workload, seconds, speed_probe, tracer=None, stub=None) -> Phase:
    """Call until `seconds` have passed and the last pass is whole."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while (len(phase.durations_s) < MIN_CALLS or time.perf_counter() < deadline
           or len(phase.durations_s) % workload.batches):
        call_once(workload, phase, speed_probe, tracer, stub)
        if tracer is not None and len(tracer.spans) >= SPAN_CAP and len(phase.durations_s) >= MIN_CALLS:
            break
    return phase


# ---------------------------------------------------------------------------
# Fresh interpreters: set-up time and import time


def _child_env(stub) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run from compiled bytecode
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["EAGI_REMOTE_URL"] = stub.url if stub else "http://127.0.0.1:9/unused"
    return env


def _spawn(argv, env) -> subprocess.CompletedProcess:
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return done


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: Workload, stub, speed_probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Times of fresh `eagibench run --n 0` processes (import the CLI, load
    the workload's bank, build the agent, write an empty report), as
    (wall, at the reference speed)."""
    env = _child_env(stub)
    argv = [sys.executable, "-m", "eagibench.cli", *workload.setup_argv()]
    _spawn(argv, env)  # fills the bytecode cache
    walls, cpus, chunks = [], [], []
    for _ in range(SETUP_SAMPLES):
        for _ in range(SETUP_CALIB_CHUNKS):
            time_calibration(speed_probe, chunks)
        cpu_start = _children_cpu_s()
        start = time.perf_counter()
        _spawn(argv, env)
        walls.append(time.perf_counter() - start)
        cpus.append(_children_cpu_s() - cpu_start)
    return walls, reference_times(walls, cpus, chunks)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def measure_imports(stub) -> tuple[list[float], list[float]]:
    """Cumulative -X importtime of `import eagibench.cli` and requests' share, in ms."""
    env = _child_env(stub)
    argv = [sys.executable, "-X", "importtime", "-c", "import eagibench.cli"]
    _spawn(argv, env)
    cli_ms, requests_ms = [], []
    for _ in range(IMPORT_SAMPLES):
        lines = [_IMPORT_LINE.search(line) for line in _spawn(argv, env).stderr.splitlines()]
        lines = [m for m in lines if m]
        top = min(len(m.group(3)) for m in lines)
        cli_ms.append(sum(int(m.group(2)) for m in lines
                          if len(m.group(3)) == top and m.group(4).split(".")[0] == "eagibench") / 1e3)
        requests_ms.append(sum(int(m.group(2)) for m in lines if m.group(4) == "requests") / 1e3)
    return cli_ms, requests_ms


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def probe(workload: Workload, tracer, loop_kinds) -> dict:
    """Direct calls the CLI loop does not make: `pareto_front` over each of
    the workload's design grids, and `score_answer` on the oracle reply of
    every answer kind the loop did not score.  Returns per-grid counts."""
    from eagibench import bank as bank_mod, design_space, propulsion, scoring
    from workloads import oracle_reply

    bank = bank_mod.load_bank(workload.bank)
    grids: dict = {}
    with tracer.root("probe", "probe"):
        for template in bank.templates:
            inst = bank_mod.instantiate(template, bank)
            if inst.kind not in loop_kinds:
                reply = oracle_reply(inst.answer_spec, template.answer_raw)
                for _ in range(PROBE_REPEATS):
                    scoring.score_answer(inst.answer_spec, reply)
            if inst.kind != "design" or template.id not in workload.expected:
                continue
            spec = inst.answer_spec
            if spec.grid_id in grids:
                continue
            designs = design_space.enumerate_designs(spec.grid, spec.mtow)
            feasible = [
                d for d in designs
                if propulsion.evaluate_design(d, spec.environment, spec.requirements).all_requirements_pass
            ]
            row = {"grid_designs": len(designs), "feasible_designs": len(feasible)}
            pareto_front = getattr(design_space, "pareto_front", None)
            if pareto_front is not None and feasible:
                row["front_designs"] = len(pareto_front(feasible, spec.environment))
            grids[spec.grid_id] = row
    return grids


def layer_metrics(spans, workload, stub_capacity, imports, grids, overhead) -> dict:
    from tracing import children_of, self_ns

    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    children = children_of(spans)

    def durations(name, unit_ns, tag=None, probe=False):
        """Span durations by name; probe spans count only where asked for."""
        return [(s[3] - s[2]) / unit_ns for s in by_name.get(name, ())
                if (probe or s[5] != "probe") and (tag is None or s[6] == tag)]

    m: dict = {}
    m["cli.import_ms"] = median(imports[0])
    m["harness.import_requests_ms"] = median(imports[1])
    roots = by_name.get("cli.main", [])
    m["cli.extra_ms"] = median([self_ns(r, children, ("stub.queue", "stub.service")) / 1e6 for r in roots])
    m["bank.load_ms"] = median(durations("bank.load_bank", 1e6))
    m["bank.sample_ms"] = median(durations("bank.sample", 1e6))
    m["bank.instantiate_us_p50"] = median(durations("bank.instantiate", 1e3))
    for kind in ANSWER_KINDS:
        m[f"scoring.score_us.{kind}"] = median(durations("scoring.score_answer", 1e3, kind, probe=True))
    m["scoring.extract_us_p50"] = median(durations("scoring.extract", 1e3))
    paths = [s[6] for s in by_name.get("scoring.extract", ()) if s[5] != "probe"]
    m["scoring.fallback_share"] = (sum(p != "envelope" for p in paths) / len(paths)) if paths else None
    m["propulsion.evaluate_us_p50"] = median(durations("propulsion.evaluate_design", 1e3))
    m["design_space.enumerate_ms"] = median(durations("design_space.enumerate_designs", 1e6))
    m["design_space.pareto_front_ms"] = median(durations("design_space.pareto_front", 1e6, probe=True))
    for key in ("grid_designs", "feasible_designs", "front_designs"):
        counts = [g[key] for g in grids.values() if key in g]
        m[f"design_space.{key}"] = statistics.fmean(counts) if counts else None
    if None not in (m["scoring.score_us.design"], m["propulsion.evaluate_us_p50"], m["design_space.grid_designs"]):
        m["scoring.design_grid_evals"] = m["scoring.score_us.design"] / (
            m["propulsion.evaluate_us_p50"] * m["design_space.grid_designs"])
    m["harness.emit_report_ms"] = median(durations("harness.emit_report", 1e6))

    # The agent endpoint is the stub on remote-stub, the replay adapter otherwise.
    endpoint = "stub.service" if stub_capacity else "agent.answer"
    capacity = stub_capacity or 1
    m["harness.agent_call_ms_p50"] = median(durations(endpoint, 1e6))
    pre, collect, post, busy = [], [], [], []
    calls = children_of(by_name.get(endpoint, ()))
    for root in roots:
        events = calls.get(root[0], [])
        if not events:
            continue
        first, last = min(e[2] for e in events), max(e[3] for e in events)
        pre.append((first - root[2]) / 1e6)
        collect.append((last - first) / 1e6)
        post.append((root[3] - last) / 1e6)
        if last > first:
            busy.append(sum(e[3] - e[2] for e in events) / ((last - first) * capacity))
    m["harness.pre_collect_ms"] = median(pre)
    m["harness.collect_ms"] = median(collect)
    m["harness.post_collect_ms"] = median(post)
    m["harness.endpoint_busy_share"] = median(busy)
    items = len(roots) * workload.run["n"]
    m["harness.requests_per_item"] = sum(len(v) for v in calls.values()) / items if items else None
    m["harness.queue_wait_ms_p50"] = median(durations("stub.queue", 1e6)) if stub_capacity else None
    m["trace.overhead_share"] = overhead
    return m


# ---------------------------------------------------------------------------
# Running a workload


def machine_facts(workload: Workload) -> dict:
    import eagibench
    from workloads import sha256_of

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "eagibench_version": eagibench.__version__,
        "bank_sha256": sha256_of(workload.bank),
    }


def stub_check(stub, phase: Phase, n_items: int, delay_ms: float) -> dict:
    events = [e for w in phase.windows for e in stub.events_between(*w)]
    service = median([(e.replied - e.started) * 1e3 for e in events])
    per_item = len(events) / n_items
    ideal_ms = n_items / len(phase.windows) * delay_ms / stub.capacity
    run_p50 = median(phase.run_ms)
    problems = []
    if service is None or abs(service - delay_ms) > STUB_MARGIN_MS:
        problems.append(f"stub service time p50 {service} ms is not within {STUB_MARGIN_MS} ms of {delay_ms} ms")
    if per_item != 1.0:
        problems.append(f"requests per item is {per_item}, not 1.0")
    if run_p50 < ideal_ms:
        problems.append(f"run_ms_p50 {run_p50:.1f} is below the ideal {ideal_ms:.1f} ms")
    return {"agent_call_ms_p50": service, "requests_per_item": per_item,
            "ideal_run_ms": ideal_ms, "problems": problems}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from stub import ChatStub
    from tracing import Tracer, self_time_by_name, tree_errors

    workload = Workload(name, seed)
    stub = None
    if workload.run["agent"] == "remote":
        replies = json.loads(workload.answers.read_text(encoding="utf-8"))
        capacity = len(os.sched_getaffinity(0))
        stub = ChatStub(replies, workload.run["stub_delay_ms"] / 1e3, capacity)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    summary: dict = {"workload": name, "why": workload.manifest["why"], "seed": seed,
                     "seconds": seconds, "trace": trace, "machine": machine_facts(workload)}
    with SpeedProbe() as speed_probe, stub if stub else contextlib.nullcontext():
        if stub:
            os.environ["EAGI_REMOTE_URL"] = stub.url
        warm = Phase()
        for _ in range(WARMUP_CALLS):
            call_once(workload, warm, speed_probe)
        timed = closed_loop(workload, seconds / 2 if trace else seconds, speed_probe)
        phases = [warm, timed]
        metrics: dict = {}
        if stub:
            check = stub_check(stub, timed, timed.items, workload.run["stub_delay_ms"])
            summary["stub_self_check"] = check
            if check["problems"]:
                for problem in check["problems"]:
                    print(f"[{name}] stub self-check failed: {problem}", file=sys.stderr)
                raise SystemExit(3)
        tail_value, tail_pct, tail_n = tail(timed.ref_ms)
        e2e = {
            "items_per_s": (timed.items / sum(timed.ref_s), timed.items),
            "run_ms_p50": (median(timed.pass_ms(workload.batches)), len(timed.pass_ms(workload.batches))),
            "run_ms_tail": (tail_value, tail_n),
        }
        summary["speed"] = {"factor": speed(timed.calib_s), "chunks": len(timed.calib_s),
                            "reference_chunk_s": REFERENCE_S}
        summary["wall"] = {
            "items_per_s": timed.items / sum(timed.durations_s),
            "run_ms_p50": median(timed.run_ms),
            "run_ms_tail": tail(timed.run_ms)[0],
            "cpu_share": sum(timed.cpu_s) / sum(timed.durations_s),
        }
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = closed_loop(workload, seconds / 2, speed_probe, tracer, stub)
                loop_kinds = {s[6] for s in tracer.spans if s[1] == "scoring.score_answer"}
                grids = probe(workload, tracer, loop_kinds)
            finally:
                tracer.uninstall()
            phases.append(traced)
            imports = measure_imports(stub)
            overhead = median(traced.ref_ms) / median(timed.ref_ms) - 1.0
            layers = layer_metrics(tracer.spans, workload, stub.capacity if stub else 0,
                                   imports, grids, overhead)
            spans_path = results / f"{stem}-spans.json"
            tracer.write(spans_path)
            summary["untraced_run_ms_p50"] = median(timed.ref_ms)
            summary["traced_run_ms_p50"] = median(traced.ref_ms)
            summary["grids"] = grids
            summary["self_time_ms"] = self_time_by_name(tracer.spans)
            summary["span_tree_errors"] = tree_errors(tracer.spans)[:20]
            summary["spans"] = str(spans_path.relative_to(ROOT))
            summary["missing_targets"] = tracer.missing
            units = {**metric_units("per_layer"), **SUMMARY_ONLY}
            for key, unit in units.items():
                value = layers.get(key)
                metrics[key] = {"value": value, "unit": unit}
                if value is None:
                    metrics[key]["missing"] = True
        else:
            setup_wall, setup = measure_setup(workload, stub, speed_probe)
            e2e["setup_s"] = (median(setup), len(setup))
            summary["wall"]["setup_s"] = median(setup_wall)
            e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
            for key, unit in metric_units("end_to_end").items():
                value, samples = e2e[key]
                metrics[key] = {"value": value, "unit": unit, "samples": samples}
            metrics["run_ms_tail"]["percentile"] = tail_pct
    attempted = sum(p.items for p in phases)
    failed = sum(p.failed for p in phases)
    summary["error_rate"] = {"value": failed / attempted, "unit": "fraction", "samples": attempted}
    summary["metrics"] = metrics
    summary["claim"] = None
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    wanted = metric_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": failed == 0 and not summary.get("span_tree_errors"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in wanted if metrics.get(k, {}).get("value") is not None},
    }
    return result, summary


def print_table(summary: dict) -> None:
    print(f"# {summary['workload']} (seed {summary['seed']}): {summary['why']}")
    machine = summary["machine"]
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    rows = dict(summary["metrics"])
    rows["error_rate"] = summary["error_rate"]
    for key, row in rows.items():
        value = "missing" if row.get("value") is None else f"{row['value']:.6g}"
        extra = "".join(f" {k}={row[k]}" for k in ("samples", "percentile") if k in row)
        print(f"{key:34s} {value:>12s} {row['unit']:8s}{extra}")


def run_all(args) -> int:
    """Run each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"[{name}] exited {done.returncode}", file=sys.stderr)
            status = done.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, row in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = row
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eagibench" / "__init__.py").is_file():
        print(f"error: no eagibench sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
