"""Seeded workload generator for the eagibench benchmark.

``generate(name, seed, out_dir)`` writes everything one workload needs
under ``out_dir/<name>-seed<seed>/``:

- ``workload.json``: why the workload exists, how the CLI is driven, the
  sha256 of the bank file, and the expected verdict of every answer
- ``answers.json``: the replay file (``{"<instance id>": "<answer text>"}``)
  for ``shipped-mixed`` and ``design-grid``, or the stub's replies keyed by
  prompt for ``remote-stub``
- ``bank.json``: the derived bank, for ``design-grid`` only

The same (name, seed) always gives byte-identical files.  Expected
verdicts are fixed here, from the answer variant, never from a run of
the program.  Design verdicts follow a brute-force Pareto front built in
this module from ``evaluate_design`` objective vectors.

The answer variants are the reply forms that ``docs/answer-format.md``
documents.  Malformed-type payloads such as
``{"patch": {"prop_diameter_in": null}}`` are deliberately left out: the
scorer raises on them today, which would abort every run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from eagibench.bank import answer_kind, design_from_bank, instantiate, load_bank, shipped_bank_path
from eagibench.propulsion import evaluate_design

WHY = {
    "shipped-mixed": (
        "every answer kind and every extraction path through the whole CLI run path with a "
        "near-zero agent cost, so load, sampling, L1-L4 scoring and reporting set the time"
    ),
    "design-grid": (
        "dense L5 grids so that propulsion, design_space and design scoring do almost all "
        "the work; the grid is re-evaluated for every design answer"
    ),
    "remote-stub": (
        "the path real agents take: a loopback chat stub with fixed latency and capacity, so "
        "wall time measures what the harness adds to items x delay / capacity"
    ),
}

SHIPPED_VARIANTS = ("oracle", "prose", "wrong", "empty")
DESIGN_VARIANTS = ("reference", "front", "dominated", "infeasible", "prose")
#: L5 templates in the derived bank per shipped L5 template: one per design variant.
DESIGN_COPIES = len(DESIGN_VARIANTS)
STUB_DELAY_MS = 20.0

EXPECTED_VERDICT = {"oracle": "Pass", "prose": "Pass", "wrong": "Fail", "empty": "Unscorable"}

_WRONG_FACT = "It is set by the paint colour of the airframe."
_WRONG_RUBRIC = "Nothing to add; the design was fine as it was."


def _fence(payload) -> str:
    return "Here is my answer.\n```json\n" + json.dumps(payload, sort_keys=True) + "\n```"


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Brute-force Pareto reference for design answers


def _objectives(report) -> tuple[float, float, float]:
    # (per-motor hover current: down, thrust margin: up, endurance: up)
    return (
        report.hover_torque_current_per_motor,
        report.static_thrust_per_motor - report.required_thrust_per_motor,
        report.endurance,
    )


def _dominates(a, b) -> bool:
    at_least = a[0] <= b[0] and a[1] >= b[1] and a[2] >= b[2]
    return at_least and (a[0] < b[0] or a[1] > b[1] or a[2] > b[2])


class DesignReference:
    """A design task's grid, evaluated once, with its brute-force front.

    Grid designs are built from bank-unit axis values, so an answer that
    names a grid design converts to exactly the same floats as the
    scorer's own enumeration of the grid.
    """

    def __init__(self, spec, grid_raw):
        self.spec = spec
        self.rows = []  # (bank fields, objectives, requirements passed)
        for kv, diameter, pitch, battery, n_motors in itertools.product(
            grid_raw["kv_rpm_per_volt"],
            grid_raw["prop_diameter_in"],
            grid_raw["prop_pitch_in"],
            grid_raw["battery_options"],
            grid_raw["n_motors"],
        ):
            fields = {
                "kv_rpm_per_volt": kv,
                "prop_diameter_in": diameter,
                "prop_pitch_in": pitch,
                "battery_cells": battery["cells"],
                "battery_voltage_v": battery["voltage_v"],
                "battery_capacity_ah": battery["capacity_ah"],
                "n_motors": n_motors,
                "current_limit_a": grid_raw.get("current_limit_a", 25),
            }
            objectives, passed = self.evaluate(fields)
            self.rows.append((fields, objectives, passed))
        total = len(spec.requirements)
        self.feasible = [r for r in self.rows if r[2] == total]
        vectors = [r[1] for r in self.feasible]
        self.front = [r for r in self.feasible if not any(_dominates(v, r[1]) for v in vectors)]
        self.dominated = [r for r in self.feasible if r not in self.front]
        self.infeasible_dominated = [
            r
            for r in self.rows
            if 0 < r[2] < total and any(_dominates(v, r[1]) for v in vectors)
        ]
        self.infeasible = [r for r in self.rows if 0 < r[2] < total]

    def evaluate(self, fields) -> tuple[tuple[float, float, float], int]:
        design = design_from_bank(fields, self.spec.defaults)
        report = evaluate_design(design, self.spec.environment, self.spec.requirements)
        return _objectives(report), sum(c.passed for c in report.requirement_checks)

    def expected_verdict(self, fields) -> str:
        """Pass when every requirement holds and no feasible grid design
        dominates the answer; Partial otherwise (answers that satisfy no
        requirement are never generated)."""
        objectives, passed = self.evaluate(fields)
        if passed == 0:
            raise ValueError(f"design answer {fields} satisfies no requirement")
        dominated = any(_dominates(r[1], objectives) for r in self.feasible)
        return "Pass" if passed == len(self.spec.requirements) and not dominated else "Partial"


def _design_prose(fields) -> str:
    return (
        f"I would use {fields['kv_rpm_per_volt']:g} Kv motors with "
        f"{fields['prop_diameter_in']:g}x{fields['prop_pitch_in']:g} propellers on a "
        f"{fields['battery_cells']}S {fields['battery_capacity_ah'] * 1000:g} mAh pack, "
        f"{fields['n_motors']} motors."
    )


# ---------------------------------------------------------------------------
# Replies for the L1-L4 and L6 answer kinds


def oracle_reply(spec, raw_answer) -> str:
    kind = answer_kind(spec)
    if kind == "numeric":
        return _fence({"value": spec.value, "unit": spec.unit})
    if kind == "fact":
        return _fence({"text": spec.canonical})
    if kind == "structured":
        return _fence({"fields": {f.name: f.expected for f in spec.fields}})
    if kind == "diagnosis":
        return _fence({"cause": spec.accepted_causes[0]})
    if kind == "fix":
        return _fence({"patch": dict(spec.reference_patch)})
    if kind == "design":
        return _fence({"design": dict(raw_answer["reference_design"])})
    if kind == "rubric":
        return _fence({"text": "; ".join(c.phrases[0] for c in spec.criteria)})
    raise ValueError(f"no oracle reply for answer kind {kind!r}")


def _cause_hits(text: str, vocabulary) -> dict:
    lowered = text.lower()
    return {cause: sum(p.lower() in lowered for p in phrases) for cause, phrases in vocabulary.items()}


def _diagnosis_prose(spec, rng: random.Random) -> str:
    cause = spec.accepted_causes[0]
    phrases = list(spec.vocabulary[cause])
    rng.shuffle(phrases)
    for count in (2, 1):
        for chosen in itertools.combinations(phrases, count):
            text = "Looking at the symptoms: " + "; ".join(chosen) + "."
            hits = _cause_hits(text, spec.vocabulary)
            if all(hits[cause] > n for other, n in hits.items() if other != cause):
                return text
    raise ValueError(f"no phrase set identifies cause {cause!r} on its own")


_PATCH_PROSE = {
    "prop_diameter_in": "increase the propeller diameter to {:g} inches",
    "prop_pitch_in": "set the pitch to {:g}",
    "kv_rpm_per_volt": "switch to a {:g} Kv motor",
}


def prose_reply(spec, rng: random.Random) -> str:
    kind = answer_kind(spec)
    if kind == "numeric":
        if rng.random() < 0.5:
            return f"Working it through, the result is {spec.value:.6g} {spec.unit}."
        return f"Working it through, I get roughly {spec.value:.6g}"
    if kind == "fact":
        return f"In short: {spec.canonical}."
    if kind == "structured":
        parts = []
        for f in spec.fields:
            if f.kind == "number":
                parts.append(f"the {f.name} is {float(f.expected):g} {f.unit or ''}".rstrip())
            else:
                parts.append(f"the {f.name} depends on {f.expected}")
        return "From the design: " + ", ".join(parts) + "."
    if kind == "diagnosis":
        return _diagnosis_prose(spec, rng)
    if kind == "fix":
        steps = [_PATCH_PROSE[k].format(float(v)) for k, v in spec.reference_patch.items()]
        return "To fix it, " + " and ".join(steps) + "."
    if kind == "rubric":
        chosen = [rng.choice(c.phrases) for c in spec.criteria]
        return "Looking back, the weak points were: " + "; ".join(chosen) + "."
    raise ValueError(f"no prose reply for answer kind {kind!r}")


def wrong_reply(spec, base_design_raw, rng: random.Random) -> str:
    kind = answer_kind(spec)
    if kind == "numeric":
        return _fence({"value": spec.value * 1.5 + 1.0, "unit": spec.unit})
    if kind == "fact":
        return _fence({"text": _WRONG_FACT})
    if kind == "structured":
        return _fence(
            {
                "fields": {
                    f.name: float(f.expected) * 1.5 + 1.0 if f.kind == "number" else "unknown"
                    for f in spec.fields
                }
            }
        )
    if kind == "diagnosis":
        others = sorted(c for c in spec.vocabulary if c not in spec.accepted_causes)
        return _fence({"cause": rng.choice(others)})
    if kind == "fix":
        # Re-state the base design's own value: nothing changes, the check still fails.
        field = sorted(spec.reference_patch)[0]
        return _fence({"patch": {field: base_design_raw[field]}})
    if kind == "rubric":
        return _fence({"text": _WRONG_RUBRIC})
    raise ValueError(f"no wrong reply for answer kind {kind!r}")


def _rubric_verdict(spec, text: str) -> str:
    lowered = text.lower()
    hits = sum(any(p.lower() in lowered for p in c.phrases) for c in spec.criteria)
    return "Pass" if hits / len(spec.criteria) >= spec.pass_threshold else "Fail"


# ---------------------------------------------------------------------------
# Workloads


def _instances(bank):
    return {t.id: (t, instantiate(t, bank)) for t in bank.templates}


def _references(document, instances):
    refs = {}
    for tid, (template, inst) in sorted(instances.items()):
        if inst.kind == "design":
            grid_id = template.answer_raw["grid"]
            refs[tid] = DesignReference(inst.answer_spec, document["grids"][grid_id])
    return refs


def _shipped_mixed(rng: random.Random):
    path = shipped_bank_path()
    document = json.loads(path.read_text(encoding="utf-8"))
    bank = load_bank(path)
    instances = _instances(bank)
    refs = _references(document, instances)
    base_raw = {cid: c.get("design") for cid, c in document["contexts"].items()}

    by_kind: dict[str, list[str]] = {}
    for tid, (_, inst) in sorted(instances.items()):
        by_kind.setdefault(inst.kind, []).append(tid)
    variants = {}
    for kind in sorted(by_kind):
        # Balanced: each kind cycles through a shuffled variant order, so every
        # seed runs the same mix of answer kinds and variants.
        order = list(SHIPPED_VARIANTS)
        rng.shuffle(order)
        ids = list(by_kind[kind])
        rng.shuffle(ids)
        for i, tid in enumerate(ids):
            variants[tid] = order[i % len(order)]

    answers, expected = {}, {}
    for tid in sorted(instances):
        template, inst = instances[tid]
        spec, variant = inst.answer_spec, variants[tid]
        if inst.kind == "design":
            ref = refs[tid]
            if variant == "empty":
                text, verdict = "", "Unscorable"
            elif variant == "wrong":
                fields = rng.choice(ref.infeasible)[0]
                text, verdict = _fence({"design": fields}), ref.expected_verdict(fields)
            else:
                fields = {**spec.defaults, **template.answer_raw["reference_design"]}
                text = _design_prose(fields) if variant == "prose" else oracle_reply(spec, template.answer_raw)
                verdict = ref.expected_verdict(fields)
        else:
            if variant == "oracle":
                text = oracle_reply(spec, template.answer_raw)
            elif variant == "prose":
                text = prose_reply(spec, rng)
            elif variant == "wrong":
                text = wrong_reply(spec, base_raw.get(template.context_ref), rng)
            else:
                text = ""
            verdict = EXPECTED_VERDICT[variant]
            if inst.kind == "rubric" and variant != "empty":
                verdict = _rubric_verdict(spec, text)
        answers[tid] = text
        expected[tid] = {"kind": inst.kind, "variant": variant, "verdict": verdict}
    run = {"n": len(instances), "mode": "Targeted", "filters": [None], "agent": "replay"}
    return None, answers, expected, run


def _densify(grid_raw) -> dict:
    """About 1,000-2,500 designs: Kv in steps of 5 RPM/V and diameters in
    steps of 0.5 in, each range widened past the shipped axis, times three
    battery capacities (same cell count, so prose answers stay valid)."""
    kv = grid_raw["kv_rpm_per_volt"]
    dia = grid_raw["prop_diameter_in"]
    battery = grid_raw["battery_options"][0]
    return {
        **grid_raw,
        "kv_rpm_per_volt": list(range(int(min(kv)) - 40, int(max(kv)) + 41, 5)),
        "prop_diameter_in": [x / 2 for x in range(int(2 * min(dia)) - 4, int(2 * max(dia)) + 5)],
        "battery_options": [
            {**battery, "capacity_ah": battery["capacity_ah"] + delta} for delta in (-2, 0, 2)
        ],
    }


def _design_grid(rng: random.Random):
    document = json.loads(shipped_bank_path().read_text(encoding="utf-8"))
    l5 = [t for t in document["templates"] if t["answer"]["kind"] == "design"]
    for grid_id in sorted({t["answer"]["grid"] for t in l5}):
        document["grids"][grid_id] = _densify(document["grids"][grid_id])
    shell = load_bank(document)
    refs = _references(document, _instances(shell))

    # Copy k of every L5 template carries the standards tag "bench-batch-k",
    # and each `run` call filters on one batch: one answer per grid, with
    # the variants laid out as a Latin square so that every batch mixes four
    # of them and every grid gets all five across the batches.
    shift = rng.randrange(len(DESIGN_VARIANTS))
    answers, expected = {}, {}
    for g, template in enumerate(l5):
        ref = refs[template["id"]]
        if not (ref.front and ref.dominated and ref.infeasible_dominated):
            raise ValueError(f"grid of {template['id']} lacks a variant's candidates")
        reference = rng.choice(ref.front)[0]
        template["answer"]["reference_design"] = dict(reference)
        for copy in range(DESIGN_COPIES):
            tid = template["id"] if copy == 0 else f"{template['id']}-v{copy}"
            tags = {**template["tags"], "standards": [f"bench-batch-{copy}"]}
            if copy == 0:
                template["tags"] = tags
            else:
                document["templates"].append({**template, "id": tid, "tags": tags})
            variant = DESIGN_VARIANTS[(copy + g + shift) % len(DESIGN_VARIANTS)]
            if variant == "reference":
                fields = reference
            elif variant in ("front", "prose"):
                fields = rng.choice(ref.front)[0]
            elif variant == "dominated":
                fields = rng.choice(ref.dominated)[0]
            else:
                fields = rng.choice(ref.infeasible_dominated)[0]
            text = _design_prose(fields) if variant == "prose" else _fence({"design": fields})
            answers[tid] = text
            expected[tid] = {
                "kind": "design",
                "variant": variant,
                "verdict": ref.expected_verdict(fields),
            }
    run = {
        "n": len(l5),
        "mode": "Targeted",
        "filters": [
            {"levels": [5, 5], "standards": [f"bench-batch-{copy}"]}
            for copy in range(DESIGN_COPIES)
        ],
        "agent": "replay",
    }
    return document, answers, expected, run


def _remote_stub(rng: random.Random):
    path = shipped_bank_path()
    document = json.loads(path.read_text(encoding="utf-8"))
    bank = load_bank(path)
    instances = _instances(bank)
    refs = _references(document, instances)
    replies, expected = {}, {}
    for tid in sorted(instances):
        template, inst = instances[tid]
        text = oracle_reply(inst.answer_spec, template.answer_raw)
        if replies.get(inst.prompt, text) != text:
            raise ValueError(f"two items share the prompt of {tid!r} but not its answer")
        replies[inst.prompt] = text
        verdict = "Pass"
        if inst.kind == "design":
            fields = {**inst.answer_spec.defaults, **template.answer_raw["reference_design"]}
            verdict = refs[tid].expected_verdict(fields)
        expected[tid] = {"kind": inst.kind, "variant": "oracle", "verdict": verdict}
    run = {
        "n": len(instances),
        "mode": "Targeted",
        "filters": [None],
        "agent": "remote",
        "stub_delay_ms": STUB_DELAY_MS,
    }
    return None, replies, expected, run


_GENERATORS = {
    "shipped-mixed": _shipped_mixed,
    "design-grid": _design_grid,
    "remote-stub": _remote_stub,
}


def generate(name: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's files and return the directory holding them."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(_GENERATORS)})")
    rng = random.Random(f"{name}:{seed}")
    bank_document, answers, expected, run = _GENERATORS[name](rng)
    target = Path(out_dir) / f"{name}-seed{seed}"
    target.mkdir(parents=True, exist_ok=True)
    if bank_document is None:
        bank_path = shipped_bank_path()
        bank_ref = "shipped"
    else:
        bank_path = target / "bank.json"
        bank_path.write_text(_dump(bank_document), encoding="utf-8")
        bank_ref = "bank.json"
    (target / "answers.json").write_text(_dump(answers), encoding="utf-8")
    manifest = {
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "bank": bank_ref,
        "bank_sha256": sha256_of(bank_path),
        "answers": "answers.json",
        "run": run,
        "expected": expected,
    }
    (target / "workload.json").write_text(_dump(manifest), encoding="utf-8")
    return target
