"""Tiered answer scoring.

Levels 1-3 use exact / tolerance checks against oracle-derived ground
truth.  Level 4 fixes are validated by patching the design and re-running
the physics evaluation.  Level 5 designs are graded on constraint
satisfaction plus Pareto membership against a reference grid.  Level 6
uses a keyword-rubric heuristic behind a seam where an external judge can
be plugged in.

Answer envelopes: an agent may end its reply with a fenced code block
containing a single JSON object (the last such block wins over prose).
Required keys per answer kind:

    numeric    {"value": <number>, "unit": "<unit>"}
    fact       {"text": "<answer>"}
    structured {"fields": {"<name>": <value>, ...}}
    diagnosis  {"cause": "<cause-id>"}
    fix        {"patch": {"<design-field>": <value>, ...}}
    design     {"design": {"<design-field>": <value>, ...}}
    rubric     {"text": "<answer>"}

Design/patch fields use the bank-file names (``kv_rpm_per_volt``,
``prop_diameter_in``, ...).  Without an envelope, a documented plain-text
extraction runs: last number with a matching unit (falling back to the
last bare number) for numerics, cause-keyword matching for diagnoses, and
pattern matching ("340 Kv", "20x6", "6S", "12000 mAh") for patches and
designs.

All scorers are pure and deterministic; items may be graded concurrently.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .bank import (
    AnswerSpec,
    DESIGN_FIELD_MAP,
    DesignSynthesisSpec,
    DiagnosisSpec,
    FactSpec,
    FieldExpectation,
    FixSpec,
    NumericSpec,
    RubricSpec,
    StructuredSpec,
    answer_kind,
    design_from_bank,
)
from .design_space import (
    OBJECTIVE_AXES,
    ObjectiveVector,
    ReferenceFront,
    dominates,
    reference_front,
    report_objectives,
)
from .propulsion import apply_patch, evaluate_design

# L5 grade weights: constraint satisfaction vs Pareto proximity.
DESIGN_CONSTRAINT_WEIGHT = 0.7
DESIGN_PARETO_WEIGHT = 0.3


class Verdict(enum.Enum):
    Pass = "Pass"
    Partial = "Partial"
    Fail = "Fail"
    Unscorable = "Unscorable"


@dataclass(frozen=True)
class Evidence:
    check_id: str
    outcome: str
    detail: str


@dataclass(frozen=True)
class Score:
    value: float
    verdict: Verdict
    evidence: tuple[Evidence, ...]

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"score value must be in [0, 1], got {self.value}")
        if self.verdict is not Verdict.Unscorable and not self.evidence:
            raise ValueError("evidence must be non-empty unless Unscorable")


def unscorable(reason: str) -> Score:
    return Score(0.0, Verdict.Unscorable, (Evidence("extraction", "unscorable", reason),))


# ---------------------------------------------------------------------------
# Normalization tables

_UNIT_TABLE = {
    "rpm": {"rpm", "revmin", "rmin", "revolutionsperminute"},
    "n": {"n", "newton", "newtons"},
    "nm": {"nm", "newtonmeter", "newtonmeters", "newtonmetre", "newtonmetres"},
    "w": {"w", "watt", "watts"},
    "a": {"a", "amp", "amps", "ampere", "amperes"},
    "v": {"v", "volt", "volts"},
    "min": {"min", "mins", "minute", "minutes"},
    "s": {"s", "sec", "secs", "second", "seconds"},
    "kg": {"kg", "kilogram", "kilograms"},
    "m": {"m", "meter", "meters", "metre", "metres"},
    "in": {"in", "inch", "inches", '"'},
    "ah": {"ah", "amphour", "amphours", "amperehour", "amperehours"},
    "ratio": {"ratio", "x", "factor", "dimensionless", ""},
}

_UNIT_LOOKUP = {tok: canon for canon, toks in _UNIT_TABLE.items() for tok in toks}


def normalize_unit(token: Optional[str]) -> Optional[str]:
    """Canonical unit key, or None when the token is unknown."""
    if token is None:
        return None
    cleaned = re.sub(r"[\s.·*/\-]", "", token.lower())
    return _UNIT_LOOKUP.get(cleaned)


_SYMBOL_REPLACEMENTS = [
    ("\\cdot", "*"),
    ("\\times", "*"),
    ("\\rho", "rho"),
    ("\\eta", "eta"),
    ("\\pi", "pi"),
    ("·", "*"),
    ("⋅", "*"),
    ("∙", "*"),
    ("×", "*"),
    ("−", "-"),
    ("–", "-"),
    ("—", "-"),
    ("ρ", "rho"),
    ("η", "eta"),
    ("π", "pi"),
    ("²", "^2"),
    ("³", "^3"),
    ("⁴", "^4"),
]


def normalize_phrase(text: str) -> str:
    """Case, whitespace, and math-symbol normalization for fact matching."""
    out = text.lower()
    for old, new in _SYMBOL_REPLACEMENTS:
        out = out.replace(old, new)
    return re.sub(r"[\s_{}$\\]", "", out)


_NUMBER_RE = r"[-+]?\d+(?:,\d{3})*(?:\.\d+)?(?:[eE][-+]?\d+)?"


def _to_float(token: str) -> float:
    return float(token.replace(",", ""))


# ---------------------------------------------------------------------------
# Extraction


@dataclass(frozen=True)
class AgentAnswer:
    raw_text: str
    envelope: Optional[Mapping] = None
    extraction: str = "text"


_FENCE_RE = re.compile(r"```[A-Za-z]*[ \t]*\r?\n(.*?)```", re.DOTALL)


def _find_envelope(text: str) -> Optional[Mapping]:
    envelope = None
    for block in _FENCE_RE.findall(text):
        try:
            candidate = json.loads(block)
        except json.JSONDecodeError:
            continue
        if isinstance(candidate, Mapping):
            envelope = candidate
    return envelope


_ENVELOPE_KEYS = {
    "numeric": "value",
    "fact": "text",
    "structured": "fields",
    "diagnosis": "cause",
    "fix": "patch",
    "design": "design",
    "rubric": "text",
}


def extract(answer_text: str, expected_form: str, spec: Optional[AnswerSpec] = None) -> AgentAnswer:
    """Pull a machine-readable payload out of an agent reply.

    A well-formed fenced envelope wins over prose.  Otherwise the
    documented plain-text extraction for the expected answer kind runs
    (pass ``spec`` to enable the spec-aware paths).  The extraction path
    taken is recorded on the result; an empty result downstream becomes an
    Unscorable verdict, never a crash.
    """
    envelope = _find_envelope(answer_text)
    key = _ENVELOPE_KEYS.get(expected_form)
    if envelope is not None and key is not None and key in envelope:
        return AgentAnswer(raw_text=answer_text, envelope=envelope, extraction="envelope")
    if expected_form == "numeric" and isinstance(spec, NumericSpec):
        found = _numeric_from_text(answer_text, spec.unit)
        if found is None:
            return AgentAnswer(raw_text=answer_text, envelope=None, extraction="none")
        value, path = found
        return AgentAnswer(
            raw_text=answer_text, envelope={"value": value, "unit": spec.unit}, extraction=path
        )
    if expected_form == "diagnosis" and isinstance(spec, DiagnosisSpec):
        cause = _cause_from_text(answer_text, spec.vocabulary)
        if cause is None:
            return AgentAnswer(raw_text=answer_text, envelope=None, extraction="none")
        return AgentAnswer(raw_text=answer_text, envelope={"cause": cause}, extraction="text-cause")
    if expected_form == "fix":
        patch = _patch_from_text(answer_text)
        if not patch:
            return AgentAnswer(raw_text=answer_text, envelope=None, extraction="none")
        return AgentAnswer(raw_text=answer_text, envelope={"patch": patch}, extraction="text-patch")
    if expected_form == "design":
        design = _design_from_text(answer_text)
        if not design:
            return AgentAnswer(raw_text=answer_text, envelope=None, extraction="none")
        return AgentAnswer(
            raw_text=answer_text, envelope={"design": design}, extraction="text-design"
        )
    return AgentAnswer(raw_text=answer_text, envelope=None, extraction="text")


def _numeric_from_text(text: str, unit: str) -> Optional[tuple[float, str]]:
    """Last number with a matching unit; else the last bare number."""
    canon = normalize_unit(unit)
    with_unit = None
    for match in re.finditer(rf"({_NUMBER_RE})\s*([A-Za-z/·*\"%]+)", text):
        if normalize_unit(match.group(2)) == canon:
            with_unit = _to_float(match.group(1))
    if with_unit is not None:
        return with_unit, "text-unit-number"
    numbers = re.findall(_NUMBER_RE, text)
    if numbers:
        return _to_float(numbers[-1]), "text-number"
    return None


def _cause_from_text(text: str, vocabulary: Mapping[str, tuple[str, ...]]) -> Optional[str]:
    lowered = text.lower()
    best: Optional[str] = None
    best_hits = 0
    for cause, phrases in vocabulary.items():
        hits = sum(1 for phrase in phrases if phrase.lower() in lowered)
        if hits > best_hits:
            best, best_hits = cause, hits
    return best


_KV_RE = re.compile(r"(\d{3})\s*[- ]?kv\b", re.IGNORECASE)
_PROP_RE = re.compile(r"(\d{1,2}(?:\.\d+)?)\s*[x×]\s*(\d{1,2}(?:\.\d+)?)")
_DIAMETER_RE = re.compile(
    r"diameter\s*(?:to|of|=|:)?\s*(\d{1,2}(?:\.\d+)?)\s*(?:in\b|inch|inches|\")", re.IGNORECASE
)
_PITCH_RE = re.compile(r"pitch\s*(?:to|of|=|:)?\s*(\d{1,2}(?:\.\d+)?)", re.IGNORECASE)
_CELLS_RE = re.compile(r"(\d{1,2})\s*s\b", re.IGNORECASE)
_MAH_RE = re.compile(rf"({_NUMBER_RE})\s*mah\b", re.IGNORECASE)
_AH_RE = re.compile(rf"({_NUMBER_RE})\s*ah\b", re.IGNORECASE)
_MOTORS_RE = re.compile(r"(\d{1,2})\s*(?:motors|rotors|props)\b", re.IGNORECASE)


def _patch_from_text(text: str) -> dict:
    patch: dict = {}
    prop = _PROP_RE.search(text)
    if prop:
        patch["prop_diameter_in"] = float(prop.group(1))
        patch["prop_pitch_in"] = float(prop.group(2))
    diameter = _DIAMETER_RE.search(text)
    if diameter:
        patch["prop_diameter_in"] = float(diameter.group(1))
    pitch = _PITCH_RE.search(text)
    if pitch and "prop_pitch_in" not in patch:
        patch["prop_pitch_in"] = float(pitch.group(1))
    kv = _KV_RE.search(text)
    if kv:
        patch["kv_rpm_per_volt"] = float(kv.group(1))
    return patch


def _design_from_text(text: str) -> dict:
    design = _patch_from_text(text)
    cells = _CELLS_RE.search(text)
    if cells:
        design["battery_cells"] = int(cells.group(1))
    mah = _MAH_RE.search(text)
    if mah:
        design["battery_capacity_ah"] = _to_float(mah.group(1)) / 1000.0
    else:
        ah = _AH_RE.search(text)
        if ah:
            design["battery_capacity_ah"] = _to_float(ah.group(1))
    motors = _MOTORS_RE.search(text)
    if motors:
        design["n_motors"] = int(motors.group(1))
    return design


# ---------------------------------------------------------------------------
# Scorers


def score_numeric(answer_text: str, spec: NumericSpec) -> Score:
    ans = extract(answer_text, "numeric", spec)
    if ans.envelope is None:
        return unscorable("no numeric payload found")
    try:
        value = float(ans.envelope["value"])
    except (TypeError, ValueError):
        return unscorable(f"envelope value {ans.envelope.get('value')!r} is not a number")
    unit = ans.envelope.get("unit", spec.unit)
    if normalize_unit(str(unit)) != normalize_unit(spec.unit):
        return Score(
            0.0,
            Verdict.Fail,
            (Evidence("unit", "fail", f"answer unit {unit!r} does not match {spec.unit!r}"),),
        )
    ok = abs(value - spec.value) <= spec.rel_tol * abs(spec.value)
    detail = (
        f"measured {value:g} {spec.unit} vs expected {spec.value:g} {spec.unit} "
        f"(rel_tol {spec.rel_tol:g}, via {ans.extraction})"
    )
    return Score(
        1.0 if ok else 0.0,
        Verdict.Pass if ok else Verdict.Fail,
        (Evidence("numeric", "pass" if ok else "fail", detail),),
    )


def score_fact(answer_text: str, spec: FactSpec) -> Score:
    ans = extract(answer_text, "fact")
    text = str(ans.envelope["text"]) if ans.envelope else ans.raw_text
    if not text.strip():
        return unscorable("empty answer")
    normalized = normalize_phrase(text)
    for accepted in (spec.canonical, *spec.accepted_aliases):
        if normalize_phrase(accepted) in normalized:
            return Score(
                1.0,
                Verdict.Pass,
                (Evidence("fact", "pass", f"matched {accepted!r} (via {ans.extraction})"),),
            )
    return Score(
        0.0,
        Verdict.Fail,
        (Evidence("fact", "fail", f"no match for canonical {spec.canonical!r}"),),
    )


def _match_field(field: FieldExpectation, envelope_fields: Optional[Mapping], text: str) -> tuple[bool, str]:
    if envelope_fields is not None and field.name in envelope_fields:
        got = envelope_fields[field.name]
        if field.kind == "number":
            try:
                value = float(got)
            except (TypeError, ValueError):
                return False, f"{field.name}: {got!r} is not a number"
            expected = float(field.expected)
            ok = abs(value - expected) <= field.rel_tol * abs(expected)
            return ok, f"{field.name}: {value:g} vs {expected:g}"
        accepted = (str(field.expected), *field.aliases)
        got_norm = normalize_phrase(str(got))
        if field.match == "exact":
            ok = any(normalize_phrase(a) == got_norm for a in accepted)
        else:
            ok = any(normalize_phrase(a) in got_norm for a in accepted)
        return ok, f"{field.name}: {got!r} vs {field.expected!r}"
    # plain-text path
    if field.kind == "number":
        expected = float(field.expected)
        pattern = re.compile(
            rf"{re.escape(field.name)}\W{{0,3}}(?:\w+\W{{0,3}}){{0,4}}?({_NUMBER_RE})",
            re.IGNORECASE,
        )
        match = pattern.search(text)
        if match:
            value = _to_float(match.group(1))
            ok = abs(value - expected) <= field.rel_tol * abs(expected)
            return ok, f"{field.name}: {value:g} vs {expected:g} (text)"
        # name not mentioned: accept the expected value appearing anywhere
        for token in re.findall(_NUMBER_RE, text):
            if abs(_to_float(token) - expected) <= field.rel_tol * abs(expected):
                return True, f"{field.name}: {expected:g} present in text"
        return False, f"{field.name}: no value found in text"
    lowered = normalize_phrase(text)
    accepted = (str(field.expected), *field.aliases)
    ok = any(normalize_phrase(a) in lowered for a in accepted)
    return ok, f"{field.name}: {'found' if ok else 'missing'} {field.expected!r} (text)"


def score_structured(answer_text: str, spec: StructuredSpec) -> Score:
    ans = extract(answer_text, "structured")
    envelope_fields = None
    if ans.envelope is not None and isinstance(ans.envelope.get("fields"), Mapping):
        envelope_fields = ans.envelope["fields"]
    if envelope_fields is None and not answer_text.strip():
        return unscorable("empty answer")
    evidence = []
    correct = 0
    for field in spec.fields:
        ok, detail = _match_field(field, envelope_fields, answer_text)
        correct += ok
        evidence.append(Evidence(field.name, "pass" if ok else "fail", detail))
    value = correct / len(spec.fields)
    verdict = Verdict.Pass if value == 1.0 else Verdict.Fail if value == 0.0 else Verdict.Partial
    return Score(value, verdict, tuple(evidence))


def score_diagnosis(answer_text: str, spec: DiagnosisSpec) -> Score:
    ans = extract(answer_text, "diagnosis", spec)
    if ans.envelope is None or "cause" not in ans.envelope:
        return unscorable("no cause identified in answer")
    cause = str(ans.envelope["cause"])
    ok = cause in spec.accepted_causes
    return Score(
        1.0 if ok else 0.0,
        Verdict.Pass if ok else Verdict.Fail,
        (
            Evidence(
                "diagnosis",
                "pass" if ok else "fail",
                f"cause {cause!r} vs accepted {list(spec.accepted_causes)} (via {ans.extraction})",
            ),
        ),
    )


def _patch_to_si(patch: Mapping) -> dict:
    si: dict = {}
    for key, value in patch.items():
        target, scale = DESIGN_FIELD_MAP[key]
        if key in ("battery_cells", "n_motors"):
            si[target] = int(value)
        else:
            si[target] = float(value) * scale
    return si


def score_fix(answer_text: str, spec: FixSpec) -> Score:
    ans = extract(answer_text, "fix")
    if ans.envelope is None or not isinstance(ans.envelope.get("patch"), Mapping):
        return unscorable("no design patch found in answer")
    patch = dict(ans.envelope["patch"])
    for key in patch:
        if key not in DESIGN_FIELD_MAP or key not in spec.patchable_fields:
            return unscorable(f"patch references unknown field {key!r}")
    try:
        patched = apply_patch(spec.base_design, _patch_to_si(patch), spec.ct_overrides)
    except (TypeError, ValueError, OverflowError) as exc:
        return unscorable(f"patched design is invalid: {exc}")

    before = evaluate_design(
        spec.base_design, spec.environment, spec.requirements, loaded_rpm=spec.loaded_rpm
    )
    after = evaluate_design(patched, spec.environment, spec.requirements, loaded_rpm=spec.loaded_rpm)

    evidence = []
    flipped = False
    regressed = False
    for req in spec.requirements:
        b = before.check(req.id)
        a = after.check(req.id)
        if req.id == spec.failing_requirement_id:
            flipped = (not b.passed) and a.passed
            outcome = "flipped" if flipped else "still-failing" if not a.passed else "not-failing-before"
        elif b.passed and not a.passed:
            regressed = True
            outcome = "regressed"
        else:
            outcome = "pass" if a.passed else "fail"
        evidence.append(
            Evidence(
                req.id,
                outcome,
                f"{req.kind.value}: before {b.measured:.4g} after {a.measured:.4g} "
                f"vs bound {req.bound:g} {req.unit}",
            )
        )
    ok = flipped and not regressed
    return Score(1.0 if ok else 0.0, Verdict.Pass if ok else Verdict.Fail, tuple(evidence))


def _dominance_gap(candidate: ObjectiveVector, reference: ReferenceFront) -> float:
    """Normalized distance from the candidate to the reference Pareto front.

    0 means on (or beyond) the front, 1 means maximally dominated on some
    axis relative to the spread of the feasible set.  Invented metric:
    min over front members of the worst per-axis shortfall, each axis
    normalized by its range over the feasible set.
    """
    if not any(dominates(f, candidate) for f in reference.front):
        return 0.0

    def shortfall(f: ObjectiveVector) -> float:
        worst = 0.0
        for name, sign in OBJECTIVE_AXES:
            delta = sign * (getattr(f, name) - getattr(candidate, name))
            if delta <= 0:
                continue
            span = reference.ranges[name]
            worst = max(worst, 1.0 if span <= 0 else min(1.0, delta / span))
        return worst

    return min(shortfall(f) for f in reference.front)


def score_design(answer_text: str, spec: DesignSynthesisSpec) -> Score:
    ans = extract(answer_text, "design")
    if ans.envelope is None or not isinstance(ans.envelope.get("design"), Mapping):
        return unscorable("no design found in answer")
    try:
        design = design_from_bank(ans.envelope["design"], spec.defaults)
    except KeyError as exc:
        return unscorable(f"design references unknown field {exc.args[0]!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        return unscorable(f"design violates invariants: {exc}")

    report = evaluate_design(design, spec.environment, spec.requirements)
    evidence = []
    for check in report.requirement_checks:
        evidence.append(
            Evidence(
                check.requirement_id,
                "pass" if check.passed else "fail",
                f"{check.kind.value}: measured {check.measured:.4g} vs bound {check.bound:g}",
            )
        )
    total = len(spec.requirements)
    satisfied = sum(c.passed for c in report.requirement_checks)
    fraction = satisfied / total if total else 1.0

    reference = reference_front(
        spec.grid, spec.mtow, spec.environment, spec.reference_requirements or spec.requirements
    )
    gap = _dominance_gap(report_objectives(report), reference)
    pareto_component = 1.0 - gap
    if gap == 0.0:
        evidence.append(
            Evidence("pareto", "front", "non-dominated within the reference feasible set")
        )
    else:
        evidence.append(
            Evidence("pareto", "dominated", f"dominance gap {gap:.3f} to the reference front")
        )

    value = DESIGN_CONSTRAINT_WEIGHT * fraction + DESIGN_PARETO_WEIGHT * pareto_component
    if fraction == 1.0 and pareto_component == 1.0:
        value = 1.0
    verdict = Verdict.Pass if value == 1.0 else Verdict.Fail if value == 0.0 else Verdict.Partial
    return Score(value, verdict, tuple(evidence))


RubricJudge = Callable[[str, RubricSpec], Score]


def score_rubric(answer_text: str, spec: RubricSpec, judge: Optional[RubricJudge] = None) -> Score:
    """Keyword-checklist heuristic; an external judge may replace it.

    The score value is the fraction of criteria whose phrase group appears
    in the answer; the verdict is thresholded, so a Fail here can carry a
    non-zero value (the raw fraction is kept for reporting).
    """
    if judge is not None:
        return judge(answer_text, spec)
    ans = extract(answer_text, "rubric")
    text = str(ans.envelope["text"]) if ans.envelope else ans.raw_text
    if not text.strip():
        return unscorable("empty answer")
    lowered = text.lower()
    evidence = [Evidence("method", "heuristic", "keyword-rubric heuristic scorer")]
    hits = 0
    for criterion in spec.criteria:
        hit = any(phrase.lower() in lowered for phrase in criterion.phrases)
        hits += hit
        evidence.append(
            Evidence(criterion.key, "pass" if hit else "fail", "phrase group " + ("found" if hit else "missing"))
        )
    value = hits / len(spec.criteria)
    verdict = Verdict.Pass if value >= spec.pass_threshold else Verdict.Fail
    return Score(value, verdict, tuple(evidence))


def score_answer(spec: AnswerSpec, answer_text: str, *, rubric_judge: Optional[RubricJudge] = None) -> Score:
    """Dispatch to the scorer for the spec's answer kind."""
    kind = answer_kind(spec)
    if kind == "numeric":
        return score_numeric(answer_text, spec)
    if kind == "fact":
        return score_fact(answer_text, spec)
    if kind == "structured":
        return score_structured(answer_text, spec)
    if kind == "diagnosis":
        return score_diagnosis(answer_text, spec)
    if kind == "fix":
        return score_fix(answer_text, spec)
    if kind == "design":
        return score_design(answer_text, spec)
    if kind == "rubric":
        return score_rubric(answer_text, spec, judge=rubric_judge)
    raise ValueError(f"no scorer for answer kind {kind!r}")
