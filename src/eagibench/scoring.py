"""Tiered answer scoring.

Levels 1-3 use exact / tolerance checks against oracle-derived ground
truth.  A level 4 fix and a level 5 design are judged by their specs,
which run the physics: ``FixSpec.judge`` patches the design and re-runs
the evaluation, and ``DesignSynthesisSpec.judge`` evaluates the named grid
design and measures its dominance gap to the item's reference front.  This
module imports no physics; it grades what they return, a design on
constraint satisfaction plus that gap.  Level 6 uses a keyword-rubric
heuristic behind a seam where an external judge can be plugged in.

Answer envelopes: an agent may end its reply with a fenced code block
containing a single JSON object.  The last block holding the kind's key
wins over prose.  Required keys per answer kind:

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
last number in no other unit) for numerics, cause-keyword matching for
diagnoses, and pattern matching ("340 Kv", "20x6", "6S", "12000 mAh") for
patches and designs.

``score_answer`` extracts a reply once, reads each envelope value its
kind's ``_KINDS`` row lists by its JSON type (``bank._typed``), and hands
the typed payload to the kind's scorer.

All scorers are pure and deterministic; items may be graded concurrently.
"""

from __future__ import annotations

import enum
import json
import re
from typing import Callable, Mapping, NamedTuple, Optional

from .bank import (
    AnswerSpec,
    DesignSynthesisSpec,
    DiagnosisSpec,
    FactSpec,
    FieldExpectation,
    FixSpec,
    NumericSpec,
    RubricSpec,
    StructuredSpec,
    _NUMBER,
    _OBJECT,
    _PHRASE_BLANKS,
    _TEXT,
    _typed,
    answer_kind,
    design_to_bank,
)
from .records import checked

# L5 grade weights: constraint satisfaction vs Pareto proximity.
DESIGN_CONSTRAINT_WEIGHT = 0.7
DESIGN_PARETO_WEIGHT = 0.3


class Verdict(enum.Enum):
    Pass = "Pass"
    Partial = "Partial"
    Fail = "Fail"
    Unscorable = "Unscorable"


class Evidence(NamedTuple):
    check_id: str
    outcome: str
    detail: str


@checked
class Score(NamedTuple):
    value: float
    verdict: Verdict
    evidence: tuple[Evidence, ...]

    def _check(self):
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
    **{unit: {unit} for unit in ("cm", "mm", "mv", "ma", "mah")},  # no other spelling
    "ratio": {"ratio", "x", "factor", "dimensionless", ""},
}

_UNIT_LOOKUP = {tok: canon for canon, toks in _UNIT_TABLE.items() for tok in toks}


def normalize_unit(token: str) -> Optional[str]:
    """Canonical unit key, or None when the token is unknown."""
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
    return _PHRASE_BLANKS.sub("", out)


_NUMBER_RE = r"[-+]?\d+(?:,\d{3})*(?:\.\d+)?(?:[eE][-+]?\d+)?"
#: A number and the unit token after it, if any, as the numeric and structured plain-text paths read them.
#: A token starts with a letter or ": the "/" of "19.8/25.2" or "8436/min" is no unit.
_NUMBER_UNIT = rf"({_NUMBER_RE})(?:\s*([A-Za-z\"][A-Za-z/·*\"%]*))?"


def _to_float(token: str) -> float:
    return float(token.replace(",", ""))


def _within(value: float, expected: float, rel_tol: float) -> bool:
    """Whether ``value`` is within ``rel_tol`` of ``expected``, relative to ``expected``."""
    return abs(value - expected) <= rel_tol * abs(expected)


#: Unit tokens that are also words ("25.2 in a full pack", "19.8 min"), each with the other
#: units of its dimension: the only expected units beside which it names a wrong unit.
_WORD_UNITS = {"in": {"cm", "mm", "m"}, "a": {"ma"}, "s": {"min"}, "min": {"s"}}


def _unit_fits(token: Optional[str], unit: Optional[str]) -> bool:
    """Whether a number followed by ``token`` (None when nothing follows it) is read in ``unit``.
    It is, unless the token names another unit: one ``normalize_unit`` knows, other than "ratio"
    (the "x" of "18x6"), and for a ``_WORD_UNITS`` word one of its dimension."""
    if token is None or unit is None:  # before normalizing: normalize_unit("") is "ratio"
        return True
    canon, word = normalize_unit(unit), token.lower()
    return normalize_unit(token) in (None, "ratio", canon) or canon not in _WORD_UNITS.get(word, {canon})


# ---------------------------------------------------------------------------
# Extraction


class AgentAnswer(NamedTuple):
    envelope: Optional[Mapping] = None
    extraction: str = "text"


_FENCE_RE = re.compile(r"```[A-Za-z]*[ \t]*\r?\n(.*?)```", re.DOTALL)


def _find_envelope(text: str, key: str) -> Optional[Mapping]:
    """The last fenced block that parses as a JSON object holding ``key``."""
    envelope = None
    for block in _FENCE_RE.findall(text):
        try:
            candidate = json.loads(block)
        except (ValueError, RecursionError):  # not JSON, an integer too long to read, or nested too deep
            continue
        if isinstance(candidate, Mapping) and key in candidate:
            envelope = candidate
    return envelope


def _fence(payload: Mapping) -> str:
    return "```json\n" + json.dumps(payload) + "\n```"


def reference_answer(spec: AnswerSpec) -> str:
    """The ground-truth reply: an envelope, or for a rubric the first phrase of each criterion."""
    reference = _KINDS[answer_kind(spec)].reference
    if reference is None:
        return " ".join(criterion.phrases[0] for criterion in spec.criteria)
    return _fence(reference(spec))


def extract(answer_text: str, spec: AnswerSpec) -> AgentAnswer:
    """Pull a machine-readable payload out of an agent reply to ``spec``.

    A well-formed fenced envelope wins over prose.  Otherwise the
    documented plain-text extraction for the spec's answer kind runs.  The
    extraction path taken is recorded on the result; an empty result
    downstream becomes an Unscorable verdict, never a crash.
    """
    kind = _KINDS[answer_kind(spec)]
    envelope = _find_envelope(answer_text, kind.key)
    if envelope is not None:
        return AgentAnswer(envelope=envelope, extraction="envelope")
    if kind.from_text is None:
        return AgentAnswer()
    envelope, path = kind.from_text(answer_text, spec) or (None, "none")
    return AgentAnswer(envelope=envelope, extraction=path)


# Plain-text extractors: ``(text, spec) -> (stand-in envelope, path)``, or
# None when the text holds no answer.


def _numeric_from_text(text: str, spec: NumericSpec) -> Optional[tuple[dict, str]]:
    """Last number with the spec's unit; else the last number whose unit token fits it
    (``_unit_fits``); else the last number, in the unit it names, which the scorer fails."""
    canon = normalize_unit(spec.unit)
    found = [(_to_float(m.group(1)), m.group(2)) for m in re.finditer(_NUMBER_UNIT, text)]
    with_unit = [value for value, token in found if token is not None and normalize_unit(token) == canon]
    if with_unit:
        return {"value": with_unit[-1], "unit": spec.unit}, "text-unit-number"
    fitting = [value for value, token in found if _unit_fits(token, spec.unit)]
    if fitting:
        return {"value": fitting[-1], "unit": spec.unit}, "text-number"
    return ({"value": found[-1][0], "unit": found[-1][1]}, "text-number") if found else None


def _cause_from_text(text: str, spec: DiagnosisSpec) -> Optional[tuple[dict, str]]:
    """The vocabulary cause with the most phrase hits."""
    lowered = text.lower()
    best: Optional[str] = None
    best_hits = 0
    for cause, phrases in spec.vocabulary.items():
        hits = sum(1 for phrase in phrases if phrase.lower() in lowered)
        if hits > best_hits:
            best, best_hits = cause, hits
    return None if best is None else ({"cause": best}, "text-cause")


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


def _patch_fields(text: str) -> dict:
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


def _patch_from_text(text: str, spec: FixSpec) -> Optional[tuple[dict, str]]:
    patch = _patch_fields(text)
    return ({"patch": patch}, "text-patch") if patch else None


def _design_from_text(text: str, spec: DesignSynthesisSpec) -> Optional[tuple[dict, str]]:
    design = _patch_fields(text)
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
    return ({"design": design}, "text-design") if design else None


# ---------------------------------------------------------------------------
# Scorers


def _graded(value: float, evidence) -> Score:
    """Pass at 1, Fail at 0, Partial in between."""
    verdict = Verdict.Pass if value == 1.0 else Verdict.Fail if value == 0.0 else Verdict.Partial
    return Score(value, verdict, tuple(evidence))


def _score_numeric(payload: Mapping, via: str, text: str, spec: NumericSpec) -> Score:
    value, unit = payload["value"], payload.get("unit", spec.unit)
    try:
        ok = _within(value, spec.value, spec.rel_tol)
    except OverflowError as exc:  # an int beyond float range
        return unscorable(f"envelope {exc}")
    if normalize_unit(unit) != normalize_unit(spec.unit):
        detail = f"answer unit {unit!r} does not match {spec.unit!r}"
        return _graded(0.0, [Evidence("unit", "fail", detail)])
    detail = (
        f"measured {value:g} {spec.unit} vs expected {spec.value:g} {spec.unit} "
        f"(rel_tol {spec.rel_tol:g}, via {via})"
    )
    return _graded(float(ok), [Evidence("numeric", "pass" if ok else "fail", detail)])


def _score_fact(payload: Optional[Mapping], via: str, text: str, spec: FactSpec) -> Score:
    normalized = normalize_phrase(text)
    for accepted in (spec.canonical, *spec.accepted_aliases):
        if normalize_phrase(accepted) in normalized:
            detail = f"matched {accepted!r} (via {via})"
            return _graded(1.0, [Evidence("fact", "pass", detail)])
    return _graded(0.0, [Evidence("fact", "fail", f"no match for canonical {spec.canonical!r}")])


def _phrase_found(field: FieldExpectation, said) -> bool:
    """Whether the field's expected value or an alias is a normalized substring of ``said`` (text or a number)."""
    normalized = normalize_phrase(str(said))
    return any(normalize_phrase(phrase) in normalized for phrase in (str(field.expected), *field.aliases))


def _match_field(field: FieldExpectation, envelope_fields: Optional[Mapping], text: str) -> tuple[bool, str]:
    """Check one field against the envelope's fields or, without an
    envelope, against the prose.  A field the envelope omits fails: a
    well-formed envelope wins over prose."""
    if envelope_fields is not None:
        if field.name not in envelope_fields:
            return False, f"{field.name}: missing from envelope"
        got = envelope_fields[field.name]
        if field.kind == "number":
            try:  # :g raises OverflowError for an int beyond float range
                detail = f"{field.name}: {_typed(field.name, got, _NUMBER):g} vs {field.expected:g}"
            except (TypeError, OverflowError):
                return False, f"{field.name}: {got!r} is not a number"
            return _within(got, field.expected, field.rel_tol), detail
        try:
            ok = _phrase_found(field, _typed(field.name, got, _TEXT + _NUMBER))
        except TypeError:
            return False, f"{field.name}: {got!r} is not a string or a number"
        return ok, f"{field.name}: {got!r} vs {field.expected!r}"
    # plain-text path
    if field.kind == "number":
        named = re.search(rf"{re.escape(field.name)}\W{{0,3}}(?:\w+\W{{0,3}}){{0,4}}?" + _NUMBER_UNIT, text, re.I)
        if named:
            value, token = _to_float(named.group(1)), named.group(2)
            if not _unit_fits(token, field.unit):
                return False, f"{field.name}: unit {token!r} does not match {field.unit!r} (text)"
            ok = _within(value, field.expected, field.rel_tol)
            return ok, f"{field.name}: {value:g} vs {field.expected:g} (text)"
        # name not mentioned: accept the expected value appearing anywhere, in the field's unit
        for found in re.finditer(_NUMBER_UNIT, text):
            value, token = _to_float(found.group(1)), found.group(2)
            if _within(value, field.expected, field.rel_tol) and _unit_fits(token, field.unit):
                return True, f"{field.name}: {field.expected:g} present in text"
        return False, f"{field.name}: no value found in text"
    ok = _phrase_found(field, text)
    return ok, f"{field.name}: {'found' if ok else 'missing'} {field.expected!r} (text)"


def _score_structured(payload: Optional[Mapping], via: str, text: str, spec: StructuredSpec) -> Score:
    envelope_fields = None if payload is None else payload["fields"]
    evidence = []
    correct = 0
    for field in spec.fields:
        ok, detail = _match_field(field, envelope_fields, text)
        correct += ok
        evidence.append(Evidence(field.name, "pass" if ok else "fail", detail))
    return _graded(correct / len(spec.fields), evidence)


def _score_diagnosis(payload: Mapping, via: str, text: str, spec: DiagnosisSpec) -> Score:
    cause = payload["cause"]
    ok = cause in spec.accepted_causes
    detail = f"cause {cause!r} vs accepted {list(spec.accepted_causes)} (via {via})"
    return _graded(float(ok), [Evidence("diagnosis", "pass" if ok else "fail", detail)])


def _score_fix(payload: Mapping, via: str, text: str, spec: FixSpec) -> Score:
    patch = payload["patch"]
    for key in patch:
        if key not in spec.patchable_fields:  # each a design field, as the spec checks
            return unscorable(f"patch references unknown field {key!r}")
    try:
        fixed, rows = spec.judge(patch)
    except (TypeError, ValueError, ArithmeticError) as exc:
        return unscorable(f"patched design is invalid: {exc}")
    evidence = [
        Evidence(
            req.id,
            outcome,
            f"{req.kind.value}: before {b.measured:.4g} after {a.measured:.4g} "
            f"vs bound {req.bound:g} {req.unit}",
        )
        for req, b, a, outcome in rows
    ]
    return _graded(float(fixed), evidence)


def _score_design(payload: Mapping, via: str, text: str, spec: DesignSynthesisSpec) -> Score:
    try:
        report, gap = spec.judge(payload["design"])
    except KeyError as exc:
        return unscorable(f"design references unknown field {exc.args[0]!r}")
    except (TypeError, ValueError, ArithmeticError) as exc:
        return unscorable(f"design violates invariants: {exc}")

    evidence = [
        Evidence(
            check.requirement_id,
            "pass" if check.passed else "fail",
            f"{check.kind.value}: measured {check.measured:.4g} vs bound {check.bound:g}",
        )
        for check in report.requirement_checks
    ]
    total = len(spec.requirements)
    satisfied = sum(c.passed for c in report.requirement_checks)
    fraction = satisfied / total if total else 1.0

    pareto_component = 1.0 - gap
    if gap == 0.0:
        evidence.append(Evidence("pareto", "front", "non-dominated within the reference feasible set"))
    else:
        evidence.append(Evidence("pareto", "dominated", f"dominance gap {gap:.3f} to the reference front"))

    value = DESIGN_CONSTRAINT_WEIGHT * fraction + DESIGN_PARETO_WEIGHT * pareto_component
    if fraction == 1.0 and pareto_component == 1.0:
        value = 1.0
    return _graded(value, evidence)


RubricJudge = Callable[[str, RubricSpec], Score]


def _score_rubric(payload: Optional[Mapping], via: str, text: str, spec: RubricSpec) -> Score:
    """Keyword-checklist heuristic; ``score_answer(rubric_judge=)`` replaces it
    with an external judge.

    The score value is the fraction of criteria whose phrase group appears
    in the answer; the verdict is thresholded, so a Fail here can carry a
    non-zero value (the raw fraction is kept for reporting).
    """
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


class _Kind(NamedTuple):
    """Everything the scorer knows about one answer kind."""

    #: The JSON types of each envelope value the kind reads, its key's own first: the key an
    #: envelope of this kind must hold.
    types: Mapping[str, tuple]
    #: The Unscorable reason when nothing is found; None where the whole reply is the answer.
    missing: Optional[str]
    #: The scorer: ``(typed payload or None, extraction label, text to read, spec) -> Score``.
    score: Callable[[Optional[Mapping], str, str, AnswerSpec], Score]
    #: The plain-text extractor; None where the whole reply is the answer.
    from_text: Optional[Callable[[str, AnswerSpec], Optional[tuple]]]
    #: The envelope payload that states the ground truth; None for a rubric.
    reference: Optional[Callable[[AnswerSpec], dict]]

    @property
    def key(self) -> str:
        return next(iter(self.types))


_KINDS = {
    "numeric": _Kind(
        {"value": _NUMBER, "unit": _TEXT}, "no numeric payload found", _score_numeric, _numeric_from_text,
        lambda spec: {"value": spec.value, "unit": spec.unit},
    ),
    "fact": _Kind({"text": _TEXT}, None, _score_fact, None, lambda spec: {"text": spec.canonical}),
    "structured": _Kind(
        {"fields": _OBJECT}, None, _score_structured, None,
        lambda spec: {"fields": {f.name: f.expected for f in spec.fields}},
    ),
    "diagnosis": _Kind(
        {"cause": _TEXT}, "no cause identified in answer", _score_diagnosis, _cause_from_text,
        lambda spec: {"cause": spec.accepted_causes[0]},
    ),
    "fix": _Kind(
        {"patch": _OBJECT}, "no design patch found in answer", _score_fix, _patch_from_text,
        lambda spec: {"patch": dict(spec.reference_patch)},
    ),
    "design": _Kind(
        {"design": _OBJECT}, "no design found in answer", _score_design, _design_from_text,
        lambda spec: {"design": design_to_bank(spec.reference_design)},
    ),
    "rubric": _Kind({"text": _TEXT}, None, _score_rubric, None, None),
}


def score_answer(spec: AnswerSpec, answer_text: str, *, rubric_judge: Optional[RubricJudge] = None) -> Score:
    """Score a reply to ``spec``: extract it once, read each envelope value the kind's row lists by
    its JSON type, and grade the payload with the kind's scorer.  A value of another type, and an
    answer with nothing to read, is Unscorable.  ``rubric_judge``, when given, grades the raw reply
    to a rubric in place of the keyword heuristic, and nothing is extracted."""
    name = answer_kind(spec)
    if name == "rubric" and rubric_judge is not None:
        return rubric_judge(answer_text, spec)
    kind = _KINDS[name]
    ans = extract(answer_text, spec)
    payload = None
    if ans.envelope is not None:
        try:
            payload = {key: _typed(key, ans.envelope[key], types) for key, types in kind.types.items()
                       if key in ans.envelope}
        except TypeError as exc:
            return unscorable(f"envelope {exc}")
    elif kind.missing is not None:
        return unscorable(kind.missing)
    text = (payload or {}).get("text", answer_text)  # a fact's or a rubric's envelope states the text to read
    if kind.missing is None and not text.strip():
        return unscorable("empty answer")
    return kind.score(payload, ans.extraction, text, spec)
