"""Question bank: loading, template instantiation, and sampling.

Bank files are UTF-8 JSON with a mandatory ``schema_version``.  All units
are explicit in field names (``prop_diameter_in``, ``mtow_kg``, ...); the
published schema lives in ``docs/bank-schema.md``.

Ground-truth numerics are never stored in the bank.  A numeric answer
declares which physics function produces it and how its arguments bind to
the question context; the value is computed at instantiation time so the
bank can never drift from the oracle.

Sampling is reproducible: selection uses a seeded Mersenne Twister
(``random.Random``) driving an explicit Fisher-Yates shuffle over
id-sorted candidates, so identical (bank, filter, n, mode, seed) inputs
always give identical output.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from . import propulsion
from .design_space import DesignGrid, check_grid, grid_from_dict
from .propulsion import (
    CT_DEFAULT,
    _as_count,
    Design,
    Environment,
    M_PER_IN,
    Requirement,
    RequirementCheck,
    RequirementKind,
    RequirementSet,
)
from .taxonomy import CognitionLevel, TagFilter, TagSet, matches

SCHEMA_VERSION = 1

#: Bank-file design keys -> (Design field, scale to SI).
DESIGN_FIELD_MAP = {
    "kv_rpm_per_volt": ("kv", 1.0),
    "current_limit_a": ("current_limit_per_motor", 1.0),
    "battery_cells": ("battery_cells", 1.0),
    "battery_voltage_v": ("battery_voltage_nominal", 1.0),
    "battery_capacity_ah": ("battery_capacity", 1.0),
    "prop_diameter_in": ("prop_diameter", M_PER_IN),
    "prop_pitch_in": ("prop_pitch", M_PER_IN),
    "n_motors": ("n_motors", 1.0),
    "mtow_kg": ("mtow", 1.0),
    "thrust_coefficient_ct": ("thrust_coefficient_ct", 1.0),
    "footprint_m": ("footprint", 1.0),
}

_INT_DESIGN_FIELDS = {"battery_cells", "n_motors"}


class BankError(ValueError):
    """Bank file rejected; message carries the failing location."""

    def __init__(self, message: str, *, path: Optional[str] = None, line: Optional[int] = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class SampleError(ValueError):
    """Requested sample exceeds the matching population."""

    def __init__(self, requested: int, population: int):
        self.requested = requested
        self.population = population
        super().__init__(
            f"requested {requested} items but only {population} match the filter"
        )


class SampleMode(enum.Enum):
    Targeted = "Targeted"
    Stratified = "Stratified"
    Curriculum = "Curriculum"

    @classmethod
    def parse(cls, value) -> "SampleMode":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value.lower() == str(value).lower():
                return member
        raise ValueError(f"unknown sample mode: {value!r}")


def fields_to_si(raw: Mapping) -> dict:
    """Bank-file design keys and values -> Design field names and SI values.

    Raises KeyError naming the first unknown key before converting any
    value; a value that does not convert, or a fractional count, raises
    TypeError, ValueError or OverflowError.
    """
    unknown = [k for k in raw if k not in DESIGN_FIELD_MAP]
    if unknown:
        raise KeyError(unknown[0])
    si = {}
    for key, value in raw.items():
        target, scale = DESIGN_FIELD_MAP[key]
        si[target] = _as_count(key, value) if key in _INT_DESIGN_FIELDS else float(value) * scale
    return si


def design_from_bank(raw: Mapping, defaults: Optional[Mapping] = None) -> Design:
    """Build a Design from bank-file keys, completing from defaults."""
    merged: dict = dict(defaults or {})
    merged.update({k: v for k, v in raw.items() if v is not None})
    kwargs = fields_to_si(merged)
    required = (f.name for f in dataclasses.fields(Design) if f.default is dataclasses.MISSING)
    missing = [k for k in required if k not in kwargs]
    if missing:
        raise ValueError(f"design is missing required field(s): {', '.join(missing)}")
    return Design(**kwargs)


def design_to_bank(design: Design) -> dict:
    """Inverse of :func:`design_from_bank` (values back in bank units)."""
    out = {}
    for key, (target, scale) in DESIGN_FIELD_MAP.items():
        value = getattr(design, target)
        if value is not None:
            out[key] = value if scale == 1.0 else value / scale
    return out


def environment_from_bank(raw: Optional[Mapping]) -> Environment:
    raw = raw or {}
    return Environment(
        air_density=float(raw.get("air_density_kg_m3", propulsion.AIR_DENSITY_SEA_LEVEL)),
        gravity=float(raw.get("gravity_m_s2", propulsion.GRAVITY_DEFAULT)),
    )


# ---------------------------------------------------------------------------
# Ground answer specs


@dataclass(frozen=True)
class FactSpec:
    canonical: str
    accepted_aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class NumericSpec:
    value: float
    unit: str
    rel_tol: float

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 0.1):
            raise ValueError(f"Numeric rel_tol must be in (0, 0.1], got {self.rel_tol}")


@dataclass(frozen=True)
class FieldExpectation:
    name: str
    kind: str  # "number" | "text"
    expected: Any
    unit: Optional[str] = None
    rel_tol: float = 0.02
    aliases: tuple[str, ...] = ()
    match: str = "contains"  # "contains" | "exact" (text fields)


@dataclass(frozen=True)
class StructuredSpec:
    fields: tuple[FieldExpectation, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError("Structured spec needs at least one field")


@dataclass(frozen=True)
class DiagnosisSpec:
    accepted_causes: tuple[str, ...]
    vocabulary: Mapping[str, tuple[str, ...]]  # cause id -> keyword phrases

    def __post_init__(self):
        if not self.accepted_causes:
            raise ValueError("Diagnosis accepted_causes must be non-empty")
        for cause in self.accepted_causes:
            if cause not in self.vocabulary:
                raise ValueError(f"accepted cause {cause!r} missing from cause vocabulary")


@dataclass(frozen=True)
class FixSpec:
    base_design: Design
    environment: Environment
    requirements: RequirementSet
    failing_requirement_id: str
    patchable_fields: tuple[str, ...]
    reference_patch: Mapping[str, float]
    ct_overrides: Mapping[str, float] = field(default_factory=dict)
    loaded_rpm: Optional[float] = None

    def __post_init__(self):
        self.requirements.get(self.failing_requirement_id)  # must resolve
        for key in self.reference_patch:
            if key not in self.patchable_fields:
                raise ValueError(f"reference patch key {key!r} not in patchable fields")

    def judge(
        self, patched: Design
    ) -> tuple[bool, list[tuple[Requirement, RequirementCheck, RequirementCheck, str]]]:
        """Whether ``patched`` fixes the item, and each requirement with its
        check on the base design, its check on ``patched`` and an outcome.
        The failing requirement is "flipped", "still-failing" or
        "not-failing-before"; another is "regressed" when the patch breaks
        it, else "pass" or "fail".  The patch fixes the item when it flips
        the failing requirement and regresses none."""
        after = propulsion.evaluate_design(
            patched, self.environment, self.requirements, loaded_rpm=self.loaded_rpm
        )
        before = propulsion.evaluate_design(
            self.base_design, self.environment, self.requirements, loaded_rpm=self.loaded_rpm
        )
        rows = []
        for req in self.requirements:
            b, a = before.check(req.id), after.check(req.id)
            if req.id == self.failing_requirement_id:
                flipped = not b.passed and a.passed
                outcome = "flipped" if flipped else "still-failing" if not a.passed else "not-failing-before"
            elif b.passed and not a.passed:
                outcome = "regressed"
            else:
                outcome = "pass" if a.passed else "fail"
            rows.append((req, b, a, outcome))
        outcomes = [row[3] for row in rows]
        return "flipped" in outcomes and "regressed" not in outcomes, rows


@dataclass(frozen=True)
class DesignSynthesisSpec:
    requirements: RequirementSet
    grid_id: str
    grid: DesignGrid
    environment: Environment
    defaults: Mapping[str, Any]
    reference_design: Design
    mtow: float
    #: Requirement set that pins the grid's feasible set (the Pareto
    #: reference).  Fixed at authoring time so that grading-side
    #: requirement changes move the constraint fraction monotonically
    #: without shifting the reference front.
    reference_requirements: Optional[RequirementSet] = None

    def __post_init__(self):
        if self.reference_requirements is None:
            object.__setattr__(self, "reference_requirements", self.requirements)


@dataclass(frozen=True)
class RubricCriterion:
    key: str
    phrases: tuple[str, ...]

    def __post_init__(self):
        if not self.phrases:
            raise ValueError(f"rubric criterion {self.key!r} has no phrases")


@dataclass(frozen=True)
class RubricSpec:
    criteria: tuple[RubricCriterion, ...]
    pass_threshold: float

    def __post_init__(self):
        if not self.criteria:
            raise ValueError("Rubric needs at least one criterion")
        if not (0.0 < self.pass_threshold <= 1.0):
            raise ValueError(f"Rubric pass_threshold must be in (0, 1], got {self.pass_threshold}")


AnswerSpec = Union[
    FactSpec, NumericSpec, StructuredSpec, DiagnosisSpec, FixSpec, DesignSynthesisSpec, RubricSpec
]

ANSWER_KINDS = {
    FactSpec: "fact",
    NumericSpec: "numeric",
    StructuredSpec: "structured",
    DiagnosisSpec: "diagnosis",
    FixSpec: "fix",
    DesignSynthesisSpec: "design",
    RubricSpec: "rubric",
}


def answer_kind(spec: AnswerSpec) -> str:
    return ANSWER_KINDS[type(spec)]


# ---------------------------------------------------------------------------
# Templates and instances


@dataclass(frozen=True)
class DesignContext:
    summary: str
    design: Optional[Design]
    environment: Environment


@dataclass(frozen=True)
class QuestionTemplate:
    id: str
    level: CognitionLevel
    tags: TagSet
    pattern: str
    answer_raw: Mapping
    params: Mapping[str, Any] = field(default_factory=dict)
    context_ref: Optional[str] = None
    notes: str = ""


@dataclass(frozen=True)
class QuestionInstance:
    id: str
    level: CognitionLevel
    tags: TagSet
    prompt: str
    answer_spec: AnswerSpec
    provenance: Mapping[str, Any]

    @property
    def kind(self) -> str:
        return answer_kind(self.answer_spec)


@dataclass(frozen=True)
class QuestionBank:
    contexts: Mapping[str, DesignContext]
    grids: Mapping[str, DesignGrid]
    cause_vocabulary: Mapping[str, tuple[str, ...]]
    ct_overrides: Mapping[str, float]
    templates: tuple[QuestionTemplate, ...]
    #: Each template grounded once at load, keyed by template id.
    instances: Mapping[str, QuestionInstance]

    def template(self, template_id: str) -> QuestionTemplate:
        for t in self.templates:
            if t.id == template_id:
                return t
        raise KeyError(template_id)

    def __len__(self):
        return len(self.templates)


# Physics functions a numeric answer may reference, with their argument order.
_ORACLE_FUNCTIONS = {
    "no_load_rpm": (propulsion.no_load_rpm, ("kv", "voltage")),
    "torque_constant": (propulsion.torque_constant, ("kv",)),
    "max_torque": (propulsion.max_torque, ("kv", "current_limit")),
    "static_thrust": (propulsion.static_thrust, ("ct", "rho", "rpm", "diameter")),
    "calibrate_ct": (propulsion.calibrate_ct, ("thrust", "rho", "rpm", "diameter")),
    "thrust_scale_factor": (propulsion.thrust_scale_factor, ("d1", "d2")),
    "required_thrust_per_motor": (
        propulsion.required_thrust_per_motor,
        ("mtow", "n_motors", "gravity"),
    ),
    "ideal_hover_power": (
        propulsion.ideal_hover_power,
        ("total_thrust", "rho", "disk_area_total", "eta"),
    ),
    "hover_endurance": (propulsion.hover_endurance, ("capacity", "voltage", "eta_batt", "power")),
    "battery_nominal_voltage": (
        lambda cells: propulsion.CELL_VOLTAGE_NOMINAL * cells,
        ("cells",),
    ),
}


def _context_namespace(context: DesignContext) -> dict:
    ns: dict = {
        "rho": context.environment.air_density,
        "g": context.environment.gravity,
    }
    design = context.design
    if design is not None:
        ns.update(
            kv=design.kv,
            current_limit_a=design.current_limit_per_motor,
            cells=design.battery_cells,
            voltage_v=design.battery_voltage_nominal,
            capacity_ah=design.battery_capacity,
            diameter_in=design.prop_diameter / M_PER_IN,
            diameter_m=design.prop_diameter,
            pitch_in=design.prop_pitch / M_PER_IN,
            pitch_m=design.prop_pitch,
            n_motors=design.n_motors,
            mtow_kg=design.mtow,
            ct=design.thrust_coefficient_ct,
        )
    return ns


def _derive(ns: dict) -> None:
    if "kv" in ns and "voltage_v" in ns:
        ns.setdefault("no_load_rpm", ns["kv"] * ns["voltage_v"])
    if "mtow_kg" in ns and "n_motors" in ns:
        ns.setdefault(
            "required_thrust_n",
            propulsion.required_thrust_per_motor(
                ns["mtow_kg"], _as_count("n_motors", ns["n_motors"]), ns["g"]
            ),
        )
    if "diameter_m" in ns and "n_motors" in ns:
        n_motors = _as_count("n_motors", ns["n_motors"])
        ns.setdefault("disk_area_m2", propulsion.disk_area_total(ns["diameter_m"], n_motors))


def _namespace(template: QuestionTemplate, bank: QuestionBank) -> dict:
    ns: dict = {"rho": propulsion.AIR_DENSITY_SEA_LEVEL, "g": propulsion.GRAVITY_DEFAULT}
    if template.context_ref is not None:
        context = bank.contexts[template.context_ref]
        ns.update(_context_namespace(context))
        ns["context_summary"] = context.summary
    for key, value in template.params.items():
        ns[key] = value
        if isinstance(value, (int, float)) and key.endswith("_in"):
            ns[key[: -len("_in")] + "_m"] = float(value) * M_PER_IN
    _derive(ns)
    ns.setdefault("ct", CT_DEFAULT)
    return ns


def _resolve(value: Any, ns: Mapping) -> Any:
    """Resolve "$name" references against the binding namespace."""
    if isinstance(value, str) and value.startswith("$"):
        key = value[1:]
        if key not in ns:
            raise BankError(f"unbound reference ${key}")
        return ns[key]
    return value


def _fmt(value: Any) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


def _requirements_from_raw(raw_reqs: Sequence[Mapping], ns: Mapping) -> RequirementSet:
    reqs = (
        Requirement(
            id=str(raw["id"]),
            kind=RequirementKind(raw["kind"]),
            bound=float(_resolve(raw["bound"], ns)),
        )
        for raw in raw_reqs
    )
    return RequirementSet(tuple(reqs))


def _instantiate_answer(template: QuestionTemplate, bank: QuestionBank, ns: dict) -> AnswerSpec:
    raw = template.answer_raw
    kind = raw.get("kind")
    if kind == "fact":
        return FactSpec(
            canonical=str(raw["canonical"]),
            accepted_aliases=tuple(str(a) for a in raw.get("accepted_aliases", ())),
        )
    if kind == "numeric":
        oracle = raw["oracle"]
        fn, arg_names = _ORACLE_FUNCTIONS[oracle["fn"]]
        bindings = oracle.get("args", {})
        args = {name: float(_resolve(bindings[name], ns)) for name in arg_names if name in bindings}
        return NumericSpec(
            value=float(fn(**args)), unit=str(raw["unit"]), rel_tol=float(raw.get("rel_tol", 0.02))
        )
    if kind == "structured":
        fields = []
        for f in raw["fields"]:
            fields.append(
                FieldExpectation(
                    name=str(f["name"]),
                    kind=str(f.get("kind", "text")),
                    expected=_resolve(f["expected"], ns),
                    unit=f.get("unit"),
                    rel_tol=float(f.get("rel_tol", 0.02)),
                    aliases=tuple(str(a) for a in f.get("aliases", ())),
                    match=str(f.get("match", "contains")),
                )
            )
        return StructuredSpec(fields=tuple(fields))
    if kind == "diagnosis":
        accepted = tuple(str(c) for c in raw["accepted_causes"])
        vocabulary = {k: tuple(v) for k, v in bank.cause_vocabulary.items()}
        extra = raw.get("extra_causes", {})
        vocabulary.update({str(k): tuple(str(p) for p in v) for k, v in extra.items()})
        return DiagnosisSpec(accepted_causes=accepted, vocabulary=vocabulary)
    if kind == "fix":
        context = bank.contexts.get(template.context_ref or "")
        if context is None or context.design is None:
            raise BankError("fix answers need a context with a base design")
        patchable = tuple(raw.get("patchable_fields", tuple(DESIGN_FIELD_MAP)))
        for key in patchable:
            if key not in DESIGN_FIELD_MAP:
                raise BankError(f"unknown patchable field {key!r}")
        loaded_rpm = raw.get("loaded_rpm")
        return FixSpec(
            base_design=context.design,
            environment=context.environment,
            requirements=_requirements_from_raw(raw["requirements"], ns),
            failing_requirement_id=str(raw["failing_requirement"]),
            patchable_fields=patchable,
            reference_patch=dict(raw["reference_patch"]),
            ct_overrides=dict(bank.ct_overrides),
            loaded_rpm=None if loaded_rpm is None else float(_resolve(loaded_rpm, ns)),
        )
    if kind == "design":
        grid_id = str(raw["grid"])
        if grid_id not in bank.grids:
            raise BankError(f"unknown grid {grid_id!r}")
        requirements = _requirements_from_raw(raw["requirements"], ns)
        defaults = dict(raw.get("defaults", {}))
        mtow = raw.get("mtow_kg")
        mtow = float(_resolve(defaults["mtow_kg"] if mtow is None else mtow, ns))
        defaults.setdefault("mtow_kg", mtow)
        env_raw = raw.get("environment")
        if env_raw is not None:
            environment = environment_from_bank(env_raw)
        elif template.context_ref is not None:
            environment = bank.contexts[template.context_ref].environment
        else:
            environment = Environment()
        return DesignSynthesisSpec(
            requirements=requirements,
            grid_id=grid_id,
            grid=bank.grids[grid_id],
            environment=environment,
            defaults=defaults,
            reference_design=design_from_bank(raw["reference_design"], defaults),
            mtow=mtow,
        )
    if kind == "rubric":
        criteria = tuple(
            RubricCriterion(key=str(c["key"]), phrases=tuple(str(p) for p in c["phrases"]))
            for c in raw["criteria"]
        )
        return RubricSpec(criteria=criteria, pass_threshold=float(raw["pass_threshold"]))
    raise BankError(f"unknown answer kind {kind!r}")


def instantiate(template: QuestionTemplate, bank: QuestionBank) -> QuestionInstance:
    """Ground a template: render the prompt and compute the answer spec.

    Numeric ground truths are computed through the physics oracle here,
    never copied from the bank file.  A template that does not ground
    raises; :func:`load_bank` reports that as a ``BankError`` naming the
    template.
    """
    ns = _namespace(template, bank)
    prompt = template.pattern.format(**{k: _fmt(v) for k, v in ns.items()})
    spec = _instantiate_answer(template, bank, ns)
    provenance = {
        "template_id": template.id,
        "context": template.context_ref,
        "params": dict(template.params),
    }
    return QuestionInstance(
        id=template.id,
        level=template.level,
        tags=template.tags,
        prompt=prompt,
        answer_spec=spec,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Loading


def _line_of(raw_text: Optional[str], token: Any) -> Optional[int]:
    if raw_text is None or not token:
        return None
    needle = f'"{token}"'
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


#: What reading a malformed bank record raises; PhysicsDomainError is a ValueError.
_RECORD_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ArithmeticError)


def _check_reference(spec: AnswerSpec, checked_grids: set) -> None:
    """Reject an item whose own reference answer would not pass.

    A fix item's reference patch must flip the failing requirement and
    regress no other (two oracle calls).  A design item's reference design
    must meet every requirement (one call), and its grid must evaluate at
    its takeoff weight, so scoring cannot raise (``check_grid``, once per
    grid, weight and environment, tracked in ``checked_grids``).
    Membership of the reference front is not checked: that would evaluate
    the whole grid on every load.
    """
    if isinstance(spec, FixSpec):
        patched = propulsion.apply_patch(
            spec.base_design, fields_to_si(spec.reference_patch), spec.ct_overrides
        )
        fixed, rows = spec.judge(patched)
        if not fixed:
            outcomes = ", ".join(f"{req.id} {outcome}" for req, _, _, outcome in rows)
            raise BankError(f"reference patch does not fix the item ({outcomes})")
    elif isinstance(spec, DesignSynthesisSpec):
        key = (spec.grid_id, spec.mtow, spec.environment)
        if key not in checked_grids:
            check_grid(spec.grid, spec.mtow, spec.environment)
            checked_grids.add(key)
        report = propulsion.evaluate_design(spec.reference_design, spec.environment, spec.requirements)
        failing = [c.requirement_id for c in report.requirement_checks if not c.passed]
        if failing:
            raise BankError(f"reference design fails requirement(s) {', '.join(failing)}")


def load_bank(source: Union[str, Path, Mapping]) -> QuestionBank:
    """Parse and validate a bank document; reject the whole file on first error.

    ``source`` is the path of a UTF-8 JSON file or an already-parsed
    mapping.  Every template is instantiated here, once, into
    ``bank.instances``, so unknown tags, unbound placeholders, and oracle
    binding errors are caught at load time.  Every rejection is a
    ``BankError`` whose message names the failing record.
    """
    path: Optional[str] = None
    raw_text: Optional[str] = None
    if isinstance(source, Mapping):
        document = source
    else:
        path = str(source)
        try:
            raw_text = Path(source).read_text(encoding="utf-8")
            document = json.loads(raw_text)
        except json.JSONDecodeError as exc:
            raise BankError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
        except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, too deep
            raise BankError(f"cannot read bank file: {exc}", path=path) from None

    @contextmanager
    def record(where: str, token: Any = None):
        """The error boundary of one bank record: whatever reading it raises,
        a BankError from an explicit check included, becomes one BankError
        prefixed with the record and its line.  Boundaries do not nest, so
        the prefix appears once."""
        try:
            yield
        except _RECORD_ERRORS as exc:
            reason = f"missing or unknown key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise BankError(f"{where}: {reason}", path=path, line=_line_of(raw_text, token)) from None

    def section(key: str, kind: type):
        with record(key, key):
            return kind(document.get(key, kind()))

    if not isinstance(document, Mapping):
        raise BankError("bank document must be a JSON object", path=path)
    version = document.get("schema_version")
    if version is None:
        raise BankError("missing mandatory schema_version", path=path)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise BankError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})", path=path
        )

    contexts: dict[str, DesignContext] = {}
    for ctx_id, raw in section("contexts", dict).items():
        with record(f"context {ctx_id!r}", ctx_id):
            design = raw.get("design")
            contexts[ctx_id] = DesignContext(
                summary=str(raw.get("summary", "")),
                environment=environment_from_bank(raw.get("environment")),
                design=None if design is None else design_from_bank(design),
            )

    grids: dict[str, DesignGrid] = {}
    for grid_id, raw in section("grids", dict).items():
        with record(f"grid {grid_id!r}", grid_id):
            grids[grid_id] = grid_from_dict(raw)

    with record("cause_vocabulary", "cause_vocabulary"):
        vocabulary = {
            str(k): tuple(str(p) for p in v)
            for k, v in dict(document.get("cause_vocabulary", {})).items()
        }
    with record("ct_overrides", "ct_overrides"):
        ct_overrides = {str(k): float(v) for k, v in dict(document.get("ct_overrides", {})).items()}
        propulsion._require_positive(**{f"ct_overrides[{k!r}]": v for k, v in ct_overrides.items()})

    templates: list[QuestionTemplate] = []
    seen_ids: set[str] = set()
    for index, raw in enumerate(section("templates", list)):
        if not isinstance(raw, Mapping):
            raise BankError(f"templates[{index}]: must be a JSON object", path=path)
        tid = raw.get("id")
        with record(f"templates[{index}]" + (f" (id {tid!r})" if tid else ""), tid):
            if not tid:
                raise BankError("missing id")
            if tid in seen_ids:
                raise BankError("duplicate id")
            seen_ids.add(tid)
            if not isinstance(raw.get("answer"), Mapping):
                raise BankError("missing answer object")
            templates.append(
                QuestionTemplate(
                    id=str(tid),
                    level=CognitionLevel.parse(raw["level"]),
                    tags=TagSet.from_dict(raw["tags"]),
                    pattern=str(raw["pattern"]),
                    answer_raw=dict(raw["answer"]),
                    params=dict(raw.get("params", {})),
                    context_ref=raw.get("context"),
                    notes=str(raw.get("notes", "")),
                )
            )

    instances: dict[str, QuestionInstance] = {}
    bank = QuestionBank(
        contexts=contexts,
        grids=grids,
        cause_vocabulary=vocabulary,
        ct_overrides=ct_overrides,
        templates=tuple(templates),
        instances=instances,
    )

    # The whole file is rejected on the first template that fails to ground
    # or whose reference answer fails its own item.
    checked_grids: set = set()
    for template in bank.templates:
        with record(f"template {template.id!r}", template.id):
            instances[template.id] = instantiate(template, bank)
            _check_reference(instances[template.id].answer_spec, checked_grids)
    return bank


def shipped_bank_path() -> Path:
    """Path of the question bank distributed with the package."""
    return Path(__file__).parent / "data" / "bank.json"


def load_shipped_bank() -> QuestionBank:
    return load_bank(shipped_bank_path())


# ---------------------------------------------------------------------------
# Sampling


def _fisher_yates(items: list, rng: random.Random) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _stratified_quotas(levels: Sequence[int], populations: Mapping[int, int], n: int) -> dict:
    """Per-level quotas, as equal as possible: round after round, one item
    for each level that has items left, low levels first, until ``n`` are
    taken (the caller guarantees ``n`` fits the populations)."""
    quotas = dict.fromkeys(levels, 0)
    for _ in range(max(populations.values(), default=0)):
        for lvl in levels:
            if n and quotas[lvl] < populations[lvl]:
                quotas[lvl] += 1
                n -= 1
    return quotas


def sample(
    bank: QuestionBank,
    flt: TagFilter,
    n: int,
    mode: SampleMode | str,
    seed: int,
) -> list[QuestionInstance]:
    """Select ``n`` of the bank's instances matching the filter.

    Targeted: uniform without replacement, seeded.  Stratified: per-level
    quotas as equal as possible among matching levels, seeded within each
    level.  Curriculum: ascending level ordinal, ties broken by template
    id; the seed is unused.
    """
    mode = SampleMode.parse(mode)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    candidates = sorted(
        (i for i in bank.instances.values() if matches(i.tags, i.level, flt)), key=lambda i: i.id
    )
    if n > len(candidates):
        raise SampleError(n, len(candidates))

    if mode is SampleMode.Curriculum:
        return sorted(candidates, key=lambda i: (int(i.level), i.id))[:n]
    rng = random.Random(seed)
    if mode is SampleMode.Targeted:
        return _fisher_yates(candidates, rng)[:n]
    by_level: dict[int, list[QuestionInstance]] = {}
    for inst in candidates:
        by_level.setdefault(int(inst.level), []).append(inst)
    levels = sorted(by_level)
    quotas = _stratified_quotas(levels, {lvl: len(by_level[lvl]) for lvl in levels}, n)
    chosen = []
    for lvl in levels:
        chosen.extend(_fisher_yates(by_level[lvl], rng)[: quotas[lvl]])
    return chosen
