"""Question bank: loading, template instantiation, and sampling.

Bank files are UTF-8 JSON with a mandatory ``schema_version``.  All units
are explicit in field names (``prop_diameter_in``, ``mtow_kg``, ...); the
published schema lives in ``docs/bank-schema.md``.

Ground-truth numerics are never stored in the bank.  A numeric answer
declares which physics function produces it and how its arguments bind to
the question context; the value is computed at instantiation time so the
bank can never drift from the oracle.

Sampling is reproducible: selection uses a seeded Mersenne Twister
(``random.Random``) whose ``shuffle`` orders the id-sorted candidates,
so identical (bank, filter, n, mode, seed) inputs always give identical
output.
"""

from __future__ import annotations

import enum
import json
import math
import random
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union

from . import propulsion
from .design_space import BatteryOption, DesignGrid, ReferenceFront, reference_front, report_objectives
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
from .records import checked
from .taxonomy import _TAG_FIELDS, CognitionLevel, TagFilter, TagSet, _read, matches

SCHEMA_VERSION = 1

#: Bank-file design keys -> Design fields.
DESIGN_FIELD_MAP = {
    "kv_rpm_per_volt": "kv",
    "current_limit_a": "current_limit_per_motor",
    "battery_cells": "battery_cells",
    "battery_voltage_v": "battery_voltage_nominal",
    "battery_capacity_ah": "battery_capacity",
    "prop_diameter_in": "prop_diameter",
    "prop_pitch_in": "prop_pitch",
    "n_motors": "n_motors",
    "mtow_kg": "mtow",
    "thrust_coefficient_ct": "thrust_coefficient_ct",
    "footprint_m": "footprint",
}
#: Bank-file grid axis keys -> DesignGrid axes (battery options aside).
GRID_FIELD_MAP = {"kv_rpm_per_volt": "kv_values", "prop_diameter_in": "prop_diameters",
                 "prop_pitch_in": "prop_pitches", "n_motors": "n_motors_options"}
#: Bank-file battery-option and environment keys -> BatteryOption and Environment fields.
BATTERY_FIELD_MAP = {"cells": "cells", "voltage_v": "voltage", "capacity_ah": "capacity"}
ENVIRONMENT_FIELD_MAP = {"air_density_kg_m3": "air_density", "gravity_m_s2": "gravity"}

_COUNT_KEYS = frozenset(("battery_cells", "n_motors", "cells"))
#: What phrase matching ignores (``scoring.normalize_phrase`` strips it): whitespace and ``_{}$\\``.
_PHRASE_BLANKS = re.compile(r"[\s_{}$\\]")


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


def to_si(key: str, value) -> float:
    """One bank-file value in SI, a JSON number by :func:`_typed`: a ``*_in`` length at exactly 0.0254 m/in, a
    count (``battery_cells``, ``n_motors``, a battery's ``cells``) as an int, never truncated, else a float."""
    _typed(key, value, _NUMBER)
    if key in _COUNT_KEYS:
        return _as_count(key, value)
    return float(value) * M_PER_IN if key.endswith("_in") else float(value)


def _reject_unknown(raw: Any, keys) -> None:
    """Raise TypeError if ``raw`` is not a JSON object, and KeyError naming its first key ``keys`` lacks."""
    if type(raw) is not dict:
        raise TypeError(f"a record must be a JSON object, got {raw!r}")
    if not raw.keys() <= keys:
        raise KeyError(next(k for k in raw if k not in keys))


#: JSON types of a record table's values; ``_NAME`` in a tuple also admits a "$name" string.
_NAME, _NULL = "$name", type(None)
_TEXT, _NUMBER, _NUMBER_OR_NAME, _LIST, _OBJECT = (str,), (int, float), (int, float, _NAME), (list,), (dict,)
_PHRASES = (list, str)  # a phrase list, or one bare phrase
_ANY = (str, int, float, bool, list, dict, _NULL)
_JSON_NAMES = {str: "a string", int: "a number", float: "a number", bool: "a bool", list: "a list",
               dict: "an object", _NULL: "null", _NAME: "a $name"}
_REQUIRED = object()


def _typed(key: str, value: Any, types: tuple) -> Any:
    """The one JSON-type test: ``value``, of ``key`` in a bank record or an answer, if of one of ``types`` (a
    bool is never a number; ``_NAME`` admits a "$name"), else TypeError naming the key, KeyError if _REQUIRED."""
    if type(value) not in types and not (_NAME in types and type(value) is str and value[:1] == "$"):
        if value is _REQUIRED:
            raise KeyError(key)
        names = " or ".join(dict.fromkeys(_JSON_NAMES[t] for t in types))
        raise TypeError(f"key {key!r} must be {names}, got {value!r}")
    return value


def _read_keys(raw: Any, table: Mapping[str, tuple]) -> dict:
    """One bank record by its table, ``{key: (JSON types, default or _REQUIRED)}``: every key
    of the table, read by :func:`_typed`, with its default for each absent optional one.  A key
    the table lacks raises KeyError, and a record that is not a JSON object TypeError."""
    _reject_unknown(raw, table.keys())
    return {key: _typed(key, raw.get(key, default), types) for key, (types, default) in table.items()}


def fields_to_si(raw: Mapping, fields: Mapping[str, str] = DESIGN_FIELD_MAP) -> dict:
    """Bank-file keys and values -> the attribute names ``fields`` maps them to (a design's by
    default): the record read as :func:`_reject_unknown` reads it, then each value by :func:`to_si`."""
    _reject_unknown(raw, fields.keys())
    return {fields[key]: to_si(key, value) for key, value in raw.items()}


def design_from_bank(raw: Mapping, defaults: Optional[Mapping] = None) -> Design:
    """Build a Design from bank-file keys over ``defaults``, each record read by :func:`fields_to_si`."""
    kwargs = {**fields_to_si(defaults or {}), **fields_to_si(raw)}
    missing = [k for k in Design._fields if k not in Design._field_defaults and k not in kwargs]
    if missing:
        raise ValueError(f"design is missing required field(s): {', '.join(missing)}")
    return Design(**kwargs)


#: The design keys an L5 answer chooses: the axes of a design grid.
GRID_AXIS_KEYS = frozenset(("kv_rpm_per_volt", "prop_diameter_in", "prop_pitch_in", "battery_cells",
                            "battery_voltage_v", "battery_capacity_ah", "n_motors"))


def grid_design_from_bank(raw: Mapping, defaults: Mapping, grid: DesignGrid) -> Design:
    """The design an L5 answer names: its grid-axis keys over the item's
    ``defaults``, with the Ct ``grid`` gives its propeller.  Any other
    design key it sets is ignored, so it cannot change what the item fixes,
    but an unknown key or a malformed value raises as in :func:`fields_to_si`."""
    fields_to_si(raw)
    design = design_from_bank({k: v for k, v in raw.items() if k in GRID_AXIS_KEYS}, defaults)
    ct = grid.ct_overrides.get((design.prop_diameter, design.prop_pitch), CT_DEFAULT)
    return design._replace(thrust_coefficient_ct=ct)


def design_to_bank(design: Design) -> dict:
    """Inverse of :func:`design_from_bank` (values back in bank units)."""
    out = {}
    for key, target in DESIGN_FIELD_MAP.items():
        value = getattr(design, target)
        if value is not None:
            out[key] = value / M_PER_IN if key.endswith("_in") else value
    return out


def environment_from_bank(raw: Optional[Mapping]) -> Environment:
    return Environment(**fields_to_si(raw or {}, ENVIRONMENT_FIELD_MAP))


#: A grid record's table: each axis, and the battery options, a list.
_GRID = {**dict.fromkeys([*GRID_FIELD_MAP, "battery_options"], (_LIST, _REQUIRED)), "ct_overrides": (_OBJECT, {}),
         "current_limit_a": (_NUMBER, DesignGrid._field_defaults["current_limit_per_motor"])}


def grid_from_bank(raw: Mapping) -> DesignGrid:
    """Build a grid from its bank-file record, read through ``_GRID``; its
    ``ct_overrides`` name the grid's propellers (:func:`ct_overrides_from_bank`)."""
    grid = _read_keys(raw, _GRID)
    axes = {axis: tuple(to_si(key, v) for v in grid[key]) for key, axis in GRID_FIELD_MAP.items()}
    propellers = {(d, p) for d in axes["prop_diameters"] for p in axes["prop_pitches"]}
    batteries = tuple(BatteryOption(**fields_to_si(b, BATTERY_FIELD_MAP)) for b in grid["battery_options"])
    limit = to_si("current_limit_a", grid["current_limit_a"])
    return DesignGrid(**axes, battery_options=batteries, current_limit_per_motor=limit,
                      ct_overrides=ct_overrides_from_bank(grid["ct_overrides"], propellers))


def ct_overrides_from_bank(raw: Mapping, propellers: Optional[set] = None) -> dict:
    """Ct overrides keyed by propeller geometry, ``{(diameter_m, pitch_m): Ct}``:
    each Ct and both halves of its "<diameter>x<pitch>" key, in inches, go through :func:`to_si`,
    so "18x6", "18.0x6" and "18 x 6" name one propeller.  Raises ValueError, naming the key as
    written, for a length or Ct that is not positive and finite, a second key of one propeller,
    or a key naming none of a grid's ``propellers``."""
    table, written = {}, {}  # per propeller: its Ct, and its key as written
    for key, value in raw.items():
        diameter, _, pitch = key.partition("x")
        prop = (to_si("prop_diameter_in", float(diameter)), to_si("prop_pitch_in", float(pitch)))
        ct = to_si(key, value)
        where = f"ct_overrides[{key!r}]"
        propulsion._require_positive(**{f"{where} diameter": prop[0], f"{where} pitch": prop[1], where: ct})
        if prop in written:
            raise ValueError(f"{where} names the propeller of ct_overrides[{written[prop]!r}]")
        if propellers is not None and prop not in propellers:
            raise ValueError(f"{where} names no propeller of the grid")
        written[prop], table[prop] = key, ct
    return table


# ---------------------------------------------------------------------------
# Ground answer specs


def _check_phrases(where: str, phrases: Sequence[str]) -> None:
    """Reject a phrase that is not a JSON string, and one of only ``_PHRASE_BLANKS``: it names nothing."""
    for phrase in phrases:
        if not isinstance(phrase, str):
            raise ValueError(f"{where}: phrase {phrase!r} is not a string")
        if not _PHRASE_BLANKS.sub("", phrase):
            raise ValueError(f"{where}: blank phrase {phrase!r} would match any answer")


def _check_rel_tol(where: str, rel_tol: float) -> None:
    if not (0.0 < rel_tol <= 0.1):
        raise ValueError(f"{where} rel_tol must be in (0, 0.1], got {rel_tol}")


def _check_number(where: str, value: Any) -> None:
    """A JSON number with a finite float value: an int or float, not a bool, NaN or infinity."""
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{where} must be a finite number, got {value!r}")


@checked
class FactSpec(NamedTuple):
    canonical: str
    accepted_aliases: tuple[str, ...] = ()

    def _check(self):
        _check_phrases("fact", (self.canonical, *self.accepted_aliases))


@checked
class NumericSpec(NamedTuple):
    value: float
    unit: str
    rel_tol: float

    def _check(self):
        _check_rel_tol("Numeric", self.rel_tol)
        if not math.isfinite(self.value):  # an overflowed oracle: no answer is within tolerance of it
            raise ValueError(f"Numeric value must be finite, got {self.value}")


@checked
class FieldExpectation(NamedTuple):
    name: str
    kind: str  # "number" | "text"
    expected: Any
    unit: Optional[str] = None
    rel_tol: float = 0.02
    aliases: tuple[str, ...] = ()

    def _check(self):
        if self.kind not in ("number", "text"):
            raise ValueError(f"field {self.name!r}: kind must be 'number' or 'text', got {self.kind!r}")
        _check_rel_tol(f"field {self.name!r}", self.rel_tol)
        if self.kind == "number":
            _check_number(f"field {self.name!r}: expected", self.expected)
        if self.kind == "text":
            if not (isinstance(self.expected, str) or type(self.expected) in (int, float)):
                raise ValueError(f"field {self.name!r}: expected {self.expected!r} is not a string or a number")
            _check_phrases(f"field {self.name!r}", (str(self.expected), *self.aliases))


@checked
class StructuredSpec(NamedTuple):
    fields: tuple[FieldExpectation, ...]

    def _check(self):
        if not self.fields:
            raise ValueError("Structured spec needs at least one field")


@checked
class DiagnosisSpec(NamedTuple):
    accepted_causes: tuple[str, ...]
    vocabulary: Mapping[str, tuple[str, ...]]  # cause id -> keyword phrases

    def _check(self):
        if not self.accepted_causes:
            raise ValueError("Diagnosis accepted_causes must be non-empty")
        for cause in self.accepted_causes:
            if not isinstance(cause, str) or cause not in self.vocabulary:
                raise ValueError(f"accepted cause {cause!r} missing from cause vocabulary")
        for cause, phrases in self.vocabulary.items():
            _check_phrases(f"cause {cause!r}", phrases)


@checked
class FixSpec(NamedTuple):
    base_design: Design
    environment: Environment
    requirements: RequirementSet
    failing_requirement_id: str
    patchable_fields: tuple[str, ...]
    reference_patch: Mapping[str, float]
    ct_overrides: Mapping[tuple[float, float], float] = MappingProxyType({})
    loaded_rpm: Optional[float] = None

    def _check(self):
        """Patchable fields are design fields, and the reference patch sets only
        them, each to a finite JSON number, and fixes the item: it flips the failing
        requirement and regresses no other (two oracle calls, however the spec is built)."""
        for key in self.patchable_fields:
            if key not in DESIGN_FIELD_MAP:
                raise ValueError(f"unknown patchable field {key!r}")
        if self.failing_requirement_id not in [req.id for req in self.requirements]:
            raise KeyError(self.failing_requirement_id)
        for key, value in self.reference_patch.items():
            if key not in self.patchable_fields:
                raise ValueError(f"reference patch key {key!r} not in patchable fields")
            _check_number(f"reference patch value {key!r}", value)
        fixed, rows = self.judge(self.reference_patch)
        if not fixed:
            outcomes = ", ".join(f"{req.id} {outcome}" for req, _, _, outcome in rows)
            raise ValueError(f"reference patch does not fix the item ({outcomes})")

    def judge(
        self, patch: Mapping[str, Any]
    ) -> tuple[bool, list[tuple[Requirement, RequirementCheck, RequirementCheck, str]]]:
        """Whether ``patch``, in bank-file keys and units, fixes the item, and each requirement
        with its checks on the base and the patched design, paired by position (an oracle
        report holds one check per requirement, in order), and an outcome.  The patch is read by
        :func:`fields_to_si` and raises as it and the oracle do.  A patch that sets Ct keeps it; else
        a patch that moves to another propeller takes its ``ct_overrides`` entry, else the base design's Ct.
        The failing requirement is "flipped", "still-failing" or "not-failing-before"; another
        is "regressed" when the patch breaks it, else "pass" or "fail".  The patch fixes the
        item when it flips the failing requirement and regresses none."""
        fields, base = fields_to_si(patch), self.base_design
        prop = (fields.get("prop_diameter", base.prop_diameter), fields.get("prop_pitch", base.prop_pitch))
        overrides = self.ct_overrides if prop != (base.prop_diameter, base.prop_pitch) else {}
        ct = overrides.get(prop, base.thrust_coefficient_ct)
        patched = base._replace(**{"thrust_coefficient_ct": ct, **fields})
        before, after = (
            propulsion.evaluate_design(design, self.environment, self.requirements, loaded_rpm=self.loaded_rpm)
            for design in (base, patched)
        )
        rows = []
        for req, b, a in zip(self.requirements, before.requirement_checks, after.requirement_checks):
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


@checked
class DesignSynthesisSpec(NamedTuple):
    requirements: RequirementSet
    grid_id: str
    grid: DesignGrid
    environment: Environment
    defaults: Mapping[str, Any]
    reference_design: Design
    mtow: float
    front: ReferenceFront  # grounded by instantiate, as a numeric item's value is

    def _check(self):
        """The reference design must weigh ``mtow``, meet every requirement (one
        oracle call) and be a grid point, and no requirement may bound the
        footprint (grid designs declare none), so its grid point is feasible and
        the front never empty.  The walk that grounded the front checked the grid
        at its takeoff weight, unless a cell-count, weight or footprint bound left
        nothing to walk, a bound the reference design then fails here.  Membership
        of the front is not checked yet: the bench's ``design-grid`` generator
        loads dense grids with the shipped references, which their fronts
        dominate, and sets front points only after that load."""
        design, grid = self.reference_design, self.grid
        if design.mtow != self.mtow:
            raise ValueError(f"defaults.mtow_kg {design.mtow:g} differs from the item's mtow_kg {self.mtow:g}")
        if any(r.kind is RequirementKind.FootprintMax for r in self.requirements):
            raise ValueError("a design item cannot bound FootprintMax: grid designs declare no footprint")
        report = propulsion.evaluate_design(design, self.environment, self.requirements)
        failing = [c.requirement_id for c in report.requirement_checks if not c.passed]
        if failing:
            raise ValueError(f"reference design fails requirement(s) {', '.join(failing)}")
        battery = BatteryOption(design.battery_cells, design.battery_voltage_nominal, design.battery_capacity)
        point = (design.kv, design.prop_diameter, design.prop_pitch, battery, design.n_motors)
        off = [name for name, value in zip(grid.AXES, point) if value not in getattr(grid, name)]
        if off:
            raise ValueError(f"reference design is not a point of grid {self.grid_id!r}: off {', '.join(off)}")

    def judge(self, raw: Mapping[str, Any]) -> tuple[propulsion.PerformanceReport, float]:
        """The oracle report of the design ``raw`` names, in bank-file keys and units, and its
        dominance gap to ``self.front``.  The design is read by :func:`grid_design_from_bank`,
        and raises as it and the oracle do."""
        design = grid_design_from_bank(raw, self.defaults, self.grid)
        report = propulsion.evaluate_design(design, self.environment, self.requirements)
        return report, self.front.gap(report_objectives(report))


@checked
class RubricCriterion(NamedTuple):
    key: str
    phrases: tuple[str, ...]

    def _check(self):
        if not self.phrases:
            raise ValueError(f"rubric criterion {self.key!r} has no phrases")
        _check_phrases(f"rubric criterion {self.key!r}", self.phrases)


@checked
class RubricSpec(NamedTuple):
    criteria: tuple[RubricCriterion, ...]
    pass_threshold: float

    def _check(self):
        if not self.criteria:
            raise ValueError("Rubric needs at least one criterion")
        if not (0.0 < self.pass_threshold <= 1.0):
            raise ValueError(f"Rubric pass_threshold must be in (0, 1], got {self.pass_threshold}")


AnswerSpec = Union[
    FactSpec, NumericSpec, StructuredSpec, DiagnosisSpec, FixSpec, DesignSynthesisSpec, RubricSpec
]


def answer_kind(spec: AnswerSpec) -> str:
    return ANSWER_KINDS[type(spec)]


# ---------------------------------------------------------------------------
# Templates and instances


class DesignContext(NamedTuple):
    summary: str
    design: Optional[Design]
    environment: Environment


class QuestionTemplate(NamedTuple):
    id: str
    level: CognitionLevel
    tags: TagSet
    pattern: str
    answer_raw: Mapping
    params: Mapping[str, Any] = MappingProxyType({})
    context_ref: Optional[str] = None


class QuestionInstance(NamedTuple):
    id: str
    level: CognitionLevel
    tags: TagSet
    prompt: str
    answer_spec: AnswerSpec
    provenance: Mapping[str, Any]

    @property
    def kind(self) -> str:
        return answer_kind(self.answer_spec)


class QuestionBank(NamedTuple):
    contexts: Mapping[str, DesignContext]
    grids: Mapping[str, DesignGrid]
    cause_vocabulary: Mapping[str, tuple[str, ...]]
    ct_overrides: Mapping[tuple[float, float], float]  # Ct by (diameter_m, pitch_m)
    templates: tuple[QuestionTemplate, ...]
    #: Each template grounded once at load, keyed by template id.
    instances: Mapping[str, QuestionInstance]


# Physics functions a numeric answer may reference; its ``args`` bind their parameters by name.
_ORACLE_FUNCTIONS = {
    **{fn.__name__: fn for fn in (
        propulsion.no_load_rpm, propulsion.torque_constant, propulsion.max_torque, propulsion.static_thrust,
        propulsion.calibrate_ct, propulsion.thrust_scale_factor, propulsion.required_thrust_per_motor,
        propulsion.ideal_hover_power, propulsion.hover_endurance,
    )},
    "battery_nominal_voltage": lambda cells: propulsion.CELL_VOLTAGE_NOMINAL * cells,
}


def _derive(ns: dict) -> None:
    """Add the values derived from others of the namespace, reading each input by :func:`to_si`."""
    number = lambda key: to_si(key, ns[key])
    if "kv" in ns and "voltage_v" in ns:
        ns.setdefault("no_load_rpm", propulsion.no_load_rpm(number("kv"), number("voltage_v")))
    if "mtow_kg" in ns and "n_motors" in ns:
        args = (number("mtow_kg"), number("n_motors"), number("g"))
        ns.setdefault("required_thrust_n", propulsion.required_thrust_per_motor(*args))
    if "diameter_m" in ns and "n_motors" in ns:
        ns.setdefault("disk_area_m2", propulsion.disk_area_total(number("diameter_m"), number("n_motors")))


def _namespace(template: QuestionTemplate, bank: QuestionBank) -> dict:
    ns: dict = {"rho": propulsion.AIR_DENSITY_SEA_LEVEL, "g": propulsion.GRAVITY_DEFAULT}
    if template.context_ref is not None:
        context = bank.contexts[template.context_ref]
        ns.update(rho=context.environment.air_density, g=context.environment.gravity,
                  context_summary=context.summary)
        if (design := context.design) is not None:
            bank_units = design_to_bank(design)
            ns.update(
                kv=design.kv,
                current_limit_a=design.current_limit_per_motor,
                cells=design.battery_cells,
                voltage_v=design.battery_voltage_nominal,
                capacity_ah=design.battery_capacity,
                diameter_in=bank_units["prop_diameter_in"],
                diameter_m=design.prop_diameter,
                pitch_in=bank_units["prop_pitch_in"],
                pitch_m=design.prop_pitch,
                n_motors=design.n_motors,
                mtow_kg=design.mtow,
                ct=design.thrust_coefficient_ct,
            )
    for key, value in template.params.items():
        ns[key] = value
        if key.endswith("_in"):
            ns[key[: -len("_in")] + "_m"] = to_si(key, value)
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


class _Prompt(dict):
    """A namespace as ``str.format_map`` reads it: each placeholder a pattern names, a float by ``g``."""

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        return f"{value:g}" if isinstance(value, float) else value


#: The tables of the records an answer holds.
_REQUIREMENT = {"id": (_TEXT, _REQUIRED), "kind": (_TEXT, _REQUIRED), "bound": (_NUMBER_OR_NAME, _REQUIRED)}
_ORACLE = {"fn": (_TEXT, _REQUIRED), "args": (_OBJECT, {})}
_FIELD = {"name": (_TEXT, _REQUIRED), "kind": (_TEXT, "text"), "expected": (_ANY, _REQUIRED),
          "unit": ((str, _NULL), None), "rel_tol": (_NUMBER, 0.02), "aliases": (_PHRASES, [])}
_CRITERION = {"key": (_TEXT, _REQUIRED), "phrases": (_PHRASES, _REQUIRED)}


def _requirements(raws: Sequence, ns: Mapping) -> RequirementSet:
    return RequirementSet(
        Requirement(r["id"], RequirementKind(r["kind"]), to_si("bound", _resolve(r["bound"], ns)))
        for r in (_read_keys(raw, _REQUIREMENT) for raw in raws)
    )


def _numeric(a: dict, ns: dict, *_) -> NumericSpec:
    oracle = _read_keys(a["oracle"], _ORACLE)
    args = {name: to_si(name, _resolve(value, ns)) for name, value in oracle["args"].items()}
    return NumericSpec(float(_ORACLE_FUNCTIONS[oracle["fn"]](**args)), a["unit"], a["rel_tol"])


def _structured(a: dict, ns: dict, *_) -> StructuredSpec:
    return StructuredSpec(tuple(
        FieldExpectation(**{**f, "expected": _resolve(f["expected"], ns), "aliases": _read(f["aliases"])})
        for f in (_read_keys(raw, _FIELD) for raw in a["fields"])
    ))


def _fix(a: dict, ns: dict, template: QuestionTemplate, bank: QuestionBank, _) -> FixSpec:
    context = bank.contexts.get(template.context_ref)
    if context is None or context.design is None:
        raise BankError("fix answers need a context with a base design")
    loaded_rpm = None if a["loaded_rpm"] is None else to_si("loaded_rpm", _resolve(a["loaded_rpm"], ns))
    return FixSpec(context.design, context.environment, _requirements(a["requirements"], ns),
                   a["failing_requirement"], _read(a["patchable_fields"]), a["reference_patch"],
                   bank.ct_overrides, loaded_rpm)


def _design(a: dict, ns: dict, template: QuestionTemplate, bank: QuestionBank,
            fronts: dict) -> DesignSynthesisSpec:
    """A design item's takeoff weight is its ``mtow_kg``; its environment is its own, else its context's."""
    grid_id = a["grid"]
    if grid_id not in bank.grids:
        raise BankError(f"unknown grid {grid_id!r}")
    requirements, mtow = _requirements(a["requirements"], ns), to_si("mtow_kg", _resolve(a["mtow_kg"], ns))
    defaults = {**a["defaults"], "mtow_kg": a["defaults"].get("mtow_kg", mtow)}
    if a["environment"] is None and template.context_ref is not None:
        environment = bank.contexts[template.context_ref].environment
    else:
        environment = environment_from_bank(a["environment"])
    grid, key = bank.grids[grid_id], (grid_id, mtow, environment, requirements)
    reference_design = grid_design_from_bank(a["reference_design"], defaults, grid)
    if key not in fronts:
        fronts[key] = reference_front(grid, mtow, environment, requirements)
    return DesignSynthesisSpec(requirements, grid_id, grid, environment, defaults, reference_design, mtow,
                               fronts[key])


def _rubric(a: dict, *_) -> RubricSpec:
    criteria = (_read_keys(raw, _CRITERION) for raw in a["criteria"])
    return RubricSpec(tuple(RubricCriterion(c["key"], _read(c["phrases"])) for c in criteria), a["pass_threshold"])


class _AnswerKind(NamedTuple):
    spec: type
    keys: Mapping[str, tuple]  # the answer record's table
    build: Callable[..., AnswerSpec]  # (the answer read by ``keys``, namespace, template, bank, fronts) -> spec


_KIND = {"kind": (_TEXT, _REQUIRED)}
#: One row per answer kind, keyed by its ``kind``.
_ANSWERS = {
    "fact": _AnswerKind(FactSpec, {**_KIND, "canonical": (_TEXT, _REQUIRED), "accepted_aliases": (_PHRASES, [])},
                        lambda a, *_: FactSpec(a["canonical"], _read(a["accepted_aliases"]))),
    "numeric": _AnswerKind(NumericSpec, {**_KIND, "unit": (_TEXT, _REQUIRED), "rel_tol": (_NUMBER, 0.02),
                                         "oracle": (_OBJECT, _REQUIRED)}, _numeric),
    "structured": _AnswerKind(StructuredSpec, {**_KIND, "fields": (_LIST, _REQUIRED)}, _structured),
    "diagnosis": _AnswerKind(
        DiagnosisSpec, {**_KIND, "accepted_causes": (_PHRASES, _REQUIRED)},
        lambda a, ns, template, bank, _: DiagnosisSpec(_read(a["accepted_causes"]), bank.cause_vocabulary)),
    "fix": _AnswerKind(FixSpec, {
        **_KIND, "requirements": (_LIST, _REQUIRED), "failing_requirement": (_TEXT, _REQUIRED),
        "loaded_rpm": ((int, float, _NAME, _NULL), None), "patchable_fields": (_PHRASES, list(DESIGN_FIELD_MAP)),
        "reference_patch": (_OBJECT, _REQUIRED)}, _fix),
    "design": _AnswerKind(DesignSynthesisSpec, {
        **_KIND, "grid": (_TEXT, _REQUIRED), "mtow_kg": (_NUMBER_OR_NAME, _REQUIRED),
        "requirements": (_LIST, _REQUIRED), "environment": ((dict, _NULL), None), "defaults": (_OBJECT, {}),
        "reference_design": (_OBJECT, _REQUIRED)}, _design),
    "rubric": _AnswerKind(RubricSpec, {
        **_KIND, "criteria": (_LIST, _REQUIRED), "pass_threshold": (_NUMBER, _REQUIRED)}, _rubric),
}
ANSWER_KINDS = {row.spec: kind for kind, row in _ANSWERS.items()}


def _instantiate_answer(template: QuestionTemplate, bank: QuestionBank, ns: dict, fronts: dict) -> AnswerSpec:
    kind = template.answer_raw.get("kind")
    if not (type(kind) is str and kind in _ANSWERS):
        raise BankError(f"unknown answer kind {kind!r}")
    row = _ANSWERS[kind]
    return row.build(_read_keys(template.answer_raw, row.keys), ns, template, bank, fronts)


def instantiate(template: QuestionTemplate, bank: QuestionBank, fronts: Optional[dict] = None) -> QuestionInstance:
    """Ground a template: render the prompt and compute the answer spec.

    Ground truths are computed through the physics oracle here, never
    copied from the bank file; a design item's reference front is walked
    once per (grid id, mtow, environment, requirements) key ``fronts``
    lacks.  A template that does not ground raises, a spec failing its own
    check included: as it is built, a fix or design spec checks that its
    reference answer passes its item, and a numeric spec that its value is
    finite.  :func:`load_bank` reports either as a ``BankError`` naming the
    template.
    """
    ns = _namespace(template, bank)
    prompt = template.pattern.format_map(_Prompt(ns))
    spec = _instantiate_answer(template, bank, ns, {} if fronts is None else fronts)
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


#: The tables of the records ``load_bank`` reads; a template's ``notes`` may be of any type.
_DOCUMENT = {"schema_version": (_NUMBER, _REQUIRED), "contexts": (_OBJECT, {}), "grids": (_OBJECT, {}),
             "ct_overrides": (_OBJECT, {}), "cause_vocabulary": (_OBJECT, {}), "templates": (_LIST, [])}
_CONTEXT = {"summary": (_TEXT, ""), "design": ((dict, _NULL), None), "environment": ((dict, _NULL), None)}
_TEMPLATE = {"id": (_TEXT, _REQUIRED), "level": ((str, int), _REQUIRED), "tags": (_OBJECT, _REQUIRED),
             "pattern": (_TEXT, _REQUIRED), "answer": (_OBJECT, _REQUIRED), "params": (_OBJECT, {}),
             "context": ((str, _NULL), None), "notes": (_ANY, None)}
_TAGS = {f.key: (_ANY, [] if f.key in TagSet._field_defaults else _REQUIRED) for f in _TAG_FIELDS}

#: What reading a malformed bank record raises; PhysicsDomainError is a ValueError.
_RECORD_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ArithmeticError)


def load_bank(source: Union[str, Path, Mapping]) -> QuestionBank:
    """Parse and validate a bank document; reject the whole file on first error.

    ``source`` is the path of a UTF-8 JSON file or a document already
    parsed by ``json.loads``.  Every template is instantiated here, once, into
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

    with record("bank document"):
        doc = _read_keys(document, _DOCUMENT)
    version = doc["schema_version"]
    if version != SCHEMA_VERSION:
        raise BankError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})", path=path)

    contexts: dict[str, DesignContext] = {}
    for ctx_id, raw in doc["contexts"].items():
        with record(f"context {ctx_id!r}", ctx_id):
            context = _read_keys(raw, _CONTEXT)
            design = None if context["design"] is None else design_from_bank(context["design"])
            environment = environment_from_bank(context["environment"])
            contexts[ctx_id] = DesignContext(context["summary"], design, environment)

    grids: dict[str, DesignGrid] = {}
    for grid_id, raw in doc["grids"].items():
        with record(f"grid {grid_id!r}", grid_id):
            grids[grid_id] = grid_from_bank(raw)

    vocabulary = {cause: _read(phrases) for cause, phrases in doc["cause_vocabulary"].items()}
    with record("ct_overrides", "ct_overrides"):
        ct_overrides = ct_overrides_from_bank(doc["ct_overrides"])

    templates: list[QuestionTemplate] = []
    seen_ids: set[str] = set()
    for index, raw in enumerate(doc["templates"]):
        tid = raw.get("id") if type(raw) is dict else None
        with record(f"templates[{index}]" + (f" (id {tid!r})" if tid else ""), tid):
            template = _read_keys(raw, _TEMPLATE)
            if not tid:
                raise BankError("missing id")
            if tid in seen_ids:
                raise BankError("duplicate id")
            seen_ids.add(tid)
            level = CognitionLevel.parse(template["level"])
            tags = TagSet.from_dict(_read_keys(template["tags"], _TAGS))
            templates.append(QuestionTemplate(tid, level, tags, template["pattern"], template["answer"],
                                              template["params"], template["context"]))

    instances: dict[str, QuestionInstance] = {}
    bank = QuestionBank(
        contexts=contexts,
        grids=grids,
        cause_vocabulary=vocabulary,
        ct_overrides=ct_overrides,
        templates=tuple(templates),
        instances=instances,
    )

    # The whole file is rejected on the first template that fails to ground,
    # a reference answer that fails its own item included.
    fronts: dict = {}  # each design item's reference front, walked once per key
    for template in bank.templates:
        with record(f"template {template.id!r}", template.id):
            instances[template.id] = instantiate(template, bank, fronts)
    return bank


def shipped_bank_path() -> Path:
    """Path of the question bank distributed with the package."""
    return Path(__file__).parent / "data" / "bank.json"


def load_shipped_bank() -> QuestionBank:
    return load_bank(shipped_bank_path())


# ---------------------------------------------------------------------------
# Sampling


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
        rng.shuffle(candidates)
        return candidates[:n]
    by_level: dict[int, list[QuestionInstance]] = {}
    for inst in candidates:
        by_level.setdefault(int(inst.level), []).append(inst)
    levels = sorted(by_level)
    quotas = _stratified_quotas(levels, {lvl: len(by_level[lvl]) for lvl in levels}, n)
    chosen = []
    for lvl in levels:
        rng.shuffle(by_level[lvl])
        chosen.extend(by_level[lvl][: quotas[lvl]])
    return chosen
