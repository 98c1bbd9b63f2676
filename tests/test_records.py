"""The record contract: every record type is an immutable tuple, and a checked
record raises the same error however it is built."""

import copy
import functools
import math
import pickle
from typing import Mapping

import pytest

from eagibench import bank, design_space, harness, propulsion, scoring, taxonomy
from eagibench.bank import (
    DesignSynthesisSpec,
    DiagnosisSpec,
    FieldExpectation,
    FixSpec,
    NumericSpec,
    RubricCriterion,
    RubricSpec,
    StructuredSpec,
)
from eagibench.design_space import BatteryOption, DesignGrid
from eagibench.harness import RunConfig, grade
from eagibench.propulsion import (
    M_PER_IN,
    Design,
    Environment,
    Requirement,
    RequirementKind,
    RequirementSet,
    evaluate_design,
)
from eagibench.scoring import Evidence, Score, Verdict
from eagibench.taxonomy import DesignScope, Domain, SystemType, TagFilter, TagSet

DESIGN = Design(kv=380.0, current_limit_per_motor=30.0, battery_cells=6, battery_voltage_nominal=22.2,
                battery_capacity=10.0, prop_diameter=18 * M_PER_IN, prop_pitch=6 * M_PER_IN, n_motors=4,
                mtow=12.0)
THRUST = Requirement("thrust", RequirementKind.MinThrustPerMotor, 30.0)
FIELD = FieldExpectation("kv", "number", 380.0)
CRITERION = RubricCriterion("risk", ("thermal",))
GRID = DesignGrid((380.0,), (18 * M_PER_IN,), (6 * M_PER_IN,), (BatteryOption(6, 22.2, 10.0),), (4,),
                  ct_overrides={(18 * M_PER_IN, 6 * M_PER_IN): 0.03})
#: DESIGN makes 33.4 N a motor: it misses this bound, and at 400 rpm/V (37.0 N) meets it.
FIX = FixSpec(DESIGN, Environment(), RequirementSet((THRUST._replace(bound=35.0),)), "thrust",
              ("kv_rpm_per_volt",), {"kv_rpm_per_volt": 400.0})
SYNTHESIS = DesignSynthesisSpec(RequirementSet((THRUST,)), "one-point", GRID, Environment(), {}, DESIGN, 12.0,
                                design_space.reference_front(GRID, 12.0, Environment(), RequirementSet((THRUST,))))

#: One valid record of each checked type, a field, a value that breaks its check, and what it raises.
CHECKED = [
    (Environment(), "air_density", 0.0, propulsion.PhysicsDomainError),
    (DESIGN, "mtow", 0.0, propulsion.PhysicsDomainError),
    (GRID, "kv_values", (), ValueError),
    (Requirement("class", RequirementKind.VoltageClass, 6.0), "bound", 6.5, propulsion.PhysicsDomainError),
    (RunConfig(), "max_in_flight", 0, ValueError),
    (Score(1.0, Verdict.Pass, (Evidence("fact", "pass", "matched"),)), "value", 1.5, ValueError),
    (TagSet(SystemType.eVTOL, DesignScope.System, frozenset({Domain.Electrical})), "domains", frozenset(),
     ValueError),
    (TagFilter(levels=(1, 3)), "levels", (3, 1), ValueError),
    (NumericSpec(1.0, "N", 0.02), "rel_tol", 0.5, ValueError),
    (NumericSpec(1.0, "N", 0.02), "value", math.inf, ValueError),
    (FIELD, "kind", "blob", ValueError),
    (StructuredSpec((FIELD,)), "fields", (), ValueError),
    (DiagnosisSpec(("heat",), {"heat": ("hot",)}), "accepted_causes", ("cold",), ValueError),
    (FIX, "failing_requirement_id", "lift", KeyError),
    (FIX, "reference_patch", {"kv_rpm_per_volt": 385.0}, ValueError),
    (FIX, "patchable_fields", ("kv_rpm_per_volt", "kv"), ValueError),
    (SYNTHESIS, "mtow", 10.0, ValueError),
    (SYNTHESIS, "requirements", RequirementSet((THRUST._replace(bound=35.0),)), ValueError),
    (SYNTHESIS, "reference_design", DESIGN._replace(kv=400.0), ValueError),
    (CRITERION, "phrases", (), ValueError),
    (RubricSpec((CRITERION,), 0.5), "pass_threshold", 0.0, ValueError),
]


def _raised(build) -> tuple:
    """The type and message of what ``build()`` raises."""
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("nothing raised")


def _ids(rows) -> list:
    """Each row's record type, followed by its field after the type's first row."""
    names = [type(row[0]).__name__ for row in rows]
    return [name if names.index(name) == i else f"{name}-{row[1]}" for i, (name, row) in enumerate(zip(names, rows))]


@pytest.mark.parametrize("valid, field, bad, error", CHECKED, ids=_ids(CHECKED))
def test_a_checked_record_raises_the_same_however_it_is_built(valid, field, bad, error):
    cls, values = type(valid), {**valid._asdict(), field: bad}
    raised = _raised(lambda: cls(**values))
    assert raised[0] is error
    assert _raised(lambda: valid._replace(**{field: bad})) == raised
    assert _raised(lambda: cls._make(values.values())) == raised
    unchecked = tuple.__new__(cls, values.values())  # as a record from an older release might be
    assert _raised(lambda: pickle.loads(pickle.dumps(unchecked))) == raised
    assert _raised(lambda: copy.copy(unchecked)) == raised
    if hasattr(copy, "replace"):  # Python 3.13
        assert _raised(lambda: copy.replace(valid, **{field: bad})) == raised
    for same in (pickle.loads(pickle.dumps(valid)), copy.copy(valid), valid._replace(), cls._make(valid)):
        assert type(same) is cls and same == valid


def test_a_requirement_set_checks_its_ids_however_it_is_built():
    # A second, distinct id: the message lists only the repeated one.
    current = Requirement("current", RequirementKind.MaxCurrentPerMotor, 30.0)
    raised = _raised(lambda: RequirementSet((THRUST, current, THRUST)))
    assert raised == (ValueError, "duplicate requirement ids: ['thrust']")
    unchecked = tuple.__new__(RequirementSet, (THRUST, current, THRUST))
    assert _raised(lambda: pickle.loads(pickle.dumps(unchecked))) == raised
    requirements = RequirementSet((THRUST,))
    assert pickle.loads(pickle.dumps(requirements)) == requirements
    assert requirements == (THRUST,)


def test_a_grid_keeps_a_read_only_copy_of_its_ct_table():
    table = {(18 * M_PER_IN, 6 * M_PER_IN): 0.03}
    grid = CHECKED[2][0]._replace(ct_overrides=table)
    table[18 * M_PER_IN, 6 * M_PER_IN] = 0.05
    assert grid.propellers() == [(18 * M_PER_IN, 6 * M_PER_IN, 0.03)]
    with pytest.raises(TypeError):
        grid.ct_overrides[18 * M_PER_IN, 6 * M_PER_IN] = 0.05


def _record_types() -> list:
    modules = (bank, design_space, harness, propulsion, scoring, taxonomy)
    types = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__}
    return sorted(types, key=lambda cls: cls.__qualname__)


def _collect(value, found: dict) -> None:
    if isinstance(value, tuple):
        found.setdefault(type(value), value)
        for item in value:
            _collect(item, found)
    elif isinstance(value, Mapping):
        for item in value.values():
            _collect(item, found)


@functools.lru_cache(maxsize=None)
def _one_of_each() -> dict:
    """A record of every type the package defines, from a loaded bank and what it runs through."""
    shipped = bank.load_shipped_bank()
    instances = list(shipped.instances.values())
    report = grade(instances, [scoring.reference_answer(i.answer_spec) for i in instances], RunConfig(), {})
    l5 = shipped.instances["l5-quad-14kg"].answer_spec
    found: dict = {}
    for value in (shipped, report, RunConfig(), TagFilter(), taxonomy.level_profile(3), taxonomy._TAG_FIELDS,
                  tuple(propulsion.REQUIREMENT_RULES.values()), tuple(scoring._KINDS.values()),
                  tuple(bank._ANSWERS.values()),
                  scoring.extract("8 N", NumericSpec(8.0, "N", 0.02)),
                  evaluate_design(DESIGN, Environment(), (THRUST,)),
                  design_space.reference_front(l5.grid, l5.mtow, l5.environment, l5.requirements)):
        _collect(value, found)
    return found


@pytest.mark.parametrize("cls", _record_types(), ids=lambda cls: cls.__qualname__)
def test_no_field_of_a_record_can_be_set(cls):
    record = _one_of_each()[cls]
    for field in getattr(cls, "_fields", ("requirements",)):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"
    if hasattr(cls, "_fields"):  # a bank's len() counts its templates, yet it rebuilds too
        assert record._replace() == record == cls(**record._asdict())
