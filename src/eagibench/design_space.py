"""Design-space enumeration, feasibility filtering, and Pareto fronts.

A design grid spans discrete axes (Kv, propeller diameter and pitch,
battery option, motor count).  Enumeration walks the Cartesian product in
the axis order listed on the grid, so output order is deterministic and
byte-identical across runs.

The trade-off objectives are fixed: per-motor hover current (minimize),
thrust margin over the hover requirement (maximize), and hover endurance
(maximize).  The current axis uses the torque-route motor current so that
the Kv choice trades off against thrust margin; see ``propulsion``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .propulsion import (
    CT_DEFAULT,
    Design,
    Environment,
    PerformanceReport,
    RequirementSet,
    _as_count,
    _measure,
    _require_count,
    _require_pack,
    _require_positive,
    endurance_stage,
    evaluate_design,
    hover_stage,
    prop_key,
    thrust_stage,
    torque_constant,
    M_PER_IN,
)


@dataclass(frozen=True)
class BatteryOption:
    cells: int
    voltage: float
    capacity: float  # Ah


@dataclass(frozen=True)
class DesignGrid:
    """Discrete synthesis space.  Lengths multiply to the grid size."""

    kv_values: tuple[float, ...]
    prop_diameters: tuple[float, ...]  # meters
    prop_pitches: tuple[float, ...]  # meters
    battery_options: tuple[BatteryOption, ...]
    n_motors_options: tuple[int, ...]
    current_limit_per_motor: float = 25.0
    ct_overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        """Reject an axis value no design on the grid could take, at O(sum of axis lengths)."""
        # A read-only copy, so no Ct can be written after the check below.
        object.__setattr__(self, "ct_overrides", MappingProxyType(dict(self.ct_overrides)))
        for name in ("kv_values", "prop_diameters", "prop_pitches", "battery_options", "n_motors_options"):
            if not getattr(self, name):
                raise ValueError(f"DesignGrid.{name} must be non-empty")
        for name in ("kv_values", "prop_diameters", "prop_pitches"):
            _require_positive(**{f"{name}[{i}]": v for i, v in enumerate(getattr(self, name))})
        _require_positive(current_limit_per_motor=self.current_limit_per_motor)
        _require_positive(**{f"ct_overrides[{k!r}]": v for k, v in self.ct_overrides.items()})
        _require_count(**{f"n_motors_options[{i}]": n for i, n in enumerate(self.n_motors_options)})
        for battery in self.battery_options:
            _require_positive(battery_voltage=battery.voltage, battery_capacity=battery.capacity)
            _require_count(battery_cells=battery.cells)
            _require_pack(battery.cells, battery.voltage)

    @property
    def size(self) -> int:
        return (
            len(self.kv_values)
            * len(self.prop_diameters)
            * len(self.prop_pitches)
            * len(self.battery_options)
            * len(self.n_motors_options)
        )

    def propellers(self) -> list[tuple[float, float, float]]:
        """(diameter, pitch, Ct) of each propeller, Ct from ``ct_overrides`` or the default."""
        return [
            (diameter, pitch, float(self.ct_overrides.get(prop_key(diameter, pitch), CT_DEFAULT)))
            for diameter in self.prop_diameters
            for pitch in self.prop_pitches
        ]


def enumerate_designs(grid: DesignGrid, mtow: float) -> list[Design]:
    """Cartesian product of the grid axes, in lexicographic axis order.

    The grid checked every axis value when it was built, with the rules
    ``Design.validate`` applies, and each Ct is a checked override or the
    default; so only ``mtow`` is checked here, once, and the designs are
    built without validating each one again.
    """
    _require_positive(mtow=mtow)
    props = grid.propellers()
    current_limit = grid.current_limit_per_motor
    designs = []
    for kv in grid.kv_values:
        for diameter, pitch, ct in props:
            for battery in grid.battery_options:
                for n_motors in grid.n_motors_options:
                    designs.append(
                        Design._from_checked(
                            {
                                "kv": kv,
                                "current_limit_per_motor": current_limit,
                                "battery_cells": battery.cells,
                                "battery_voltage_nominal": battery.voltage,
                                "battery_capacity": battery.capacity,
                                "prop_diameter": diameter,
                                "prop_pitch": pitch,
                                "n_motors": n_motors,
                                "mtow": mtow,
                                "thrust_coefficient_ct": ct,
                                "footprint": None,
                            }
                        )
                    )
    return designs


@dataclass(frozen=True)
class ObjectiveVector:
    """Trade-off coordinates of a design: (current down, margin up, endurance up)."""

    hover_current_per_motor: float
    thrust_margin: float
    endurance: float


#: Objective fields, each with the sign that makes larger better.
OBJECTIVE_AXES = (("hover_current_per_motor", -1.0), ("thrust_margin", 1.0), ("endurance", 1.0))


def report_objectives(report: PerformanceReport) -> ObjectiveVector:
    """Objective vector of an evaluated design."""
    return ObjectiveVector(
        hover_current_per_motor=report.hover_torque_current_per_motor,
        thrust_margin=report.static_thrust_per_motor - report.required_thrust_per_motor,
        endurance=report.endurance,
    )


def objective_vector(design: Design, env: Environment) -> ObjectiveVector:
    return report_objectives(evaluate_design(design, env))


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True iff a is at least as good as b everywhere and strictly better somewhere."""
    at_least = (
        a.hover_current_per_motor <= b.hover_current_per_motor
        and a.thrust_margin >= b.thrust_margin
        and a.endurance >= b.endurance
    )
    strictly = (
        a.hover_current_per_motor < b.hover_current_per_motor
        or a.thrust_margin > b.thrust_margin
        or a.endurance > b.endurance
    )
    return at_least and strictly


def feasible_set(
    designs: Sequence[Design],
    env: Environment,
    requirements: RequirementSet | Sequence = (),
) -> list[Design]:
    """Designs whose evaluation passes every requirement, order preserved."""
    return [d for d in designs if evaluate_design(d, env, requirements).all_requirements_pass]


def front_indices(vectors: Sequence[ObjectiveVector]) -> list[int]:
    """Indices of the non-dominated vectors, in input order.

    Staircase sweep for the maxima of a vector set (Kung, Luccio &
    Preparata, J. ACM 22(4), 1975).  In (current up, margin down, endurance
    down) order every dominator of a vector precedes it, and by transitivity
    one of them is on the front.  Any earlier vector with margin and
    endurance at least as large differs from it, so dominates it.  The kept
    (margin, endurance) points no other kept point covers form a staircase,
    margins rising and endurances falling, held in two sorted lists and
    queried with bisect.  A run of equal vectors is decided once: equal
    vectors never dominate each other.
    """
    swept = sorted(
        (v.hover_current_per_motor, -v.thrust_margin, -v.endurance, i) for i, v in enumerate(vectors)
    )
    margins: list[float] = []  # ascending
    neg_endurances: list[float] = []  # ascending, so endurance descends
    kept: list[int] = []
    for (_, neg_margin, neg_endurance), run in groupby(swept, key=lambda t: t[:3]):
        margin = -neg_margin
        j = bisect_left(margins, margin)
        if j < len(margins) and neg_endurances[j] <= neg_endurance:
            continue
        kept.extend(t[3] for t in run)
        hi = bisect_right(margins, margin)
        lo = bisect_left(neg_endurances, neg_endurance, 0, hi)
        margins[lo:hi] = [margin]
        neg_endurances[lo:hi] = [neg_endurance]
    return sorted(kept)


def pareto_front(designs: Sequence[Design], env: Environment) -> list[Design]:
    """Non-dominated subset under the objective vector, order preserved."""
    if not designs:
        raise ValueError("pareto_front requires a non-empty design list")
    vectors = [objective_vector(d, env) for d in designs]
    return [designs[i] for i in front_indices(vectors)]


@dataclass(frozen=True)
class ReferenceFront:
    """Pareto front of a feasible set, and each objective's range (max - min)
    over the whole feasible set, keyed by ``OBJECTIVE_AXES`` name."""

    front: tuple[ObjectiveVector, ...]
    ranges: Mapping[str, float]

    @classmethod
    def from_vectors(cls, feasible: Sequence[ObjectiveVector]) -> ReferenceFront:
        ranges = {}
        for name, _ in OBJECTIVE_AXES:
            values = [getattr(v, name) for v in feasible]
            ranges[name] = max(values) - min(values) if values else 0.0
        return cls(tuple(feasible[i] for i in front_indices(feasible)), ranges)


def grid_evaluations(
    grid: DesignGrid, mtow: float, env: Environment, requirements: RequirementSet | Sequence = ()
) -> Iterator[tuple[Design, tuple[float, float, float], bool]]:
    """Each design of ``enumerate_designs(grid, mtow)``, in order, with its
    objectives (current, margin, endurance, the fields of
    ``ObjectiveVector``) and whether it passes every requirement.

    The designs are evaluated factor by factor, walking the grid axes in
    enumeration order: each stage of ``evaluate_design`` runs once per
    distinct input it reads (Kt per Kv; thrust per voltage within each Kv
    and propeller; hover per diameter, Ct and motor count; endurance per
    battery and hover power), with the same operations in the same order,
    so every figure equals that of ``evaluate_design`` on the design.  The
    memo lives for one call.
    """
    if not isinstance(requirements, RequirementSet):
        requirements = RequirementSet(tuple(requirements))
    rho = env.air_density
    designs = iter(enumerate_designs(grid, mtow))
    props = grid.propellers()
    hovers: dict = {}
    endurances: dict = {}
    for kv in grid.kv_values:
        kt = torque_constant(kv)
        for diameter, _, ct in props:
            thrusts: dict = {}
            for battery in grid.battery_options:
                volts, capacity = battery.voltage, battery.capacity
                thrust = thrusts.get(volts)
                if thrust is None:
                    thrust = thrusts[volts] = thrust_stage(kv, volts, ct, diameter, rho)[1]
                for n_motors in grid.n_motors_options:
                    design = next(designs)
                    key = (diameter, ct, n_motors)
                    hover = hovers.get(key)
                    if hover is None:
                        hover = hovers[key] = hover_stage(mtow, n_motors, ct, diameter, env)
                    required, power, torque = hover
                    key = (capacity, volts, power)
                    endurance = endurances.get(key)
                    if endurance is None:
                        endurance = endurances[key] = endurance_stage(capacity, volts, power)
                    current = torque / kt
                    values = {
                        "static_thrust_per_motor": thrust,
                        "hover_torque_current_per_motor": current,
                        "endurance": endurance,
                    }
                    passed = True
                    for req in requirements:
                        if not _measure(values, design, req)[1]:
                            passed = False
                            break
                    yield design, (current, thrust - required, endurance), passed


def reference_front(
    grid: DesignGrid, mtow: float, env: Environment, requirements: RequirementSet | Sequence = ()
) -> ReferenceFront:
    """The reference over the grid designs that pass every requirement."""
    evaluations = grid_evaluations(grid, mtow, env, requirements)
    return ReferenceFront.from_vectors(
        [ObjectiveVector(*objectives) for _, objectives, passed in evaluations if passed]
    )


def check_grid(grid: DesignGrid, mtow: float, env: Environment) -> None:
    """Raise what evaluating the grid at ``mtow`` would raise, at
    O(propellers x motor counts) and without enumerating it.

    The hover and endurance stages run for every (diameter, Ct, motor
    count), so they raise here whatever they raise there.  The thrust stage
    runs per propeller at the largest Kv and voltage, where the no-load RPM
    is largest, and the torque current at the largest Kv, where Kt is
    smallest.
    """
    kv = max(grid.kv_values)
    battery = max(grid.battery_options, key=lambda b: b.voltage)
    kt = torque_constant(kv)
    for diameter, _, ct in grid.propellers():
        thrust_stage(kv, battery.voltage, ct, diameter, env.air_density)
        for n_motors in grid.n_motors_options:
            _, power, torque = hover_stage(mtow, n_motors, ct, diameter, env)
            endurance_stage(battery.capacity, battery.voltage, power)
            _ = torque / kt  # Kt is 0.0 once 2*pi*Kv overflows


def grid_from_dict(raw: Mapping) -> DesignGrid:
    """Build a grid from its bank-file form (lengths in inches)."""
    batteries = tuple(
        BatteryOption(
            cells=_as_count("cells", b["cells"]),
            voltage=float(b["voltage_v"]),
            capacity=float(b["capacity_ah"]),
        )
        for b in raw["battery_options"]
    )
    return DesignGrid(
        kv_values=tuple(float(v) for v in raw["kv_rpm_per_volt"]),
        prop_diameters=tuple(float(v) * M_PER_IN for v in raw["prop_diameter_in"]),
        prop_pitches=tuple(float(v) * M_PER_IN for v in raw["prop_pitch_in"]),
        battery_options=batteries,
        n_motors_options=tuple(_as_count("n_motors", v) for v in raw["n_motors"]),
        current_limit_per_motor=float(raw.get("current_limit_a", 25.0)),
        ct_overrides={str(k): float(v) for k, v in raw.get("ct_overrides", {}).items()},
    )
