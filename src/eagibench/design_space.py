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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .propulsion import (
    Design,
    Environment,
    PerformanceReport,
    RequirementSet,
    evaluate_design,
    prop_key,
    BATTERY_EFFICIENCY_DEFAULT,
    HOVER_EFFICIENCY_DEFAULT,
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
        for name in ("kv_values", "prop_diameters", "prop_pitches", "battery_options", "n_motors_options"):
            if not getattr(self, name):
                raise ValueError(f"DesignGrid.{name} must be non-empty")

    @property
    def size(self) -> int:
        return (
            len(self.kv_values)
            * len(self.prop_diameters)
            * len(self.prop_pitches)
            * len(self.battery_options)
            * len(self.n_motors_options)
        )


def enumerate_designs(grid: DesignGrid, mtow: float) -> list[Design]:
    """Cartesian product of the grid axes, in lexicographic axis order."""
    props = []
    for diameter in grid.prop_diameters:
        for pitch in grid.prop_pitches:
            override = grid.ct_overrides.get(prop_key(diameter, pitch))
            ct = {} if override is None else {"thrust_coefficient_ct": float(override)}
            props.append((diameter, pitch, ct))
    designs = []
    for kv in grid.kv_values:
        for diameter, pitch, ct in props:
            for battery in grid.battery_options:
                for n_motors in grid.n_motors_options:
                    designs.append(
                        Design(
                            kv=kv,
                            current_limit_per_motor=grid.current_limit_per_motor,
                            battery_cells=battery.cells,
                            battery_voltage_nominal=battery.voltage,
                            battery_capacity=battery.capacity,
                            prop_diameter=diameter,
                            prop_pitch=pitch,
                            n_motors=n_motors,
                            mtow=mtow,
                            **ct,
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


def objective_vector(
    design: Design,
    env: Environment,
    *,
    eta: float = HOVER_EFFICIENCY_DEFAULT,
    eta_batt: float = BATTERY_EFFICIENCY_DEFAULT,
) -> ObjectiveVector:
    return report_objectives(evaluate_design(design, env, (), eta=eta, eta_batt=eta_batt))


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
    *,
    eta: float = HOVER_EFFICIENCY_DEFAULT,
    eta_batt: float = BATTERY_EFFICIENCY_DEFAULT,
) -> list[Design]:
    """Designs whose evaluation passes every requirement, order preserved."""
    out = []
    for design in designs:
        report = evaluate_design(design, env, requirements, eta=eta, eta_batt=eta_batt)
        if report.all_requirements_pass:
            out.append(design)
    return out


def front_indices(vectors: Sequence[ObjectiveVector]) -> list[int]:
    """Indices of the non-dominated vectors, in input order.

    Sorted sweep for the maxima of a vector set (Kung, Luccio & Preparata,
    J. ACM 22(4), 1975): in (current up, margin down, endurance down) order
    every dominator of a vector precedes it, and by transitivity one of
    them is on the front, so a vector is kept iff no kept vector dominates
    it.  Equal vectors never dominate each other.
    """

    def sweep_key(i: int) -> tuple[float, float, float]:
        v = vectors[i]
        return (v.hover_current_per_motor, -v.thrust_margin, -v.endurance)

    kept: list[int] = []
    for i in sorted(range(len(vectors)), key=sweep_key):
        if not any(dominates(vectors[k], vectors[i]) for k in kept):
            kept.append(i)
    return sorted(kept)


def pareto_front(
    designs: Sequence[Design],
    env: Environment,
    *,
    eta: float = HOVER_EFFICIENCY_DEFAULT,
    eta_batt: float = BATTERY_EFFICIENCY_DEFAULT,
) -> list[Design]:
    """Non-dominated subset under the objective vector, order preserved."""
    if not designs:
        raise ValueError("pareto_front requires a non-empty design list")
    vectors = [objective_vector(d, env, eta=eta, eta_batt=eta_batt) for d in designs]
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


def reference_front(
    grid: DesignGrid, mtow: float, env: Environment, requirements: RequirementSet | Sequence = ()
) -> ReferenceFront:
    """Evaluate each grid design once; the reference over those passing every requirement."""
    reports = (evaluate_design(d, env, requirements) for d in enumerate_designs(grid, mtow))
    return ReferenceFront.from_vectors(
        [report_objectives(r) for r in reports if r.all_requirements_pass]
    )


def grid_from_dict(raw: Mapping) -> DesignGrid:
    """Build a grid from its bank-file form (lengths in inches)."""
    batteries = tuple(
        BatteryOption(
            cells=int(b["cells"]),
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
        n_motors_options=tuple(int(v) for v in raw["n_motors"]),
        current_limit_per_motor=float(raw.get("current_limit_a", 25.0)),
        ct_overrides=dict(raw.get("ct_overrides", {})),
    )
