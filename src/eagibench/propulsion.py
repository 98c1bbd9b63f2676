"""Deterministic physics ground truth for propeller-motor matching.

Models a multirotor electric propulsion system at first-order sizing
fidelity:

* motor electrics: no-load RPM = Kv * V, torque constant Kt = 60 / (2*pi*Kv)
* static propeller thrust: T = Ct * rho * n^2 * D^4 with n in rev/s
* ideal hover power from momentum theory: P = T^1.5 / (sqrt(2*rho*A) * eta)
* hover endurance: t = 60 * C * V * eta_batt / P  (minutes)

The thrust coefficient Ct is a per-propeller calibration constant.  The
default value is pinned so that an 18x6 propeller produces 26.4 N of
static thrust at 7500 RPM in sea-level air; other propellers reuse it
unless a bank declares an override.

Two per-motor hover currents are reported:

* ``hover_current_per_motor``: bus-side current, ideal hover power divided
  by total bus voltage across the motor count.
* ``hover_torque_current_per_motor``: motor current implied by the hover
  shaft torque through Kt (I = Q / Kt at the RPM that produces hover
  thrust).  This is the quantity checked against per-motor current limits
  and used for design trade-offs, because it responds to the Kv choice the
  way motor sizing actually does.

All functions are pure; all types are immutable.  Internal computation is
SI throughout; inch inputs convert at exactly 0.0254 m/in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

M_PER_IN = 0.0254
GRAVITY_DEFAULT = 9.81
AIR_DENSITY_SEA_LEVEL = 1.225
CELL_VOLTAGE_NOMINAL = 3.7
HOVER_EFFICIENCY_DEFAULT = 0.7
BATTERY_EFFICIENCY_DEFAULT = 0.95


class PhysicsDomainError(ValueError):
    """Raised when an input is outside the physical domain of a formula."""


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise PhysicsDomainError(f"{name} must be positive and finite, got {value!r}")


def _require_count(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise PhysicsDomainError(f"{name} must be >= 1, got {value}")


def _as_count(name: str, value) -> int:
    """A count from a bank or an answer: 4 and 4.0 give 4, 4.7 raises (no truncation)."""
    count = int(value)
    if count != float(value):
        raise PhysicsDomainError(f"{name} must be a whole number, got {value!r}")
    return count


def _require_pack(cells: int, voltage: float) -> None:
    """Nominal voltage of a series pack within 5% of 3.7 V per cell."""
    nominal = CELL_VOLTAGE_NOMINAL * cells
    if abs(voltage - nominal) > 0.05 * nominal:
        raise PhysicsDomainError(
            f"battery_voltage_nominal {voltage} V is not within 5% of "
            f"{nominal:.1f} V for a {cells}S pack"
        )


def no_load_rpm(kv: float, voltage: float) -> float:
    """No-load motor speed in RPM for a Kv rating at a bus voltage."""
    _require_positive(kv=kv, voltage=voltage)
    return kv * voltage


def torque_constant(kv: float) -> float:
    """Motor torque constant Kt in N*m/A: Kt = 60 / (2*pi*Kv)."""
    _require_positive(kv=kv)
    return 60.0 / (2.0 * math.pi * kv)


def max_torque(kv: float, current_limit: float) -> float:
    """Torque in N*m at the per-motor current limit."""
    _require_positive(kv=kv, current_limit=current_limit)
    return torque_constant(kv) * current_limit


def static_thrust(ct: float, rho: float, rpm: float, diameter: float) -> float:
    """Static thrust in newtons: T = Ct * rho * n^2 * D^4, n = rpm/60."""
    _require_positive(ct=ct, rho=rho, rpm=rpm, diameter=diameter)
    n = rpm / 60.0
    return ct * rho * n * n * diameter**4


def calibrate_ct(thrust: float, rho: float, rpm: float, diameter: float) -> float:
    """Thrust coefficient that reproduces a measured static thrust exactly."""
    _require_positive(thrust=thrust, rho=rho, rpm=rpm, diameter=diameter)
    n = rpm / 60.0
    return thrust / (rho * n * n * diameter**4)


def thrust_scale_factor(d1: float, d2: float) -> float:
    """Thrust ratio when diameter changes d1 -> d2 at constant RPM: (d2/d1)^4."""
    _require_positive(d1=d1, d2=d2)
    return (d2 / d1) ** 4


def required_thrust_per_motor(mtow: float, n_motors: int, gravity: float = GRAVITY_DEFAULT) -> float:
    """Hover thrust each motor must produce to lift the takeoff weight."""
    _require_positive(mtow=mtow, gravity=gravity)
    if n_motors < 1:
        raise PhysicsDomainError(f"n_motors must be >= 1, got {n_motors}")
    return mtow * gravity / n_motors


def ideal_hover_power(total_thrust: float, rho: float, disk_area_total: float, eta: float) -> float:
    """Momentum-theory hover power: P = T^1.5 / (sqrt(2*rho*A_total) * eta)."""
    _require_positive(total_thrust=total_thrust, rho=rho, disk_area_total=disk_area_total)
    if not (0.0 < eta <= 1.0):
        raise PhysicsDomainError(f"eta must be in (0, 1], got {eta!r}")
    return total_thrust**1.5 / (math.sqrt(2.0 * rho * disk_area_total) * eta)


def hover_endurance(capacity: float, voltage: float, eta_batt: float, power: float) -> float:
    """Hover endurance in minutes: t = 60 * C * V * eta_batt / P."""
    _require_positive(capacity=capacity, voltage=voltage, power=power)
    if not (0.0 < eta_batt <= 1.0):
        raise PhysicsDomainError(f"eta_batt must be in (0, 1], got {eta_batt!r}")
    return 60.0 * capacity * voltage * eta_batt / power


def disk_area_total(diameter: float, n_motors: int) -> float:
    """Total rotor disk area in m^2 for n identical propellers."""
    _require_positive(diameter=diameter)
    if n_motors < 1:
        raise PhysicsDomainError(f"n_motors must be >= 1, got {n_motors}")
    return n_motors * math.pi * (diameter / 2.0) ** 2


def rpm_for_thrust(thrust: float, ct: float, rho: float, diameter: float) -> float:
    """RPM at which a propeller produces a target static thrust."""
    _require_positive(thrust=thrust, ct=ct, rho=rho, diameter=diameter)
    return 60.0 * math.sqrt(thrust / (ct * rho * diameter**4))


# Reference calibration: 18x6 propeller, 26.4 N at 7500 RPM, sea-level air.
CT_DEFAULT = calibrate_ct(26.4, AIR_DENSITY_SEA_LEVEL, 7500.0, 18.0 * M_PER_IN)


@dataclass(frozen=True)
class Environment:
    """Ambient conditions for a design evaluation."""

    air_density: float = AIR_DENSITY_SEA_LEVEL
    gravity: float = GRAVITY_DEFAULT

    def __post_init__(self):
        _require_positive(air_density=self.air_density, gravity=self.gravity)


@dataclass(frozen=True)
class Design:
    """A concrete propulsion configuration.

    Units: Kv in RPM/V, currents in A, voltage in V, capacity in Ah,
    lengths in meters, mass in kg.  ``prop_pitch`` is stored for reporting
    and pitch-based scoring but enters no equation; pitch effects reach the
    thrust model only through per-propeller Ct overrides.  ``footprint`` is
    an optional declared planform side length used for footprint checks.
    """

    kv: float
    current_limit_per_motor: float
    battery_cells: int
    battery_voltage_nominal: float
    battery_capacity: float
    prop_diameter: float
    prop_pitch: float
    n_motors: int
    mtow: float
    thrust_coefficient_ct: float = CT_DEFAULT
    footprint: Optional[float] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require_positive(
            kv=self.kv,
            current_limit_per_motor=self.current_limit_per_motor,
            battery_voltage_nominal=self.battery_voltage_nominal,
            battery_capacity=self.battery_capacity,
            prop_diameter=self.prop_diameter,
            prop_pitch=self.prop_pitch,
            mtow=self.mtow,
            thrust_coefficient_ct=self.thrust_coefficient_ct,
        )
        _require_count(n_motors=self.n_motors, battery_cells=self.battery_cells)
        _require_pack(self.battery_cells, self.battery_voltage_nominal)
        if self.footprint is not None:
            _require_positive(footprint=self.footprint)

    @classmethod
    def _from_checked(cls, fields: dict) -> Design:
        """A design holding ``fields`` (every field by name, taken over, not
        copied) without running ``validate``.  The caller must already have
        checked what ``validate`` checks: each float field positive and
        finite, both counts at least 1, the pack voltage within 5% of
        nominal, and ``footprint`` None or positive."""
        design = object.__new__(cls)
        object.__setattr__(design, "__dict__", fields)
        return design


class RequirementKind(enum.Enum):
    MinThrustPerMotor = "MinThrustPerMotor"
    MaxCurrentPerMotor = "MaxCurrentPerMotor"
    MinEndurance = "MinEndurance"
    MaxMTOW = "MaxMTOW"
    FootprintMax = "FootprintMax"
    VoltageClass = "VoltageClass"


#: Unit attached to each requirement bound, for reports and error messages.
REQUIREMENT_UNITS = {
    RequirementKind.MinThrustPerMotor: "N",
    RequirementKind.MaxCurrentPerMotor: "A",
    RequirementKind.MinEndurance: "min",
    RequirementKind.MaxMTOW: "kg",
    RequirementKind.FootprintMax: "m",
    RequirementKind.VoltageClass: "S",
}


@dataclass(frozen=True)
class Requirement:
    id: str
    kind: RequirementKind
    bound: float

    @property
    def unit(self) -> str:
        return REQUIREMENT_UNITS[self.kind]


@dataclass(frozen=True)
class RequirementSet:
    """A list of requirements with unique ids."""

    requirements: tuple[Requirement, ...] = ()

    def __post_init__(self):
        ids = [r.id for r in self.requirements]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate requirement ids: {dupes}")

    def __iter__(self):
        return iter(self.requirements)

    def __len__(self):
        return len(self.requirements)

    def get(self, req_id: str) -> Requirement:
        for r in self.requirements:
            if r.id == req_id:
                return r
        raise KeyError(req_id)


@dataclass(frozen=True)
class RequirementCheck:
    requirement_id: str
    kind: RequirementKind
    bound: float
    measured: float
    passed: bool


@dataclass(frozen=True)
class PerformanceReport:
    """Oracle outputs for one design under one environment.

    ``operating_rpm`` is the loaded RPM when the scenario supplies one,
    otherwise the no-load RPM; thrust checks are evaluated there.  The
    oracle never infers load droop on its own.
    """

    operating_rpm: float
    static_thrust_per_motor: float
    required_thrust_per_motor: float
    hover_power_total: float
    hover_current_per_motor: float
    hover_torque_current_per_motor: float
    endurance: float
    requirement_checks: tuple[RequirementCheck, ...] = ()

    @property
    def all_requirements_pass(self) -> bool:
        return all(c.passed for c in self.requirement_checks)

    def check(self, req_id: str) -> RequirementCheck:
        for c in self.requirement_checks:
            if c.requirement_id == req_id:
                return c
        raise KeyError(req_id)


def _measure(report_values: dict, design: Design, req: Requirement) -> tuple[float, bool]:
    kind = req.kind
    if kind is RequirementKind.MinThrustPerMotor:
        measured = report_values["static_thrust_per_motor"]
        return measured, measured >= req.bound
    if kind is RequirementKind.MaxCurrentPerMotor:
        measured = report_values["hover_torque_current_per_motor"]
        return measured, measured <= req.bound
    if kind is RequirementKind.MinEndurance:
        measured = report_values["endurance"]
        return measured, measured >= req.bound
    if kind is RequirementKind.MaxMTOW:
        return design.mtow, design.mtow <= req.bound
    if kind is RequirementKind.FootprintMax:
        measured = design.footprint if design.footprint is not None else math.inf
        return measured, measured <= req.bound
    if kind is RequirementKind.VoltageClass:
        return float(design.battery_cells), design.battery_cells == int(req.bound)
    raise PhysicsDomainError(f"unknown requirement kind: {kind!r}")


def _step(label: str, fn, *args):
    """``fn(*args)``, with a domain or arithmetic error re-raised as the
    same type under the quantity's label."""
    try:
        return fn(*args)
    except (PhysicsDomainError, ArithmeticError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc


# Evaluation stages.  ``evaluate_design`` runs them in this order for one
# design; ``design_space.grid_evaluations`` runs each once per distinct
# input over a grid.  Both take every value from here, so a design's
# figures are the same floats on either path.


def thrust_stage(
    kv: float, volts: float, ct: float, diameter: float, rho: float, loaded_rpm: Optional[float] = None
) -> tuple[float, float]:
    """The operating RPM (the loaded RPM when one is given, otherwise the
    no-load RPM) and the static thrust per motor there."""
    nlr = _step("no_load_rpm", no_load_rpm, kv, volts)
    rpm = nlr if loaded_rpm is None else loaded_rpm
    return rpm, _step("static_thrust", static_thrust, ct, rho, rpm, diameter)


def hover_stage(
    mtow: float, n_motors: int, ct: float, diameter: float, env: Environment
) -> tuple[float, float, float]:
    """Hover at a takeoff weight: required thrust per motor, total hover power,
    and the shaft torque per motor at the hover RPM."""
    rho = env.air_density
    required = _step(
        "required_thrust_per_motor", required_thrust_per_motor, mtow, n_motors, env.gravity
    )
    area = _step("disk_area_total", disk_area_total, diameter, n_motors)
    hover_power = _step(
        "ideal_hover_power", ideal_hover_power, mtow * env.gravity, rho, area,
        HOVER_EFFICIENCY_DEFAULT,
    )
    hover_rpm = _step("hover_rpm", rpm_for_thrust, required, ct, rho, diameter)
    omega = 2.0 * math.pi * hover_rpm / 60.0
    return required, hover_power, (hover_power / n_motors) / omega


def endurance_stage(capacity: float, volts: float, hover_power: float) -> float:
    """Hover endurance in minutes of one battery at a total hover power."""
    return _step(
        "hover_endurance", hover_endurance, capacity, volts, BATTERY_EFFICIENCY_DEFAULT, hover_power
    )


def evaluate_design(
    design: Design,
    env: Environment,
    requirements: RequirementSet | Sequence[Requirement] = (),
    *,
    loaded_rpm: Optional[float] = None,
) -> PerformanceReport:
    """Evaluate a design: pure function of its inputs.

    Every requirement receives exactly one check.  Domain errors from the
    component formulas propagate labeled with the failing quantity.
    """
    if not isinstance(requirements, RequirementSet):
        requirements = RequirementSet(tuple(requirements))
    # No re-validation: a frozen Design validates itself on construction.
    kv, volts, n_motors = design.kv, design.battery_voltage_nominal, design.n_motors
    ct, diameter = design.thrust_coefficient_ct, design.prop_diameter
    operating_rpm, thrust = thrust_stage(kv, volts, ct, diameter, env.air_density, loaded_rpm)
    kt = _step("torque_constant", torque_constant, kv)
    required, hover_power, torque = hover_stage(design.mtow, n_motors, ct, diameter, env)
    # Shaft torque at the hover operating point, converted to motor current
    # through Kt.  This is the current a per-motor limit constrains.
    torque_current = torque / kt
    endurance = endurance_stage(design.battery_capacity, volts, hover_power)

    values = {
        "static_thrust_per_motor": thrust,
        "hover_torque_current_per_motor": torque_current,
        "endurance": endurance,
    }
    checks = []
    for req in requirements:
        checks.append(RequirementCheck(req.id, req.kind, req.bound, *_measure(values, design, req)))

    return PerformanceReport(
        operating_rpm=operating_rpm,
        static_thrust_per_motor=thrust,
        required_thrust_per_motor=required,
        hover_power_total=hover_power,
        hover_current_per_motor=hover_power / (n_motors * volts),
        hover_torque_current_per_motor=torque_current,
        endurance=endurance,
        requirement_checks=tuple(checks),
    )


def apply_patch(design: Design, patch: dict, ct_overrides: Optional[dict] = None) -> Design:
    """Return a new design with SI-unit field values replaced.

    ``patch`` keys are Design field names.  After patching, if the
    resulting propeller has a declared Ct override (keyed "DxP" in inches,
    e.g. "18x7") and the patch did not set Ct explicitly, the override is
    applied.
    """
    unknown = [k for k in patch if k not in Design.__dataclass_fields__]
    if unknown:
        raise KeyError(unknown[0])
    patched = replace(design, **patch)
    if ct_overrides and "thrust_coefficient_ct" not in patch:
        key = prop_key(patched.prop_diameter, patched.prop_pitch)
        if key in ct_overrides:
            patched = replace(patched, thrust_coefficient_ct=float(ct_overrides[key]))
    return patched


def prop_key(diameter_m: float, pitch_m: float) -> str:
    """Canonical propeller key in inches, e.g. "18x6" or "16x5.4"."""

    def fmt(meters: float) -> str:
        inches = meters / M_PER_IN
        return f"{inches:.10g}" if abs(inches - round(inches)) > 1e-9 else str(int(round(inches)))

    return f"{fmt(diameter_m)}x{fmt(pitch_m)}"
