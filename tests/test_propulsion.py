"""Physics oracle tests.

Expected values are derived independently inline (direct arithmetic on the
defining formulas) and frozen; the module under test must agree.
"""

import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from eagibench.propulsion import (
    CT_DEFAULT,
    REQUIREMENT_RULES,
    Design,
    Environment,
    M_PER_IN,
    PhysicsDomainError,
    Requirement,
    RequirementKind,
    RequirementSet,
    calibrate_ct,
    disk_area_total,
    evaluate_design,
    hover_endurance,
    hover_stage,
    ideal_hover_power,
    max_torque,
    no_load_rpm,
    required_thrust_per_motor,
    static_thrust,
    thrust_scale_factor,
    torque_constant,
    _measure,
)

D18 = 18 * 0.0254
D19 = 19 * 0.0254
D20 = 20 * 0.0254

# Independent derivation of the calibrated thrust coefficient:
# ct = T / (rho * n^2 * D^4) at the 26.4 N @ 7500 RPM datum.
CT_STAR = 26.4 / (1.225 * (7500 / 60) ** 2 * D18**4)


class TestNoLoadRpm:
    def test_example_design(self):
        assert no_load_rpm(380, 22.2) == pytest.approx(8436, abs=1e-9)

    def test_direct_product(self):
        assert no_load_rpm(400, 22.2) == pytest.approx(8880, abs=1e-9)

    def test_linearity_through_origin(self):
        assert no_load_rpm(380, 1e-9) == pytest.approx(380e-9)

    def test_domain_error(self):
        with pytest.raises(PhysicsDomainError):
            no_load_rpm(0, 22.2)
        with pytest.raises(PhysicsDomainError):
            no_load_rpm(380, -1)


class TestTorqueConstant:
    def test_380(self):
        assert torque_constant(380) == pytest.approx(0.0251, abs=1e-4)

    def test_420(self):
        assert torque_constant(420) == pytest.approx(0.0227, abs=1e-4)

    def test_inverse_proportionality(self):
        assert torque_constant(760) == pytest.approx(torque_constant(380) / 2, rel=1e-12)

    def test_kt_kv_identity(self):
        for kv in (1, 100, 380, 420, 1000, 2300.5):
            assert torque_constant(kv) * kv * (2 * math.pi / 60) == pytest.approx(1, abs=1e-12)


class TestMaxTorque:
    def test_380_at_25a(self):
        assert max_torque(380, 25) == pytest.approx(0.628, abs=0.01)

    def test_420_at_25a(self):
        assert max_torque(420, 25) == pytest.approx(0.568, abs=0.01)

    def test_relative_drop_380_to_420(self):
        drop = 1 - max_torque(420, 25) / max_torque(380, 25)
        assert drop == pytest.approx(0.095, abs=0.01)


class TestStaticThrust:
    def test_calibration_datum(self):
        assert static_thrust(CT_STAR, 1.225, 7500, D18) == pytest.approx(26.4, abs=0.05)

    def test_thrust_at_no_load_rpm(self):
        # Derived: T scales with the RPM ratio squared from the 26.4 N datum.
        expected = 26.4 * (8436 / 7500) ** 2
        assert expected == pytest.approx(33.4, abs=0.1)
        assert static_thrust(CT_STAR, 1.225, 8436, D18) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_in_rpm(self):
        assert static_thrust(CT_STAR, 1.225, 15000, D18) == pytest.approx(
            4 * static_thrust(CT_STAR, 1.225, 7500, D18), rel=1e-12
        )

    def test_package_default_ct_matches_calibration(self):
        assert CT_DEFAULT == pytest.approx(CT_STAR, rel=1e-12)
        assert CT_DEFAULT == pytest.approx(0.0316, abs=5e-4)


class TestCalibrateCt:
    def test_datum(self):
        assert calibrate_ct(26.4, 1.225, 7500, D18) == pytest.approx(0.0316, abs=5e-4)

    def test_round_trip_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            ct = rng.uniform(1e-3, 0.2)
            rho = rng.uniform(0.5, 1.5)
            rpm = rng.uniform(1000, 20000)
            d = rng.uniform(0.1, 1.0)
            thrust = static_thrust(ct, rho, rpm, d)
            assert calibrate_ct(thrust, rho, rpm, d) == pytest.approx(ct, rel=1e-9)

    def test_proportional_in_thrust(self):
        assert calibrate_ct(1e-9, 1.225, 7500, D18) == pytest.approx(
            calibrate_ct(26.4, 1.225, 7500, D18) * 1e-9 / 26.4, rel=1e-12
        )


class TestThrustScaleFactor:
    def test_18_to_20(self):
        assert thrust_scale_factor(18 * M_PER_IN, 20 * M_PER_IN) == pytest.approx(1.524, abs=0.005)

    def test_identity(self):
        assert thrust_scale_factor(0.5, 0.5) == 1

    def test_fourth_power(self):
        assert thrust_scale_factor(0.25, 0.5) == pytest.approx(16, rel=1e-12)


class TestRequiredThrust:
    def test_12kg_quad(self):
        assert required_thrust_per_motor(12, 4, 9.81) == pytest.approx(29.43, abs=0.05)

    def test_14kg_quad(self):
        assert required_thrust_per_motor(14, 4, 9.81) == pytest.approx(34.34, abs=0.05)

    def test_11kg_octo(self):
        assert required_thrust_per_motor(11, 8, 9.81) == pytest.approx(13.49, abs=0.05)

    def test_zero_motors_rejected(self):
        with pytest.raises(PhysicsDomainError):
            required_thrust_per_motor(12, 0, 9.81)


class TestHoverPowerAndEndurance:
    def test_parametric_model_values(self):
        # Independent evaluation of P = T^1.5 / (sqrt(2 rho A) eta) with
        # T = m g = 9 * 9.81, then t = 60 C V eta_batt / P.
        thrust = 9 * 9.81
        power = thrust**1.5 / (math.sqrt(2 * 0.9 * 0.636) * 0.7)
        assert power == pytest.approx(1108, abs=5)
        assert ideal_hover_power(thrust, 0.9, 0.636, 0.7) == pytest.approx(power, rel=1e-12)

        endurance = 60 * 10 * 22.2 * 0.95 / power
        assert endurance == pytest.approx(11.4, abs=0.2)
        assert 11.0 <= endurance <= 12.5
        assert hover_endurance(10, 22.2, 0.95, power) == pytest.approx(endurance, rel=1e-12)

    def test_sqrt_scaling(self):
        p1 = ideal_hover_power(88.29, 0.9, 0.636, 1.0)
        p2 = ideal_hover_power(88.29, 1.8, 0.636, 1.0)
        assert p1 / p2 == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_power_law_through_origin(self):
        assert ideal_hover_power(1e-9, 1.225, 0.6, 0.7) < 1e-10

    def test_endurance_inverse_in_power(self):
        assert hover_endurance(10, 22.2, 0.95, 2000) == pytest.approx(
            hover_endurance(10, 22.2, 0.95, 1000) / 2, rel=1e-12
        )

    def test_endurance_unit_identity(self):
        # C*V = P/60 with eta_batt = 1 gives exactly one minute.
        assert hover_endurance(1, 1, 1.0, 60) == pytest.approx(1.0, rel=1e-12)

    def test_eta_domain(self):
        with pytest.raises(PhysicsDomainError):
            ideal_hover_power(88.29, 0.9, 0.636, 1.5)
        with pytest.raises(PhysicsDomainError):
            hover_endurance(10, 22.2, 0.95, 0)

    def test_zero_efficiency_is_outside_the_domain(self):
        # Each efficiency's open lower end: 0 is a domain error, not a division by zero or a 0-minute endurance.
        with pytest.raises(PhysicsDomainError, match="eta must be"):
            ideal_hover_power(88.29, 0.9, 0.636, 0.0)
        with pytest.raises(PhysicsDomainError, match="eta_batt must be"):
            hover_endurance(10, 22.2, 0.0, 500)


def _example_design(**overrides):
    base = dict(
        kv=380,
        current_limit_per_motor=25,
        battery_cells=6,
        battery_voltage_nominal=22.2,
        battery_capacity=12,
        prop_diameter=D18,
        prop_pitch=6 * M_PER_IN,
        n_motors=4,
        mtow=12,
    )
    base.update(overrides)
    return Design(**base)


MIN_THRUST_12KG = RequirementSet(
    (Requirement("hover-thrust", RequirementKind.MinThrustPerMotor, 12 * 9.81 / 4),)
)


class TestEvaluateDesign:
    def test_fails_thrust_at_loaded_rpm_7500(self):
        report = evaluate_design(_example_design(), Environment(), MIN_THRUST_12KG, loaded_rpm=7500)
        check = report.requirement_checks[0]
        assert not check.passed
        assert check.measured == pytest.approx(26.4, abs=0.05)
        assert report.required_thrust_per_motor == pytest.approx(29.43, abs=0.05)

    def test_passes_thrust_at_no_load_rpm(self):
        report = evaluate_design(_example_design(), Environment(), MIN_THRUST_12KG)
        check = report.requirement_checks[0]
        assert check.passed
        assert check.measured == pytest.approx(33.4, abs=0.5)

    def test_empty_requirements_vacuous(self):
        report = evaluate_design(_example_design(), Environment(), ())
        assert report.requirement_checks == ()
        assert report.all_requirements_pass

    def test_every_requirement_checked_once(self):
        reqs = RequirementSet(
            (
                Requirement("a", RequirementKind.MinThrustPerMotor, 1),
                Requirement("b", RequirementKind.MaxCurrentPerMotor, 100),
                Requirement("c", RequirementKind.MinEndurance, 1),
                Requirement("d", RequirementKind.MaxMTOW, 50),
                Requirement("e", RequirementKind.FootprintMax, 10),
                Requirement("f", RequirementKind.VoltageClass, 6),
            )
        )
        report = evaluate_design(_example_design(footprint=1.0), Environment(), reqs)
        assert [c.requirement_id for c in report.requirement_checks] == list("abcdef")

    def test_hover_power_formula(self):
        hover_power = hover_stage(12, 4, CT_STAR, D18, Environment())[1]
        # Independent recomputation of the momentum hover power.
        area = 4 * math.pi * (D18 / 2) ** 2
        power = (12 * 9.81) ** 1.5 / (math.sqrt(2 * 1.225 * area) * 0.7)
        assert hover_power == pytest.approx(power, rel=1e-12)

    def test_torque_current_tracks_kv(self):
        # Torque-route motor current at hover: I = (P_motor / omega) / Kt.
        base = evaluate_design(_example_design(), Environment(), ())
        lower = evaluate_design(_example_design(kv=340), Environment(), ())
        assert base.hover_torque_current_per_motor == pytest.approx(17.26, abs=0.05)
        assert lower.hover_torque_current_per_motor == pytest.approx(15.44, abs=0.05)

    def test_deterministic_bit_identical(self):
        a = evaluate_design(_example_design(), Environment(), MIN_THRUST_12KG, loaded_rpm=7500)
        b = evaluate_design(_example_design(), Environment(), MIN_THRUST_12KG, loaded_rpm=7500)
        assert a == b

    def test_domain_error_labels_failing_quantity(self):
        with pytest.raises(PhysicsDomainError, match="static_thrust"):
            evaluate_design(_example_design(), Environment(), (), loaded_rpm=-5)

    @pytest.mark.parametrize(
        "diameter_in, error, label",
        [(1e-80, ZeroDivisionError, "hover_rpm: "), (1e100, OverflowError, "static_thrust: ")],
        ids=["underflow", "overflow"],
    )
    def test_arithmetic_error_labels_failing_quantity(self, diameter_in, error, label):
        design = _example_design(prop_diameter=diameter_in * M_PER_IN)
        with pytest.raises(error) as caught:
            evaluate_design(design, Environment())
        assert type(caught.value) is error and str(caught.value).startswith(label)

    def test_voltage_class_and_footprint_checks(self):
        reqs = RequirementSet(
            (
                Requirement("class", RequirementKind.VoltageClass, 4),
                Requirement("planform", RequirementKind.FootprintMax, 0.7),
            )
        )
        report = evaluate_design(_example_design(), Environment(), reqs)
        assert not report.requirement_checks[0].passed
        assert not report.requirement_checks[1].passed  # undeclared footprint fails
        ok = evaluate_design(_example_design(footprint=0.65), Environment(), reqs)
        assert ok.requirement_checks[1].passed


class TestDesignInvariants:
    def test_voltage_must_match_cell_count(self):
        with pytest.raises(PhysicsDomainError):
            _example_design(battery_voltage_nominal=14.8)  # 4S voltage on a 6S pack

    @pytest.mark.parametrize("voltage, beyond", [(87.875, 0.0), (97.125, math.inf)])
    def test_a_pack_exactly_5_percent_from_nominal_is_allowed(self, voltage, beyond):
        # 25 x 3.7 V = 92.5 V, and 5% of it, 4.625 V, is exact in binary, so the bound is met at equality.
        assert abs(voltage - 3.7 * 25) == 0.05 * (3.7 * 25)
        assert _example_design(battery_cells=25, battery_voltage_nominal=voltage).battery_voltage_nominal == voltage
        with pytest.raises(PhysicsDomainError, match="not within 5%"):
            _example_design(battery_cells=25, battery_voltage_nominal=math.nextafter(voltage, beyond))

    def test_positive_fields(self):
        with pytest.raises(PhysicsDomainError):
            _example_design(mtow=-1)
        with pytest.raises(PhysicsDomainError):
            _example_design(n_motors=0)


def _documented_check(kind, design, report, bound):
    """A requirement's measured value and verdict as docs/bank-schema.md
    states them, from the design and its requirement-free report."""
    if kind is RequirementKind.MinThrustPerMotor:  # thrust at the operating RPM
        return report.static_thrust_per_motor, report.static_thrust_per_motor >= bound
    if kind is RequirementKind.MaxCurrentPerMotor:  # torque-route hover current
        return report.hover_torque_current_per_motor, report.hover_torque_current_per_motor <= bound
    if kind is RequirementKind.MinEndurance:
        return report.endurance, report.endurance >= bound
    if kind is RequirementKind.MaxMTOW:
        return design.mtow, design.mtow <= bound
    if kind is RequirementKind.FootprintMax:  # no declared footprint fails any bound
        footprint = math.inf if design.footprint is None else design.footprint
        return footprint, footprint <= bound
    if kind is RequirementKind.VoltageClass:  # the cell count equals the bound
        return design.battery_cells, design.battery_cells == bound
    raise AssertionError(kind)


@st.composite
def _designs(draw):
    cells = draw(st.sampled_from([3, 4, 6, 12]))
    return Design(
        kv=draw(st.floats(100, 1000)),
        current_limit_per_motor=draw(st.floats(5, 60)),
        battery_cells=cells,
        battery_voltage_nominal=3.7 * cells * draw(st.floats(0.96, 1.04)),
        battery_capacity=draw(st.floats(1, 30)),
        prop_diameter=draw(st.floats(8, 30)) * M_PER_IN,
        prop_pitch=draw(st.floats(3, 10)) * M_PER_IN,
        n_motors=draw(st.integers(1, 8)),
        mtow=draw(st.floats(0.5, 40)),
        thrust_coefficient_ct=draw(st.floats(0.02, 0.08)),
        footprint=draw(st.none() | st.floats(0.1, 3)),
    )


@settings(max_examples=200)
@given(
    design=_designs(),
    env=st.just(Environment()) | st.builds(Environment, st.floats(0.8, 1.3), st.floats(9.7, 9.9)),
    loaded_rpm=st.none() | st.floats(1000, 12000),
    data=st.data(),
)
def test_each_requirement_kind_measures_and_compares_as_documented(design, env, loaded_rpm, data):
    plain = evaluate_design(design, env, loaded_rpm=loaded_rpm)
    requirements = []
    for kind in RequirementKind:
        measured, _ = _documented_check(kind, design, plain, 0.0)
        if kind is RequirementKind.VoltageClass:
            bounds = st.integers(1, 14).map(float)
        else:
            bounds = st.floats(0, 5) if measured == math.inf else st.floats(0, 2 * measured)
        if measured != math.inf:
            bounds = st.just(float(measured)) | bounds  # a bound exactly at the measured value
        requirements.append(Requirement(kind.value, kind, data.draw(bounds, label=kind.value)))
    report = evaluate_design(design, env, requirements, loaded_rpm=loaded_rpm)
    for req, check in zip(requirements, report.requirement_checks, strict=True):
        assert (check.kind, check.bound) == (req.kind, req.bound)
        assert (check.measured, check.passed) == _documented_check(req.kind, design, plain, req.bound)


#: Each kind's test, written out: a minimum bound is met from below by >=, a maximum by <=.
_BOUND_OPERATORS = {
    RequirementKind.MinThrustPerMotor: operator.ge,
    RequirementKind.MaxCurrentPerMotor: operator.le,
    RequirementKind.MinEndurance: operator.ge,
    RequirementKind.MaxMTOW: operator.le,
    RequirementKind.FootprintMax: operator.le,
    RequirementKind.VoltageClass: operator.eq,
}
_EDGES = st.sampled_from([math.inf, -math.inf, 0.0, -0.0])


@settings(max_examples=300)
@given(kind=st.sampled_from(RequirementKind), measured=st.floats() | _EDGES | st.just(math.nan), data=st.data())
def test_a_bound_s_interval_meets_exactly_what_its_operator_does(kind, measured, data):
    # Also at infinities, signed zeros and a NaN measurement; two bounds of one kind meet
    # through the intersection of their intervals, as the grid walk takes it.
    if kind is RequirementKind.VoltageClass:
        bounds = st.integers(-2, 14).map(float) | st.just(-0.0)
    else:
        bounds = st.floats(allow_nan=False) | _EDGES
    first, second = (Requirement(name, kind, data.draw(bounds, label=name)) for name in ("first", "second"))
    test = _BOUND_OPERATORS[kind]
    quantities = {REQUIREMENT_RULES[kind].quantity: measured}
    for req in (first, second):
        lo, hi = req.interval
        assert (lo <= measured <= hi) is test(measured, req.bound)
        assert _measure(quantities, req)[1] is test(measured, req.bound)
    (lo, hi), (low, high) = first.interval, second.interval
    met = test(measured, first.bound) and test(measured, second.bound)
    assert (max(lo, low) <= measured <= min(hi, high)) is met
    with pytest.raises(ValueError, match="^requirement 'first' bound is NaN$"):
        first._replace(bound=math.nan)


@given(
    ct=st.floats(1e-4, 0.2),
    rho=st.floats(0.3, 2.0),
    rpm=st.floats(100, 30000),
    d=st.floats(0.05, 2.0),
    k=st.floats(0.1, 10),
)
def test_thrust_scaling_properties(ct, rho, rpm, d, k):
    base = static_thrust(ct, rho, rpm, d)
    assert static_thrust(ct, rho, rpm * k, d) == pytest.approx(base * k * k, rel=1e-9)
    assert static_thrust(ct, rho, rpm, d * k) == pytest.approx(base * k**4, rel=1e-9)


@given(kv=st.floats(1, 10000))
def test_kt_kv_property(kv):
    assert torque_constant(kv) * kv * (2 * math.pi / 60) == pytest.approx(1, abs=1e-12)


def test_inch_conversion_exact():
    assert M_PER_IN == 0.0254
