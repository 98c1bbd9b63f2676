import collections
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_force_front, front_of, objective_vector
from eagibench import design_space
from eagibench.design_space import (
    BatteryOption,
    DesignGrid,
    ObjectiveVector,
    dominates,
    enumerate_designs,
    front_indices,
    pareto_front,
    reference_front,
    report_objectives,
)
from eagibench.propulsion import (
    CT_DEFAULT,
    Design,
    Environment,
    M_PER_IN,
    PhysicsDomainError,
    Requirement,
    RequirementKind,
    RequirementSet,
    evaluate_design,
)

BATTERY_6S = BatteryOption(cells=6, voltage=22.2, capacity=12)


def feasible_set(designs, env, requirements=()):
    """Brute-force reference for the grid walk: the designs whose evaluation
    passes every requirement, order preserved."""
    return [d for d in designs if evaluate_design(d, env, requirements).all_requirements_pass]


def grid_evaluations(grid, mtow, env, requirements=()):
    """Each design of ``enumerate_designs(grid, mtow)`` that passes every
    requirement, in order, with its objective vector: each member of each
    group of ``design_space._walk``.  The walk runs at the call, so a rejected
    grid raises there."""
    groups = design_space._walk(grid, mtow, env, requirements)
    designs = enumerate_designs(grid, mtow)
    evaluations = sorted((first + i, current, margin, endurance)
                         for first, current, margin, (members, _, _, _) in groups for i, endurance in members)
    return ((designs[i], ObjectiveVector(*objectives)) for i, *objectives in evaluations)


def _grid(**overrides):
    base = dict(
        kv_values=(340.0, 380.0, 420.0),
        prop_diameters=(18 * M_PER_IN, 20 * M_PER_IN),
        prop_pitches=(6 * M_PER_IN,),
        battery_options=(BATTERY_6S,),
        n_motors_options=(4,),
    )
    base.update(overrides)
    return DesignGrid(**base)


class TestEnumerate:
    def test_singleton_grid(self):
        grid = _grid(kv_values=(380.0,), prop_diameters=(18 * M_PER_IN,))
        assert len(enumerate_designs(grid, 12)) == 1

    def test_product_cardinality(self):
        assert len(enumerate_designs(_grid(), 12)) == 6
        assert _grid().size == 6

    def test_deterministic_order(self):
        a = enumerate_designs(_grid(), 12)
        b = enumerate_designs(_grid(), 12)
        assert a == b
        # lexicographic in axis order: kv varies slowest
        assert [d.kv for d in a] == [340, 340, 380, 380, 420, 420]

    @pytest.mark.parametrize("mtow", [0, -1, math.nan, math.inf])
    def test_takeoff_weight_outside_the_domain_rejected(self, mtow):
        with pytest.raises(PhysicsDomainError, match="mtow must be positive and finite"):
            enumerate_designs(_grid(), mtow)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            _grid(kv_values=())

    def test_ct_overrides_cannot_change_after_the_grid_checked_them(self):
        prop = (18 * M_PER_IN, 6 * M_PER_IN)
        overrides = {prop: 0.05}
        grid = _grid(kv_values=(380.0,), prop_diameters=(18 * M_PER_IN,), ct_overrides=overrides)
        overrides[prop] = 0.0
        with pytest.raises(TypeError):
            grid.ct_overrides[prop] = -1.0
        assert enumerate_designs(grid, 12)[0].thrust_coefficient_ct == 0.05


@st.composite
def _enumerable_grids(draw):
    """A grid of 1-3 values on each axis (values may repeat), every battery a valid pack, Ct
    overrides on some of its propellers, and a takeoff weight."""
    def axis(values):
        return tuple(draw(st.lists(values, min_size=1, max_size=3)))

    packs = st.builds(lambda cells, ratio, capacity: BatteryOption(cells, 3.7 * cells * ratio, capacity),
                      st.integers(1, 14), st.floats(0.96, 1.04), st.floats(1, 30))
    diameters, pitches = axis(st.floats(0.1, 1.0)), axis(st.floats(0.05, 0.5))
    grid = DesignGrid(
        kv_values=axis(st.floats(100, 3000)), prop_diameters=diameters, prop_pitches=pitches,
        battery_options=axis(packs), n_motors_options=axis(st.integers(1, 12)),
        current_limit_per_motor=draw(st.floats(1, 100)),
        ct_overrides=draw(st.dictionaries(st.sampled_from([(d, p) for d in diameters for p in pitches]),
                                          st.floats(0.02, 0.08))),
    )
    return grid, draw(st.floats(0.5, 50))


@settings(max_examples=100, deadline=None)
@given(_enumerable_grids())
def test_enumeration_reads_as_the_list_of_checked_product_designs(case):
    # The view reads as the list the checked constructor builds over the axes, in AXES order.
    grid, mtow = case
    expected = [
        Design(kv=kv, current_limit_per_motor=grid.current_limit_per_motor, battery_cells=b.cells,
               battery_voltage_nominal=b.voltage, battery_capacity=b.capacity, prop_diameter=d, prop_pitch=p,
               n_motors=n, mtow=mtow, thrust_coefficient_ct=grid.ct_overrides.get((d, p), CT_DEFAULT))
        for kv, d, p, b, n in itertools.product(*(getattr(grid, axis) for axis in DesignGrid.AXES))
    ]
    designs, n = enumerate_designs(grid, mtow), len(expected)
    assert len(designs) == n
    assert list(designs) == expected
    assert [designs[i] for i in range(-n, n)] == expected + expected
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            designs[i]


def test_enumerating_a_million_point_grid_builds_no_design():
    # A list of 10^6 designs needs well over 100 MB; the view holds one template per non-Kv point.
    grid = DesignGrid(
        kv_values=tuple(100.0 + i for i in range(100)),
        prop_diameters=tuple(0.2 + 0.005 * i for i in range(100)),
        prop_pitches=tuple(0.05 + 0.01 * i for i in range(10)),
        battery_options=tuple(BatteryOption(6, 22.2, 1.0 + i) for i in range(10)),
        n_motors_options=(4,),
    )
    tracemalloc.start()
    try:
        designs = enumerate_designs(grid, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(designs) == 10**6
    assert designs[-1] == Design(kv=199.0, current_limit_per_motor=25.0, battery_cells=6, battery_voltage_nominal=22.2,
                                 battery_capacity=10.0, prop_diameter=0.2 + 0.005 * 99, prop_pitch=0.05 + 0.01 * 9,
                                 n_motors=4, mtow=12)
    assert peak < 8 * 2**20


class TestDominates:
    def test_equal_vectors(self):
        v = ObjectiveVector(10, 5, 9)
        assert not dominates(v, v)

    def test_better_in_one_axis_equal_elsewhere(self):
        a = ObjectiveVector(10, 6, 9)
        b = ObjectiveVector(10, 5, 9)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_incomparable(self):
        a = ObjectiveVector(9, 5, 9)  # better current
        b = ObjectiveVector(10, 6, 9)  # better margin
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_current_is_minimized(self):
        a = ObjectiveVector(8, 5, 9)
        b = ObjectiveVector(10, 5, 9)
        assert dominates(a, b)


class TestFeasibleSet:
    def test_empty_requirements_returns_input(self):
        designs = enumerate_designs(_grid(), 12)
        assert feasible_set(designs, Environment(), ()) == designs

    def test_unsatisfiable_bound(self):
        designs = enumerate_designs(_grid(), 12)
        reqs = RequirementSet(
            (Requirement("t", RequirementKind.MinThrustPerMotor, math.inf),)
        )
        assert feasible_set(designs, Environment(), reqs) == []

    def test_idempotent(self):
        designs = enumerate_designs(_grid(), 12)
        reqs = RequirementSet(
            (Requirement("t", RequirementKind.MinThrustPerMotor, 29.43),)
        )
        once = feasible_set(designs, Environment(), reqs)
        assert feasible_set(once, Environment(), reqs) == once

    def test_14kg_22a_grid_keeps_340kv_20in(self, bank):
        # The 14 kg / 22 A task's grid must keep the 340 Kv / 20 in design.
        grid = bank.grids["quad-14kg"]
        designs = enumerate_designs(grid, 14)
        reqs = RequirementSet(
            (
                Requirement("thrust", RequirementKind.MinThrustPerMotor, 14 * 9.81 / 4),
                Requirement("current", RequirementKind.MaxCurrentPerMotor, 22),
            )
        )
        feasible = feasible_set(designs, Environment(), reqs)
        assert any(
            d.kv == 340 and d.prop_diameter == pytest.approx(20 * M_PER_IN) for d in feasible
        )
        # and its per-motor hover current sits in the expected operating band
        target = next(d for d in feasible if d.kv == 340 and d.prop_diameter == pytest.approx(20 * M_PER_IN))
        vec = objective_vector(target, Environment())
        assert 19 <= vec.hover_current_per_motor <= 21


def _random_grid(rng: random.Random) -> DesignGrid:
    def axis(lo, hi, max_len):
        return tuple(sorted(rng.uniform(lo, hi) for _ in range(rng.randint(1, max_len))))

    cells = rng.choice([4, 6, 8, 12])
    batteries = tuple(
        BatteryOption(cells=cells, voltage=3.7 * cells, capacity=rng.uniform(4, 16))
        for _ in range(rng.randint(1, 2))
    )
    while True:
        grid = DesignGrid(
            kv_values=axis(200, 600, 4),
            prop_diameters=axis(0.25, 0.6, 3),
            prop_pitches=axis(0.1, 0.2, 2),
            battery_options=batteries,
            n_motors_options=tuple(
                sorted({rng.randint(2, 8) for _ in range(rng.randint(1, 2))})
            ),
        )
        if grid.size <= 60:
            return grid


class TestParetoFront:
    def test_singleton(self):
        designs = enumerate_designs(
            _grid(kv_values=(380.0,), prop_diameters=(18 * M_PER_IN,)), 12
        )
        assert pareto_front(designs, Environment()) == designs

    def test_dominated_design_excluded(self):
        # Same diameter, higher Kv: equal bus-side objectives except margin,
        # but higher torque current, so both should survive; craft a clean
        # dominance instead via objective vectors on two explicit designs.
        grid = _grid(kv_values=(340.0, 380.0), prop_diameters=(18 * M_PER_IN,))
        designs = enumerate_designs(grid, 12)
        vecs = [objective_vector(d, Environment()) for d in designs]
        front = pareto_front(designs, Environment())
        if dominates(vecs[0], vecs[1]):
            assert front == [designs[0]]
        elif dominates(vecs[1], vecs[0]):
            assert front == [designs[1]]
        else:
            assert front == designs

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([], Environment())

    def test_matches_brute_force_on_seeded_grids(self):
        env = Environment()
        for i in range(50):
            rng = random.Random(5000 + i)
            grid = _random_grid(rng)
            designs = enumerate_designs(grid, rng.uniform(4, 20))
            vectors = [objective_vector(d, env) for d in designs]
            expected = [designs[i] for i in brute_force_front(vectors)]
            assert pareto_front(designs, env) == expected

    def test_front_is_mutually_non_dominated_and_covers_exclusions(self):
        env = Environment()
        rng = random.Random(99)
        grid = _random_grid(rng)
        designs = enumerate_designs(grid, 10)
        front = pareto_front(designs, env)
        front_vecs = [objective_vector(d, env) for d in front]
        for i, a in enumerate(front_vecs):
            assert not any(dominates(b, a) for j, b in enumerate(front_vecs) if i != j)
        excluded = [d for d in designs if d not in front]
        for d in excluded:
            v = objective_vector(d, env)
            assert any(dominates(f, v) for f in front_vecs)


_vectors = st.builds(
    ObjectiveVector,
    hover_current_per_motor=st.floats(0, 100, allow_nan=False),
    thrust_margin=st.floats(-50, 50, allow_nan=False),
    endurance=st.floats(0, 60, allow_nan=False),
)


# Coordinates drawn from small sets, so exact ties and duplicate vectors
# are common; 0.0 and -0.0 compare equal.
_CURRENTS = (1.0, 2.0, 2.5, 4.0)
_MARGINS = (-1.0, -0.0, 0.0, 1.0, 3.0)
_ENDURANCES = (5.0, 6.0, 7.5)
_tied_vectors = st.builds(
    ObjectiveVector,
    st.sampled_from(_CURRENTS),
    st.sampled_from(_MARGINS),
    st.sampled_from(_ENDURANCES),
)


def _seeded_tied_vectors(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [
        ObjectiveVector(rng.choice(_CURRENTS), rng.choice(_MARGINS), rng.choice(_ENDURANCES))
        for _ in range(n)
    ]


@settings(max_examples=40, deadline=None)
@example(_seeded_tied_vectors(1, 2000))
@given(
    st.one_of(
        st.lists(_tied_vectors, max_size=60),
        st.builds(_seeded_tied_vectors, st.integers(0, 2**32), st.integers(0, 2000)),
    )
)
def test_sorted_front_matches_brute_force(vectors):
    assert front_indices(list(zip(*vectors))) == brute_force_front(vectors)


@given(_vectors)
def test_dominates_irreflexive(v):
    assert not dominates(v, v)


@given(_vectors, _vectors)
def test_dominates_antisymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(_vectors, _vectors, _vectors)
def test_no_short_dominance_cycles(a, b, c):
    assert not (dominates(a, b) and dominates(b, c) and dominates(c, a))


_REQUIREMENT_BOUNDS = {
    RequirementKind.MinThrustPerMotor: st.floats(0, 150),
    RequirementKind.MaxCurrentPerMotor: st.floats(0, 60),
    RequirementKind.MinEndurance: st.floats(0, 40),
    RequirementKind.MaxMTOW: st.floats(0, 30),
    RequirementKind.FootprintMax: st.floats(0, 2),  # grid designs declare none: nothing passes
    RequirementKind.VoltageClass: st.sampled_from([4.0, 6.0, 12.0]),
}


@st.composite
def _staged_cases(draw):
    """A small grid (axis values may repeat, and batteries of one cell count
    may share a voltage, as in the dense bench grids), Ct overrides on some of its
    propellers, a takeoff weight, an environment, and a requirement set
    drawing each kind with probability one half, then sometimes a second
    bound of a kind already drawn."""
    def axis(values, max_size):
        return tuple(draw(st.lists(values, min_size=1, max_size=max_size)))

    diameters = axis(st.sampled_from([16.0, 18.0]) | st.floats(10, 24), 3)
    pitches = axis(st.sampled_from([5.0, 6.0]) | st.floats(3, 9), 2)
    batteries = tuple(
        BatteryOption(cells, 3.7 * cells * draw(st.just(1.0) | st.floats(0.96, 1.04)),
                      draw(st.sampled_from([8.0, 12.0]) | st.floats(2, 20)))
        for cells in axis(st.sampled_from([4, 6, 12]), 3)
    )
    props = [(d * M_PER_IN, p * M_PER_IN) for d in diameters for p in pitches]
    grid = DesignGrid(
        kv_values=axis(st.sampled_from([300.0, 340.0, 400.0]) | st.floats(150, 700), 3),
        prop_diameters=tuple(d * M_PER_IN for d in diameters),
        prop_pitches=tuple(p * M_PER_IN for p in pitches),
        battery_options=batteries,
        n_motors_options=axis(st.sampled_from([2, 4, 6, 8]), 2),
        current_limit_per_motor=draw(st.floats(10, 40)),
        ct_overrides=draw(st.dictionaries(st.sampled_from(props), st.floats(0.02, 0.08))),
    )
    env = draw(st.just(Environment()) | st.builds(Environment, st.floats(0.8, 1.3), st.floats(9.7, 9.9)))
    kinds = [kind for kind in _REQUIREMENT_BOUNDS if draw(st.booleans())]
    if kinds:
        kinds += draw(st.lists(st.sampled_from(kinds), max_size=2))
    requirements = RequirementSet(tuple(
        Requirement(f"{kind.value}-{i}", kind, draw(_REQUIREMENT_BOUNDS[kind])) for i, kind in enumerate(kinds)
    ))
    return grid, draw(st.floats(3, 25)), env, requirements


@settings(max_examples=150, deadline=None)
@given(_staged_cases())
def test_factored_pass_matches_per_design_evaluation(case):
    # The walk yields exactly the designs evaluate_design passes, in order, with their objectives.
    grid, mtow, env, requirements = case
    feasible = feasible_set(enumerate_designs(grid, mtow), env, requirements)
    vectors = [report_objectives(evaluate_design(design, env)) for design in feasible]
    assert list(grid_evaluations(grid, mtow, env, requirements)) == list(zip(feasible, vectors))
    assert reference_front(grid, mtow, env, requirements) == front_of(vectors)


def test_each_requirement_checked_once_per_distinct_quantity(monkeypatch):
    # Four batteries at three voltages; the 4S one fails the cell check.  Only six motors meet
    # the endurance bound, and at 22.2 V / 10 Ah only on the 20x6 propeller.  At 400 Kv no
    # motor count meets the current bound; at 340 Kv six motors do, and the 18x6 propeller
    # misses the thrust bound at 22.2 V.
    batteries = (BatteryOption(6, 22.2, 10.0), BatteryOption(6, 22.2, 12.0),
                 BatteryOption(4, 14.8, 8.0), BatteryOption(6, 23.0, 10.0))
    grid = _grid(kv_values=(340.0, 400.0), battery_options=batteries, n_motors_options=(4, 6))
    requirements = RequirementSet(tuple(
        Requirement(kind.value, kind, bound) for kind, bound in (
            (RequirementKind.MinThrustPerMotor, 27.0), (RequirementKind.MaxCurrentPerMotor, 12.0),
            (RequirementKind.MinEndurance, 12.0), (RequirementKind.VoltageClass, 6.0),
            (RequirementKind.MaxMTOW, 12.0),
        )
    ))
    expected = reference_front(grid, 12, Environment(), requirements)
    assert len(expected.front) == 2
    # The walk runs check_grid once, then hover_stage and the unchecked Kt, thrust and endurance
    # expressions; check_grid runs the checked stages.  Each requirement is compared inline with
    # the value a stage call just made, so the stage calls count the checks.
    stages = {name: [] for name in ("check_grid", "thrust_stage", "hover_stage", "endurance_stage",
                                    "_torque_constant", "_static_thrust", "_hover_endurance")}
    for name, calls in stages.items():
        def recorded(*args, stage=getattr(design_space, name), calls=calls):
            calls.append(args)
            return stage(*args)
        monkeypatch.setattr(design_space, name, recorded)
    assert reference_front(grid, 12, Environment(), requirements) == expected
    # check_grid runs thrust per propeller at the largest Kv and voltage, and hover and
    # endurance per propeller and motor count; the walk reuses the hover figures it returns.
    assert len(stages["check_grid"]) == 1
    assert sorted((kv, volts, round(d / M_PER_IN)) for kv, volts, _, d, _ in stages["thrust_stage"]) == [
        (400.0, 23.0, 18), (400.0, 23.0, 20)
    ]
    assert len(stages["hover_stage"]) == 4
    assert len(stages["endurance_stage"]) == 4
    # The walk's endurance runs before the Kv loop, once per 6S battery, propeller and motor
    # count; its thrust only at 340 Kv, and at 23.0 V only on the 20x6 propeller, the one
    # whose 23.0 V battery passed the endurance bound.
    assert sorted((capacity, volts) for capacity, volts, _, _ in stages["_hover_endurance"]) == [
        (10.0, 22.2)] * 4 + [(10.0, 23.0)] * 4 + [(12.0, 22.2)] * 4
    assert sorted((rpm, round(d / M_PER_IN)) for _, _, rpm, d in stages["_static_thrust"]) == [
        (340.0 * 22.2, 18), (340.0 * 22.2, 20), (340.0 * 23.0, 20)
    ]
    # check_grid takes Kt at the largest Kv; the walk once per Kv, for every current at that Kv.
    assert stages["_torque_constant"] == [(400.0,), (340.0,), (400.0,)]
    for name in ("_static_thrust", "_hover_endurance"):  # once per distinct input
        assert max(collections.Counter(stages[name]).values()) == 1


def test_propeller_whose_endurance_fails_everywhere_runs_no_kv_stage(monkeypatch):
    # Below 13.5 min on every 18x6 point, above it on the 20x6 with six motors only.
    grid = _grid(n_motors_options=(4, 6))
    requirements = [Requirement("endurance", RequirementKind.MinEndurance, 13.5),
                    Requirement("current", RequirementKind.MaxCurrentPerMotor, 30.0),
                    Requirement("thrust", RequirementKind.MinThrustPerMotor, 20.0)]
    feasible = feasible_set(enumerate_designs(grid, 12), Environment(), requirements)
    assert {(round(d.prop_diameter / M_PER_IN), d.n_motors) for d in feasible} == {(20, 6)}
    thrusts, kts = [], []
    def recorded(ct, rho, rpm, diameter, stage=design_space._static_thrust):
        thrusts.append(diameter)
        return stage(ct, rho, rpm, diameter)
    monkeypatch.setattr(design_space, "_static_thrust", recorded)
    def counted(kv, stage=design_space._torque_constant):
        kts.append(kv)
        return stage(kv)
    monkeypatch.setattr(design_space, "_torque_constant", counted)
    assert [design for design, _ in grid_evaluations(grid, 12, Environment(), requirements)] == feasible
    # The 18x6 propeller has no column left: no thrust at any Kv; the 20x6 propeller runs
    # thrust once per Kv, after the six-motor current from that Kv's one Kt.
    assert thrusts == [20 * M_PER_IN] * 3
    assert kts == [max(grid.kv_values), *grid.kv_values]  # check_grid's, then one per Kv


def test_grid_the_oracle_cannot_evaluate_raises_before_the_walk():
    # At 1e307 Kv the no-load RPM overflows, but the current bound would rule the point out
    # before its thrust ran: the walk still checks the whole grid first, and yields nothing.
    grid = DesignGrid(kv_values=(340.0, 1e307), prop_diameters=(18 * M_PER_IN,), prop_pitches=(6 * M_PER_IN,),
                      battery_options=(BatteryOption(6, 22.2, 10.0),), n_motors_options=(4,))
    requirements = [Requirement("current", RequirementKind.MaxCurrentPerMotor, 30.0)]
    message = "static_thrust: rpm must be positive and finite, got inf"
    with pytest.raises(PhysicsDomainError, match=f"^{message}$"):
        next(grid_evaluations(grid, 12, Environment(), requirements))
    with pytest.raises(PhysicsDomainError, match=f"^{message}$"):
        reference_front(grid, 12, Environment(), requirements)


@settings(max_examples=100, deadline=None)
@given(_staged_cases())
def test_grid_designs_equal_validated_designs(case):
    grid, mtow, _, _ = case
    designs = enumerate_designs(grid, mtow)
    # Each design is a Design tuple, not a template or a tuple of another type.
    assert all(type(design) is Design for design in designs)
    points = itertools.product(
        grid.kv_values, grid.propellers(), grid.battery_options, grid.n_motors_options
    )
    assert designs == [
        Design(kv=kv, current_limit_per_motor=grid.current_limit_per_motor, battery_cells=b.cells,
               battery_voltage_nominal=b.voltage, battery_capacity=b.capacity, prop_diameter=d,
               prop_pitch=p, n_motors=n, mtow=mtow, thrust_coefficient_ct=ct)
        for kv, (d, p, ct), b, n in points
    ]
    for design in designs:
        validated = Design(**design._asdict())
        assert design == validated and repr(design) == repr(validated)
        assert hash(design) == hash(validated)
        assert design._replace() == design
        assert pickle.loads(pickle.dumps(design)) == design
        with pytest.raises(PhysicsDomainError):
            design._replace(mtow=0.0)


def test_pitch_variants_on_one_ct_share_their_current_and_thrust_checks(monkeypatch):
    # Pitches 5 and 6 in on the default Ct have the same current and thrust at each Kv.
    grid = _grid(kv_values=(340.0, 400.0), prop_diameters=(18 * M_PER_IN,), prop_pitches=(5 * M_PER_IN, 6 * M_PER_IN))
    requirements = [Requirement("current", RequirementKind.MaxCurrentPerMotor, 60.0),
                    Requirement("thrust", RequirementKind.MinThrustPerMotor, 20.0)]
    feasible = feasible_set(enumerate_designs(grid, 12), Environment(), requirements)
    assert len(feasible) == 4
    stages = {"_torque_constant": [], "_static_thrust": []}
    for name, calls in stages.items():
        def recorded(*args, stage=getattr(design_space, name), calls=calls):
            calls.append(args)
            return stage(*args)
        monkeypatch.setattr(design_space, name, recorded)
    assert [design for design, _ in grid_evaluations(grid, 12, Environment(), requirements)] == feasible
    # After check_grid's Kt, one Kt, so one current, and one thrust per Kv: both pitches share
    # them and their checks.
    assert stages["_torque_constant"] == [(400.0,), (340.0,), (400.0,)]
    assert [rpm for _, _, rpm, _ in stages["_static_thrust"]] == [340.0 * 22.2, 400.0 * 22.2]


def _front_inputs(monkeypatch) -> list:
    """Record the columns each ``front_indices`` call sweeps."""
    inputs = []
    def recorded(columns, sweep=design_space.front_indices):
        inputs.append([tuple(column) for column in columns])
        return sweep(columns)
    monkeypatch.setattr(design_space, "front_indices", recorded)
    return inputs


@pytest.mark.parametrize("kind", [RequirementKind.MinEndurance, RequirementKind.MaxCurrentPerMotor,
                                  RequirementKind.MinThrustPerMotor])
def test_a_bound_at_a_grid_design_s_measured_value_keeps_that_design_on_the_walk(kind):
    # Each bound is met at equality, as REQUIREMENT_RULES meets it, so a design whose measured
    # value is the bound passes and is walked: it sets an end of its quantity's range.
    grid, env = _grid(), Environment()
    designs = enumerate_designs(grid, 12)
    for design in designs:
        bound = evaluate_design(design, env, [Requirement("probe", kind, 0.0)]).requirement_checks[0].measured
        requirements = [Requirement("at-equality", kind, bound)]
        feasible = feasible_set(designs, env, requirements)
        assert design in feasible
        vectors = [report_objectives(evaluate_design(d, env)) for d in feasible]
        assert reference_front(grid, 12, env, requirements) == front_of(vectors)


def test_reference_front_sweeps_only_the_top_endurance_members(monkeypatch):
    # Three capacities at one voltage share each point's current and margin, so only the
    # largest can be on the front.
    batteries = tuple(BatteryOption(6, 22.2, capacity) for capacity in (10.0, 14.0, 12.0))
    grid = _grid(battery_options=batteries)
    requirements = [Requirement("current", RequirementKind.MaxCurrentPerMotor, 30.0)]
    evaluations = list(grid_evaluations(grid, 12, Environment(), requirements))
    inputs = _front_inputs(monkeypatch)
    front = reference_front(grid, 12, Environment(), requirements)
    tops = [vector for design, vector in evaluations if design.battery_capacity == 14.0]
    assert inputs == [list(zip(*tops))] and 3 * len(tops) == len(evaluations) > 0
    assert front == front_of([vector for _, vector in evaluations])


def test_equal_vectors_of_a_repeated_battery_are_both_on_the_front():
    batteries = (BATTERY_6S, BatteryOption(6, 22.2, 8.0), BATTERY_6S)
    grid = _grid(battery_options=batteries)
    feasible = [vector for _, vector in grid_evaluations(grid, 12, Environment())]
    front = reference_front(grid, 12, Environment())
    assert front == front_of(feasible) and len(feasible) == 18
    counts = collections.Counter(front.front)
    assert counts and set(counts.values()) == {2}
