import dataclasses
import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from eagibench.design_space import (
    BatteryOption,
    DesignGrid,
    ObjectiveVector,
    ReferenceFront,
    dominates,
    enumerate_designs,
    feasible_set,
    front_indices,
    grid_evaluations,
    grid_from_dict,
    objective_vector,
    pareto_front,
    reference_front,
    report_objectives,
)
from eagibench.propulsion import (
    Design,
    Environment,
    M_PER_IN,
    PhysicsDomainError,
    Requirement,
    RequirementKind,
    RequirementSet,
    evaluate_design,
    prop_key,
)

BATTERY_6S = BatteryOption(cells=6, voltage=22.2, capacity=12)


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
        overrides = {"18x6": 0.05}
        grid = _grid(kv_values=(380.0,), prop_diameters=(18 * M_PER_IN,), ct_overrides=overrides)
        overrides["18x6"] = 0.0
        with pytest.raises(TypeError):
            grid.ct_overrides["18x6"] = -1.0
        assert enumerate_designs(grid, 12)[0].thrust_coefficient_ct == 0.05


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


def _brute_force_front(vectors):
    """Independent O(n^2) pairwise filter over raw objective tuples."""

    def dom(a, b):
        ge = a[0] <= b[0] and a[1] >= b[1] and a[2] >= b[2]
        st_ = a[0] < b[0] or a[1] > b[1] or a[2] > b[2]
        return ge and st_

    tuples = [(v.hover_current_per_motor, v.thrust_margin, v.endurance) for v in vectors]
    return [
        i
        for i, v in enumerate(tuples)
        if not any(j != i and dom(w, v) for j, w in enumerate(tuples))
    ]


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
            expected = [designs[i] for i in _brute_force_front(vectors)]
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
    assert front_indices(vectors) == _brute_force_front(vectors)


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
    """A small grid (axis values may repeat), Ct overrides on some of its
    propellers, a takeoff weight, an environment, and a requirement set
    drawing each kind with probability one half."""
    def axis(values, max_size):
        return tuple(draw(st.lists(values, min_size=1, max_size=max_size)))

    diameters = axis(st.sampled_from([16.0, 18.0]) | st.floats(10, 24), 3)
    pitches = axis(st.sampled_from([5.0, 6.0]) | st.floats(3, 9), 2)
    batteries = tuple(
        BatteryOption(cells, 3.7 * cells * draw(st.floats(0.96, 1.04)),
                      draw(st.sampled_from([8.0, 12.0]) | st.floats(2, 20)))
        for cells in axis(st.sampled_from([4, 6, 12]), 3)
    )
    props = [prop_key(d * M_PER_IN, p * M_PER_IN) for d in diameters for p in pitches]
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
    requirements = RequirementSet(tuple(
        Requirement(kind.value, kind, draw(bound))
        for kind, bound in _REQUIREMENT_BOUNDS.items()
        if draw(st.booleans())
    ))
    return grid, draw(st.floats(3, 25)), env, requirements


@settings(max_examples=150, deadline=None)
@given(_staged_cases())
def test_factored_pass_matches_per_design_evaluation(case):
    grid, mtow, env, requirements = case
    staged = list(grid_evaluations(grid, mtow, env, requirements))
    assert [design for design, _, _ in staged] == enumerate_designs(grid, mtow)
    feasible = []
    for design, objectives, passed in staged:
        report = evaluate_design(design, env, requirements)
        assert ObjectiveVector(*objectives) == report_objectives(report)
        assert passed == report.all_requirements_pass
        if passed:
            feasible.append(report_objectives(report))
    reference = reference_front(grid, mtow, env, requirements)
    assert reference == ReferenceFront.from_vectors(feasible)


@settings(max_examples=100, deadline=None)
@given(_staged_cases())
def test_grid_designs_equal_validated_designs(case):
    grid, mtow, _, _ = case
    designs = enumerate_designs(grid, mtow)
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
        validated = Design(**dataclasses.asdict(design))
        assert design == validated and repr(design) == repr(validated)
        assert hash(design) == hash(validated)
        assert dataclasses.replace(design) == design
        assert pickle.loads(pickle.dumps(design)) == design
        with pytest.raises(PhysicsDomainError):
            dataclasses.replace(design, mtow=0.0)


def test_grid_from_dict_units():
    grid = grid_from_dict(
        {
            "kv_rpm_per_volt": [380],
            "prop_diameter_in": [18],
            "prop_pitch_in": [6],
            "battery_options": [{"cells": 6, "voltage_v": 22.2, "capacity_ah": 12}],
            "n_motors": [4],
        }
    )
    assert grid.prop_diameters[0] == pytest.approx(18 * 0.0254)
