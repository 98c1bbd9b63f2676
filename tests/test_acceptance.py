"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import brute_force_front, objective_vector
from eagibench.bank import SampleMode, sample, shipped_bank_path
from eagibench.design_space import (
    BatteryOption,
    DesignGrid,
    dominates,
    enumerate_designs,
    pareto_front,
)
from eagibench.harness import OracleAgent, ReplayAgent, run_evaluation
from eagibench.propulsion import (
    Environment,
    M_PER_IN,
    calibrate_ct,
    hover_endurance,
    ideal_hover_power,
    max_torque,
    no_load_rpm,
    required_thrust_per_motor,
    static_thrust,
    thrust_scale_factor,
    torque_constant,
)
from eagibench.scoring import Verdict, score_answer
from eagibench.taxonomy import TagFilter


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


def test_criterion_1_golden_physics_values():
    with criterion("1. golden physics values (< 1 s)"):
        start = time.perf_counter()

        assert no_load_rpm(380, 22.2) == pytest.approx(8436, abs=1e-9)

        assert torque_constant(380) == pytest.approx(0.0251, abs=0.0001)
        assert torque_constant(420) == pytest.approx(0.0227, abs=0.0001)
        drop = 1 - max_torque(420, 25) / max_torque(380, 25)
        assert drop == pytest.approx(0.10, abs=0.01)

        assert thrust_scale_factor(18 * M_PER_IN, 20 * M_PER_IN) == pytest.approx(1.52, abs=0.01)

        assert required_thrust_per_motor(12, 4, 9.81) == pytest.approx(29.4, abs=0.1)
        assert required_thrust_per_motor(14, 4, 9.81) == pytest.approx(34.3, abs=0.1)
        assert required_thrust_per_motor(11, 8, 9.81) == pytest.approx(13.5, abs=0.1)

        d18 = 18 * M_PER_IN
        ct = calibrate_ct(26.4, 1.225, 7500, d18)
        assert static_thrust(ct, 1.225, 7500, d18) == pytest.approx(26.4, abs=0.05)
        thrust_full = static_thrust(ct, 1.225, 8436, d18)
        assert thrust_full == pytest.approx(33.4, abs=0.5)
        assert thrust_full > 29.43

        power = ideal_hover_power(9 * 9.81, 0.9, 0.636, 0.7)
        assert power == pytest.approx(1108, abs=5)
        endurance = hover_endurance(10, 22.2, 0.95, power)
        assert endurance == pytest.approx(11.4, abs=0.2)
        assert 11.0 <= endurance <= 12.5

        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_agent_self_consistency(bank, instances):
    with criterion("2. oracle-agent self-consistency (< 10 s)"):
        start = time.perf_counter()
        agent = OracleAgent(list(instances.values()))
        report = run_evaluation(
            sample(bank, TagFilter.empty(), len(bank.templates), SampleMode.Curriculum, 0), agent
        )
        by_id = {item.instance_id: item for item in report.items}
        for item in report.items:
            if item.level <= 4:
                assert item.score.verdict is Verdict.Pass, item.instance_id
        # the L5 reference designs themselves must score Pass
        for item_id in (
            "l5-quad-14kg",
            "l5-coaxial-11kg",
            "l5-highalt-9kg",
            "l5-quad-10kg-min-current",
        ):
            assert by_id[item_id].score.verdict is Verdict.Pass, item_id
            assert by_id[item_id].score.value == 1.0
        assert time.perf_counter() - start < 10.0


def test_criterion_3_patch_and_simulate(instances):
    with criterion("3. patch-and-simulate fixes for the 12 kg / 7500 RPM scenario"):
        spec = instances["l4-thrust-fix"].answer_spec

        def grade(patch):
            return score_answer(spec, "```json\n" + json.dumps({"patch": patch}) + "\n```")

        assert grade({"prop_diameter_in": 19}).verdict is Verdict.Pass
        assert grade({"prop_pitch_in": 7}).verdict is Verdict.Pass  # bank-declared Ct override
        assert grade({}).verdict is Verdict.Fail


def test_criterion_4_pareto_property_suite():
    with criterion("4. pareto front vs brute force on 200 seeded grids"):
        env = Environment()
        for i in range(200):
            rng = random.Random(20_000 + i)
            cells = rng.choice([4, 6, 8, 12])
            while True:
                grid = DesignGrid(
                    kv_values=tuple(
                        sorted(rng.uniform(200, 600) for _ in range(rng.randint(1, 4)))
                    ),
                    prop_diameters=tuple(
                        sorted(rng.uniform(0.25, 0.6) for _ in range(rng.randint(1, 3)))
                    ),
                    prop_pitches=tuple(
                        sorted(rng.uniform(0.1, 0.2) for _ in range(rng.randint(1, 2)))
                    ),
                    battery_options=tuple(
                        BatteryOption(cells, 3.7 * cells, rng.uniform(4, 16))
                        for _ in range(rng.randint(1, 2))
                    ),
                    n_motors_options=tuple(
                        sorted({rng.randint(2, 8) for _ in range(rng.randint(1, 2))})
                    ),
                )
                if grid.size <= 60:
                    break
            designs = enumerate_designs(grid, rng.uniform(4, 20))
            vectors = [objective_vector(d, env) for d in designs]
            expected = [designs[k] for k in brute_force_front(vectors)]
            assert pareto_front(designs, env) == expected, f"grid seed {20_000 + i}"
            # dominance sanity on all sampled pairs
            for a in vectors[:10]:
                assert not dominates(a, a)
                for b in vectors[:10]:
                    assert not (dominates(a, b) and dominates(b, a))


def test_criterion_5_run_determinism(bank, instances, tmp_path):
    with criterion("5. identical runs give identical scores and competence"):
        agent = OracleAgent(list(instances.values()))
        answers = {
            i.id: agent.answer(i.prompt, {"instance_id": i.id}) for i in instances.values()
        }
        path = tmp_path / "answers.json"
        path.write_text(json.dumps(answers), encoding="utf-8")

        def run():
            return run_evaluation(
                sample(bank, TagFilter.empty(), 16, SampleMode.Targeted, 2024), ReplayAgent(path)
            )

        a, b = run(), run()
        assert [(i.instance_id, i.score.value, i.score.verdict) for i in a.items] == [
            (i.instance_id, i.score.value, i.score.verdict) for i in b.items
        ]
        assert a.competence_level == b.competence_level
        da, db = a.to_dict(), b.to_dict()
        for d in (da, db):
            d.pop("run_id")
            d.pop("started_at")
            d.pop("duration_s")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_criterion_6_scaling_laws():
    with criterion("6. thrust scaling laws and Kt identity"):
        rng = random.Random(616)
        for _ in range(1000):
            ct = rng.uniform(1e-3, 0.2)
            rho = rng.uniform(0.3, 2.0)
            rpm = rng.uniform(100, 30000)
            d = rng.uniform(0.05, 2.0)
            k = rng.uniform(0.1, 10)
            base = static_thrust(ct, rho, rpm, d)
            quad = static_thrust(ct, rho, rpm * k, d)
            assert abs(quad - base * k * k) <= 1e-9 * abs(quad)
            quartic = static_thrust(ct, rho, rpm, d * k)
            assert abs(quartic - base * k**4) <= 1e-9 * abs(quartic)

            kv = rng.uniform(1, 10000)
            assert abs(torque_constant(kv) * kv * (2 * math.pi / 60) - 1) <= 1e-12


def test_criterion_7_endurance_substitution_documented(instances):
    # The 12-14 min hover claim for the 14 kg task is inconsistent with its
    # own capacity/current figures, so endurance is NOT a scored requirement
    # there; the endurance acceptance rests on the parametric-constraint
    # check in criterion 1 instead.
    with criterion("7. endurance figure excluded from scoring (documented substitution)"):
        spec = instances["l5-quad-14kg"].answer_spec
        kinds = {r.kind.value for r in spec.requirements}
        assert "MinEndurance" not in kinds
        raw = json.loads(shipped_bank_path().read_text(encoding="utf-8"))
        template = next(t for t in raw["templates"] if t["id"] == "l5-quad-14kg")
        assert "not a scored requirement" in template["notes"]
        # the capacity/power model indeed contradicts the 12-minute figure
        from eagibench.propulsion import evaluate_design

        report = evaluate_design(spec.reference_design, spec.environment, ())
        assert report.endurance == pytest.approx(9.3, abs=0.3)
        assert report.endurance < 12
