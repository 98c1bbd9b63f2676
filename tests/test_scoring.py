import json

import pytest
from hypothesis import given, settings, strategies as st

from eagibench.bank import (
    DiagnosisSpec,
    FactSpec,
    FieldExpectation,
    NumericSpec,
    RubricCriterion,
    RubricSpec,
    StructuredSpec,
)
from eagibench import design_space, scoring
from eagibench.design_space import ObjectiveVector, ReferenceFront, dominates
from eagibench.propulsion import evaluate_design
from eagibench.scoring import (
    Evidence,
    Score,
    Verdict,
    extract,
    score_answer,
    score_design,
    score_diagnosis,
    score_fact,
    score_fix,
    score_numeric,
    score_rubric,
    score_structured,
)


def _fence(payload):
    return "```json\n" + json.dumps(payload) + "\n```"


RPM_SPEC = NumericSpec(value=8436.0, unit="RPM", rel_tol=0.02)


class TestExtract:
    def test_single_number_from_prose(self):
        ans = extract("The RPM is 8436.", "numeric", RPM_SPEC)
        assert ans.envelope["value"] == 8436
        assert ans.extraction in ("text-number", "text-unit-number")

    def test_envelope_wins_over_prose(self):
        text = "I think it is 9999 RPM.\n" + _fence({"value": 8436, "unit": "RPM"})
        ans = extract(text, "numeric", RPM_SPEC)
        assert ans.extraction == "envelope"
        assert ans.envelope["value"] == 8436

    def test_absence_is_unscorable_downstream(self):
        ans = extract("no idea", "numeric", RPM_SPEC)
        assert ans.envelope is None
        assert score_numeric("no idea", RPM_SPEC).verdict is Verdict.Unscorable

    def test_unit_adjacent_number_preferred(self):
        ans = extract("It weighs 12 kg and spins at 8436 RPM at best.", "numeric", RPM_SPEC)
        assert ans.envelope["value"] == 8436
        assert ans.extraction == "text-unit-number"

    def test_malformed_fence_falls_back_to_text(self):
        ans = extract("```json\n{not json}\n```\n8436 rpm", "numeric", RPM_SPEC)
        assert ans.envelope["value"] == 8436


class TestScoreNumeric:
    def test_exact_pass(self):
        assert score_numeric("8436 RPM", RPM_SPEC).verdict is Verdict.Pass

    def test_thrust_value_pass(self):
        spec = NumericSpec(value=26.4, unit="N", rel_tol=0.02)
        assert score_numeric("about 26.4 N of thrust", spec).verdict is Verdict.Pass

    def test_outside_band_fails(self):
        spec = NumericSpec(value=26.4, unit="N", rel_tol=0.02)
        score = score_numeric("30.0 N", spec)
        assert score.verdict is Verdict.Fail
        assert score.value == 0.0

    def test_unit_mismatch_fails_with_unit_evidence(self):
        score = score_numeric(_fence({"value": 8436, "unit": "W"}), RPM_SPEC)
        assert score.verdict is Verdict.Fail
        assert score.evidence[0].check_id == "unit"

    def test_unit_synonyms_accepted(self):
        score = score_numeric(_fence({"value": 8436, "unit": "rev/min"}), RPM_SPEC)
        assert score.verdict is Verdict.Pass

    def test_tolerance_boundary(self):
        spec = NumericSpec(value=100.0, unit="N", rel_tol=0.02)
        assert score_numeric("102 N", spec).verdict is Verdict.Pass
        assert score_numeric("102.1 N", spec).verdict is Verdict.Fail


THRUST_EQUATION = FactSpec(
    canonical="T = Ct * rho * n^2 * D^4",
    accepted_aliases=("thrust = ct * rho * n^2 * d^4",),
)


class TestScoreFact:
    def test_ascii_form_passes(self):
        assert score_fact("T = Ct * rho * n^2 * D^4", THRUST_EQUATION).verdict is Verdict.Pass

    def test_unicode_symbol_form_passes(self):
        assert score_fact("T = C_T · ρ · n² · D⁴", THRUST_EQUATION).verdict is Verdict.Pass

    def test_embedded_in_prose_passes(self):
        text = "The static thrust equation is T = Ct * rho * n^2 * D^4 for a propeller."
        assert score_fact(text, THRUST_EQUATION).verdict is Verdict.Pass

    def test_wrong_formula_fails(self):
        assert score_fact("T = Ct * rho * n^3 * D^2", THRUST_EQUATION).verdict is Verdict.Fail

    def test_empty_unscorable(self):
        assert score_fact("   ", THRUST_EQUATION).verdict is Verdict.Unscorable


PROP_FIELDS = StructuredSpec(
    fields=(
        FieldExpectation(name="diameter", kind="number", expected=18, unit="in", rel_tol=0.01),
        FieldExpectation(name="pitch", kind="number", expected=6, unit="in", rel_tol=0.01),
        FieldExpectation(
            name="type", kind="text", expected="fixed", aliases=("fixed-pitch",), match="contains"
        ),
    )
)


class TestScoreStructured:
    def test_all_fields_from_prose(self):
        text = "The propeller diameter is 18 inches, the pitch is 6 inches, and the type is fixed pitch."
        score = score_structured(text, PROP_FIELDS)
        assert score.verdict is Verdict.Pass
        assert score.value == 1.0

    def test_two_of_three_partial(self):
        score = score_structured(
            _fence({"fields": {"diameter": 18, "pitch": 5, "type": "fixed"}}), PROP_FIELDS
        )
        assert score.verdict is Verdict.Partial
        assert score.value == pytest.approx(2 / 3, abs=1e-9)

    def test_envelope_all_correct(self):
        score = score_structured(
            _fence({"fields": {"diameter": 18, "pitch": 6, "type": "fixed-pitch"}}), PROP_FIELDS
        )
        assert score.value == 1.0

    def test_nothing_found_fails(self):
        score = score_structured("it has propellers", PROP_FIELDS)
        assert score.verdict is Verdict.Fail


DIAG = DiagnosisSpec(
    accepted_causes=("insufficient-rpm-thrust",),
    vocabulary={
        "insufficient-rpm-thrust": ("insufficient thrust", "cannot lift", "thrust below"),
        "low-battery-voltage": ("battery voltage", "voltage too low"),
    },
)


class TestScoreDiagnosis:
    def test_prose_maps_to_accepted_cause(self):
        score = score_diagnosis("The props cannot lift 12 kg at 7500 RPM.", DIAG)
        assert score.verdict is Verdict.Pass

    def test_non_accepted_cause_fails(self):
        score = score_diagnosis("The battery voltage is too low.", DIAG)
        assert score.verdict is Verdict.Fail

    def test_envelope_cause_id(self):
        assert (
            score_diagnosis(_fence({"cause": "insufficient-rpm-thrust"}), DIAG).verdict
            is Verdict.Pass
        )

    def test_no_cause_unscorable(self):
        assert score_diagnosis("hmm, hard to say", DIAG).verdict is Verdict.Unscorable

    def test_multiple_accepted_causes_all_full_credit(self):
        spec = DiagnosisSpec(
            accepted_causes=("a", "b"),
            vocabulary={"a": ("alpha",), "b": ("beta",)},
        )
        assert score_diagnosis("clearly alpha", spec).value == 1.0
        assert score_diagnosis("clearly beta", spec).value == 1.0


class TestScoreFix:
    def test_diameter_patch_flips_thrust(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {"prop_diameter_in": 19}}), spec)
        assert score.verdict is Verdict.Pass
        assert any(e.outcome == "flipped" for e in score.evidence)

    def test_pitch_patch_with_ct_override_flips_thrust(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {"prop_pitch_in": 7}}), spec)
        assert score.verdict is Verdict.Pass

    def test_identity_patch_fails(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {}}), spec)
        assert score.verdict is Verdict.Fail

    def test_kv_patch_flips_overcurrent(self, instances):
        spec = instances["l4-overcurrent-fix"].answer_spec
        for kv in (340, 360):
            score = score_fix(_fence({"patch": {"kv_rpm_per_volt": kv}}), spec)
            assert score.verdict is Verdict.Pass, kv

    def test_unknown_field_unscorable_with_name(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {"warp_drive": 9}}), spec)
        assert score.verdict is Verdict.Unscorable
        assert "warp_drive" in score.evidence[0].detail

    def test_plain_text_patch(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix("Increase the diameter to 19 inches if structurally feasible.", spec)
        assert score.verdict is Verdict.Pass

    @pytest.mark.parametrize("value", [None, [19], 10**400])
    def test_malformed_patch_value_unscorable(self, instances, value):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {"prop_diameter_in": value}}), spec)
        assert score.verdict is Verdict.Unscorable

    def test_regression_detected(self, instances):
        # Dropping Kv on the climb item regresses nothing already passing;
        # craft a patch that fixes thrust but blows the current cap instead.
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {"thrust_coefficient_ct": 0.2}}), spec)
        flipped = any(e.outcome == "flipped" for e in score.evidence)
        regressed = any(e.outcome == "regressed" for e in score.evidence)
        assert flipped and regressed
        assert score.verdict is Verdict.Fail


class TestScoreDesign:
    def test_reference_design_passes(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_design(
            _fence({"design": {"kv_rpm_per_volt": 340, "prop_diameter_in": 20}}), spec
        )
        assert score.verdict is Verdict.Pass
        assert score.value == 1.0

    def test_infeasible_design_partial_below_0_7(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_design(
            _fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}}), spec
        )
        assert score.verdict is Verdict.Partial
        assert 0.0 < score.value <= 0.7
        assert any(e.check_id == "hover-thrust" and e.outcome == "fail" for e in score.evidence)

    def test_invalid_design_unscorable(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_design(
            _fence({"design": {"kv_rpm_per_volt": -5, "prop_diameter_in": 20}}), spec
        )
        assert score.verdict is Verdict.Unscorable

    @pytest.mark.parametrize("value", [[340], 10**400])
    def test_malformed_design_value_unscorable(self, instances, value):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_design(_fence({"design": {"kv_rpm_per_volt": value}}), spec)
        assert score.verdict is Verdict.Unscorable

    def test_one_oracle_call_per_grid_design(self, instances, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate_design(*args, **kwargs)

        monkeypatch.setattr(design_space, "evaluate_design", counting)
        monkeypatch.setattr(scoring, "evaluate_design", counting)
        spec = instances["l5-quad-14kg"].answer_spec
        score_design(_fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}}), spec)
        assert len(calls) == spec.grid.size + 1

    def test_plain_text_design(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        text = "Motor: 340 Kv (high-torque), Propeller: 20x6 inch fixed-pitch, Voltage: 6S (22.2V)."
        score = score_design(text, spec)
        assert score.verdict is Verdict.Pass

    def test_empty_requirements_trivially_passes_on_front(self, instances):
        import dataclasses

        from eagibench.propulsion import RequirementSet

        spec = dataclasses.replace(
            instances["l5-quad-14kg"].answer_spec, requirements=RequirementSet(())
        )
        score = score_design(
            _fence({"design": {"kv_rpm_per_volt": 340, "prop_diameter_in": 20}}), spec
        )
        # pareto component alone decides; the reference is on the front
        assert score.value == 1.0

    def test_monotonic_in_requirements(self, instances):
        import dataclasses

        from eagibench.propulsion import Requirement, RequirementKind, RequirementSet

        base_spec = instances["l5-quad-14kg"].answer_spec
        answer = _fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}})
        base_score = score_design(answer, base_spec)

        # adding a requirement the answer satisfies never lowers the value
        satisfied = dataclasses.replace(
            base_spec,
            requirements=RequirementSet(
                base_spec.requirements.requirements
                + (Requirement("extra-class", RequirementKind.VoltageClass, 6),)
            ),
        )
        assert score_design(answer, satisfied).value >= base_score.value - 1e-12

        # adding a violated one never raises it
        violated = dataclasses.replace(
            base_spec,
            requirements=RequirementSet(
                base_spec.requirements.requirements
                + (Requirement("extra-weight", RequirementKind.MaxMTOW, 1.0),)
            ),
        )
        assert score_design(answer, violated).value <= base_score.value + 1e-12


def _quadratic_gap(candidate, feasible):
    """The dominance gap as first written: O(F^2) front over the feasible list."""
    if not feasible:
        return 0.0
    if not any(dominates(f, candidate) for f in feasible):
        return 0.0
    front = [
        f
        for i, f in enumerate(feasible)
        if not any(j != i and dominates(feasible[j], f) for j in range(len(feasible)))
    ]
    axes = [("hover_current_per_motor", -1.0), ("thrust_margin", 1.0), ("endurance", 1.0)]
    ranges = {}
    for name, _ in axes:
        values = [getattr(f, name) for f in feasible]
        ranges[name] = max(values) - min(values)

    def shortfall(f):
        worst = 0.0
        for name, sign in axes:
            delta = sign * (getattr(f, name) - getattr(candidate, name))
            if delta <= 0:
                continue
            span = ranges[name]
            worst = max(worst, 1.0 if span <= 0 else min(1.0, delta / span))
        return worst

    return min(shortfall(f) for f in front)


# Small coordinate sets give ties, duplicates and zero-width axes.
_gap_vectors = st.builds(
    ObjectiveVector,
    st.sampled_from((1.0, 2.0, 2.5, 4.0, 7.25)),
    st.sampled_from((-1.0, 0.0, 0.5, 3.0)),
    st.sampled_from((5.0, 6.0, 7.5, 9.0)),
)


@settings(max_examples=200, deadline=None)
@given(_gap_vectors, st.lists(_gap_vectors, max_size=40))
def test_dominance_gap_matches_quadratic_reference(candidate, feasible):
    reference = ReferenceFront.from_vectors(feasible)
    assert scoring._dominance_gap(candidate, reference) == _quadratic_gap(candidate, feasible)


RUBRIC = RubricSpec(
    criteria=(
        RubricCriterion("sea-level-assumption", ("sea-level", "sea level")),
        RubricCriterion("air-density-effect", ("air density", "thinner air")),
        RubricCriterion("envelope-coverage", ("flight envelope", "did not simulate")),
        RubricCriterion("corrective-action", ("altitude-adjusted", "derate")),
    ),
    pass_threshold=0.6,
)


class TestScoreRubric:
    def test_full_answer_scores_one(self):
        text = (
            "The manufacturer maps are sea-level data and ignore the drop in air density; "
            "I did not simulate the full flight envelope, and should have used "
            "altitude-adjusted thrust."
        )
        score = score_rubric(text, RUBRIC)
        assert score.value == 1.0
        assert score.verdict is Verdict.Pass

    def test_density_only_quarter_fail(self):
        score = score_rubric("Maybe the air density was different.", RUBRIC)
        assert score.value == 0.25
        assert score.verdict is Verdict.Fail

    def test_empty_unscorable(self):
        assert score_rubric("", RUBRIC).verdict is Verdict.Unscorable

    def test_marked_heuristic(self):
        score = score_rubric("air density sea-level flight envelope derate", RUBRIC)
        assert any(e.outcome == "heuristic" for e in score.evidence)

    def test_judge_seam_replaces_heuristic(self):
        def judge(text, spec):
            return Score(1.0, Verdict.Pass, (Evidence("judge", "pass", "external"),))

        score = score_rubric("anything", RUBRIC, judge=judge)
        assert score.evidence[0].check_id == "judge"


class TestScoreInvariants:
    def test_objective_scorers_verdict_value_coupling(self, instances):
        # Pass => 1, Fail => 0, Partial strictly inside, for the objective
        # scorers (rubric is threshold-gated and exempt).
        cases = [
            score_numeric("8436 RPM", RPM_SPEC),
            score_numeric("1 RPM", RPM_SPEC),
            score_fact("T = Ct * rho * n^2 * D^4", THRUST_EQUATION),
            score_structured(
                _fence({"fields": {"diameter": 18, "pitch": 5, "type": "fixed"}}), PROP_FIELDS
            ),
            score_diagnosis(_fence({"cause": "insufficient-rpm-thrust"}), DIAG),
            score_fix(_fence({"patch": {"prop_diameter_in": 19}}), instances["l4-thrust-fix"].answer_spec),
        ]
        for score in cases:
            if score.verdict is Verdict.Pass:
                assert score.value == 1.0
            elif score.verdict is Verdict.Fail:
                assert score.value == 0.0
            elif score.verdict is Verdict.Partial:
                assert 0.0 < score.value < 1.0
            if score.verdict is not Verdict.Unscorable:
                assert score.evidence

    def test_scorers_are_deterministic(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        answer = _fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}})
        assert score_design(answer, spec) == score_design(answer, spec)

    def test_bank_ground_truth_self_consistency_l1_to_l4(self, bank, instances):
        # Scoring each shipped L1-L4 item's own ground truth answer passes.
        from eagibench.harness import OracleAgent

        agent = OracleAgent(list(instances.values()))
        for inst in instances.values():
            if int(inst.level) > 4:
                continue
            answer = agent.answer(inst.prompt, {"instance_id": inst.id})
            assert score_answer(inst.answer_spec, answer).verdict is Verdict.Pass, inst.id
