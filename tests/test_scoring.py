import json

import pytest
from hypothesis import given, settings, strategies as st

from eagibench.bank import (
    ANSWER_KINDS,
    DESIGN_FIELD_MAP,
    BankError,
    DiagnosisSpec,
    FactSpec,
    FieldExpectation,
    NumericSpec,
    RubricCriterion,
    RubricSpec,
    StructuredSpec,
    design_to_bank,
    load_bank,
    shipped_bank_path,
)
from eagibench import design_space, scoring
from eagibench.design_space import ObjectiveVector, ReferenceFront, dominates
from eagibench.propulsion import evaluate_design
from eagibench.scoring import (
    Evidence,
    Score,
    Verdict,
    answer_kind,
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

    def test_fence_nested_too_deep_falls_back_to_text(self):
        text = "8436 RPM\n```json\n" + '{"a": ' * 100_000 + "1" + "}" * 100_000 + "\n```"
        ans = extract(text, "numeric", RPM_SPEC)
        assert ans.extraction == "text-unit-number"

    def test_malformed_fence_falls_back_to_text(self):
        ans = extract("```json\n{not json}\n```\n8436 rpm", "numeric", RPM_SPEC)
        assert ans.envelope["value"] == 8436

    def test_later_block_without_the_key_leaves_the_envelope(self):
        text = _fence({"value": 8436, "unit": "RPM"}) + "\n" + _fence({"confidence": 1})
        ans = extract(text, "numeric", RPM_SPEC)
        assert ans.extraction == "envelope"
        assert ans.envelope == {"value": 8436, "unit": "RPM"}
        assert score_numeric(text, RPM_SPEC).verdict is Verdict.Pass


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

    def test_integer_beyond_float_range_unscorable(self):
        score = score_numeric(_fence({"value": 10**400, "unit": "RPM"}), RPM_SPEC)
        assert score.verdict is Verdict.Unscorable

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

    def test_integer_beyond_float_range_fails_its_field(self):
        score = score_structured(
            _fence({"fields": {"diameter": 10**400, "pitch": 6, "type": "fixed"}}), PROP_FIELDS
        )
        assert score.verdict is Verdict.Partial
        assert "not a number" in score.evidence[0].detail

    def test_field_the_envelope_omits_fails_whatever_the_prose_says(self, instances):
        spec = instances["l2-prop-parameters"].answer_spec
        envelope = _fence({"fields": {f.name: f.expected for f in spec.fields if f.name != "diameter"}})
        score = score_answer(spec, envelope)
        assert score_answer(spec, "diameter 18\n" + envelope) == score
        assert score.verdict is Verdict.Partial
        assert score.evidence[0] == Evidence("diameter", "fail", "diameter: missing from envelope")


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


@pytest.mark.parametrize(
    "text, form, spec, label",
    [
        ("8436 RPM", "numeric", RPM_SPEC, "text-unit-number"),
        ("8436", "numeric", RPM_SPEC, "text-number"),
        ("no idea", "numeric", RPM_SPEC, "none"),
        ("8436 RPM", "numeric", None, "text"),
        ("the motor Kv is too low", "diagnosis", RPM_SPEC, "text"),
        ("8436 RPM", "fact", None, "text"),
        ("8436 RPM", "structured", None, "text"),
        ("8436 RPM", "rubric", None, "text"),
        ("it cannot lift off", "diagnosis", DIAG, "text-cause"),
        ("no idea", "diagnosis", DIAG, "none"),
        ("use a 20x6 prop", "fix", None, "text-patch"),
        ("no idea", "fix", None, "none"),
        ("340 Kv on 6S", "design", None, "text-design"),
        ("no idea", "design", None, "none"),
        ("8436 RPM", "essay", None, "text"),
    ],
)
def test_extraction_labels(text, form, spec, label):
    assert extract(text, form, spec).extraction == label


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

    @pytest.mark.parametrize("diameter", [1e-300, 7.5e-153])
    def test_patch_outside_the_oracle_domain_unscorable(self, instances, diameter):
        # The patched design is valid, but the oracle's disk area or
        # diameter**4 underflows to 0.
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_fix(_fence({"patch": {"prop_diameter_in": diameter}}), spec)
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

    def test_fractional_motor_count_unscorable(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        design = design_to_bank(spec.reference_design)
        whole = score_design(_fence({"design": {**design, "n_motors": 4.0}}), spec)
        assert whole.verdict is Verdict.Pass
        score = score_design(_fence({"design": {**design, "n_motors": 4.7}}), spec)
        assert score.verdict is Verdict.Unscorable
        assert "whole number" in score.evidence[0].detail

    def test_design_overflowing_the_oracle_unscorable(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        design = {**design_to_bank(spec.reference_design), "prop_diameter_in": 1e300}
        score = score_design(_fence({"design": design}), spec)
        assert score.verdict is Verdict.Unscorable

    def test_grid_scored_in_one_factored_pass(self, instances, monkeypatch):
        calls = {"evaluate": 0, "thrust": 0, "hover": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(scoring, "evaluate_design", counting("evaluate", evaluate_design))
        monkeypatch.setattr(design_space, "evaluate_design", counting("evaluate", evaluate_design))
        monkeypatch.setattr(design_space, "thrust_stage", counting("thrust", design_space.thrust_stage))
        monkeypatch.setattr(design_space, "hover_stage", counting("hover", design_space.hover_stage))
        spec = instances["l5-quad-14kg"].answer_spec
        score_design(_fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}}), spec)
        grid = spec.grid
        props = len(grid.prop_diameters) * len(grid.prop_pitches)
        volts = len({b.voltage for b in grid.battery_options})
        # The answer gets one oracle call; each grid stage runs once per distinct input.
        assert calls == {
            "evaluate": 1,
            "thrust": len(grid.kv_values) * volts * props,
            "hover": props * len(grid.n_motors_options),
        }

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

    def test_score_answer_hands_only_rubrics_to_the_judge(self):
        def judge(text, spec):
            return Score(1.0, Verdict.Pass, (Evidence("judge", "pass", "external"),))

        assert score_answer(RUBRIC, "anything", rubric_judge=judge).evidence[0].check_id == "judge"
        assert score_answer(RPM_SPEC, "1 RPM", rubric_judge=judge).verdict is Verdict.Fail


class TestScoreInvariants:
    def test_the_kind_table_has_one_entry_per_answer_kind(self):
        assert set(scoring._KINDS) == set(ANSWER_KINDS.values())

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


_NUMBER = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["value", "unit", "text", "name"]) | st.text(max_size=6),
                      children, max_size=4),
    max_leaves=12,
)


def _answers(spec):
    """Any text, or prose and an envelope: free JSON under the envelope keys,
    or numbers under the design fields the spec reads."""
    fields = getattr(spec, "patchable_fields", None) or sorted(DESIGN_FIELD_MAP)
    design = st.dictionaries(st.sampled_from(fields), _NUMBER, min_size=1, max_size=3)
    envelope = st.dictionaries(st.sampled_from(sorted({k.key for k in scoring._KINDS.values()})),
                               _JSON, max_size=3) | design.map(lambda d: {"patch": d, "design": d})
    fenced = st.builds(lambda prose, env: prose + _fence(env), st.text(max_size=20), envelope)
    return st.text() | fenced


@pytest.mark.parametrize("kind", sorted(ANSWER_KINDS.values()))
@settings(deadline=None)
@given(data=st.data())
def test_any_answer_scores_in_unit_interval_without_raising(instances, kind, data):
    specs = [i.answer_spec for i in instances.values() if answer_kind(i.answer_spec) == kind]
    spec = data.draw(st.sampled_from(specs))
    score = score_answer(spec, data.draw(_answers(spec)))
    assert 0.0 <= score.value <= 1.0


# Metamorphic relations (Chen et al., ACM Computing Surveys 51(1), 2018):
# transforms of an answer whose effect on the verdict is known in advance.


@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
@pytest.mark.parametrize("factor, verdict", [(0.99, Verdict.Pass), (1.01, Verdict.Fail)],
                         ids=["inside", "outside"])
def test_oracle_numeric_scaled_by_tolerance(instances, sign, factor, verdict):
    specs = [i.answer_spec for i in instances.values() if i.kind == "numeric"]
    assert specs
    for spec in specs:
        value = spec.value * (1 + sign * factor * spec.rel_tol)
        score = score_numeric(_fence({"value": value, "unit": spec.unit}), spec)
        assert score.verdict is verdict, (spec, value)


def _full_envelopes(spec, kind):
    """The reference payload, or any payload that states everything the
    kind's scorer reads from an envelope."""
    key = scoring._KINDS[kind].key
    if kind == "rubric":
        reference = {"text": scoring.reference_answer(spec)}
    else:
        reference = scoring._KINDS[kind].reference(spec)
    if kind == "structured":
        names = [f.name for f in spec.fields]
        anything = st.fixed_dictionaries({name: _JSON for name in names})
    elif kind in ("fix", "design"):
        fields = getattr(spec, "patchable_fields", None) or sorted(DESIGN_FIELD_MAP)
        anything = st.dictionaries(st.sampled_from(fields), _NUMBER, min_size=1, max_size=3) | _JSON
    else:
        anything = _JSON
    return st.just(reference) | anything.map(lambda value: {key: value})


@pytest.mark.parametrize("kind", sorted(ANSWER_KINDS.values()))
@settings(deadline=None)
@given(data=st.data())
def test_prose_before_an_envelope_leaves_the_score_unchanged(instances, kind, data):
    specs = [i.answer_spec for i in instances.values() if answer_kind(i.answer_spec) == kind]
    spec = data.draw(st.sampled_from(specs))
    envelope = _fence(data.draw(_full_envelopes(spec, kind)))
    prose = data.draw(st.text(st.characters(blacklist_characters="`")))
    assert score_answer(spec, prose + "\n" + envelope) == score_answer(spec, envelope)


def _partial_envelopes(spec, kind):
    """An envelope under the kind's key whose payload leaves out any of the
    reference payload's fields (for a numeric, its unit), and prose stating
    every field the reference payload states."""
    key = scoring._KINDS[kind].key
    reference = scoring._KINDS[kind].reference(spec)
    stated = reference if kind == "numeric" else reference[key]
    kept = st.sets(st.sampled_from(sorted(stated))).map(
        lambda dropped: {name: value for name, value in stated.items() if name not in dropped})
    if kind == "numeric":
        payloads = kept.filter(lambda p: "value" in p)
    else:
        payloads = kept.map(lambda p: {key: p})
    prose = " ".join(f"{name} {value}" for name, value in stated.items())
    return payloads, st.text(st.characters(blacklist_characters="`")) | st.just(prose)


@pytest.mark.parametrize("kind", ["design", "fix", "numeric", "structured"])
@settings(deadline=None)
@given(data=st.data())
def test_prose_before_a_partial_envelope_leaves_the_score_unchanged(instances, kind, data):
    specs = [i.answer_spec for i in instances.values() if answer_kind(i.answer_spec) == kind]
    spec = data.draw(st.sampled_from(specs))
    payloads, prose = _partial_envelopes(spec, kind)
    envelope = _fence(data.draw(payloads))
    assert score_answer(spec, data.draw(prose) + "\n" + envelope) == score_answer(spec, envelope)


_SHIPPED = json.loads(shipped_bank_path().read_text(encoding="utf-8"))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_SHIPPED["grids"])),
    st.sampled_from(["kv_rpm_per_volt", "prop_diameter_in", "prop_pitch_in", "capacity_ah"]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_grid_that_loads_never_makes_the_scorer_raise(grid_id, axis, value):
    doc = json.loads(json.dumps(_SHIPPED))
    grid = doc["grids"][grid_id]
    if axis == "capacity_ah":
        grid["battery_options"].append({**grid["battery_options"][0], "capacity_ah": value})
    else:
        grid[axis].append(value)
    try:
        bank = load_bank(doc)
    except BankError:
        return
    for inst in bank.instances.values():
        if inst.kind == "design":
            score = score_answer(inst.answer_spec, scoring.reference_answer(inst.answer_spec))
            assert 0.0 <= score.value <= 1.0
