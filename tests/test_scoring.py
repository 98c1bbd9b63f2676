import ast
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import front_of
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
from eagibench import design_space, propulsion, scoring
from eagibench.design_space import ObjectiveVector, dominates
from eagibench.propulsion import evaluate_design
from eagibench.scoring import (
    Evidence,
    Score,
    Verdict,
    answer_kind,
    extract,
    score_answer,
)


def _fence(payload):
    return "```json\n" + json.dumps(payload) + "\n```"


RPM_SPEC = NumericSpec(value=8436.0, unit="RPM", rel_tol=0.02)


class TestExtract:
    def test_single_number_from_prose(self):
        ans = extract("The RPM is 8436.", RPM_SPEC)
        assert ans.envelope["value"] == 8436
        assert ans.extraction in ("text-number", "text-unit-number")

    def test_envelope_wins_over_prose(self):
        text = "I think it is 9999 RPM.\n" + _fence({"value": 8436, "unit": "RPM"})
        ans = extract(text, RPM_SPEC)
        assert ans.extraction == "envelope"
        assert ans.envelope["value"] == 8436

    def test_absence_is_unscorable_downstream(self):
        ans = extract("no idea", RPM_SPEC)
        assert ans.envelope is None
        assert score_answer(RPM_SPEC, "no idea").verdict is Verdict.Unscorable

    def test_unit_adjacent_number_preferred(self):
        ans = extract("It weighs 12 kg and spins at 8436 RPM at best.", RPM_SPEC)
        assert ans.envelope["value"] == 8436
        assert ans.extraction == "text-unit-number"

    def test_fence_nested_too_deep_falls_back_to_text(self):
        text = "8436 RPM\n```json\n" + '{"a": ' * 100_000 + "1" + "}" * 100_000 + "\n```"
        ans = extract(text, RPM_SPEC)
        assert ans.extraction == "text-unit-number"

    def test_an_integer_too_long_to_read_skips_its_block(self):
        # Python reads no integer of more than 4,300 digits: the ValueError escaped the scorer.
        text = '```json\n{"value": ' + "1" * 5000 + ', "unit": "RPM"}\n```'
        assert score_answer(RPM_SPEC, text).verdict in (Verdict.Fail, Verdict.Unscorable)

    def test_malformed_fence_falls_back_to_text(self):
        ans = extract("```json\n{not json}\n```\n8436 rpm", RPM_SPEC)
        assert ans.envelope["value"] == 8436

    def test_later_block_without_the_key_leaves_the_envelope(self):
        text = _fence({"value": 8436, "unit": "RPM"}) + "\n" + _fence({"confidence": 1})
        ans = extract(text, RPM_SPEC)
        assert ans.extraction == "envelope"
        assert ans.envelope == {"value": 8436, "unit": "RPM"}
        assert score_answer(RPM_SPEC, text).verdict is Verdict.Pass


class TestScoreNumeric:
    def test_exact_pass(self):
        assert score_answer(RPM_SPEC, "8436 RPM").verdict is Verdict.Pass

    def test_thrust_value_pass(self):
        spec = NumericSpec(value=26.4, unit="N", rel_tol=0.02)
        assert score_answer(spec, "about 26.4 N of thrust").verdict is Verdict.Pass

    def test_outside_band_fails(self):
        spec = NumericSpec(value=26.4, unit="N", rel_tol=0.02)
        score = score_answer(spec, "30.0 N")
        assert score.verdict is Verdict.Fail
        assert score.value == 0.0

    def test_unit_mismatch_fails_with_unit_evidence(self):
        score = score_answer(RPM_SPEC, _fence({"value": 8436, "unit": "W"}))
        assert score.verdict is Verdict.Fail
        assert score.evidence[0].check_id == "unit"

    def test_a_plain_text_number_in_another_known_unit_fails_like_its_envelope(self):
        # The number was read in the spec's unit whatever followed it, and passed.
        score = score_answer(RPM_SPEC, "It spins at 8436 W.")
        assert score == score_answer(RPM_SPEC, _fence({"value": 8436, "unit": "W"}))

    @pytest.mark.parametrize("reply", ["8436 RPM at 22.2 V", "8436 in a hover", "8436x", "8436", "about 8436/min"])
    def test_plain_text_reads_the_last_number_in_no_other_unit(self, reply):
        assert score_answer(RPM_SPEC, reply).verdict is Verdict.Pass

    def test_unit_synonyms_accepted(self):
        score = score_answer(RPM_SPEC, _fence({"value": 8436, "unit": "rev/min"}))
        assert score.verdict is Verdict.Pass

    def test_integer_beyond_float_range_unscorable(self):
        score = score_answer(RPM_SPEC, _fence({"value": 10**400, "unit": "RPM"}))
        assert score.verdict is Verdict.Unscorable

    def test_tolerance_boundary(self):
        spec = NumericSpec(value=100.0, unit="N", rel_tol=0.02)
        assert score_answer(spec, "102 N").verdict is Verdict.Pass
        assert score_answer(spec, "102.1 N").verdict is Verdict.Fail


THRUST_EQUATION = FactSpec(
    canonical="T = Ct * rho * n^2 * D^4",
    accepted_aliases=("thrust = ct * rho * n^2 * d^4",),
)


class TestScoreFact:
    def test_ascii_form_passes(self):
        assert score_answer(THRUST_EQUATION, "T = Ct * rho * n^2 * D^4").verdict is Verdict.Pass

    def test_unicode_symbol_form_passes(self):
        assert score_answer(THRUST_EQUATION, "T = C_T · ρ · n² · D⁴").verdict is Verdict.Pass

    def test_embedded_in_prose_passes(self):
        text = "The static thrust equation is T = Ct * rho * n^2 * D^4 for a propeller."
        assert score_answer(THRUST_EQUATION, text).verdict is Verdict.Pass

    def test_wrong_formula_fails(self):
        assert score_answer(THRUST_EQUATION, "T = Ct * rho * n^3 * D^2").verdict is Verdict.Fail

    def test_empty_unscorable(self):
        assert score_answer(THRUST_EQUATION, "   ").verdict is Verdict.Unscorable


PROP_FIELDS = StructuredSpec(
    fields=(
        FieldExpectation(name="diameter", kind="number", expected=18, unit="in", rel_tol=0.01),
        FieldExpectation(name="pitch", kind="number", expected=6, unit="in", rel_tol=0.01),
        FieldExpectation(name="type", kind="text", expected="fixed", aliases=("fixed-pitch",)),
    )
)


class TestScoreStructured:
    def test_all_fields_from_prose(self):
        text = "The propeller diameter is 18 inches, the pitch is 6 inches, and the type is fixed pitch."
        score = score_answer(PROP_FIELDS, text)
        assert score.verdict is Verdict.Pass
        assert score.value == 1.0

    def test_two_of_three_partial(self):
        score = score_answer(
            PROP_FIELDS, _fence({"fields": {"diameter": 18, "pitch": 5, "type": "fixed"}})
        )
        assert score.verdict is Verdict.Partial
        assert score.value == pytest.approx(2 / 3, abs=1e-9)

    def test_envelope_all_correct(self):
        score = score_answer(
            PROP_FIELDS, _fence({"fields": {"diameter": 18, "pitch": 6, "type": "fixed-pitch"}})
        )
        assert score.value == 1.0

    def test_nothing_found_fails(self):
        score = score_answer(PROP_FIELDS, "it has propellers")
        assert score.verdict is Verdict.Fail

    def test_integer_beyond_float_range_fails_its_field(self):
        score = score_answer(
            PROP_FIELDS, _fence({"fields": {"diameter": 10**400, "pitch": 6, "type": "fixed"}})
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

    @pytest.mark.parametrize(
        "template_id, reply, value, detail",
        [
            ("l2-prop-parameters", "diameter: 18.0 cm; pitch: 6 cm; type: fixed", 1 / 3,
             "diameter: unit 'cm' does not match 'in' (text)"),
            ("l2-voltage-range", "minimum: 19.8 mV; maximum: 25.2 mV; nominal: 22.2 mV", 0.0,
             "minimum: unit 'mV' does not match 'V' (text)"),
            ("l2-prop-parameters", "The prop is 18 cm by 6 cm, fixed.", 1 / 3, "diameter: no value found in text"),
            ("l2-prop-parameters", "diameter: 18.0 in; pitch: 6 in; type: fixed", 1.0, "diameter: 18 vs 18 (text)"),
            ("l2-voltage-range", "minimum: 19.8 V; maximum: 25.2 V; nominal: 22.2 V", 1.0,
             "minimum: 19.8 vs 19.8 (text)"),
            ("l2-prop-parameters", "The prop is 18 in by 6 in, fixed.", 1.0, "diameter: 18 present in text"),
            ("l2-prop-parameters", "the diameter is 18 and the pitch is 6, type fixed", 1.0,
             "diameter: 18 vs 18 (text)"),
            ("l2-voltage-range", "minimum 19.8, maximum 25.2, nominal 22.2", 1.0, "minimum: 19.8 vs 19.8 (text)"),
            # "x" is the "ratio" unit, "/" starts no token, and "min" and "in" are also words: none is a wrong unit.
            ("l2-prop-parameters", "18x6 fixed-pitch", 1.0, "diameter: 18 present in text"),
            ("l2-voltage-range", "The range is 19.8/25.2 V, 22.2 V nominal", 1.0, "minimum: 19.8 present in text"),
            ("l2-voltage-range", "19.8 min, 25.2 max, nominal 22.2", 1.0, "minimum: 19.8 present in text"),
            ("l2-voltage-range", "minimum 19.8 in a full 6S pack, maximum 25.2, nominal 22.2", 1.0,
             "minimum: 19.8 vs 19.8 (text)"),
        ],
        ids=["cm", "mV", "cm-unnamed", "in", "V", "in-unnamed", "unknown-token", "bare",
             "x", "slash", "min", "in-a"],
    )
    def test_a_number_in_another_known_unit_fails_its_field(self, bank, template_id, reply, value, detail):
        # The field's unit was never read: the "cm" and "mV" replies scored Pass 1.0.
        score = score_answer(bank.instances[template_id].answer_spec, reply)
        assert score.value == pytest.approx(value)
        assert score.evidence[0].detail == detail

    def test_a_field_with_no_unit_reads_any_unit_token(self):
        spec = StructuredSpec((FieldExpectation(name="motors", kind="number", expected=4),))
        for reply in ("motors: 4 V", "motors: 4", "There are 4 rotors."):
            assert score_answer(spec, reply).verdict is Verdict.Pass, reply

    def test_a_unit_that_is_also_a_word_fails_only_a_field_of_its_dimension(self):
        cases = [("min", "20 s", Verdict.Fail), ("min", "20 mins", Verdict.Pass), ("s", "20 min", Verdict.Fail),
                 ("min", "20 in a hover", Verdict.Pass), ("min", "20 W", Verdict.Fail),
                 ("cm", "20 in", Verdict.Fail), ("mA", "20 A", Verdict.Fail), ("V", "20 a side", Verdict.Pass)]
        for unit, reply, verdict in cases:
            spec = StructuredSpec((FieldExpectation(name="x", kind="number", expected=20, unit=unit),))
            assert score_answer(spec, f"x: {reply}").verdict is verdict, (unit, reply)

    @pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
    @pytest.mark.parametrize(
        "reply",
        [lambda v: _fence({"fields": {"thrust": v}}), lambda v: f"thrust: {v!r} N", lambda v: f"It gives {v!r} N."],
        ids=["envelope", "named", "unnamed"],
    )
    def test_tolerance_boundary(self, sign, reply):
        # Each path reads a value exactly on the bound as inside it, and the next float out as outside.
        field = FieldExpectation(name="thrust", kind="number", expected=100.0, unit="N", rel_tol=0.02)
        spec = StructuredSpec((field,))
        value = field.expected * (1 + sign * field.rel_tol)
        assert abs(value - field.expected) == field.rel_tol * abs(field.expected)
        assert score_answer(spec, reply(value)).verdict is Verdict.Pass
        assert score_answer(spec, reply(math.nextafter(value, sign * math.inf))).verdict is Verdict.Fail


DIAG = DiagnosisSpec(
    accepted_causes=("insufficient-rpm-thrust",),
    vocabulary={
        "insufficient-rpm-thrust": ("insufficient thrust", "cannot lift", "thrust below"),
        "low-battery-voltage": ("battery voltage", "voltage too low"),
    },
)


class TestScoreDiagnosis:
    def test_prose_maps_to_accepted_cause(self):
        score = score_answer(DIAG, "The props cannot lift 12 kg at 7500 RPM.")
        assert score.verdict is Verdict.Pass

    def test_non_accepted_cause_fails(self):
        score = score_answer(DIAG, "The battery voltage is too low.")
        assert score.verdict is Verdict.Fail

    def test_envelope_cause_id(self):
        assert (
            score_answer(DIAG, _fence({"cause": "insufficient-rpm-thrust"})).verdict
            is Verdict.Pass
        )

    def test_no_cause_unscorable(self):
        assert score_answer(DIAG, "hmm, hard to say").verdict is Verdict.Unscorable

    def test_multiple_accepted_causes_all_full_credit(self):
        spec = DiagnosisSpec(
            accepted_causes=("a", "b"),
            vocabulary={"a": ("alpha",), "b": ("beta",)},
        )
        assert score_answer(spec, "clearly alpha").value == 1.0
        assert score_answer(spec, "clearly beta").value == 1.0


@pytest.mark.parametrize(
    "text, kind, spec, label",
    [
        ("8436 RPM", "numeric", RPM_SPEC, "text-unit-number"),
        ("8436", "numeric", RPM_SPEC, "text-number"),
        ("no idea", "numeric", RPM_SPEC, "none"),
        ("8436 RPM", "fact", None, "text"),
        ("8436 RPM", "structured", None, "text"),
        ("8436 RPM", "rubric", None, "text"),
        ("use a 20x6 prop", "fix", None, "text-patch"),
        ("no idea", "fix", None, "none"),
        ("it cannot lift off", "diagnosis", DIAG, "text-cause"),
        ("no idea", "diagnosis", DIAG, "none"),
        ("340 Kv on 6S", "design", None, "text-design"),
        ("no idea", "design", None, "none"),
    ],
)
def test_extraction_labels(text, kind, spec, label, instances):
    if spec is None:  # the spec of the kind's first shipped item
        spec = next(inst.answer_spec for inst in instances.values() if inst.kind == kind)
    assert answer_kind(spec) == kind
    assert extract(text, spec).extraction == label


#: The extraction labels each answer kind can record (``docs/answer-format.md``).
_EXTRACTION_LABELS = {
    "numeric": {"envelope", "text-unit-number", "text-number", "none"},
    "fact": {"envelope", "text"},
    "structured": {"envelope", "text"},
    "diagnosis": {"envelope", "text-cause", "none"},
    "fix": {"envelope", "text-patch", "none"},
    "design": {"envelope", "text-design", "none"},
    "rubric": {"envelope", "text"},
}

#: Reply pieces that reach each extraction path: numbers with and without units, prop,
#: Kv, cell, capacity and motor-count patterns, cause phrases, and fences with each key.
_REPLY_PIECES = st.sampled_from([
    "8436", "8436 RPM", "1,200.5 N", "20x6", "340 Kv", "6S", "12000 mAh", "12 Ah", "4 motors",
    "diameter to 19 inches", "pitch to 7", "cannot lift", "voltage too low", "```json\n", "\n```",
    *(json.dumps({key: value}) for key in ("value", "text", "fields", "cause", "patch", "design")
      for value in (None, 1, "x", {"prop_diameter_in": 19})),
]) | st.text(max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.lists(_REPLY_PIECES, max_size=8).map(" ".join))
def test_extraction_of_any_reply_records_a_label_of_its_kind(instances, text):
    for inst in instances.values():
        ans = extract(text, inst.answer_spec)
        assert ans.extraction in _EXTRACTION_LABELS[inst.kind], (inst.id, ans)
        assert (ans.envelope is None) == (ans.extraction in ("text", "none")), (inst.id, ans)


class TestScoreFix:
    def test_diameter_patch_flips_thrust(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"prop_diameter_in": 19}}))
        assert score.verdict is Verdict.Pass
        assert any(e.outcome == "flipped" for e in score.evidence)

    def test_pitch_patch_with_ct_override_flips_thrust(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"prop_pitch_in": 7}}))
        assert score.verdict is Verdict.Pass

    def test_identity_patch_fails(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {}}))
        assert score.verdict is Verdict.Fail

    def test_kv_patch_flips_overcurrent(self, instances):
        spec = instances["l4-overcurrent-fix"].answer_spec
        for kv in (340, 360):
            score = score_answer(spec, _fence({"patch": {"kv_rpm_per_volt": kv}}))
            assert score.verdict is Verdict.Pass, kv

    def test_unknown_field_unscorable_with_name(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"warp_drive": 9}}))
        assert score.verdict is Verdict.Unscorable
        assert "warp_drive" in score.evidence[0].detail

    def test_plain_text_patch(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, "Increase the diameter to 19 inches if structurally feasible.")
        assert score.verdict is Verdict.Pass

    def test_a_pitch_alone_in_prose_patches_the_pitch(self, instances):
        spec = instances["l4-thrust-fix"].answer_spec
        assert extract("Set the pitch to 7.", spec).envelope == {"patch": {"prop_pitch_in": 7.0}}
        assert score_answer(spec, "Set the pitch to 7.").verdict is Verdict.Pass

    @pytest.mark.parametrize("value", [None, [19], 10**400])
    def test_malformed_patch_value_unscorable(self, instances, value):
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"prop_diameter_in": value}}))
        assert score.verdict is Verdict.Unscorable

    @pytest.mark.parametrize("value", [True, "19"])
    def test_a_patch_value_that_is_not_a_json_number_is_unscorable_naming_the_key(self, instances, value):
        # "19" is the diameter that fixes the item: a patch value is a JSON number, as in a bank.
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"prop_diameter_in": value}}))
        assert score.verdict is Verdict.Unscorable
        assert f"key 'prop_diameter_in' must be a number, got {value!r}" in score.evidence[0].detail

    @pytest.mark.parametrize("diameter", [1e-300, 7.5e-153])
    def test_patch_outside_the_oracle_domain_unscorable(self, instances, diameter):
        # The patched design is valid, but the oracle's disk area or
        # diameter**4 underflows to 0.
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"prop_diameter_in": diameter}}))
        assert score.verdict is Verdict.Unscorable

    def test_regression_detected(self, instances):
        # Dropping Kv on the climb item regresses nothing already passing;
        # craft a patch that fixes thrust but blows the current cap instead.
        spec = instances["l4-thrust-fix"].answer_spec
        score = score_answer(spec, _fence({"patch": {"thrust_coefficient_ct": 0.2}}))
        flipped = any(e.outcome == "flipped" for e in score.evidence)
        regressed = any(e.outcome == "regressed" for e in score.evidence)
        assert flipped and regressed
        assert score.verdict is Verdict.Fail


class TestScoreDesign:
    def test_reference_design_passes(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_answer(
            spec, _fence({"design": {"kv_rpm_per_volt": 340, "prop_diameter_in": 20}})
        )
        assert score.verdict is Verdict.Pass
        assert score.value == 1.0

    def test_infeasible_design_partial_below_0_7(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_answer(
            spec, _fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}})
        )
        assert score.verdict is Verdict.Partial
        assert 0.0 < score.value <= 0.7
        assert any(e.check_id == "hover-thrust" and e.outcome == "fail" for e in score.evidence)

    def test_invalid_design_unscorable(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_answer(
            spec, _fence({"design": {"kv_rpm_per_volt": -5, "prop_diameter_in": 20}})
        )
        assert score.verdict is Verdict.Unscorable

    @pytest.mark.parametrize("value", [[340], 10**400])
    def test_malformed_design_value_unscorable(self, instances, value):
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_answer(spec, _fence({"design": {"kv_rpm_per_volt": value}}))
        assert score.verdict is Verdict.Unscorable

    @pytest.mark.parametrize("key, value", [("kv_rpm_per_volt", "340"), ("n_motors", True)])
    def test_a_design_value_that_is_not_a_json_number_is_unscorable_naming_the_key(self, instances, key, value):
        # "340" names the reference Kv, and a true motor count was graded as a one-motor design.
        spec = instances["l5-quad-14kg"].answer_spec
        score = score_answer(spec, _fence({"design": {"kv_rpm_per_volt": 340, "prop_diameter_in": 20, key: value}}))
        assert score.verdict is Verdict.Unscorable
        assert f"key {key!r} must be a number, got {value!r}" in score.evidence[0].detail

    @pytest.mark.parametrize("capacity", ["12000 mAh", "12 Ah"])
    def test_a_capacity_in_prose_is_read_in_amp_hours(self, instances, capacity):
        spec = instances["l5-quad-14kg"].answer_spec
        assert extract(f"340 Kv on 6S, {capacity}", spec).envelope["design"]["battery_capacity_ah"] == 12.0

    def test_fractional_motor_count_unscorable(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        design = design_to_bank(spec.reference_design)
        whole = score_answer(spec, _fence({"design": {**design, "n_motors": 4.0}}))
        assert whole.verdict is Verdict.Pass
        score = score_answer(spec, _fence({"design": {**design, "n_motors": 4.7}}))
        assert score.verdict is Verdict.Unscorable
        assert "whole number" in score.evidence[0].detail

    def test_design_overflowing_the_oracle_unscorable(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        design = {**design_to_bank(spec.reference_design), "prop_diameter_in": 1e300}
        score = score_answer(spec, _fence({"design": design}))
        assert score.verdict is Verdict.Unscorable

    @pytest.mark.parametrize("source", ["loaded", "instantiated"])
    def test_scoring_reads_the_grounded_front(self, bank, instances, source, monkeypatch):
        # The front is grounded with the item, at load or by a bare instantiate, so scoring an
        # answer makes one oracle call and walks nothing: no grid check and no stage.
        spec = (bank.instances if source == "loaded" else instances)["l5-quad-14kg"].answer_spec
        calls = dict.fromkeys(("evaluate", "check_grid", "thrust_stage", "hover_stage", "_static_thrust"), 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(propulsion, "evaluate_design", counting("evaluate", evaluate_design))
        monkeypatch.setattr(design_space, "evaluate_design", counting("evaluate", evaluate_design))
        for name in ("check_grid", "thrust_stage", "hover_stage", "_static_thrust"):
            monkeypatch.setattr(design_space, name, counting(name, getattr(design_space, name)))
        score_answer(spec, _fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}}))
        assert calls == {"evaluate": 1, "check_grid": 0, "thrust_stage": 0, "hover_stage": 0, "_static_thrust": 0}

    @pytest.mark.parametrize(
        "grid_ct, design, verdict, value",
        [
            ({}, {"kv_rpm_per_volt": 320, "prop_diameter_in": 18, "prop_pitch_in": 6,
                  "thrust_coefficient_ct": 0.035}, Verdict.Partial, 0.825),
            ({}, {"kv_rpm_per_volt": 340, "prop_diameter_in": 20, "prop_pitch_in": 6, "mtow_kg": 9},
             Verdict.Partial, 0.7 + 0.3 * (1 - 0.148)),
            ({"20x6": 0.02}, {"kv_rpm_per_volt": 400, "prop_diameter_in": 20, "prop_pitch_in": 6},
             Verdict.Pass, 1.0),
        ],
        ids=["answer-sets-ct", "answer-sets-mtow", "grid-ct-override"],
    )
    def test_answer_chooses_only_the_grid_axes(self, grid_ct, design, verdict, value):
        # Ct comes from the grid, the takeoff weight from the item: an answer
        # that declares either is graded as if it had not, and a grid's Ct
        # override reaches the design an answer names.
        doc = json.loads(json.dumps(_SHIPPED))
        doc["grids"]["l5-default"]["ct_overrides"] = grid_ct
        spec = load_bank(doc).instances["l5-quad-10kg-min-current"].answer_spec
        score = score_answer(spec, _fence({"design": design}))
        assert score.verdict is verdict
        assert score.value == pytest.approx(value, abs=1e-3)

    def test_plain_text_design(self, instances):
        spec = instances["l5-quad-14kg"].answer_spec
        text = "Motor: 340 Kv (high-torque), Propeller: 20x6 inch fixed-pitch, Voltage: 6S (22.2V)."
        score = score_answer(spec, text)
        assert score.verdict is Verdict.Pass

    def test_empty_requirements_trivially_passes_on_front(self, instances):
        from eagibench.propulsion import RequirementSet

        spec = _with_requirements(instances["l5-quad-14kg"].answer_spec, RequirementSet(()))
        score = score_answer(
            spec, _fence({"design": {"kv_rpm_per_volt": 340, "prop_diameter_in": 20}})
        )
        # pareto component alone decides; the reference is on the front
        assert score.value == 1.0

    def test_monotonic_in_requirements(self, instances):
        from eagibench.propulsion import Requirement, RequirementKind, RequirementSet

        base_spec = instances["l5-quad-14kg"].answer_spec
        answer = _fence({"design": {"kv_rpm_per_volt": 420, "prop_diameter_in": 16}})
        base_score = score_answer(base_spec, answer)

        # adding a requirement the answer satisfies never lowers the value
        satisfied = _with_requirements(
            base_spec,
            RequirementSet(
                base_spec.requirements
                + (Requirement("extra-class", RequirementKind.VoltageClass, 6),)
            ),
        )
        assert score_answer(satisfied, answer).value >= base_score.value - 1e-12

        # adding a violated one never raises it.  The reference front is the
        # grid's feasible set under the spec's own requirements, so the added
        # requirement is one every feasible grid design already meets (a second
        # hover-thrust bound), which leaves the front as it was.
        hover = next(r for r in base_spec.requirements if r.id == "hover-thrust")
        violated = _with_requirements(
            base_spec,
            RequirementSet(
                base_spec.requirements
                + (Requirement("extra-thrust", hover.kind, hover.bound),)
            ),
        )
        fronts = [
            design_space.reference_front(s.grid, s.mtow, s.environment, s.requirements)
            for s in (base_spec, violated)
        ]
        assert fronts[0] == fronts[1]
        assert score_answer(violated, answer).value <= base_score.value + 1e-12


def _with_requirements(spec, requirements):
    """The design spec under other requirements, with the front of those requirements."""
    front = design_space.reference_front(spec.grid, spec.mtow, spec.environment, requirements)
    return spec._replace(requirements=requirements, front=front)


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
    assert front_of(feasible).gap(candidate) == _quadratic_gap(candidate, feasible)


def test_scoring_imports_no_physics():
    # A fix or design answer is judged by its spec; the scorer only grades and formats the result.
    # Each dotted part of every import, absolute or relative, so "from . import propulsion" counts too.
    names = []
    for node in ast.walk(ast.parse(Path(scoring.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not {"design_space", "propulsion"} & {part for name in names for part in name.split(".")}, names


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
        score = score_answer(RUBRIC, text)
        assert score.value == 1.0
        assert score.verdict is Verdict.Pass

    def test_a_value_at_the_threshold_passes(self):
        spec = RUBRIC._replace(pass_threshold=0.5)
        score = score_answer(spec, "It assumed sea level air density.")
        assert (score.value, score.verdict) == (0.5, Verdict.Pass)

    def test_density_only_quarter_fail(self):
        score = score_answer(RUBRIC, "Maybe the air density was different.")
        assert score.value == 0.25
        assert score.verdict is Verdict.Fail

    def test_empty_unscorable(self):
        assert score_answer(RUBRIC, "").verdict is Verdict.Unscorable

    def test_marked_heuristic(self):
        score = score_answer(RUBRIC, "air density sea-level flight envelope derate")
        assert any(e.outcome == "heuristic" for e in score.evidence)

    def test_score_answer_hands_only_rubrics_to_the_judge(self, monkeypatch):
        judged = []

        def judge(text, spec):
            judged.append(text)
            return Score(1.0, Verdict.Pass, (Evidence("judge", "pass", "external"),))

        reply = "anything\n" + _fence({"text": "air density"})
        with monkeypatch.context() as patched:  # a judged rubric is never extracted: the judge reads the raw reply
            patched.setattr(scoring, "extract", None)
            assert score_answer(RUBRIC, reply, rubric_judge=judge).evidence[0].check_id == "judge"
        assert judged == [reply]
        assert score_answer(RPM_SPEC, "1 RPM", rubric_judge=judge).verdict is Verdict.Fail


class TestScoreInvariants:
    def test_the_kind_table_has_one_entry_per_answer_kind(self):
        assert set(scoring._KINDS) == set(ANSWER_KINDS.values())

    def test_score_answer_extracts_each_answer_once_through_the_module_name(self, instances, monkeypatch):
        # The documented extraction count, and what a wrapper of scoring.extract (as the bench's tracer) sees.
        calls = []
        monkeypatch.setattr(scoring, "extract", lambda text, spec: calls.append(spec) or extract(text, spec))
        specs = [i.answer_spec for i in instances.values()]
        for spec in specs:
            assert score_answer(spec, scoring.reference_answer(spec)).verdict is Verdict.Pass
        assert calls == specs

    def test_objective_scorers_verdict_value_coupling(self, instances):
        # Pass => 1, Fail => 0, Partial strictly inside, for the objective
        # scorers (rubric is threshold-gated and exempt).
        cases = [
            score_answer(RPM_SPEC, "8436 RPM"),
            score_answer(RPM_SPEC, "1 RPM"),
            score_answer(THRUST_EQUATION, "T = Ct * rho * n^2 * D^4"),
            score_answer(
                PROP_FIELDS, _fence({"fields": {"diameter": 18, "pitch": 5, "type": "fixed"}})
            ),
            score_answer(DIAG, _fence({"cause": "insufficient-rpm-thrust"})),
            score_answer(instances["l4-thrust-fix"].answer_spec, _fence({"patch": {"prop_diameter_in": 19}})),
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
        assert score_answer(spec, answer) == score_answer(spec, answer)

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
        score = score_answer(spec, _fence({"value": value, "unit": spec.unit}))
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


# An envelope value is read by the bank's one JSON-type test, never coerced.


@pytest.mark.parametrize("template_id, envelope, key", [
    ("l3-no-load-rpm", {"value": "8436", "unit": "RPM"}, "value"),
    ("l3-no-load-rpm", {"value": True}, "value"),
    ("l3-no-load-rpm", {"value": 8436, "unit": None}, "unit"),
    ("l1-kv-meaning", {"text": ["RPM per volt under no-load conditions"]}, "text"),
    ("l1-kv-meaning", {"text": None}, "text"),
    ("l4-vibration", {"cause": ["prop-imbalance"]}, "cause"),
    ("l6-highalt-reflect", {"text": None}, "text"),
    ("l2-prop-parameters", {"fields": [{"diameter": 18, "pitch": 6, "type": "fixed"}]}, "fields"),
    ("l4-thrust-fix", {"patch": [["prop_diameter_in", 19]]}, "patch"),
    ("l5-quad-14kg", {"design": "340 Kv"}, "design"),
], ids=["value-text", "value-true", "unit-null", "fact-list", "fact-null", "cause-list", "rubric-null", "fields-list",
        "patch-pairs", "design-text"])
def test_an_envelope_value_of_another_json_type_is_unscorable_naming_its_key(instances, template_id, envelope, key):
    # Read through float() or str(), "8436" and the text in a list passed, true was 1 RPM, null was the reply
    # "None", the cause in a list was "['prop-imbalance']", and fields in a list were read as prose, and passed.
    # A patch or design found but of another type was reported as none found.
    score = score_answer(instances[template_id].answer_spec, _fence(envelope))
    assert score.verdict is Verdict.Unscorable
    assert score.evidence[0].detail.startswith(f"envelope key {key!r} must be "), score


def test_a_structured_field_of_another_json_type_fails_naming_the_field(instances):
    # Read through float() and str(), this envelope passed every field.
    score = score_answer(instances["l2-prop-parameters"].answer_spec,
                         _fence({"fields": {"diameter": "18", "pitch": "6", "type": ["fixed"]}}))
    assert score.verdict is Verdict.Fail
    assert [e.detail for e in score.evidence] == [
        "diameter: '18' is not a number", "pitch: '6' is not a number", "type: ['fixed'] is not a string or a number"]


@pytest.mark.parametrize("said, verdict", [(6, Verdict.Pass), ("6S", Verdict.Pass), (5, Verdict.Fail),
                                           (True, Verdict.Fail), (None, Verdict.Fail)])
def test_a_text_field_reads_a_string_or_a_number_by_its_text(said, verdict):
    # The rule a bank's text field follows for its own expected value.
    spec = StructuredSpec((FieldExpectation(name="cells", kind="text", expected=6),))
    assert score_answer(spec, _fence({"fields": {"cells": said}})).verdict is verdict


def _paths(node, prefix=()):
    """Every path below the root of a JSON object's objects."""
    for key, child in node.items() if isinstance(node, dict) else ():
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_JSON_TYPE = {bool: "bool", int: "number", float: "number", str: "string", type(None): "null", list: "list",
              dict: "object"}


@pytest.mark.parametrize("kind", sorted(ANSWER_KINDS.values()))
@settings(deadline=None)
@given(data=st.data())
def test_an_envelope_value_replaced_by_one_of_another_json_type_never_passes(instances, kind, data):
    specs = [i.answer_spec for i in instances.values() if answer_kind(i.answer_spec) == kind]
    spec = data.draw(st.sampled_from(specs))
    envelope = {"text": scoring.reference_answer(spec)} if kind == "rubric" else scoring._KINDS[kind].reference(spec)
    *parents, key = data.draw(st.sampled_from(list(_paths(envelope))))
    record = envelope
    for parent in parents:
        record = record[parent]
    value = record[key]  # replaced by a fixed value, or by the same value as text, in a list or in an object
    others = (None, True, 0, 2.5, "x", [], {}, str(value), [value], {key: value})
    record[key] = data.draw(st.sampled_from([v for v in others if _JSON_TYPE[type(v)] != _JSON_TYPE[type(value)]]))
    assert score_answer(spec, _fence(envelope)).verdict is not Verdict.Pass, envelope


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
