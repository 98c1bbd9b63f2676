import copy
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from eagibench import design_space, propulsion
from eagibench.bank import (
    BATTERY_FIELD_MAP,
    DESIGN_FIELD_MAP,
    ENVIRONMENT_FIELD_MAP,
    GRID_FIELD_MAP,
    BankError,
    NumericSpec,
    SampleError,
    SampleMode,
    _check_phrases,
    _stratified_quotas,
    design_from_bank,
    design_to_bank,
    fields_to_si,
    grid_design_from_bank,
    grid_from_bank,
    instantiate,
    load_bank,
    sample,
    shipped_bank_path,
)
from eagibench.propulsion import CT_DEFAULT, M_PER_IN, Environment
from eagibench.scoring import Verdict, normalize_phrase, reference_answer, score_answer
from eagibench.taxonomy import CognitionLevel, TagFilter, matches


_SHIPPED = json.loads(shipped_bank_path().read_text(encoding="utf-8"))


def _template(doc, template_id):
    return next(t for t in doc["templates"] if t["id"] == template_id)


def _rename(record, old, new):
    record[new] = record.pop(old)


@pytest.fixture()
def raw_bank():
    return json.loads(shipped_bank_path().read_text(encoding="utf-8"))


def _text_field(doc, template_id):
    return next(f for f in _template(doc, template_id)["answer"]["fields"] if f["kind"] == "text")


#: A phrase-bearing record of each kind: (the template a blank phrase there is named by, the edit).
_BLANK_PHRASE_SITES = {
    "fact-canonical": ("l1-kv-meaning", lambda doc, p: _template(doc, "l1-kv-meaning")["answer"].update(canonical=p)),
    "fact-alias": ("l1-thrust-equation",
                   lambda doc, p: _template(doc, "l1-thrust-equation")["answer"].update(accepted_aliases=[p])),
    "structured-expected": ("l2-max-torque-params",
                            lambda doc, p: _text_field(doc, "l2-max-torque-params").update(expected=p)),
    "structured-alias": ("l2-prop-parameters", lambda doc, p: _text_field(doc, "l2-prop-parameters").update(aliases=[p])),
    "rubric": ("l6-highalt-reflect",
               lambda doc, p: _template(doc, "l6-highalt-reflect")["answer"]["criteria"][0]["phrases"].append(p)),
    # The first diagnosis item reads the bank's vocabulary.
    "cause-vocabulary": ("l4-insufficient-thrust", lambda doc, p: doc["cause_vocabulary"]["high-kv-motor"].append(p)),
}


def _answer(doc, template_id):
    return _template(doc, template_id)["answer"]


def _copied(record, key, typo):
    """A required key written a second time, misspelt."""
    record[typo] = record[key]


def _listed(record, key):
    """An object written as a list of [key, value] pairs."""
    record[key] = [list(pair) for pair in record[key].items()]


def _named(record, key, params, value):
    """``record[key]`` written as ``"$x"``, and the template's param ``x`` set to ``value``."""
    record[key], params["x"] = "$x", value


def _params(doc, template_id):
    return _template(doc, template_id)["params"]


def _templates_record(template_id):
    index = [t["id"] for t in _SHIPPED["templates"]].index(template_id)
    return re.escape(f"templates[{index}] (id {template_id!r})")


_CONTEXT = "urban-logistics-quad"
_QUAD = "quad-14kg"
_Q14 = "l5-quad-14kg"
#: A misspelt key (an optional one renamed, a required one copied), a value of another JSON type,
#: or an object written as pairs: (the edit, the record it is named by, as a regex, and the reason).
_REPROS = {
    "template-levle": (lambda doc: _copied(_template(doc, "l1-kv-meaning"), "level", "levle"),
                       _templates_record("l1-kv-meaning"), "missing or unknown key 'levle'"),
    "document-tempaltes": (lambda doc: _rename(doc, "templates", "tempaltes"), "bank document",
                           "missing or unknown key 'tempaltes'"),
    "numeric-rel_tl": (lambda doc: _rename(_answer(doc, "l3-no-load-rpm"), "rel_tol", "rel_tl"),
                       "template 'l3-no-load-rpm'", "missing or unknown key 'rel_tl'"),
    "design-requirments": (lambda doc: _copied(_answer(doc, "l5-quad-14kg"), "requirements", "requirments"),
                           "template 'l5-quad-14kg'", "missing or unknown key 'requirments'"),
    "tags-domian": (lambda doc: _copied(_template(doc, "l1-kv-meaning")["tags"], "domains", "domian"),
                    _templates_record("l1-kv-meaning"), "missing or unknown key 'domian'"),
    "rubric-pass_treshold": (lambda doc: _copied(_answer(doc, "l6-highalt-reflect"), "pass_threshold", "pass_treshold"),
                             "template 'l6-highalt-reflect'", "missing or unknown key 'pass_treshold'"),
    "context-sumary": (lambda doc: _rename(doc["contexts"][_CONTEXT], "summary", "sumary"),
                       f"context '{_CONTEXT}'", "missing or unknown key 'sumary'"),
    "field-name-null": (lambda doc: _answer(doc, "l2-prop-parameters")["fields"][0].update(name=None),
                        "template 'l2-prop-parameters'", "key 'name' must be a string, got None"),
    "requirement-id-7": (lambda doc: _answer(doc, "l4-thrust-fix")["requirements"][1].update(id=7),
                         "template 'l4-thrust-fix'", "key 'id' must be a string, got 7"),
    "rel_tol-text": (lambda doc: _answer(doc, "l3-no-load-rpm").update(rel_tol="0.05"),
                     "template 'l3-no-load-rpm'", "key 'rel_tol' must be a number, got '0.05'"),
    "pass_threshold-text": (lambda doc: _answer(doc, "l6-highalt-reflect").update(pass_threshold="0.5"),
                            "template 'l6-highalt-reflect'", "key 'pass_threshold' must be a number, got '0.5'"),
    "pattern-number": (lambda doc: _template(doc, "l1-kv-meaning").update(pattern=5),
                       _templates_record("l1-kv-meaning"), "key 'pattern' must be a string, got 5"),
    "context-summary-null": (lambda doc: doc["contexts"][_CONTEXT].update(summary=None),
                             f"context '{_CONTEXT}'", "key 'summary' must be a string, got None"),
    "criterion-key-null": (lambda doc: _answer(doc, "l6-highalt-reflect")["criteria"][0].update(key=None),
                           "template 'l6-highalt-reflect'", "key 'key' must be a string, got None"),
    "contexts-pairs": (lambda doc: _listed(doc, "contexts"), "bank document",
                       f"key 'contexts' must be an object, got [['{_CONTEXT}', "),
    "params-pairs": (lambda doc: _listed(_template(doc, "l3-rpm-400kv"), "params"),
                     _templates_record("l3-rpm-400kv"), "key 'params' must be an object, got [['kv_new', 400]]"),
    "grid-pairs": (lambda doc: _listed(doc["grids"], _QUAD), f"grid '{_QUAD}'",
                   "a record must be a JSON object, got [['kv_rpm_per_volt', [320, "),
    "grid-kv-text": (lambda doc: doc["grids"][_QUAD].update(kv_rpm_per_volt=["320", "340", "360"]), f"grid '{_QUAD}'",
                     "key 'kv_rpm_per_volt' must be a number, got '320'"),
    "grid-axis-digits": (lambda doc: doc["grids"][_QUAD].update(kv_rpm_per_volt="34"), f"grid '{_QUAD}'",
                         "key 'kv_rpm_per_volt' must be a list, got '34'"),
    "battery-cells-text": (lambda doc: doc["grids"][_QUAD]["battery_options"][0].update(cells="6"), f"grid '{_QUAD}'",
                           "key 'cells' must be a number, got '6'"),
    "grid-current_limit-text": (lambda doc: doc["grids"][_QUAD].update(current_limit_a="22"), f"grid '{_QUAD}'",
                                "key 'current_limit_a' must be a number, got '22'"),
    "ct-text": (lambda doc: doc["ct_overrides"].update({"18x7": "0.0368"}), "ct_overrides",
                "key '18x7' must be a number, got '0.0368'"),
    "environment-density-text": (lambda doc: doc["contexts"][_CONTEXT]["environment"].update(air_density_kg_m3="1.225"),
                                 f"context '{_CONTEXT}'", "key 'air_density_kg_m3' must be a number, got '1.225'"),
    "design-n_motors-text": (lambda doc: doc["contexts"][_CONTEXT]["design"].update(n_motors="4"),
                             f"context '{_CONTEXT}'", "key 'n_motors' must be a number, got '4'"),
    "design-footprint-null": (lambda doc: doc["contexts"][_CONTEXT]["design"].update(footprint_m=None),
                              f"context '{_CONTEXT}'", "key 'footprint_m' must be a number, got None"),
    "defaults-current_limit-true": (lambda doc: _answer(doc, "l5-quad-14kg")["defaults"].update(current_limit_a=True),
                                    "template 'l5-quad-14kg'", "key 'current_limit_a' must be a number, got True"),
    "reference_patch-pairs": (lambda doc: _listed(_answer(doc, "l4-thrust-fix"), "reference_patch"),
                              "template 'l4-thrust-fix'",
                              "key 'reference_patch' must be an object, got [['prop_diameter_in', 19]]"),
    # A value a binding reads as a number: an oracle argument, a bound, loaded_rpm or mtow_kg, or a param a
    # $name there binds, an *_in length or an input of the derived required thrust.
    "oracle-kv-true": (lambda doc: _answer(doc, "l3-no-load-rpm")["oracle"]["args"].update(kv=True),
                       "template 'l3-no-load-rpm'", "key 'kv' must be a number, got True"),
    "oracle-kv-text": (lambda doc: _answer(doc, "l3-no-load-rpm")["oracle"]["args"].update(kv="380"),
                       "template 'l3-no-load-rpm'", "key 'kv' must be a number, got '380'"),
    "params-cells-true": (lambda doc: _params(doc, "l1-6s-voltage").update(cells=True),
                          "template 'l1-6s-voltage'", "key 'cells' must be a number, got True"),
    "params-cells-fraction": (lambda doc: _params(doc, "l1-6s-voltage").update(cells=6.5),
                              "template 'l1-6s-voltage'", "cells must be a whole number, got 6.5"),
    "params-loaded_rpm-text": (lambda doc: _params(doc, "l4-thrust-fix").update(loaded_rpm="7500"),
                               "template 'l4-thrust-fix'", "key 'loaded_rpm' must be a number, got '7500'"),
    "bound-name-true": (lambda doc: _named(next(r for r in _answer(doc, _Q14)["requirements"]
                                                if r["kind"] == "MaxMTOW"), "bound", _params(doc, _Q14), True),
                        f"template '{_Q14}'", "key 'bound' must be a number, got True"),
    "mtow_kg-name-text": (lambda doc: _named(_answer(doc, _Q14), "mtow_kg", _params(doc, _Q14), "14"),
                          f"template '{_Q14}'", "key 'mtow_kg' must be a number, got '14'"),
    "params-n_motors-text": (lambda doc: _params(doc, "l5-quad-14kg").update(n_motors="4"),
                             "template 'l5-quad-14kg'", "key 'n_motors' must be a number, got '4'"),
    "params-mtow_kg-text": (lambda doc: _params(doc, "l5-quad-14kg").update(mtow_kg="14"),
                            "template 'l5-quad-14kg'", "key 'mtow_kg' must be a number, got '14'"),
    "params-d1_in-text": (lambda doc: _params(doc, "l3-diameter-scaling").update(d1_in="18"),
                          "template 'l3-diameter-scaling'", "key 'd1_in' must be a number, got '18'"),
}


class TestLoadBank:
    def test_shipped_bank_has_22_plus_templates_across_all_levels(self, bank):
        assert len(bank.templates) >= 22
        levels = {int(t.level) for t in bank.templates}
        assert levels == {1, 2, 3, 4, 5, 6}

    def test_empty_template_list_is_valid(self):
        assert len(load_bank({"schema_version": 1, "templates": []}).templates) == 0

    def test_missing_schema_version(self):
        with pytest.raises(BankError, match="schema_version"):
            load_bank({"templates": []})

    def test_unknown_system_type_names_the_field(self, raw_bank):
        raw_bank["templates"][0]["tags"]["system_type"] = "Submarine"
        with pytest.raises(BankError, match="system_type.*Submarine"):
            load_bank(raw_bank)

    def test_bare_standards_string_is_one_standard(self, raw_bank):
        raw_bank["templates"][0]["tags"]["standards"] = "AHRI"
        first = raw_bank["templates"][0]["id"]
        assert load_bank(raw_bank).instances[first].tags.standards == frozenset({"AHRI"})

    @pytest.mark.parametrize(
        "field, value",
        [("standards", [None]), ("standards", [["UL"]]), ("standards", 1999), ("domains", {"Thermal": 0})],
        ids=["null", "nested-list", "number", "object"],
    )
    def test_tag_value_of_another_json_type_rejected_naming_the_template(self, raw_bank, field, value):
        raw_bank["templates"][0]["tags"][field] = value
        first = raw_bank["templates"][0]["id"]
        with pytest.raises(BankError, match=f"template.*{first}.*unknown (standard|domain): .*expected"):
            load_bank(raw_bank)

    def test_bool_level_rejected_naming_the_template(self, raw_bank):
        raw_bank["templates"][0]["level"] = True
        first = raw_bank["templates"][0]["id"]
        with pytest.raises(BankError, match=f"template.*{first}.*True"):
            load_bank(raw_bank)

    def test_duplicate_id_rejected(self, raw_bank):
        raw_bank["templates"].append(copy.deepcopy(raw_bank["templates"][0]))
        with pytest.raises(BankError, match="duplicate id"):
            load_bank(raw_bank)

    def test_unbound_placeholder_rejected(self, raw_bank):
        raw_bank["templates"][0]["pattern"] = "What is {no_such_binding}?"
        with pytest.raises(BankError, match="no_such_binding"):
            load_bank(raw_bank)

    def test_unbound_oracle_reference_rejected(self, raw_bank):
        numeric = next(t for t in raw_bank["templates"] if t["id"] == "l3-no-load-rpm")
        numeric["answer"]["oracle"]["args"]["kv"] = "$missing"
        with pytest.raises(BankError, match=r"\$missing"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("notes", ["a note", 3, None], ids=["text", "number", "absent"])
    def test_template_notes_are_ignored(self, raw_bank, bank, notes):
        for template in raw_bank["templates"]:
            template.pop("notes", None)
            if notes is not None:
                template["notes"] = notes
        assert load_bank(raw_bank).instances == bank.instances

    def test_rel_tol_out_of_range_rejected(self, raw_bank):
        numeric = next(t for t in raw_bank["templates"] if t["id"] == "l3-no-load-rpm")
        numeric["answer"]["rel_tol"] = 0.5
        with pytest.raises(BankError, match="rel_tol"):
            load_bank(raw_bank)

    def test_empty_accepted_causes_rejected(self, raw_bank):
        diag = next(t for t in raw_bank["templates"] if t["id"] == "l4-vibration")
        diag["answer"]["accepted_causes"] = []
        with pytest.raises(BankError, match="accepted_causes"):
            load_bank(raw_bank)

    def test_error_reports_file_and_line(self, tmp_path, raw_bank):
        raw_bank["templates"][0]["tags"]["system_type"] = "Submarine"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw_bank, indent=2), encoding="utf-8")
        with pytest.raises(BankError) as err:
            load_bank(path)
        assert str(path) in str(err.value)
        assert err.value.line is not None

    def test_error_in_a_record_whose_id_the_file_escapes_names_the_file_alone(self, tmp_path, raw_bank):
        # json.dumps writes "é" as "\u00e9", so no line of the file holds the quoted id.
        template = _template(raw_bank, "l4-thrust-fix")
        template["id"], template["level"] = "l4-thrust-fixé", "Analyse"
        path = tmp_path / "escaped.json"
        path.write_text(json.dumps(raw_bank, indent=2), encoding="utf-8")
        with pytest.raises(BankError, match="unknown cognition level: 'Analyse'") as err:
            load_bank(path)
        assert err.value.line is None and str(err.value).startswith(f"{path}: ")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "templates": [,]}', encoding="utf-8")
        with pytest.raises(BankError, match="broken.json:2"):
            load_bank(path)

    @pytest.mark.parametrize(
        "mutate, location",
        [
            (lambda doc: doc.update(schema_version=True), "schema_version"),
            (lambda doc: doc.update(ct_overrides={"18x6": "steep"}), "ct_overrides"),
            (lambda doc: doc["templates"].insert(2, "l1-kv-meaning"), r"templates\[2\]"),
            (lambda doc: doc["contexts"].update(broken=[1]), "context 'broken'"),
            (lambda doc: doc.update(ct_overrides={"18x7": 0}), "ct_overrides"),
            (lambda doc: doc["templates"][0].update(id=""), r"templates\[0\]: missing id"),
            (lambda doc: doc.update(schema_version=2), r"unsupported schema_version 2 \(expected 1\)"),
        ],
        ids=["schema-version-true", "ct-override-not-a-number", "template-not-an-object",
             "context-not-an-object", "ct-override-zero", "template-id-empty", "schema-version-2"],
    )
    def test_malformed_document_raises_bank_error_with_location(self, raw_bank, mutate, location):
        mutate(raw_bank)
        with pytest.raises(BankError, match=location):
            load_bank(raw_bank)

    @pytest.mark.parametrize(
        "edit",
        [
            {"n_motors": [0]},
            {"kv_rpm_per_volt": [0]},
            {"battery_options": [{"cells": 6, "voltage_v": 30, "capacity_ah": 12}]},
            {"ct_overrides": {"18x6": "x"}},
            {"ct_overrides": {"18x6": 0}},
        ],
        ids=["no-motors", "zero-kv", "6s-at-30v", "ct-override-text", "ct-override-zero"],
    )
    def test_grid_value_outside_the_oracle_domain_rejected_at_load(self, raw_bank, edit):
        raw_bank["grids"]["quad-14kg"].update(edit)
        with pytest.raises(BankError, match="grid 'quad-14kg'"):
            load_bank(raw_bank)

    @pytest.mark.parametrize(
        "section, key, count, cells",
        [("contexts", "urban-logistics-quad", 4.7, 6), ("grids", "quad-14kg", [4.9], 6),
         ("grids", "quad-14kg", [4], 6.5)],
        ids=["context-n-motors", "grid-n-motors", "grid-cells"],
    )
    def test_fractional_count_rejected_at_load(self, raw_bank, section, key, count, cells):
        record = raw_bank[section][key]
        if section == "contexts":
            record["design"].update(n_motors=count, battery_cells=cells)
        else:
            record.update(n_motors=count)
            record["battery_options"][0]["cells"] = cells
        with pytest.raises(BankError, match="whole number"):
            load_bank(raw_bank)

    @pytest.mark.parametrize(
        "axis, value",
        [("prop_diameter_in", 1e-160), ("prop_diameter_in", 1e-80), ("prop_diameter_in", 1e100),
         ("kv_rpm_per_volt", 1e308)],
        ids=["disk-area-underflow", "hover-rpm-division-by-zero", "diameter-overflow",
             "no-load-rpm-overflow"],
    )
    def test_grid_the_oracle_cannot_evaluate_rejected_at_load(self, raw_bank, axis, value):
        # Each value passes the per-axis checks, but evaluating the grid at
        # the item's takeoff weight raises, so scoring the item would too.
        raw_bank["grids"]["quad-14kg"][axis].append(value)
        with pytest.raises(BankError, match="template 'l5-quad-14kg'"):
            load_bank(raw_bank)

    @pytest.mark.parametrize(
        "template_id, edit",
        [
            ("l4-thrust-fix", lambda answer: answer.update(reference_patch={"prop_diameter_in": 9.5})),
            ("l5-quad-14kg", lambda answer: answer["reference_design"].update(kv_rpm_per_volt=50)),
        ],
        ids=["fix-patch-halved", "design-kv-50"],
    )
    def test_reference_answer_failing_its_own_item_rejected_at_load(self, raw_bank, template_id, edit):
        edit(next(t for t in raw_bank["templates"] if t["id"] == template_id)["answer"])
        with pytest.raises(BankError, match=f"template '{template_id}': reference"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("value", ["19", True, math.nan], ids=["string", "bool", "nan"])
    def test_reference_patch_value_not_a_finite_number_rejected_at_load(self, raw_bank, value):
        # A string loaded before: the patch converted it with float(), and the spec kept the string.
        _template(raw_bank, "l4-thrust-fix")["answer"]["reference_patch"] = {"prop_diameter_in": value}
        message = ("template 'l4-thrust-fix': reference patch value 'prop_diameter_in' "
                   f"must be a finite number, got {value!r}")
        with pytest.raises(BankError, match=f"^{re.escape(message)}$"):
            load_bank(raw_bank)

    def test_non_finite_oracle_value_rejected_at_load(self, raw_bank):
        # The oracle overflows to inf, and no answer is within a tolerance of inf:
        # the item's own reference answer scored Fail.
        _template(raw_bank, "l3-no-load-rpm")["answer"]["oracle"]["args"] = {"kv": 1e200, "voltage": 1e200}
        with pytest.raises(BankError, match="^template 'l3-no-load-rpm': Numeric value must be finite, got inf$"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("phrase", ["", "  ", "\t_{}$\\ "], ids=["empty", "spaces", "stripped"])
    @pytest.mark.parametrize("where", list(_BLANK_PHRASE_SITES))
    def test_blank_phrase_rejected_at_load(self, raw_bank, where, phrase):
        # Normalized, a blank phrase is empty, so it would be found in any reply:
        # "The sky is green and I like turtles." passed the fact and rubric items.
        template_id, edit = _BLANK_PHRASE_SITES[where]
        edit(raw_bank, phrase)
        with pytest.raises(BankError, match=f"^template '{template_id}': .*blank phrase"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("phrase", [None, 0, {"T": 1}], ids=["null", "zero", "object"])
    @pytest.mark.parametrize("where", [where for where in _BLANK_PHRASE_SITES if where != "structured-expected"])
    def test_a_phrase_that_is_not_a_json_string_rejected_at_load(self, raw_bank, where, phrase):
        # Read through str(), null was the phrase "None" and {"T": 1} the phrase "{'T': 1}".
        # A structured text field's expected value is left out: a $name may bind a number to it.
        # A fact's canonical phrase is one JSON string, not a list, so its record's table names it.
        template_id, edit = _BLANK_PHRASE_SITES[where]
        edit(raw_bank, phrase)
        message = f"^template '{template_id}': .*phrase {re.escape(repr(phrase))} is not a string$"
        if where == "fact-canonical":
            message = f"^template '{template_id}': key 'canonical' must be a string, got {re.escape(repr(phrase))}$"
        with pytest.raises(BankError, match=message):
            load_bank(raw_bank)

    @pytest.mark.parametrize("key", ["match", "rel_tl", "units"])
    def test_a_structured_field_key_it_does_not_list_rejected_at_load(self, raw_bank, key):
        # "match" is gone, and a misspelt "rel_tl" left the field graded at the default 0.02.
        _template(raw_bank, "l2-prop-parameters")["answer"]["fields"][0][key] = "contains"
        with pytest.raises(BankError, match=f"^template 'l2-prop-parameters': missing or unknown key '{key}'$"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("expected", [None, ["kv"], {"kv": 1}], ids=["null", "list", "object"])
    def test_a_text_field_expecting_neither_a_string_nor_a_number_rejected_at_load(self, raw_bank, bank, expected):
        # Read through str(), null was the phrase "None", and "None of these, sorry." passed the field.
        _text_field(raw_bank, "l2-max-torque-params")["expected"] = expected
        message = f"template 'l2-max-torque-params': field 'kv': expected {expected!r} is not a string or a number"
        with pytest.raises(BankError, match=f"^{re.escape(message)}$"):
            load_bank(raw_bank)
        field = bank.instances["l2-max-torque-params"].answer_spec.fields[0]
        with pytest.raises(ValueError, match=re.escape(message.split(": ", 1)[1])):
            field._replace(expected=expected)
        assert field._replace(expected=340).expected == 340  # a $name may bind a number

    @pytest.mark.parametrize(
        "template_id, unit, allowed",
        [("l1-6s-voltage", None, "a string"), ("l1-6s-voltage", 5, "a string"),
         ("l2-voltage-range", 5, "a string or null"), ("l2-voltage-range", ["V"], "a string or null")],
        ids=["numeric-null", "numeric-number", "field-number", "field-list"],
    )
    def test_a_unit_that_is_not_a_json_string_rejected_at_load(self, raw_bank, template_id, unit, allowed):
        # A numeric "unit": null loaded as the unit "None": the oracle answer passed, and the
        # correct envelope {"value": 22.2, "unit": "V"} scored Fail.  A field may omit its unit.
        answer = _template(raw_bank, template_id)["answer"]
        (answer["fields"][0] if "fields" in answer else answer)["unit"] = unit
        message = f"template '{template_id}': key 'unit' must be {allowed}, got {unit!r}"
        with pytest.raises(BankError, match=f"^{re.escape(message)}$"):
            load_bank(raw_bank)

    def test_patchable_fields_are_a_phrase_list(self, raw_bank):
        # A bare string split into characters, and was rejected naming the field 'p'.
        _template(raw_bank, "l4-thrust-fix")["answer"]["patchable_fields"] = "prop_diameter_in"
        spec = load_bank(raw_bank).instances["l4-thrust-fix"].answer_spec
        assert spec.patchable_fields == ("prop_diameter_in",)
        assert score_answer(spec, reference_answer(spec)).verdict is Verdict.Pass

    def test_a_design_item_without_its_own_mtow_rejected_at_load(self, raw_bank):
        # It fell back to defaults.mtow_kg, which the schema never documented.
        answer = _template(raw_bank, "l5-quad-14kg")["answer"]
        answer["defaults"]["mtow_kg"] = answer.pop("mtow_kg")
        with pytest.raises(BankError, match="^template 'l5-quad-14kg': missing or unknown key 'mtow_kg'$"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("where", list(_REPROS))
    def test_a_misspelt_key_or_a_value_of_another_json_type_names_its_record_and_key(self, raw_bank, where):
        # Each loaded: a misspelt key was ignored, so a default took its place, and a value of
        # another JSON type, or a list of pairs, was coerced by str(), float() or dict().
        edit, record, reason = _REPROS[where]
        edit(raw_bank)
        with pytest.raises(BankError, match=f"^{record}: {re.escape(reason)}"):
            load_bank(raw_bank)

    def test_accepted_causes_are_a_phrase_list(self, raw_bank):
        # A bare string split into characters, and was rejected naming the cause 'i'; null was "None".
        answer = _template(raw_bank, "l4-insufficient-thrust")["answer"]
        answer["accepted_causes"] = "insufficient-rpm-thrust"
        spec = load_bank(raw_bank).instances["l4-insufficient-thrust"].answer_spec
        assert spec.accepted_causes == ("insufficient-rpm-thrust",)
        answer["accepted_causes"] = [None]
        with pytest.raises(BankError, match="^template 'l4-insufficient-thrust': accepted cause None missing"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("rel_tol", [-0.5, 0.0, 0.5, math.nan])
    def test_structured_rel_tol_follows_the_numeric_rule(self, raw_bank, rel_tol):
        # A structured field's -0.5 made the item's own oracle answer score Partial, and its 0.5
        # loaded although a numeric answer rejected it: both records share one (0, 0.1] check.
        for template_id, where in (("l2-voltage-range", "field 'minimum'"), ("l1-6s-voltage", "Numeric")):
            doc = copy.deepcopy(raw_bank)
            answer = _template(doc, template_id)["answer"]
            (answer["fields"][0] if "fields" in answer else answer)["rel_tol"] = rel_tol
            with pytest.raises(BankError, match=re.escape(f"template '{template_id}': {where} rel_tol must be in (0, 0.1]")):
                load_bank(doc)

    def test_design_item_bounding_the_footprint_rejected_at_load(self, raw_bank):
        # Grid designs declare no footprint, so no grid design would meet the
        # bound, the reference front would be empty and every answer would
        # get the full Pareto credit.
        answer = next(t for t in raw_bank["templates"] if t["id"] == "l5-coaxial-11kg")["answer"]
        answer["requirements"].append({"id": "footprint", "kind": "FootprintMax", "bound": 0.8})
        with pytest.raises(BankError, match="template 'l5-coaxial-11kg': .*FootprintMax"):
            load_bank(raw_bank)

    def test_nan_requirement_bound_rejected_at_load(self, raw_bank):
        # A NaN bound admits no value, so it is named at load, not reported as the reference
        # design failing it; infinite bounds are bounds and keep loading.
        answer = next(t for t in raw_bank["templates"] if t["id"] == "l5-quad-14kg")["answer"]
        requirements = answer["requirements"]
        current = next(r for r in requirements if r["id"] == "motor-current")
        current["bound"] = math.nan
        with pytest.raises(BankError, match="^template 'l5-quad-14kg': requirement 'motor-current' bound is NaN"):
            load_bank(raw_bank)
        current["bound"] = math.inf
        requirements.append({"id": "any-thrust", "kind": "MinThrustPerMotor", "bound": -math.inf})
        spec = load_bank(raw_bank).instances["l5-quad-14kg"].answer_spec
        assert next(r for r in spec.requirements if r.id == "motor-current").interval == (-math.inf, math.inf)
        assert next(r for r in spec.requirements if r.id == "any-thrust").interval == (-math.inf, math.inf)

    @pytest.mark.parametrize(
        "section, edit, axis",
        [
            ("reference_design", {"kv_rpm_per_volt": 330}, "kv_values"),
            ("reference_design", {"prop_diameter_in": 21}, "prop_diameters"),
            ("defaults", {"battery_capacity_ah": 13}, "battery_options"),
            ("reference_design", {"n_motors": 6}, "n_motors_options"),
        ],
        ids=["kv", "propeller", "battery", "motor-count"],
    )
    def test_reference_design_off_its_grid_rejected_at_load(self, raw_bank, section, edit, axis):
        # Each edited reference design still meets every requirement.
        answer = next(t for t in raw_bank["templates"] if t["id"] == "l5-quad-14kg")["answer"]
        answer[section].update(edit)
        with pytest.raises(BankError, match=f"template 'l5-quad-14kg': reference design is not a point "
                                            f"of grid 'quad-14kg': off {axis}$"):
            load_bank(raw_bank)

    def test_a_fix_item_whose_context_has_no_design_rejected_at_load(self, raw_bank):
        raw_bank["contexts"]["bare"] = {"summary": "A drone."}
        template = _template(raw_bank, "l4-thrust-fix")
        template["context"] = "bare"
        template["params"].update(mtow_kg=12, n_motors=4)  # bind the thrust bound, as the context's design did
        with pytest.raises(BankError, match="template 'l4-thrust-fix': fix answers need a context with a base design"):
            load_bank(raw_bank)

    def test_a_design_item_without_an_environment_takes_its_context_s(self, raw_bank):
        raw_bank["contexts"]["thin-air"] = {"summary": "Thin air.", "environment": {"air_density_kg_m3": 1.2}}
        _template(raw_bank, "l5-quad-14kg")["context"] = "thin-air"
        spec = load_bank(raw_bank).instances["l5-quad-14kg"].answer_spec
        assert spec.environment == Environment(air_density=1.2)
        assert spec.front == design_space.reference_front(spec.grid, spec.mtow, spec.environment, spec.requirements)

    def test_design_defaults_weighing_other_than_the_item_rejected_at_load(self, raw_bank):
        # Answers would be evaluated at 7 kg and the reference front at 10 kg.
        answer = next(t for t in raw_bank["templates"] if t["id"] == "l5-quad-10kg-min-current")["answer"]
        answer["defaults"]["mtow_kg"] = 7
        with pytest.raises(BankError, match="template 'l5-quad-10kg-min-current': defaults.mtow_kg 7 "
                                            "differs from the item's mtow_kg 10"):
            load_bank(raw_bank)

    @pytest.mark.parametrize(
        "template_id, edit, reason",
        [
            ("l2-prop-parameters", lambda answer: answer["fields"][0].update(kind="numbr"), "kind"),
            ("l2-prop-parameters", lambda answer: answer["fields"][2].update(match="exakt"), "match"),
            ("l2-prop-parameters", lambda answer: answer["fields"][0].update(expected="eighteen"),
             "expected"),
            ("l5-quad-14kg", lambda answer: answer["requirements"][3].update(bound=6.9), "whole number"),
            ("l6-highalt-reflect", lambda answer: answer.update(criteria=[]), "Rubric needs at least one criterion"),
            ("l5-quad-14kg", lambda answer: answer.update(grid="no-such-grid"), "unknown grid 'no-such-grid'"),
        ],
        ids=["field-kind-unknown", "field-match-unknown", "number-field-expects-text",
             "voltage-class-fractional", "rubric-no-criteria", "design-grid-unknown"],
    )
    def test_malformed_answer_value_rejected_at_load(self, raw_bank, template_id, edit, reason):
        edit(next(t for t in raw_bank["templates"] if t["id"] == template_id)["answer"])
        with pytest.raises(BankError, match=f"template '{template_id}': .*{reason}"):
            load_bank(raw_bank)

    @pytest.mark.parametrize(
        "edit, record, key",
        [
            (lambda doc: _rename(_template(doc, "l5-highalt-9kg")["answer"]["environment"],
                                 "air_density_kg_m3", "air_density"),
             "template 'l5-highalt-9kg'", "air_density"),
            (lambda doc: doc["contexts"]["urban-logistics-quad"]["environment"].update(temperature_c=15),
             "context 'urban-logistics-quad'", "temperature_c"),
            (lambda doc: _rename(doc["grids"]["quad-14kg"], "current_limit_a", "current_limit"),
             "grid 'quad-14kg'", "current_limit"),
            (lambda doc: doc["grids"]["quad-14kg"]["battery_options"][0].update(capacity_mah=12000),
             "grid 'quad-14kg'", "capacity_mah"),
            (lambda doc: _template(doc, "l3-no-load-rpm")["answer"]["oracle"]["args"].update(
                volts="$voltage_v"), "template 'l3-no-load-rpm'", "volts"),
        ],
        ids=["template-environment", "context-environment", "grid", "battery-option", "oracle-binding"],
    )
    def test_unknown_key_rejected_naming_its_record(self, raw_bank, edit, record, key):
        # An ignored key would let a default, or the binding it misspells,
        # take its place unnoticed.
        edit(raw_bank)
        with pytest.raises(BankError, match=f"{record}: .*'{key}'"):
            load_bank(raw_bank)

    def test_whole_float_count_loads(self, raw_bank):
        raw_bank["contexts"]["urban-logistics-quad"]["design"]["n_motors"] = 4.0
        raw_bank["grids"]["quad-14kg"]["n_motors"] = [4.0]
        bank = load_bank(raw_bank)
        assert bank.contexts["urban-logistics-quad"].design.n_motors == 4
        assert bank.grids["quad-14kg"].n_motors_options == (4,)

    @pytest.mark.parametrize(
        "section, overrides, error",
        [
            ("grid", {"18.0x6": 0.05}, None),
            ("grid", {"18x6.0": 0.05}, None),
            ("grid", {"18 x 6": 0.05}, None),
            ("grid", {"22x8": 0.05}, r"grid 'quad-14kg': .*'22x8'"),
            ("grid", {"18x6": 0.05, "18.0x6": 0.04}, r"'18\.0x6'.*'18x6'"),
            ("top", {"18.0x7": 0.036827286029}, None),
        ],
        ids=["grid-18.0x6", "grid-18x6.0", "grid-18-x-6", "grid-off-grid", "grid-two-keys", "top-18.0x7"],
    )
    def test_ct_override_key_names_a_propeller_however_spelt(self, raw_bank, section, overrides, error):
        # A key's two lengths are read in inches, so every spelling of a
        # propeller reaches the designs that use it; a key that names no
        # propeller of its grid, or a second key of one, is an error.
        (raw_bank["grids"]["quad-14kg"] if section == "grid" else raw_bank)["ct_overrides"] = overrides
        if error:
            with pytest.raises(BankError, match=error):
                load_bank(raw_bank)
            return
        bank = load_bank(raw_bank)
        if section == "grid":
            spec = bank.instances["l5-quad-14kg"].answer_spec
            assert (18 * 0.0254, 6 * 0.0254, 0.05) in spec.grid.propellers()
            answer = {"kv_rpm_per_volt": 340, "prop_diameter_in": 18, "prop_pitch_in": 6}
            assert grid_design_from_bank(answer, spec.defaults, spec.grid).thrust_coefficient_ct == 0.05
        else:
            spec = bank.instances["l4-thrust-fix"].answer_spec
            score = score_answer(spec, '```json\n{"patch": {"prop_pitch_in": 7}}\n```')
            assert score.verdict is Verdict.Pass

    @pytest.mark.parametrize("kv, volts", [(-380, 22.2), ("3", 2)], ids=["negative-kv", "text-kv"])
    def test_no_load_rpm_param_derived_through_the_oracle(self, raw_bank, kv, volts):
        # A prompt must not state an RPM the oracle would refuse to compute
        # (-8436 RPM), or one made by repeating a string ("33 RPM").
        template = _template(raw_bank, "l1-kv-meaning")
        template.update(params={"kv": kv, "voltage_v": volts}, pattern="Spin at {no_load_rpm} RPM?")
        with pytest.raises(BankError, match="template 'l1-kv-meaning'"):
            load_bank(raw_bank)

    @pytest.mark.parametrize("name", ["missing.json", ".", "latin1.json"])
    def test_unreadable_file_raises_bank_error_with_path(self, tmp_path, name):
        (tmp_path / "latin1.json").write_bytes('{"schema_version": 1, "x": "\xe9"}'.encode("latin-1"))
        path = tmp_path / name
        with pytest.raises(BankError, match=re.escape(str(path))):
            load_bank(path)
        with pytest.raises(BankError, match=re.escape(str(path))):
            load_bank(str(path))


def _nodes(node, prefix=()):
    """Every path below the root of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _nodes(child, prefix + (key,))


_RECORD = re.compile(
    r"(context '[^']*'|grid '[^']*'|templates\[\d+\]( \(id [^)]*\))?|template '[^']*'"
    r"|bank document|ct_overrides): "
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(_nodes(_SHIPPED))),
    st.sampled_from([None, 0, -1, "", "x", [], {}, [1], True, 1e308]),
)
def test_single_node_replacement_loads_or_names_its_record(path, value):
    doc = copy.deepcopy(_SHIPPED)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    try:
        load_bank(doc)
    except BankError as exc:
        message = str(exc)
        if path == ("schema_version",):
            assert "schema_version" in message
            return
        record = _RECORD.match(message)
        assert record, message
        assert not _RECORD.match(message[record.end():]), message


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _record_of(path) -> str:
    """A regex of the record a load names for an edit at ``path`` of the shipped bank."""
    if path[:1] == ("templates",) and len(path) > 1:
        tid = re.escape(repr(_SHIPPED["templates"][path[1]]["id"]))
        return rf"(templates\[{path[1]}\]( \(id [^)]*\))?|template {tid})"  # as read, the id may be the edited one
    if path[:1] in (("contexts",), ("grids",)) and len(path) > 1:
        return re.escape(f"{path[0][:-1]} {path[1]!r}")
    if path[:1] == ("cause_vocabulary",) and len(path) > 1:  # read by the first diagnosis item
        diagnosis = next(t["id"] for t in _SHIPPED["templates"] if t["answer"]["kind"] == "diagnosis")
        return f"template {re.escape(repr(diagnosis))}"
    return "ct_overrides" if path[:1] == ("ct_overrides",) else "bank document"


#: Maps keyed by ids or by free names: every other object of a bank is a record with fixed keys.
_FREE_MAPS = ("contexts", "grids", "cause_vocabulary", "ct_overrides", "params", "args")
_FIXED_KEY_RECORDS = [path for path in [(), *_nodes(_SHIPPED)]
                      if isinstance(_at(_SHIPPED, path), dict) and not (path and path[-1] in _FREE_MAPS)]
#: Every key some record may hold, but ``notes``, which only a template may hold.
_KNOWN_KEYS = ({key for path in _FIXED_KEY_RECORDS for key in _at(_SHIPPED, path)}
               | {*DESIGN_FIELD_MAP, *ENVIRONMENT_FIELD_MAP, *BATTERY_FIELD_MAP, *GRID_FIELD_MAP}) - {"notes"}


def _misspellings(word):
    """Each deletion, doubling and swap of adjacent characters in ``word``."""
    return ({word[:i] + word[i + 1:] for i in range(len(word))}
            | {word[:i] + word[i] + word[i:] for i in range(len(word))}
            | {word[:i] + word[i + 1] + word[i] + word[i + 2:] for i in range(len(word) - 1)})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_key_no_record_lists_names_its_record_and_the_key(data):
    path = data.draw(st.sampled_from(_FIXED_KEY_RECORDS))
    record = _at(_SHIPPED, path)
    typos = sorted({typo for key in record for typo in _misspellings(key)} - _KNOWN_KEYS)
    key = data.draw(st.sampled_from(typos) | st.text(max_size=8).filter(lambda k: k not in _KNOWN_KEYS)
                    | st.just("notes"))
    doc = copy.deepcopy(_SHIPPED)
    _at(doc, path)[key] = 0
    if key == "notes" and path[:1] == ("templates",) and len(path) == 2:
        load_bank(doc)
        return
    with pytest.raises(BankError, match=f"^{_record_of(path)}: .*{re.escape(repr(key))}"):
        load_bank(doc)


_LEAVES = [path for path in _nodes(_SHIPPED) if not isinstance(_at(_SHIPPED, path), (dict, list))]
#: The leaves of the records that carry units: a grid's and a Ct table's, and a design's, a patch's or an
#: environment's, in a context or an answer.
_UNIT_LEAVES = [path for path in _LEAVES if path[0] in ("grids", "ct_overrides") or len(path) > 1
                and path[-2] in ("design", "environment", "defaults", "reference_design", "reference_patch")]
#: The answer leaves a binding reads as a number, a number or a $name: oracle arguments, requirement bounds,
#: a fix's loaded_rpm and a design's mtow_kg.
_BINDING_LEAVES = [path for path in _LEAVES if path[0] == "templates" and path[2] == "answer" and (
    path[3:5] == ("oracle", "args") or path[3] == "requirements" and path[-1] == "bound"
    or path[3:] in (("loaded_rpm",), ("mtow_kg",)))]
#: And the params read as numbers: each a $name there binds, each *_in length, and the takeoff weight and motor
#: count the required thrust is derived from.
_NUMBER_LEAVES = _BINDING_LEAVES + [
    path for path in _LEAVES if path[0] == "templates" and path[2] == "params"
    and (path[3].endswith("_in") or path[3] in ("mtow_kg", "n_motors")
         or f"${path[3]}" in {_at(_SHIPPED, leaf) for leaf in _BINDING_LEAVES if leaf[1] == path[1]})]
_JSON_TYPE = {bool: "bool", int: "number", float: "number", str: "string", type(None): "null", list: "list",
              dict: "object"}


@settings(max_examples=450, deadline=None)
@given(st.data())
def test_a_leaf_of_another_json_type_names_its_record_or_keeps_every_reference_passing(data):
    # A leaf of a record that carries units is a JSON number, and so is a value a binding reads as one, so
    # there the load fails, naming that record, unless the new value is a number or, where a binding may
    # name a param, a $name that binds a number; a third of the draws are each of these two kinds of leaf.
    path = data.draw(st.sampled_from(_UNIT_LEAVES) | st.sampled_from(_NUMBER_LEAVES) | st.sampled_from(_LEAVES))
    strict, kind = path in _UNIT_LEAVES + _NUMBER_LEAVES, _JSON_TYPE[type(_at(_SHIPPED, path))]
    doc = copy.deepcopy(_SHIPPED)
    value = _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(
        [v for v in (None, True, 0, 2.5, "x", "$kv", [], {}, ["x"], {"x": 1}) if _JSON_TYPE[type(v)] != kind]))
    try:
        edited = load_bank(doc)
    except BankError as exc:  # elsewhere, a leaf outside the templates may fail a template that reads it
        named = f"({_record_of(path)}{'' if strict or path[0] == 'templates' else '|template .*'}): "
        if path == ("schema_version",):
            named = "unsupported schema_version|bank document: key 'schema_version'"
        assert re.match(named, str(exc)), exc
        return
    assert not strict or type(value) in (int, float) or value == "$kv" and path in _BINDING_LEAVES, \
        f"{path} = {value!r} loaded"
    for inst in edited.instances.values():
        score = score_answer(inst.answer_spec, reference_answer(inst.answer_spec))
        if inst.kind == "design":  # on the front or not: front membership is not checked yet
            assert {e.outcome for e in score.evidence if e.check_id != "pareto"} == {"pass"}, (inst.id, score)
        else:
            assert score.verdict is Verdict.Pass, (inst.id, score)


_UNRELATED_REPLY = "The sky is green and I like turtles."
#: Phrases drawn from characters the unrelated reply lacks, besides those ``normalize_phrase`` strips; a
#: word spelled with the reply's letters but absent from it, which a list site reads as one phrase, not
#: one per letter; and values that are not JSON strings.
_PHRASES = st.text(alphabet=" \t\n\u00a0_{}$\\Qz*0", max_size=5) | st.sampled_from(["thrust", None, 0, {"T": 1}])
_TOLERANCES = st.floats() | st.sampled_from([0.0, 0.1, 0.5, -0.5, 5e-324])
#: The answer keys that hold a phrase list.
_PHRASE_LISTS = ("accepted_aliases", "aliases", "phrases")


def _phrase_and_tolerance_sites(bank):
    """(template id, document path, leaf kind) of every phrase, phrase list and tolerance of a non-design item."""
    ids = [t["id"] for t in _SHIPPED["templates"]]
    sites = []
    for template in bank.templates:
        if template.answer_raw["kind"] == "design":
            continue
        root = ("templates", ids.index(template.id), "answer")
        for path in _nodes(template.answer_raw):
            parent = _SHIPPED
            for key in root + path[:-1]:
                parent = parent[key]
            if path[-1] == "rel_tol":
                sites.append((template.id, root + path, "tolerance"))
            elif (path[-1] == "canonical" or (path[-1] == "expected" and parent.get("kind") == "text")
                  or path[-1] in _PHRASE_LISTS or (len(path) > 1 and path[-2] in _PHRASE_LISTS)):
                sites.append((template.id, root + path, "phrase"))
    diagnosis = next(t.id for t in bank.templates if t.answer_raw["kind"] == "diagnosis")
    for cause, phrases in _SHIPPED["cause_vocabulary"].items():  # each list, and each phrase in it
        sites.append((diagnosis, ("cause_vocabulary", cause), "phrase"))
        sites += [(diagnosis, ("cause_vocabulary", cause, i), "phrase") for i in range(len(phrases))]
    return sites


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_phrase_or_tolerance_edit_names_its_template_or_keeps_every_reference_passing(bank, data):
    template_id, path, leaf = data.draw(st.sampled_from(_phrase_and_tolerance_sites(bank)))
    doc = copy.deepcopy(_SHIPPED)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_PHRASES if leaf == "phrase" else _TOLERANCES)
    try:
        edited = load_bank(doc)
    except BankError as exc:
        assert str(exc).startswith(f"template '{template_id}': "), str(exc)
        return
    for inst in edited.instances.values():
        if inst.kind != "design":
            assert score_answer(inst.answer_spec, reference_answer(inst.answer_spec)).verdict is Verdict.Pass, inst.id
            assert score_answer(inst.answer_spec, _UNRELATED_REPLY).verdict is not Verdict.Pass, inst.id


#: (template id, answer section, key) of each value of the fix item's reference patch, and of each L5 reference design.
_PATCH_SITES = [("l4-thrust-fix", "reference_patch", key)
                for key in _template(_SHIPPED, "l4-thrust-fix")["answer"]["reference_patch"]]
_DESIGN_SITES = [(t["id"], "reference_design", key) for t in _SHIPPED["templates"]
                 if t["answer"]["kind"] == "design" for key in t["answer"]["reference_design"]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_reference_value_edit_names_its_template_or_loads_a_passing_reference(data):
    template_id, section, key = data.draw(st.sampled_from(_PATCH_SITES) | st.sampled_from(_DESIGN_SITES))
    template = copy.deepcopy(_template(_SHIPPED, template_id))
    answer = template["answer"]
    # Values on the item's grid, near the patch's threshold, and of other JSON kinds.
    on_grid = _SHIPPED["grids"].get(answer.get("grid"), {}).get(key) or [answer[section][key]]
    answer[section][key] = data.draw(st.sampled_from(on_grid) | st.floats(0, 40) | st.sampled_from(
        [None, -1, 0, "x", "19", True, [], {}, 1e308, math.inf, math.nan]))
    try:  # the template alone, so each example grounds one item
        edited = load_bank({**_SHIPPED, "templates": [template]})
    except BankError as exc:
        assert str(exc).startswith(f"template '{template_id}': "), str(exc)
        return
    spec = edited.instances[template_id].answer_spec
    score = score_answer(spec, reference_answer(spec))
    if section == "reference_patch":
        assert score.verdict is Verdict.Pass, score
    else:  # on the front or not: front membership is not checked yet
        assert [e.outcome for e in score.evidence if e.check_id != "pareto"] == ["pass"] * len(spec.requirements), score


@given(st.text(alphabet=" \t\n\u00a0\u2003_{}$\\x", max_size=6))
def test_a_blank_phrase_is_one_that_normalizes_to_nothing(phrase):
    try:
        _check_phrases("fact", (phrase,))
    except ValueError:
        assert normalize_phrase(phrase) == ""
    else:
        assert normalize_phrase(phrase) != ""


def _positive(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def _bank_designs(draw):
    cells = draw(st.integers(1, 14))
    raw = {
        "kv_rpm_per_volt": draw(_positive(10.0, 5000.0)),
        "current_limit_a": draw(_positive(1.0, 200.0)),
        "battery_cells": cells,
        "battery_voltage_v": 3.7 * cells * draw(_positive(0.96, 1.04)),
        "battery_capacity_ah": draw(_positive(0.1, 100.0)),
        "prop_diameter_in": draw(_positive(1.0, 60.0)),
        "prop_pitch_in": draw(_positive(1.0, 30.0)),
        "n_motors": draw(st.integers(1, 12)),
        "mtow_kg": draw(_positive(0.1, 100.0)),
        "thrust_coefficient_ct": draw(_positive(0.01, 1.0)),
    }
    footprint = draw(st.none() | _positive(0.1, 10.0))
    if footprint is not None:
        raw["footprint_m"] = footprint
    return raw


@given(_bank_designs())
def test_design_bank_round_trip(raw):
    back = design_to_bank(design_from_bank(raw))
    assert list(back) == list(raw)
    for key, value in raw.items():
        if key in ("battery_cells", "n_motors"):
            assert type(back[key]) is int and back[key] == value
        else:
            assert math.isclose(back[key], value, rel_tol=1e-12), key


_GRID_RECORD = {
    "kv_rpm_per_volt": [380],
    "prop_diameter_in": [18],
    "prop_pitch_in": [6],
    "battery_options": [{"cells": 6, "voltage_v": 22.2, "capacity_ah": 12}],
    "n_motors": [4],
}


def test_grid_from_bank_units():
    grid = grid_from_bank(_GRID_RECORD)
    assert grid.prop_diameters[0] == pytest.approx(18 * 0.0254)


def test_a_grid_axis_written_as_digits_is_not_split_into_values():
    # "34" was iterated into the Kv values 3 and 4.
    with pytest.raises(TypeError, match="^key 'kv_rpm_per_volt' must be a list, got '34'$"):
        grid_from_bank({**_GRID_RECORD, "kv_rpm_per_volt": "34"})


class TestInstantiate:
    def test_rpm_item_computed_through_oracle(self, instances):
        spec = instances["l3-no-load-rpm"].answer_spec
        assert isinstance(spec, NumericSpec)
        assert spec.value == pytest.approx(8436, abs=1e-9)
        assert spec.unit == "RPM"

    def test_scaling_item(self, instances):
        spec = instances["l3-diameter-scaling"].answer_spec
        assert spec.value == pytest.approx(1.52, abs=0.01)
        assert spec.rel_tol == 0.02

    def test_prompt_renders_bindings(self, instances):
        prompt = instances["l3-no-load-rpm"].prompt
        assert "380" in prompt and "22.2" in prompt
        assert "{" not in prompt

    def test_zero_placeholder_pattern_is_identity(self, bank):
        template = next(t for t in bank.templates if t.id == "l1-kv-meaning")
        inst = instantiate(template, bank)
        assert inst.prompt == template.pattern

    def test_provenance_carries_template_and_bindings(self, instances):
        prov = instances["l3-diameter-scaling"].provenance
        assert prov["template_id"] == "l3-diameter-scaling"
        assert prov["params"] == {"d1_in": 18, "d2_in": 20}

    def test_all_numeric_answers_rederive_through_independent_formulas(self, instances):
        # The shipped bank's numeric ground truths, recomputed from first
        # principles, must agree within each item's rel_tol.
        expected = {
            "l1-6s-voltage": 6 * 3.7,
            "l3-no-load-rpm": 380 * 22.2,
            "l3-rpm-400kv": 400 * 22.2,
            "l3-diameter-scaling": (20 / 18) ** 4,
            "l3-kv-torque": 60 / (2 * math.pi * 420) * 25,
        }
        for item_id, value in expected.items():
            spec = instances[item_id].answer_spec
            assert spec.value == pytest.approx(value, rel=spec.rel_tol), item_id

    @pytest.mark.parametrize(
        "template_id, edit, reason",
        [
            ("l4-thrust-fix", lambda answer: answer.update(reference_patch={"prop_diameter_in": 9.5}),
             r"reference patch does not fix the item \(hover-thrust still-failing"),
            ("l5-quad-14kg", lambda answer: answer["reference_design"].update(kv_rpm_per_volt=50),
             r"reference design fails requirement\(s\) hover-thrust"),
            ("l3-no-load-rpm", lambda answer: answer["oracle"].update(args={"kv": 1e200, "voltage": 1e200}),
             "Numeric value must be finite"),
        ],
        ids=["fix", "design", "numeric"],
    )
    def test_bare_instantiate_rejects_a_reference_failing_its_item(self, bank, template_id, edit, reason):
        # The spec checks its own reference as it is built, so grounding a template
        # outside a load raises as the load does.
        template = next(t for t in bank.templates if t.id == template_id)
        answer = copy.deepcopy(dict(template.answer_raw))
        edit(answer)
        with pytest.raises(ValueError, match=f"^{reason}"):
            instantiate(template._replace(answer_raw=answer), bank)

    def test_design_fronts_walked_once_per_key_per_load(self, raw_bank, bank, monkeypatch):
        # Two clones of l5-quad-14kg share its (grid id, mtow, environment, requirements), so
        # six design items take four walks, each counted at its one grid check.
        template = _template(raw_bank, "l5-quad-14kg")
        raw_bank["templates"] += [{**template, "id": f"l5-quad-14kg-{n}"} for n in (2, 3)]
        walks = []
        real = design_space.check_grid
        monkeypatch.setattr(design_space, "check_grid", lambda *args: walks.append(args) or real(*args))
        loaded = load_bank(raw_bank)
        designs = [i for i in loaded.instances.values() if i.kind == "design"]
        assert (len(designs), len(walks)) == (6, 4)
        monkeypatch.undo()
        for inst in designs:
            spec = inst.answer_spec
            assert spec.front == design_space.reference_front(spec.grid, spec.mtow, spec.environment, spec.requirements)
            assert instantiate(next(t for t in loaded.templates if t.id == inst.id), loaded).answer_spec == spec
            assert spec == (bank.instances.get(inst.id) or bank.instances["l5-quad-14kg"]).answer_spec


class TestFixSpecJudge:
    """The patched design ``FixSpec.judge`` hands the oracle, on the shipped l4-thrust-fix item:
    an 18x6 base design, in a bank with an 18x7 Ct override."""

    @pytest.fixture
    def spec(self, bank):
        return bank.instances["l4-thrust-fix"].answer_spec

    @staticmethod
    def _patched(monkeypatch, spec, patch):
        seen, real = [], propulsion.evaluate_design
        with monkeypatch.context() as patched:
            patched.setattr(propulsion, "evaluate_design",
                            lambda design, *args, **kwargs: seen.append(design) or real(design, *args, **kwargs))
            spec.judge(patch)
        assert seen[0] == spec.base_design
        return seen[1]

    def test_an_unknown_key_raises_key_error(self, spec):
        with pytest.raises(KeyError, match="nonexistent"):
            spec.judge({"nonexistent": 1})

    def test_a_patched_propeller_takes_its_override(self, spec, monkeypatch):
        patched = self._patched(monkeypatch, spec, {"prop_pitch_in": 7})
        assert patched.prop_pitch == 7 * M_PER_IN
        assert patched.thrust_coefficient_ct == pytest.approx(CT_DEFAULT * 7 / 6, rel=1e-9)

    def test_a_patch_that_sets_ct_keeps_it_over_the_override(self, spec, monkeypatch):
        patched = self._patched(monkeypatch, spec, {"prop_pitch_in": 7, "thrust_coefficient_ct": 0.04})
        assert patched.thrust_coefficient_ct == 0.04

    def test_a_propeller_with_no_override_keeps_the_base_ct(self, spec, monkeypatch):
        # 19x6 has no override, and the base Ct is not the default, so the two fallbacks differ.
        spec = spec._replace(base_design=spec.base_design._replace(thrust_coefficient_ct=CT_DEFAULT * 0.99))
        patched = self._patched(monkeypatch, spec, {"prop_diameter_in": 19})
        assert patched.prop_diameter == 19 * M_PER_IN
        assert patched.thrust_coefficient_ct == CT_DEFAULT * 0.99

    @pytest.mark.parametrize("patch", [{}, {"kv_rpm_per_volt": 380}, {"prop_pitch_in": 7}],
                             ids=["empty", "same-kv", "same-pitch"])
    def test_a_patch_that_stays_on_an_overridden_propeller_keeps_the_base_ct(self, spec, monkeypatch, patch):
        # An 18x7 base design that states no Ct runs at the default.  A patch that leaves it on 18x7
        # moves to no propeller, so it does not take the 18x7 override, which would lift the hover
        # thrust from 26.4 to 30.8 N, past the 29.43 N bound, with nothing changed.
        spec = spec._replace(base_design=spec.base_design._replace(prop_pitch=7 * M_PER_IN))
        assert self._patched(monkeypatch, spec, patch).thrust_coefficient_ct == CT_DEFAULT
        fixed, rows = spec.judge(patch)
        assert (fixed, rows[0][3]) == (False, "still-failing")
        fence = "```json\n" + json.dumps({"patch": patch}) + "\n```"
        assert score_answer(spec, fence).verdict is Verdict.Fail
        assert spec.judge({"prop_diameter_in": 19})[1][0][3] == "flipped"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_patch_restating_the_base_design_never_fixes_the_item(self, fix_specs, data):
        spec = data.draw(st.sampled_from(fix_specs))
        own = design_to_bank(spec.base_design)
        keys = data.draw(st.sets(st.sampled_from([key for key in spec.patchable_fields if key in own])))
        patch = {key: round(own[key], 9) if key.endswith("_in") else own[key] for key in keys}
        fields = [DESIGN_FIELD_MAP[key] for key in keys]
        assert fields_to_si(patch) == {field: getattr(spec.base_design, field) for field in fields}
        assert not spec.judge(patch)[0]


@pytest.fixture(scope="module")
def fix_specs(bank):
    """Every shipped fix spec, and each rebuilt on a propeller of its ``ct_overrides`` wherever it
    still loads (its reference patch still fixes it)."""
    specs = [inst.answer_spec for inst in bank.instances.values() if inst.kind == "fix"]
    for spec in list(specs):
        for diameter, pitch in spec.ct_overrides:
            try:
                specs.append(spec._replace(
                    base_design=spec.base_design._replace(prop_diameter=diameter, prop_pitch=pitch)))
            except ValueError:
                pass
    return specs


class TestSample:
    def test_every_sampled_instance_matches_filter(self, bank):
        flt = TagFilter.from_dict({"levels": [1, 4], "system_type": ["eVTOL"]})
        for inst in sample(bank, flt, 10, SampleMode.Targeted, 3):
            assert matches(inst.tags, inst.level, flt)

    def test_same_seed_same_selection(self, bank):
        a = sample(bank, TagFilter.empty(), 8, SampleMode.Targeted, 42)
        b = sample(bank, TagFilter.empty(), 8, SampleMode.Targeted, 42)
        assert [i.id for i in a] == [i.id for i in b]

    def test_different_seed_usually_differs(self, bank):
        a = [i.id for i in sample(bank, TagFilter.empty(), 8, SampleMode.Targeted, 1)]
        b = [i.id for i in sample(bank, TagFilter.empty(), 8, SampleMode.Targeted, 2)]
        assert a != b

    def test_single_stratum_curriculum_equals_id_order(self, bank):
        flt = TagFilter.from_dict({"levels": [1, 1]})
        population = sorted(
            t.id for t in bank.templates if matches(t.tags, t.level, flt)
        )
        out = sample(bank, flt, len(population), SampleMode.Curriculum, 0)
        assert [i.id for i in out] == population

    def test_curriculum_sorted_by_level_then_id(self, bank):
        out = sample(bank, TagFilter.empty(), len(bank.templates), SampleMode.Curriculum, 0)
        keys = [(int(i.level), i.id) for i in out]
        assert keys == sorted(keys)

    def test_stratified_quotas_equal_when_possible(self, bank):
        out = sample(bank, TagFilter.empty(), 12, SampleMode.Stratified, 9)
        per_level = {}
        for inst in out:
            per_level[int(inst.level)] = per_level.get(int(inst.level), 0) + 1
        assert per_level == {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}

    def test_stratified_redistributes_when_a_level_is_short(self, bank):
        # L2 has 3 items; asking for 24 total forces redistribution and
        # must return the whole bank.
        out = sample(bank, TagFilter.empty(), len(bank.templates), SampleMode.Stratified, 0)
        assert sorted(i.id for i in out) == sorted(t.id for t in bank.templates)

    @pytest.mark.parametrize("n, tail", [(22, {4: 4, 5: 4, 6: 3}), (23, {4: 4, 5: 4, 6: 4})])
    def test_stratified_spreads_a_short_level_evenly(self, bank, n, tail):
        # Level sizes are 4/3/4/5/4/4: the item L2 lacks goes to the lowest
        # level with spare items, not to whichever level the shift reaches.
        out = sample(bank, TagFilter.empty(), n, SampleMode.Stratified, 0)
        per_level = {}
        for inst in out:
            per_level[int(inst.level)] = per_level.get(int(inst.level), 0) + 1
        assert {lvl: per_level[lvl] for lvl in tail} == tail

    def test_oversampling_reports_population(self, bank):
        with pytest.raises(SampleError) as err:
            sample(bank, TagFilter.empty(), 1000, SampleMode.Targeted, 0)
        assert err.value.population == len(bank.templates)
        assert "24" in str(err.value)

    @pytest.mark.parametrize("n, mode, message", [(-1, SampleMode.Targeted, "n must be >= 0, got -1"),
                                                  (1, "Random", "unknown sample mode: 'Random'")],
                             ids=["negative-n", "unknown-mode"])
    def test_a_negative_n_or_an_unknown_mode_rejected(self, bank, n, mode, message):
        with pytest.raises(ValueError, match=message):
            sample(bank, TagFilter.empty(), n, mode, 0)

    def test_n_zero_is_empty(self, bank):
        assert sample(bank, TagFilter.empty(), 0, SampleMode.Targeted, 0) == []

    def test_hvac_filter_finds_the_vrf_item(self, bank):
        flt = TagFilter.from_dict({"system_type": ["HVAC"]})
        out = sample(bank, flt, 1, SampleMode.Targeted, 0)
        assert out[0].id == "l6-hvac-vrf-review"


@settings(deadline=None)
@given(
    populations=st.dictionaries(st.integers(1, 6), st.integers(0, 8), min_size=1),
    data=st.data(),
)
def test_stratified_quotas_are_as_equal_as_the_populations_allow(populations, data):
    levels = sorted(populations)
    n = data.draw(st.integers(0, sum(populations.values())))
    quotas = _stratified_quotas(levels, populations, n)
    assert sum(quotas.values()) == n
    assert all(quotas[lvl] <= populations[lvl] for lvl in levels)
    spare = [lvl for lvl in levels if quotas[lvl] < populations[lvl]]
    assert all(quotas[lvl] >= quotas[other] - 1 for lvl in spare for other in levels)
