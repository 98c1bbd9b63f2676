import copy
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from eagibench.bank import (
    BankError,
    NumericSpec,
    SampleError,
    SampleMode,
    _stratified_quotas,
    design_from_bank,
    design_to_bank,
    instantiate,
    load_bank,
    sample,
    shipped_bank_path,
)
from eagibench.taxonomy import CognitionLevel, TagFilter, matches


@pytest.fixture()
def raw_bank():
    return json.loads(shipped_bank_path().read_text(encoding="utf-8"))


class TestLoadBank:
    def test_shipped_bank_has_22_plus_templates_across_all_levels(self, bank):
        assert len(bank) >= 22
        levels = {int(t.level) for t in bank.templates}
        assert levels == {1, 2, 3, 4, 5, 6}

    def test_empty_template_list_is_valid(self):
        assert len(load_bank({"schema_version": 1, "templates": []})) == 0

    def test_missing_schema_version(self):
        with pytest.raises(BankError, match="schema_version"):
            load_bank({"templates": []})

    def test_unknown_system_type_names_the_field(self, raw_bank):
        raw_bank["templates"][0]["tags"]["system_type"] = "Submarine"
        with pytest.raises(BankError, match="system_type.*Submarine"):
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
        ],
        ids=["schema-version-true", "ct-override-not-a-number", "template-not-an-object",
             "context-not-an-object", "ct-override-zero"],
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

    def test_whole_float_count_loads(self, raw_bank):
        raw_bank["contexts"]["urban-logistics-quad"]["design"]["n_motors"] = 4.0
        raw_bank["grids"]["quad-14kg"]["n_motors"] = [4.0]
        bank = load_bank(raw_bank)
        assert bank.contexts["urban-logistics-quad"].design.n_motors == 4
        assert bank.grids["quad-14kg"].n_motors_options == (4,)

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


_SHIPPED = json.loads(shipped_bank_path().read_text(encoding="utf-8"))
_RECORD = re.compile(
    r"(context '[^']*'|grid '[^']*'|templates\[\d+\]( \(id [^)]*\))?|template '[^']*'"
    r"|contexts|grids|templates|cause_vocabulary|ct_overrides): "
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
        template = bank.template("l1-kv-meaning")
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
        out = sample(bank, TagFilter.empty(), len(bank), SampleMode.Curriculum, 0)
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
        out = sample(bank, TagFilter.empty(), len(bank), SampleMode.Stratified, 0)
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
        assert err.value.population == len(bank)
        assert "24" in str(err.value)

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
