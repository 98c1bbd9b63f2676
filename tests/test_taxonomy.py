import re

import pytest
from hypothesis import given, strategies as st

from eagibench.taxonomy import (
    BehaviorComplexity,
    CognitionLevel,
    ComplexityProfile,
    DesignScope,
    Directionality,
    Domain,
    ModelingRequirement,
    SystemType,
    TagFilter,
    TagSet,
    WorldScope,
    level_profile,
    matches,
)

L = CognitionLevel
D = Directionality
B = BehaviorComplexity
W = WorldScope

# One golden assertion per level.
LEVEL_TABLE = {
    L.Remember: ComplexityProfile(D.Forward, B.NotApplicable, W.ClosedWorld),
    L.Understand: ComplexityProfile(D.Forward, B.Static, W.ClosedWorld),
    L.Apply: ComplexityProfile(D.Forward, B.StaticDynamic, W.ClosedWorld),
    L.Analyze: ComplexityProfile(D.ForwardPartialInverse, B.StaticDynamic, W.ClosedWorld),
    L.Create: ComplexityProfile(D.ForwardInverse, B.StaticDynamic, W.SemiOpenWorld),
    L.Reflect: ComplexityProfile(D.Bidirectional, B.StaticDynamic, W.OpenWorld),
}


def test_level_profile_golden_table():
    for level, expected in LEVEL_TABLE.items():
        assert level_profile(level) == expected


def test_level_profile_total_over_all_levels():
    assert {level_profile(lvl) for lvl in CognitionLevel} == set(LEVEL_TABLE.values())


def test_level_name_ordinal_bijection():
    assert [lvl.name for lvl in sorted(CognitionLevel)] == [
        "Remember",
        "Understand",
        "Apply",
        "Analyze",
        "Create",
        "Reflect",
    ]
    assert CognitionLevel.parse("Create") is CognitionLevel.parse(5)


def _tags(**overrides):
    base = dict(
        system_type=SystemType.eVTOL,
        design_scope=DesignScope.Subsystem,
        domains=frozenset({Domain.Aerodynamics}),
    )
    base.update(overrides)
    return TagSet(**base)


def test_empty_filter_matches_everything():
    assert matches(_tags(), L.Apply, TagFilter.empty())


def test_disjoint_enum_does_not_match():
    flt = TagFilter(system_types=frozenset({SystemType.HVAC}))
    assert not matches(_tags(), L.Apply, flt)


def test_transient_thermal_hvac_filter():
    tags = TagSet(
        system_type=SystemType.HVAC,
        design_scope=DesignScope.Subsystem,
        domains=frozenset({Domain.Thermal}),
        modeling=frozenset({ModelingRequirement.Transient}),
    )
    flt = TagFilter(
        domains=frozenset({Domain.Thermal}),
        modeling=frozenset({ModelingRequirement.Transient}),
    )
    assert matches(tags, L.Apply, flt)


def test_level_range_is_inclusive():
    flt = TagFilter(levels=(2, 4))
    assert not matches(_tags(), L.Remember, flt)
    assert matches(_tags(), L.Understand, flt)
    assert matches(_tags(), L.Analyze, flt)
    assert not matches(_tags(), L.Create, flt)


def test_domains_must_be_nonempty():
    import pytest

    with pytest.raises(ValueError):
        _tags(domains=frozenset())


_system_types = st.sampled_from(list(SystemType))
_scopes = st.sampled_from(list(DesignScope))
_domains = st.frozensets(st.sampled_from(list(Domain)), min_size=1, max_size=3)
_modeling = st.frozensets(st.sampled_from(list(ModelingRequirement)), max_size=3)
_levels = st.sampled_from(list(CognitionLevel))

_tag_sets = st.builds(
    TagSet,
    system_type=_system_types,
    design_scope=_scopes,
    domains=_domains,
    modeling=_modeling,
    standards=st.frozensets(st.sampled_from(["UL", "ASME", "AHRI"]), max_size=2),
)

_filters = st.builds(
    TagFilter,
    system_types=st.none() | st.frozensets(_system_types, min_size=1, max_size=3),
    design_scopes=st.none() | st.frozensets(_scopes, min_size=1, max_size=2),
    domains=st.none() | st.frozensets(st.sampled_from(list(Domain)), min_size=1, max_size=3),
    modeling=st.none()
    | st.frozensets(st.sampled_from(list(ModelingRequirement)), min_size=1, max_size=3),
    standards=st.none() | st.frozensets(st.sampled_from(["UL", "ASME", "AHRI"]), min_size=1),
    levels=st.none()
    | st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: (min(t), max(t))),
)


@given(_tag_sets, _levels)
def test_empty_filter_matches_all_property(tags, level):
    assert matches(tags, level, TagFilter.empty())


@given(_tag_sets, _levels, _filters)
def test_matches_is_monotone_under_constraint_removal(tags, level, flt):
    # Dropping any single constraint never turns a match into a non-match.
    if not matches(tags, level, flt):
        return
    for fld in ("system_types", "design_scopes", "domains", "modeling", "standards", "levels"):
        relaxed = TagFilter(**{**{f: getattr(flt, f) for f in (
            "system_types", "design_scopes", "domains", "modeling", "standards", "levels"
        )}, fld: None})
        assert matches(tags, level, relaxed)


@given(_tag_sets)
def test_tag_set_round_trips_through_its_document(tags):
    assert TagSet.from_dict(tags.to_dict()) == tags


@given(_filters)
def test_filter_round_trips_through_its_document(flt):
    assert TagFilter.from_dict(flt.to_dict()) == flt


def _matches_field_by_field(tags, level, flt):
    # Field by field, one branch per tag field: the reference `matches` must agree with.
    if flt.system_types is not None and tags.system_type not in flt.system_types:
        return False
    if flt.design_scopes is not None and tags.design_scope not in flt.design_scopes:
        return False
    if flt.domains is not None and not (tags.domains & flt.domains):
        return False
    if flt.modeling is not None and not (tags.modeling & flt.modeling):
        return False
    if flt.standards is not None and not (tags.standards & flt.standards):
        return False
    if flt.levels is not None:
        lo, hi = flt.levels
        if not (lo <= int(level) <= hi):
            return False
    return True


@given(_tag_sets, _levels, _filters)
def test_matches_agrees_with_the_field_by_field_reference(tags, level, flt):
    assert matches(tags, level, flt) == _matches_field_by_field(tags, level, flt)


@pytest.mark.parametrize(
    "document, message",
    [
        ({"standards": [None]}, "unknown standard: None (expected text)"),
        ({"standards": [["UL"]]}, "unknown standard: ['UL'] (expected text)"),
        ({"standards": 1999}, "unknown standard: 1999 (expected text)"),
        ({"domains": {"Thermal": 0}}, "unknown domain: {'Thermal': 0} (expected one of: "),
        ({"levels": [1, 2, 3]}, "levels must be [lo, hi], got [1, 2, 3]"),
    ],
    ids=["null", "nested-list", "number", "object", "three-levels"],
)
def test_filter_takes_only_the_json_values_of_its_field(document, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TagFilter.from_dict(document)


@pytest.mark.parametrize("key", ["level", "domain", "standard", "system_types"])
def test_filter_rejects_a_key_it_does_not_read(key):
    # {"level": [6, 6]}, a typo for "levels", used to give the empty filter, so every level was sampled.
    with pytest.raises(ValueError, match=f"unknown filter key '{key}'"):
        TagFilter.from_dict({"levels": [1, 6], key: [6, 6]})
