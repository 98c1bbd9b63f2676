"""Cognition levels, complexity dimensions, and the metadata tag schema.

Six cognition levels order the benchmark from factual recall up to
reflective critique.  Each level maps to a fixed complexity profile along
three dimensions (reasoning directionality, behavior detail, and world
scope).  Questions additionally carry a metadata tag set used for targeted
filtering and sampling.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Optional

from .records import checked


class CognitionLevel(enum.IntEnum):
    """The six cognition levels, ordered by ordinal."""

    Remember = 1
    Understand = 2
    Apply = 3
    Analyze = 4
    Create = 5
    Reflect = 6

    @classmethod
    def parse(cls, value) -> "CognitionLevel":
        """Accept a level name ("Apply"), an ordinal (3), or a member."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(value)
        if isinstance(value, str):
            try:
                return cls[value]
            except KeyError:
                raise ValueError(f"unknown cognition level: {value!r}") from None
        raise ValueError(f"cannot interpret {value!r} as a cognition level")


class Directionality(enum.Enum):
    Forward = "Forward"
    ForwardPartialInverse = "ForwardPartialInverse"
    ForwardInverse = "ForwardInverse"
    Bidirectional = "Bidirectional"


class BehaviorComplexity(enum.Enum):
    NotApplicable = "NotApplicable"
    Static = "Static"
    StaticDynamic = "StaticDynamic"


class WorldScope(enum.Enum):
    ClosedWorld = "ClosedWorld"
    SemiOpenWorld = "SemiOpenWorld"
    OpenWorld = "OpenWorld"


class ComplexityProfile(NamedTuple):
    """Complexity coordinates of a cognition level."""

    directionality: Directionality
    behavior: BehaviorComplexity
    scope: WorldScope


_LEVEL_PROFILES: Mapping[CognitionLevel, ComplexityProfile] = {
    CognitionLevel.Remember: ComplexityProfile(
        Directionality.Forward, BehaviorComplexity.NotApplicable, WorldScope.ClosedWorld
    ),
    CognitionLevel.Understand: ComplexityProfile(
        Directionality.Forward, BehaviorComplexity.Static, WorldScope.ClosedWorld
    ),
    CognitionLevel.Apply: ComplexityProfile(
        Directionality.Forward, BehaviorComplexity.StaticDynamic, WorldScope.ClosedWorld
    ),
    CognitionLevel.Analyze: ComplexityProfile(
        Directionality.ForwardPartialInverse,
        BehaviorComplexity.StaticDynamic,
        WorldScope.ClosedWorld,
    ),
    CognitionLevel.Create: ComplexityProfile(
        Directionality.ForwardInverse,
        BehaviorComplexity.StaticDynamic,
        WorldScope.SemiOpenWorld,
    ),
    CognitionLevel.Reflect: ComplexityProfile(
        Directionality.Bidirectional,
        BehaviorComplexity.StaticDynamic,
        WorldScope.OpenWorld,
    ),
}


def level_profile(level: CognitionLevel) -> ComplexityProfile:
    """Return the complexity profile of a cognition level (total function)."""
    return _LEVEL_PROFILES[CognitionLevel.parse(level)]


class SystemType(enum.Enum):
    eVTOL = "eVTOL"
    HVAC = "HVAC"
    Spacecraft = "Spacecraft"
    Energy = "Energy"
    Robotics = "Robotics"


class DesignScope(enum.Enum):
    Component = "Component"
    Subsystem = "Subsystem"
    System = "System"


class Domain(enum.Enum):
    Thermal = "Thermal"
    Electrical = "Electrical"
    Control = "Control"
    Structural = "Structural"
    FluidAirflow = "FluidAirflow"
    Aerodynamics = "Aerodynamics"


class ModelingRequirement(enum.Enum):
    SteadyState = "SteadyState"
    Transient = "Transient"
    Linear = "Linear"
    Nonlinear = "Nonlinear"
    Multiphysics = "Multiphysics"


def _read(raw, parse=lambda value: value) -> tuple:
    """Parse each of a list of values, or keep it as written, into a tuple; any other value, an object
    too, is a list of one.  Set-valued tags and filter fields are read through it, and a bank's phrase lists."""
    return tuple([parse(v) for v in (raw if isinstance(raw, list) else [raw])])


class _TagField(NamedTuple):
    key: str  # in tag and filter documents, and the TagSet attribute
    filter_attr: str  # the TagFilter attribute
    kind: type  # of one value: an enum, or str for free text
    what: str  # one value's name in error messages
    many: bool = True  # whether a TagSet holds a set of values rather than one

    def parse(self, value):
        """One value: a member or its value, or a JSON string as text.  A bool is never one."""
        if isinstance(value, str) or not (self.kind is str or isinstance(value, bool)):
            try:
                return self.kind(value)
            except ValueError:
                pass
        allowed = "text" if self.kind is str else "one of: " + ", ".join(m.value for m in self.kind)
        raise ValueError(f"unknown {self.what}: {value!r} (expected {allowed})")

    def write(self, values) -> list:
        return sorted(getattr(v, "value", v) for v in values)


#: One row per tag field, in the key order of both ``to_dict`` outputs.
_TAG_FIELDS = (
    _TagField("system_type", "system_types", SystemType, "system_type", many=False),
    _TagField("design_scope", "design_scopes", DesignScope, "design_scope", many=False),
    _TagField("domains", "domains", Domain, "domain"),
    _TagField("modeling", "modeling", ModelingRequirement, "modeling requirement"),
    _TagField("standards", "standards", str, "standard"),
)


@checked
class TagSet(NamedTuple):
    """Metadata tags attached to every question.

    ``domains`` must be non-empty; ``standards`` is free-form text since the
    set of applicable norms is open-ended.
    """

    system_type: SystemType
    design_scope: DesignScope
    domains: frozenset[Domain]
    modeling: frozenset[ModelingRequirement] = frozenset()
    standards: frozenset[str] = frozenset()

    def _check(self):
        if not self.domains:
            raise ValueError("TagSet.domains must be non-empty")

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TagSet":
        """From a document holding every tag key, as ``to_dict`` writes it and a bank reads it."""
        return cls(**{
            f.key: frozenset(_read(raw[f.key], f.parse)) if f.many else f.parse(raw[f.key])
            for f in _TAG_FIELDS
        })

    def to_dict(self) -> dict:
        return {
            f.key: f.write(getattr(self, f.key)) if f.many else getattr(self, f.key).value
            for f in _TAG_FIELDS
        }


@checked
class TagFilter(NamedTuple):
    """Conjunctive filter over tag fields; any-of within a field.

    Every constraint left as ``None`` is unconstrained, so the empty filter
    matches every tag set.  Level ranges are inclusive on both ends.
    """

    system_types: Optional[frozenset[SystemType]] = None
    design_scopes: Optional[frozenset[DesignScope]] = None
    domains: Optional[frozenset[Domain]] = None
    modeling: Optional[frozenset[ModelingRequirement]] = None
    standards: Optional[frozenset[str]] = None
    levels: Optional[tuple[int, int]] = None

    def _check(self):
        if self.levels is not None:
            lo, hi = self.levels
            if not (1 <= lo <= hi <= 6):
                raise ValueError(f"level range must satisfy 1 <= lo <= hi <= 6, got {self.levels}")

    @classmethod
    def empty(cls) -> "TagFilter":
        return cls()

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TagFilter":
        """A field takes a list or one bare value; ``levels`` one level or ``[lo, hi]``.
        Any other key raises, so a misspelt one cannot widen the filter unnoticed."""
        if not isinstance(raw, Mapping):
            raise ValueError(f"a tag filter is a JSON object, got {type(raw).__name__}")
        for key in raw:
            if key != "levels" and all(f.key != key for f in _TAG_FIELDS):
                raise ValueError(f"unknown filter key {key!r}")
        levels = raw.get("levels")
        if levels is not None:
            bounds = [int(b) for b in _read(levels, CognitionLevel.parse)]
            if len(bounds) not in (1, 2):
                raise ValueError(f"levels must be [lo, hi], got {levels!r}")
            levels = (bounds[0], bounds[-1])
        return cls(levels=levels, **{
            f.filter_attr: frozenset(_read(raw[f.key], f.parse))
            for f in _TAG_FIELDS if raw.get(f.key) is not None
        })

    def to_dict(self) -> dict:
        out = {f.key: f.write(getattr(self, f.filter_attr))
               for f in _TAG_FIELDS if getattr(self, f.filter_attr) is not None}
        if self.levels is not None:
            out["levels"] = list(self.levels)
        return out


def matches(tags: TagSet, level: CognitionLevel, flt: TagFilter) -> bool:
    """True iff every populated filter constraint is satisfied: any-of within
    a field, all-of across fields.  A set-valued tag field satisfies its
    constraint when it holds at least one of the allowed values."""
    for f in _TAG_FIELDS:
        allowed, held = getattr(flt, f.filter_attr), getattr(tags, f.key)
        if allowed is not None and allowed.isdisjoint(held if f.many else (held,)):
            return False
    return flt.levels is None or flt.levels[0] <= level <= flt.levels[1]
