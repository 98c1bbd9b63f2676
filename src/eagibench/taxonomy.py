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
from dataclasses import dataclass, field
from typing import Mapping, Optional


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
        if isinstance(value, int):
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


@dataclass(frozen=True)
class ComplexityProfile:
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


def _parse_enum(enum_cls, value, what: str):
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise ValueError(f"unknown {what}: {value!r} (expected one of: {allowed})") from None


@dataclass(frozen=True)
class TagSet:
    """Metadata tags attached to every question.

    ``domains`` must be non-empty; ``standards`` is free-form text since the
    set of applicable norms is open-ended.
    """

    system_type: SystemType
    design_scope: DesignScope
    domains: frozenset[Domain]
    modeling: frozenset[ModelingRequirement] = frozenset()
    standards: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.domains:
            raise ValueError("TagSet.domains must be non-empty")

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TagSet":
        return cls(
            system_type=_parse_enum(SystemType, raw["system_type"], "system_type"),
            design_scope=_parse_enum(DesignScope, raw["design_scope"], "design_scope"),
            domains=frozenset(_parse_enum(Domain, d, "domain") for d in raw["domains"]),
            modeling=frozenset(
                _parse_enum(ModelingRequirement, m, "modeling requirement")
                for m in raw.get("modeling", ())
            ),
            standards=frozenset(str(s) for s in raw.get("standards", ())),
        )

    def to_dict(self) -> dict:
        return {
            "system_type": self.system_type.value,
            "design_scope": self.design_scope.value,
            "domains": sorted(d.value for d in self.domains),
            "modeling": sorted(m.value for m in self.modeling),
            "standards": sorted(self.standards),
        }


@dataclass(frozen=True)
class TagFilter:
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

    def __post_init__(self):
        if self.levels is not None:
            lo, hi = self.levels
            if not (1 <= lo <= hi <= 6):
                raise ValueError(f"level range must satisfy 1 <= lo <= hi <= 6, got {self.levels}")

    @classmethod
    def empty(cls) -> "TagFilter":
        return cls()

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TagFilter":
        if not isinstance(raw, Mapping):
            raise ValueError(f"a tag filter is a JSON object, got {type(raw).__name__}")

        def many(key, enum_cls, what):
            vals = raw.get(key)
            if vals is None:
                return None
            if isinstance(vals, (str, int)):
                vals = [vals]
            return frozenset(_parse_enum(enum_cls, v, what) for v in vals)

        levels = raw.get("levels")
        if levels is not None:
            if isinstance(levels, int):
                levels = (levels, levels)
            else:
                levels = tuple(int(v) for v in levels)
                if len(levels) == 1:
                    levels = (levels[0], levels[0])
                if len(levels) != 2:
                    raise ValueError(f"levels must be [lo, hi], got {raw.get('levels')!r}")
        standards = raw.get("standards")
        return cls(
            system_types=many("system_type", SystemType, "system_type"),
            design_scopes=many("design_scope", DesignScope, "design_scope"),
            domains=many("domains", Domain, "domain"),
            modeling=many("modeling", ModelingRequirement, "modeling requirement"),
            standards=None if standards is None else frozenset(str(s) for s in standards),
            levels=levels,
        )

    def to_dict(self) -> dict:
        out: dict = {}
        if self.system_types is not None:
            out["system_type"] = sorted(s.value for s in self.system_types)
        if self.design_scopes is not None:
            out["design_scope"] = sorted(s.value for s in self.design_scopes)
        if self.domains is not None:
            out["domains"] = sorted(d.value for d in self.domains)
        if self.modeling is not None:
            out["modeling"] = sorted(m.value for m in self.modeling)
        if self.standards is not None:
            out["standards"] = sorted(self.standards)
        if self.levels is not None:
            out["levels"] = list(self.levels)
        return out


def matches(tags: TagSet, level: CognitionLevel, flt: TagFilter) -> bool:
    """True iff every populated filter constraint is satisfied.

    Any-of within a field, all-of across fields.  Set-valued tag fields
    (domains, modeling, standards) satisfy a constraint when the
    intersection with the allowed values is non-empty.
    """
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
