"""Tough / end-tough classification and infinite-degree explanations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ids import VertexId, core, vertex_set_key
from .pattern import PatternGraph, degree_class
from .components import InvariantError, anchoring_handles, delete, family_handles, handle_attach_vertices


@dataclass(frozen=True)
class EndWitness:
    strip: str
    tough: bool
    # for a tough end: a deletion isolating a bare, fan-free tail
    isolating_set: frozenset = frozenset()
    # for a non-tough end: the periodic fan forcing infinitely many components
    periodic_fan: str | None = None


@dataclass(frozen=True)
class Classification:
    tough: bool
    end_tough: bool
    trichotomy: str  # "Tough" | "OnePointCase" | "NeitherCase"
    end_witnesses: tuple[EndWitness, ...]

    def __post_init__(self):
        expected = (
            "Tough" if self.tough else "OnePointCase" if self.end_tough else "NeitherCase"
        )
        if self.trichotomy != expected:
            raise InvariantError(f"trichotomy {self.trichotomy!r} contradicts the flags, which give {expected!r}")


def enumerate_critical(g: PatternGraph, max_size: int, horizon: int) -> list[frozenset]:
    """All critical sets of size <= max_size with period coordinates < horizon.

    Complete within those bounds: the critical sets are exactly the anchor
    sets of the families (see ``components.handle_attach_vertices``), so
    enumeration is a scan over the core fans and the periodic fans at the
    periods below the horizon.
    """
    anchors = (handle_attach_vertices(g, h) for h in family_handles(g, horizon))
    found = {Y for Y in anchors if len(Y) <= max_size}
    return sorted(found, key=lambda Y: (len(Y), vertex_set_key(Y)))


def is_tough(g: PatternGraph) -> bool:
    """No finite deletion leaves infinitely many components.

    Infinite component families come from fans only, so a pattern graph
    is tough iff it declares none.
    """
    return not g.has_fans()


def _toughness_anchor(g: PatternGraph, strip_id: str) -> frozenset:
    """A deletion after which the strip's tail is a bare, isolated ray."""
    X = {core(d) for d, _ in g.dominations} | {core(c) for c, _, _ in g.strip(strip_id).attachments}
    return frozenset(X.union(*(handle_attach_vertices(g, h) for h in family_handles(g, 0))))


def is_end_tough(g: PatternGraph) -> tuple[bool, tuple[EndWitness, ...]]:
    """Every end eventually lives in a tough component.

    A strip's end is tough iff the strip carries no periodic fan; the
    produced witness deletion is re-verified through the component
    system rather than trusted from the declarations.
    """
    witnesses = []
    for s in g.strips:
        if s.periodic_fan:
            witnesses.append(EndWitness(s.id, False, periodic_fan=s.periodic_fan.id))
            continue
        X = _toughness_anchor(g, s.id)
        cs = delete(g, X)
        tail = cs.tail_descriptor(s.id)
        clean = not tail.families and all(
            not g.strip(seg.strip).periodic_fan for seg in tail.tails
        )
        if not clean:
            raise InvariantError(f"witness deletion leaves fan material with the tail of {s.id}")
        witnesses.append(EndWitness(s.id, True, isolating_set=X))
    return all(w.tough for w in witnesses), tuple(witnesses)


def trichotomy(g: PatternGraph) -> Classification:
    tough = is_tough(g)
    end_tough, witnesses = is_end_tough(g)
    label = "Tough" if tough else "OnePointCase" if end_tough else "NeitherCase"
    return Classification(tough, end_tough, label, witnesses)


@dataclass(frozen=True)
class DegreeExplanation:
    kind: str  # "finite" | "dominates_end" | "in_critical_set"
    degree: int | None = None
    strip: str | None = None
    Y: frozenset = frozenset()


def infinite_degree_explanation(g: PatternGraph, v: VertexId) -> tuple[DegreeExplanation, ...]:
    """Why v has infinite degree: it dominates an end and/or sits in a
    critical set.  Finite-degree vertices report their exact degree.
    Both infinite explanations are returned when both apply.
    """
    g.check_vertex(v)
    deg = degree_class(g, v)
    if deg != math.inf:
        return (DegreeExplanation("finite", degree=deg),)
    out = [DegreeExplanation("dominates_end", strip=sid) for d, sid in g.dominations if v == core(d)]
    anchors = (handle_attach_vertices(g, h) for h in anchoring_handles(g, v))
    out += [DegreeExplanation("in_critical_set", Y=Y) for Y in anchors if v in Y]
    unique = tuple(dict.fromkeys(out))
    if not unique:
        raise InvariantError(f"infinite degree of {v} unexplained")
    return unique
