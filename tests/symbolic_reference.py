"""The symbolic side algebra that ``separations`` decides on ints instead.

``SeparationSystem.check`` compares sides as ints over a box of
representative vertices and runs the star search on those ints.  What it
replaced is kept here, as the reference the tests compare it against:
the sides of a separation as ``SymbolicVertexSet``s, their inclusion and
intersection, the order on oriented separations, stars and their
interiors, the symbolic star search, the consistency scan over every
pair, and the box filled one ``contains`` call per vertex.  Methods of
the old ``SymbolicVertexSet`` and ``OrientedSeparation`` are functions
taking the set or the oriented separation first.
"""

from __future__ import annotations

import itertools

from omegagraph.components import InvariantError, copy_vertices, handle_sort_key
from omegagraph.ids import core, stripv
from omegagraph.separations import (
    RULE_FALSE,
    RULE_TRUE,
    FamilyRule,
    NotTameError,
    SeparationSystem,
    SymbolicVertexSet,
    TangleVerdict,
    _first_violation,
    rule_and,
    rule_or,
)


class NotAStarError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sides as symbolic vertex sets

def subset_vertex_set(sep, of_side: bool) -> SymbolicVertexSet:
    """X u V[side] (True) or X u V[co-side] (False), built afresh on each call."""
    cs = sep.cs
    subset, rest = (sep.side, sep.co_side) if of_side else (sep.co_side, sep.side)
    if rest.is_empty() and not cs.g.is_finite():
        return SymbolicVertexSet(cs.g, is_all=True)
    fin = set(cs.X)
    tails: dict = {}
    copies: dict = {}
    for key in subset.explicit_in:
        d = cs.descriptor(key)
        fin |= d.vertices
        for seg in d.tails:
            tails[seg.strip] = seg.start
        for h, excl in d.families:
            copies[h] = FamilyRule("true", excl)
    for h, r in subset.rules.items():
        if not r.is_empty():
            copies[h] = rule_or(copies[h], r) if h in copies else r
    return SymbolicVertexSet(cs.g, frozenset(fin), tails, copies)


def big_set(o) -> SymbolicVertexSet:
    """The big side of an oriented separation as a fresh vertex set."""
    return subset_vertex_set(o.sep, o.toward_side)


def small_set(o) -> SymbolicVertexSet:
    return subset_vertex_set(o.sep, not o.toward_side)


def reverse(o):
    return o.sep.orient(not o.toward_side)


def cover_rule(svs: SymbolicVertexSet, handle):
    """Rule-level approximation of {k : copy k fully covered}."""
    if svs.is_all:
        return RULE_TRUE
    if handle[0] == "pfan" and handle[1] in svs.tails and handle[2] >= svs.tails[handle[1]]:
        return RULE_TRUE
    return svs.copies.get(handle, RULE_FALSE)


def covers_copy(svs: SymbolicVertexSet, handle, k: int) -> bool:
    if cover_rule(svs, handle)(k):
        return True
    return all(svs.contains(v) for v in copy_vertices(svs.g, handle, k))


def covers_tail(svs: SymbolicVertexSet, strip_id: str, start: int) -> bool:
    """Does the set contain all strip material from period start on?"""
    if svs.is_all:
        return True
    if strip_id not in svs.tails:
        return False
    own = svs.tails[strip_id]
    if own <= start:
        return True
    s = svs.g.strip(strip_id)
    for t in range(start, own):
        if not all(svs.contains(stripv(strip_id, t, l)) for l in s.locals):
            return False
        if s.periodic_fan and not _covers_all_copies(svs, ("pfan", strip_id, t)):
            return False
    return True


def _covers_all_copies(svs: SymbolicVertexSet, handle) -> bool:
    r = cover_rule(svs, handle)
    if r.is_cofinite():
        return all(covers_copy(svs, handle, k) for k in r.negate().members())
    return False


def subseteq(a: SymbolicVertexSet, b: SymbolicVertexSet) -> bool:
    if b.is_all:
        return True
    if a.is_all:
        return False  # a proper side never covers all of an infinite graph
    for v in a.finite:
        if not b.contains(v):
            return False
    for s, start in a.tails.items():
        if not covers_tail(b, s, start):
            return False
    for h, r in a.copies.items():
        gap = rule_and(r, cover_rule(b, h).negate())
        if gap.is_infinite():
            return False
        if not all(covers_copy(b, h, k) for k in gap.members()):
            return False
    return True


def intersect(a: SymbolicVertexSet, b: SymbolicVertexSet) -> SymbolicVertexSet:
    if a.is_all:
        return b
    if b.is_all:
        return a
    fin = {v for v in a.finite if b.contains(v)}
    fin |= {v for v in b.finite if a.contains(v)}
    tails = {s: max(t, b.tails[s]) for s, t in a.tails.items() if s in b.tails}
    copies = {}
    for h in set(a.copies) | set(b.copies):
        r = rule_and(cover_rule(a, h), cover_rule(b, h))
        if not r.is_empty():
            copies[h] = r
    return SymbolicVertexSet(a.g, frozenset(fin), tails, copies)


def is_finite(svs: SymbolicVertexSet) -> bool:
    if svs.is_all:
        return svs.g.is_finite()
    return not svs.tails and all(r.is_finite() for r in svs.copies.values())


def materialize_finite(svs: SymbolicVertexSet) -> frozenset:
    if not is_finite(svs):
        raise InvariantError("an infinite vertex set cannot be materialized")
    if svs.is_all:
        return frozenset(core(c) for c in svs.g.core_vertices)
    out = set(svs.finite)
    for h, r in svs.copies.items():
        for k in r.members():
            out |= copy_vertices(svs.g, h, k)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The order on oriented separations, stars and interiors

def le(o1, o2) -> bool:
    """(A,B) <= (C,D)  iff  A is inside C and B contains D."""
    return subseteq(small_set(o1), small_set(o2)) and subseteq(big_set(o2), big_set(o1))


def lt(o1, o2) -> bool:
    return le(o1, o2) and not le(o2, o1)


def is_star(sigma) -> bool:
    """Pairwise pointing towards each other."""
    ms = list(sigma)
    for p, q in itertools.permutations(ms, 2):
        if not le(p, reverse(q)):
            return False
    return True


def interior(sigma) -> SymbolicVertexSet:
    """Intersection of the big sides of a star."""
    ms = list(sigma)
    if not ms:
        raise NotAStarError("empty star has no ambient graph; use interior_of(g, [])")
    if not is_star(ms):
        raise NotAStarError("interior is only defined for stars")
    out = big_set(ms[0])
    for m in ms[1:]:
        out = intersect(out, big_set(m))
    return out


def interior_of(g, sigma) -> SymbolicVertexSet:
    ms = list(sigma)
    if not ms:
        return SymbolicVertexSet(g, is_all=True)
    return interior(ms)


# ---------------------------------------------------------------------------
# The symbolic star search and the box filled by contains

def _infinite_features(svs: SymbolicVertexSet, g) -> list:
    """The reasons a symbolic vertex set is infinite."""
    if svs.is_all:
        return [("tail", s.id) for s in g.strips] + [("handle", ("fan", f.id)) for f in g.fans]
    feats = [("tail", s) for s in sorted(svs.tails)]
    for h in sorted(svs.copies, key=handle_sort_key):
        rule = svs.copies[h]
        if rule.base not in ("true", "false"):
            raise InvariantError("tame sides carry no parity rules")
        if rule.is_infinite():
            feats.append(("handle", h))
    return feats


def _kills(big: SymbolicVertexSet, feat) -> bool:
    """Does intersecting with this big side make the feature finite?"""
    if big.is_all:
        return False
    if feat[0] == "tail":
        return feat[1] not in big.tails
    return cover_rule(big, feat[1]).is_finite()


def symbolic_check_tangle(ms, g) -> TangleVerdict:
    """``check_members`` with the star search on symbolic vertex sets."""
    for m in ms:
        if not m.sep.is_tame():
            raise NotTameError("tangle checks expect tame separations only")
    _, small_bits, big_bits = orientation_bits(ms, g)
    pair = _first_violation(small_bits, big_bits)
    if pair is not None:
        return TangleVerdict(False, violation=(ms[pair[0]], ms[pair[1]]))
    if is_finite(interior_of(g, [])):
        return TangleVerdict(False, star=())
    bigs = [big_set(m) for m in ms]
    neighbor_memo: dict[int, set] = {}

    def neighbors(i: int) -> set:
        """Members j that point towards i: small_i <= big_j and small_j <= big_i."""
        if i not in neighbor_memo:
            small_i, not_big_i = small_bits[i], ~big_bits[i]
            neighbor_memo[i] = {
                j
                for j in range(len(ms))
                if j != i and not (small_i & ~big_bits[j]) and not (small_bits[j] & not_big_i)
            }
        return neighbor_memo[i]

    def search(inner: SymbolicVertexSet, candidates: set, clique: tuple):
        if is_finite(inner):
            return clique
        feats = _infinite_features(inner, g)
        options = [(feat, [i for i in candidates if _kills(bigs[i], feat)]) for feat in feats]
        feat, killers = min(options, key=lambda fk: len(fk[1]))
        for i in killers:
            found = search(intersect(inner, bigs[i]), candidates & neighbors(i), clique + (i,))
            if found is not None:
                return found
        return None

    found = search(interior_of(g, []), set(range(len(ms))), ())
    if found is not None:
        return TangleVerdict(False, star=tuple(ms[i] for i in found))
    return TangleVerdict(True)


def check_members(ms, g) -> TangleVerdict:
    """``SeparationSystem.check`` on a list of oriented separations of g."""
    return SeparationSystem(g, [m.sep for m in ms]).check([m.toward_side for m in ms])


def orientation_bits(ms, g):
    """One system's box over the members' separations, and their small and big sides over it."""
    system = SeparationSystem(g, [m.sep for m in ms])
    return (system.box, *system.sides([m.toward_side for m in ms]))


def scan_first_violation(smalls: list[int], bigs: list[int]):
    """_first_violation as a scan of every pair, in ``itertools.permutations`` order."""
    not_smalls = [~s for s in smalls]
    for i, big_i in enumerate(bigs):
        not_small_i, not_big_i = not_smalls[i], ~big_i
        for j in [j for j, not_small_j in enumerate(not_smalls) if not big_i & not_small_j]:
            if j == i or bigs[j] & not_small_i:
                continue
            if smalls[j] & not_big_i or smalls[i] & ~bigs[j]:
                return i, j
    return None


def contains_side_bits(box, sides) -> list[int]:
    """Each side's int over the box, one ``contains`` call per box vertex and side."""
    return [sum(bit for v, bit in box.bit.items() if svs.contains(v)) for svs in sides]
