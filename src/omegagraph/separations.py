"""Finite-order separations, tameness, and tangle orientations.

A separation is encoded as a base set X together with a symbolic subset
of the components of G - X; its sides are A = X u V[side] and
B = X u V[complement].  Symbolic subsets assign an in/out bit to every
explicit component and an index rule to every infinite family:
"all-but-finitely-many" rules keep everything decidable, and a parity
rule serves as the one deliberately non-tame escape hatch.

Points of the limit space (ends and critical vertex sets) orient tame
separations through their induced filters; ``check_tangle`` verifies
consistency and the absence of finite-interior stars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ids import VertexId, core, fanv, pfanv, stripv
from .pattern import PatternGraph
from .components import (
    ComponentSystem,
    CXFamily,
    Handle,
    InvariantError,
    NotCriticalError,
    copy_vertices,
    delete,
    handle_sort_key,
    is_critical,
    unique_component_meeting,
)


class BaseMismatchError(ValueError):
    pass


class NotAStarError(ValueError):
    pass


class NotTameError(ValueError):
    pass


class PointsEqualError(ValueError):
    pass


class NotFoundWithinHorizonError(LookupError):
    def __init__(self, horizon):
        self.horizon = horizon
        super().__init__(f"no distinguishing separation within horizon {horizon}")


# ---------------------------------------------------------------------------
# Index rules over copy indices 0, 1, 2, ...

_BASES = ("true", "false", "even", "odd")


@dataclass(frozen=True)
class FamilyRule:
    """Membership predicate on copy indices: base predicate xor finite flips."""

    base: str = "false"
    flips: frozenset = frozenset()

    def __post_init__(self):
        if self.base not in _BASES:
            raise InvariantError(f"unknown rule base {self.base!r}")

    def __call__(self, k: int) -> bool:
        return _base_val(self.base, k) != (k in self.flips)

    def negate(self) -> "FamilyRule":
        neg = {"true": "false", "false": "true", "even": "odd", "odd": "even"}
        return FamilyRule(neg[self.base], self.flips)

    def is_empty(self) -> bool:
        return self.base == "false" and not self.flips

    def is_finite(self) -> bool:
        return self.base == "false"

    def is_cofinite(self) -> bool:
        return self.base == "true"

    def is_infinite(self) -> bool:
        return self.base != "false"

    def members(self):
        if not self.is_finite():
            raise InvariantError("an infinite rule has no member list")
        return sorted(self.flips)

    def key(self):
        return (self.base, tuple(sorted(self.flips)))


def _base_val(base: str, k: int) -> bool:
    if base == "true":
        return True
    if base == "false":
        return False
    return (k % 2 == 0) == (base == "even")


def _and_base(a: str, b: str) -> str:
    if a == "false" or b == "false":
        return "false"
    if {a, b} == {"even", "odd"}:
        return "false"
    if a == "true":
        return b
    if b == "true":
        return a
    return a  # a == b in {even, odd}


def rule_and(a: FamilyRule, b: FamilyRule) -> FamilyRule:
    base = _and_base(a.base, b.base)
    flips = frozenset(
        k for k in a.flips | b.flips if (a(k) and b(k)) != _base_val(base, k)
    )
    return FamilyRule(base, flips)


def rule_or(a: FamilyRule, b: FamilyRule) -> FamilyRule:
    return rule_and(a.negate(), b.negate()).negate()


def rule_subset(a: FamilyRule, b: FamilyRule) -> bool:
    return rule_and(a, b.negate()).is_empty()


RULE_TRUE = FamilyRule("true")
RULE_FALSE = FamilyRule("false")


def rule_singletons(ks) -> FamilyRule:
    return FamilyRule("false", frozenset(ks))


# ---------------------------------------------------------------------------
# Symbolic subsets of C_X

class SymbolicSubset:
    """A subset of the components of G - X, given by bits and index rules."""

    def __init__(self, cs: ComponentSystem, explicit_in=(), rules=None):
        self.cs = cs
        self.explicit_in = frozenset(explicit_in)
        if not self.explicit_in <= cs.explicit_keys:
            raise InvariantError("unknown explicit component")
        self.rules: dict[Handle, FamilyRule] = {}
        for d in cs.family_descriptors:
            h = d.handle()
            raw = (rules or {}).get(h, RULE_FALSE)
            self.rules[h] = rule_and(raw, FamilyRule("true", d.excluded()))

    # construction helpers
    @staticmethod
    def empty(cs) -> "SymbolicSubset":
        return SymbolicSubset(cs)

    @staticmethod
    def full(cs) -> "SymbolicSubset":
        return SymbolicSubset(
            cs,
            cs.explicit_keys,
            {d.handle(): RULE_TRUE for d in cs.family_descriptors},
        )

    @staticmethod
    def family_side(cs, Y) -> "SymbolicSubset":
        """All members of the infinite families with neighbourhood Y."""
        Y = frozenset(Y)
        return SymbolicSubset(
            cs,
            (),
            {d.handle(): RULE_TRUE for d in cs.family_descriptors if d.neighborhood == Y},
        )

    def _check_base(self, other: "SymbolicSubset"):
        if self.cs.X != other.cs.X or self.cs.g != other.cs.g:
            raise BaseMismatchError("subsets live over different deletions")

    def complement(self) -> "SymbolicSubset":
        return SymbolicSubset(
            self.cs,
            self.cs.explicit_keys - self.explicit_in,
            {h: r.negate() for h, r in self.rules.items()},
        )

    def intersection(self, other: "SymbolicSubset") -> "SymbolicSubset":
        self._check_base(other)
        return SymbolicSubset(
            self.cs,
            self.explicit_in & other.explicit_in,
            {h: rule_and(r, other.rules[h]) for h, r in self.rules.items()},
        )

    def union(self, other: "SymbolicSubset") -> "SymbolicSubset":
        self._check_base(other)
        return SymbolicSubset(
            self.cs,
            self.explicit_in | other.explicit_in,
            {h: rule_or(r, other.rules[h]) for h, r in self.rules.items()},
        )

    def with_member_toggled(self, handle: Handle, k: int) -> "SymbolicSubset":
        if handle not in self.rules or k in self.cs.handle_excluded(handle):
            raise InvariantError(f"copy {k} of {handle} is not a member of any family here")
        r = self.rules[handle]
        return SymbolicSubset(
            self.cs,
            self.explicit_in,
            {**self.rules, handle: FamilyRule(r.base, r.flips ^ {k})},
        )

    def with_explicit_toggled(self, key) -> "SymbolicSubset":
        return SymbolicSubset(self.cs, self.explicit_in ^ {key}, self.rules)

    def is_empty(self) -> bool:
        return not self.explicit_in and all(r.is_empty() for r in self.rules.values())

    def is_finite(self) -> bool:
        """Finitely many member components."""
        return all(r.is_finite() for r in self.rules.values())

    def is_cofinite_on(self, Y) -> bool:
        """Does the subset contain cofinitely many components of C_X(Y)?"""
        Y = frozenset(Y)
        fam: CXFamily = self.cs.family(Y)
        return all(self.rules[d.handle()].negate().is_finite() for d in fam.families)

    def has_infinite_part_on(self, Y) -> bool:
        Y = frozenset(Y)
        fam = self.cs.family(Y)
        return any(self.rules[d.handle()].is_infinite() for d in fam.families)

    def key(self):
        return (
            tuple(sorted(self.explicit_in)),
            tuple((h, self.rules[h].key()) for h in sorted(self.rules, key=handle_sort_key)),
        )

    def __eq__(self, other):
        return isinstance(other, SymbolicSubset) and self.cs.X == other.cs.X and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


# ---------------------------------------------------------------------------
# Symbolic vertex sets (sides of separations)

@dataclass
class SymbolicVertexSet:
    """A vertex set given by a finite part, strip tails, and whole copies."""

    g: PatternGraph
    finite: frozenset = frozenset()
    tails: dict = field(default_factory=dict)  # strip id -> first covered period
    copies: dict = field(default_factory=dict)  # Handle -> FamilyRule
    is_all: bool = False

    def contains(self, v: VertexId) -> bool:
        if self.is_all or v in self.finite:
            return True
        if v.kind in ("strip", "pfan") and v.owner in self.tails and v.t >= self.tails[v.owner]:
            return True
        if v.kind == "fan":
            r = self.copies.get(("fan", v.owner))
            return bool(r and r(v.k))
        if v.kind == "pfan":
            r = self.copies.get(("pfan", v.owner, v.t))
            return bool(r and r(v.k))
        return False

    def cover_rule(self, handle: Handle) -> FamilyRule:
        """Rule-level approximation of {k : copy k fully covered}."""
        if self.is_all:
            return RULE_TRUE
        if handle[0] == "pfan" and handle[1] in self.tails and handle[2] >= self.tails[handle[1]]:
            return RULE_TRUE
        return self.copies.get(handle, RULE_FALSE)

    def covers_copy(self, handle: Handle, k: int) -> bool:
        if self.cover_rule(handle)(k):
            return True
        return all(self.contains(v) for v in copy_vertices(self.g, handle, k))

    def covers_tail(self, strip_id: str, start: int) -> bool:
        """Does the set contain all strip material from period start on?"""
        if self.is_all:
            return True
        if strip_id not in self.tails:
            return False
        own = self.tails[strip_id]
        if own <= start:
            return True
        s = self.g.strip(strip_id)
        for t in range(start, own):
            if not all(self.contains(stripv(strip_id, t, l)) for l in s.locals):
                return False
            if s.periodic_fan and not self._covers_all_copies(("pfan", strip_id, t)):
                return False
        return True

    def _covers_all_copies(self, handle: Handle) -> bool:
        r = self.cover_rule(handle)
        if r.is_cofinite():
            return all(self.covers_copy(handle, k) for k in r.negate().members())
        return False

    def subseteq(self, other: "SymbolicVertexSet") -> bool:
        if other.is_all:
            return True
        if self.is_all:
            return False  # a proper side never covers all of an infinite graph
        for v in self.finite:
            if not other.contains(v):
                return False
        for s, start in self.tails.items():
            if not other.covers_tail(s, start):
                return False
        for h, r in self.copies.items():
            gap = rule_and(r, other.cover_rule(h).negate())
            if gap.is_infinite():
                return False
            if not all(other.covers_copy(h, k) for k in gap.members()):
                return False
        return True

    def intersect(self, other: "SymbolicVertexSet") -> "SymbolicVertexSet":
        if self.is_all:
            return other
        if other.is_all:
            return self
        fin = {v for v in self.finite if other.contains(v)}
        fin |= {v for v in other.finite if self.contains(v)}
        tails = {
            s: max(t, other.tails[s]) for s, t in self.tails.items() if s in other.tails
        }
        copies = {}
        for h in set(self.copies) | set(other.copies):
            r = rule_and(self.cover_rule(h), other.cover_rule(h))
            if not r.is_empty():
                copies[h] = r
        return SymbolicVertexSet(self.g, frozenset(fin), tails, copies)

    def is_finite(self) -> bool:
        if self.is_all:
            return self.g.is_finite()
        return not self.tails and all(r.is_finite() for r in self.copies.values())

    def materialize_finite(self) -> frozenset:
        if not self.is_finite():
            raise InvariantError("an infinite vertex set cannot be materialized")
        if self.is_all:
            return frozenset(core(c) for c in self.g.core_vertices)
        out = set(self.finite)
        for h, r in self.copies.items():
            for k in r.members():
                out |= copy_vertices(self.g, h, k)
        return frozenset(out)


def _subset_vertex_set(cs: ComponentSystem, subset: SymbolicSubset, rest: SymbolicSubset) -> SymbolicVertexSet:
    """X together with all vertices of the subset's components; rest is its complement."""
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
            copies[h] = rule_or(copies.get(h, RULE_FALSE), r)
    return SymbolicVertexSet(cs.g, frozenset(fin), tails, copies)


# ---------------------------------------------------------------------------
# Separations and orientations

class Separation:
    """Unoriented separation {X u V[side], X u V[co-side]}."""

    def __init__(self, cs: ComponentSystem, side: SymbolicSubset):
        if side.cs is not cs and side.cs.X != cs.X:
            raise InvariantError("the side lives over another deletion")
        self.cs = cs
        self.side = side
        self.co_side = side.complement()
        self._svs_cache: dict = {}

    def side_set(self, of_side: bool) -> "SymbolicVertexSet":
        """X u V[side] (True) or X u V[co-side] (False), cached."""
        if of_side not in self._svs_cache:
            subset, rest = (self.side, self.co_side) if of_side else (self.co_side, self.side)
            self._svs_cache[of_side] = _subset_vertex_set(self.cs, subset, rest)
        return self._svs_cache[of_side]

    def underlying_key(self):
        return (
            tuple(sorted(v.sort_key() for v in self.cs.X)),
            frozenset((self.side.key(), self.co_side.key())),
        )

    def orient(self, toward_side: bool) -> "OrientedSeparation":
        return OrientedSeparation(self, toward_side)

    def is_tame(self) -> bool:
        return is_tame(self)

    def __eq__(self, other):
        return isinstance(other, Separation) and self.underlying_key() == other.underlying_key()

    def __hash__(self):
        return hash(self.underlying_key())


@dataclass(frozen=True)
class OrientedSeparation:
    sep: Separation
    toward_side: bool  # big side is X u V[side] if True

    def big_subset(self) -> SymbolicSubset:
        return self.sep.side if self.toward_side else self.sep.co_side

    def big_set(self) -> SymbolicVertexSet:
        return self.sep.side_set(self.toward_side)

    def small_set(self) -> SymbolicVertexSet:
        return self.sep.side_set(not self.toward_side)

    def reverse(self) -> "OrientedSeparation":
        return OrientedSeparation(self.sep, not self.toward_side)

    def key(self):
        return (self.sep.underlying_key(), self.big_subset().key())

    def __eq__(self, other):
        return isinstance(other, OrientedSeparation) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def toward_components(cs: ComponentSystem, subset: SymbolicSubset) -> OrientedSeparation:
    """s_{X -> C}: points at the side holding the given components."""
    return Separation(cs, subset).orient(True)


def away_from_components(cs: ComponentSystem, subset: SymbolicSubset) -> OrientedSeparation:
    """s_{C -> X}: points away from the given components."""
    return Separation(cs, subset).orient(False)


def le(o1: OrientedSeparation, o2: OrientedSeparation) -> bool:
    """(A,B) <= (C,D)  iff  A is inside C and B contains D."""
    return o1.small_set().subseteq(o2.small_set()) and o2.big_set().subseteq(o1.big_set())


def lt(o1: OrientedSeparation, o2: OrientedSeparation) -> bool:
    return le(o1, o2) and not le(o2, o1)


class Orientation:
    """A set of oriented separations, at most one per underlying separation."""

    def __init__(self, members):
        members = list(members)
        seen = {}
        for m in members:
            uk = m.sep.underlying_key()
            if uk in seen and seen[uk] != m:
                raise ValueError("orientation contains both directions of a separation")
            seen[uk] = m
        self.members = tuple(dict.fromkeys(members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def is_star(sigma) -> bool:
    """Pairwise pointing towards each other."""
    ms = list(sigma)
    for p, q in itertools.permutations(ms, 2):
        if not le(p, q.reverse()):
            return False
    return True


def interior(sigma) -> SymbolicVertexSet:
    """Intersection of the big sides of a star."""
    ms = list(sigma)
    if not ms:
        raise NotAStarError("empty star has no ambient graph; use interior_of(g, [])")
    if not is_star(ms):
        raise NotAStarError("interior is only defined for stars")
    out = ms[0].big_set()
    for m in ms[1:]:
        out = out.intersect(m.big_set())
    return out


def interior_of(g: PatternGraph, sigma) -> SymbolicVertexSet:
    ms = list(sigma)
    if not ms:
        return SymbolicVertexSet(g, is_all=True)
    return interior(ms)


def _side_bits(g: PatternGraph, sides) -> list[int]:
    """Each side as an int whose bit i says whether the side holds box vertex i.

    The box takes every period up to T and every copy up to K + 1, where T
    exceeds every period and K every copy index that some side names (in its
    finite part, a tail start, a periodic-fan handle or a rule's flips).  A
    vertex outside the box lies in exactly the sides that hold its
    representative inside: a strip or periodic-fan vertex at a period beyond
    T lies in a side iff the side has that strip's tail, like its period-T
    counterpart, and a copy beyond K + 1 lies in it iff the side's rule holds
    there, which beyond K depends only on the parity of the copy, like copy K
    or K + 1.  So one side lies inside another iff ``a & ~b == 0``, exactly,
    for tame and parity rules alike.  The box lives for one call only.
    """
    periods = [0]
    copies = [0]
    for svs in sides:
        for v in svs.finite:
            periods.append(v.t)
            copies.append(v.k)
        periods.extend(svs.tails.values())
        for h, r in svs.copies.items():
            if h[0] == "pfan":
                periods.append(h[2])
            copies.extend(r.flips)
    T, K = max(periods) + 1, max(copies) + 1
    box = [core(c) for c in g.core_vertices]
    for s in g.strips:
        for t in range(T + 1):
            box.extend(stripv(s.id, t, l) for l in s.locals)
            if s.periodic_fan:
                box.extend(pfanv(s.id, t, k, l) for k in range(K + 2) for l in s.periodic_fan.locals)
    for f in g.fans:
        box.extend(fanv(f.id, k, l) for k in range(K + 2) for l in f.locals)
    everything = (1 << len(box)) - 1
    return [
        everything if svs.is_all else sum(1 << i for i, v in enumerate(box) if svs.contains(v))
        for svs in sides
    ]


def _orientation_bits(ms) -> tuple[list[int], list[int]]:
    """Small and big sides of each member, over one box."""
    if not ms:
        return [], []
    bits = _side_bits(ms[0].sep.cs.g, [m.small_set() for m in ms] + [m.big_set() for m in ms])
    return bits[: len(ms)], bits[len(ms):]


def _first_violation(smalls: list[int], bigs: list[int]):
    """First (i, j), in ``itertools.permutations`` order, with reverse(i) < j.

    reverse(i) <= j iff big_i is inside small_j and big_j inside small_i;
    j <= reverse(i) iff small_j is inside big_i and small_i inside big_j.
    """
    not_smalls = [~s for s in smalls]
    for i, big_i in enumerate(bigs):
        not_small_i, not_big_i = not_smalls[i], ~big_i
        for j in [j for j, not_small_j in enumerate(not_smalls) if not big_i & not_small_j]:
            if j == i or bigs[j] & not_small_i:
                continue
            if smalls[j] & not_big_i or smalls[i] & ~bigs[j]:
                return i, j
    return None


def is_consistent(o):
    """True, or a witnessing pair (p, q) with reverse(p) < q."""
    ms = list(o)
    pair = _first_violation(*_orientation_bits(ms))
    if pair is None:
        return True, None
    return False, (ms[pair[0]], ms[pair[1]])


def is_tame(sep: Separation) -> bool:
    """No critical family is split into two infinite halves."""
    cs = sep.cs
    for Y in cs.crit():
        if sep.side.has_infinite_part_on(Y) and sep.co_side.has_infinite_part_on(Y):
            return False
    return True


# ---------------------------------------------------------------------------
# Points of the limit space and their induced orientations

@dataclass(frozen=True)
class PointOfGamma:
    kind: str  # "end" | "crit"
    strip: str = ""
    Y: frozenset = frozenset()

    def __str__(self):
        if self.kind == "end":
            return f"end:{self.strip}"
        return "crit:{" + ",".join(str(v) for v in sorted(self.Y, key=VertexId.sort_key)) + "}"


def end_point(strip_id: str) -> PointOfGamma:
    return PointOfGamma("end", strip=strip_id)


def crit_point(g: PatternGraph, Y) -> PointOfGamma:
    Y = frozenset(Y)
    if not is_critical(g, Y):
        raise NotCriticalError(f"{sorted(map(str, Y))} is not a critical vertex set")
    return PointOfGamma("crit", Y=Y)


def all_points(g: PatternGraph, horizon: int) -> list[PointOfGamma]:
    """Ends plus the critical sets with period coordinates <= horizon."""
    from .classify import enumerate_critical

    pts = [end_point(s.id) for s in g.strips]
    max_size = max(
        [len(set(f.attach)) for f in g.fans]
        + [len(set(s.periodic_fan.attach)) for s in g.strips if s.periodic_fan]
        + [0]
    )
    pts += [PointOfGamma("crit", Y=Y) for Y in sorted(
        enumerate_critical(g, max_size, horizon + 1),
        key=lambda Y: tuple(sorted(v.sort_key() for v in Y)),
    )]
    return pts


def point_filter(cs: ComponentSystem, xi: PointOfGamma):
    """("principal", component descriptor) or ("cofinite", Y)."""
    if xi.kind == "end":
        return ("principal", cs.tail_descriptor(xi.strip))
    if xi.Y <= cs.X:
        return ("cofinite", xi.Y)
    return ("principal", unique_component_meeting(cs, xi.Y))


def orient_by_point(xi: PointOfGamma, sep: Separation) -> OrientedSeparation:
    """Orient a tame separation towards the side holding the point's filter."""
    if not is_tame(sep):
        raise NotTameError("induced orientations are defined on tame separations only")
    mode, payload = point_filter(sep.cs, xi)
    if mode == "principal":
        return sep.orient(payload.key() in sep.side.explicit_in)
    return sep.orient(sep.side.is_cofinite_on(payload))


def induced_orientation(xi: PointOfGamma, seps) -> Orientation:
    return Orientation(orient_by_point(xi, sep) for sep in seps)


@dataclass(frozen=True)
class TangleVerdict:
    ok: bool
    violation: tuple | None = None  # inconsistent pair
    star: tuple | None = None  # forbidden star (finite interior)

    def __bool__(self):
        return self.ok


def _infinite_features(svs: SymbolicVertexSet, g: PatternGraph) -> list:
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
    return big.cover_rule(feat[1]).is_finite()


def check_tangle(o, g: PatternGraph | None = None) -> TangleVerdict:
    """Consistency plus avoidance of finite stars with finite interior.

    Exactly equivalent to enumerating every star inside o: the interior
    only shrinks as a star grows, and over tame sides every infinite
    feature of an interior (a strip tail or a cofinite family) can only
    be removed by a single member pointing away from it.  The search
    adds one such killer per level, so its depth is bounded by the
    number of features; branching is worst-case exponential in that
    small number.  Consistency and the pairs that may share a star are
    decided on the sides' bitsets (``_side_bits``).
    """
    ms = list(o)
    if g is None and ms:
        g = ms[0].sep.cs.g
    for m in ms:
        if not is_tame(m.sep):
            raise NotTameError("check_tangle expects tame separations only")
    small_bits, big_bits = _orientation_bits(ms)
    pair = _first_violation(small_bits, big_bits)
    if pair is not None:
        return TangleVerdict(False, violation=(ms[pair[0]], ms[pair[1]]))
    if g is not None and interior_of(g, []).is_finite():
        return TangleVerdict(False, star=())
    bigs = [m.big_set() for m in ms]
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
        if inner.is_finite():
            return clique
        feats = _infinite_features(inner, g)
        options = [(feat, [i for i in candidates if _kills(bigs[i], feat)]) for feat in feats]
        feat, killers = min(options, key=lambda fk: len(fk[1]))
        for i in killers:
            found = search(inner.intersect(bigs[i]), candidates & neighbors(i), clique + (i,))
            if found is not None:
                return found
        return None

    found = search(interior_of(g, []), set(range(len(ms))), ())
    if found is not None:
        return TangleVerdict(False, star=tuple(ms[i] for i in found))
    return TangleVerdict(True)


# ---------------------------------------------------------------------------
# Distinguishing points

def _defining_vertices(g: PatternGraph, xi: PointOfGamma, h: int) -> frozenset:
    if xi.kind == "crit":
        return xi.Y
    s = g.strip(xi.strip)
    out = {stripv(s.id, t, l) for t in range(h) for l in s.locals}
    if h >= 1:
        out |= {core(d) for d in g.dominators_of(s.id)}
    return frozenset(out)


def _gamma_image(cs: ComponentSystem, xi: PointOfGamma):
    mode, payload = point_filter(cs, xi)
    if mode == "cofinite":
        return ("limit", payload)
    return ("comp", payload.key())


def distinguish(g: PatternGraph, xi1: PointOfGamma, xi2: PointOfGamma, max_horizon: int | None = None) -> Separation:
    """A tame separation the two points orient oppositely.

    Searches growing defining data (critical sets, strip prefixes plus
    dominators); reports the horizon if it somehow runs out rather than
    failing silently.
    """
    if xi1 == xi2:
        raise PointsEqualError(str(xi1))
    if max_horizon is None:
        max_attach = max(
            [s.max_attachment_period() for s in g.strips if s.id in (xi1.strip, xi2.strip)] + [-1]
        )
        max_horizon = max_attach + 3
    for h in range(max_horizon + 1):
        X = _defining_vertices(g, xi1, h) | _defining_vertices(g, xi2, h)
        cs = delete(g, X)
        img1, img2 = _gamma_image(cs, xi1), _gamma_image(cs, xi2)
        if img1 == img2:
            continue
        if img1[0] == "limit":
            side = SymbolicSubset.family_side(cs, img1[1])
        elif img2[0] == "limit":
            side = SymbolicSubset.family_side(cs, img2[1])
        else:
            side = SymbolicSubset(cs, explicit_in={img1[1]})
        sep = Separation(cs, side)
        o1, o2 = orient_by_point(xi1, sep), orient_by_point(xi2, sep)
        if o1.toward_side == o2.toward_side:
            raise InvariantError(f"the separation found does not distinguish {xi1} from {xi2}")
        return sep
    raise NotFoundWithinHorizonError(max_horizon)


# ---------------------------------------------------------------------------
# Enumeration and perturbation helpers

def enumerate_tame_separations(cs: ComponentSystem, max_copy: int = 2, max_explicit_subset: int = 6):
    """Deterministic sample of tame separations over a fixed deletion.

    Sides: subsets of explicit components, single fan copies, full
    families per critical neighbourhood, and cofinite family sides with
    small exception sets.
    """
    sides: list[SymbolicSubset] = []
    explicit = [d.key() for d in cs.explicit_descriptors]
    if len(explicit) <= max_explicit_subset:
        for r in range(len(explicit) + 1):
            for combo in itertools.combinations(explicit, r):
                sides.append(SymbolicSubset(cs, explicit_in=combo))
    else:
        sides.append(SymbolicSubset.empty(cs))
        sides.extend(SymbolicSubset(cs, explicit_in={k}) for k in explicit)
    for d in cs.family_descriptors:
        h = d.handle()
        usable = [k for k in range(max_copy + len(d.excluded()) + 1) if k not in d.excluded()][:max_copy]
        for k in usable:
            sides.append(SymbolicSubset(cs, rules={h: rule_singletons([k])}))
    for Y in sorted(cs.crit(), key=lambda Y: tuple(sorted(v.sort_key() for v in Y))):
        base = SymbolicSubset.family_side(cs, Y)
        sides.append(base)
        for d in cs.family_descriptors:
            if d.neighborhood != Y:
                continue
            h = d.handle()
            usable = [k for k in range(max_copy + len(d.excluded()) + 1) if k not in d.excluded()][:max_copy]
            for k in usable:
                sides.append(base.with_member_toggled(h, k))
        for key in explicit:
            sides.append(base.with_explicit_toggled(key))
    seps: list[Separation] = []
    seen = set()
    for side in sides:
        sep = Separation(cs, side)
        uk = sep.underlying_key()
        if uk in seen or not is_tame(sep):
            continue
        seen.add(uk)
        seps.append(sep)
    seps.sort(key=lambda s: s.underlying_key()[0] + tuple(s.side.key()))
    return seps


def perturb_separation(sep: Separation, explicit_toggles=(), copy_toggles=()) -> Separation:
    """Move finitely many components across the separation's sides."""
    side = sep.side
    for key in explicit_toggles:
        side = side.with_explicit_toggled(key)
    for h, k in copy_toggles:
        side = side.with_member_toggled(h, k)
    return Separation(sep.cs, side)
