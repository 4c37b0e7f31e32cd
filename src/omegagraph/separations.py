"""Finite-order separations, tameness, and tangle orientations.

A separation is encoded as a base set X together with a symbolic subset
of the components of G - X; its sides are A = X u V[side] and
B = X u V[complement].  Symbolic subsets assign an in/out bit to every
explicit component and an index rule to every infinite family:
"all-but-finitely-many" rules keep everything decidable, and a parity
rule serves as the one deliberately non-tame escape hatch.  A subset
computes its key, and a separation its identity and tameness, when it
is built.

A ``SeparationSystem`` holds a list of separations with their sides as
bitsets over one box of representative vertices, built from the
component descriptors.  Points of the limit space (ends and critical
vertex sets) orient it through their induced filters (``orient``), and
``check`` decides on those ints whether an orientation is a tangle:
consistent, with no star of finite interior.
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
from dataclasses import dataclass, field

from .ids import VertexId, core, stripv, vertex_set_key
from .pattern import PatternGraph
from .components import (
    ComponentSystem,
    CXFamily,
    Handle,
    InvariantError,
    NotCriticalError,
    delete,
    family_handles,
    family_template,
    handle_attach_vertices,
    handle_of,
    is_critical,
    unique_component_meeting,
)


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


RULE_TRUE = FamilyRule("true")
RULE_FALSE = FamilyRule("false")


def rule_singletons(ks) -> FamilyRule:
    return FamilyRule("false", frozenset(ks))


# ---------------------------------------------------------------------------
# Symbolic subsets of C_X

def _same_base(cs: ComponentSystem, other: ComponentSystem) -> bool:
    """Do the two systems delete the same X from the same graph?"""
    return cs is other or (cs.X == other.X and (cs.g is other.g or cs.g == other.g))


class SymbolicSubset:
    """A subset of the components of G - X, given by bits and index rules."""

    def __init__(self, cs: ComponentSystem, explicit_in=(), rules=None):
        self.cs = cs
        self.explicit_in = frozenset(explicit_in)
        if not self.explicit_in <= cs.explicit_keys:
            raise InvariantError("unknown explicit component")
        rules = rules or {}
        built: dict[Handle, FamilyRule] = {}
        for d in cs.family_descriptors:
            h, excl = d.handle(), d.excluded()
            raw = rules.get(h, RULE_FALSE)
            built[h] = rule_and(raw, FamilyRule("true", excl)) if excl else raw
        if not rules.keys() <= built.keys():
            raise InvariantError(f"unknown family {next(h for h in rules if h not in built)}")
        self.rules = types.MappingProxyType(built)  # read-only: the key below describes it
        # family descriptors, and so the rules, come in handle_sort_key order
        self._key = (
            tuple(sorted(self.explicit_in)),
            tuple((h, r.key()) for h, r in self.rules.items()),
        )

    # construction helpers
    @staticmethod
    def empty(cs) -> "SymbolicSubset":
        return SymbolicSubset(cs)

    @staticmethod
    def family_side(cs, Y) -> "SymbolicSubset":
        """All members of the infinite families with neighbourhood Y."""
        Y = frozenset(Y)
        return SymbolicSubset(
            cs,
            (),
            {d.handle(): RULE_TRUE for d in cs.family_descriptors if d.neighborhood == Y},
        )

    def complement(self) -> "SymbolicSubset":
        return SymbolicSubset(
            self.cs,
            self.cs.explicit_keys - self.explicit_in,
            {h: r.negate() for h, r in self.rules.items()},
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
        return self._key

    def __eq__(self, other):
        return isinstance(other, SymbolicSubset) and self._key == other._key and _same_base(self.cs, other.cs)

    def __hash__(self):
        return hash(self.key())


# ---------------------------------------------------------------------------
# Symbolic vertex sets (sides of separations)

@dataclass
class SymbolicVertexSet:
    """A vertex set given by a finite part, strip tails, and whole copies.

    ``contains`` defines membership: it is the definition that the side
    ints of a ``SeparationSystem`` are tested against, on sets built from
    the separations' descriptions.
    """

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
        r = self.copies.get(handle_of(v)) if v.kind in ("fan", "pfan") else None
        return bool(r and r(v.k))


# ---------------------------------------------------------------------------
# Separations and orientations

class Separation:
    """Unoriented separation {X u V[side], X u V[co-side]}.

    Its identity (``underlying_key``) and whether it is tame are decided
    when it is built.
    """

    def __init__(self, cs: ComponentSystem, side: SymbolicSubset):
        if not _same_base(side.cs, cs):
            raise InvariantError("the side lives over another deletion")
        self.cs = cs
        self.side = side
        self.co_side = co_side = side.complement()
        self._underlying_key = (
            vertex_set_key(cs.X),
            frozenset((side.key(), co_side.key())),
        )
        # tame: no critical family is split into two infinite halves
        self._tame = not any(
            side.has_infinite_part_on(Y) and co_side.has_infinite_part_on(Y) for Y in cs.crit()
        )

    def underlying_key(self):
        return self._underlying_key

    def orient(self, toward_side: bool) -> "OrientedSeparation":
        return OrientedSeparation(self, toward_side)

    def is_tame(self) -> bool:
        return self._tame

    def __eq__(self, other):
        return isinstance(other, Separation) and self._underlying_key == other._underlying_key

    def __hash__(self):
        return hash(self._underlying_key)


@dataclass(frozen=True)
class OrientedSeparation:
    """A separation with one side chosen as its big side: equal iff both agree."""

    sep: Separation
    toward_side: bool  # big side is X u V[side] if True

    def __post_init__(self):
        # computed once; an attribute, not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_key", (self.sep.underlying_key(), self.big_subset().key()))

    def big_subset(self) -> SymbolicSubset:
        return self.sep.side if self.toward_side else self.sep.co_side

    def __eq__(self, other):
        return isinstance(other, OrientedSeparation) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class _Box:
    """Bit positions for the representative vertices of one list's sides.

    The box takes every period up to T and every copy up to K + 1.  T is
    the largest stabilization bound of the list's component systems, so
    every period that an X or a component descriptor names lies below it,
    and K is one past the largest copy that an X excludes or a side's rule
    flips (0 if there is none), so every copy they name lies below K.
    A vertex outside the box lies in exactly the sides that hold its
    representative inside: a strip or periodic-fan vertex at a period beyond
    T lies in a side iff the side has that strip's tail, like its period-T
    counterpart, and a copy beyond K + 1 lies in it iff the side's rule
    holds there, which beyond K depends only on the parity of the copy, like
    copy K or K + 1.  So one side lies inside another iff ``a & ~b == 0``,
    exactly, for tame and parity rules alike, and a side is infinite iff it
    meets ``beyond``, the OR of the ``features``: each strip's period T, in
    declaration order, then copies K and K + 1 of each family, in the box's
    order.

    A side's int is built from its description (``side``), not vertex by
    vertex: it is the OR of the mask of its X, the mask of each explicit
    component it holds (its vertices, one suffix mask per tail and one mask
    per absorbed family) and one mask per rule, which is the rule's base
    mask with its flipped copies toggled.
    """

    def __init__(self, g: PatternGraph, seps):
        systems = dict.fromkeys(sep.cs for sep in seps)
        T = max((cs.stabilization_bound for cs in systems), default=1)
        K = max([0] + [max(e) + 1 for cs in systems for e in cs.excl.values() if e] + [
            k + 1 for sep in seps for subset in (sep.side, sep.co_side) for r in subset.rules.values() for k in r.flips
        ])
        self.T, self.K = T, K
        self.bit: dict[VertexId, int] = {}
        self.tail: dict[str, list[int]] = {}  # strip id -> mask of periods t..T, per start t
        self.copy: dict[Handle, list[int]] = {}  # handle -> mask of each copy 0..K+1
        self._place([core(c) for c in g.core_vertices])
        for s in g.strips:
            period_masks = []
            for t in range(T + 1):
                mask = self._place([stripv(s.id, t, l) for l in s.locals])
                if s.periodic_fan:
                    mask |= self._family(g, ("pfan", s.id, t))
                period_masks.append(mask)
            self.tail[s.id] = list(itertools.accumulate(reversed(period_masks), operator.or_))[::-1]
        for f in g.fans:
            self._family(g, ("fan", f.id))
        self.everything = (1 << len(self.bit)) - 1
        # masks of disjoint bits: their sum is their union
        self.base = {
            h: {"false": 0, "true": sum(ms), "even": sum(ms[0::2]), "odd": sum(ms[1::2])}
            for h, ms in self.copy.items()
        }
        self.features = tuple(self.tail[s.id][T] for s in g.strips) + tuple(
            copies[K] | copies[K + 1] for copies in self.copy.values()
        )
        self.beyond = functools.reduce(operator.or_, self.features, 0)
        self.x = {cs: sum(map(self.bit.__getitem__, cs.X)) for cs in systems}
        self.component = {d.key(): self._component(d) for cs in systems for d in cs.explicit_descriptors}

    def _place(self, vertices: list) -> int:
        """Give the vertices the next free bits; returns their mask."""
        n = len(self.bit)
        self.bit.update((v, 1 << (n + i)) for i, v in enumerate(vertices))
        return ((1 << len(vertices)) - 1) << n

    def _family(self, g: PatternGraph, handle: Handle) -> int:
        """Bits for copies 0..K+1 of a family."""
        fan, vertex, _ = family_template(g, handle)
        self.copy[handle] = [self._place([vertex(k, l) for l in fan.locals]) for k in range(self.K + 2)]
        return sum(self.copy[handle])

    def _component(self, d) -> int:
        """The vertices of an explicit component: its own, its tails and its families."""
        mask = sum(map(self.bit.__getitem__, d.vertices))
        for seg in d.tails:
            mask |= self.tail[seg.strip][seg.start]
        for h, excl in d.families:
            mask |= self.rule(h, FamilyRule("true", excl))
        return mask

    def rule(self, handle: Handle, r: FamilyRule) -> int:
        """The copies of the family that the rule holds."""
        mask, copies = self.base[handle][r.base], self.copy[handle]
        for k in r.flips:
            mask ^= copies[k]
        return mask

    def side(self, cs: ComponentSystem, subset: SymbolicSubset) -> int:
        """X u V[subset] as an int whose bit i says whether it holds box vertex i."""
        out = self.x[cs]
        for key in subset.explicit_in:
            out |= self.component[key]
        for h, r in subset.rules.items():
            out |= self.rule(h, r)
        return out


def _first_violation(smalls: list[int], bigs: list[int]):
    """First (i, j), in ``itertools.permutations`` order, with i* < j.

    i* is member i pointing the other way.  i* <= j iff big_i is inside
    small_j and big_j inside small_i; j <= i* iff small_j is inside big_i
    and small_i inside big_j.
    The members j whose small side holds big_i are found as an int over
    members: the AND, over the vertices of big_i, of the members holding
    that vertex in their small side.
    """
    holders: dict[int, int] = {}  # vertex bit -> members whose small side holds it
    for j, small in enumerate(smalls):
        while small:
            low = small & -small
            holders[low] = holders.get(low, 0) | 1 << j
            small ^= low
    everyone = (1 << len(smalls)) - 1
    for i, big_i in enumerate(bigs):
        within, rest = everyone & ~(1 << i), big_i
        while rest and within:
            low = rest & -rest
            within &= holders.get(low, 0)
            rest ^= low
        not_small_i, not_big_i = ~smalls[i], ~big_i
        while within:
            low = within & -within
            within ^= low
            j = low.bit_length() - 1
            if bigs[j] & not_small_i:
                continue
            if smalls[j] & not_big_i or smalls[i] & ~bigs[j]:
                return i, j
    return None


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
    """Ends plus the critical sets, the families' anchor sets, with period coordinates <= horizon."""
    crit = {handle_attach_vertices(g, h) for h in family_handles(g, horizon + 1)}
    return [end_point(s.id) for s in g.strips] + [
        PointOfGamma("crit", Y=Y) for Y in sorted(crit, key=vertex_set_key)
    ]


def point_filter(cs: ComponentSystem, xi: PointOfGamma):
    """("principal", component descriptor) or ("cofinite", Y)."""
    if xi.kind == "end":
        return ("principal", cs.tail_descriptor(xi.strip))
    if xi.Y <= cs.X:
        return ("cofinite", xi.Y)
    return ("principal", unique_component_meeting(cs, xi.Y))


def _induced_toward(xi: PointOfGamma, seps) -> tuple[bool, ...]:
    """Does xi orient each tame separation towards its side?

    The point's filter is looked up once per component system.
    """
    filters: dict[ComponentSystem, tuple] = {}
    toward = []
    for sep in seps:
        if not sep.is_tame():
            raise NotTameError("induced orientations are defined on tame separations only")
        if sep.cs not in filters:
            filters[sep.cs] = point_filter(sep.cs, xi)
        mode, payload = filters[sep.cs]
        if mode == "principal":
            toward.append(payload.key() in sep.side.explicit_in)
        else:
            toward.append(sep.side.is_cofinite_on(payload))
    return tuple(toward)


def orient_by_point(xi: PointOfGamma, sep: Separation) -> OrientedSeparation:
    """Orient a tame separation towards the side holding the point's filter."""
    return sep.orient(_induced_toward(xi, (sep,))[0])


@dataclass(frozen=True)
class TangleVerdict:
    ok: bool
    violation: tuple | None = None  # inconsistent pair
    star: tuple | None = None  # forbidden star (finite interior)

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, eq=False)
class SeparationSystem:
    """A list of separations of one graph, with its box and side ints built once.

    An orientation of the system is one toward-side bit per separation:
    True points it towards ``side``.  Its small and big sides are picked
    from the ints of each separation's co-side and side, so checking many
    orientations of one list builds one ``_Box``.  The box over a list is
    the box over any orientation of it, because an orientation's small and
    big sides are the list's sides and co-sides.  A verdict's witnesses
    are the members involved, as ``OrientedSeparation`` values.
    """

    g: PatternGraph
    seps: tuple
    box: _Box = field(init=False, repr=False)
    ints: tuple = field(init=False, repr=False)  # per separation: (co-side int, side int)
    tame: bool = field(init=False, repr=False)

    def __post_init__(self):
        seps = tuple(self.seps)
        box = _Box(self.g, seps)
        bits = [box.side(sep.cs, subset) for sep in seps for subset in (sep.co_side, sep.side)]
        built = {
            "seps": seps,
            "box": box,
            "ints": tuple(zip(bits[0::2], bits[1::2])),
            "tame": all(sep.is_tame() for sep in seps),
        }
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def orient(self, xi: PointOfGamma) -> tuple[bool, ...]:
        """The orientation xi induces: towards the side holding its filter."""
        return _induced_toward(xi, self.seps)

    def sides(self, toward) -> tuple[list[int], list[int]]:
        """The small and big sides of the orientation as ints over the box."""
        pairs = list(zip(self.ints, toward, strict=True))
        return [pair[not t] for pair, t in pairs], [pair[t] for pair, t in pairs]

    def _members(self, indices, toward) -> tuple:
        return tuple(self.seps[i].orient(toward[i]) for i in indices)

    def check(self, toward) -> TangleVerdict:
        """Consistency plus avoidance of finite stars with finite interior.

        Exactly equivalent to enumerating every star inside the
        orientation.  An interior is the AND of its members' big sides and
        is finite iff it misses every one of the box's ``features``.  On a
        tame side each feature lies wholly inside or wholly outside it:
        period T belongs to every system's tail component, and copies K
        and K + 1 lie past every flip and every excluded copy.  So a star
        of finite interior loses each feature through one member whose big
        side lacks it, a killer.  The search branches on the killers of
        the current interior's feature with the fewest, among the members
        pointing towards the whole star, so its depth is bounded by the
        number of features and its branching is worst-case exponential in
        that small number.  A negative verdict names the first star it
        finds.
        """
        if not self.tame:
            raise NotTameError("tangle checks expect tame separations only")
        box = self.box
        small_bits, big_bits = self.sides(toward)
        pair = _first_violation(small_bits, big_bits)
        if pair is not None:
            return TangleVerdict(False, violation=self._members(pair, toward))
        neighbor_memo: dict[int, set] = {}

        def neighbors(i: int) -> set:
            """Members j that point towards i: small_i <= big_j and small_j <= big_i."""
            if i not in neighbor_memo:
                small_i, not_big_i = small_bits[i], ~big_bits[i]
                neighbor_memo[i] = {
                    j
                    for j in range(len(big_bits))
                    if j != i and not (small_i & ~big_bits[j]) and not (small_bits[j] & not_big_i)
                }
            return neighbor_memo[i]

        def search(inner: int, candidates: set, clique: tuple):
            if not inner & box.beyond:
                return clique
            killers = min(([i for i in candidates if not big_bits[i] & b] for b in box.features if inner & b), key=len)
            for i in killers:
                found = search(inner & big_bits[i], candidates & neighbors(i), clique + (i,))
                if found is not None:
                    return found
            return None

        found = search(box.everything, set(range(len(big_bits))), ())
        if found is not None:
            return TangleVerdict(False, star=self._members(found, toward))
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


def distinguish(g: PatternGraph, xi1: PointOfGamma, xi2: PointOfGamma) -> Separation:
    """A tame separation the two points orient oppositely.

    Searches growing defining data (critical sets, strip prefixes plus
    dominators) up to 3 periods past the points' last attachment; reports
    that horizon if it somehow runs out rather than failing silently.
    """
    if xi1 == xi2:
        raise PointsEqualError(str(xi1))
    horizon = max([s.max_attachment_period() for s in g.strips if s.id in (xi1.strip, xi2.strip)] + [-1]) + 3
    for h in range(horizon + 1):
        X = _defining_vertices(g, xi1, h) | _defining_vertices(g, xi2, h)
        cs = delete(g, X)
        f1, f2 = point_filter(cs, xi1), point_filter(cs, xi2)
        if f1 == f2:
            continue
        if f1[0] == "cofinite":
            side = SymbolicSubset.family_side(cs, f1[1])
        elif f2[0] == "cofinite":
            side = SymbolicSubset.family_side(cs, f2[1])
        else:
            side = SymbolicSubset(cs, explicit_in={f1[1].key()})
        sep = Separation(cs, side)
        o1, o2 = orient_by_point(xi1, sep), orient_by_point(xi2, sep)
        if o1.toward_side == o2.toward_side:
            raise InvariantError(f"the separation found does not distinguish {xi1} from {xi2}")
        return sep
    raise NotFoundWithinHorizonError(horizon)


# ---------------------------------------------------------------------------
# Enumeration

_MAX_COPY = 2  # copies per family that the enumerator moves one at a time
_MAX_EXPLICIT_SUBSET = 6  # up to this many explicit components, every subset is a side


def enumerate_tame_separations(cs: ComponentSystem):
    """Deterministic sample of tame separations over a fixed deletion.

    Sides: subsets of explicit components, single fan copies, full
    families per critical neighbourhood, and cofinite family sides with
    small exception sets.  Each of them is tame by construction, so an
    untame one raises ``InvariantError``.
    """
    sides: list[SymbolicSubset] = []
    explicit = [d.key() for d in cs.explicit_descriptors]
    # the first _MAX_COPY copies of each family that X leaves whole
    usable = {
        d.handle(): [k for k in range(_MAX_COPY + len(d.excluded())) if k not in d.excluded()][:_MAX_COPY]
        for d in cs.family_descriptors
    }
    if len(explicit) <= _MAX_EXPLICIT_SUBSET:
        for r in range(len(explicit) + 1):
            for combo in itertools.combinations(explicit, r):
                sides.append(SymbolicSubset(cs, explicit_in=combo))
    else:
        sides.append(SymbolicSubset.empty(cs))
        sides.extend(SymbolicSubset(cs, explicit_in={k}) for k in explicit)
    for h, ks in usable.items():
        sides.extend(SymbolicSubset(cs, rules={h: rule_singletons([k])}) for k in ks)
    for Y in sorted(cs.crit(), key=vertex_set_key):
        base = SymbolicSubset.family_side(cs, Y)
        sides.append(base)
        for d in cs.family(Y).families:
            sides.extend(base.with_member_toggled(d.handle(), k) for k in usable[d.handle()])
        for key in explicit:
            sides.append(base.with_explicit_toggled(key))
    # two sides give one separation iff they are equal or complementary,
    # so a side is new iff its key is not among those of the sides built
    seps: list[Separation] = []
    seen = set()
    for side in sides:
        if side.key() in seen:
            continue
        sep = Separation(cs, side)
        if not sep.is_tame():
            raise InvariantError(f"the enumerator built an untame side over {sorted(map(str, cs.X))}")
        seen.update((side.key(), sep.co_side.key()))
        seps.append(sep)
    seps.sort(key=lambda s: s.underlying_key()[0] + tuple(s.side.key()))
    return seps

