"""Compact-space surrogates for the component compactifications.

An FduSpace is a finite discrete part together with finitely many
convergent clusters (each a one-point compactification of a countable
discrete family).  The space over the components of G - X adds one
cluster per critical subset of X, its family converging to the critical
set as limit point.  FduMaps carry finite exception tables plus one
eventually-uniform rule per infinite family, which keeps continuity,
composition and equality decidable.

compose and maps_equal are that algebra for any two maps.  The inverse
system check (verify_system) runs 4**n chains over a power set of size
2**n, so it reads each bonding map once into a table of its images of
probe points: every point of a space except the member copies at copy
indices no map or space names, which two fresh copies, one per parity,
stand in for.  A chain's verdict is then a tuple lookup and ==, exactly
as maps_equal would decide it (_slot_tables gives the argument).

Points are tagged tuples:
    ("named", descriptor_key)   an explicit component
    ("member", handle, k)       copy k of an infinite family
    ("limit", label)            a cluster's limit point
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .ids import VertexId, stripv, vertex_set_key
from .pattern import PatternGraph
from .components import (
    ComponentDescriptor,
    ComponentSystem,
    Handle,
    InvariantError,
    NotNestedError,
    _probe_vertex,
    delete,
    handle_sort_key,
    unique_component_meeting,
)
from .separations import (
    FamilyRule,
    PointOfGamma,
    RULE_FALSE,
    all_points,
    point_filter,
    rule_and,
    rule_or,
    rule_singletons,
)


class NotDirectedError(ValueError):
    pass


class Condition4ViolatedError(ValueError):
    def __init__(self, Y1, Y2):
        self.pair = (frozenset(Y1), frozenset(Y2))
        super().__init__(
            "two critical families accumulate at one limit point: "
            f"{sorted(map(str, Y1))} vs {sorted(map(str, Y2))}"
        )


def named_point(desc: ComponentDescriptor):
    return ("named", desc.key())


def member_point(handle: Handle, k: int):
    return ("member", handle, k)


def limit_point(label):
    return ("limit", label)


@dataclass(frozen=True)
class Cluster:
    limit: object  # label; frozenset Y for gamma spaces
    named_members: tuple = ()
    groups: tuple = ()  # ((handle, FamilyRule), ...)

    def group_dict(self) -> dict:
        return dict(self.groups)

    def is_infinite(self) -> bool:
        return any(r.is_infinite() for _, r in self.groups)


@dataclass(frozen=True)
class FduSpace:
    isolated: tuple = ()  # points
    clusters: tuple = ()

    def __post_init__(self):
        # built once; attributes, not fields, so ==, hash and repr ignore them
        rules: dict[Handle, FamilyRule] = {}
        cluster_of: dict[Handle, Cluster] = {}
        finite = list(self.isolated)
        for p in self.isolated:
            if p[0] == "member":
                rules[p[1]] = rule_or(rules.get(p[1], RULE_FALSE), rule_singletons([p[2]]))
        for c in self.clusters:
            finite.extend(c.named_members)
            for h, r in c.groups:
                rules[h] = rule_or(rules.get(h, RULE_FALSE), r)
                cluster_of.setdefault(h, c)
        object.__setattr__(self, "_rules", {h: rules[h] for h in sorted(rules, key=handle_sort_key)})
        object.__setattr__(self, "_cluster_of", cluster_of)
        object.__setattr__(self, "_finite", tuple(finite))

    def membership_rule(self, handle: Handle) -> FamilyRule:
        """Which copies of handle are points of this space."""
        return self._rules.get(handle, RULE_FALSE)

    def handles(self) -> list:
        return list(self._rules)

    def named_points(self) -> list:
        return [p for p in self._finite if p[0] == "named"]

    def cluster_of_handle(self, handle: Handle):
        return self._cluster_of.get(handle)

    def finite_points(self) -> tuple:
        """All isolated points plus cluster named members (no group members)."""
        return self._finite


def gamma_space(cs: ComponentSystem) -> FduSpace:
    """The component space plus one cluster per critical subset of X."""
    isolated = tuple(named_point(d) for d in cs.cx_minus())
    clusters = []
    for Y in sorted(cs.crit(), key=vertex_set_key):
        fam = cs.family(Y)
        clusters.append(
            Cluster(
                limit=Y,
                named_members=tuple(named_point(d) for d in fam.explicit),
                groups=tuple(
                    (d.handle(), FamilyRule("true", d.excluded())) for d in fam.families
                ),
            )
        )
    return FduSpace(isolated, tuple(clusters))


# ---------------------------------------------------------------------------
# Maps between FDU spaces

@dataclass
class FduMap:
    src: FduSpace
    dst: FduSpace
    exceptions: dict = field(default_factory=dict)  # point -> point
    handle_rules: dict = field(default_factory=dict)  # Handle -> ("const", pt) | ("identity", Handle)
    limit_images: dict = field(default_factory=dict)  # label -> point

    def apply(self, point):
        if point[0] == "limit":
            return self.limit_images[point[1]]
        if point in self.exceptions:
            return self.exceptions[point]
        if point[0] == "member":
            rule = self.handle_rules.get(point[1])
            if rule is None:
                raise KeyError(f"no rule for family {point[1]}")
            if rule[0] == "const":
                return rule[1]
            return ("member", rule[1], point[2])
        raise KeyError(f"unmapped point {point}")


def identity_map(space: FduSpace) -> FduMap:
    return FduMap(
        space,
        space,
        exceptions={p: p for p in space.finite_points()},
        handle_rules={h: ("identity", h) for h in space.handles()},
        limit_images={c.limit: limit_point(c.limit) for c in space.clusters},
    )


def compose(outer: FduMap, inner: FduMap) -> FduMap:
    """outer after inner, renormalized to exception tables plus rules."""
    exceptions = {}
    for p in inner.exceptions:
        exceptions[p] = outer.apply(inner.apply(p))
    handle_rules = {}
    for h, rule in inner.handle_rules.items():
        if rule[0] == "const":
            handle_rules[h] = ("const", outer.apply(rule[1]))
        else:
            th = rule[1]
            outer_rule = outer.handle_rules.get(th)
            if outer_rule is None:
                raise KeyError(f"no outer rule for family {th}")
            if outer_rule[0] == "const":
                handle_rules[h] = ("const", outer_rule[1])
            else:
                handle_rules[h] = ("identity", outer_rule[1])
            # outer exceptions on members of th induce composed exceptions
            for p, q in outer.exceptions.items():
                if p[0] == "member" and p[1] == th:
                    src_pt = ("member", h, p[2])
                    if src_pt not in exceptions:
                        exceptions[src_pt] = q
    limit_images = {label: outer.apply(pt) for label, pt in inner.limit_images.items()}
    return FduMap(inner.src, outer.dst, exceptions, handle_rules, limit_images)


def maps_equal(m1: FduMap, m2: FduMap) -> bool:
    """Extensional equality on all representable points of the source."""
    if m1.src != m2.src:
        return False
    for p in m1.src.finite_points():
        if m1.apply(p) != m2.apply(p):
            return False
    for c in m1.src.clusters:
        if m1.apply(limit_point(c.limit)) != m2.apply(limit_point(c.limit)):
            return False
    exceptional = {}  # handle -> copies either map lists as exceptions
    for m in (m1, m2):
        for p in m.exceptions:
            if p[0] == "member":
                exceptional.setdefault(p[1], set()).add(p[2])
    for h in m1.src.handles():
        membership = m1.src.membership_rule(h)
        r1, r2 = m1.handle_rules.get(h), m2.handle_rules.get(h)
        probes = exceptional.get(h, set())
        if r1 != r2:
            # distinct uniform rules can still agree only on a finite family
            if membership.is_infinite():
                return False
            probes.update(membership.members())
        for k in sorted(probes):
            if membership(k) and m1.apply(("member", h, k)) != m2.apply(("member", h, k)):
                return False
    return True


@dataclass(frozen=True)
class ContinuityVerdict:
    ok: bool
    witness: str | None = None

    def __bool__(self):
        return self.ok


def is_continuous(m: FduMap) -> ContinuityVerdict:
    """Check the tail rule of every source cluster against its limit image.

    For a cluster converging to l: if m(l) is isolated the members must
    be eventually constant at m(l); if m(l) is a limit point the members
    must eventually enter that cluster's family, finitely many
    exceptions aside.
    """
    for c in m.src.clusters:
        try:
            lim_img = m.apply(limit_point(c.limit))
        except KeyError:
            return ContinuityVerdict(False, f"limit {c.limit} has no image")
        for h, rule in c.groups:
            if not rule.is_infinite():
                continue
            hr = m.handle_rules.get(h)
            if hr is None:
                return ContinuityVerdict(False, f"family {h} has no tail rule")
            if hr[0] == "const":
                if hr[1] != lim_img:
                    return ContinuityVerdict(
                        False,
                        f"family {h} is eventually at {hr[1]} but the limit maps to {lim_img}",
                    )
                continue
            th = hr[1]
            target_cluster = m.dst.cluster_of_handle(th)
            if target_cluster is None:
                return ContinuityVerdict(
                    False, f"family {h} maps into {th} which accumulates nowhere in the target"
                )
            if lim_img != limit_point(target_cluster.limit):
                return ContinuityVerdict(
                    False,
                    f"family {h} converges to {target_cluster.limit} but the limit maps to {lim_img}",
                )
            gap = rule_and(rule, target_cluster.group_dict().get(th, RULE_FALSE).negate())
            if gap.is_infinite():
                return ContinuityVerdict(
                    False, f"family {h} leaves the target cluster infinitely often"
                )
    return ContinuityVerdict(True)


def is_surjective(m: FduMap) -> bool:
    covered_named = set()
    covered_limits = set()
    covered_members: dict[Handle, FamilyRule] = {}

    def cover(pt):
        if pt[0] == "limit":
            covered_limits.add(pt[1])
        elif pt[0] == "named":
            covered_named.add(pt)
        else:
            h = pt[1]
            covered_members[h] = rule_or(covered_members.get(h, RULE_FALSE), rule_singletons([pt[2]]))

    for p, q in m.exceptions.items():
        cover(q)
    for label, q in m.limit_images.items():
        cover(q)
    for h, hr in m.handle_rules.items():
        membership = m.src.membership_rule(h)
        exceptional = {p[2] for p in m.exceptions if p[0] == "member" and p[1] == h}
        surviving = rule_and(membership, rule_singletons(exceptional).negate())
        if hr[0] == "const":
            if not surviving.is_empty():
                cover(hr[1])
        else:
            th = hr[1]
            covered_members[th] = rule_or(covered_members.get(th, RULE_FALSE), surviving)
    for p in m.dst.finite_points():
        if p[0] == "named" and p not in covered_named:
            return False
        if p[0] == "member" and not covered_members.get(p[1], RULE_FALSE)(p[2]):
            return False
    for c in m.dst.clusters:
        if limit_point(c.limit)[1] not in covered_limits:
            return False
        for h, r in c.groups:
            if rule_and(r, covered_members.get(h, RULE_FALSE).negate()).is_infinite():
                return False
    return True


# ---------------------------------------------------------------------------
# The gamma inverse system

def locate_point(cs: ComponentSystem, v: VertexId):
    """The point of the gamma space whose component contains v."""
    desc = cs.locate(v)
    if desc.kind == "family":
        k = v.k
        return member_point(desc.handle(), k)
    return named_point(desc)


def bonding_f(cs: ComponentSystem, cs_prime: ComponentSystem) -> FduMap:
    """The map from the gamma space over X' to the one over X (X inside X').

    Components map by inclusion; critical sets of X' persisting in X stay
    fixed; the rest land on the unique component meeting them.
    """
    return _bonding_f(cs, cs_prime, gamma_space(cs_prime), gamma_space(cs))


def _bonding_f(cs: ComponentSystem, cs_prime: ComponentSystem, src: FduSpace, dst: FduSpace) -> FduMap:
    """bonding_f with the gamma spaces over X' (src) and X (dst) already built."""
    if not cs.X <= cs_prime.X:
        raise NotNestedError("bonding maps run from finer to coarser deletions")
    exceptions = {}
    for d in cs_prime.explicit_descriptors:
        exceptions[named_point(d)] = locate_point(cs, _probe_vertex(cs.g, d))
    handle_rules = {}
    for d in cs_prime.family_descriptors:
        h = d.handle()
        target = cs.handle_descriptor(h)
        if target.kind == "family":
            handle_rules[h] = ("identity", h)
        else:
            handle_rules[h] = ("const", named_point(target))
    limit_images = {}
    for Y in cs_prime.crit():
        if Y <= cs.X:
            limit_images[Y] = limit_point(Y)
        else:
            limit_images[Y] = named_point(unique_component_meeting(cs, Y))
    return FduMap(src, dst, exceptions, handle_rules, limit_images)


def project(cs: ComponentSystem, xi: PointOfGamma):
    """The point of the gamma space over X below xi: where its filter lies."""
    mode, at = point_filter(cs, xi)
    return limit_point(at) if mode == "cofinite" else named_point(at)


def _check_directed(family):
    sets = [frozenset(X) for X in family]
    members = set(sets)
    for a in sets:
        for b in sets:
            u = a | b
            if u not in members and not any(u <= c for c in sets):
                raise NotDirectedError(
                    f"{sorted(map(str, a))} and {sorted(map(str, b))} have no upper bound"
                )
    return sets


@dataclass
class SystemReport:
    entries: list = field(default_factory=list)  # (check, subject, ok, detail)

    def record(self, check, subject, ok, detail=""):
        self.entries.append((check, subject, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(e[2] for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e[2]]


def build_system(g: PatternGraph, family):
    """Component systems and bonding maps over a directed family."""
    sets = _check_directed(family)
    css = {X: delete(g, X) for X in sets}
    spaces = {X: gamma_space(cs) for X, cs in css.items()}
    maps = {}
    for Xs in sets:
        for Xt in sets:
            if Xt <= Xs:
                maps[(Xs, Xt)] = _bonding_f(css[Xt], css[Xs], spaces[Xs], spaces[Xt])
    return css, maps


def verify_system(css: dict, maps: dict) -> SystemReport:
    """Functoriality, agreement with component bonding, and continuity.

    Each set's label and condition-(1) probes, each pair's label and the
    sets above each set are built once per call, and so is each map's
    row of images of its source's probe points, read from the maps
    passed in.  Functoriality, f_ki == f_ji . f_kj for every chain
    X_i <= X_j <= X_k, is then ``tuple(map(t_ji.__getitem__, t_kj)) ==
    t_ki``, which is exactly ``maps_equal(f_ki, compose(f_ji, f_kj))``
    (see ``_slot_tables``).
    """
    report = SystemReport()
    sets = sorted(css, key=lambda X: (len(X), vertex_set_key(X)))
    names = {X: str(sorted(map(str, X))) for X in sets}
    pair_labels = {(Xs, Xt): f"{names[Xt]} <= {names[Xs]}" for Xs, Xt in maps}
    for pair in sorted(maps, key=pair_labels.__getitem__):
        verdict = is_continuous(maps[pair])
        report.record("continuity", pair_labels[pair], verdict.ok, verdict.witness or "")
    # condition (1): the map restricted to embedded components acts by inclusion
    probes = {X: _condition1_probes(cs) for X, cs in css.items()}
    for (Xs, Xt), m in maps.items():
        cs_t = css[Xt]
        explicit, families = probes[Xs]
        ok = True
        detail = ""
        for d, point, samples in explicit:
            img = m.apply(point)
            for v in samples:
                if v in cs_t.X:
                    continue
                if locate_point(cs_t, v) != img:
                    ok = False
                    detail = f"component {d.key()[0]} probe {v} lands elsewhere"
        for h, probe in families:
            if m.apply(member_point(h, probe.k)) != locate_point(cs_t, probe):
                ok = False
                detail = f"family {h} member {probe.k} disagrees with component inclusion"
        report.record("condition1", pair_labels[(Xs, Xt)], ok, detail)
    tables = _slot_tables(maps)
    above = {X: [Y for Y in sets if X <= Y] for X in sets}
    for Xi in sets:
        for Xj in above[Xi]:
            for Xk in above[Xj]:
                t_kj = tables.get((Xk, Xj))
                if t_kj is not None:
                    report.record(
                        "functoriality",
                        f"{names[Xi]} <= {names[Xj]} <= {names[Xk]}",
                        tuple(map(tables[(Xj, Xi)].__getitem__, t_kj)) == tables[(Xk, Xi)],
                    )
    return report


def _slot_tables(maps: dict) -> dict:
    """Each bonding map as a tuple: for each source probe, the target slot of its image.

    Probes.  A copy index is named when some map gives it to a single
    point (as an exception key or image, a const image or a limit image),
    when a space lists a copy among its finite points, or when it is a
    flip of some space's membership rule.  With f one past the largest
    named index, a space's probes are its finite points, its limit points
    and its member copies at the named indices and at f and f + 1; a
    probe's slot is its place in that list.

    Exactness.  maps_equal(f_ki, compose(f_ji, f_kj)) holds iff
    f_ki(p) == f_ji(f_kj(p)) for every point p of X_k's space, and the
    probes are points, so the tables decide exactly that on the probes.
    Every flip is named, so at an unnamed index a membership rule holds
    by the index's parity alone.  A map moves a copy with an unnamed
    index only through its family's const or identity rule, and identity
    keeps the index; so along any chain such a copy behaves exactly like
    the fresh probe of its parity, f or f + 1.

    An image outside the target's probes raises InvariantError, and so do
    two maps that disagree on the space over one set: the tables would
    then decide nothing.
    """
    spaces = {}
    for (Xs, Xt), m in maps.items():
        for X, space in ((Xs, m.src), (Xt, m.dst)):
            known = spaces.setdefault(X, space)
            if known is not space and known != space:
                raise InvariantError(f"two maps disagree on the space over {sorted(map(str, X))}")
    named = set()
    for m in maps.values():
        consts = (rule[1] for rule in m.handle_rules.values() if rule[0] == "const")
        for p in chain(m.exceptions, m.exceptions.values(), m.limit_images.values(), consts):
            if p[0] == "member":
                named.add(p[2])
    for space in spaces.values():
        named.update(p[2] for p in space.finite_points() if p[0] == "member")
        named.update(*(space.membership_rule(h).flips for h in space.handles()))
    fresh = max(named, default=-1) + 1
    indices = (*sorted(named), fresh, fresh + 1)
    probes = {X: _probe_points(space, indices) for X, space in spaces.items()}
    slots = {X: dict(zip(points, range(len(points)))) for X, points in probes.items()}
    return {(Xs, Xt): _slot_table(m, probes[Xs], slots[Xt]) for (Xs, Xt), m in maps.items()}


def _probe_points(space: FduSpace, indices: tuple) -> tuple:
    """The space's finite and limit points, then its member copies at the given indices."""
    points = [*space.finite_points(), *(limit_point(c.limit) for c in space.clusters)]
    for h in space.handles():
        rule = space.membership_rule(h)
        points += [member_point(h, k) for k in indices if rule(k)]
    return tuple(dict.fromkeys(points))


def _slot_table(m: FduMap, probes: tuple, slots: dict) -> tuple:
    """m's slot table: the target slot of each source probe's image."""
    row = tuple(map(slots.get, map(m.apply, probes)))
    if None in row:
        raise InvariantError(f"the image of {probes[row.index(None)]} is not a point of the target space")
    return row


def _condition1_probes(cs: ComponentSystem):
    """Sample vertices of each explicit component and the probe copy of each family."""
    explicit = []
    for d in cs.explicit_descriptors:
        samples = sorted(d.vertices, key=VertexId.sort_key)[:3]
        for seg in d.tails:
            samples.append(stripv(seg.strip, seg.start, min(cs.g.strip(seg.strip).locals)))
        explicit.append((d, named_point(d), samples))
    families = [(d.handle(), _probe_vertex(cs.g, d)) for d in cs.family_descriptors]
    return explicit, families


def check_inverse_system(g: PatternGraph, family) -> SystemReport:
    css, maps = build_system(g, family)
    return verify_system(css, maps)


def limit_points(g: PatternGraph, family, horizon: int):
    """Ends and critical sets within horizon, with their compatible threads."""
    return _threads(g, *build_system(g, family), horizon)


def _threads(g: PatternGraph, css: dict, maps: dict, horizon: int):
    """limit_points over a system that build_system already built."""
    out = []
    for xi in all_points(g, horizon):
        thread = {X: project(cs, xi) for X, cs in css.items()}
        for (Xs, Xt), m in maps.items():
            if m.apply(thread[Xs]) != thread[Xt]:
                raise InvariantError(
                    f"thread of {xi} incompatible between {sorted(map(str, Xt))} and {sorted(map(str, Xs))}"
                )
        out.append((xi, thread))
    return out


# ---------------------------------------------------------------------------
# Quotients onto the gamma space

def validate_alpha_over(cs: ComponentSystem, alpha: FduSpace):
    """alpha must be an FDU compactification of exactly the components of G - X."""
    want_named = {named_point(d) for d in cs.explicit_descriptors}
    have_named = set(alpha.named_points())
    if want_named != have_named:
        raise ValueError("alpha does not enumerate the explicit components exactly")
    if len(alpha.named_points()) != len(set(alpha.named_points())):
        raise ValueError("alpha repeats a named point")
    for d in cs.family_descriptors:
        h = d.handle()
        full = FamilyRule("true", d.excluded())
        if alpha.membership_rule(h).key() != full.key():
            raise ValueError(f"alpha does not cover family {h} exactly")
    for h in alpha.handles():
        if h not in {d.handle() for d in cs.family_descriptors}:
            raise ValueError(f"alpha mentions unknown family {h}")
    # pairwise disjoint groups
    for i, c1 in enumerate(alpha.clusters):
        for c2 in alpha.clusters[i + 1:]:
            for h1, r1 in c1.groups:
                for h2, r2 in c2.groups:
                    if h1 == h2 and not rule_and(r1, r2).is_empty():
                        raise ValueError(f"clusters overlap on family {h1}")
        if not c1.is_infinite():
            raise ValueError(
                f"cluster at {c1.limit} has a finite family; the embedded components are not dense"
            )


def quotient_to_gamma(cs: ComponentSystem, alpha: FduSpace) -> FduMap:
    """Collapse each critical family's closure onto its gamma cluster.

    Requires distinct critical families to accumulate at distinct limit
    points of alpha; otherwise Condition4ViolatedError names the pair.
    """
    validate_alpha_over(cs, alpha)
    handle_nbhd = {d.handle(): d.neighborhood for d in cs.family_descriptors}
    assignments = {}
    for c in alpha.clusters:
        hits = sorted({handle_nbhd[h] for h, r in c.groups if r.is_infinite()}, key=vertex_set_key)
        if len(hits) > 1:
            raise Condition4ViolatedError(hits[0], hits[1])
        assignments[c.limit] = hits[0]
    exceptions = {p: p for p in alpha.finite_points()}
    handle_rules = {h: ("identity", h) for h in alpha.handles()}
    limit_images = {label: limit_point(Y) for label, Y in assignments.items()}
    return FduMap(alpha, gamma_space(cs), exceptions, handle_rules, limit_images)
