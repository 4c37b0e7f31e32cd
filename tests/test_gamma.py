"""Gamma spaces, bonding maps, the inverse system, and quotients."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagraph.components import InvariantError, delete
from omegagraph.gamma import (
    Cluster,
    Condition4ViolatedError,
    FduMap,
    FduSpace,
    NotDirectedError,
    bonding_f,
    build_system,
    check_inverse_system,
    compose,
    gamma_space,
    identity_map,
    is_continuous,
    is_surjective,
    limit_point,
    limit_points,
    maps_equal,
    member_point,
    named_point,
    project,
    quotient_to_gamma,
    verify_system,
)
from omegagraph import gamma
from omegagraph.components import _probe_vertex
from omegagraph.ids import VertexId, core, parse_vertex, stripv
from omegagraph.separations import FamilyRule, all_points, crit_point, end_point, distinguish, rule_and
from conftest import FIXTURE_NAMES, random_deletion, random_pattern


P = lambda t: stripv("s1", t, "p")


# ---------------------------------------------------------------------------
# gamma_space structure

def test_gamma_space_thetafan(fixtures):
    cs = delete(fixtures["thetafan"], {core("a"), core("b")})
    sp = gamma_space(cs)
    assert sp.isolated == ()
    assert len(sp.clusters) == 1
    cl = sp.clusters[0]
    assert cl.limit == frozenset({core("a"), core("b")})
    assert cl.named_members == ()
    assert [h for h, _ in cl.groups] == [("fan", "f1")]


def test_gamma_space_ray(fixtures):
    cs = delete(fixtures["ray"], {P(0)})
    sp = gamma_space(cs)
    assert len(sp.isolated) == 1 and not sp.clusters


def test_gamma_space_comb(fixtures):
    cs = delete(fixtures["comb"], {P(0)})
    sp = gamma_space(cs)
    # the tail has neighborhood {p0}, so it converges into the cluster
    assert sp.isolated == ()
    assert len(sp.clusters) == 1
    assert len(sp.clusters[0].named_members) == 1


def test_cluster_correctness_everywhere(fixtures):
    rng = random.Random(7)
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        for _ in range(5):
            cs = delete(g, random_deletion(g, rng))
            sp = gamma_space(cs)
            assert set(sp.isolated) == {named_point(d) for d in cs.cx_minus()}
            assert {c.limit for c in sp.clusters} == set(cs.crit())


# ---------------------------------------------------------------------------
# bonding maps

def test_bonding_identity_when_equal(fixtures):
    cs = delete(fixtures["comb"], {P(0)})
    m = bonding_f(cs, cs)
    assert maps_equal(m, identity_map(gamma_space(cs)))


def test_bonding_three_case_rule_on_comb(fixtures):
    g = fixtures["comb"]
    cs1 = delete(g, {P(0)})
    cs2 = delete(g, {P(0), P(1)})
    m = bonding_f(cs1, cs2)
    # persisting critical set: fixed
    assert m.limit_images[frozenset({P(0)})] == limit_point(frozenset({P(0)}))
    # new critical set: lands on the unique component meeting it
    target = m.limit_images[frozenset({P(1)})]
    assert target == named_point(cs1.tail_descriptor("s1"))
    assert is_continuous(m).ok


def test_bonding_continuity_on_random_nested_pairs():
    rng = random.Random(21)
    for seed in range(12):
        g = random_pattern(seed)
        X = random_deletion(g, rng, 2)
        X2 = X | random_deletion(g, rng, 2)
        m = bonding_f(delete(g, X), delete(g, X2))
        assert is_continuous(m).ok, (seed, sorted(map(str, X2)))


def test_continuity_rejects_mismatched_tail(fixtures):
    # family maps into one cluster while the limit goes elsewhere
    h = ("fan", "f1")
    src = FduSpace(clusters=(Cluster(limit="L", groups=((h, FamilyRule("true")),)),))
    dst = FduSpace(
        isolated=(("named", "iso"),),
        clusters=(Cluster(limit="M", groups=((h, FamilyRule("true")),)),),
    )
    bad = type(bonding_f(delete(fixtures["star"], set()), delete(fixtures["star"], set())))(
        src, dst, exceptions={}, handle_rules={h: ("identity", h)},
        limit_images={"L": ("named", "iso")},
    )
    verdict = is_continuous(bad)
    assert not verdict.ok and "converges to" in verdict.witness


def test_projection_cases(fixtures):
    g = fixtures["comb"]
    cs2 = delete(g, {P(0), P(1)})
    assert project(cs2, crit_point(g, {P(1)})) == limit_point(frozenset({P(1)}))
    cs1 = delete(g, {P(0)})
    assert project(cs1, crit_point(g, {P(1)})) == named_point(cs1.tail_descriptor("s1"))
    assert project(cs2, end_point("s1")) == named_point(cs2.tail_descriptor("s1"))
    assert cs2.tail_descriptor("s1").tails[0].start == 2


def test_thread_compatibility_random(fixtures):
    rng = random.Random(5)
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        pts = all_points(g, 2)
        for _ in range(4):
            X = random_deletion(g, rng, 2)
            X2 = X | random_deletion(g, rng, 2)
            cs, cs2 = delete(g, X), delete(g, X2)
            m = bonding_f(cs, cs2)
            for xi in pts:
                assert m.apply(project(cs2, xi)) == project(cs, xi), (name, str(xi))


# ---------------------------------------------------------------------------
# inverse system checks

def test_check_inverse_system_comb(fixtures):
    g = fixtures["comb"]
    report = check_inverse_system(g, [set(), {P(0)}, {P(0), P(1)}])
    assert report.ok
    kinds = {c for c, *_ in report.entries}
    assert kinds == {"continuity", "condition1", "functoriality"}


def test_check_inverse_system_singleton(fixtures):
    report = check_inverse_system(fixtures["star"], [{core("c")}])
    assert report.ok


def test_check_inverse_system_rejects_undirected(fixtures):
    g = fixtures["comb"]
    with pytest.raises(NotDirectedError):
        check_inverse_system(g, [{P(0)}, {P(1)}])


def test_fault_injection_reported(fixtures):
    from omegagraph.ids import fanv

    g = fixtures["thetafan"]
    X2 = frozenset({core("a"), core("b")})
    X3 = X2 | {fanv("f1", 0, "u")}
    css, maps = build_system(g, [frozenset(), X2, X3])
    assert verify_system(css, maps).ok
    # swap two copy images at one index of the member-identity map
    h = ("fan", "f1")
    m = maps[(X3, X2)]
    m.exceptions[member_point(h, 1)] = member_point(h, 2)
    m.exceptions[member_point(h, 2)] = member_point(h, 1)
    report = verify_system(css, maps)
    assert not report.ok
    assert any(c == "condition1" for c, s, ok, d in report.failures())


def test_limit_points_on_fixtures(fixtures):
    g = fixtures["comb"]
    pts = limit_points(g, [set(), {P(0)}], 2)
    labels = [str(xi) for xi, _ in pts]
    assert labels == [
        "end:s1",
        "crit:{strip:s1/0/p}",
        "crit:{strip:s1/1/p}",
        "crit:{strip:s1/2/p}",
    ]
    star = fixtures["star"]
    pts = limit_points(star, [set(), {core("c")}], 1)
    assert [str(xi) for xi, _ in pts] == ["crit:{core:c}"]
    (xi, thread), = pts
    assert thread[frozenset({core("c")})] == limit_point(frozenset({core("c")}))
    whole = delete(star, set()).descriptors[0]
    assert thread[frozenset()] == named_point(whole)
    ray_pts = limit_points(fixtures["ray"], [set(), {P(0)}], 3)
    assert [str(xi) for xi, _ in ray_pts] == ["end:s1"]


def test_separation_of_points_via_witness_family(fixtures):
    # a directed family built from pairwise distinguishing witnesses makes
    # the projection threads injective
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        pts = all_points(g, 2)
        bases = set()
        for a, b in itertools.combinations(pts, 2):
            bases.add(frozenset(distinguish(g, a, b).cs.X))
        family = {frozenset()} | bases
        whole = frozenset().union(*family) if bases else frozenset()
        family.add(whole)
        css = {X: delete(g, X) for X in family}
        threads = [tuple(project(css[X], xi) for X in sorted(family, key=sorted)) for xi in pts]
        assert len(set(threads)) == len(pts), name


# ---------------------------------------------------------------------------
# quotients

def test_quotient_identity(fixtures):
    cs = delete(fixtures["comb"], {P(0)})
    q = quotient_to_gamma(cs, gamma_space(cs))
    assert is_continuous(q).ok and is_surjective(q)
    assert maps_equal(q, identity_map(gamma_space(cs)))


def test_quotient_parity_refinement(fixtures):
    cs = delete(fixtures["comb"], {P(0)})
    h = ("pfan", "s1", 0)
    base = gamma_space(cs)
    named = tuple(p for c in base.clusters for p in c.named_members)
    alpha = FduSpace(
        isolated=named,
        clusters=(
            Cluster(limit="even", groups=((h, FamilyRule("even")),)),
            Cluster(limit="odd", groups=((h, FamilyRule("odd")),)),
        ),
    )
    q = quotient_to_gamma(cs, alpha)
    assert is_continuous(q).ok and is_surjective(q)
    Y = frozenset({P(0)})
    assert q.limit_images == {"even": limit_point(Y), "odd": limit_point(Y)}
    # fixes the embedded component space pointwise
    for p in alpha.finite_points():
        assert q.apply(p) == p
    for k in (0, 3):
        assert q.apply(member_point(h, k)) == member_point(h, k)


def test_quotient_condition4_violation(fixtures):
    cs = delete(fixtures["comb"], {P(0), P(1)})
    h0, h1 = ("pfan", "s1", 0), ("pfan", "s1", 1)
    base = gamma_space(cs)
    named = tuple(p for c in base.clusters for p in c.named_members) + base.isolated
    mixed = FduSpace(
        isolated=named,
        clusters=(
            Cluster(limit="mix", groups=((h0, FamilyRule("true")), (h1, FamilyRule("true")))),
        ),
    )
    with pytest.raises(Condition4ViolatedError) as exc:
        quotient_to_gamma(cs, mixed)
    assert set(exc.value.pair) == {frozenset({P(0)}), frozenset({P(1)})}


def test_quotient_rejects_non_dense_alpha(fixtures):
    cs = delete(fixtures["comb"], {P(0)})
    h = ("pfan", "s1", 0)
    base = gamma_space(cs)
    named = tuple(p for c in base.clusters for p in c.named_members)
    finite_cluster = FduSpace(
        isolated=named,
        clusters=(
            Cluster(limit="tiny", groups=((h, FamilyRule("false", frozenset({0, 1}))),)),
            Cluster(limit="rest", groups=((h, FamilyRule("true", frozenset({0, 1}))),)),
        ),
    )
    with pytest.raises(ValueError):
        quotient_to_gamma(cs, finite_cluster)


def test_quotient_rejects_wrong_cover(fixtures):
    cs = delete(fixtures["comb"], {P(0)})
    h = ("pfan", "s1", 0)
    alpha = FduSpace(
        isolated=(),
        clusters=(Cluster(limit="all", groups=((h, FamilyRule("true")),)),),
    )
    with pytest.raises(ValueError):
        quotient_to_gamma(cs, alpha)  # tail component missing


def test_fragment_maps_to_family_member():
    # deleting part of one fan copy leaves a fragment whose image under
    # the bonding map is that copy as a family member point
    from omegagraph.pattern import validate
    from omegagraph.ids import fanv

    g = validate(
        {
            "core": {"vertices": ["a", "b"], "edges": []},
            "strips": [],
            "fans": [
                {"id": "f1", "template": {"vertices": ["u", "w"], "edges": [["u", "w"]]},
                 "attach": ["a", "b"], "attach_edges": [["u", "a"], ["u", "b"]]}
            ],
            "dominations": [],
        }
    )
    X = frozenset({core("a"), core("b")})
    X2 = X | {fanv("f1", 0, "u")}
    cs, cs2 = delete(g, X), delete(g, X2)
    frag = cs2.locate(fanv("f1", 0, "w"))
    assert frag.kind == "finite" and frag.vertices == {fanv("f1", 0, "w")}
    m = bonding_f(cs, cs2)
    assert m.apply(named_point(frag)) == member_point(("fan", "f1"), 0)
    assert is_continuous(m).ok
    report = check_inverse_system(g, [X, X2])
    assert report.ok


# ---------------------------------------------------------------------------
# composition algebra

def test_compose_chain_matches_direct(fixtures):
    g = fixtures["combo"]
    X1 = frozenset()
    X2 = frozenset({core("a"), core("b")})
    X3 = X2 | {core("d"), P(0)}
    cs1, cs2, cs3 = delete(g, X1), delete(g, X2), delete(g, X3)
    direct = bonding_f(cs1, cs3)
    chained = compose(bonding_f(cs1, cs2), bonding_f(cs2, cs3))
    assert maps_equal(direct, chained)
    assert is_continuous(direct).ok and is_continuous(chained).ok


# ---------------------------------------------------------------------------
# map predicates on finite families

def test_maps_equal_probes_exceptions_on_every_handle():
    h1, h2 = ("fan", "f1"), ("fan", "f2")
    A, B = ("named", "A"), ("named", "B")
    finite = FamilyRule("false", frozenset({0, 1}))
    src = FduSpace(clusters=(Cluster("L", (), ((h1, finite), (h2, finite))),))
    dst = FduSpace(isolated=(A, B))

    def const_a(exceptions):
        rules = {h1: ("const", A), h2: ("const", A)}
        return gamma.FduMap(src, dst, dict(exceptions), rules, {"L": A})

    # m1's only exception sits on h1 and agrees with the rule; m2's sits on h2 and does not
    m1 = const_a({member_point(h1, 0): A})
    m2 = const_a({member_point(h2, 1): B})
    assert not maps_equal(m1, m2) and not maps_equal(m2, m1)
    both = const_a({member_point(h1, 0): A, member_point(h2, 1): A})
    assert maps_equal(m1, both) and maps_equal(both, const_a({}))
    # an exception on a copy outside the finite family is not a point of the source
    assert maps_equal(const_a({member_point(h2, 5): B}), m1)


def test_maps_equal_probes_members_of_finite_family():
    h = ("fan", "f1")
    A, B = ("named", "A"), ("named", "B")
    src = FduSpace(clusters=(Cluster("L", (), ((h, FamilyRule("false", frozenset({0, 1}))),)),))
    dst = FduSpace(isolated=(A, B))
    m1 = gamma.FduMap(src, dst, handle_rules={h: ("const", A)}, limit_images={"L": A})
    m2 = gamma.FduMap(src, dst, handle_rules={h: ("const", B)}, limit_images={"L": A})
    assert m1.apply(member_point(h, 0)) != m2.apply(member_point(h, 0))
    assert not maps_equal(m1, m2)
    assert maps_equal(m1, m1)


def test_is_surjective_const_image_needs_a_preimage():
    h = ("fan", "f1")
    A, B = ("named", "A"), ("named", "B")
    src = FduSpace((A,), (Cluster("L", (), ((h, FamilyRule("false", frozenset({0}))),)),))
    dst = FduSpace(isolated=(A, B))
    m = gamma.FduMap(
        src,
        dst,
        exceptions={A: A, member_point(h, 0): A},
        handle_rules={h: ("const", B)},
        limit_images={"L": A},
    )
    assert all(m.apply(p) == A for p in (A, member_point(h, 0), limit_point("L")))
    assert not is_surjective(m)
    # the same rule with a surviving member does reach B
    m.exceptions.pop(member_point(h, 0))
    assert is_surjective(m)


# ---------------------------------------------------------------------------
# each space and map built once, against the per-pair public bonding_f

POWER_SET_POOL = [
    parse_vertex(t) for t in ("core:a", "core:b", "core:d", "strip:s1/0/p", "strip:s1/1/p", "strip:s1/2/p")
]


def _power_set(n):
    return [frozenset(c) for r in range(n + 1) for c in itertools.combinations(POWER_SET_POOL[:n], r)]


def _reference_system(g, family):
    sets = [frozenset(X) for X in family]
    css = {X: delete(g, X) for X in sets}
    maps = {(Xs, Xt): bonding_f(css[Xt], css[Xs]) for Xs in sets for Xt in sets if Xt <= Xs}
    return css, maps


def _reference_limit_points(g, family, horizon):
    sets = [frozenset(X) for X in family]
    css = {X: delete(g, X) for X in sets}
    out = []
    for xi in all_points(g, horizon):
        thread = {X: project(css[X], xi) for X in sets}
        for Xs in sets:
            for Xt in sets:
                if Xt <= Xs:
                    assert bonding_f(css[Xt], css[Xs]).apply(thread[Xs]) == thread[Xt]
        out.append((xi, thread))
    return out


# Per fixture two sets a and b for the family {}, a, b, a | b.  Where the
# fixture has a fan, b deletes one of its copies.
_FAMILY_SETS = {
    "star": ("core:c", "fan:f1/0/u"),
    "ray": ("strip:s1/0/p", "strip:s1/2/p"),
    "comb": ("strip:s1/0/p", "pfan:s1/0/0/u,strip:s1/1/p"),
    "domray": ("core:d", "strip:s1/1/p"),
    "thetafan": ("core:a,core:b", "fan:f1/0/u"),
    "combo": ("core:a,strip:s1/2/p", "core:b,fan:f1/0/u"),
}


def _directed_families(fixtures):
    for name in FIXTURE_NAMES:
        a, b = (frozenset(map(parse_vertex, csv.split(","))) for csv in _FAMILY_SETS[name])
        yield name, fixtures[name], [frozenset(), a, b, a | b]


def _same_threads(got, want):
    assert [str(xi) for xi, _ in got] == [str(xi) for xi, _ in want]
    assert [list(th.items()) for _, th in got] == [list(th.items()) for _, th in want]


def test_check_inverse_system_matches_per_pair_reference(fixtures):
    cases = [("combo", fixtures["combo"], _power_set(n)) for n in (3, 4, 5)]
    cases += list(_directed_families(fixtures))
    for name, g, family in cases:
        got = check_inverse_system(g, family).entries
        want = verify_system(*_reference_system(g, family)).entries
        assert got == want, (name, len(family))
        _same_threads(limit_points(g, family, 2), _reference_limit_points(g, family, 2))


def test_build_system_builds_each_space_once(fixtures, monkeypatch):
    calls = 0
    space = gamma.gamma_space

    def counting_space(cs):
        nonlocal calls
        calls += 1
        return space(cs)

    monkeypatch.setattr(gamma, "gamma_space", counting_space)
    report = check_inverse_system(fixtures["combo"], _power_set(4))
    assert report.ok
    assert calls == 16  # per map, twice over 3**4 nested pairs, would be 162


def test_limit_points_builds_maps_once_per_call(fixtures, monkeypatch):
    calls = 0
    build = gamma._bonding_f

    def counting_build(*args):
        nonlocal calls
        calls += 1
        return build(*args)

    monkeypatch.setattr(gamma, "_bonding_f", counting_build)
    counts = {}
    for horizon in (1, 3):
        calls = 0
        pts = limit_points(fixtures["combo"], _power_set(3), horizon)
        counts[horizon] = (calls, len(pts))
    assert counts[1][0] == counts[3][0] == 3 ** 3, counts
    assert counts[1][1] < counts[3][1], counts


# ---------------------------------------------------------------------------
# verify_system against the per-entry loop it replaced

def _reference_pair_label(Xs, Xt):
    return f"{sorted(map(str, Xt))} <= {sorted(map(str, Xs))}"


def _reference_verify_system(css, maps):
    """verify_system as it was: a sets**3 scan, public maps_equal, labels per entry."""
    report = gamma.SystemReport()
    sets = sorted(css, key=lambda X: (len(X), tuple(sorted(v.sort_key() for v in X))))
    for (Xs, Xt), m in sorted(maps.items(), key=lambda kv: (_reference_pair_label(*kv[0]))):
        verdict = is_continuous(m)
        report.record("continuity", _reference_pair_label(Xs, Xt), verdict.ok, verdict.witness or "")
    # condition (1): the map restricted to embedded components acts by inclusion
    for (Xs, Xt), m in maps.items():
        cs_s, cs_t = css[Xs], css[Xt]
        ok = True
        detail = ""
        for d in cs_s.explicit_descriptors:
            samples = sorted(d.vertices, key=VertexId.sort_key)[:3]
            for seg in d.tails:
                samples.append(stripv(seg.strip, seg.start, min(cs_s.g.strip(seg.strip).locals)))
            img = m.apply(named_point(d))
            for v in samples:
                if v in cs_t.X:
                    continue
                if gamma.locate_point(cs_t, v) != img:
                    ok = False
                    detail = f"component {d.key()[0]} probe {v} lands elsewhere"
        for d in cs_s.family_descriptors:
            h = d.handle()
            probe = _probe_vertex(cs_s.g, d)
            k = probe.k
            if m.apply(member_point(h, k)) != gamma.locate_point(cs_t, probe):
                ok = False
                detail = f"family {h} member {k} disagrees with component inclusion"
        report.record("condition1", _reference_pair_label(Xs, Xt), ok, detail)
    for Xi in sets:
        for Xj in sets:
            for Xk in sets:
                if Xi <= Xj <= Xk and (Xk, Xj) in maps:
                    lhs = maps[(Xk, Xi)]
                    rhs = compose(maps[(Xj, Xi)], maps[(Xk, Xj)])
                    report.record(
                        "functoriality",
                        f"{sorted(map(str, Xi))} <= {sorted(map(str, Xj))} <= {sorted(map(str, Xk))}",
                        maps_equal(lhs, rhs),
                    )
    return report


def _inject_faults(maps):
    """Swap two exception images in one map and make one identity rule const in another."""
    injected = 0
    for m in maps.values():
        first = next(iter(m.exceptions), None)
        other = next((p for p in m.exceptions if m.exceptions[p] != m.exceptions[first]), None)
        if other is not None:
            m.exceptions[first], m.exceptions[other] = m.exceptions[other], m.exceptions[first]
            injected += 1
            break
    for m in reversed(maps.values()):
        h = next((h for h, rule in m.handle_rules.items() if rule[0] == "identity"), None)
        if h is not None and m.dst.finite_points():
            m.handle_rules[h] = ("const", m.dst.finite_points()[0])
            injected += 1
            break
    return injected


def test_verify_system_matches_reference_loop(fixtures):
    # the n = 6 system is compared unfaulted only, to keep the test near 1 s
    cases = [("combo", fixtures["combo"], _power_set(n), n < 6) for n in (3, 4, 5, 6)]
    cases += [(name, g, family, True) for name, g, family in _directed_families(fixtures)]
    failing_kinds = {}
    for name, g, family, fault in cases:
        css, maps = build_system(g, family)
        got = verify_system(css, maps).entries
        assert got == _reference_verify_system(css, maps).entries, (name, len(family))
        assert all(ok for _, _, ok, _ in got), name
        # star's and thetafan's fans have one-vertex templates, so deleting a
        # copy leaves no finite component: their maps have no two distinct
        # exception images and no identity rule into a space with finite points
        if fault and _inject_faults(maps):
            got = verify_system(css, maps).entries
            want = _reference_verify_system(css, maps).entries
            assert len(got) == len(want)
            for i, (a, b) in enumerate(zip(got, want)):
                assert a == b, (name, len(family), i)
            failing_kinds[(name, len(family))] = {(c, bool(d)) for c, _, ok, d in got if not ok}
    want_kinds = {("continuity", True), ("condition1", True), ("functoriality", False)}
    assert failing_kinds == {
        **dict.fromkeys([("combo", 8), ("combo", 16), ("combo", 32), ("combo", 4), ("comb", 4)], want_kinds),
        **dict.fromkeys([("ray", 4), ("domray", 4)], want_kinds - {("continuity", True)}),
    }
    # a bonding map whose own exception image is a member copy, moved to another copy
    css, maps = build_system(*_fragment_family())
    X, top = min(css, key=len), max(css, key=len)
    m = maps[(top, X)]
    (fragment,) = (p for p, q in m.exceptions.items() if q == member_point(("fan", "f1"), 1))
    for fault in (False, True):
        if fault:
            m.exceptions[fragment] = member_point(("fan", "f1"), 2)
        got = verify_system(css, maps).entries
        assert got == _reference_verify_system(css, maps).entries, fault
        assert {c for c, _, ok, _ in got if not ok} == ({"condition1", "functoriality"} if fault else set())


def test_verify_system_rejects_a_map_outside_its_spaces():
    css, maps = build_system(*_fragment_family())
    X, top = min(css, key=len), max(css, key=len)
    m = maps[(top, X)]
    fragment, image = next(iter(m.exceptions.items()))
    m.exceptions[fragment] = ("named", "nowhere")
    with pytest.raises(InvariantError, match="is not a point of the target space"):
        verify_system(css, maps)
    m.exceptions[fragment] = image
    m.handle_rules[("fan", "f1")] = ("identity", ("fan", "zz"))
    with pytest.raises(InvariantError, match=r"the image of \('member', \('fan', 'f1'\), \d+\) is not a point"):
        verify_system(css, maps)
    m.handle_rules[("fan", "f1")] = ("identity", ("fan", "f1"))
    assert verify_system(css, maps).ok
    m.src = FduSpace()
    with pytest.raises(InvariantError, match="two maps disagree on the space over"):
        verify_system(css, maps)


def _fragment_family():
    """A two-vertex fan at deleted core vertices; the sets above delete u of copies 0 and 1.

    Deleting u from a copy leaves its w a one-vertex component, which the
    bonding map to {a, b} sends to that copy as a member point.
    """
    from omegagraph.pattern import validate
    from omegagraph.ids import fanv

    g = validate(
        {
            "core": {"vertices": ["a", "b"], "edges": []},
            "strips": [],
            "fans": [
                {"id": "f1", "template": {"vertices": ["u", "w"], "edges": [["u", "w"]]},
                 "attach": ["a", "b"], "attach_edges": [["u", "a"], ["u", "b"]]}
            ],
            "dominations": [],
        }
    )
    X = frozenset({core("a"), core("b")})
    u0, u1 = fanv("f1", 0, "u"), fanv("f1", 1, "u")
    return g, [X, X | {u0}, X | {u1}, X | {u0, u1}]


def test_system_builds_each_space_tables_once(fixtures, monkeypatch):
    counts = {"tables": 0, "slot tables": 0, "compose": 0, "maps_equal": 0}
    post_init = FduSpace.__post_init__

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(FduSpace, "__post_init__", counting("tables", post_init))
    monkeypatch.setattr(gamma, "_slot_table", counting("slot tables", gamma._slot_table))
    monkeypatch.setattr(gamma, "compose", counting("compose", gamma.compose))
    monkeypatch.setattr(gamma, "maps_equal", counting("maps_equal", gamma.maps_equal))
    family = _power_set(5)
    css, maps = build_system(fixtures["combo"], family)
    assert verify_system(css, maps).ok
    # one per space (32) and one per map (243), however many chains (4**5) run through them
    assert counts == {"tables": len(family), "slot tables": 3 ** 5, "compose": 0, "maps_equal": 0}, counts



# ---------------------------------------------------------------------------
# The probe points of the functoriality tables on hand-built spaces

_H1, _H2 = ("fan", "f1"), ("fan", "f2")
_A, _B = ("named", "A"), ("named", "B")


def _family_space(rule: FamilyRule) -> FduSpace:
    return FduSpace((_A,), (Cluster("L", (), ((_H1, rule),)),))


def _identity_into(src: FduSpace, dst: FduSpace) -> FduMap:
    return FduMap(src, dst, {_A: _A}, {_H1: ("identity", _H1)}, {"L": limit_point("L")})


def test_identity_rule_into_a_family_excluding_an_unnamed_copy_raises():
    # no map names copy 3; only the target's membership flips it out
    src, dst = _family_space(FamilyRule("true")), _family_space(FamilyRule("true", frozenset({3})))
    with pytest.raises(InvariantError, match="is not a point of the target space"):
        gamma._slot_tables({("s", "t"): _identity_into(src, dst)})
    assert gamma._slot_tables({("s", "t"): _identity_into(dst, src)})


def test_identity_rule_from_a_finite_family_into_an_infinite_one():
    # copies 0 and 1 are points of the source only through its membership's flips
    src, dst = _family_space(FamilyRule("false", frozenset({0, 1}))), _family_space(FamilyRule("true"))
    (row,) = gamma._slot_tables({("s", "t"): _identity_into(src, dst)}).values()
    assert row == (0, 1, 2, 3)  # A, L and copies 0 and 1


@pytest.mark.parametrize("src_base, dst_base", [("even", "odd"), ("odd", "even"), ("even", "even")])
def test_identity_rule_between_parities(src_base, dst_base):
    m = _identity_into(_family_space(FamilyRule(src_base)), _family_space(FamilyRule(dst_base)))
    if src_base == dst_base:
        (row,) = gamma._slot_tables({("s", "t"): m}).values()
        assert row == tuple(range(len(row))) and len(row) == 3  # A, L and one fresh copy
    else:
        with pytest.raises(InvariantError, match="is not a point of the target space"):
            gamma._slot_tables({("s", "t"): m})


_COPIES = range(6)


@st.composite
def _spaces(draw):
    isolated = [_A] + [_B] * draw(st.booleans())
    clusters = []
    for h in (_H1, _H2):
        base = draw(st.sampled_from(["true", "even", "odd", None]))
        if base is not None:
            flips = draw(st.frozensets(st.sampled_from(_COPIES), max_size=3))
            clusters.append(Cluster(("L", h), (), ((h, FamilyRule(base, flips)),)))
    return FduSpace(tuple(isolated), tuple(clusters))


def _members(space: FduSpace) -> list:
    return [member_point(h, k) for h in space.handles() for k in _COPIES if space.membership_rule(h)(k)]


def _space_points(space: FduSpace) -> list:
    return [*space.finite_points(), *(limit_point(c.limit) for c in space.clusters), *_members(space)]


@st.composite
def _maps(draw, src: FduSpace, dst: FduSpace) -> FduMap:
    """A map whose every image, explicit or by an identity rule, is a point of dst."""
    image = st.sampled_from(_space_points(dst))
    exceptions = {p: draw(image) for p in src.finite_points()}
    if _members(src):
        for p in draw(st.lists(st.sampled_from(_members(src)), max_size=3)):
            exceptions[p] = draw(image)
    handle_rules = {}
    for h in src.handles():
        target = draw(st.sampled_from([None, *dst.handles()]))
        gap = None if target is None else rule_and(src.membership_rule(h), dst.membership_rule(target).negate())
        if gap is None or gap.is_infinite():
            handle_rules[h] = ("const", draw(image))
            continue
        handle_rules[h] = ("identity", target)
        for k in gap.members():
            exceptions.setdefault(member_point(h, k), draw(image))
    limit_images = {c.limit: draw(image) for c in src.clusters}
    return FduMap(src, dst, exceptions, handle_rules, limit_images)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_chain_verdict_from_tables_matches_maps_equal(data):
    si, sj, sk = (data.draw(_spaces()) for _ in range(3))
    f_kj, f_ji = data.draw(_maps(sk, sj)), data.draw(_maps(sj, si))
    if data.draw(st.booleans()):
        f_ki = compose(f_ji, f_kj)  # equal, unless one image or family rule is redrawn
        if data.draw(st.booleans()):
            p = data.draw(st.sampled_from([*_space_points(sk), *sk.handles()]))
            q = data.draw(st.sampled_from(_space_points(si)))
            if p[0] == "limit":
                f_ki.limit_images[p[1]] = q
            elif p in sk.handles():
                f_ki.handle_rules[p] = ("const", q)
            else:
                f_ki.exceptions[p] = q
    else:
        f_ki = data.draw(_maps(sk, si))
    tables = gamma._slot_tables({("k", "j"): f_kj, ("j", "i"): f_ji, ("k", "i"): f_ki})
    verdict = tuple(map(tables[("j", "i")].__getitem__, tables[("k", "j")])) == tables[("k", "i")]
    assert verdict == maps_equal(f_ki, compose(f_ji, f_kj))

@pytest.mark.parametrize("n", [2, 3, 4])
def test_functoriality_fails_on_the_chains_through_a_corrupted_map(fixtures, n):
    family = _power_set(n)
    bottom, top = family[0], family[-1]
    css, maps = build_system(fixtures["combo"], family)
    m = maps[(top, bottom)]
    label = m.src.clusters[0].limit
    (other,) = set(m.dst.finite_points()) - {m.limit_images[label]}
    m.limit_images[label] = other
    failures = {(check, subject) for check, subject, ok, _ in verify_system(css, maps).entries if not ok}
    name = lambda X: str(sorted(map(str, X)))
    # each chain {} < X_j < top composes two untouched maps where m is the direct one; the
    # chains {} <= {} <= top and {} <= top <= top hold, as m stands on both of their sides
    chains = {("functoriality", f"{name(bottom)} <= {name(Xj)} <= {name(top)}") for Xj in family[1:-1]}
    assert len(chains) == 2 ** n - 2
    assert failures == {("continuity", f"{name(bottom)} <= {name(top)}")} | chains


def test_fdu_space_tables_are_not_fields(fixtures):
    h1, h2 = ("fan", "f1"), ("fan", "f2")
    A, B = ("named", "A"), ("named", "B")
    space = FduSpace(
        (A, member_point(h2, 4)),
        (
            Cluster("L", (B,), ((h1, FamilyRule("odd", frozenset({2}))), (h2, FamilyRule("even")))),
            Cluster("M", (), ((h2, FamilyRule("false", frozenset({1}))),)),
        ),
    )
    assert [f.name for f in dataclasses.fields(FduSpace)] == ["isolated", "clusters"]
    twin = FduSpace(space.isolated, space.clusters)
    assert space == twin and hash(space) == hash(twin)
    assert space != FduSpace(space.isolated, space.clusters[:1])
    assert repr(space) == f"FduSpace(isolated={space.isolated!r}, clusters={space.clusters!r})"
    assert space.finite_points() == (A, member_point(h2, 4), B)
    assert space.named_points() == [A, B]
    assert space.handles() == [h1, h2]
    assert space.membership_rule(h1) == FamilyRule("odd", frozenset({2}))
    assert space.membership_rule(h2) == FamilyRule("even", frozenset({1}))
    assert space.membership_rule(("fan", "zz")) == FamilyRule("false")
    assert space.cluster_of_handle(h2) is space.clusters[0]
    assert space.cluster_of_handle(("fan", "zz")) is None
    # what a caller gets back is its own
    space.handles().clear()
    space.named_points().clear()
    assert space.handles() == [h1, h2] and space.named_points() == [A, B]
    cs = delete(fixtures["combo"], {core("a"), core("b")})
    sp = gamma_space(cs)
    assert sp == gamma_space(cs) and hash(sp) == hash(gamma_space(cs))
    assert isinstance(sp.finite_points(), tuple)
