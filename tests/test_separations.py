"""Separations, tameness, filters, and tangle orientations."""

import ast
import functools
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omegagraph
from omegagraph import fixture_graphs, separations
from omegagraph.cli import _enumerate_seps
from omegagraph.components import InvariantError, delete
from omegagraph.ids import core, stripv
from omegagraph.pattern import to_raw, validate
from omegagraph.separations import (
    FamilyRule,
    NotFoundWithinHorizonError,
    NotTameError,
    PointsEqualError,
    RULE_FALSE,
    RULE_TRUE,
    Separation,
    SeparationSystem,
    SymbolicSubset,
    TangleVerdict,
    all_points,
    crit_point,
    distinguish,
    end_point,
    enumerate_tame_separations,
    orient_by_point,
    point_filter,
    rule_and,
    rule_or,
    rule_singletons,
)
from omegagraph.separations import SymbolicVertexSet, _first_violation
from conftest import FIXTURE_NAMES, random_pattern, vertex_pool
from symbolic_reference import (
    NotAStarError,
    big_set,
    check_members,
    contains_side_bits,
    interior,
    interior_of,
    is_finite,
    is_star,
    le,
    lt,
    materialize_finite,
    orientation_bits,
    reverse,
    scan_first_violation,
    small_set,
    subseteq,
    symbolic_check_tangle,
)


P = lambda t: stripv("s1", t, "p")


# ---------------------------------------------------------------------------
# FamilyRule algebra (exhaustive small-index oracle via hypothesis)

_rules = st.builds(
    FamilyRule,
    st.sampled_from(["true", "false", "even", "odd"]),
    st.frozensets(st.integers(0, 12), max_size=4),
)


@given(_rules, _rules)
@settings(max_examples=200, deadline=None)
def test_rule_and_or_match_pointwise(a, b):
    both = rule_and(a, b)
    either = rule_or(a, b)
    for k in range(30):
        assert both(k) == (a(k) and b(k))
        assert either(k) == (a(k) or b(k))


@given(_rules)
@settings(max_examples=100, deadline=None)
def test_rule_negate_involution(a):
    again = a.negate().negate()
    for k in range(30):
        assert again(k) == a(k)


def test_rule_finiteness_queries():
    assert rule_singletons([3, 5]).is_finite()
    assert RULE_TRUE.is_cofinite() and not RULE_TRUE.is_finite()
    assert FamilyRule("even").is_infinite() and not FamilyRule("even").is_cofinite()


# ---------------------------------------------------------------------------
# Symbolic subsets

@pytest.fixture
def comb_cs(fixtures):
    return delete(fixtures["comb"], {P(0)})


def _meet(a: SymbolicSubset, b: SymbolicSubset) -> SymbolicSubset:
    """The components in both subsets of one deletion."""
    return SymbolicSubset(a.cs, a.explicit_in & b.explicit_in, {h: rule_and(r, b.rules[h]) for h, r in a.rules.items()})


def test_subset_complement_involution(comb_cs):
    side = SymbolicSubset.family_side(comb_cs, {P(0)})
    assert side.complement().complement() == side


def test_subset_rules_are_read_only(comb_cs):
    # a rule changed after construction would leave the key, and so ==,
    # describing a subset it no longer is
    a, b = (SymbolicSubset.family_side(comb_cs, {P(0)}) for _ in range(2))
    with pytest.raises(TypeError):
        a.rules[("pfan", "s1", 0)] = RULE_FALSE
    assert a.key() == b.key() and a.rules == b.rules and not a.is_empty()


def test_subset_rejects_a_rule_on_no_family(fixtures, comb_cs):
    # an unknown core fan, and the periodic fan at period 5, which lies in
    # the tail component once strip:s1/0/p is deleted
    combo = delete(fixtures["combo"], [])
    for cs, h in ((combo, ("fan", "nope")), (comb_cs, ("pfan", "s1", 5))):
        with pytest.raises(InvariantError, match=re.escape(str(h))):
            SymbolicSubset(cs, rules={h: RULE_TRUE})


def test_subset_rule_intersection(comb_cs):
    h = ("pfan", "s1", 0)
    a = SymbolicSubset(comb_cs, rules={h: FamilyRule("true", frozenset({0}))})
    b = SymbolicSubset(comb_cs, rules={h: FamilyRule("true", frozenset({1}))})
    assert _meet(a, b).rules[h] == FamilyRule("true", frozenset({0, 1}))


def test_subset_parity_intersection_empty(comb_cs):
    h = ("pfan", "s1", 0)
    even = SymbolicSubset(comb_cs, rules={h: FamilyRule("even")})
    odd = SymbolicSubset(comb_cs, rules={h: FamilyRule("odd")})
    meet = _meet(even, odd)
    assert meet.is_empty()


def test_sides_live_over_one_graph(fixtures):
    comb, combo = delete(fixtures["comb"], []), delete(fixtures["combo"], [])
    with pytest.raises(InvariantError):
        Separation(comb, SymbolicSubset.empty(combo).complement())
    assert SymbolicSubset.empty(comb) != SymbolicSubset.empty(combo)
    # an equal graph built again is the same base
    again = delete(validate(to_raw(fixtures["comb"])), [])
    assert SymbolicSubset.empty(again) == SymbolicSubset.empty(comb)
    assert big_set(Separation(comb, SymbolicSubset.empty(again).complement()).orient(True)).is_all


def test_tame_subset_ops_stay_cofinite_or_finite(comb_cs):
    # all-but-finitely-many rule algebra never produces a parity split
    h = ("pfan", "s1", 0)
    rules = [FamilyRule("true", frozenset({k})) for k in range(3)]
    for a, b in itertools.permutations(rules, 2):
        for rule in (rule_and(a, b), rule_or(a, b), a.negate()):
            assert Separation(comb_cs, SymbolicSubset(comb_cs, rules={h: rule})).is_tame()
            assert rule.base in ("true", "false")


# ---------------------------------------------------------------------------
# le and stars

def test_le_reflexive_and_flip(comb_cs):
    for sep in enumerate_tame_separations(comb_cs):
        for o in (sep.orient(True), sep.orient(False)):
            assert le(o, o)
            assert le(o, o) == le(reverse(reverse(o)), o)


def test_le_ray_nested_cuts(fixtures):
    g = fixtures["ray"]
    cs1, cs2 = delete(g, {P(0)}), delete(g, {P(0), P(1)})
    o1 = Separation(cs1, SymbolicSubset(cs1, explicit_in={cs1.tail_descriptor("s1").key()})).orient(True)
    o2 = Separation(cs2, SymbolicSubset(cs2, explicit_in={cs2.tail_descriptor("s1").key()})).orient(True)
    assert le(o1, o2) and not le(o2, o1)
    # order reversal under flipping
    assert le(reverse(o2), reverse(o1)) and not le(reverse(o1), reverse(o2))


def test_le_incomparable_leaf_splits(fixtures):
    g = fixtures["comb"]
    csa, csb = delete(g, {P(0)}), delete(g, {P(1)})
    oa = Separation(csa, SymbolicSubset.family_side(csa, {P(0)})).orient(False)
    ob = Separation(csb, SymbolicSubset.family_side(csb, {P(1)})).orient(False)
    assert not le(oa, ob) and not le(ob, oa)


def test_le_transitive_on_samples(fixtures):
    g = fixtures["comb"]
    oriented = []
    for X in (frozenset(), {P(0)}, {P(0), P(1)}):
        cs = delete(g, X)
        for sep in enumerate_tame_separations(cs):
            oriented += [sep.orient(True), sep.orient(False)]
    rng = random.Random(4)
    sample = rng.sample(oriented, 18)
    for a in sample:
        for b in sample:
            for c in sample:
                if le(a, b) and le(b, c):
                    assert le(a, c)


def test_singleton_is_star(comb_cs):
    side = SymbolicSubset.family_side(comb_cs, {P(0)})
    assert is_star([Separation(comb_cs, side).orient(True)])


def test_component_star_has_interior_x(fixtures):
    # one separation pointing away from each component family: a star
    # whose interior is exactly X
    g = fixtures["comb"]
    cs = delete(g, {P(0)})
    members = [
        Separation(cs, SymbolicSubset(cs, explicit_in={d.key()})).orient(False)
        for d in cs.cx_minus()
    ] + [
        Separation(cs, SymbolicSubset(
            cs, {d.key() for d in cs.family(Y).explicit}, SymbolicSubset.family_side(cs, Y).rules
        )).orient(False)
        for Y in sorted(cs.crit(), key=lambda Y: sorted(map(str, Y)))
    ]
    assert is_star(members)
    inner = interior(members)
    assert is_finite(inner)
    assert materialize_finite(inner) == cs.X


def test_two_separations_pointing_away_not_star(fixtures):
    g = fixtures["ray"]
    cs1, cs2 = delete(g, {P(0)}), delete(g, {P(0), P(1)})
    o1 = Separation(cs1, SymbolicSubset(cs1, explicit_in={cs1.tail_descriptor("s1").key()})).orient(False)
    o2 = Separation(cs2, SymbolicSubset(cs2, explicit_in={cs2.tail_descriptor("s1").key()})).orient(True)
    assert not is_star([o1, o2])
    with pytest.raises(NotAStarError):
        interior([o1, o2])


def test_interior_single_infinite_side(comb_cs):
    o = Separation(comb_cs, SymbolicSubset.family_side(comb_cs, {P(0)})).orient(True)
    assert not is_finite(interior([o]))


def test_interior_empty_star_is_everything(fixtures):
    assert not is_finite(interior_of(fixtures["comb"], []))
    with pytest.raises(NotAStarError):
        interior([])


# ---------------------------------------------------------------------------
# Consistency

def test_empty_orientation_consistent(fixtures):
    assert _first_violation(*SeparationSystem(fixtures["ray"], []).sides(())) is None


def test_constructed_inconsistency_on_ray(fixtures):
    g = fixtures["ray"]
    cs1, cs2 = delete(g, {P(0)}), delete(g, {P(0), P(1)})
    tail1 = SymbolicSubset(cs1, explicit_in={cs1.tail_descriptor("s1").key()})
    tail2 = SymbolicSubset(cs2, explicit_in={cs2.tail_descriptor("s1").key()})
    away = Separation(cs1, tail1).orient(False)
    toward = Separation(cs2, tail2).orient(True)
    verdict = check_members([away, toward], g)
    assert not verdict.ok and set(verdict.violation) == {away, toward}


# ---------------------------------------------------------------------------
# Tameness

def test_finite_sides_are_tame(comb_cs):
    for d in comb_cs.explicit_descriptors:
        assert Separation(comb_cs, SymbolicSubset(comb_cs, explicit_in={d.key()})).is_tame()
    assert Separation(comb_cs, SymbolicSubset(comb_cs, rules={("pfan", "s1", 0): rule_singletons([0, 4])})).is_tame()


def test_parity_side_not_tame(comb_cs):
    sep = Separation(comb_cs, SymbolicSubset(comb_cs, rules={("pfan", "s1", 0): FamilyRule("even")}))
    assert not sep.is_tame()


def test_cofinite_family_side_tame(fixtures):
    cs = delete(fixtures["thetafan"], {core("a"), core("b")})
    side = SymbolicSubset(cs, rules={("fan", "f1"): FamilyRule("true", frozenset({0, 1}))})
    assert Separation(cs, side).is_tame()


# ---------------------------------------------------------------------------
# Filters and induced orientations

def test_filter_types_on_comb(fixtures):
    g = fixtures["comb"]
    cs = delete(g, {P(0)})
    mode, payload = point_filter(cs, end_point("s1"))
    assert mode == "principal" and payload is cs.tail_descriptor("s1")
    cs3 = delete(g, {P(0), P(1), P(2)})
    mode, payload = point_filter(cs3, crit_point(g, {P(2)}))
    assert (mode, payload) == ("cofinite", frozenset({P(2)}))
    mode, payload = point_filter(cs, crit_point(g, {P(2)}))
    assert mode == "principal" and payload is cs.tail_descriptor("s1")


def test_filter_dichotomy_total_and_exclusive(fixtures):
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        pts = all_points(g, 2)
        for X in (frozenset(), frozenset(list(delete(g, set()).X))):
            cs = delete(g, X)
            for xi in pts:
                mode, payload = point_filter(cs, xi)
                assert mode in ("principal", "cofinite")
                if mode == "cofinite":
                    assert xi.kind == "crit" and xi.Y <= cs.X
                else:
                    assert payload.kind != "family"


def test_induced_orientation_comb_leaf_sep(fixtures):
    g = fixtures["comb"]
    cs = delete(g, {P(0)})
    sep = Separation(cs, SymbolicSubset.family_side(cs, {P(0)}))
    o_end = orient_by_point(end_point("s1"), sep)
    o_crit = orient_by_point(crit_point(g, {P(0)}), sep)
    assert not o_end.toward_side  # the end lives in the tail
    assert o_crit.toward_side  # the critical set eats its leaf family
    empty_sep = Separation(cs, SymbolicSubset.empty(cs))
    for xi in (end_point("s1"), crit_point(g, {P(0)})):
        assert not orient_by_point(xi, empty_sep).toward_side


def test_induced_orientation_requires_tame(comb_cs):
    sep = Separation(comb_cs, SymbolicSubset(comb_cs, rules={("pfan", "s1", 0): FamilyRule("odd")}))
    with pytest.raises(NotTameError):
        orient_by_point(end_point("s1"), sep)


def test_lemma_5_3_closure_under_intersection(fixtures):
    # if a point takes both sides C and D, it takes C intersect D
    g = fixtures["comb"]
    cs = delete(g, {P(0), P(1)})
    h0, h1 = ("pfan", "s1", 0), ("pfan", "s1", 1)
    for xi in (end_point("s1"), crit_point(g, {P(0)}), crit_point(g, {P(1)})):
        taken = []
        for side in (
            SymbolicSubset.empty(cs).complement(),
            SymbolicSubset.family_side(cs, {P(0)}).complement(),
            SymbolicSubset.family_side(cs, {P(1)}).complement(),
            SymbolicSubset(cs, rules={h0: FamilyRule("true", frozenset({2}))}).complement().complement(),
        ):
            o = orient_by_point(xi, Separation(cs, side))
            taken.append(o.big_subset())
        for a, b in itertools.combinations(taken, 2):
            meet = _meet(a, b)
            o = orient_by_point(xi, Separation(cs, meet))
            assert o.big_subset() == meet


# ---------------------------------------------------------------------------
# Tangle checks

def test_points_induce_tangles_within_horizon(fixtures):
    from omegagraph.cli import _enumerate_seps

    for name in FIXTURE_NAMES:
        g = fixtures[name]
        system = SeparationSystem(g, _enumerate_seps(g, 2, 2))
        for xi in all_points(g, 3):
            verdict = system.check(system.orient(xi))
            assert verdict.ok, (name, str(xi))


def test_larger_bases_still_tangle_on_comb(fixtures):
    # one deeper sample: base sets of size 3
    g = fixtures["comb"]
    cs = delete(g, {P(0), P(1), P(2)})
    system = SeparationSystem(g, enumerate_tame_separations(cs))
    for xi in (end_point("s1"), crit_point(g, {P(1)})):
        assert system.check(system.orient(xi)).ok


def test_forbidden_star_on_ray(fixtures):
    g = fixtures["ray"]
    cs = delete(g, {P(2)})
    both = [Separation(cs, SymbolicSubset(cs, explicit_in={d.key()})).orient(False) for d in cs.explicit_descriptors]
    verdict = check_members(both, g)
    assert not verdict.ok and verdict.star
    assert is_finite(interior(list(verdict.star)))


def test_consistency_violation_verdict(fixtures):
    g = fixtures["ray"]
    cs1, cs2 = delete(g, {P(0)}), delete(g, {P(0), P(1)})
    away = Separation(cs1, SymbolicSubset(cs1, explicit_in={cs1.tail_descriptor("s1").key()})).orient(False)
    toward = Separation(cs2, SymbolicSubset(cs2, explicit_in={cs2.tail_descriptor("s1").key()})).orient(True)
    verdict = check_members([away, toward], g)
    assert not verdict.ok and verdict.violation is not None


def test_check_tangle_rejects_untame(comb_cs):
    # one untame member among tame ones is enough
    sep = Separation(comb_cs, SymbolicSubset(comb_cs, rules={("pfan", "s1", 0): FamilyRule("even")}))
    members = [s.orient(True) for s in enumerate_tame_separations(comb_cs) + [sep]]
    with pytest.raises(NotTameError):
        check_members(members, comb_cs.g)


def test_check_tangle_of_the_empty_orientation(fixtures):
    # the empty orientation has no star but the empty one, whose interior
    # is the whole graph
    assert SeparationSystem(fixtures["comb"], []).check(()) == TangleVerdict(True)
    finite = validate({"core": {"vertices": ["a", "b"], "edges": [["a", "b"]]}})
    assert SeparationSystem(finite, []).check(()) == TangleVerdict(False, star=())


def test_separation_system_matches_check_tangle(fixtures):
    # one system per list orients each separation as the point does alone,
    # and gives the verdicts and witnesses of the symbolic check on each
    # orientation's members: induced ones, and ones with some members
    # reversed, which are mostly not tangles
    verdicts = set()
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        seps = _enumerate_seps(g, 1, 2)
        system = SeparationSystem(g, seps)
        for n, xi in enumerate(all_points(g, 2)):
            toward = system.orient(xi)
            assert toward == tuple(orient_by_point(xi, sep).toward_side for sep in seps)
            flipped = tuple(t != (i % (n + 3) == 0) for i, t in enumerate(toward))
            for bits in (toward, flipped):
                verdict = system.check(bits)
                assert verdict == symbolic_check_tangle([sep.orient(t) for sep, t in zip(seps, bits)], g)
                verdicts.add((verdict.ok, verdict.violation is not None, verdict.star is not None))
    assert verdicts == {(True, False, False), (False, True, False)}


def test_separation_system_rejects_untame_orientations(comb_cs):
    sep = Separation(comb_cs, SymbolicSubset(comb_cs, rules={("pfan", "s1", 0): FamilyRule("even")}))
    system = SeparationSystem(comb_cs.g, [sep])
    with pytest.raises(NotTameError):
        system.check((True,))
    with pytest.raises(NotTameError):
        system.orient(end_point("s1"))


# ---------------------------------------------------------------------------
# Corner perturbations

def test_perturbation_preserves_induced_orientation(fixtures):
    g = fixtures["comb"]
    cs = delete(g, {P(0)})
    h = ("pfan", "s1", 0)
    sep = Separation(cs, SymbolicSubset.family_side(cs, {P(0)}))
    for xi in (end_point("s1"), crit_point(g, {P(0)}), crit_point(g, {P(3)})):
        base = orient_by_point(xi, sep)
        for toggles in ([(h, 0)], [(h, 0), (h, 1)]):
            side = functools.reduce(lambda side, hk: side.with_member_toggled(*hk), toggles, sep.side)
            after = orient_by_point(xi, Separation(cs, side))
            mode, payload = point_filter(cs, xi)
            if mode == "principal":
                key = payload.key()
                assert (key in base.big_subset().explicit_in) == (key in after.big_subset().explicit_in)
            else:
                assert base.big_subset().is_cofinite_on(payload)
                assert after.big_subset().is_cofinite_on(payload)


# ---------------------------------------------------------------------------
# distinguish

def test_distinguish_crit_pair_on_comb(fixtures):
    g = fixtures["comb"]
    sep = distinguish(g, crit_point(g, {P(0)}), crit_point(g, {P(1)}))
    assert sep.cs.X == {P(0), P(1)}
    assert sep.side.rules[("pfan", "s1", 0)] == RULE_TRUE


def test_distinguish_end_vs_crit_on_comb(fixtures):
    g = fixtures["comb"]
    sep = distinguish(g, end_point("s1"), crit_point(g, {P(0)}))
    assert sep.cs.X == {P(0)}
    assert sep.side.rules[("pfan", "s1", 0)] == RULE_TRUE


def test_distinguish_equal_points_rejected(fixtures):
    g = fixtures["comb"]
    with pytest.raises(PointsEqualError):
        distinguish(g, end_point("s1"), end_point("s1"))


def test_distinguish_reports_horizon_when_capped(fixtures, monkeypatch):
    g = fixtures["comb"]
    # filters that never differ exhaust every candidate deletion; two
    # critical points name no strip, so the horizon is -1 + 3
    monkeypatch.setattr(separations, "point_filter", lambda cs, xi: ("cofinite", frozenset()))
    with pytest.raises(NotFoundWithinHorizonError) as exc:
        distinguish(g, crit_point(g, {P(0)}), crit_point(g, {P(1)}))
    assert exc.value.horizon == 2


def test_distinguish_all_pairs_all_fixtures(fixtures):
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        pts = all_points(g, 3)
        for a, b in itertools.combinations(pts, 2):
            sep = distinguish(g, a, b)
            oa, ob = orient_by_point(a, sep), orient_by_point(b, sep)
            assert oa.toward_side != ob.toward_side, (name, str(a), str(b))


def _two_ended(raw_extra=None):
    from omegagraph.pattern import validate

    raw = {
        "core": {"vertices": ["c", "d"], "edges": [["c", "d"]]},
        "strips": [
            {
                "id": sid,
                "period": {"vertices": [loc], "edges": []},
                "step_edges": [[loc, loc]],
                "attachments": [{"core": "c", "period": 0, "local": loc}],
                "dominated_vertex": loc,
            }
            for sid, loc in (("s1", "p"), ("s2", "q"))
        ],
        "fans": [],
        "dominations": [{"core": "d", "strip": "s1"}, {"core": "d", "strip": "s2"}],
    }
    if raw_extra:
        raw.update(raw_extra)
    return validate(raw)


def test_distinguish_two_ends_through_shared_dominator():
    # both strips hang off c and are dominated by d: prefixes alone never
    # separate the ends, the dominator must enter the base set
    g = _two_ended()
    sep = distinguish(g, end_point("s1"), end_point("s2"))
    assert core("d") in sep.cs.X
    o1 = orient_by_point(end_point("s1"), sep)
    o2 = orient_by_point(end_point("s2"), sep)
    assert o1.toward_side != o2.toward_side


def test_separation_sides_partition_on_truncations(fixtures):
    # A u B = V, A n B = X, and no edge crosses between the strict sides
    from omegagraph.pattern import truncate

    g = fixtures["comb"]
    cs = delete(g, {P(0), P(1)})
    fg = truncate(g, cs.stabilization_bound + 2, cs.stabilization_bound + 2)
    for sep in enumerate_tame_separations(cs)[:10]:
        o = sep.orient(True)
        A, B = small_set(o), big_set(o)
        for v in fg.vertices:
            in_a, in_b = A.contains(v), B.contains(v)
            assert in_a or in_b
            assert (in_a and in_b) == (v in cs.X)
        for e in fg.edges:
            u, v = tuple(e)
            strict_a = {w for w in (u, v) if A.contains(w) and not B.contains(w)}
            strict_b = {w for w in (u, v) if B.contains(w) and not A.contains(w)}
            assert not (strict_a and strict_b), (sorted(map(str, e)))


def test_empty_attachment_fan_makes_empty_set_critical():
    from omegagraph.pattern import validate
    from omegagraph.components import is_critical

    g = validate(
        {
            "core": {"vertices": [], "edges": []},
            "strips": [],
            "fans": [
                {"id": "f1", "template": {"vertices": ["u", "w"], "edges": [["u", "w"]]},
                 "attach": [], "attach_edges": []}
            ],
            "dominations": [],
        }
    )
    assert is_critical(g, frozenset())
    cs = delete(g, set())
    assert cs.crit() == {frozenset()}
    (d,) = cs.descriptors
    assert d.kind == "family" and d.neighborhood == frozenset()
    system = SeparationSystem(g, enumerate_tame_separations(cs))
    assert system.check(system.orient(crit_point(g, frozenset()))).ok


def test_two_fans_sharing_a_neighborhood(fixtures):
    from omegagraph.pattern import validate

    raw = {
        "core": {"vertices": ["a", "b"], "edges": []},
        "strips": [],
        "fans": [
            {"id": f, "template": {"vertices": [u], "edges": []}, "attach": ["a", "b"],
             "attach_edges": [[u, "a"], [u, "b"]]}
            for f, u in (("f1", "u"), ("f2", "w"))
        ],
        "dominations": [],
    }
    g = validate(raw)
    cs = delete(g, {core("a"), core("b")})
    Y = frozenset({core("a"), core("b")})
    assert cs.crit() == {Y}
    assert len(cs.family(Y).families) == 2
    # the collection with neighborhood Y spans both fans: a cofinite side
    # is tame, but keeping one whole fan and dropping the other splits
    # the collection infinite/infinite
    side = SymbolicSubset.family_side(cs, Y).with_member_toggled(("fan", "f2"), 0)
    sep = Separation(cs, side)
    assert sep.is_tame()
    o = orient_by_point(crit_point(g, Y), sep)
    assert o.toward_side
    half = SymbolicSubset(cs, rules={("fan", "f1"): RULE_TRUE})
    assert not Separation(cs, half).is_tame()
    system = SeparationSystem(g, enumerate_tame_separations(cs))
    assert system.check(system.orient(crit_point(g, Y))).ok


def _state(sep):
    """A separation's attributes, with the contents of any dict among them."""
    return {name: dict(value) if isinstance(value, dict) else value for name, value in vars(sep).items()}


def test_tangle_checks_leave_separations_unchanged(fixtures):
    g = fixtures["combo"]
    seps = _enumerate_seps(g, 2, 3)
    before = [_state(sep) for sep in seps]
    system = SeparationSystem(g, seps)
    toward = system.orient(end_point("s1"))
    assert system.check(toward).ok and _first_violation(*system.sides(toward)) is None
    for sep, t in zip(seps, toward):
        big_set(sep.orient(t))
        small_set(sep.orient(t))
    assert [_state(sep) for sep in seps] == before


def test_changing_a_returned_side_set_changes_no_verdict(fixtures):
    # big_set builds a fresh set for its caller: clearing it touches no
    # separation, so a later system over the same list sees the same sides
    g = fixtures["combo"]
    seps = _enumerate_seps(g, 2, 3)
    system = SeparationSystem(g, seps)
    toward = system.orient(end_point("s1"))
    verdict = system.check(toward)
    assert verdict.ok
    for sep, t in zip(seps, toward):
        svs = big_set(sep.orient(t))
        svs.tails.clear()
        svs.copies.clear()
    again = SeparationSystem(g, seps)
    assert again.check(again.orient(end_point("s1"))) == verdict


def test_enumerator_raises_on_an_untame_side(comb_cs, monkeypatch):
    # every enumerated side is tame by construction: an untame one is a
    # bug to report, not a side to drop
    def parity_side(cs, Y):
        return SymbolicSubset(cs, rules={d.handle(): FamilyRule("even") for d in cs.family(Y).families})

    monkeypatch.setattr(SymbolicSubset, "family_side", staticmethod(parity_side))
    with pytest.raises(InvariantError, match="untame"):
        enumerate_tame_separations(comb_cs)


_UNDER_O = """
import sys
from omegagraph.components import InvariantError, delete
from omegagraph.fixture_graphs import comb
from omegagraph.ids import stripv
from omegagraph.separations import FamilyRule, SymbolicSubset, enumerate_tame_separations

cs = delete(comb(), {stripv("s1", 0, "p")})
SymbolicSubset.family_side = staticmethod(
    lambda cs, Y: SymbolicSubset(cs, rules={d.handle(): FamilyRule("even") for d in cs.family(Y).families})
)
for name, call in (
    ("untame side", lambda: enumerate_tame_separations(cs)),
    ("unknown component", lambda: SymbolicSubset(cs, explicit_in={"no such key"})),
):
    try:
        call()
    except InvariantError:
        print(name, "raised")
print("optimize", sys.flags.optimize)
"""


def test_invariants_hold_under_python_O():
    # invariants raise explicitly, so stripping asserts does not drop them
    src = os.path.dirname(os.path.dirname(omegagraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["untame side raised", "unknown component raised", "optimize 1"]


# ---------------------------------------------------------------------------
# Sides as bitsets (the system's consistency scan and check) against the symbolic le

def symbolic_is_consistent(ms):
    """The symbolic pair scan that the consistency scan on ints replaced, kept as its reference."""
    for p, q in itertools.permutations(ms, 2):
        if lt(reverse(p), q):
            return False, (p, q)
    return True, None


def _declared_in_reverse(g):
    """The same graph with its strips and fans declared in reverse order."""
    raw = to_raw(g)
    raw["strips"].reverse()
    raw["fans"].reverse()
    return validate(raw)


@functools.lru_cache(maxsize=None)
def _graph_and_seps(case):
    """A fixture or random pattern with the CLI's auto separations over it."""
    if case in FIXTURE_NAMES:
        g = fixture_graphs.all_fixtures()[case]
        return g, _enumerate_seps(g, 2, 2)
    if case.startswith("reversed"):
        g = _declared_in_reverse(random_pattern(int(case.removeprefix("reversed"))))
    else:
        g = random_pattern(int(case.removeprefix("random")))
    return g, _enumerate_seps(g, 1, 2)


def _parity_seps(g):
    """Untame separations splitting each fan family by parity (comb and combo)."""
    seps = []
    for X in ((), (P(0),), (P(1), P(2))):
        cs = delete(g, X)
        for d in cs.family_descriptors:
            for rule in (FamilyRule("even"), FamilyRule("odd", frozenset({1})), FamilyRule("even", frozenset({0, 3}))):
                seps.append(Separation(cs, SymbolicSubset(cs, rules={d.handle(): rule})))
    return seps


_CASES = [*FIXTURE_NAMES, *(f"random{seed}" for seed in range(30))]


@pytest.mark.parametrize("case", _CASES)
def test_side_bits_match_contains_on_the_box(case):
    # built from the component descriptors, bit for bit as one contains call per box vertex
    g, seps = _graph_and_seps(case)
    if case in ("comb", "combo"):
        seps = seps + _parity_seps(g)
    system = SeparationSystem(g, seps)
    sides = [big_set(sep.orient(of_side)) for sep in seps for of_side in (False, True)]
    assert [bits for pair in system.ints for bits in pair] == contains_side_bits(system.box, sides)


@pytest.mark.parametrize("case", _CASES)
def test_side_bits_match_subseteq(case):
    g, seps = _graph_and_seps(case)
    if case in ("comb", "combo"):
        seps = seps + _parity_seps(g)
    rng = random.Random(case)
    ms = [sep.orient(rng.random() < 0.5) for sep in seps]
    _, smalls, bigs = orientation_bits(ms, g)
    bits = smalls + bigs
    sides = [small_set(m) for m in ms] + [big_set(m) for m in ms]
    disagreements = [
        (a, b)
        for a, b in itertools.product(range(len(sides)), repeat=2)
        if (not bits[a] & ~bits[b]) != subseteq(sides[a], sides[b])
    ]
    assert disagreements == []


def test_side_bits_see_past_the_last_named_period(fixtures):
    # only vertices beyond every named period tell the side holding the
    # tail from period 1 apart from the side holding periods 0 to 2
    g = fixtures["ray"]
    cs1, cs2 = delete(g, {P(0)}), delete(g, {P(0), P(2)})
    tail = Separation(cs1, SymbolicSubset(cs1, explicit_in={cs1.tail_descriptor("s1").key()}))
    first = Separation(cs2, SymbolicSubset(cs2, explicit_in={cs2.locate(P(1)).key()}))
    (_, tail_bits), (_, first_bits) = SeparationSystem(g, [tail, first]).ints
    tail_set, first_set = big_set(tail.orient(True)), big_set(first.orient(True))
    assert tail_bits & ~first_bits and not subseteq(tail_set, first_set)
    assert not first_bits & ~tail_bits and subseteq(first_set, tail_set)


def test_box_takes_copies_up_to_the_last_named_one(fixtures):
    # K is one past the largest copy that an X excludes or a rule flips,
    # however deep the periods go (T = 4 here)
    g = fixtures["combo"]
    seps = _enumerate_seps(g, 3, 3)
    box = SeparationSystem(g, seps).box
    named = {k for sep in seps for e in sep.cs.excl.values() for k in e}
    named |= {k for sep in seps for subset in (sep.side, sep.co_side) for r in subset.rules.values() for k in r.flips}
    assert (box.T, box.K, max(named)) == (4, 2, 1)
    assert len(box.bit) == 32


@pytest.mark.parametrize("case", _CASES)
def test_is_consistent_matches_symbolic_scan(case):
    g, seps = _graph_and_seps(case)
    system = SeparationSystem(g, seps)
    points = all_points(g, 1)
    rng = random.Random(case)
    for trial in range(4):
        if points:
            toward = system.orient(rng.choice(points))
        else:
            toward = [rng.random() < 0.5 for _ in seps]
        # the first trial keeps the induced orientation; the others reverse
        # some members, which usually makes it inconsistent
        toward = [t != bool(trial and rng.random() < 0.1) for t in toward]
        ms = [sep.orient(t) for sep, t in zip(seps, toward)]
        pair = _first_violation(*system.sides(toward))
        assert (pair is None, pair and (ms[pair[0]], ms[pair[1]])) == symbolic_is_consistent(ms)


def _brute_force_tangle(ms, g) -> bool:
    """Consistent, and no star of members (the empty one too) has a finite interior."""
    if not symbolic_is_consistent(ms)[0]:
        return False
    return not any(
        is_star(sigma) and is_finite(interior_of(g, sigma))
        for r in range(len(ms) + 1)
        for sigma in itertools.combinations(ms, r)
    )


def _some(data, items, max_size=6):
    return data.draw(st.lists(st.sampled_from(items), unique_by=id, max_size=max_size)) if items else []


# Graphs whose strips or fans are declared out of id order: the star search
# takes the box's features in declaration order.
_REVERSED = ["reversed1", "reversed6", "reversed9", "reversed17"]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_check_tangle_matches_star_enumeration(data):
    case = data.draw(st.sampled_from(_CASES + _REVERSED))
    g, seps = _graph_and_seps(case)
    points = all_points(g, 1)
    if points and data.draw(st.booleans()):
        xi = data.draw(st.sampled_from(points))
        ms = [orient_by_point(xi, sep) for sep in _some(data, seps)]
    else:
        # members over one deletion pointing away from their sides, which
        # are mostly a few components: stars of several members
        pool = vertex_pool(g, 2, 2)
        X = data.draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else []
        ms = [sep.orient(False) for sep in _some(data, enumerate_tame_separations(delete(g, X)))]
    ms = [reverse(m) if data.draw(st.integers(0, 5)) == 0 else m for m in ms]
    verdict = check_members(ms, g)
    assert verdict.ok == _brute_force_tangle(ms, g)
    if verdict.violation is not None:
        assert verdict.violation == symbolic_is_consistent(ms)[1]
    if verdict.star is not None:
        assert is_star(verdict.star) and is_finite(interior_of(g, verdict.star))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_int_star_search_matches_symbolic_search(data):
    case = data.draw(st.sampled_from(_CASES + _REVERSED))
    g, seps = _graph_and_seps(case)
    pool = vertex_pool(g, 2, 2)
    ms = []
    # members pointing away from their sides over one or two deletions make
    # stars; an induced orientation adds members every star must avoid
    for _ in range(data.draw(st.integers(1, 2))):
        X = data.draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else []
        ms += [sep.orient(False) for sep in _some(data, enumerate_tame_separations(delete(g, X)), 10)]
    points = all_points(g, 1)
    if points and data.draw(st.booleans()):
        xi = data.draw(st.sampled_from(points))
        ms += [orient_by_point(xi, sep) for sep in _some(data, seps, 10)]
    ms = [reverse(m) if data.draw(st.integers(0, 9)) == 0 else m for m in ms]
    verdict, reference = check_members(ms, g), symbolic_check_tangle(ms, g)
    assert (verdict.ok, verdict.violation) == (reference.ok, reference.violation)
    # the two searches branch on different features, so they may name
    # different stars of finite interior
    assert (verdict.star is None) == (reference.star is None)
    if verdict.star is not None:
        assert is_star(verdict.star) and is_finite(interior_of(g, verdict.star))


def _sides_over(universe, data):
    """Small and big sides X u A and X u (V - A) of one separation over a few vertices."""
    X = data.draw(st.integers(0, universe))
    A = data.draw(st.integers(0, universe))
    return X | A, X | (universe & ~A)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_first_violation_matches_pair_scan(data):
    universe = (1 << data.draw(st.integers(1, 8))) - 1
    pairs = [_sides_over(universe, data) for _ in range(data.draw(st.integers(0, 12)))]
    smalls, bigs = [s for s, _ in pairs], [b for _, b in pairs]
    assert _first_violation(smalls, bigs) == scan_first_violation(smalls, bigs)


def test_check_tangle_calls_no_contains(fixtures, monkeypatch):
    # the sides' ints come from their descriptions, not from membership tests
    g = fixtures["combo"]
    seps = _enumerate_seps(g, 3, 3)
    calls = 0
    contains = SymbolicVertexSet.contains

    def counting_contains(self, v):
        nonlocal calls
        calls += 1
        return contains(self, v)

    monkeypatch.setattr(SymbolicVertexSet, "contains", counting_contains)
    system = SeparationSystem(g, seps)
    assert system.check(system.orient(end_point("s1"))).ok
    assert calls == 0


def test_tameness_is_decided_once_per_separation(fixtures, monkeypatch):
    calls = 0
    has_infinite_part_on = SymbolicSubset.has_infinite_part_on

    def counting(self, Y):
        nonlocal calls
        calls += 1
        return has_infinite_part_on(self, Y)

    monkeypatch.setattr(SymbolicSubset, "has_infinite_part_on", counting)
    g = fixtures["combo"]
    seps = _enumerate_seps(g, 2, 3)
    enumerated = calls
    assert enumerated > 0
    system = SeparationSystem(g, seps)
    assert system.check(system.orient(end_point("s1"))).ok
    assert calls == enumerated


def test_star_search_takes_the_graphs_features_in_declaration_order():
    # the two tails tie at the root, where the symbolic search took the
    # graph's strips as declared: s2 first
    g = _declared_in_reverse(_two_ended())
    cs = delete(g, {core("c"), core("d")})
    away = {
        d.tails[0].strip: Separation(cs, SymbolicSubset(cs, explicit_in={d.key()})).orient(False)
        for d in cs.explicit_descriptors
    }
    ms = [away["s1"], away["s2"]]
    verdict = check_members(ms, g)
    assert verdict == symbolic_check_tangle(ms, g)
    assert verdict.star == (away["s2"], away["s1"])


def test_enumeration_builds_each_kept_separation_once(fixtures, monkeypatch):
    # a side whose key is that of a side built before, or of its
    # complement, is skipped before a Separation is built for it
    built = 0
    init = Separation.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(Separation, "__init__", counting)
    seps = _enumerate_seps(fixtures["combo"], 3, 3)
    assert built == len(seps) == 461


def test_enumerated_separations_are_distinct_across_bases(fixtures):
    # each base X gets its own list, and distinct bases give distinct
    # separations, so the CLI's list needs no deduplication across them
    for name in FIXTURE_NAMES:
        seps = _enumerate_seps(fixtures[name], 2, 3)
        assert len({sep.underlying_key() for sep in seps}) == len(seps), name


def _defined_names(statement) -> set:
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    return {statement.name} if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else set()


def _read_names(tree) -> set:
    """Identifiers a tree reads, and the words of its strings other than docstrings."""
    docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(re.findall(r"\w+", n.value))
        elif isinstance(n, (ast.Name, ast.Attribute, ast.alias)):
            out.add(n.name if isinstance(n, ast.alias) else getattr(n, "id", None) or n.attr)
    return out


def test_each_public_name_of_separations_is_used_outside_its_definition():
    # dead API guard: each public top-level name is read in the library or
    # the benchmark outside its own definition (a name the benchmark
    # resolves from a string, like "separations.SymbolicVertexSet", counts)
    module = Path(separations.__file__)
    body = ast.parse(module.read_text()).body
    used = set().union(*(_read_names(statement) - _defined_names(statement) for statement in body))
    for path in [*module.parent.glob("*.py"), *(module.parents[2] / "bench").glob("*.py")]:
        if path != module:
            used |= _read_names(ast.parse(path.read_text()))
    public = {name for statement in body for name in _defined_names(statement) if not name.startswith("_")}
    assert len(public) > 20 and sorted(public - used) == []
