"""Toughness, end-toughness, the trichotomy, and degree explanations."""

import math
import random

import pytest

from omegagraph.classify import (
    Classification,
    enumerate_critical,
    infinite_degree_explanation,
    is_end_tough,
    is_tough,
    trichotomy,
)
from omegagraph.components import InvariantError, delete, is_critical
from omegagraph.gamma import gamma_space
from omegagraph.ids import core, fanv, pfanv, stripv
from omegagraph.pattern import UnknownVertexError, degree_class
from omegagraph.separations import RULE_TRUE, FamilyRule
from conftest import FIXTURE_NAMES, random_deletion, random_pattern, vertex_pool


EXPECTED = {
    "ray": "Tough",
    "domray": "Tough",
    "star": "OnePointCase",
    "thetafan": "OnePointCase",
    "comb": "NeitherCase",
    "combo": "NeitherCase",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_classification(fixtures, name):
    c = trichotomy(fixtures[name])
    assert c.trichotomy == EXPECTED[name]


def test_is_tough(fixtures):
    assert is_tough(fixtures["ray"])
    assert is_tough(fixtures["domray"])  # domination adds edges, not components
    assert not is_tough(fixtures["star"])


def test_is_end_tough_witnesses(fixtures):
    ok, ws = is_end_tough(fixtures["star"])
    assert ok and ws == ()  # no ends at all
    ok, ws = is_end_tough(fixtures["comb"])
    assert not ok and ws[0].periodic_fan == "pf1"
    ok, ws = is_end_tough(fixtures["domray"])
    assert ok and ws[0].isolating_set == {core("d")}


def test_trichotomy_invariant_enforced():
    with pytest.raises(AssertionError):
        Classification(True, True, "NeitherCase", ())


@pytest.mark.parametrize(
    "broken",
    [
        lambda fx: Classification(True, True, "NeitherCase", ()),
        lambda fx: FamilyRule("sometimes"),
        lambda fx: RULE_TRUE.members(),
        lambda fx: delete(fx["ray"], ()).tail_descriptor("s1").handle(),
    ],
    ids=["trichotomy", "rule-base", "infinite-members", "handle-of-tail"],
)
def test_invariants_raise_without_assert(broken, fixtures):
    # explicit raises, so that they also hold under python -O
    with pytest.raises(InvariantError):
        broken(fixtures)


@pytest.mark.parametrize("seed", range(20))
def test_trichotomy_total_and_exclusive_on_random(seed):
    c = trichotomy(random_pattern(seed))
    assert c.trichotomy in ("Tough", "OnePointCase", "NeitherCase")
    assert (c.trichotomy == "Tough") == c.tough
    assert (c.trichotomy == "OnePointCase") == (c.end_tough and not c.tough)


# ---------------------------------------------------------------------------
# enumerate_critical

def test_enumerate_critical_examples(fixtures):
    assert enumerate_critical(fixtures["star"], 1, 0) == [frozenset({core("c")})]
    comb = enumerate_critical(fixtures["comb"], 1, 3)
    assert comb == [frozenset({stripv("s1", t, "p")}) for t in range(3)]
    assert enumerate_critical(fixtures["ray"], 3, 10) == []


def test_enumerate_critical_monotone(fixtures):
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        small = set(map(frozenset, enumerate_critical(g, 1, 2)))
        big = set(map(frozenset, enumerate_critical(g, 3, 5)))
        assert small <= big


def test_enumerate_critical_matches_family_counts(fixtures):
    # the closed form (critical sets are the families' anchor sets) against
    # the definition: G - Y has infinitely many components with neighbourhood Y
    rng = random.Random(23)
    graphs = [fixtures[n] for n in FIXTURE_NAMES] + [random_pattern(seed) for seed in range(200)]
    for g in graphs:
        enumerated = enumerate_critical(g, 10, 4)
        for Y in enumerated:
            assert Y in delete(g, Y).crit()
        for _ in range(10):
            X = random_deletion(g, rng)
            crit = delete(g, X).crit()
            for N in crit:
                assert is_critical(g, N)
                assert N in enumerated or any(v.t >= 4 for v in N)
            assert is_critical(g, X) == (X in crit)


# ---------------------------------------------------------------------------
# toughness surrogates

def test_tough_iff_no_gamma_clusters_iff_no_critical(fixtures):
    rng = random.Random(11)
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        tough = is_tough(g)
        sampled = [random_deletion(g, rng) for _ in range(25)]
        no_clusters = all(not gamma_space(delete(g, X)).clusters for X in sampled)
        no_crit = not enumerate_critical(g, 4, 3)
        if tough:
            assert no_clusters and no_crit
        else:
            assert not no_crit
            # some sampled deletion must expose a cluster once it covers a
            # critical set; force one in to keep the check meaningful
            Y = enumerate_critical(g, 4, 3)[0]
            assert gamma_space(delete(g, Y)).clusters


# ---------------------------------------------------------------------------
# degree explanations

def test_explanations_domray(fixtures):
    g = fixtures["domray"]
    (e,) = infinite_degree_explanation(g, core("d"))
    assert e.kind == "dominates_end" and e.strip == "s1"
    (e,) = infinite_degree_explanation(g, stripv("s1", 5, "p"))
    assert e.kind == "finite" and e.degree == 3  # two ray edges plus d


def test_explanations_star(fixtures):
    (e,) = infinite_degree_explanation(fixtures["star"], core("c"))
    assert e.kind == "in_critical_set" and e.Y == frozenset({core("c")})
    (e,) = infinite_degree_explanation(fixtures["star"], fanv("f1", 7, "u"))
    assert e.kind == "finite" and e.degree == 1


def test_explanations_ray(fixtures):
    (e,) = infinite_degree_explanation(fixtures["ray"], stripv("s1", 5, "p"))
    assert (e.kind, e.degree) == ("finite", 2)


def test_explanations_combo(fixtures):
    g = fixtures["combo"]
    for v in (core("a"), core("b")):
        (e,) = infinite_degree_explanation(g, v)
        assert e.kind == "in_critical_set" and e.Y == frozenset({core("a"), core("b")})
    (e,) = infinite_degree_explanation(g, core("d"))
    assert e.kind == "dominates_end"
    (e,) = infinite_degree_explanation(g, stripv("s1", 2, "p"))
    assert e.kind == "in_critical_set" and e.Y == frozenset({stripv("s1", 2, "p")})
    (e,) = infinite_degree_explanation(g, pfanv("s1", 0, 3, "w"))
    assert (e.kind, e.degree) == ("finite", 1)


def test_explanation_both_cases_together():
    # a dominator that also sits in a critical set reports both reasons
    from omegagraph.pattern import validate

    g = validate(
        {
            "core": {"vertices": ["d"], "edges": []},
            "strips": [
                {
                    "id": "s1",
                    "period": {"vertices": ["p"], "edges": []},
                    "step_edges": [["p", "p"]],
                    "attachments": [],
                    "dominated_vertex": "p",
                }
            ],
            "fans": [
                {"id": "f1", "template": {"vertices": ["u"], "edges": []},
                 "attach": ["d"], "attach_edges": [["u", "d"]]}
            ],
            "dominations": [{"core": "d", "strip": "s1"}],
        }
    )
    kinds = {e.kind for e in infinite_degree_explanation(g, core("d"))}
    assert kinds == {"dominates_end", "in_critical_set"}


def test_explanation_unknown_vertex(fixtures):
    with pytest.raises(UnknownVertexError):
        infinite_degree_explanation(fixtures["ray"], core("nope"))


@pytest.mark.parametrize("seed", range(15))
def test_lemma_completeness_on_random(seed):
    # every infinite-degree vertex gets a validated non-finite explanation
    g = random_pattern(seed)
    for v in vertex_pool(g, periods=2, copies=2):
        es = infinite_degree_explanation(g, v)
        if degree_class(g, v) == math.inf:
            assert all(e.kind != "finite" for e in es)
            for e in es:
                if e.kind == "in_critical_set":
                    assert is_critical(g, e.Y) and v in e.Y
                else:
                    assert (v.owner, e.strip) in g.dominations
        else:
            assert [e.kind for e in es] == ["finite"]
