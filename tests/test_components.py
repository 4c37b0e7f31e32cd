"""Symbolic component systems against the truncation oracle."""

import dataclasses
import random

import pytest

from omegagraph.components import (
    ComponentDescriptor,
    copy_vertices,
    NotASubsetError,
    NotCriticalError,
    NotNestedError,
    TailSeg,
    UnknownComponentError,
    YContainedInXError,
    bonding_c,
    delete,
    handle_attach_vertices,
    handle_of,
    is_critical,
    materialize,
    oracle_mismatch,
    unique_component_meeting,
)
from omegagraph import oracle
from omegagraph.ids import core, stripv
from omegagraph.oracle import components_after_deletion, count_by_neighborhood
from omegagraph.pattern import UnknownVertexError, to_raw, truncate, validate
from conftest import FIXTURE_NAMES, random_deletion, random_pattern, vertex_pool


def _Y(*vs):
    return frozenset(vs)


# ---------------------------------------------------------------------------
# delete

def test_delete_thetafan_both_attachments(fixtures):
    cs = delete(fixtures["thetafan"], {core("a"), core("b")})
    assert len(cs.descriptors) == 1
    d = cs.descriptors[0]
    assert d.kind == "family"
    assert d.handle() == ("fan", "f1")
    assert d.excluded() == frozenset()
    assert d.neighborhood == _Y(core("a"), core("b"))
    # oracle: m copies yield m singleton components with that neighborhood
    for m in (3, 6):
        comps = components_after_deletion(truncate(fixtures["thetafan"], 0, m), cs.X)
        assert len(comps) == m
        assert all(c.neighborhood == d.neighborhood for c in comps)


def test_delete_ray_empty(fixtures):
    cs = delete(fixtures["ray"], set())
    assert len(cs.descriptors) == 1
    d = cs.descriptors[0]
    assert d.kind == "big"
    assert d.tails == (TailSeg("s1", 0),)
    assert d.neighborhood == frozenset()


def test_delete_domray_prefix(fixtures):
    X = {core("d")} | {stripv("s1", t, "p") for t in range(4)}
    cs = delete(fixtures["domray"], X)
    assert len(cs.descriptors) == 1
    d = cs.descriptors[0]
    assert d.kind == "big"
    assert d.vertices == frozenset()
    assert d.tails == (TailSeg("s1", 4),)
    assert d.neighborhood == _Y(stripv("s1", 3, "p"), core("d"))
    assert oracle_mismatch(cs, 8, 8) is None


def test_delete_unknown_vertex(fixtures):
    with pytest.raises(UnknownVertexError):
        delete(fixtures["ray"], {core("zz")})


def test_delete_find_calls_grow_linearly(fixtures, monkeypatch):
    # union-find work is deterministic, so it pins the growth without a clock
    calls = 0
    find = oracle.UnionFind.find

    def counting_find(self, x):
        nonlocal calls
        calls += 1
        return find(self, x)

    monkeypatch.setattr(oracle.UnionFind, "find", counting_find)
    counts = {}
    for n in (200, 400):
        calls = 0
        delete(fixtures["comb"], {stripv("s1", t, "p") for t in range(n)})
        counts[n] = calls
    assert counts[400] <= 2.2 * counts[200], counts


def test_delete_union_find_size_ignores_period_depth(fixtures, monkeypatch):
    # clean periods below a deleted strip vertex share one node, so the
    # union-find holds as many nodes at period 6400 as at period 100
    sizes = []
    init = oracle.UnionFind.__init__

    def recording_init(self, items):
        sizes.append(len(items))
        init(self, items)

    monkeypatch.setattr(oracle.UnionFind, "__init__", recording_init)
    for name in ("comb", "combo"):
        sizes.clear()
        for P in (100, 6400):
            delete(fixtures[name], {stripv("s1", P, "p")})
        assert sizes[0] == sizes[1], (name, sizes)
        if name == "comb":
            assert sizes == [3, 3]  # the run below P, the fan family at P, the tail


def _with_attachment_above(g, X, strip_id, rng):
    """g plus a core attachment on strip_id above the deepest period X meets there."""
    raw = to_raw(g)
    if not raw["core"]["vertices"]:
        raw["core"]["vertices"].append("hook")
    sraw = next(s for s in raw["strips"] if s["id"] == strip_id)
    deepest = max(v.t for v in X if v.kind in ("strip", "pfan") and v.owner == strip_id)
    sraw["attachments"].append({
        "core": rng.choice(raw["core"]["vertices"]),
        "period": deepest + rng.randint(1, 4),
        "local": rng.choice(sraw["period"]["vertices"]),
    })
    return validate(raw)


def _deep_cases(fixtures):
    graphs = [fixtures[name] for name in FIXTURE_NAMES] + [random_pattern(seed) for seed in range(30)]
    for i, g in enumerate(graphs):
        if not g.strips:
            continue
        rng = random.Random(4100 + i)
        s = rng.choice(g.strips)
        X = random_deletion(g, rng, 3) | {stripv(s.id, rng.randint(15, 40), rng.choice(s.locals))}
        yield g, X
        yield _with_attachment_above(g, X, s.id, rng), X


def test_deep_deletion_matches_oracle_and_lookups(fixtures):
    cases = list(_deep_cases(fixtures))
    assert len(cases) >= 40
    for g, X in cases:
        cs = delete(g, X)
        m = cs.stabilization_bound + 2
        assert oracle_mismatch(cs, m, m) is None, sorted(map(str, X))
        piece_of = {v: d.key() for d in cs.descriptors for p in materialize(cs, d, m, m) for v in p}
        for v in truncate(g, m, m).vertices:
            if v not in X:
                assert piece_of[v] == cs.locate(v).key(), (str(v), sorted(map(str, X)))
        for s in g.strips:
            # the tail starts right after the last period X meets, whatever is attached above
            start = max((v.t + 1 for v in X if v.kind in ("strip", "pfan") and v.owner == s.id), default=0)
            tail = cs.tail_descriptor(s.id)
            assert TailSeg(s.id, start) in tail.tails
            assert not any(v.kind == "strip" and v.owner == s.id and v.t >= start for v in tail.vertices)
            if not s.periodic_fan:
                continue
            for t in range(m):
                h = ("pfan", s.id, t)
                d = cs.handle_descriptor(h)
                for k in range(m):
                    if k not in cs.handle_excluded(h):
                        assert all(piece_of[v] == d.key() for v in copy_vertices(g, h, k)), (h, k)


def test_handle_descriptor_rejects_undeclared_handles(fixtures):
    cs = delete(fixtures["combo"], {stripv("s1", 3, "p")})
    for handle in (("fan", "nope"), ("pfan", "s1", -1), ("pfan", "zz", 1)):
        with pytest.raises(UnknownComponentError):
            cs.handle_descriptor(handle)
    assert cs.handle_descriptor(("pfan", "s1", 9)) is cs.tail_descriptor("s1")
    ray = delete(fixtures["ray"], {stripv("s1", 3, "p")})
    with pytest.raises(UnknownComponentError):
        ray.handle_descriptor(("pfan", "s1", 9))


def test_tail_descriptor_rejects_undeclared_strips(fixtures):
    cs = delete(fixtures["combo"], set())
    with pytest.raises(UnknownComponentError) as err:
        cs.tail_descriptor("zz")
    assert err.value.args == ("zz",)
    assert cs.tail_descriptor("s1").tails[0].strip == "s1"


def _fresh_key(d):
    return (
        d.kind,
        tuple(sorted(v.sort_key() for v in d.vertices)),
        tuple((t.strip, t.start) for t in d.tails),
        tuple((h, tuple(sorted(e))) for h, e in d.families),
    )


def test_descriptor_key_is_computed_once_and_exact(fixtures):
    rng = random.Random(13)
    graphs = [fixtures[name] for name in FIXTURE_NAMES] + [random_pattern(seed) for seed in range(30)]
    for g in graphs:
        for _ in range(3):
            cs = delete(g, random_deletion(g, rng, 3))
            for d in cs.descriptors:
                assert d.key() == _fresh_key(d)
            assert cs.explicit_keys == frozenset(_fresh_key(d) for d in cs.explicit_descriptors)


def test_descriptor_stays_a_plain_frozen_dataclass(fixtures):
    d = delete(fixtures["combo"], {core("a")}).descriptors[0]
    assert [f.name for f in dataclasses.fields(d)] == ["kind", "vertices", "tails", "families", "neighborhood"]
    twin = ComponentDescriptor(d.kind, d.vertices, d.tails, d.families, d.neighborhood)
    assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
    assert "_key" not in repr(d)
    assert dataclasses.replace(d, neighborhood=frozenset()).key() == d.key()
    for name in ("kind", "_key"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, None)


# ---------------------------------------------------------------------------
# family / crit / cx_minus

def test_family_thetafan(fixtures):
    cs = delete(fixtures["thetafan"], {core("a"), core("b")})
    fam = cs.family({core("a"), core("b")})
    assert fam.is_infinite() and not fam.explicit
    assert cs.family({core("a")}).is_empty()
    with pytest.raises(NotASubsetError):
        cs.family({core("a"), core("zzz")})


def test_family_empty_deletion_collects_everything(fixtures):
    for name in FIXTURE_NAMES:
        g = fixtures[name] if isinstance(fixtures, dict) else None
        cs = delete(g, set())
        got = cs.family(frozenset())
        assert len(got.explicit) + len(got.families) == len(cs.descriptors)


def test_crit_of(fixtures):
    assert delete(fixtures["thetafan"], {core("a"), core("b")}).crit() == {
        _Y(core("a"), core("b"))
    }
    assert delete(fixtures["thetafan"], {core("a")}).crit() == frozenset()
    cs = delete(fixtures["comb"], {stripv("s1", 0, "p"), stripv("s1", 1, "p")})
    assert cs.crit() == {_Y(stripv("s1", 0, "p")), _Y(stripv("s1", 1, "p"))}


def test_cx_minus(fixtures):
    assert delete(fixtures["thetafan"], {core("a"), core("b")}).cx_minus() == ()
    cs_ray = delete(fixtures["ray"], {stripv("s1", 0, "p")})
    assert [d.tails for d in cs_ray.cx_minus()] == [(TailSeg("s1", 1),)]
    # the comb tail from period 1 has neighborhood {p0}, which is critical,
    # so it belongs to that family and not to the leftover set
    cs_comb = delete(fixtures["comb"], {stripv("s1", 0, "p")})
    assert cs_comb.cx_minus() == ()
    tail = cs_comb.tail_descriptor("s1")
    assert tail in cs_comb.family({stripv("s1", 0, "p")}).explicit


def test_is_critical(fixtures):
    assert is_critical(fixtures["star"], {core("c")})
    assert is_critical(fixtures["comb"], {stripv("s1", 17, "p")})
    assert not is_critical(fixtures["comb"], {stripv("s1", 0, "p"), stripv("s1", 1, "p")})
    assert not is_critical(fixtures["ray"], {stripv("s1", 0, "p")})
    assert not is_critical(fixtures["thetafan"], {core("a")})
    assert is_critical(fixtures["combo"], {core("a"), core("b")})


def test_copies_and_anchors_match_truncation(fixtures):
    # in the truncation, each copy's neighbours outside it are its family's anchors
    graphs = [fixtures[n] for n in FIXTURE_NAMES] + [random_pattern(seed) for seed in range(100)]
    for g in graphs:
        adj = truncate(g, 3, 3).adjacency()
        handles = [("fan", f.id) for f in g.fans]
        handles += [("pfan", s.id, t) for s in g.strips if s.periodic_fan for t in range(3)]
        for h in handles:
            for k in range(3):
                copy = copy_vertices(g, h, k)
                outside = set().union(*(adj[v] for v in copy)) - copy
                assert outside == handle_attach_vertices(g, h), (h, k)
        for v in vertex_pool(g):
            if v.kind in ("fan", "pfan"):
                assert v in copy_vertices(g, handle_of(v), v.k)


# ---------------------------------------------------------------------------
# bonding_c

def test_bonding_identity(fixtures):
    cs = delete(fixtures["comb"], {stripv("s1", 0, "p")})
    for d in cs.descriptors:
        assert bonding_c(cs, cs, d) is d


def test_bonding_thetafan_family_collapses(fixtures):
    g = fixtures["thetafan"]
    cs_small = delete(g, {core("a")})
    cs_big = delete(g, {core("a"), core("b")})
    fam_desc = cs_big.descriptors[0]
    image = bonding_c(cs_small, cs_big, fam_desc)
    assert image.kind == "big"
    assert core("b") in image.vertices


def test_bonding_comb_tails(fixtures):
    g = fixtures["comb"]
    cs_small = delete(g, {stripv("s1", 0, "p")})
    cs_big = delete(g, {stripv("s1", 0, "p"), stripv("s1", 1, "p")})
    tail_big = cs_big.tail_descriptor("s1")
    assert tail_big.tails == (TailSeg("s1", 2),)
    image = bonding_c(cs_small, cs_big, tail_big)
    assert image.tails == (TailSeg("s1", 1),)


def test_bonding_not_nested(fixtures):
    g = fixtures["comb"]
    cs1 = delete(g, {stripv("s1", 0, "p")})
    cs2 = delete(g, {stripv("s1", 1, "p")})
    with pytest.raises(NotNestedError):
        bonding_c(cs1, cs2, cs2.descriptors[0])


def test_bonding_unknown_component(fixtures):
    g = fixtures["comb"]
    cs1 = delete(g, {stripv("s1", 0, "p")})
    cs2 = delete(g, {stripv("s1", 0, "p"), stripv("s1", 1, "p")})
    with pytest.raises(UnknownComponentError):
        bonding_c(cs1, cs2, cs1.descriptors[0])


@pytest.mark.parametrize("seed", range(10))
def test_bonding_functoriality_and_refinement(seed):
    g = random_pattern(seed)
    rng = random.Random(seed + 99)
    X1 = random_deletion(g, rng, 2)
    X2 = X1 | random_deletion(g, rng, 2)
    X3 = X2 | random_deletion(g, rng, 2)
    cs1, cs2, cs3 = delete(g, X1), delete(g, X2), delete(g, X3)
    bound = max(cs1.stabilization_bound, cs2.stabilization_bound, cs3.stabilization_bound) + 2
    for d in cs3.descriptors:
        direct = bonding_c(cs1, cs3, d)
        via = bonding_c(cs1, cs2, bonding_c(cs2, cs3, d))
        assert direct == via
        # refinement: the component's material is included in its image's
        pieces = materialize(cs3, d, bound, bound)
        target = materialize(cs1, direct, bound, bound)
        if direct.kind == "family":
            # each piece sits inside one member copy of the image family
            assert all(any(p <= m for m in target) for p in pieces)
        else:
            whole = target[0]
            assert all(p <= whole for p in pieces)


# ---------------------------------------------------------------------------
# unique_component_meeting

def test_unique_component_meeting_thetafan(fixtures):
    g = fixtures["thetafan"]
    cs = delete(g, {core("a")})
    d = unique_component_meeting(cs, {core("a"), core("b")})
    assert core("b") in d.vertices


def test_unique_component_meeting_comb(fixtures):
    g = fixtures["comb"]
    cs0 = delete(g, set())
    d = unique_component_meeting(cs0, {stripv("s1", 3, "p")})
    assert d is cs0.descriptors[0]
    cs = delete(g, {stripv("s1", 0, "p"), stripv("s1", 1, "p")})
    d2 = unique_component_meeting(cs, {stripv("s1", 5, "p")})
    assert d2.tails == (TailSeg("s1", 2),)


def test_unique_component_meeting_errors(fixtures):
    g = fixtures["comb"]
    cs = delete(g, {stripv("s1", 0, "p")})
    with pytest.raises(NotCriticalError):
        unique_component_meeting(cs, {stripv("s1", 1, "p"), stripv("s1", 2, "p")})
    with pytest.raises(YContainedInXError):
        unique_component_meeting(cs, {stripv("s1", 0, "p")})


# ---------------------------------------------------------------------------
# Oracle equivalence invariants

def _fixture_cases(fixtures, per_fixture, seed0):
    for i, name in enumerate(FIXTURE_NAMES):
        g = fixtures[name]
        rng = random.Random(1000 * i + seed0)
        for _ in range(per_fixture):
            yield name, g, random_deletion(g, rng)


def test_exactness_vs_oracle_fixtures(fixtures):
    for name, g, X in _fixture_cases(fixtures, 6, seed0=1):
        cs = delete(g, X)
        b = cs.stabilization_bound
        assert oracle_mismatch(cs, b + 2, b + 2) is None, (name, sorted(map(str, X)))


@pytest.mark.parametrize("seed", range(14))
def test_exactness_vs_oracle_random_patterns(seed):
    g = random_pattern(seed)
    rng = random.Random(seed * 31 + 5)
    for _ in range(4):
        X = random_deletion(g, rng)
        cs = delete(g, X)
        b = cs.stabilization_bound
        assert oracle_mismatch(cs, b + 2, b + 2) is None, sorted(map(str, X))


def test_partition_law_on_truncations(fixtures):
    # every oracle component clear of the truncation boundary sits in
    # exactly one neighborhood family, matching neighborhoods
    for name, g, X in _fixture_cases(fixtures, 4, seed0=2):
        cs = delete(g, X)
        b = cs.stabilization_bound + 2
        fg = truncate(g, b, b)
        for comp in components_after_deletion(fg, X):
            if comp.vertices & fg.boundary:
                continue
            assert comp.neighborhood <= X
            fam = cs.family(comp.neighborhood)
            pieces = [
                p
                for d in fam.explicit + fam.families
                for p in materialize(cs, d, b, b)
            ]
            assert pieces.count(comp.vertices) == 1, (name, sorted(map(str, comp.vertices)))


def test_crit_formula_against_growing_counts(fixtures):
    for name, g, X in _fixture_cases(fixtures, 4, seed0=3):
        cs = delete(g, X)
        b = cs.stabilization_bound
        candidates = None
        for m in (b + 2, b + 4, b + 6):
            counts = count_by_neighborhood(components_after_deletion(truncate(g, m, m), X))
            found = {
                Y
                for Y, n in counts.items()
                if Y <= X and n >= m - len(X)
            }
            candidates = found if candidates is None else candidates & found
        assert candidates == cs.crit(), (name, sorted(map(str, X)))
