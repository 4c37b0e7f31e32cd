"""The union-find oracle itself, on hand-checkable truncations."""

from omegagraph.ids import core, fanv, stripv
from omegagraph.oracle import UnionFind, components_after_deletion, count_by_neighborhood
from omegagraph.pattern import truncate


def test_union_find_groups():
    uf = UnionFind(range(6))
    uf.union(0, 1)
    uf.union(1, 2)
    uf.union(4, 5)
    groups = sorted(sorted(g) for g in uf.groups())
    assert groups == [[0, 1, 2], [3], [4, 5]]
    assert uf.find(0) == uf.find(2) != uf.find(3)


def test_union_find_accepts_equal_keys_that_are_other_objects():
    stored = [stripv("s1", t, "p") for t in range(5)]
    uf = UnionFind(stored)
    # equal to the stored keys, but built afresh
    uf.union(stripv("s1", 0, "p"), stripv("s1", 1, "p"))
    uf.union(stripv("s1", 1, "p"), stripv("s1", 2, "p"))
    uf.union(stripv("s1", 4, "p"), stripv("s1", 3, "p"))
    uf.union(stripv("s1", 2, "p"), stripv("s1", 0, "p"))
    fresh = stripv("s1", 2, "p")
    assert fresh is not stored[2]
    assert any(uf.find(fresh) is x for x in stored)
    assert uf.find(fresh) is uf.find(stored[0]) is not uf.find(stripv("s1", 3, "p"))
    groups = sorted(sorted(v.t for v in grp) for grp in uf.groups())
    assert groups == [[0, 1, 2], [3, 4]]


def test_components_of_star_truncation(fixtures):
    fg = truncate(fixtures["star"], 0, 5)
    comps = components_after_deletion(fg, {core("c")})
    assert len(comps) == 5
    assert all(c.neighborhood == frozenset({core("c")}) for c in comps)
    assert count_by_neighborhood(comps) == {frozenset({core("c")}): 5}


def test_components_ray_segment(fixtures):
    fg = truncate(fixtures["ray"], 6, 0)
    comps = components_after_deletion(fg, {stripv("s1", 2, "p")})
    assert sorted(len(c.vertices) for c in comps) == [2, 3]
    for c in comps:
        assert c.neighborhood == frozenset({stripv("s1", 2, "p")})


def test_deleting_nothing_matches_plain_connectivity(fixtures):
    fg = truncate(fixtures["comb"], 3, 3)
    comps = components_after_deletion(fg, set())
    assert len(comps) == 1
    assert comps[0].neighborhood == frozenset()
    # combo splits into the fan piece on {a,b} and the dominated strip piece
    fg2 = truncate(fixtures["combo"], 3, 3)
    assert len(components_after_deletion(fg2, set())) == 2


def test_deleted_vertices_never_reported(fixtures):
    fg = truncate(fixtures["thetafan"], 0, 4)
    X = {core("a"), fanv("f1", 0, "u")}
    comps = components_after_deletion(fg, X)
    for c in comps:
        assert not c.vertices & X
