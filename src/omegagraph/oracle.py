"""Brute-force ground truth on finite truncations.

Every symbolic answer in this package can be cross-checked against plain
union-find connectivity on a truncation.  The oracle knows nothing about
strips, fans or symbolic descriptors: it works on explicit vertex and
edge lists only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ids import VertexId
from .pattern import FiniteGraph


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x):
        # Parents are stored keys, so identity suffices; a key equal to but
        # not the same object as a stored one reaches that one in one hop.
        parent = self.parent
        root = x
        while (p := parent[root]) is not root:
            root = p
        while (p := parent[x]) is not root:
            parent[x] = root
            x = p
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1

    def groups(self) -> list[set]:
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return list(out.values())


@dataclass(frozen=True)
class OracleComponent:
    vertices: frozenset
    neighborhood: frozenset  # deleted vertices adjacent to this component


def components_after_deletion(fg: FiniteGraph, deleted) -> list[OracleComponent]:
    """Connected components of fg minus the deleted set, with exact N(C)."""
    deleted = frozenset(deleted)
    alive = [v for v in fg.vertices if v not in deleted]
    uf = UnionFind(alive)
    touches: dict[VertexId, set] = {v: set() for v in alive}
    for e in fg.edges:
        a, b = e
        if a in deleted and b in deleted:
            continue
        if a in deleted:
            touches[b].add(a)
        elif b in deleted:
            touches[a].add(b)
        else:
            uf.union(a, b)
    comps = []
    for grp in uf.groups():
        nb = set()
        for v in grp:
            nb |= touches[v]
        comps.append(OracleComponent(frozenset(grp), frozenset(nb)))
    comps.sort(key=lambda c: min(v.sort_key() for v in c.vertices))
    return comps


def count_by_neighborhood(comps) -> dict:
    counts: dict[frozenset, int] = {}
    for c in comps:
        counts[c.neighborhood] = counts.get(c.neighborhood, 0) + 1
    return counts
