"""Symbolic vertex identifiers for omega-pattern graphs.

A vertex is either a core vertex, a vertex of some period of a strip, a
vertex of some copy of a fan, or a vertex of some copy of a per-period
("periodic") fan riding on a strip.  The textual token grammar is

    core:name
    strip:stripid/period/local
    fan:fanid/copy/local
    pfan:stripid/period/copy/local

and is used by the CLI and all JSON reports.

A ``VertexId`` is an immutable named tuple: it hashes and compares equal
exactly as the plain 5-tuple ``(kind, owner, t, k, local)``, and it is
ordered by ``sort_key`` (kind order core < strip < fan < pfan, then the
remaining fields), not by tuple order.
"""

from __future__ import annotations

from typing import NamedTuple

_KIND_ORDER = {"core": 0, "strip": 1, "fan": 2, "pfan": 3}


class VertexId(NamedTuple):
    kind: str  # "core" | "strip" | "fan" | "pfan"
    owner: str = ""  # core name, strip id, or fan id
    t: int = -1  # period index (strip, pfan)
    k: int = -1  # copy index (fan, pfan)
    local: str = ""  # local template vertex name

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.owner, self.t, self.k, self.local)

    # tuple's own ordering is by field order; vertices order by sort_key
    def __lt__(self, other):
        if not isinstance(other, VertexId):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        if not isinstance(other, VertexId):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        if not isinstance(other, VertexId):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        if not isinstance(other, VertexId):
            return NotImplemented
        return self.sort_key() >= other.sort_key()

    def __str__(self):
        return format_vertex(self)

    def __repr__(self):
        return f"VertexId({format_vertex(self)!r})"


def vertex_set_key(vertices) -> tuple:
    """The canonical order key of a vertex set: its members' sort keys, sorted."""
    return tuple(sorted(map(VertexId.sort_key, vertices)))


def core(name: str) -> VertexId:
    return VertexId("core", name)


def stripv(strip_id: str, t: int, local: str) -> VertexId:
    return VertexId("strip", strip_id, t=t, local=local)


def fanv(fan_id: str, k: int, local: str) -> VertexId:
    return VertexId("fan", fan_id, k=k, local=local)


def pfanv(strip_id: str, t: int, k: int, local: str) -> VertexId:
    return VertexId("pfan", strip_id, t=t, k=k, local=local)


def format_vertex(v: VertexId) -> str:
    if v.kind == "core":
        return f"core:{v.owner}"
    if v.kind == "strip":
        return f"strip:{v.owner}/{v.t}/{v.local}"
    if v.kind == "fan":
        return f"fan:{v.owner}/{v.k}/{v.local}"
    if v.kind == "pfan":
        return f"pfan:{v.owner}/{v.t}/{v.k}/{v.local}"
    raise ValueError(f"unknown vertex kind {v.kind!r}")


def parse_vertex(token: str) -> VertexId:
    """Parse a vertex token.  Raises ValueError on malformed input."""
    head, sep, rest = token.partition(":")
    if not sep:
        raise ValueError(f"vertex token {token!r} lacks a kind prefix")
    if head == "core":
        if not rest:
            raise ValueError(f"empty core vertex name in {token!r}")
        return core(rest)
    parts = rest.split("/")
    try:
        if head == "strip":
            owner, t, local = parts
            return stripv(owner, int(t), local)
        if head == "fan":
            owner, k, local = parts
            return fanv(owner, int(k), local)
        if head == "pfan":
            owner, t, k, local = parts
            return pfanv(owner, int(t), int(k), local)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed vertex token {token!r}") from exc
    raise ValueError(f"unknown vertex kind in token {token!r}")
