"""DOT rendering of truncations."""

from __future__ import annotations

from .ids import VertexId, format_vertex
from .pattern import FiniteGraph


def _q(s: str) -> str:
    return '"' + str(s).replace('"', r"\"") + '"'


def truncation_dot(fg: FiniteGraph) -> str:
    """Undirected DOT; vertices cut off from excluded material are dashed."""
    lines = ['graph "truncation" {', "  node [shape=ellipse];"]
    for v in fg.vertices:
        attrs = ' [style=dashed, color=red]' if v in fg.boundary else ""
        lines.append(f"  {_q(format_vertex(v))}{attrs};")
    for e in fg.edges:
        a, b = sorted(e, key=VertexId.sort_key)
        lines.append(f"  {_q(format_vertex(a))} -- {_q(format_vertex(b))};")
    lines.append("}")
    return "\n".join(lines) + "\n"

