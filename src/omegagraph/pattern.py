"""Finitely presented infinite graphs: core + strips + fans + dominations.

A pattern graph describes one infinite graph:

* ``core``: a finite simple graph on named vertices.
* ``strips``: one-way infinite chains of copies ("periods") of a finite
  connected template, consecutive periods joined by declared step edges.
  A strip may carry finitely many attachment edges into the core and an
  optional periodic fan (a fresh batch of omega fan copies hanging off
  designated template vertices of every period).
* ``fans``: omega pairwise non-adjacent copies of a finite connected
  template, every copy attached to the same finite set of core vertices.
* ``dominations``: pairs (core vertex d, strip s) adding an edge from d
  to the strip's designated local vertex in *every* period.

The JSON spec file mirrors these fields; see ``validate`` and the CLI
module for the schema.  All values are immutable after validation and
safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .ids import VertexId, core, fanv, pfanv, stripv


class UnknownVertexError(KeyError):
    """A VertexId does not reference declared template material."""

    def __init__(self, v):
        self.vertex = v
        super().__init__(str(v))


@dataclass(frozen=True)
class Violation:
    kind: str  # StripStripEdge | DanglingReference | DisconnectedPeriodChain
    #          | AttachmentNotCovered | NameCollision | DisconnectedTemplate
    #          | InvalidEdge | DuplicateId
    element: str
    message: str

    def __str__(self):
        return f"{self.kind}({self.element}): {self.message}"


class PatternValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Fan:
    """A fan template: omega copies, each adjacent exactly to ``attach``.

    For core fans ``attach`` names core vertices; for a strip's periodic
    fan it names local vertices of the strip's period template.
    """

    id: str
    locals: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    attach: tuple[str, ...]
    attach_edges: tuple[tuple[str, str], ...]  # (template local, attach vertex)


@dataclass(frozen=True)
class Strip:
    id: str
    locals: tuple[str, ...]
    internal_edges: tuple[tuple[str, str], ...]  # within one period
    step_edges: tuple[tuple[str, str], ...]  # (local at t, local at t+1)
    attachments: tuple[tuple[str, int, str], ...]  # (core vertex, period, local)
    periodic_fan: Fan | None = None
    dominated_vertex: str | None = None  # target local of domination edges

    def domination_target(self) -> str:
        if self.dominated_vertex is not None:
            return self.dominated_vertex
        return min(self.locals)

    def max_attachment_period(self) -> int:
        return max((t for _, t, _ in self.attachments), default=-1)


@dataclass(frozen=True)
class PatternGraph:
    core_vertices: tuple[str, ...]
    core_edges: tuple[tuple[str, str], ...]
    strips: tuple[Strip, ...]
    fans: tuple[Fan, ...]
    dominations: tuple[tuple[str, str], ...]  # (core vertex, strip id)
    _strip_index: dict = field(default_factory=dict, compare=False, repr=False)
    _fan_index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._strip_index.update({s.id: s for s in self.strips})
        self._fan_index.update({f.id: f for f in self.fans})

    def strip(self, strip_id: str) -> Strip:
        try:
            return self._strip_index[strip_id]
        except KeyError:
            raise UnknownVertexError(f"strip:{strip_id}") from None

    def fan(self, fan_id: str) -> Fan:
        try:
            return self._fan_index[fan_id]
        except KeyError:
            raise UnknownVertexError(f"fan:{fan_id}") from None

    def dominators_of(self, strip_id: str) -> list[str]:
        return sorted(d for d, s in self.dominations if s == strip_id)

    def has_fans(self) -> bool:
        return bool(self.fans) or any(s.periodic_fan for s in self.strips)

    def is_finite(self) -> bool:
        return not self.strips and not self.fans

    def check_vertex(self, v: VertexId) -> VertexId:
        """Return v if it is well-formed in this graph, else raise."""
        if v.kind == "core":
            if v.owner in self.core_vertices:
                return v
        elif v.kind == "strip":
            s = self.strip(v.owner)
            if v.t >= 0 and v.local in s.locals:
                return v
        elif v.kind == "fan":
            f = self.fan(v.owner)
            if v.k >= 0 and v.local in f.locals:
                return v
        elif v.kind == "pfan":
            s = self.strip(v.owner)
            if s.periodic_fan and v.t >= 0 and v.k >= 0 and v.local in s.periodic_fan.locals:
                return v
        raise UnknownVertexError(v)


# ---------------------------------------------------------------------------
# Validation

def _edge_pairs(raw_edges, what, violations):
    out = []
    for e in raw_edges:
        if len(e) != 2 or e[0] == e[1]:
            violations.append(Violation("InvalidEdge", what, f"bad edge {e!r}"))
            continue
        out.append((str(e[0]), str(e[1])))
    return tuple(out)


def _connected(vertices, edges) -> bool:
    if not vertices:
        return False
    verts = list(vertices)
    adj = {v: set() for v in verts}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def _parse_fan(raw, fan_id, violations) -> Fan:
    locals_ = tuple(str(x) for x in raw.get("template", {}).get("vertices", []))
    edges = _edge_pairs(raw.get("template", {}).get("edges", []), f"fan {fan_id}", violations)
    attach = tuple(str(x) for x in raw.get("attach", []))
    attach_edges = tuple(
        (str(l), str(c)) for l, c in (tuple(e) for e in raw.get("attach_edges", []))
    )
    return Fan(fan_id, locals_, edges, attach, attach_edges)


def _check_fan(fan: Fan, attach_universe, attach_kind, owner, violations):
    """Shared checks for core fans and periodic fans."""
    locset = set(fan.locals)
    if not fan.locals or not _connected(fan.locals, fan.edges):
        violations.append(
            Violation("DisconnectedTemplate", owner, "fan template must be a finite connected graph")
        )
    for a, b in fan.edges:
        for x in (a, b):
            if x not in locset:
                violations.append(
                    Violation("DanglingReference", owner, f"template edge endpoint {x!r} not a template vertex")
                )
    covered = set()
    for l, c in fan.attach_edges:
        if l not in locset:
            violations.append(
                Violation("DanglingReference", owner, f"attachment edge local {l!r} not a template vertex")
            )
        if c not in fan.attach:
            violations.append(
                Violation("DanglingReference", owner, f"attachment edge target {c!r} not in the attachment set")
            )
        covered.add(c)
    for c in fan.attach:
        if c not in attach_universe:
            violations.append(
                Violation("DanglingReference", owner, f"attachment vertex {c!r} is not a {attach_kind} vertex")
            )
        elif c not in covered:
            violations.append(
                Violation("AttachmentNotCovered", owner, f"attachment vertex {c!r} receives no template edge")
            )


def validate(raw: dict) -> PatternGraph:
    """Build a PatternGraph from a raw description (parsed JSON dict).

    Raises PatternValidationError carrying the full list of violations;
    each violation names the offending element.
    """
    violations: list[Violation] = []
    core_raw = raw.get("core", {})
    core_vertices = tuple(str(v) for v in core_raw.get("vertices", []))
    core_set = set(core_vertices)
    core_edges = _edge_pairs(core_raw.get("edges", []), "core", violations)

    strips = []
    for sraw in raw.get("strips", []):
        sid = str(sraw.get("id", f"strip{len(strips)}"))
        period = sraw.get("period", {})
        locals_ = tuple(str(x) for x in period.get("vertices", []))
        internal = _edge_pairs(period.get("edges", []), f"strip {sid}", violations)
        steps = tuple((str(a), str(b)) for a, b in (tuple(e) for e in sraw.get("step_edges", [])))
        attachments = tuple(
            (str(a.get("core")), int(a.get("period", 0)), str(a.get("local")))
            for a in sraw.get("attachments", [])
        )
        pfan = None
        if sraw.get("periodic_fan") is not None:
            pfan = _parse_fan(sraw["periodic_fan"], str(sraw["periodic_fan"].get("id", f"{sid}.pf")), violations)
        dom = sraw.get("dominated_vertex")
        strips.append(
            Strip(sid, locals_, internal, steps, attachments, pfan, None if dom is None else str(dom))
        )

    fans = [_parse_fan(fraw, str(fraw.get("id", f"fan{i}")), violations) for i, fraw in enumerate(raw.get("fans", []))]
    dominations = tuple((str(d.get("core")), str(d.get("strip"))) for d in raw.get("dominations", []))

    # Strip ids and core fan ids key the graph's indexes; a repeated id
    # would silently shadow the earlier declaration.
    for what, ids in (("strip", [s.id for s in strips]), ("fan", [f.id for f in fans])):
        declared: set[str] = set()
        for i in ids:
            if i in declared:
                violations.append(Violation("DuplicateId", i, f"{what} id {i!r} is declared more than once"))
            declared.add(i)

    # Name collisions: core names, strip locals and fan locals live in one
    # shared namespace so tokens stay unambiguous.
    seen: dict[str, str] = {}
    def claim(name, where):
        if name in seen:
            violations.append(
                Violation("NameCollision", name, f"declared by both {seen[name]} and {where}")
            )
        else:
            seen[name] = where

    for v in core_vertices:
        claim(v, "core")
    strip_local_owner: dict[str, str] = {}
    for s in strips:
        for l in s.locals:
            claim(l, f"strip {s.id}")
            strip_local_owner.setdefault(l, s.id)
        if s.periodic_fan:
            for l in s.periodic_fan.locals:
                claim(l, f"periodic fan of strip {s.id}")
    for f in fans:
        for l in f.locals:
            claim(l, f"fan {f.id}")

    for a, b in core_edges:
        for x in (a, b):
            if x not in core_set:
                kind = "StripStripEdge" if x in strip_local_owner else "DanglingReference"
                violations.append(Violation(kind, "core", f"core edge endpoint {x!r} is not a core vertex"))

    for s in strips:
        locset = set(s.locals)
        if not s.locals or not _connected(s.locals, s.internal_edges):
            violations.append(
                Violation("DisconnectedPeriodChain", s.id, "period template must be a finite connected graph")
            )
        if not s.step_edges:
            violations.append(
                Violation("DisconnectedPeriodChain", s.id, "strip needs at least one inter-period edge")
            )
        for a, b in s.internal_edges + s.step_edges:
            for x in (a, b):
                if x not in locset:
                    if x in strip_local_owner and strip_local_owner[x] != s.id:
                        violations.append(
                            Violation("StripStripEdge", s.id, f"edge endpoint {x!r} belongs to strip {strip_local_owner[x]}")
                        )
                    else:
                        violations.append(
                            Violation("DanglingReference", s.id, f"edge endpoint {x!r} not a period vertex")
                        )
        for c, t, l in s.attachments:
            if c not in core_set:
                if c in strip_local_owner:
                    violations.append(
                        Violation("StripStripEdge", s.id, f"attachment endpoint {c!r} belongs to strip {strip_local_owner[c]}")
                    )
                else:
                    violations.append(
                        Violation("DanglingReference", s.id, f"attachment endpoint {c!r} is not a core vertex")
                    )
            if t < 0:
                violations.append(Violation("DanglingReference", s.id, f"attachment period {t} is negative"))
            if l not in locset:
                violations.append(Violation("DanglingReference", s.id, f"attachment local {l!r} not a period vertex"))
        if s.periodic_fan:
            _check_fan(s.periodic_fan, locset, "period-template", f"periodic fan of strip {s.id}", violations)
            if not s.periodic_fan.attach:
                # an unattached periodic fan would spawn a fresh component
                # family at every single period
                violations.append(
                    Violation(
                        "AttachmentNotCovered",
                        f"periodic fan of strip {s.id}",
                        "periodic fans must attach to at least one period vertex",
                    )
                )
        if s.dominated_vertex is not None and s.dominated_vertex not in locset:
            violations.append(
                Violation("DanglingReference", s.id, f"dominated vertex {s.dominated_vertex!r} not a period vertex")
            )

    for f in fans:
        _check_fan(f, core_set, "core", f"fan {f.id}", violations)
        for _, c in f.attach_edges:
            if c in strip_local_owner:
                violations.append(
                    Violation("DanglingReference", f.id, f"fan attachment {c!r} targets strip {strip_local_owner[c]}; fans attach to core only")
                )

    strip_ids = {s.id for s in strips}
    for d, sid in dominations:
        if d not in core_set:
            violations.append(Violation("DanglingReference", "dominations", f"dominating vertex {d!r} is not a core vertex"))
        if sid not in strip_ids:
            violations.append(Violation("DanglingReference", "dominations", f"dominated strip {sid!r} does not exist"))

    if violations:
        raise PatternValidationError(violations)
    return PatternGraph(core_vertices, core_edges, tuple(strips), tuple(fans), dominations)


def to_raw(g: PatternGraph) -> dict:
    """Serialize back to the JSON spec-file shape (round-trips validate)."""
    def fan_raw(f: Fan) -> dict:
        return {
            "id": f.id,
            "template": {"vertices": list(f.locals), "edges": [list(e) for e in f.edges]},
            "attach": list(f.attach),
            "attach_edges": [list(e) for e in f.attach_edges],
        }

    strips = []
    for s in g.strips:
        sraw = {
            "id": s.id,
            "period": {"vertices": list(s.locals), "edges": [list(e) for e in s.internal_edges]},
            "step_edges": [list(e) for e in s.step_edges],
            "attachments": [{"core": c, "period": t, "local": l} for c, t, l in s.attachments],
        }
        if s.periodic_fan:
            sraw["periodic_fan"] = fan_raw(s.periodic_fan)
        if s.dominated_vertex is not None:
            sraw["dominated_vertex"] = s.dominated_vertex
        strips.append(sraw)
    return {
        "core": {"vertices": list(g.core_vertices), "edges": [list(e) for e in g.core_edges]},
        "strips": strips,
        "fans": [fan_raw(f) for f in g.fans],
        "dominations": [{"core": d, "strip": s} for d, s in g.dominations],
    }


def load(path) -> PatternGraph:
    with open(path) as fh:
        return validate(json.load(fh))


# ---------------------------------------------------------------------------
# Neighborhoods

@dataclass(frozen=True)
class SymbolicRule:
    """An infinite adjacency rule attached to one vertex.

    kind "every_period":    adjacent to stripv(owner, t, local) for all t
    kind "every_copy":      adjacent to fanv(owner, k, local) for all k
    kind "every_pfan_copy": adjacent to pfanv(owner, t, k, local) for all k
    """

    kind: str
    owner: str
    local: str
    t: int = -1


@dataclass(frozen=True)
class Neighborhood:
    finite: frozenset
    rules: tuple[SymbolicRule, ...]


def neighbors(g: PatternGraph, v: VertexId) -> Neighborhood:
    """Exact neighbourhood of v: a finite part plus symbolic rules."""
    g.check_vertex(v)
    fin: set[VertexId] = set()
    rules: list[SymbolicRule] = []
    if v.kind == "core":
        name = v.owner
        for a, b in g.core_edges:
            if a == name:
                fin.add(core(b))
            elif b == name:
                fin.add(core(a))
        for s in g.strips:
            for c, t, l in s.attachments:
                if c == name:
                    fin.add(stripv(s.id, t, l))
        for f in g.fans:
            for l, c in f.attach_edges:
                if c == name:
                    rules.append(SymbolicRule("every_copy", f.id, l))
        for d, sid in g.dominations:
            if d == name:
                rules.append(SymbolicRule("every_period", sid, g.strip(sid).domination_target()))
    elif v.kind == "strip":
        s = g.strip(v.owner)
        for a, b in s.internal_edges:
            if a == v.local:
                fin.add(stripv(s.id, v.t, b))
            if b == v.local:
                fin.add(stripv(s.id, v.t, a))
        for a, b in s.step_edges:
            if a == v.local:
                fin.add(stripv(s.id, v.t + 1, b))
            if b == v.local and v.t >= 1:
                fin.add(stripv(s.id, v.t - 1, a))
        for c, t, l in s.attachments:
            if t == v.t and l == v.local:
                fin.add(core(c))
        if s.periodic_fan:
            for l, p in s.periodic_fan.attach_edges:
                if p == v.local:
                    rules.append(SymbolicRule("every_pfan_copy", s.id, l, t=v.t))
        if v.local == s.domination_target():
            for d, sid in g.dominations:
                if sid == s.id:
                    fin.add(core(d))
    elif v.kind == "fan":
        f = g.fan(v.owner)
        for a, b in f.edges:
            if a == v.local:
                fin.add(fanv(f.id, v.k, b))
            if b == v.local:
                fin.add(fanv(f.id, v.k, a))
        for l, c in f.attach_edges:
            if l == v.local:
                fin.add(core(c))
    elif v.kind == "pfan":
        s = g.strip(v.owner)
        pf = s.periodic_fan
        for a, b in pf.edges:
            if a == v.local:
                fin.add(pfanv(s.id, v.t, v.k, b))
            if b == v.local:
                fin.add(pfanv(s.id, v.t, v.k, a))
        for l, p in pf.attach_edges:
            if l == v.local:
                fin.add(stripv(s.id, v.t, p))
    # dedup rules, deterministic order
    rules = sorted(set(rules), key=lambda r: (r.kind, r.owner, r.t, r.local))
    return Neighborhood(frozenset(fin), tuple(rules))


def degree_class(g: PatternGraph, v: VertexId):
    """Exact degree of v: an int, or math.inf for infinite degree."""
    nb = neighbors(g, v)
    if nb.rules:
        return math.inf
    return len(nb.finite)


# ---------------------------------------------------------------------------
# Truncation (the oracle substrate)

@dataclass(frozen=True)
class FiniteGraph:
    vertices: tuple[VertexId, ...]
    edges: tuple[frozenset, ...]
    boundary: frozenset  # vertices adjacent to material cut off by truncation

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj


def truncate(g: PatternGraph, periods: int, copies: int) -> FiniteGraph:
    """Induced subgraph on periods t < periods and fan copies k < copies.

    Boundary markers tag exactly the vertices that are adjacent, in the
    pattern graph, to excluded material; monotone in both bounds.
    """
    if periods < 0 or copies < 0:
        raise ValueError("truncation bounds must be non-negative")
    verts: list[VertexId] = [core(c) for c in g.core_vertices]
    for s in g.strips:
        for t in range(periods):
            verts.extend(stripv(s.id, t, l) for l in s.locals)
            if s.periodic_fan:
                for k in range(copies):
                    verts.extend(pfanv(s.id, t, k, l) for l in s.periodic_fan.locals)
    for f in g.fans:
        for k in range(copies):
            verts.extend(fanv(f.id, k, l) for l in f.locals)
    vset = set(verts)
    edges = set()
    boundary = set()
    for v in verts:
        nb = neighbors(g, v)
        for w in nb.finite:
            if w in vset:
                edges.add(frozenset((v, w)))
            else:
                boundary.add(v)
        for rule in nb.rules:
            if rule.kind == "every_period":
                # infinitely many periods always excluded
                boundary.add(v)
                for t in range(periods):
                    w = stripv(rule.owner, t, rule.local)
                    if w in vset and w != v:
                        edges.add(frozenset((v, w)))
            elif rule.kind == "every_copy":
                boundary.add(v)
                for k in range(copies):
                    w = fanv(rule.owner, k, rule.local)
                    if w in vset:
                        edges.add(frozenset((v, w)))
            elif rule.kind == "every_pfan_copy":
                boundary.add(v)
                for k in range(copies):
                    w = pfanv(rule.owner, rule.t, k, rule.local)
                    if w in vset:
                        edges.add(frozenset((v, w)))
    verts_sorted = tuple(sorted(verts, key=VertexId.sort_key))
    edges_sorted = tuple(sorted(edges, key=lambda e: sorted(x.sort_key() for x in e)))
    return FiniteGraph(verts_sorted, edges_sorted, frozenset(boundary))


def check_invariants(g: PatternGraph) -> list[str]:
    """Independent re-check of the type invariants; returns problem strings."""
    problems = []
    names = list(g.core_vertices)
    for s in g.strips:
        names.extend(s.locals)
        if s.periodic_fan:
            names.extend(s.periodic_fan.locals)
    for f in g.fans:
        names.extend(f.locals)
    if len(names) != len(set(names)):
        problems.append("vertex namespaces overlap")
    for s in g.strips:
        if not _connected(s.locals, s.internal_edges):
            problems.append(f"strip {s.id} period template disconnected")
        if not s.step_edges:
            problems.append(f"strip {s.id} has no inter-period edge")
        for c, t, l in s.attachments:
            if c not in g.core_vertices or t < 0 or l not in s.locals:
                problems.append(f"strip {s.id} attachment ({c},{t},{l}) dangles")
    for f in list(g.fans) + [s.periodic_fan for s in g.strips if s.periodic_fan]:
        hit = {c for _, c in f.attach_edges}
        for c in f.attach:
            if c not in hit:
                problems.append(f"fan {f.id} attachment {c} not covered")
        if not _connected(f.locals, f.edges):
            problems.append(f"fan {f.id} template disconnected")
    return problems
