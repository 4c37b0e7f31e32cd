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
safe to share across threads.  Each graph's adjacency index, which
``neighbors`` and ``truncate`` read, is built when the graph is
constructed and never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .ids import VertexId, core, fanv, pfanv, stripv


class UnknownVertexError(KeyError):
    """A VertexId does not reference declared template material."""

    def __init__(self, v):
        self.vertex = v
        super().__init__(str(v))


@dataclass(frozen=True)
class Violation:
    # A name that must be a core vertex, or a local of the strip that names
    # it, and is neither: a StripStripEdge if it is another strip's local,
    # else a DanglingReference.
    kind: str  # StripStripEdge | DanglingReference | DisconnectedPeriodChain
    #          | AttachmentNotCovered | NameCollision | DisconnectedTemplate
    #          | InvalidEdge | DuplicateId | MalformedField | ReservedCharacter
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

    def __post_init__(self):
        # built once per graph; attributes, not fields, so ==, hash, repr and
        # dataclasses.replace see only the spec
        object.__setattr__(self, "_strip_index", {s.id: s for s in self.strips})
        object.__setattr__(self, "_fan_index", {f.id: f for f in self.fans})
        object.__setattr__(self, "_adjacency", _adjacency_index(self))

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

def _malformed(where, expected, value) -> Violation:
    return Violation("MalformedField", where, f"expected {expected}, got {type(value).__name__}")


def _object(value, where, violations) -> dict:
    """value if it is a JSON object; otherwise report it and read it as {}."""
    if isinstance(value, dict):
        return value
    violations.append(_malformed(where, "an object", value))
    return {}


def _array(value, where, violations):
    """value if it is a JSON array; otherwise report it and read it as []."""
    if isinstance(value, (list, tuple)):
        return value
    violations.append(_malformed(where, "an array", value))
    return []


def _objects(value, where, violations):
    """(path, entry) for the object entries of an array; reports the others."""
    for i, item in enumerate(_array(value, where, violations)):
        if isinstance(item, dict):
            yield f"{where}[{i}]", item
        else:
            violations.append(_malformed(f"{where}[{i}]", "an object", item))


def _name(value, where, violations, default=None):
    """value as a name: a string, or a number as its decimal string.  A null or
    absent value reads as ``default`` if there is one; any other is reported."""
    if value is None and default is not None:
        return default
    if isinstance(value, str) or isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    violations.append(_malformed(where, "a name", value))
    return default


def _names(value, where, violations) -> tuple[str, ...]:
    names = [_name(x, f"{where}[{i}]", violations) for i, x in enumerate(_array(value, where, violations))]
    return tuple(n for n in names if n is not None)


def _edge_pairs(raw_edges, what, violations, loops=False):
    out = []
    for e in _array(raw_edges, what, violations):
        pair = tuple(_name(x, f"{what} edge endpoint", violations) for x in e) if isinstance(e, (list, tuple)) else ()
        if None in pair:
            continue
        if len(pair) != 2 or (not loops and pair[0] == pair[1]):
            violations.append(Violation("InvalidEdge", what, f"bad edge {e!r}"))
        else:
            out.append(pair)
    return tuple(out)


# Vertex tokens (see ``ids``) and the CLI's vertex lists and sets are
# delimited by these characters, so no name may contain them.
_RESERVED = frozenset("/,:{}")


def _check_name(name: str, where: str, violations):
    """A name must make vertex tokens that parse back to the same vertex."""
    if not name:
        violations.append(Violation("MalformedField", where, "expected a non-empty name"))
    elif not _RESERVED.isdisjoint(name):
        violations.append(Violation("ReservedCharacter", where, f"name {name!r} contains one of / , : {{ }}"))


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


def _parse_fan(raw: dict, fan_id: str, where: str, violations) -> Fan:
    template = _object(raw.get("template", {}), f"{where}.template", violations)
    locals_ = _names(template.get("vertices", []), f"{where}.template.vertices", violations)
    edges = _edge_pairs(template.get("edges", []), f"fan {fan_id}", violations)
    attach = _names(raw.get("attach", []), f"{where}.attach", violations)
    attach_edges = _edge_pairs(raw.get("attach_edges", []), f"fan {fan_id}", violations, loops=True)
    return Fan(fan_id, locals_, edges, attach, attach_edges)


def _check_template(kind, element, locals_, edges, violations, steps=()) -> list[str]:
    """Report ``kind`` unless a period or fan template is a non-empty
    connected graph on its locals; return the distinct endpoints of its
    edges and ``steps`` that are not among its locals."""
    if not locals_ or not _connected(locals_, edges):
        violations.append(Violation(kind, element, "template must be a finite connected graph"))
    return list(dict.fromkeys([x for e in edges + steps for x in e if x not in locals_]))


def validate(raw: dict) -> PatternGraph:
    """Build a PatternGraph from a raw description (parsed JSON dict).

    Raises PatternValidationError carrying the full list of violations;
    each violation names the offending element.
    """
    violations: list[Violation] = []
    raw = _object(raw, "pattern", violations)
    core_raw = _object(raw.get("core", {}), "core", violations)
    core_vertices = _names(core_raw.get("vertices", []), "core.vertices", violations)
    core_set = set(core_vertices)
    core_edges = _edge_pairs(core_raw.get("edges", []), "core", violations)

    strips = []
    for where, sraw in _objects(raw.get("strips", []), "strips", violations):
        sid = _name(sraw.get("id"), f"{where}.id", violations, f"strip{len(strips)}")
        period = _object(sraw.get("period", {}), f"{where}.period", violations)
        locals_ = _names(period.get("vertices", []), f"{where}.period.vertices", violations)
        internal = _edge_pairs(period.get("edges", []), f"strip {sid}", violations)
        steps = _edge_pairs(sraw.get("step_edges", []), f"strip {sid}", violations, loops=True)
        attachments = []
        for apath, a in _objects(sraw.get("attachments", []), f"{where}.attachments", violations):
            c, l = (_name(a.get(key), f"{apath}.{key}", violations) for key in ("core", "local"))
            t = a.get("period", 0)
            if not isinstance(t, int) or isinstance(t, bool):
                violations.append(_malformed(f"{apath}.period", "an integer", t))
            elif c is not None and l is not None:
                attachments.append((c, t, l))
        pfan = None
        if sraw.get("periodic_fan") is not None:
            fraw = _object(sraw["periodic_fan"], f"{where}.periodic_fan", violations)
            pfan_id = _name(fraw.get("id"), f"{where}.periodic_fan.id", violations, f"{sid}.pf")
            pfan = _parse_fan(fraw, pfan_id, f"{where}.periodic_fan", violations)
        dom = sraw.get("dominated_vertex")
        if dom is not None:
            dom = _name(dom, f"{where}.dominated_vertex", violations)
        strips.append(Strip(sid, locals_, internal, steps, tuple(attachments), pfan, dom))

    fans = [
        _parse_fan(fraw, _name(fraw.get("id"), f"{where}.id", violations, f"fan{i}"), where, violations)
        for i, (where, fraw) in enumerate(_objects(raw.get("fans", []), "fans", violations))
    ]
    dominations = []
    for dpath, d in _objects(raw.get("dominations", []), "dominations", violations):
        c, sid = (_name(d.get(key), f"{dpath}.{key}", violations) for key in ("core", "strip"))
        if c is not None and sid is not None:
            dominations.append((c, sid))

    # Strip ids and core fan ids key the graph's indexes; a repeated id
    # would silently shadow the earlier declaration.
    for what, ids in (("strip", [s.id for s in strips]), ("fan", [f.id for f in fans])):
        declared: set[str] = set()
        for i in ids:
            _check_name(i, f"{what} id", violations)
            if i in declared:
                violations.append(Violation("DuplicateId", i, f"{what} id {i!r} is declared more than once"))
            declared.add(i)

    # Name collisions: core names, strip locals and fan locals live in one
    # shared namespace so tokens stay unambiguous.
    seen: dict[str, str] = {}
    def claim(name, where):
        _check_name(name, where, violations)
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

    # Every reference is judged only now, when each strip local's owner is known.
    def refer(names, strip, element, what) -> list[str]:
        """Report, and return, each distinct name that is neither a core vertex
        (strip None) nor a local of ``strip``: a StripStripEdge if another
        strip owns it, else a DanglingReference."""
        allowed, home = (core_set, None) if strip is None else (strip.locals, strip.id)
        bad = []
        for x in names:
            if x in allowed or x in bad:
                continue
            bad.append(x)
            owner = strip_local_owner.get(x, home)
            if owner != home:
                violations.append(Violation("StripStripEdge", element, f"{what} {x!r} belongs to strip {owner}"))
            else:
                place = "core vertex" if home is None else f"local of strip {home}"
                violations.append(Violation("DanglingReference", element, f"{what} {x!r} is not a {place}"))
        return bad

    def check_fan(fan, strip, owner):
        """Checks shared by core fans (strip None) and a strip's periodic fan."""
        def dangling(message):
            violations.append(Violation("DanglingReference", owner, message))

        for x in _check_template("DisconnectedTemplate", owner, fan.locals, fan.edges, violations):
            dangling(f"template edge endpoint {x!r} not a template vertex")
        for l, c in fan.attach_edges:
            if l not in fan.locals:
                dangling(f"attachment edge local {l!r} not a template vertex")
            if c not in fan.attach:
                dangling(f"attachment edge target {c!r} not in the attachment set")
        bad = refer(fan.attach, strip, owner, "attachment vertex")
        covered = {c for _, c in fan.attach_edges}
        for c in dict.fromkeys(fan.attach):
            if c not in bad and c not in covered:
                violations.append(Violation("AttachmentNotCovered", owner, f"attachment vertex {c!r} receives no template edge"))
        if strip is not None and not fan.attach:
            # an unattached periodic fan would spawn a fresh component family at every single period
            violations.append(Violation("AttachmentNotCovered", owner, "periodic fans must attach to at least one period vertex"))

    refer([x for e in core_edges for x in e], None, "core", "core edge endpoint")
    for s in strips:
        strays = _check_template("DisconnectedPeriodChain", s.id, s.locals, s.internal_edges, violations, s.step_edges)
        refer(strays, s, s.id, "edge endpoint")
        if not s.step_edges:
            violations.append(Violation("DisconnectedPeriodChain", s.id, "strip needs at least one inter-period edge"))
        refer([c for c, _, _ in s.attachments], None, s.id, "attachment endpoint")
        refer([l for _, _, l in s.attachments], s, s.id, "attachment local")
        for t in dict.fromkeys(t for _, t, _ in s.attachments if t < 0):
            violations.append(Violation("MalformedField", s.id, f"attachment period {t} is negative"))
        refer(() if s.dominated_vertex is None else (s.dominated_vertex,), s, s.id, "dominated vertex")
        if s.periodic_fan:
            check_fan(s.periodic_fan, s, f"periodic fan of strip {s.id}")
    for f in fans:
        check_fan(f, None, f"fan {f.id}")
    refer([d for d, _ in dominations], None, "dominations", "dominating vertex")
    strip_ids = {s.id for s in strips}
    for _, sid in dominations:
        if sid not in strip_ids:
            violations.append(Violation("DanglingReference", "dominations", f"dominated strip {sid!r} does not exist"))

    if violations:
        raise PatternValidationError(violations)
    return PatternGraph(core_vertices, core_edges, tuple(strips), tuple(fans), tuple(dominations))


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


class _Adjacency(NamedTuple):
    """Neighbours of one template vertex, as offsets from its period and copy.

    A vertex at period t (strip, pfan) or copy k (fan, pfan) is adjacent to
    the template vertices named here, instantiated at the stated offset.
    """

    same: tuple[str, ...] = ()  # locals of the same period or copy
    next: tuple[str, ...] = ()  # strip locals of period t + 1
    prev: tuple[str, ...] = ()  # strip locals of period t - 1 (when t >= 1)
    host: tuple[str, ...] = ()  # strip locals of period t, for a periodic-fan vertex
    attach: tuple[tuple[int, VertexId], ...] = ()  # (period, core vertex) of a strip local
    fixed: frozenset = frozenset()  # neighbours independent of t and k; a core vertex's finite set
    pfan: tuple[str, ...] = ()  # periodic-fan locals with a copy at every period t of a strip local
    rules: tuple[SymbolicRule, ...] = ()  # a core vertex's rules, in Neighborhood order


def _grouped(pairs) -> dict:
    """{a: tuple of the b over the pairs (a, b), in order}."""
    out: dict = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return {a: tuple(bs) for a, bs in out.items()}


def _both_ways(edges):
    return [*edges, *((b, a) for a, b in edges)]


def _adjacency_index(g: PatternGraph) -> dict[tuple[str, str, str], _Adjacency]:
    """Adjacency of every template vertex, keyed by (kind, owner, local).

    Core vertices are keyed with an empty local.  Read by ``neighbors``
    and ``truncate``; built once per graph and never mutated.  A neighbour
    may be listed twice (a repeated edge): both readers deduplicate.
    """
    index = {}
    core_fin = [(a, core(b)) for a, b in _both_ways(g.core_edges)]
    core_rules = []
    for s in g.strips:
        same = _grouped(_both_ways(s.internal_edges))
        nxt = _grouped(s.step_edges)
        prv = _grouped((b, a) for a, b in s.step_edges)
        attach = _grouped((l, (t, core(c))) for c, t, l in s.attachments)
        core_fin += ((c, stripv(s.id, t, l)) for c, t, l in s.attachments)
        pf = s.periodic_fan
        pfan = _grouped((p, l) for l, p in pf.attach_edges) if pf else {}
        if pf:
            pf_same = _grouped(_both_ways(pf.edges))
            host = _grouped(pf.attach_edges)
            for l in pf.locals:
                index["pfan", s.id, l] = _Adjacency(same=pf_same.get(l, ()), host=host.get(l, ()))
        target = s.domination_target()
        dominators = frozenset(core(d) for d in g.dominators_of(s.id))
        core_rules += ((d.owner, SymbolicRule("every_period", s.id, target)) for d in dominators)
        for l in s.locals:
            index["strip", s.id, l] = _Adjacency(
                same=same.get(l, ()),
                next=nxt.get(l, ()),
                prev=prv.get(l, ()),
                attach=attach.get(l, ()),
                fixed=dominators if l == target else frozenset(),
                pfan=tuple(sorted(set(pfan.get(l, ())))),
            )
    for f in g.fans:
        same = _grouped(_both_ways(f.edges))
        attached = _grouped((l, core(c)) for l, c in f.attach_edges)
        core_rules += ((c, SymbolicRule("every_copy", f.id, l)) for l, c in f.attach_edges)
        for l in f.locals:
            index["fan", f.id, l] = _Adjacency(same=same.get(l, ()), fixed=frozenset(attached.get(l, ())))
    fin = _grouped(core_fin)
    rules = _grouped(core_rules)
    for c in g.core_vertices:
        rs = sorted(set(rules.get(c, ())), key=lambda r: (r.kind, r.owner, r.t, r.local))
        index["core", c, ""] = _Adjacency(fixed=frozenset(fin.get(c, ())), rules=tuple(rs))
    return index


def neighbors(g: PatternGraph, v: VertexId) -> Neighborhood:
    """Exact neighbourhood of v: a finite part plus symbolic rules."""
    g.check_vertex(v)
    kind, owner, t, k, local = v
    if kind == "core":
        e = g._adjacency["core", owner, ""]
        return Neighborhood(e.fixed, e.rules)
    e = g._adjacency[kind, owner, local]
    fin = {VertexId(kind, owner, t, k, m) for m in e.same}
    fin.update(e.fixed)
    fin.update(stripv(owner, t + 1, m) for m in e.next)
    if t >= 1:
        fin.update(stripv(owner, t - 1, m) for m in e.prev)
    fin.update(c for p, c in e.attach if p == t)
    fin.update(stripv(owner, t, m) for m in e.host)
    rules = tuple(SymbolicRule("every_pfan_copy", owner, m, t=t) for m in e.pfan)
    return Neighborhood(frozenset(fin), rules)


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
    adj = g._adjacency
    cores = {c: core(c) for c in g.core_vertices}
    # one {local: vertex} row per period or copy; every edge endpoint is
    # taken from these rows, so each vertex object is built once
    rows = {s.id: [{l: stripv(s.id, t, l) for l in s.locals} for t in range(periods)] for s in g.strips}
    pfan_rows = {
        s.id: [[{l: pfanv(s.id, t, k, l) for l in s.periodic_fan.locals} for k in range(copies)] for t in range(periods)]
        for s in g.strips
        if s.periodic_fan
    }
    fan_rows = {f.id: [{l: fanv(f.id, k, l) for l in f.locals} for k in range(copies)] for f in g.fans}
    every_row = [cores, *(r for rs in rows.values() for r in rs), *(r for rs in fan_rows.values() for r in rs)]
    every_row += (r for ts in pfan_rows.values() for rs in ts for r in rs)
    keys = {v: v.sort_key() for row in every_row for v in row.values()}
    edges: dict[frozenset, tuple] = {}  # edge -> (smaller sort_key, larger sort_key)
    boundary = set()

    def link(a, b):
        ka, kb = keys[a], keys[b]
        edges[frozenset((a, b))] = (ka, kb) if ka < kb else (kb, ka)

    # Each edge is linked from one side: a core vertex links its core
    # neighbours and strip attachments; strip, fan and periodic-fan
    # vertices link the same-period or same-copy neighbours named after
    # them, the next period, their dominators, attached cores and hosts.
    # A vertex has a rule, or a neighbour beyond the bounds, exactly when
    # it lies on the boundary.
    for c, v in cores.items():
        e = adj["core", c, ""]
        if e.rules:
            boundary.add(v)
        for w in e.fixed:
            if w.kind == "core":
                link(v, cores[w.owner])
            elif w.t < periods:
                link(v, rows[w.owner][w.t][w.local])
            else:
                boundary.add(v)
    for s in g.strips:
        strip_rows = rows[s.id]
        for l in s.locals:
            e = adj["strip", s.id, l]
            for t, row in enumerate(strip_rows):
                v = row[l]
                for m in e.same:
                    if l < m:
                        link(v, row[m])
                if e.next:
                    if t + 1 < periods:
                        after = strip_rows[t + 1]
                        for m in e.next:
                            link(v, after[m])
                    else:
                        boundary.add(v)
                for d in e.fixed:
                    link(v, cores[d.owner])
                if e.pfan:
                    boundary.add(v)
        if s.periodic_fan:
            for l in s.periodic_fan.locals:
                e = adj["pfan", s.id, l]
                for t, copy_rows in enumerate(pfan_rows[s.id]):
                    for row in copy_rows:
                        v = row[l]
                        for m in e.same:
                            if l < m:
                                link(v, row[m])
                        for p in e.host:
                            link(v, strip_rows[t][p])
    for f in g.fans:
        for l in f.locals:
            e = adj["fan", f.id, l]
            for row in fan_rows[f.id]:
                v = row[l]
                for m in e.same:
                    if l < m:
                        link(v, row[m])
                for c in e.fixed:
                    link(v, cores[c.owner])
    verts_sorted = tuple(sorted(keys, key=keys.__getitem__))
    edges_sorted = tuple(sorted(edges, key=edges.__getitem__))
    return FiniteGraph(verts_sorted, edges_sorted, frozenset(boundary))
