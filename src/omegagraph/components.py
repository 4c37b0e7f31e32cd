"""Exact symbolic components of G - X for finite X.

``delete`` decomposes the infinite graph minus a finite vertex set into

* explicit finite components,
* infinite families (one descriptor standing for "each remaining copy of
  this fan is its own component"), and
* big components: an explicit finite part plus strip tails and whole fan
  families absorbed into one connected piece,

each carrying its exact neighbourhood inside X.  Union-find runs over
explicit vertices only where X or an attachment marks a period, and over
symbolic nodes for the rest: one per fan family, one per strip tail
(from one past the last period X meets), and one per run of unmarked
periods between marked ones.  A run is connected, together with its
periodic fans, because the period template is connected, some step edge
joins consecutive periods and every periodic fan attaches to its period;
so it is wired like a single period to its neighbours and dominators.
Past the stabilization bound the pattern is untouched, so the symbolic
parts are exact.

The union-find grows with X and the attachments, not with the deepest
period: X is read once, and each node is found once when the classes
are gathered.  Only the output, which lists every vertex and handle of a
run, grows with the deepest period.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .ids import VertexId, core, stripv, vertex_set_key
from .pattern import PatternGraph, truncate
from . import oracle as _oracle


class InvariantError(AssertionError):
    """An internal invariant failed.

    Raised explicitly, so that the check survives ``python -O``; being an
    AssertionError, it reaches the CLI's internal-failure exit code 2.
    """


class NotNestedError(ValueError):
    pass


class UnknownComponentError(KeyError):
    pass


class NotASubsetError(ValueError):
    pass


class NotCriticalError(ValueError):
    pass


class YContainedInXError(ValueError):
    pass


# A family handle names one omega-indexed batch of fan copies.
#   ("fan", fan_id)            copies of a core fan
#   ("pfan", strip_id, t)      copies of a strip's periodic fan at period t
Handle = tuple


def handle_sort_key(h: Handle):
    return (h[0], h[1], h[2] if len(h) > 2 else -1)


@dataclass(frozen=True)
class TailSeg:
    strip: str
    start: int  # all strip material from this period onward


@dataclass(frozen=True)
class ComponentDescriptor:
    kind: str  # "finite" | "big" | "family"
    vertices: frozenset  # explicit part
    tails: tuple[TailSeg, ...]
    families: tuple[tuple[Handle, frozenset], ...]  # (handle, excluded copies)
    neighborhood: frozenset

    def __post_init__(self):
        # computed once; an attribute, not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_key", (
            self.kind,
            vertex_set_key(self.vertices),
            tuple((t.strip, t.start) for t in self.tails),
            tuple((h, tuple(sorted(e))) for h, e in self.families),
        ))

    def key(self):
        return self._key

    def sort_key(self):
        if self.vertices:
            return (0,) + self._key[1][0], self.key()
        if self.tails:
            t = self.tails[0]
            return (1, t.strip, t.start), self.key()
        h, _ = self.families[0]
        return (2,) + tuple(handle_sort_key(h)), self.key()

    def handle(self) -> Handle:
        if self.kind != "family":
            raise InvariantError(f"a {self.kind} component has no family handle")
        return self.families[0][0]

    def excluded(self) -> frozenset:
        if self.kind != "family":
            raise InvariantError(f"a {self.kind} component has no excluded copies")
        return self.families[0][1]


def handle_of(v: VertexId) -> Handle:
    """The handle of the family whose copy holds the fan or periodic-fan vertex v."""
    if v.kind not in ("fan", "pfan"):
        raise ValueError(f"{v} lies in no fan copy")
    return ("fan", v.owner) if v.kind == "fan" else ("pfan", v.owner, v.t)


def family_template(g: PatternGraph, handle: Handle):
    """(template, vertex, anchor): the family's ``Fan`` and two partials of
    VertexId(kind, owner, t, k, local), ``vertex(k, local)`` for copy k and
    ``anchor(name)`` for an attach name: a core vertex, or one of the period."""
    if handle[0] == "fan":
        f = g.fan(handle[1])
        return f, functools.partial(VertexId, "fan", f.id, -1), functools.partial(VertexId, "core")
    s, t = g.strip(handle[1]), handle[2]
    return s.periodic_fan, functools.partial(VertexId, "pfan", s.id, t), functools.partial(VertexId, "strip", s.id, t, -1)


def family_handles(g: PatternGraph, periods: int) -> list[Handle]:
    """The core fans' handles, then each strip's periodic fan at the periods below the bound."""
    return [("fan", f.id) for f in g.fans] + [("pfan", s.id, t) for s in g.strips if s.periodic_fan for t in range(periods)]


def anchoring_handles(g: PatternGraph, v: VertexId) -> list[Handle]:
    """The families whose anchors may hold v: the core fans for a core vertex,
    the periodic fan at its period for a strip vertex."""
    if v.kind == "core":
        return family_handles(g, 0)
    return [("pfan", v.owner, v.t)] if v.kind == "strip" and g.strip(v.owner).periodic_fan else []


def copy_vertices(g: PatternGraph, handle: Handle, k: int) -> frozenset:
    fan, vertex, _ = family_template(g, handle)
    return frozenset(vertex(k, l) for l in fan.locals)


def handle_attach_vertices(g: PatternGraph, handle: Handle) -> frozenset:
    """The anchors of a family: the vertices each of its copies is adjacent to.

    The critical sets are exactly these anchor sets.  X is critical when
    G - X has infinitely many components with neighbourhood exactly X.  All
    but finitely many components of G - X are whole fan copies, and a copy's
    neighbourhood is its family's anchor set, since validation gives every
    anchor a template edge.
    """
    fan, _, anchor = family_template(g, handle)
    return frozenset(map(anchor, fan.attach))


def is_critical(g: PatternGraph, Y) -> bool:
    """Exact decision: Y is the anchor set of some family (see ``handle_attach_vertices``)."""
    Y = frozenset(Y)
    for v in Y:
        g.check_vertex(v)
    # each vertex of Y would be an anchor, so any one of them names the candidates
    v = next(iter(Y), None)
    handles = anchoring_handles(g, v) if v else family_handles(g, 0)
    return Y in map(functools.partial(handle_attach_vertices, g), handles)


@dataclass(frozen=True)
class CXFamily:
    """The symbolic set C_X(Y): components of G - X with N(C) = Y."""

    Y: frozenset
    explicit: tuple[ComponentDescriptor, ...]
    families: tuple[ComponentDescriptor, ...]

    def is_infinite(self) -> bool:
        return bool(self.families)

    def is_empty(self) -> bool:
        return not self.explicit and not self.families


class ComponentSystem:
    """Components of G - X with derived caches, immutable after build."""

    def __init__(self, g: PatternGraph, X):
        self.g = g
        self.X = frozenset(X)
        for v in self.X:
            g.check_vertex(v)
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        g, X = self.g, self.X
        # read X once: periods it meets per strip, copies it hits per handle
        met: dict[str, list[int]] = {s.id: [] for s in g.strips}
        hit: dict[Handle, list[int]] = {}
        for v in X:
            if v.kind in ("strip", "pfan"):
                met[v.owner].append(v.t)
            if v.kind in ("fan", "pfan"):
                hit.setdefault(handle_of(v), []).append(v.k)
        # horizon per strip: X and the attachments touch only periods below it, minus one
        self.T: dict[str, int] = {
            s.id: max([t for _, t, _ in s.attachments] + met[s.id], default=-2) + 2 for s in g.strips
        }
        # X meets no period from the tail start on, so all of that is one piece
        self._start: dict[str, int] = {sid: max(ts, default=-1) + 1 for sid, ts in met.items()}
        # below it, periods that X or an attachment mentions get explicit nodes;
        # each run of other periods is one node, since it is connected with its fans
        segs: dict[str, list[tuple]] = {}  # per strip, in order: (first period, node or None if explicit)
        handles: list[Handle] = [("fan", f.id) for f in g.fans]
        explicit: list[VertexId] = [core(c) for c in g.core_vertices]
        for s in g.strips:
            start = self._start[s.id]
            marked = sorted({t for _, t, _ in s.attachments if t < start}.union(met[s.id]))
            seq, a = [], 0
            for t in marked:
                if a < t:
                    seq.append((a, ("run", s.id, a, t)))
                seq.append((t, None))
                explicit.extend(stripv(s.id, t, l) for l in s.locals)
                if s.periodic_fan:
                    handles.append(("pfan", s.id, t))
                a = t + 1
            seq.append((start, ("tail", s.id)))
            segs[s.id] = seq
        self.excl: dict[Handle, frozenset] = {h: frozenset(hit.get(h, ())) for h in handles}
        for handle, excl in self.excl.items():
            if excl:
                fan, vertex, _ = family_template(g, handle)
                explicit.extend(vertex(k, l) for k in sorted(excl) for l in fan.locals)
        nodes = [("v", v) for v in explicit if v not in X]
        nodes += [node for seq in segs.values() for _, node in seq if node]
        nodes += [("fam",) + h for h in self.excl]

        uf = _oracle.UnionFind(nodes)
        nmarks: dict[tuple, set] = {n: set() for n in nodes}

        def wire(a, b):
            # a, b are node keys; vertex nodes may reference deleted vertices
            a_del = a[0] == "v" and a[1] in X
            b_del = b[0] == "v" and b[1] in X
            if a_del and b_del:
                return
            if a_del:
                nmarks[b].add(a[1])
            elif b_del:
                nmarks[a].add(b[1])
            else:
                uf.union(a, b)

        def vk(v):
            return ("v", v)

        for a, b in g.core_edges:
            wire(vk(core(a)), vk(core(b)))
        for s in g.strips:
            seq = segs[s.id]
            # a run or the tail is its own node; an explicit period has one per vertex
            for (t, node), (u, nxt) in zip(seq, seq[1:]):
                if node is None:
                    for a, b in s.internal_edges:
                        wire(vk(stripv(s.id, t, a)), vk(stripv(s.id, t, b)))
                for a, b in s.step_edges:
                    wire(node or vk(stripv(s.id, u - 1, a)), nxt or vk(stripv(s.id, u, b)))
            for c, t, l in s.attachments:
                wire(vk(core(c)), vk(stripv(s.id, t, l)) if t < self._start[s.id] else ("tail", s.id))
        for d, sid in g.dominations:
            tgt = g.strip(sid).domination_target()
            for t, node in segs[sid]:
                wire(vk(core(d)), node or vk(stripv(sid, t, tgt)))
        for handle, excl in self.excl.items():
            fan, vertex, anchor = family_template(g, handle)
            # anchors of one family differ only in their name, so this is sort_key order
            for c in sorted(set(fan.attach)):
                wire(("fam",) + handle, vk(anchor(c)))
            for k in sorted(excl):
                for a, b in fan.edges:
                    wire(vk(vertex(k, a)), vk(vertex(k, b)))
                for l, c in fan.attach_edges:
                    wire(vk(vertex(k, l)), vk(anchor(c)))

        # gather classes and their material in one pass over the nodes
        classes: dict[tuple, dict] = {}
        for n in nodes:
            root = uf.find(n)
            cls = classes.setdefault(root, {"verts": [], "tails": [], "fams": [], "N": set()})
            if n[0] == "v":
                cls["verts"].append(n[1])
            elif n[0] == "tail":
                cls["tails"].append(n[1])
            elif n[0] == "fam":
                cls["fams"].append(tuple(n[1:]))
            else:  # a run: its strip vertices and its periodic-fan handles, none excluded
                _, sid, a, b = n
                s = g.strip(sid)
                cls["verts"].extend(stripv(sid, t, l) for t in range(a, b) for l in s.locals)
                if s.periodic_fan:
                    cls["fams"].extend(("pfan", sid, t) for t in range(a, b))
            cls["N"] |= nmarks[n]

        self._vertex_desc: dict[VertexId, ComponentDescriptor] = {}
        self._handle_desc: dict[Handle, ComponentDescriptor] = {}
        self._tail_desc: dict[str, ComponentDescriptor] = {}
        descs: list[ComponentDescriptor] = []
        for cls in classes.values():
            verts, tails, fams = cls["verts"], cls["tails"], cls["fams"]
            if not verts and not tails and len(fams) == 1:
                desc = ComponentDescriptor(
                    "family",
                    frozenset(),
                    (),
                    ((fams[0], self.excl[fams[0]]),),
                    frozenset(cls["N"]),
                )
            else:
                desc = ComponentDescriptor(
                    "big" if tails or fams else "finite",
                    frozenset(verts),
                    tuple(TailSeg(sid, self._start[sid]) for sid in sorted(tails)),
                    # plain tuple order is handle_sort_key's: fan and pfan handles differ first
                    tuple((h, self.excl.get(h, frozenset())) for h in sorted(fams)),
                    frozenset(cls["N"]),
                )
            descs.append(desc)
            self._vertex_desc.update(dict.fromkeys(verts, desc))
            self._handle_desc.update(dict.fromkeys(fams, desc))
            self._tail_desc.update(dict.fromkeys(tails, desc))

        descs.sort(key=ComponentDescriptor.sort_key)
        self.descriptors: tuple = tuple(descs)
        self.explicit_descriptors = tuple(d for d in descs if d.kind != "family")
        self.family_descriptors = tuple(d for d in descs if d.kind == "family")
        self.explicit_keys = frozenset(d.key() for d in self.explicit_descriptors)
        self._by_key = {d.key(): d for d in descs}

        by_nbhd: dict[frozenset, dict] = {}
        for d in descs:
            slot = by_nbhd.setdefault(d.neighborhood, {"explicit": [], "families": []})
            slot["families" if d.kind == "family" else "explicit"].append(d)
        self._by_nbhd = by_nbhd
        self._crit = frozenset(N for N, slot in by_nbhd.items() if slot["families"])
        self._cx_minus = tuple(
            d for d in self.explicit_descriptors if d.neighborhood not in self._crit
        )
        excl_tops = [max(e) + 2 for e in self.excl.values() if e]
        self.stabilization_bound = max([1] + list(self.T.values()) + excl_tops)

    # -- queries -----------------------------------------------------------

    def descriptor(self, key) -> ComponentDescriptor:
        try:
            return self._by_key[key]
        except KeyError:
            raise UnknownComponentError(key) from None

    def tail_descriptor(self, strip_id: str) -> ComponentDescriptor:
        try:
            return self._tail_desc[strip_id]
        except KeyError:
            raise UnknownComponentError(strip_id) from None

    def handle_descriptor(self, handle: Handle) -> ComponentDescriptor:
        """The descriptor whose material includes the copies of handle."""
        if handle in self._handle_desc:
            return self._handle_desc[handle]
        start = self._start.get(handle[1]) if handle[0] == "pfan" else None
        if start is not None and handle[2] >= start and self.g.strip(handle[1]).periodic_fan:
            return self._tail_desc[handle[1]]
        raise UnknownComponentError(handle)

    def handle_excluded(self, handle: Handle) -> frozenset:
        return self.excl.get(handle, frozenset())

    def locate(self, v: VertexId) -> ComponentDescriptor:
        """Descriptor of the component containing v (v must avoid X)."""
        self.g.check_vertex(v)
        if v in self.X:
            raise UnknownComponentError(f"{v} lies in the deleted set")
        if v in self._vertex_desc:
            return self._vertex_desc[v]
        if v.kind == "strip":
            return self.tail_descriptor(v.owner)
        # core vertices are all explicit, so v is a fan or periodic-fan vertex
        return self.handle_descriptor(handle_of(v))

    def family(self, Y) -> CXFamily:
        Y = frozenset(Y)
        if not Y <= self.X:
            raise NotASubsetError(f"{sorted(map(str, Y - self.X))} not inside X")
        slot = self._by_nbhd.get(Y, {"explicit": (), "families": ()})
        return CXFamily(Y, tuple(slot["explicit"]), tuple(slot["families"]))

    def crit(self) -> frozenset:
        return self._crit

    def cx_minus(self) -> tuple:
        return self._cx_minus


def delete(g: PatternGraph, X) -> ComponentSystem:
    """Exact component decomposition of G - X."""
    return ComponentSystem(g, X)


def _probe_vertex(g: PatternGraph, desc: ComponentDescriptor) -> VertexId:
    if desc.kind == "family":
        handle, excl = desc.families[0]
        k = 0
        while k in excl:
            k += 1
        return min(copy_vertices(g, handle, k), key=VertexId.sort_key)
    if desc.vertices:
        return min(desc.vertices, key=VertexId.sort_key)
    seg = desc.tails[0]
    s = g.strip(seg.strip)
    return stripv(seg.strip, seg.start, min(s.locals))


def bonding_c(cs: ComponentSystem, cs_prime: ComponentSystem, desc: ComponentDescriptor) -> ComponentDescriptor:
    """Map a component of G - X' to the component of G - X including it."""
    if cs.g is not cs_prime.g and cs.g != cs_prime.g:
        raise NotNestedError("component systems over different graphs")
    if not cs.X <= cs_prime.X:
        raise NotNestedError(f"{sorted(map(str, cs.X))} does not nest into {sorted(map(str, cs_prime.X))}")
    if desc.key() not in cs_prime._by_key:
        raise UnknownComponentError(desc.key())
    if cs.X == cs_prime.X:
        return desc
    return cs.locate(_probe_vertex(cs.g, desc))


def unique_component_meeting(cs: ComponentSystem, Y) -> ComponentDescriptor:
    """The unique component of G - X meeting the critical set Y."""
    Y = frozenset(Y)
    if not is_critical(cs.g, Y):
        raise NotCriticalError(f"{sorted(map(str, Y))} is not critical")
    if Y <= cs.X:
        raise YContainedInXError(f"{sorted(map(str, Y))} is contained in X")
    hits = {cs.locate(v).key() for v in Y - cs.X}
    if len(hits) != 1:
        raise InvariantError("critical set met by more than one component")
    return cs.descriptor(hits.pop())


# ---------------------------------------------------------------------------
# Oracle comparison

def materialize(cs: ComponentSystem, desc: ComponentDescriptor, periods: int, copies: int) -> list[frozenset]:
    """Concrete vertex sets of desc inside the (periods, copies) truncation.

    A family descriptor yields one set per member copy below the bound;
    other descriptors yield a single set.
    """
    g = cs.g
    if desc.kind == "family":
        handle, excl = desc.families[0]
        return [copy_vertices(g, handle, k) for k in range(copies) if k not in excl]
    base = set(desc.vertices)
    families = list(desc.families)
    for seg in desc.tails:
        s = g.strip(seg.strip)
        for t in range(seg.start, periods):
            base.update(stripv(seg.strip, t, l) for l in s.locals)
        # a tail holds every copy of its periodic fans
        if s.periodic_fan:
            families += ((("pfan", s.id, t), ()) for t in range(seg.start, periods))
    for handle, excl in families:
        fan, vertex, _ = family_template(g, handle)
        base.update(vertex(k, l) for k in range(copies) if k not in excl for l in fan.locals)
    return [frozenset(base)]


def oracle_mismatch(cs: ComponentSystem, periods: int, copies: int):
    """Compare symbolic components against brute force on a truncation.

    Returns None on exact agreement, else a human-readable mismatch.
    Bounds must be at least the recorded stabilization bound.
    """
    if min(periods, copies) < cs.stabilization_bound:
        raise ValueError("truncation bounds below stabilization bound")
    fg = truncate(cs.g, periods, copies)
    got = {c.vertices: c.neighborhood for c in _oracle.components_after_deletion(fg, cs.X)}
    want = {}
    for desc in cs.descriptors:
        for piece in materialize(cs, desc, periods, copies):
            if piece in want:
                return f"overlapping symbolic pieces at {sorted(map(str, piece))[:4]}"
            want[piece] = desc.neighborhood
    if set(want) != set(got):
        only_sym = [sorted(map(str, p))[:4] for p in set(want) - set(got)]
        only_ora = [sorted(map(str, p))[:4] for p in set(got) - set(want)]
        return f"component sets differ; symbolic-only={only_sym[:3]} oracle-only={only_ora[:3]}"
    for piece, nb in want.items():
        if got[piece] != nb:
            return (
                f"neighborhood mismatch on {sorted(map(str, piece))[:4]}: "
                f"symbolic={sorted(map(str, nb))} oracle={sorted(map(str, got[piece]))}"
            )
    return None
