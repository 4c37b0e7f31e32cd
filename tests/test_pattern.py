"""Pattern graph validation, neighborhoods, degrees, truncation."""

import copy
import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagraph.ids import (
    VertexId,
    core,
    fanv,
    format_vertex,
    parse_vertex,
    pfanv,
    stripv,
)
from omegagraph import fixture_graphs, pattern
from omegagraph.pattern import (
    FiniteGraph,
    Neighborhood,
    PatternGraph,
    PatternValidationError,
    SymbolicRule,
    UnknownVertexError,
    degree_class,
    neighbors,
    to_raw,
    truncate,
    validate,
)
from conftest import FIXTURE_NAMES, random_pattern


# ---------------------------------------------------------------------------
# Vertex ids

@pytest.mark.parametrize(
    "token",
    ["core:a", "strip:s1/5/p", "fan:f1/3/u", "pfan:s1/2/0/w"],
)
def test_vertex_token_round_trip(token):
    v = parse_vertex(token)
    assert format_vertex(v) == token
    assert parse_vertex(format_vertex(v)) == v


@pytest.mark.parametrize("bad", ["a", "core:", "strip:s1/5", "fan:f1/x/u", "blob:1"])
def test_vertex_token_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_vertex(bad)


def test_vertex_order_is_total():
    vs = [core("b"), stripv("s1", 0, "p"), fanv("f1", 2, "u"), core("a"), pfanv("s1", 0, 1, "w")]
    assert sorted(vs, key=VertexId.sort_key) == sorted(vs)


def test_vertex_order_follows_sort_key_not_field_order():
    # as plain tuples "fan" < "pfan" < "strip"; the kind order puts strips first
    z, s, f, pf = core("z"), stripv("s", 0, "p"), fanv("a", 0, "u"), pfanv("a", 0, 0, "w")
    assert sorted([pf, f, s, z]) == [z, s, f, pf]
    assert z < s < f < pf and pf > f > s > z
    assert s <= s and s >= s and not s < s
    assert min([f, s]) == s and max([f, s]) == f


def test_vertex_id_is_its_plain_tuple():
    v = pfanv("s1", 2, 0, "w")
    assert v == ("pfan", "s1", 2, 0, "w")
    assert hash(v) == hash((v.kind, v.owner, v.t, v.k, v.local))
    assert core("a") == VertexId("core", "a", -1, -1, "")


def test_vertex_id_rejects_foreign_order_and_mutation():
    v = stripv("s1", 5, "p")
    with pytest.raises(TypeError):
        v < 1
    with pytest.raises(TypeError):
        v >= 1
    with pytest.raises(AttributeError):
        v.t = 6
    assert str(v) == "strip:s1/5/p"
    assert repr(v) == "VertexId('strip:s1/5/p')"


# ---------------------------------------------------------------------------
# Validation

def test_star_fixture_is_valid(fixtures):
    g = fixtures["star"]
    assert g.core_vertices == ("c",)
    assert validate(to_raw(g)) == g


def test_strip_strip_edge_rejected():
    raw = {
        "core": {"vertices": [], "edges": []},
        "strips": [
            {"id": "s1", "period": {"vertices": ["p"], "edges": []}, "step_edges": [["p", "p"]]},
            {"id": "s2", "period": {"vertices": ["q"], "edges": []}, "step_edges": [["q", "q"]],
             "attachments": []},
        ],
        "fans": [],
        "dominations": [],
    }
    raw["strips"][1]["period"]["edges"] = [["q", "p"]]  # edge into strip s1
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    kinds = {v.kind for v in exc.value.violations}
    assert "StripStripEdge" in kinds


def test_attachment_not_covered_rejected():
    raw = {
        "core": {"vertices": ["a", "b"], "edges": []},
        "strips": [],
        "fans": [
            {
                "id": "f1",
                "template": {"vertices": ["u"], "edges": []},
                "attach": ["a", "b"],
                "attach_edges": [["u", "a"]],  # b not covered
            }
        ],
        "dominations": [],
    }
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    assert any(v.kind == "AttachmentNotCovered" and "'b'" in v.message for v in exc.value.violations)


def test_dangling_reference_rejected():
    raw = {
        "core": {"vertices": ["a"], "edges": [["a", "zz"]]},
        "strips": [],
        "fans": [],
        "dominations": [{"core": "nope", "strip": "s9"}],
    }
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    assert sum(v.kind == "DanglingReference" for v in exc.value.violations) >= 2


def test_disconnected_period_chain_rejected():
    raw = {
        "core": {"vertices": [], "edges": []},
        "strips": [
            {"id": "s1", "period": {"vertices": ["p", "q"], "edges": []}, "step_edges": [["p", "p"]]}
        ],
        "fans": [],
        "dominations": [],
    }
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    assert any(v.kind == "DisconnectedPeriodChain" for v in exc.value.violations)


def test_name_collision_rejected():
    raw = {
        "core": {"vertices": ["u"], "edges": []},
        "strips": [],
        "fans": [
            {"id": "f1", "template": {"vertices": ["u"], "edges": []}, "attach": ["u"],
             "attach_edges": [["u", "u"]]}
        ],
        "dominations": [],
    }
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    assert any(v.kind == "NameCollision" for v in exc.value.violations)


@pytest.mark.parametrize("section", ["strips", "fans"])
def test_duplicate_id_rejected(section):
    raw = {
        "core": {"vertices": ["a"], "edges": []},
        "strips": [
            {"id": "s", "period": {"vertices": ["p"], "edges": []}, "step_edges": [["p", "p"]]},
            {"id": "s2", "period": {"vertices": ["q"], "edges": []}, "step_edges": [["q", "q"]]},
        ],
        "fans": [
            {"id": "f", "template": {"vertices": ["u"], "edges": []}, "attach": ["a"],
             "attach_edges": [["u", "a"]]},
            {"id": "f2", "template": {"vertices": ["w"], "edges": []}, "attach": ["a"],
             "attach_edges": [["w", "a"]]},
        ],
        "dominations": [],
    }
    validate(raw)
    # the later declaration used to shadow the earlier one: deleting
    # strip:s/0/p raised UnknownVertexError, and deleting core:a found one
    # fan family instead of two
    raw[section][1]["id"] = raw[section][0]["id"]
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    assert [v.kind for v in exc.value.violations] == ["DuplicateId"]


def test_empty_periodic_fan_attach_rejected(fixtures):
    raw = to_raw(fixtures["comb"])
    raw["strips"][0]["periodic_fan"]["attach"] = []
    raw["strips"][0]["periodic_fan"]["attach_edges"] = []
    with pytest.raises(PatternValidationError):
        validate(raw)


def test_replace_builds_its_own_indexes(fixtures):
    combo, ray = fixtures["combo"], fixtures["ray"]
    bare = dataclasses.replace(combo, strips=(), dominations=())
    with pytest.raises(UnknownVertexError):
        bare.strip("s1")
    assert combo.strip("s1").id == "s1"
    grown = dataclasses.replace(ray, core_vertices=ray.core_vertices + ("zz",))
    assert ("core", "zz", "") in grown._adjacency
    assert ("core", "zz", "") not in ray._adjacency
    assert ray._adjacency == pattern._adjacency_index(ray)
    assert [f.name for f in dataclasses.fields(PatternGraph)] == [
        "core_vertices", "core_edges", "strips", "fans", "dominations",
    ]


@pytest.mark.parametrize("seed", range(25))
def test_validation_soundness_on_random_patterns(seed):
    g = random_pattern(seed)
    assert validate(to_raw(g)) == g


def _ray_raw():
    return {
        "core": {"vertices": ["c"], "edges": []},
        "strips": [
            {"id": "s", "period": {"vertices": ["p"], "edges": []}, "step_edges": [["p", "p"]],
             "attachments": [{"core": "c", "period": 0, "local": "p"}]},
        ],
        "fans": [
            {"id": "f", "template": {"vertices": ["u"], "edges": []}, "attach": ["c"],
             "attach_edges": [["u", "c"]]},
        ],
        "dominations": [],
    }


def _replaced(raw, path, value):
    """raw with the value at path (a tuple of keys and indexes) replaced."""
    if not path:
        return value
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


# down to attach-edge-1, these raised a raw TypeError, AttributeError or ValueError before
MALFORMED = {
    "core-vertices-int": (("core", "vertices"), 5, "MalformedField"),
    "core-list": (("core",), ["c"], "MalformedField"),
    "strips-dict": (("strips",), {"s": _ray_raw()["strips"][0]}, "MalformedField"),
    "top-level-list": ((), [_ray_raw()], "MalformedField"),
    "step-edge-3": (("strips", 0, "step_edges", 0), ["p", "p", "p"], "InvalidEdge"),
    "attachment-period-str": (("strips", 0, "attachments", 0, "period"), "x", "MalformedField"),
    # int() read these as the periods 1, 1 and 3
    "attachment-period-float": (("strips", 0, "attachments", 0, "period"), 1.7, "MalformedField"),
    "attachment-period-bool": (("strips", 0, "attachments", 0, "period"), True, "MalformedField"),
    "attachment-period-padded-str": (("strips", 0, "attachments", 0, "period"), " 3 ", "MalformedField"),
    "attach-edge-1": (("fans", 0, "attach_edges", 0), ["u"], "InvalidEdge"),
    # names are read as strings, so this was accepted as the loop ("1", "1")
    "core-loop-int-str": (("core",), {"vertices": ["1"], "edges": [[1, "1"]]}, "InvalidEdge"),
    # str() read these as the names 'None', 'True', "['x']" and so on
    "core-vertex-null": (("core", "vertices"), ["c", None], "MalformedField"),
    "core-vertex-bool": (("core", "vertices"), ["c", True], "MalformedField"),
    "core-vertex-array": (("core", "vertices"), ["c", ["x"]], "MalformedField"),
    "core-edge-endpoint-null": (("core", "edges"), [["c", None]], "MalformedField"),
    "strip-id-object": (("strips", 0, "id"), {"x": 1}, "MalformedField"),
    "step-edge-endpoint-array": (("strips", 0, "step_edges", 0), ["p", ["p"]], "MalformedField"),
    "attachment-core-missing": (("strips", 0, "attachments", 0), {"period": 0, "local": "p"}, "MalformedField"),
    "attachment-local-null": (("strips", 0, "attachments", 0, "local"), None, "MalformedField"),
    "dominated-vertex-array": (("strips", 0, "dominated_vertex"), ["p"], "MalformedField"),
    "fan-id-bool": (("fans", 0, "id"), False, "MalformedField"),
    "fan-attach-object": (("fans", 0, "attach"), ["c", {}], "MalformedField"),
    "domination-strip-missing": (("dominations",), [{"core": "c"}], "MalformedField"),
    "domination-core-bool": (("dominations",), [{"core": True, "strip": "s"}], "MalformedField"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_rejected(case):
    path, value, kind = MALFORMED[case]
    validate(_ray_raw())
    with pytest.raises(PatternValidationError) as exc:
        validate(_replaced(_ray_raw(), path, value))
    assert kind in {v.kind for v in exc.value.violations}


@pytest.mark.parametrize(
    "renamed, kind",
    [("x/y", "ReservedCharacter"), ("x,y", "ReservedCharacter"), ("x:y", "ReservedCharacter"),
     ("{x", "ReservedCharacter"), ("x}", "ReservedCharacter"), ("", "MalformedField")],
)
@pytest.mark.parametrize("name", ["c", "s", "p", "f", "u"])
def test_unparseable_name_rejected(name, renamed, kind):
    # c is a core vertex, s a strip id, p a strip local, f a fan id and u a
    # fan local; each occurs in _ray_raw only as that name
    raw = json.loads(json.dumps(_ray_raw()).replace(f'"{name}"', json.dumps(renamed)))
    with pytest.raises(PatternValidationError) as exc:
        validate(raw)
    assert [v.kind for v in exc.value.violations] == [kind]


def _two_strips_raw():
    """_ray_raw with a periodic fan on strip s and a second strip t, whose local is q."""
    raw = _ray_raw()
    raw["strips"][0]["periodic_fan"] = {
        "id": "pf", "template": {"vertices": ["w"], "edges": []}, "attach": ["p"], "attach_edges": [["w", "p"]],
    }
    raw["strips"].append({"id": "t", "period": {"vertices": ["q"], "edges": []}, "step_edges": [["q", "q"]]})
    return raw


# one case per site of the reference rule: a name that must be a core vertex,
# or a local of the referring strip, is a StripStripEdge when another strip
# (t) owns it and a DanglingReference otherwise; each is reported exactly once
REFERENCES = {
    "core-edge": (("core", "edges"), [["c", "q"]], "StripStripEdge", "core"),
    "period-edge": (("strips", 0, "period", "edges"), [["p", "q"]], "StripStripEdge", "s"),
    # reported twice before: once per endpoint
    "step-edge-unknown-loop": (("strips", 0, "step_edges"), [["p", "p"], ["z", "z"]], "DanglingReference", "s"),
    "attachment-core": (("strips", 0, "attachments", 0, "core"), "q", "StripStripEdge", "s"),
    # down to fan-attach, these were a DanglingReference before
    "attachment-local": (("strips", 0, "attachments", 0, "local"), "q", "StripStripEdge", "s"),
    "dominated-vertex": (("strips", 0, "dominated_vertex"), "q", "StripStripEdge", "s"),
    "domination-core": (("dominations",), [{"core": "q", "strip": "s"}], "StripStripEdge", "dominations"),
    "periodic-fan-attach": (("strips", 0, "periodic_fan", "attach"), ["p", "q"], "StripStripEdge", "periodic fan of strip s"),
    "fan-attach": (("fans", 0, "attach"), ["c", "q"], "StripStripEdge", "fan f"),
    # a second DanglingReference(f) came from a loop over the attach edges before
    "fan-attached-to-strip-local": (
        ("fans", 0), {"id": "f", "template": {"vertices": ["u"], "edges": []}, "attach": ["q"],
                      "attach_edges": [["u", "q"]]},
        "StripStripEdge", "fan f",
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCES))
def test_bad_reference_reported_once(case):
    path, value, kind, element = REFERENCES[case]
    validate(_two_strips_raw())
    with pytest.raises(PatternValidationError) as exc:
        validate(_replaced(_two_strips_raw(), path, value))
    [v] = exc.value.violations
    assert (v.kind, v.element) == (kind, element)
    name = "q" if kind == "StripStripEdge" else "z"
    assert repr(name) in v.message
    assert kind == "DanglingReference" or "strip t" in v.message


# a fault that the spec shows twice is reported once; both were reported
# twice before, the negative period as a DanglingReference
REPEATS = {
    "fan-attach-uncovered": (
        ("fans", 0), {"id": "f", "template": {"vertices": ["u"], "edges": []}, "attach": ["c", "c"], "attach_edges": []},
        "AttachmentNotCovered", "fan f", "'c'",
    ),
    "attachment-period-negative": (
        ("strips", 0, "attachments"), [{"core": "c", "period": -1, "local": "p"}] * 2, "MalformedField", "s", "-1",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_repeated_fault_reported_once(case):
    path, value, kind, element, shown = REPEATS[case]
    with pytest.raises(PatternValidationError) as exc:
        validate(_replaced(_ray_raw(), path, value))
    [v] = exc.value.violations
    assert (v.kind, v.element) == (kind, element) and shown in v.message


def test_null_id_reads_as_missing():
    raw = _ray_raw()
    del raw["strips"][0]["id"], raw["fans"][0]["id"]
    nulled = _replaced(_replaced(_ray_raw(), ("strips", 0, "id"), None), ("fans", 0, "id"), None)
    assert validate(nulled) == validate(raw)
    assert [s.id for s in validate(nulled).strips] == ["strip0"]


_NAMES = st.text(st.sampled_from("ab0 é/,:{}"), max_size=3)


@given(_NAMES, _NAMES, _NAMES, _NAMES, _NAMES, _NAMES)
@settings(max_examples=200, deadline=None)
def test_vertex_tokens_round_trip_on_valid_graphs(c, s, p, w, f, u):
    raw = {
        "core": {"vertices": [c], "edges": []},
        "strips": [{
            "id": s, "period": {"vertices": [p], "edges": []}, "step_edges": [[p, p]],
            "attachments": [{"core": c, "period": 1, "local": p}],
            "periodic_fan": {"id": "pf", "template": {"vertices": [w], "edges": []}, "attach": [p],
                             "attach_edges": [[w, p]]},
        }],
        "fans": [{"id": f, "template": {"vertices": [u], "edges": []}, "attach": [c],
                  "attach_edges": [[u, c]]}],
    }
    names = (c, s, p, w, f, u)
    unparseable = any(not n or set(n) & set("/,:{}") for n in names)
    try:
        g = validate(raw)
    except PatternValidationError:
        assert unparseable or len({c, p, w, u}) < 4  # or a NameCollision
        return
    assert not unparseable
    fg = truncate(g, 2, 2)
    assert {v.kind for v in fg.vertices} == {"core", "strip", "fan", "pfan"}
    for v in fg.vertices:
        assert parse_vertex(format_vertex(v)) == v


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _json_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


@given(st.sampled_from(FIXTURE_NAMES), st.integers(0, 10 ** 6), _JSON)
@settings(max_examples=200, deadline=None)
def test_any_json_value_validates_or_is_rejected(name, pick, value):
    # the value replaces the whole spec or one node of a fixture's spec
    raw = to_raw(fixture_graphs.load_fixture(name))
    paths = list(_json_paths(raw))
    try:
        g = validate(_replaced(raw, paths[pick % len(paths)], value))
    except PatternValidationError:
        return
    assert isinstance(g, PatternGraph)
    truncate(g, 2, 2)  # an accepted graph is usable, not just constructed


def test_round_trip_all_fixtures(fixtures):
    for name, g in fixtures.items():
        again = validate(json.loads(json.dumps(to_raw(g))))
        assert again == g, name


# ---------------------------------------------------------------------------
# Neighborhoods and degrees

def test_ray_interior_neighbors(fixtures):
    nb = neighbors(fixtures["ray"], stripv("s1", 5, "p"))
    assert nb.finite == {stripv("s1", 4, "p"), stripv("s1", 6, "p")}
    assert not nb.rules


def test_domray_dominator_neighbors(fixtures):
    nb = neighbors(fixtures["domray"], core("d"))
    assert not nb.finite
    assert [(r.kind, r.owner, r.local) for r in nb.rules] == [("every_period", "s1", "p")]


def test_star_center_neighbors(fixtures):
    nb = neighbors(fixtures["star"], core("c"))
    assert [(r.kind, r.owner, r.local) for r in nb.rules] == [("every_copy", "f1", "u")]


def test_unknown_vertex_raises(fixtures):
    with pytest.raises(UnknownVertexError):
        neighbors(fixtures["ray"], core("z"))
    with pytest.raises(UnknownVertexError):
        degree_class(fixtures["star"], fanv("f9", 0, "u"))


def test_degree_classes(fixtures):
    assert degree_class(fixtures["ray"], stripv("s1", 0, "p")) == 1
    assert degree_class(fixtures["star"], core("c")) == math.inf
    assert degree_class(fixtures["thetafan"], fanv("f1", 3, "u")) == 2


# ---------------------------------------------------------------------------
# Truncation

def test_truncate_ray(fixtures):
    fg = truncate(fixtures["ray"], 3, 0)
    assert [format_vertex(v) for v in fg.vertices] == [
        "strip:s1/0/p",
        "strip:s1/1/p",
        "strip:s1/2/p",
    ]
    assert len(fg.edges) == 2
    assert fg.boundary == {stripv("s1", 2, "p")}


def test_truncate_star(fixtures):
    fg = truncate(fixtures["star"], 0, 4)
    assert len(fg.vertices) == 5
    assert len(fg.edges) == 4
    assert fg.boundary == {core("c")}


def test_truncate_comb(fixtures):
    # enumerate by hand: 2 path vertices, each with 2 leaves
    fg = truncate(fixtures["comb"], 2, 2)
    path = [stripv("s1", t, "p") for t in range(2)]
    leaves = [pfanv("s1", t, k, "u") for t in range(2) for k in range(2)]
    assert set(fg.vertices) == set(path) | set(leaves)
    want_edges = {frozenset((path[0], path[1]))}
    want_edges |= {frozenset((pfanv("s1", t, k, "u"), stripv("s1", t, "p"))) for t in range(2) for k in range(2)}
    assert set(fg.edges) == want_edges
    assert fg.boundary == {stripv("s1", 0, "p"), stripv("s1", 1, "p")}


@pytest.mark.parametrize("seed", range(12))
def test_truncation_monotone(seed):
    g = random_pattern(seed)
    rng = random.Random(seed * 7 + 1)
    t1, m1 = rng.randint(0, 3), rng.randint(0, 3)
    t2, m2 = t1 + rng.randint(0, 2), m1 + rng.randint(0, 2)
    small, big = truncate(g, t1, m1), truncate(g, t2, m2)
    sv = set(small.vertices)
    assert sv <= set(big.vertices)
    induced = {e for e in big.edges if e <= sv}
    assert set(small.edges) == induced


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_truncation_boundary_matches_neighbors(seed):
    g = random_pattern(seed)
    fg = truncate(g, 2, 2)
    vset = set(fg.vertices)
    for v in fg.vertices:
        nb = neighbors(g, v)
        cut = bool(nb.rules) or any(w not in vset for w in nb.finite)
        assert (v in fg.boundary) == cut, format_vertex(v)


@pytest.mark.parametrize("seed", range(8))
def test_truncation_degree_agreement(seed):
    g = random_pattern(seed)
    fg = truncate(g, 3, 3)
    adj = fg.adjacency()
    for v in fg.vertices:
        if v in fg.boundary:
            continue
        assert degree_class(g, v) == len(adj[v]), format_vertex(v)
    # infinite-degree vertices gain neighbours without bound
    infinite = [v for v in fg.vertices if degree_class(g, v) == math.inf]
    degs = []
    for bound in (3, 5, 7):
        adj_b = truncate(g, bound, bound).adjacency()
        degs.append([len(adj_b[v]) for v in infinite])
    for run in zip(*degs):
        assert run[0] < run[1] < run[2]


# ---------------------------------------------------------------------------
# The adjacency index against per-vertex scans of the pattern

def scan_neighbors(g, v):
    """Reference: v's neighbourhood by scanning every declared edge and rule."""
    g.check_vertex(v)
    fin = set()
    rules = []
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
    rules = sorted(set(rules), key=lambda r: (r.kind, r.owner, r.t, r.local))
    return Neighborhood(frozenset(fin), tuple(rules))


def scan_truncate(g, periods, copies):
    """Reference: the truncation built from scan_neighbors of every vertex."""
    verts = [core(c) for c in g.core_vertices]
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
        nb = scan_neighbors(g, v)
        for w in nb.finite:
            if w in vset:
                edges.add(frozenset((v, w)))
            else:
                boundary.add(v)
        for rule in nb.rules:
            boundary.add(v)
            if rule.kind == "every_period":
                instances = [stripv(rule.owner, t, rule.local) for t in range(periods)]
            elif rule.kind == "every_copy":
                instances = [fanv(rule.owner, k, rule.local) for k in range(copies)]
            else:
                instances = [pfanv(rule.owner, rule.t, k, rule.local) for k in range(copies)]
            edges.update(frozenset((v, w)) for w in instances if w in vset and w != v)
    verts_sorted = tuple(sorted(verts, key=VertexId.sort_key))
    edges_sorted = tuple(sorted(edges, key=lambda e: sorted(x.sort_key() for x in e)))
    return FiniteGraph(verts_sorted, edges_sorted, frozenset(boundary))


@pytest.mark.parametrize("case", [*FIXTURE_NAMES, *(f"random{seed}" for seed in range(40))])
def test_index_matches_scans(case, fixtures):
    g = fixtures[case] if case in fixtures else random_pattern(int(case.removeprefix("random")))
    for periods in range(4):
        for copies in range(4):
            want, got = scan_truncate(g, periods, copies), truncate(g, periods, copies)
            assert got.vertices == want.vertices, (periods, copies)
            assert got.edges == want.edges, (periods, copies)
            assert got.boundary == want.boundary, (periods, copies)
    for v in truncate(g, 3, 3).vertices:
        assert neighbors(g, v) == scan_neighbors(g, v), format_vertex(v)


def test_truncate_never_calls_neighbors(fixtures, monkeypatch):
    calls = []

    def counted(g, v):
        calls.append(v)
        return scan_neighbors(g, v)

    monkeypatch.setattr(pattern, "neighbors", counted)
    fg = truncate(fixtures["comb"], 800, 3)
    assert len(fg.vertices) == 3200
    assert calls == []  # one call per vertex, 3,200, before the index
