"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
"""

import itertools
import json
import random
import time

from omegagraph.classify import enumerate_critical, infinite_degree_explanation, is_tough, trichotomy
from omegagraph.cli import _enumerate_seps, main
from omegagraph.components import delete, materialize, oracle_mismatch
from omegagraph.fixture_graphs import all_fixtures, fixture_path
from omegagraph.gamma import (
    Cluster,
    Condition4ViolatedError,
    FduSpace,
    check_inverse_system,
    gamma_space,
    identity_map,
    is_continuous,
    is_surjective,
    limit_point,
    limit_points,
    maps_equal,
    quotient_to_gamma,
)
from omegagraph.ids import stripv
from omegagraph.oracle import components_after_deletion, count_by_neighborhood
from omegagraph.pattern import degree_class, to_raw, truncate, validate
from omegagraph.separations import (
    FamilyRule,
    SeparationSystem,
    all_points,
    distinguish,
    orient_by_point,
)
from conftest import FIXTURE_NAMES, random_deletion, vertex_pool

import math


FIXTURES = all_fixtures()


def _verdict(number, description, ok, detail=""):
    line = f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail and not ok:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, detail


def test_criterion_1_classification_table():
    expected = {
        "ray": "Tough",
        "domray": "Tough",
        "star": "OnePointCase",
        "thetafan": "OnePointCase",
        "comb": "NeitherCase",
        "combo": "NeitherCase",
    }
    t0 = time.monotonic()
    got = {name: trichotomy(g).trichotomy for name, g in FIXTURES.items()}
    elapsed = time.monotonic() - t0
    mismatches = {n: (got[n], expected[n]) for n in expected if got[n] != expected[n]}
    _verdict(
        1,
        f"fixture classification table ({elapsed:.2f}s)",
        not mismatches and elapsed < 1.0,
        str(mismatches),
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    bad = []
    pairs = 0
    while pairs < 210:
        for name in FIXTURE_NAMES:
            g = FIXTURES[name]
            X = random_deletion(g, rng, 4)
            cs = delete(g, X)
            b = cs.stabilization_bound
            for extra in (2, 5):
                m = b + extra
                mismatch = oracle_mismatch(cs, m, m)
                if mismatch:
                    bad.append((name, sorted(map(str, X)), mismatch))
                for d in cs.family_descriptors:
                    want = m - sum(1 for k in d.excluded() if k < m)
                    if len(materialize(cs, d, m, m)) != want:
                        bad.append((name, sorted(map(str, X)), "family count"))
            pairs += 1
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        f"oracle equivalence on {pairs} (fixture, X) pairs at b+2 and b+5 ({elapsed:.1f}s)",
        not bad and elapsed < 30.0,
        str(bad[:3]),
    )


def test_criterion_3_partition_and_crit_formula():
    rng = random.Random(43)
    bad = []
    for name in FIXTURE_NAMES:
        g = FIXTURES[name]
        for _ in range(10):
            X = random_deletion(g, rng, 4)
            cs = delete(g, X)
            b = cs.stabilization_bound + 2
            fg = truncate(g, b, b)
            for comp in components_after_deletion(fg, X):
                if comp.vertices & fg.boundary:
                    continue
                if not comp.neighborhood <= X:
                    bad.append((name, "neighborhood outside X"))
                    continue
                fam = cs.family(comp.neighborhood)
                pieces = [
                    p
                    for d in fam.explicit + fam.families
                    for p in materialize(cs, d, b, b)
                ]
                if pieces.count(comp.vertices) != 1:
                    bad.append((name, sorted(map(str, comp.vertices))[:4]))
            candidates = None
            base = cs.stabilization_bound
            for m in (base + 2, base + 4, base + 6):
                counts = count_by_neighborhood(
                    components_after_deletion(truncate(g, m, m), X)
                )
                found = {Y for Y, n in counts.items() if Y <= X and n >= m - len(X)}
                candidates = found if candidates is None else candidates & found
            if candidates != cs.crit():
                bad.append((name, "crit formula", sorted(map(str, X))))
    _verdict(3, "partition law and critical-set formula vs oracle", not bad, str(bad[:3]))


def test_criterion_4_tangle_suite():
    t0 = time.monotonic()
    bad = []
    for name in FIXTURE_NAMES:
        g = FIXTURES[name]
        system = SeparationSystem(g, _enumerate_seps(g, 2, 2))
        pts = all_points(g, 3)
        for xi in pts:
            verdict = system.check(system.orient(xi))
            if not verdict.ok:
                bad.append((name, str(xi), "tangle check"))
        for a, b in itertools.combinations(pts, 2):
            sep = distinguish(g, a, b)
            if orient_by_point(a, sep).toward_side == orient_by_point(b, sep).toward_side:
                bad.append((name, str(a), str(b), "not distinguished"))
    for horizon in (1, 2, 3):
        pts = limit_points(FIXTURES["comb"], [set(), {stripv("s1", 0, "p")}], horizon)
        if len(pts) != 1 + (horizon + 1):
            bad.append(("comb", f"limit point count at horizon {horizon}"))
    elapsed = time.monotonic() - t0
    _verdict(
        4,
        f"tangle suite: induced orientations, distinguishability, limit counts ({elapsed:.1f}s)",
        not bad and elapsed < 60.0,
        str(bad[:3]),
    )


def _directed_family(g, max_size=5):
    seeds = enumerate_critical(g, 4, 2)[:2]
    family = {frozenset()}
    for Y in seeds:
        family.add(frozenset(Y))
    if len(seeds) >= 2:
        family.add(frozenset(seeds[0] | seeds[1]))
    pool = vertex_pool(g, periods=1, copies=0)
    if pool and len(family) < max_size:
        whole = frozenset().union(*family) | {pool[0]}
        family.add(whole)
    return sorted(family, key=lambda X: (len(X), tuple(sorted(v.sort_key() for v in X))))


def test_criterion_5_gamma_system_suite():
    bad = []
    for name in FIXTURE_NAMES:
        g = FIXTURES[name]
        fam = _directed_family(g)
        assert len(fam) <= 5
        report = check_inverse_system(g, fam)
        if not report.ok:
            bad.append((name, report.failures()[:2]))
        try:
            limit_points(g, fam, 2)  # raises on any thread incompatibility
        except AssertionError as exc:
            bad.append((name, str(exc)))
    _verdict(5, "gamma inverse system: functoriality, embedding, continuity, threads", not bad, str(bad[:2]))


def test_criterion_6_quotient_instances():
    g = FIXTURES["comb"]
    p0 = stripv("s1", 0, "p")
    cs = delete(g, {p0})
    bad = []

    q_id = quotient_to_gamma(cs, gamma_space(cs))
    if not (is_continuous(q_id).ok and is_surjective(q_id) and maps_equal(q_id, identity_map(gamma_space(cs)))):
        bad.append("identity quotient")

    h = ("pfan", "s1", 0)
    named = tuple(p for c in gamma_space(cs).clusters for p in c.named_members)
    parity = FduSpace(
        isolated=named,
        clusters=(
            Cluster(limit="even", groups=((h, FamilyRule("even")),)),
            Cluster(limit="odd", groups=((h, FamilyRule("odd")),)),
        ),
    )
    q = quotient_to_gamma(cs, parity)
    fixes = all(q.apply(p) == p for p in parity.finite_points()) and all(
        q.apply(("member", h, k)) == ("member", h, k) for k in range(4)
    )
    merges = set(q.limit_images.values()) == {limit_point(frozenset({p0}))}
    if not (is_continuous(q).ok and is_surjective(q) and fixes and merges):
        bad.append("parity quotient")

    p1 = stripv("s1", 1, "p")
    cs2 = delete(g, {p0, p1})
    base2 = gamma_space(cs2)
    named2 = tuple(p for c in base2.clusters for p in c.named_members) + base2.isolated
    mixed = FduSpace(
        isolated=named2,
        clusters=(
            Cluster(
                limit="mix",
                groups=((("pfan", "s1", 0), FamilyRule("true")), (("pfan", "s1", 1), FamilyRule("true"))),
            ),
        ),
    )
    try:
        quotient_to_gamma(cs2, mixed)
        bad.append("condition-4 violation not raised")
    except Condition4ViolatedError as exc:
        if set(exc.pair) != {frozenset({p0}), frozenset({p1})}:
            bad.append("condition-4 pair wrong")
    _verdict(6, "quotient construction: identity, parity refinement, condition-4 verdicts", not bad, str(bad))


def test_criterion_7_degree_explanations():
    bad = []
    for name in ("domray", "star", "combo"):
        g = FIXTURES[name]
        for v in vertex_pool(g, periods=3, copies=3):
            es = infinite_degree_explanation(g, v)
            deg = degree_class(g, v)
            if deg == math.inf:
                if any(e.kind == "finite" for e in es) or not es:
                    bad.append((name, str(v)))
            else:
                if [e.kind for e in es] != ["finite"] or es[0].degree != deg:
                    bad.append((name, str(v)))
    _verdict(7, "infinite-degree explanations validated on domray, star, combo", not bad, str(bad[:4]))


def test_criterion_8_toughness_surrogate():
    rng = random.Random(88)
    bad = []
    for name in FIXTURE_NAMES:
        g = FIXTURES[name]
        tough = is_tough(g)
        samples = [random_deletion(g, rng, 4) for _ in range(50)]
        clusterless = all(not gamma_space(delete(g, X)).clusters for X in samples)
        no_crit = not enumerate_critical(g, 4, 3)
        if not (tough == clusterless == no_crit):
            bad.append((name, tough, clusterless, no_crit))
    _verdict(8, "tough iff no gamma clusters over 50 samples iff no critical sets", not bad, str(bad))


def test_criterion_9_cli_determinism(capsys, tmp_path):
    bad = []
    for name in FIXTURE_NAMES:
        path = str(fixture_path(name))
        outs = []
        for _ in range(2):
            code = main(["analyze", path, "--json"])
            captured = capsys.readouterr()
            if code != 0:
                bad.append((name, "exit", code))
            outs.append(captured.out)
        if outs[0] != outs[1]:
            bad.append((name, "nondeterministic"))
        raw = json.load(open(path))
        g = validate(raw)
        if validate(json.loads(json.dumps(to_raw(g)))) != g:
            bad.append((name, "round-trip"))
    with capsys.disabled():
        _verdict(9, "CLI determinism and fixture spec round-trips", not bad, str(bad[:3]))
