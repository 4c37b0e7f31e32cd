"""Dual-route checks: symbolic poset/filter/map answers vs brute force.

Each test materializes the symbolic objects over finite truncations and
re-derives the answer from explicit vertex sets, keeping the checking
route independent of the symbolic code paths it verifies.
"""

import itertools
import random
from concurrent.futures import ThreadPoolExecutor

from omegagraph.components import delete
from omegagraph.gamma import bonding_f, gamma_space, limit_point
from omegagraph.ids import stripv
from omegagraph.pattern import truncate
from omegagraph.separations import (
    SeparationSystem,
    all_points,
    enumerate_tame_separations,
    orient_by_point,
    point_filter,
)
from conftest import FIXTURE_NAMES, random_deletion, random_pattern
from symbolic_reference import big_set, le, small_set


def _truncated_sides(osep, fg):
    """Explicit (A, B) of an oriented separation within a truncation."""
    small, big = small_set(osep), big_set(osep)
    verts = fg.vertices
    return (
        frozenset(v for v in verts if small.contains(v)),
        frozenset(v for v in verts if big.contains(v)),
    )


def _oriented_samples(g, bases, per_base=6):
    out = []
    for X in bases:
        cs = delete(g, X)
        for sep in enumerate_tame_separations(cs)[:per_base]:
            out.append(sep.orient(True))
            out.append(sep.orient(False))
    return out


def _core_ids(g):
    from omegagraph.ids import core

    return [core(c) for c in g.core_vertices]


def test_le_matches_truncation_inclusion_on_fixtures(fixtures):
    p = lambda t: stripv("s1", t, "p")
    for name in ("comb", "domray", "thetafan", "star"):
        g = fixtures[name]
        bases = [frozenset()]
        if g.strips:
            bases += [frozenset({p(0)}), frozenset({p(0), p(1)})]
        if g.core_vertices:
            bases += [frozenset({_core_ids(g)[0]})]
        oriented = _oriented_samples(g, bases)
        bound = max(delete(g, X).stabilization_bound for X in bases) + 4
        for bnd in (bound, bound + 2):
            fg = truncate(g, bnd, bnd)
            sides = {id(o): _truncated_sides(o, fg) for o in oriented}
            for o1, o2 in itertools.product(oriented, repeat=2):
                a1, b1 = sides[id(o1)]
                a2, b2 = sides[id(o2)]
                want = a1 <= a2 and b2 <= b1
                assert le(o1, o2) == want, (name, bnd)


def test_le_matches_truncation_inclusion_on_random_patterns():
    rng = random.Random(77)
    for seed in range(6):
        g = random_pattern(seed + 100)
        bases = {frozenset(), random_deletion(g, rng, 2), random_deletion(g, rng, 3)}
        oriented = _oriented_samples(g, sorted(bases, key=sorted), per_base=4)
        if not oriented:
            continue
        bound = max(delete(g, X).stabilization_bound for X in bases) + 4
        fg = truncate(g, bound, bound)
        sides = {id(o): _truncated_sides(o, fg) for o in oriented}
        for o1, o2 in itertools.product(oriented, repeat=2):
            a1, b1 = sides[id(o1)]
            a2, b2 = sides[id(o2)]
            assert le(o1, o2) == (a1 <= a2 and b2 <= b1), seed


def test_induced_orientation_matches_truncation_counts(fixtures):
    # the big side must hold the point's material: the tail vertex for an
    # end, the lion's share of the family for a critical set inside X
    p = lambda t: stripv("s1", t, "p")
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        bases = [frozenset()] + (
            [frozenset({p(0)}), frozenset({p(0), p(1)})] if g.strips else []
        )
        for X in bases:
            cs = delete(g, X)
            bound = cs.stabilization_bound + 4
            for xi in all_points(g, 2):
                mode, payload = point_filter(cs, xi)
                for sep in enumerate_tame_separations(cs)[:8]:
                    big = big_set(orient_by_point(xi, sep))
                    if mode == "principal":
                        probe = sorted(
                            v
                            for piece in _materialized(cs, payload, bound)
                            for v in piece
                        )[0]
                        assert big.contains(probe), (name, str(xi))
                    else:
                        members = [
                            piece
                            for d in cs.family(payload).families
                            for piece in _materialized(cs, d, bound)
                        ]
                        inside = sum(1 for piece in members if all(big.contains(v) for v in piece))
                        assert inside >= len(members) - 3, (name, str(xi))


def _materialized(cs, desc, bound):
    from omegagraph.components import materialize

    return materialize(cs, desc, bound, bound)


def test_bonding_map_tails_brute_force(fixtures):
    # replay each cluster of the source space pointwise and watch the
    # image sequence converge to the limit's image
    p = lambda t: stripv("s1", t, "p")
    for name in FIXTURE_NAMES:
        g = fixtures[name]
        X = frozenset() if not g.strips else frozenset({p(0)})
        X2 = X | (frozenset({p(1)}) if g.strips else frozenset())
        cs, cs2 = delete(g, X), delete(g, X2)
        m = bonding_f(cs, cs2)
        dst = gamma_space(cs)
        for cluster in gamma_space(cs2).clusters:
            lim_img = m.apply(limit_point(cluster.limit))
            for h, rule in cluster.groups:
                images = [m.apply(("member", h, k)) for k in range(40) if rule(k)]
                if lim_img[0] == "limit":
                    target = next(c for c in dst.clusters if c.limit == lim_img[1])
                    member_ok = [
                        img[0] == "member" and any(
                            th == img[1] and r(img[2]) for th, r in target.groups
                        )
                        for img in images
                    ]
                    assert sum(member_ok) >= len(images) - 2, (name, h)
                    # no value may repeat infinitely often
                    assert len(set(images[-10:])) == 10
                else:
                    assert images.count(lim_img) >= len(images) - 2, (name, h)


def test_parallel_evaluation_matches_serial(fixtures):
    # pure functions over immutable inputs: concurrent use is safe
    g = fixtures["combo"]
    bases = [frozenset(), frozenset({stripv("s1", 0, "p")})]

    def work(X):
        system = SeparationSystem(g, enumerate_tame_separations(delete(g, X)))
        return [(str(xi), system.check(system.orient(xi)).ok) for xi in all_points(g, 2)]

    serial = [work(X) for X in bases for _ in range(3)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(work, [X for X in bases for _ in range(3)]))
    assert serial == parallel


def test_random_patterns_full_pipeline():
    # randomized graphs through the whole stack: components, gamma
    # system, induced orientations
    from omegagraph.gamma import check_inverse_system, limit_points as limit_pts

    rng = random.Random(2718)
    for seed in range(10):
        g = random_pattern(seed + 500)
        A = random_deletion(g, rng, 2)
        B = A | random_deletion(g, rng, 2)
        family = [frozenset(), A, B]
        report = check_inverse_system(g, family)
        assert report.ok, (seed, report.failures()[:2])
        limit_pts(g, family, 2)  # raises on thread incompatibility
        system = SeparationSystem(g, enumerate_tame_separations(delete(g, A)))
        for xi in all_points(g, 2):
            verdict = system.check(system.orient(xi))
            assert verdict.ok, (seed, str(xi))


def test_cli_help_documents_grammar(capsys):
    import pytest

    from omegagraph.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for token in ("core:name", "strip:s/t/local", "fan:f/k/local", "pfan:s/t/k/local"):
        assert token in out.replace("stripid/period/local", "s/t/local").replace(
            "fanid/copy/local", "f/k/local"
        ).replace("stripid/period/copy/local", "s/t/k/local")
