"""Seeded random pattern specs for the benchmark.

The generator emits raw JSON-shaped dicts; only the measured child process
turns them into ``PatternGraph`` objects, through ``pattern.validate``.

Compared with the generator in ``tests/conftest.py`` the shapes are wider:
templates with up to four vertices and chords, attachment periods up to
five, and fans attaching to three or four vertices.  Each spec is drawn
from a fixed *profile* chosen by its position in the list.  A profile
fixes every count (vertices, edges, attachments, the deepest attachment
period, dominations); the seed picks which vertices the edges join.  Cost
then depends on the seed only through wiring, so figures from different
seeds stay comparable.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple


class Profile(NamedTuple):
    core: int  # core vertices
    strips: int
    period: int  # vertices of each period template
    pfan: int  # vertices of each strip's periodic fan template, 0 for none
    pfan_attach: int  # period vertices each periodic fan copy attaches to
    fans: int  # core fans
    fan: int  # vertices of each core fan template
    fan_attach: int  # core vertices each core fan copy attaches to
    max_t: int  # deepest attachment period
    dominated: bool  # the first core vertex dominates the first strip


PROFILES = (
    Profile(2, 1, 1, 1, 1, 1, 1, 2, 2, False),
    Profile(3, 1, 3, 2, 3, 1, 2, 3, 5, False),
    Profile(1, 1, 2, 0, 0, 1, 3, 1, 4, True),
    Profile(4, 1, 4, 0, 0, 2, 2, 4, 3, False),
    Profile(2, 2, 2, 1, 2, 0, 0, 0, 3, True),
    Profile(0, 1, 3, 3, 2, 1, 1, 0, 0, False),
    Profile(3, 0, 0, 0, 0, 2, 3, 3, 0, False),
    Profile(2, 2, 1, 1, 1, 1, 2, 2, 5, True),
)


def _template(rng, fresh, size):
    """A connected template: a path plus size // 2 random chords."""
    verts = [next(fresh) for _ in range(size)]
    edges = [[a, b] for a, b in zip(verts, verts[1:])]
    chords = [[a, b] for a, b in itertools.combinations(verts, 2) if [a, b] not in edges]
    return verts, edges + rng.sample(chords, min(size // 2, len(chords)))


def _fan(rng, fresh, fid, size, attach_pool, attach_size):
    verts, edges = _template(rng, fresh, size)
    attach = rng.sample(attach_pool, min(attach_size, len(attach_pool)))
    attach_edges = [[rng.choice(verts), a] for a in attach]
    if attach and size > 1:  # a second template vertex reaches one attachment
        extra = [rng.choice(verts), attach[0]]
        if extra not in attach_edges:
            attach_edges.append(extra)
    return {
        "id": fid,
        "template": {"vertices": verts, "edges": edges},
        "attach": attach,
        "attach_edges": attach_edges,
    }


def random_spec(rng: random.Random, profile: Profile) -> dict:
    fresh = (f"n{i}" for i in itertools.count())
    core_vertices = [next(fresh) for _ in range(profile.core)]
    core_pairs = list(itertools.combinations(core_vertices, 2))
    core_edges = [list(e) for e in rng.sample(core_pairs, len(core_pairs) // 3)]
    strips = []
    for i in range(profile.strips):
        verts, edges = _template(rng, fresh, profile.period)
        steps = [[rng.choice(verts), rng.choice(verts)]]
        if profile.period > 1:
            steps.append([rng.choice(verts), rng.choice(verts)])
        attachments = []
        if core_vertices:
            for t in (profile.max_t, rng.randint(0, profile.max_t)):
                attachments.append({"core": rng.choice(core_vertices), "period": t, "local": rng.choice(verts)})
        sraw = {
            "id": f"s{i}",
            "period": {"vertices": verts, "edges": edges},
            "step_edges": [list(e) for e in dict.fromkeys(map(tuple, steps))],
            "attachments": attachments,
            "dominated_vertex": rng.choice(verts),
        }
        if profile.pfan:
            sraw["periodic_fan"] = _fan(rng, fresh, f"pf{i}", profile.pfan, verts, profile.pfan_attach)
        strips.append(sraw)
    fans = [_fan(rng, fresh, f"f{i}", profile.fan, core_vertices, profile.fan_attach) for i in range(profile.fans)]
    dominations = [{"core": core_vertices[0], "strip": "s0"}] if profile.dominated and core_vertices and strips else []
    return {
        "core": {"vertices": core_vertices, "edges": core_edges},
        "strips": strips,
        "fans": fans,
        "dominations": dominations,
    }


def random_specs(seed: int, count: int) -> list[dict]:
    """``count`` specs; spec i uses profile i mod len(PROFILES)."""
    rng = random.Random(seed)
    return [random_spec(rng, PROFILES[i % len(PROFILES)]) for i in range(count)]
