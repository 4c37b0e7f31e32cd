"""Inputs and query lists of the three workloads, made from a seed.

This module runs in the benchmark's parent process and does not import
omegagraph: it only writes JSON-shaped specs and queries, which the
measured child process turns into library calls (see ``queries.py``).

A query is a dict with an ``op`` naming what the child runs, the ``input``
it runs on and the op's parameters.  Queries that mirror a row of the
ROADMAP seed table carry a ``case`` name, and ``run.py`` reports each such
case with its own latency.  Each list holds at least 100 queries, so that
the 90th percentile of one pass has at least 10 samples beyond it.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from gen import random_specs

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "omegagraph" / "fixtures"

FIXTURES = ("star", "ray", "comb", "domray", "thetafan", "combo")

WORKLOADS = ("delete-sweep", "oracle-check", "report-gamma")

# The passes of a run cycle through this many variants of the query list,
# each drawn from its own seed derived from the run's seed.  A variant's
# first pass checks its answers.  The median over passes then averages the
# generated inputs of several draws instead of resting on one: with one
# draw, whether a heavy generated query lands in the top decile moved
# report-gamma's p90 by 15% from seed to seed.  delete-sweep keeps one
# variant, because checking its answers (the oracle on every generated
# pattern) takes longer than a pass.
VARIANTS = {"delete-sweep": 1, "oracle-check": 32, "report-gamma": 32}

class Plan:
    def __init__(self, seed: int | str):
        self.rng = random.Random(seed)
        self.inputs: dict[str, dict] = {}
        self.queries: list[dict] = []

    def fixture(self, name: str) -> str:
        self.inputs[name] = {"fixture": name}
        return name

    @staticmethod
    def fixture_spec(name: str) -> dict:
        return json.loads((FIXTURE_DIR / f"{name}.json").read_text())

    def random_inputs(self, count: int) -> list[tuple[str, dict]]:
        """``count`` generated specs as (input name, spec); spec i has profile i mod 8."""
        out = []
        for i, spec in enumerate(random_specs(self.rng.randrange(2**32), count)):
            self.inputs[f"rand{i}"] = {"spec": spec}
            out.append((f"rand{i}", spec))
        return out

    def add(self, op: str, input_name: str, case: str | None = None, **params) -> None:
        q = {"op": op, "input": input_name, **params}
        if case:
            q["case"] = case
        self.queries.append(q)

    def job(self) -> dict:
        return {"inputs": self.inputs, "queries": self.queries}


def _pool(spec: dict, periods: int, copies: int) -> list[str]:
    """Deletion candidates with small coordinates, as vertex tokens."""
    pool = [f"core:{c}" for c in spec["core"]["vertices"]]
    for s in spec["strips"]:
        for t in range(periods):
            pool += [f"strip:{s['id']}/{t}/{l}" for l in s["period"]["vertices"]]
            pf = s.get("periodic_fan")
            if pf:
                for k in range(copies):
                    pool += [f"pfan:{s['id']}/{t}/{k}/{l}" for l in pf["template"]["vertices"]]
    for f in spec["fans"]:
        for k in range(copies):
            pool += [f"fan:{f['id']}/{k}/{l}" for l in f["template"]["vertices"]]
    return pool


def _shallow_x(rng: random.Random, spec: dict, size: int) -> list[str]:
    """``size`` random vertices from periods below 4 and copies below 3."""
    pool = _pool(spec, periods=4, copies=3)
    return sorted(rng.sample(pool, min(size, len(pool))))


def _prefix(strip: str, local: str, n: int) -> list[str]:
    return [f"strip:{strip}/{t}/{local}" for t in range(n)]


def delete_sweep(p: Plan, scale: float) -> None:
    """``delete(g, X)`` plus ``crit``, ``cx_minus`` and ``family`` reads.

    The 27 comb and combo rows are deep deletions with closed-form
    answers; their cost grows with the deepest period in X, they fill the
    top decile, so p90 follows ``delete``'s growth, and they take most of
    the time.  The generated patterns get shallow random sets, a short
    prefix and one deep vertex each, checked against the oracle; the
    median falls among them.
    """
    big = lambda n: max(2, int(n * scale))
    comb = p.fixture("comb")
    for n in (50, 75, 100, 125, 150, 200, 250, 300, 400):
        case = f"delete_comb_prefix{n}" if n in (100, 200, 400) else None
        p.add("delete", comb, case, X=_prefix("s1", "p", big(n)), form="comb_prefix", n=big(n))
    for t in (200, 400, 600, 800, 1000, 1200, 1600):
        case = "delete_comb_deep1600" if t == 1600 else None
        p.add("delete", comb, case, X=[f"strip:s1/{big(t)}/p"], form="comb_deep", n=big(t))
    for t in (400, 800, 1200, 1600):
        p.add("delete", comb, X=[f"pfan:s1/{big(t)}/{p.rng.randrange(5)}/u"], form="comb_pfan", n=big(t))
    combo = p.fixture("combo")
    for n in (50, 100, 150, 200):
        p.add("delete", combo, X=_prefix("s1", "p", big(n)), form="combo_prefix", n=big(n))
    for t in (200, 400, 800):
        p.add("delete", combo, X=[f"strip:s1/{big(t)}/p"], form="combo_deep", n=big(t))
    for _ in range(12):
        p.add("delete", combo, X=_shallow_x(p.rng, p.fixture_spec("combo"), 4), form="oracle")
    for name, spec in p.random_inputs(max(2, int(32 * scale))):
        for size in (1, 2, 3, 5):
            p.add("delete", name, X=_shallow_x(p.rng, spec, size), form="oracle")
        s = spec["strips"][0] if spec["strips"] else None
        if s is not None:
            local = p.rng.choice(s["period"]["vertices"])
            p.add("delete", name, X=_prefix(s["id"], local, 12), form="oracle")
            p.add("delete", name, X=[f"strip:{s['id']}/20/{local}"], form="oracle")
        else:
            p.add("delete", name, X=_shallow_x(p.rng, spec, 8), form="oracle")
            p.add("delete", name, X=[], form="oracle")


def oracle_check(p: Plan, scale: float) -> None:
    """``oracle_mismatch(delete(g, X), P, C)`` on truncations of set sizes.

    P and C come from a fixed schedule (at least the stabilization bound,
    which shallow X keeps below 8), so the truncation sizes, from tens to
    thousands of vertices, do not depend on the seed.  Each generated
    pattern is checked at three sizes, so the median falls inside the
    middle size rather than in the gap between two.
    """
    sizes = [max(2, int(n * scale)) for n in (8, 12, 16, 32)]
    comb = p.fixture("comb")
    p.add("truncate", comb, "truncate_comb_800_3", periods=max(2, int(800 * scale)), copies=3)
    for name in FIXTURES:
        p.fixture(name)
        for size in sizes[::2] + sizes[3:]:
            X = _shallow_x(p.rng, p.fixture_spec(name), 4)
            p.add("oracle", name, X=X, periods=size, copies=size)
    for name, spec in p.random_inputs(max(2, int(32 * scale))):
        for size in sizes[:3]:
            p.add("oracle", name, X=_shallow_x(p.rng, spec, 5), periods=size, copies=size)


def _directed_family(rng: random.Random, pool: list[str]) -> str:
    """A random directed family {}, Y1, Y2, Y1 u Y2 in the CLI's brace syntax."""
    y1 = sorted(rng.sample(pool, min(len(pool), rng.randint(1, 2))))
    y2 = sorted(rng.sample(pool, min(len(pool), rng.randint(1, 2))))
    sets = {(), tuple(y1), tuple(y2), tuple(sorted(set(y1) | set(y2)))}
    return ";".join("{" + ",".join(s) + "}" for s in sorted(sets, key=lambda s: (len(s), s)))


POWER_SET_POOL = ("core:a", "core:b", "core:d", "strip:s1/0/p", "strip:s1/1/p", "strip:s1/2/p", "strip:s1/3/p")
REPORT_HORIZONS = (1, 2, 3)
DEEP_REPORT_HORIZONS = (4, 5, 6, 7, 8)


def report_gamma(p: Plan, scale: float) -> None:
    """In-process ``report``, ``limit`` and ``check-tangle`` commands, plus power-set systems.

    Reports run on every fixture at each horizon in REPORT_HORIZONS and on
    comb and combo up to horizon 8; each report checks a tangle per point
    of the limit space and distinguishes every pair of points.  Their JSON,
    and that of ``check-tangle`` on combo with bases up to 3 (up to 461
    separations, where ``le`` calls and the global subseteq memo set time
    and memory), is checked byte for byte against digests recorded in
    ``digests.json``.  The deeper comb and combo reports fill the top
    decile, so p90 sits among fixed queries.  The power-set families over
    combo, up to 2^6 sets and 5554 checks, exercise ``gamma``'s cubic
    functoriality checks; 2^7 sets would take half of every pass on its own.
    """
    for name in FIXTURES:
        p.fixture(name)
        for h in REPORT_HORIZONS:
            case = "report_combo_h2" if (name, h) == ("combo", 2) else None
            p.add("cli", name, case, argv=["report", "--json", "--horizon", str(h)])
        pool = _pool(p.fixture_spec(name), periods=3, copies=2)
        for h in (1, 2, 3, 4):
            for _ in range(3):
                fam = _directed_family(p.rng, pool) if pool else "{}"
                p.add("cli", name, argv=["limit", "--json", "--family", fam, "--horizon", str(h)], limit=True)
        for _ in range(3):
            fam = _directed_family(p.rng, pool) if pool else "{}"
            p.add("system", name, family=fam.split(";"), form="directed")
    if scale >= 1:
        for name in ("comb", "combo"):
            for h in DEEP_REPORT_HORIZONS:
                case = "report_combo_h8" if (name, h) == ("combo", 8) else None
                p.add("cli", name, case, argv=["report", "--json", "--horizon", str(h)])
    for b in (1, 2, 3) if scale >= 1 else (1, 2):
        argv = ["check-tangle", "--point", "end:s1", "--horizon", "3", "--seps", f"auto:{b}", "--json"]
        p.add("cli", "combo", f"check_tangle_combo_auto{b}", argv=argv)
    for h in (1, 2, 3):
        p.add("limit_count", "comb", family=["{}", "{strip:s1/0/p}"], horizon=h)
    top = 6 if scale >= 1 else 4
    for n in range(3, top + 1):
        fam = ["{" + ",".join(c) + "}" for r in range(n + 1) for c in itertools.combinations(POWER_SET_POOL[:n], r)]
        p.add("system", "combo", family=fam, form="power_set", n=n)
        if n < top:
            p.add("limit_count", "combo", family=fam, horizon=3)


BUILDERS = {
    "delete-sweep": delete_sweep,
    "oracle-check": oracle_check,
    "report-gamma": report_gamma,
}


def build(workload: str, seed: int, scale: float = 1.0, variant: int = 0) -> dict:
    p = Plan(seed if variant == 0 else f"{seed}/{variant}")
    BUILDERS[workload](p, scale)
    p.rng.shuffle(p.queries)
    return p.job()
