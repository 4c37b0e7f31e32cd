"""The measured process: one fresh interpreter per pass over the query list.

Usage: ``python3 -s child.py <spawn time>``, with a job (inputs, queries,
mode, flags) as JSON on stdin; writes one JSON object on stdout.

``setup`` mode imports omegagraph, validates every input and reports how
long that took from the parent's spawn time.  ``run`` mode then sends the
queries one after another, each only after the previous one returned (a
closed loop with one caller), once each, and reads the process's peak
resident memory right after the last one.  With ``check`` set, it compares
every answer with a known answer afterwards, outside the timed loop.

Both modes also time a fixed pure-Python loop (``reference_s``): in setup
mode right after setup, in run mode before the first query, after every
REF_EVERY_S of query time and after the last query.  The host's speed
drifts by a quarter within seconds, and ``run.py`` scales every time a
pass reports by that pass's reference time, so the drift cancels.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REF_EVERY_S = 0.1


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started.

    Not ``ru_maxrss``: a process started with fork and exec inherits the
    parent's high-water mark there, so it would read the parent's memory
    whenever that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_s() -> float:
    """Time of a fixed loop of dict updates, about 3 ms; it does not touch omegagraph."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 977] = d.get(i % 977, 0) + i
    return time.perf_counter() - t0


def main() -> int:
    t_spawn = float(sys.argv[1])  # the parent's time.monotonic() just before it started this process
    job = json.load(sys.stdin)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import omegagraph

    if Path(omegagraph.__file__).resolve().parent != SRC / "omegagraph":
        print(f"imported omegagraph from {omegagraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import queries

    ctx, qs = queries.prepare(job)
    setup_s = time.monotonic() - t_spawn
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s, "ref_s": [reference_s() for _ in range(5)]}))
        return 0

    lat, answers = [], []
    errors: dict[int, str] = {}
    ref, since_ref = [reference_s()], 0.0
    for i, q in enumerate(qs):
        t0 = time.perf_counter()
        try:
            answer = q.run(ctx)
        except Exception:  # a failing query is counted and the loop goes on
            answer = None
            errors[i] = traceback.format_exc(limit=3)
        lat.append(time.perf_counter() - t0)
        answers.append(answer)
        since_ref += lat[-1]
        if since_ref >= REF_EVERY_S:
            ref.append(reference_s())
            since_ref = 0.0
    ref.append(reference_s())
    pass_s = sum(lat)
    rss_mb = peak_rss_mb()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["cli.json_bytes_out"] = ctx.json_bytes

    if job["check"]:
        for i, q in enumerate(qs):
            if i in errors:
                continue
            try:
                problem = queries.check(q, answers[i])
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=3)
            if problem:
                errors[i] = problem

    print(json.dumps({
        "setup_s": setup_s,
        "pass_s": pass_s,
        "ref_s": ref,
        "peak_rss_mb": rss_mb,
        "lat_s": lat,
        "labels": [q.label for q in qs],
        "cases": [q.case for q in qs],
        "answers": [queries.digest(json.dumps(a, default=str)) for a in answers],
        "errors": {str(i): e for i, e in errors.items()},
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
