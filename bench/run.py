"""omegagraph benchmark runner.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Workloads (see ``plan.py`` for the inputs of each and why they were chosen):

    delete-sweep   components.delete on deep and shallow deletions
    oracle-check   brute-force oracle comparisons on truncations
    report-gamma   in-process ``report``, ``limit`` and ``check-tangle``
                   commands, gamma inverse systems

A run makes passes over the workload's query list until ``--seconds`` of
query time have been measured (at least MIN_PASSES).  Every pass is a fresh
interpreter (``child.py``), as a command-line user gets: the library keeps
process-global state, the ``subseteq`` memo, which is never freed, so a
pass sharing an interpreter with the previous one would run against its
memo and hold its memory.  Inside a pass one caller sends the next query
only after the previous one returned (a closed loop), so there is no queue.
Passes cycle through the workload's seeded variants of the query list
(``plan.VARIANTS``); the first pass of each variant checks every answer,
and later passes of it must give the same ones.

With ``--trace 0`` it reports the end-to-end metrics of one run,
each the median over its passes:

    queries_per_s   queries with a correct answer per second of query time
    query_p50_ms    median query latency
    query_p90_ms    90th percentile query latency; every pass has at
                    least 10 samples beyond it (sample count printed)
    peak_rss_mb     peak resident memory of a pass's process, up to the
                    end of its queries (VmHWM, read by the process itself)
    setup_s         interpreter start to first query ready (import plus
                    validate of every input), over at least SETUP_STARTS starts

Every time is scaled to a reference speed of the host: each child also
times a fixed loop (``child.reference_s``) and the parent multiplies the
times of that child by REF_S over the loop's median time there.  Raw and
scaled query time and each pass's factor are printed as comments.

With ``--trace 1`` it makes passes for half of ``--seconds``, then as many
passes again with tracing on, and reports per-layer metrics (``spans.py``)
summed over the traced passes, the tracing overhead (traced minus untraced
query time) and the latency of each named case.  Traced passes must give
the same answers as untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
tiny inputs for MIN_PASSES passes, for tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import plan  # noqa: E402
import spans  # noqa: E402  (for its layer table)

# child.reference_s at this host's typical speed (2-vCPU x86-64 VM, Python
# 3.11); its time there drifts from 2.7 to 4.3 ms (10th to 90th percentile)
REF_S = 0.0034
CHILD_LIMIT_S = 150  # a child running longer than this is killed and the run fails
MIN_PASSES = 3
SETUP_STARTS = 7
# A fixed hash seed gives every pass the same set and dict layouts; no other
# PYTHON* variable of the caller reaches the measured process.
CHILD_ENV = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def spawn(job: dict, mode: str, trace: bool = False, check: bool = False):
    """Run child.py on job and return its JSON result, with its times scaled."""
    data = json.dumps({**job, "mode": mode, "trace": trace, "check": check}).encode()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(BENCH / "child.py"), repr(t_spawn)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=CHILD_ENV,
    )
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(data)
            proc.stdin.close()
        except BrokenPipeError:  # the child died early; its exit status says how
            pass
        out = proc.stdout.read()
        proc.stdout.close()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return scale_to_reference(json.loads(out.decode().strip().splitlines()[-1]))


def scale_to_reference(result: dict) -> dict:
    """Multiply every time of one child's result by REF_S / its median reference time.

    The host's speed drifts by a quarter within seconds: a fixed loop timed
    for 150 s read 9.3 to 15.5 ms in 5-s medians, while a workload's time
    divided by the loop's, timed alternately, stayed within 8%.  The raw
    query time stays in ``raw_pass_s``.
    """
    k = REF_S / statistics.median(result["ref_s"])
    result["speed"] = k
    result["setup_s"] *= k
    if "pass_s" in result:
        result["raw_pass_s"] = result["pass_s"]
        result["pass_s"] *= k
        result["lat_s"] = [dt * k for dt in result["lat_s"]]
    for name, value in (result.get("layers") or {}).items():
        if name.endswith("_s"):
            result["layers"][name] = value * k
    return result


def run_passes(jobs: list[dict], seconds: float, passes: int | None = None, trace: bool = False) -> dict:
    """Fresh-interpreter passes until ``seconds`` of query time, or exactly ``passes``.

    Pass i runs ``jobs[i % len(jobs)]``.  The first pass of each job checks
    its answers; a query whose answer differs in a later pass of the same
    job counts as failed there.
    """
    def enough() -> bool:
        if passes is not None:
            return len(runs) == passes
        return len(runs) >= MIN_PASSES and sum(r["raw_pass_s"] for r in runs) >= seconds

    runs = []
    while not enough():
        i = len(runs)
        result = spawn(jobs[i % len(jobs)], "run", trace=trace, check=i < len(jobs))
        if i >= len(jobs):
            for q, (a, b) in enumerate(zip(runs[i % len(jobs)]["answers"], result["answers"])):
                if a != b:
                    result["errors"].setdefault(str(q), f"answer changed in pass {i + 1}")
        runs.append(result)
    return {"passes": runs}


def machine_facts() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "omegagraph").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by the inclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latencies_ms(result: dict) -> list[list[float]]:
    """Latency of every query, one list per pass; a failed query counts as infinitely slow."""
    return [
        [float("inf") if str(i) in p["errors"] else dt * 1e3 for i, dt in enumerate(p["lat_s"])]
        for p in result["passes"]
    ]


def failures(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, one line per failing query and pass) of a run result."""
    lines = [
        f"pass {n + 1}: {p['labels'][int(i)]}: {e.strip().splitlines()[-1]}"
        for n, p in enumerate(result["passes"])
        for i, e in sorted(p["errors"].items(), key=lambda kv: int(kv[0]))
    ]
    return sum(len(p["labels"]) for p in result["passes"]), len(lines), lines


def case_latencies(result: dict) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for p, lat in zip(result["passes"], latencies_ms(result)):
        for case, ms in zip(p["cases"], lat):
            if case:
                out.setdefault(case, []).append(ms)
    return out


def end_to_end(jobs: list[dict], seconds: float) -> tuple[dict, dict]:
    spawn(jobs[0], "setup")  # first start after a fresh checkout also compiles bytecode
    result = run_passes(jobs, seconds)
    setups = [p["setup_s"] for p in result["passes"]]
    setups += [spawn(jobs[0], "setup")["setup_s"] for _ in range(SETUP_STARTS - len(setups))]
    by_pass = latencies_ms(result)
    metrics = {
        "queries_per_s": (
            statistics.median((len(p["labels"]) - len(p["errors"])) / p["pass_s"] for p in result["passes"]),
            "1/s",
        ),
        "query_p50_ms": (statistics.median(quantile(p, 50) for p in by_pass), "ms"),
        "query_p90_ms": (statistics.median(quantile(p, 90) for p in by_pass), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in result["passes"]), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, {"result": result, "setup_samples_s": setups}


def per_layer(jobs: list[dict], seconds: float) -> tuple[dict, dict]:
    # half the query time untraced, then the same passes traced: a traced run
    # takes about as long as an untraced one
    plain = run_passes(jobs, seconds / 2)
    traced = run_passes(jobs, seconds, passes=len(plain["passes"]), trace=True)
    totals: dict[str, float] = {}
    for p in traced["passes"]:
        for name, value in p["layers"].items():
            totals[name] = totals.get(name, 0) + value
    lookups, misses = totals["separations.svs_subseteq.calls"], totals["separations.subseteq_computed"]
    totals["separations.memo_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    totals["separations.memo_entries_end"] = max(p["layers"]["separations.memo_entries_end"] for p in traced["passes"])
    metrics = {name: (value, layer_unit(name)) for name, value in totals.items()}
    plain_s = sum(p["pass_s"] for p in plain["passes"])
    overhead = sum(p["pass_s"] for p in traced["passes"]) - plain_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain_s, layer_unit("trace.overhead_frac"))
    lat = case_latencies(plain)
    for case in CASES:  # cases of other workloads read 0
        metrics[f"case.{case}_ms"] = (statistics.median(lat[case]) if case in lat else 0.0, "ms")
    for p, t in zip(plain["passes"], traced["passes"]):
        for i, (a, b) in enumerate(zip(p["answers"], t["answers"])):
            if a != b:
                t["errors"].setdefault(str(i), "traced answer differs from untraced")
        for i, e in p["errors"].items():
            t["errors"].setdefault(i, e)
    return metrics, {"result": traced}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# Named cases that mirror the ROADMAP seed table, in its order.
CASES = (
    "delete_comb_prefix100",
    "delete_comb_prefix200",
    "delete_comb_prefix400",
    "delete_comb_deep1600",
    "truncate_comb_800_3",
    "report_combo_h2",
    "report_combo_h8",
    "check_tangle_combo_auto1",
    "check_tangle_combo_auto2",
    "check_tangle_combo_auto3",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every metric ``--trace 1`` reports, with its unit, in report order."""
    names = []
    for layer in spans.LAYERS:
        if layer == "separations.subseteq_computed":
            names += [layer, layer + ".self_s"]
            continue
        names += [f"{layer}.calls", f"{layer}.self_s"] + [f"{layer}.{c}" for c in spans.COUNTS.get(layer, ())]
    names += [
        "separations.memo_hit_ratio",
        "separations.memo_entries_end",
        "runtime.gc_pause_s",
        "runtime.gc_gen2_collections",
        "cli.json_bytes_out",
        "trace.overhead_s",
        "trace.overhead_frac",
    ]
    units = [(n, layer_unit(n)) for n in names]
    return units + [(f"case.{c}_ms", "ms") for c in CASES]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, fewest passes")
    args = ap.parse_args(argv)

    facts = machine_facts()
    scale = 0.1 if args.smoke else 1.0
    jobs = [plan.build(args.workload, args.seed, scale, variant=v) for v in range(plan.VARIANTS[args.workload])]
    seconds = 0 if args.smoke else args.seconds
    print(f"# omegagraph benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    try:
        metrics, info = (per_layer if args.trace else end_to_end)(jobs, seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    result = info["result"]
    attempted, failed, bad_lines = failures(result)
    n = min(len(p["labels"]) for p in result["passes"])
    print(
        f"# closed loop, 1 caller: at least {n} queries per pass (p90 of a pass has {n // 10} samples beyond it), "
        f"{len(result['passes'])} passes over {min(len(jobs), len(result['passes']))} variants, {attempted} samples, "
        f"query time {sum(p['raw_pass_s'] for p in result['passes']):.2f} s, "
        f"scaled {sum(p['pass_s'] for p in result['passes']):.2f} s"
    )
    print("# scale factor of each pass: " + " ".join(f"{p['speed']:.3f}" for p in result["passes"]))
    if not args.trace:
        print("# setup starts, scaled (s): " + " ".join(f"{s:.4f}" for s in info["setup_samples_s"]))
        print("# peak RSS of each pass (MB): " + " ".join(f"{p['peak_rss_mb']:.1f}" for p in result["passes"]))
        for case, lat in case_latencies(result).items():
            print(f"# case {case}: median {statistics.median(lat):.2f} ms over {len(lat)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:14.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for line in bad_lines:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "omegagraph" / "__init__.py").is_file():
        print(f"omegagraph sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
