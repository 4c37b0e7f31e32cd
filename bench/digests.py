"""Record the JSON digests that report-gamma checks against.

    python3 bench/digests.py > bench/digests.json

Run it only when the CLI's JSON output is meant to change; the recorded
digests are the benchmark's guard that ``--json`` output stays
byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import plan  # noqa: E402
import queries  # noqa: E402


def record() -> dict:
    ctx, qs = queries.prepare(plan.build("report-gamma", seed=0))
    out = {queries.cli_key(q.spec): q.run(ctx)[1] for q in qs if q.op == "cli" and not q.spec.get("limit")}
    return dict(sorted(out.items()))


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
