"""The benchmark's smoke runs: closed-form and oracle answers.

delete-sweep checks `components.delete`; oracle-check checks `truncate`'s
closed form and `oracle_mismatch` on truncations; report-gamma checks the
recorded digests of `report` and `check-tangle --seps auto:1/2` output, the
tangle and `distinguish` checks on every report, and the inverse systems.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["delete-sweep", "oracle-check", "report-gamma"])
def test_smoke_answers_are_correct(workload):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout[-2000:]
    assert result["correct"] is True
