"""The benchmark's delete-sweep smoke run: closed-form and oracle answers."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_delete_sweep_smoke_answers_are_correct():
    cmd = [
        sys.executable, "bench/run.py", "--workload", "delete-sweep",
        "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout[-2000:]
    assert result["correct"] is True
