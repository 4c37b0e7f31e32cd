"""Smoke tests of the benchmark at tiny size.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import plan  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
from omegagraph import components, fixture_graphs, pattern  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_smoke_traced_run_matches_untraced_answers(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    # a traced answer that differs from the untraced one counts as failed
    assert res["correct"] and res["failed"] == 0
    assert [(n, m["unit"]) for n, m in res["metrics"].items()] == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_benchmark_json_lists_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(plan.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()


def test_without_the_program_the_runner_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "delete-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_peak_rss_is_the_childs_own():
    parent = bytearray(96 * 2**20)
    parent[::4096] = b"\1" * len(parent[::4096])  # make the pages resident
    result = run.spawn(plan.build("oracle-check", 3, scale=0.1), "run")
    assert 5 < result["peak_rss_mb"] < 80


def test_generator_is_seeded_and_gives_valid_wider_shapes():
    assert gen.random_specs(7, 16) == gen.random_specs(7, 16)
    assert gen.random_specs(7, 16) != gen.random_specs(8, 16)
    graphs = [pattern.validate(s) for seed in range(5) for s in gen.random_specs(seed, 16)]
    assert any(len(f.attach) >= 3 for g in graphs for f in g.fans)
    assert any(max(len(s.locals) for s in g.strips) > 2 for g in graphs if g.strips)
    assert any(s.max_attachment_period() > 2 for g in graphs for s in g.strips)


@pytest.mark.parametrize("form,n", [("comb_prefix", 3), ("comb_deep", 4), ("comb_pfan", 4),
                                    ("combo_prefix", 3), ("combo_deep", 4)])
def test_closed_forms_agree_with_the_oracle(form, n):
    name, kind = form.split("_")
    g = fixture_graphs.load_fixture(name)
    X = {"prefix": [f"strip:s1/{t}/p" for t in range(n)], "deep": [f"strip:s1/{n}/p"],
         "pfan": [f"pfan:s1/{n}/1/u"]}[kind]
    q = queries.Query({"op": "delete", "input": name, "X": X, "form": form, "n": n},
                      type("Ctx", (), {"graphs": {name: g}})())
    answer = q.run(None)
    cs = components.delete(g, q.X)
    assert components.oracle_mismatch(cs, cs.stabilization_bound + 2, cs.stabilization_bound + 2) is None
    assert queries.check(q, answer) is None


def test_recorded_digests_match_this_program():
    assert queries._load_digests() == __import__("digests").record()


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_plans_are_seeded_and_have_100_queries_per_pass(workload):
    job = plan.build(workload, 5)
    assert job == plan.build(workload, 5) and job != plan.build(workload, 6)
    assert plan.build(workload, 5, variant=1) == plan.build(workload, 5, variant=1) != job
    assert len(queries.prepare(job)[1]) >= 100
