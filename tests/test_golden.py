"""Byte-identity guard: SHA-256 digests of every subcommand's output.

Each fixture runs analyze, report, components, critical, classify,
limit, check-tangle (where a strip exists), distinguish (where two
points exist) and export-dot.  The first run of each subcommand but
export-dot is repeated in the default text mode, without ``--json``.
The arguments are derived from the CLI's own output: the first
critical set of ``critical`` and the first points of ``report``'s
tangles.  Every strip also gets deep deletions: ``components`` and
``limit`` with strip vertices past the first few periods, and a
periodic-fan copy where the strip has a periodic fan.  Tangle checks run
at depth too: ``check-tangle --horizon 3 --seps auto:2`` on every end and
on the first critical set, and ``--seps auto:3`` on combo's end.
Regenerate the digests only when the output is meant to change:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from omegagraph.cli import main
from omegagraph.fixture_graphs import fixture_path, load_fixture
from conftest import FIXTURE_NAMES

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def cases(name: str) -> list[list[str]]:
    spec = str(fixture_path(name))
    _, out = _run(["critical", spec, "--json"])
    sets = json.loads(out)["sets"]
    first_crit = ",".join(sets[0]) if sets else ""
    _, out = _run(["report", spec, "--json", "--horizon", "2"])
    points = [t["point"] for t in json.loads(out)["tangles"]]
    argvs = [
        ["analyze", spec, "--json"],
        ["report", spec, "--json", "--horizon", "2"],
        ["components", spec, "--json", "--delete", first_crit],
        ["critical", spec, "--json"],
        ["classify", spec, "--json"],
        ["limit", spec, "--json", "--family", "{};{" + first_crit + "}"],
    ]
    strips = load_fixture(name).strips
    if strips:
        argvs.append(["check-tangle", spec, "--json", "--point", f"end:{strips[0].id}"])
    if len(points) >= 2:
        argvs.append(["distinguish", spec, "--json", "--a", points[0], "--b", points[1]])
    argvs.extend([a for a in argv if a != "--json"] for argv in list(argvs))
    for s in strips:
        l = s.locals[0]
        argvs.append(["components", spec, "--json", "--delete", f"strip:{s.id}/9/{l}"])
        argvs.append(["components", spec, "--json", "--delete", f"strip:{s.id}/2/{l},strip:{s.id}/7/{l}"])
        if s.periodic_fan:
            argvs.append(["components", spec, "--json", "--delete", f"pfan:{s.id}/9/1/{s.periodic_fan.locals[0]}"])
        argvs.append(["limit", spec, "--json", "--family", "{};{" + f"strip:{s.id}/6/{l}" + "}"])
    deep = ["check-tangle", spec, "--json", "--horizon", "3", "--seps"]
    argvs.extend(deep + ["auto:2", "--point", f"end:{s.id}"] for s in strips)
    if first_crit:
        argvs.append(deep + ["auto:2", "--point", "crit:{" + first_crit + "}"])
    if name == "combo":
        argvs.append(deep + ["auto:3", "--point", "end:s1"])
    argvs.append(["export-dot", spec])
    return argvs


def digests(name: str) -> dict[str, str]:
    out = {}
    for argv in cases(name):
        code, text = _run(argv)
        out[" ".join([name, argv[0]] + argv[2:])] = f"{code} {hashlib.sha256(text.encode()).hexdigest()}"
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_output_matches_golden_digests(name):
    want = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k.split(" ", 1)[0] == name}
    assert want, f"no golden digests recorded for {name}"
    assert digests(name) == want


if __name__ == "__main__":
    record = {}
    for fixture in FIXTURE_NAMES:
        record.update(digests(fixture))
    print(json.dumps(record, indent=1, sort_keys=True))
