"""CLI behaviour: determinism, round-trips, exit codes, DOT output."""

import argparse
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from omegagraph import cli
from omegagraph.cli import main
from omegagraph.fixture_graphs import combo, fixture_path
from omegagraph.pattern import validate, to_raw


SPEC = {name: str(fixture_path(name)) for name in ("star", "ray", "comb", "thetafan", "combo", "domray")}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_star(capsys):
    code, out, _ = run(capsys, "analyze", SPEC["star"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["trichotomy"] == "OnePointCase"
    assert report["gamma_system"]["ok"]


def test_analyze_ray(capsys):
    code, out, _ = run(capsys, "analyze", SPEC["ray"], "--json")
    assert code == 0
    assert json.loads(out)["classification"]["trichotomy"] == "Tough"


def test_analyze_determinism(capsys):
    outs = []
    for name in SPEC:
        for _ in range(2):
            code, out, _ = run(capsys, "analyze", SPEC[name], "--json")
            assert code == 0
            outs.append(out)
    for a, b in zip(outs[::2], outs[1::2]):
        assert a == b  # byte-identical


def test_analyze_malformed_spec(tmp_path, capsys):
    bad = to_raw(validate(json.load(open(SPEC["comb"]))))
    bad["strips"].append(
        {
            "id": "s2",
            "period": {"vertices": ["q"], "edges": [["q", "p"]]},
            "step_edges": [["q", "q"]],
            "attachments": [],
        }
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "StripStripEdge" in err


def test_analyze_malformed_field(tmp_path, capsys):
    bad = to_raw(validate(json.load(open(SPEC["comb"]))))
    bad["strips"][0]["step_edges"] = [["p", "p", "p"]]
    bad["core"] = ["a"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "MalformedField(core)" in err and "InvalidEdge(strip s1)" in err
    assert "Traceback" not in err


def test_analyze_unreadable(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1 and "cannot read" in err


def test_analyze_parse_error_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"core": {"vertices": [,]}}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "broken.json:1:" in err  # line:column diagnostics


def test_components_thetafan(capsys):
    code, out, _ = run(
        capsys, "components", SPEC["thetafan"], "--delete", "core:a,core:b", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["crit"] == [["core:a", "core:b"]]
    (fam,) = report["components"]
    assert fam["kind"] == "family" and fam["neighborhood"] == ["core:a", "core:b"]


def test_components_ray_tail(capsys):
    code, out, _ = run(capsys, "components", SPEC["ray"], "--delete", "strip:s1/0/p", "--json")
    assert code == 0
    report = json.loads(out)
    (tail,) = report["components"]
    assert tail["tails"] == [{"strip": "s1", "from": 1}]


def test_components_unknown_vertex(capsys):
    code, _, err = run(capsys, "components", SPEC["ray"], "--delete", "core:z")
    assert code == 1 and "UnknownVertex" in err


def test_critical_and_classify(capsys):
    code, out, _ = run(capsys, "critical", SPEC["comb"], "--horizon", "3", "--json")
    assert code == 0
    assert json.loads(out)["sets"] == [["strip:s1/0/p"], ["strip:s1/1/p"], ["strip:s1/2/p"]]
    code, out, _ = run(capsys, "classify", SPEC["combo"], "--json")
    assert code == 0
    assert json.loads(out)["trichotomy"] == "NeitherCase"


def test_limit_command(capsys):
    code, out, _ = run(
        capsys, "limit", SPEC["comb"], "--family", "{};{strip:s1/0/p}", "--horizon", "2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert [p["point"] for p in report["points"]] == [
        "end:s1",
        "crit:{strip:s1/0/p}",
        "crit:{strip:s1/1/p}",
        "crit:{strip:s1/2/p}",
    ]
    thread = report["points"][1]["thread"]
    assert thread["{strip:s1/0/p}"] == "limit:{strip:s1/0/p}"


def test_limit_rejects_undirected(capsys):
    code, _, err = run(
        capsys, "limit", SPEC["comb"], "--family", "{strip:s1/0/p};{strip:s1/1/p}"
    )
    assert code == 1 and "NotDirected" in err


def test_check_tangle_command(capsys):
    code, out, _ = run(
        capsys, "check-tangle", SPEC["comb"], "--point", "end:s1", "--seps", "auto:2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["separations"] > 10


def test_check_tangle_crit_point(capsys):
    code, out, _ = run(
        capsys,
        "check-tangle",
        SPEC["comb"],
        "--point",
        "crit:{strip:s1/1/p}",
        "--seps",
        "auto:1",
        "--json",
    )
    assert code == 0 and json.loads(out)["ok"]


def test_bad_points_and_separation_specs_are_input_errors(capsys):
    combo = SPEC["combo"]
    cases = [
        (("check-tangle", combo, "--point", "end:s1", "--seps", "auto:abc"), "BadSeps('auto:abc')"),
        (("check-tangle", combo, "--point", "end:s1", "--seps", "auto:-1"), "BadSeps('auto:-1')"),
        (("check-tangle", combo, "--point", "end:s1", "--seps", "all:1"), "BadSeps('all:1')"),
        (("check-tangle", combo, "--point", "crit:{core:a}"), "NotCritical: ['core:a']"),
        (("check-tangle", combo, "--point", "crit:{xyz}"), "UnknownVertex('xyz')"),
        (("distinguish", combo, "--a", "end:s1", "--b", "crit:{core:a}"), "NotCritical: ['core:a']"),
        (("distinguish", combo, "--a", "crit:{xyz}", "--b", "end:s1"), "UnknownVertex('xyz')"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(message), (argv, err)


def test_distinguish_command(capsys):
    code, out, _ = run(
        capsys,
        "distinguish",
        SPEC["comb"],
        "--a",
        "end:s1",
        "--b",
        "crit:{strip:s1/0/p}",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["separation"]["X"] == ["strip:s1/0/p"]
    code, _, err = run(capsys, "distinguish", SPEC["comb"], "--a", "end:s1", "--b", "end:s1")
    assert code == 1 and "PointsEqual" in err


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", SPEC["star"], "--copies", "4")
    assert code == 0
    assert out.startswith("graph")
    assert out.count("--") == 4  # K_{1,4}
    assert '"core:c" [style=dashed' in out


def test_export_dot_rejects_negative_bounds(capsys):
    for flag, value in (("--periods", "-1"), ("--copies", "-2"), ("--copies", "two")):
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", SPEC["star"], flag, value])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, ""), flag
        assert f"argument {flag}: must be a non-negative integer, got '{value}'" in out.err, out.err
    assert run(capsys, "export-dot", SPEC["star"], "--periods", "0", "--copies", "0")[0] == 0


def test_a_reader_that_closes_the_pipe_ends_the_command_quietly():
    read, write = os.pipe()
    os.close(read)  # gone before the command writes a byte
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "omegagraph.cli", "classify", SPEC["comb"]],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_text_mode_shows_empty_values(capsys):
    code, out, _ = run(capsys, "analyze", SPEC["comb"])
    assert code == 0 and 'detail: ""' in out and "detail: []" not in out
    code, out, _ = run(capsys, "limit", SPEC["comb"], "--family", "{};{strip:s1/0/p}")
    assert code == 0 and out.startswith("family:\n  []\n  -\n  - strip:s1/0/p\n"), out


def test_report_full(capsys):
    code, out, _ = run(capsys, "report", SPEC["comb"], "--json", "--horizon", "1")
    assert code == 0
    report = json.loads(out)
    assert {t["ok"] for t in report["tangles"]} == {True}
    assert report["distinguish"]


def test_fixture_specs_round_trip():
    for name, path in SPEC.items():
        raw = json.load(open(path))
        g = validate(raw)
        assert validate(json.loads(json.dumps(to_raw(g)))) == g


# The options each subcommand declares: the ones its handler reads.
OPTIONS = {
    "analyze": {"--json", "--seed", "--horizon"},
    "report": {"--json", "--seed", "--horizon"},
    "components": {"--json", "--delete"},
    "critical": {"--json", "--horizon", "--max-size"},
    "classify": {"--json"},
    "limit": {"--json", "--horizon", "--family"},
    "check-tangle": {"--json", "--horizon", "--point", "--seps"},
    "distinguish": {"--json", "--a", "--b"},
    "export-dot": {"--copies", "--periods"},
}


# The options a subcommand needs besides its spec.
REQUIRED = {
    "limit": ["--family", "{}"],
    "check-tangle": ["--point", "end:s1"],
    "distinguish": ["--a", "end:s1", "--b", "end:s1"],
}


def _declared_options(parser) -> dict:
    """Subcommand -> the option flags its parser declares, --help aside."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {flag for a in p._actions if a.dest != "help" for flag in a.option_strings}
        for command, p in sub.choices.items()
    }


def test_each_subcommand_takes_exactly_its_options(capsys):
    parser = cli.build_parser()
    declared = _declared_options(parser)
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 24
    # common flag -> (its default, tokens that set it, the value they set)
    common = {
        "--json": (False, ["--json"], True),
        "--seed": (0, ["--seed", "4"], 4),
        "--horizon": (2, ["--horizon", "5"], 5),
        "--copies": (3, ["--copies", "6"], 6),
    }
    for command, options in OPTIONS.items():
        argv = [command, "g.json"] + REQUIRED.get(command, [])
        taken = sorted(set(common) & options)
        args = vars(parser.parse_args(argv))
        assert args["spec"] == "g.json"
        assert {f: args[f[2:]] for f in taken} == {f: common[f][0] for f in taken}, command
        args = vars(parser.parse_args(argv + [tok for f in taken for tok in common[f][1]]))
        assert {f: args[f[2:]] for f in taken} == {f: common[f][2] for f in taken}, command
        for flag in sorted(set(common) - options):
            assert flag[2:] not in args
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + common[flag][1])
            assert exc.value.code == 2, (command, flag)
            assert "unrecognized arguments: " + " ".join(common[flag][1]) in capsys.readouterr().err


def test_a_negative_horizon_is_a_usage_error(capsys):
    takers = sorted(command for command, options in OPTIONS.items() if "--horizon" in options)
    assert takers == ["analyze", "check-tangle", "critical", "limit", "report"]
    for command in takers:
        argv = [command, SPEC["comb"], *REQUIRED.get(command, [])]
        for value in ("-1", "-2", "two"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--horizon", value])
            assert exc.value.code == 2, (command, value)
            err = capsys.readouterr().err
            assert f"argument --horizon: must be a non-negative integer, got '{value}'" in err, command
        assert cli._parser().parse_args(argv + ["--horizon", "0"]).horizon == 0


def test_a_negative_max_size_is_a_usage_error(capsys):
    argv = ["critical", SPEC["comb"]]
    for value in ("-1", "two"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-size", value])
        assert exc.value.code == 2, value
        assert f"argument --max-size: must be a non-negative integer, got '{value}'" in capsys.readouterr().err
    assert main(argv + ["--max-size", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["max_size"] == 0


def _readme_block(section: str, language: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"## {section}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs():
    # a name the tour uses that the library no longer has fails here
    scope = {}
    exec(_readme_block("Library quick tour", "python"), scope)
    system, xi = scope["system"], scope["xi"]
    assert system.check(system.orient(xi)).ok


def test_readme_lists_each_subcommand_with_its_options():
    block = _readme_block("Command line", "sh")
    listed = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["omegagraph"]:
            listed[words[1]] = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", " ".join(words[2:])))
    assert listed == _declared_options(cli.build_parser())


def test_report_enumerates_separations_once(capsys, monkeypatch):
    calls = 0
    enumerate_seps = cli._enumerate_seps

    def counting(*args):
        nonlocal calls
        calls += 1
        return enumerate_seps(*args)

    monkeypatch.setattr(cli, "_enumerate_seps", counting)
    code, out, _ = run(capsys, "report", "--json", SPEC["comb"], "--horizon", "3")
    assert code == 0
    tangles = json.loads(out)["tangles"]
    assert len(tangles) > 1 and calls == 1
    assert len({t["separations"] for t in tangles}) == 1


def test_limit_and_report_delete_each_set_once(capsys, monkeypatch):
    # counts the deletions of the CLI and of gamma's system builder;
    # distinguish searches its own sets through separations.delete
    from omegagraph import components, gamma

    calls = 0
    delete = components.delete

    def counting_delete(g, X):
        nonlocal calls
        calls += 1
        return delete(g, X)

    monkeypatch.setattr(components, "delete", counting_delete)
    monkeypatch.setattr(gamma, "delete", counting_delete)
    for argv, want in (
        (["limit", SPEC["combo"], "--json", "--family", "{};{core:a};{core:b};{core:a,core:b}"], 4),
        (["report", SPEC["combo"], "--json", "--horizon", "2"], 10),
        (["report", SPEC["comb"], "--json", "--horizon", "3"], 7),
    ):
        calls = 0
        code, _, _ = run(capsys, *argv)
        assert (code, calls) == (0, want), argv


def test_report_builds_one_box_per_separation_list(capsys, monkeypatch):
    from omegagraph import separations

    boxes = 0
    init = separations._Box.__init__

    def counting(self, *args):
        nonlocal boxes
        boxes += 1
        init(self, *args)

    monkeypatch.setattr(separations._Box, "__init__", counting)
    code, out, _ = run(capsys, "report", "--json", SPEC["combo"], "--horizon", "8")
    assert code == 0 and len(json.loads(out)["tangles"]) > 1
    assert boxes == 1


def test_report_and_check_tangle_build_no_side_vertex_sets(capsys, monkeypatch):
    # side ints come from the component descriptors, not from vertex sets
    from omegagraph import separations
    from symbolic_reference import big_set

    calls = 0
    init = separations.SymbolicVertexSet.__init__

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        init(*args, **kwargs)

    monkeypatch.setattr(separations.SymbolicVertexSet, "__init__", counting)
    for argv in (
        ("report", SPEC["combo"], "--json", "--horizon", "8"),
        ("check-tangle", SPEC["combo"], "--json", "--point", "end:s1", "--horizon", "3", "--seps", "auto:3"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv
    assert calls == 0
    # the count is live: a side vertex set asked for is built through it
    sep = cli._enumerate_seps(combo(), 0, 0)[0]
    big_set(sep.orient(True))
    assert calls == 1


# ---------------------------------------------------------------------------
# The parser is built once per process and only read afterwards

COMMANDS = ["analyze", "report", "components", "critical", "classify", "limit",
            "check-tangle", "distinguish", "export-dot"]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    codes = [run(capsys, "classify", SPEC[name])[0] for name in ("star", "ray", "comb", "combo")]
    code, _, err = run(capsys, "components", SPEC["ray"], "--delete", "core:nope")
    assert (codes, code, err) == ([0, 0, 0, 0], 1, "UnknownVertex('core:nope')\n")
    # one top-level parser and one per subcommand
    assert built <= 10


def test_shared_parser_parses_from_threads():
    argvs = [
        ["report", "g.json", "--json", "--horizon", "3"],
        ["check-tangle", "h.json", "--point", "end:s1", "--seps", "auto:2"],
        ["limit", "g.json", "--family", "{};{core:a}", "--horizon", "5"],
        ["components", "k.json", "--delete", "core:a,core:b", "--json"],
    ]
    want = [cli.build_parser().parse_args(argv) for argv in argvs]
    parser = cli._parser()
    start = threading.Barrier(len(argvs))
    got = [[] for _ in argvs]

    def parse(n):
        start.wait()
        got[n].extend(parser.parse_args(argvs[n]) for _ in range(200))

    threads = [threading.Thread(target=parse, args=(n,)) for n in range(len(argvs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 200 for w in want]


def _exit_output(capsys, argv) -> tuple:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_help_and_usage_errors_are_the_same_after_use(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    targets = [["--help"], ["--bogus"]]
    for command in COMMANDS:
        targets += [[command, "--help"], [command, "g.json", "--bogus"]]

    def first_call(argv):
        cli._parser.cache_clear()
        return _exit_output(capsys, argv)

    first = [first_call(argv) for argv in targets]
    for n in range(20):
        run(capsys, "classify", SPEC["ray"], "--json")
        if n % 4 == 0:
            _exit_output(capsys, [COMMANDS[n % len(COMMANDS)], "--help"])
    assert [_exit_output(capsys, argv) for argv in targets] == first
    assert all(code == 0 and out.startswith("usage: omegagraph") for code, out, _ in first[0::2])
    assert all(code == 2 and "error:" in err for code, _, err in first[1::2])
