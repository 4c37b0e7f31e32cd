"""Command-line front end.

Subcommands: analyze, components, critical, classify, limit,
check-tangle, distinguish, export-dot, report.

Spec files are JSON documents with top-level keys "core" (vertices,
edges), "strips", "fans", "dominations"; see the shipped fixtures for
examples.  Vertex tokens follow the grammar

    core:name   strip:s/t/local   fan:f/k/local   pfan:s/t/k/local

and points of the limit space are written ``end:s1`` or
``crit:{core:a,core:b}``.  Exit codes: 0 success, 1 spec/input errors,
2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .ids import VertexId, core, format_vertex, parse_vertex, stripv, vertex_set_key
from .pattern import (
    PatternGraph,
    PatternValidationError,
    UnknownVertexError,
    truncate,
    validate,
)
from . import classify as _classify
from . import components as _components
from . import gamma as _gamma
from . import separations as _separations
from .dot import truncation_dot


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# JSON shapes (deterministic: canonical ordering everywhere)

def _tokens(vs) -> list[str]:
    return [format_vertex(v) for v in sorted(vs, key=VertexId.sort_key)]


def _handle_json(h) -> dict:
    if h[0] == "fan":
        return {"kind": "fan", "fan": h[1]}
    return {"kind": "pfan", "strip": h[1], "period": h[2]}


def _desc_json(desc) -> dict:
    return {
        "kind": desc.kind,
        "explicit": _tokens(desc.vertices),
        "tails": [{"strip": t.strip, "from": t.start} for t in desc.tails],
        "families": [
            {"handle": _handle_json(h), "excluded": sorted(e)} for h, e in desc.families
        ],
        "neighborhood": _tokens(desc.neighborhood),
    }


def _rule_json(rule) -> dict:
    return {"base": rule.base, "flips": sorted(rule.flips)}


def _separation_json(sep) -> dict:
    side = sep.side
    return {
        "X": _tokens(sep.cs.X),
        "side": {
            "explicit": [_desc_json(sep.cs.descriptor(k)) for k in sorted(side.explicit_in)],
            "families": [
                {"handle": _handle_json(h), "rule": _rule_json(side.rules[h])}
                for h in sorted(side.rules, key=_components.handle_sort_key)
                if not side.rules[h].is_empty()
            ],
        },
    }


def _parse_point(g: PatternGraph, token: str):
    if token.startswith("end:"):
        sid = token[4:]
        g.strip(sid)
        return _separations.end_point(sid)
    if token.startswith("crit:{") and token.endswith("}"):
        vs = _parse_vertices(g, token[len("crit:{"):-1])
        try:
            return _separations.crit_point(g, vs)
        except _components.NotCriticalError as exc:
            raise CliError(f"NotCritical: {exc}") from None
    raise CliError(f"bad point token {token!r}; use end:s1 or crit:{{core:a,core:b}}")


def _parse_vertices(g: PatternGraph, csv: str) -> frozenset:
    out = []
    for tok in csv.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = parse_vertex(tok)
            g.check_vertex(v)
        except (ValueError, UnknownVertexError):
            raise CliError(f"UnknownVertex({tok!r})") from None
        out.append(v)
    return frozenset(out)


def _parse_family(g: PatternGraph, text: str) -> list[frozenset]:
    """Semicolon-separated brace groups: "{};{strip:s1/0/p}"."""
    out = []
    for grp in text.split(";"):
        grp = grp.strip()
        if not (grp.startswith("{") and grp.endswith("}")):
            raise CliError(f"bad family group {grp!r}; wrap vertex lists in braces")
        out.append(_parse_vertices(g, grp[1:-1]))
    return out


def _load(path: str) -> PatternGraph:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    try:
        return validate(raw)
    except PatternValidationError as exc:
        lines = "\n".join(str(v) for v in exc.violations)
        raise CliError(f"invalid pattern graph:\n{lines}") from None


# ---------------------------------------------------------------------------
# Report assembly

def _summary_json(g: PatternGraph) -> dict:
    return {
        "core_vertices": list(g.core_vertices),
        "core_edges": [list(e) for e in g.core_edges],
        "strips": [s.id for s in g.strips],
        "fans": [f.id for f in g.fans],
        "periodic_fans": {s.id: s.periodic_fan.id for s in g.strips if s.periodic_fan},
        "dominations": [list(d) for d in g.dominations],
    }


def _classification_json(g: PatternGraph) -> dict:
    c = _classify.trichotomy(g)
    witnesses = []
    for w in c.end_witnesses:
        entry = {"strip": w.strip, "tough": w.tough}
        if w.tough:
            entry["isolating_set"] = _tokens(w.isolating_set)
        else:
            entry["periodic_fan"] = w.periodic_fan
        witnesses.append(entry)
    return {
        "tough": c.tough,
        "end_tough": c.end_tough,
        "trichotomy": c.trichotomy,
        "end_witnesses": witnesses,
    }


def _critical_json(g: PatternGraph, max_size: int, horizon: int) -> dict:
    sets = _classify.enumerate_critical(g, max_size, horizon)
    return {
        "bounds": {"max_size": max_size, "period_horizon": horizon},
        "sets": [_tokens(Y) for Y in sets],
    }


def _default_family(g: PatternGraph, horizon: int) -> list[frozenset]:
    seeds = _classify.enumerate_critical(g, 4, max(horizon, 1))[:2]
    if not seeds:
        if g.core_vertices:
            seeds = [frozenset({core(min(g.core_vertices))})]
        elif g.strips:
            s = g.strips[0]
            seeds = [frozenset({stripv(s.id, 0, min(s.locals))})]
    family = {frozenset()}
    for Y in seeds:
        family.add(frozenset(Y))
    if len(seeds) == 2:
        family.add(frozenset(seeds[0] | seeds[1]))
    return sorted(family, key=lambda X: (len(X), vertex_set_key(X)))


def _system_json(family, css: dict, maps: dict) -> dict:
    report = _gamma.verify_system(css, maps)
    return {
        "family": [_tokens(X) for X in family],
        "ok": report.ok,
        "checks": [
            {"check": c, "subject": s, "ok": ok, "detail": d}
            for c, s, ok, d in sorted(report.entries)
        ],
    }


def _components_json(cs: _components.ComponentSystem) -> dict:
    return {
        "X": _tokens(cs.X),
        "components": [_desc_json(d) for d in cs.descriptors],
        "crit": [_tokens(Y) for Y in sorted(cs.crit(), key=lambda Y: (len(Y), _tokens(Y)))],
        "cx_minus": [_desc_json(d) for d in cs.cx_minus()],
        "stabilization_bound": cs.stabilization_bound,
    }


def _tangle_json(system, xi, max_base: int, horizon: int) -> dict:
    """Tangle verdict of xi over the system, enumerated with (max_base, horizon)."""
    verdict = system.check(system.orient(xi))
    out = {
        "point": str(xi),
        "bounds": {"max_base_size": max_base, "period_horizon": horizon},
        "separations": len(system.seps),
        "ok": verdict.ok,
    }
    if verdict.violation:
        out["consistency_violation"] = [
            _separation_json(o.sep) for o in verdict.violation
        ]
    if verdict.star is not None:
        out["forbidden_star"] = [_separation_json(o.sep) for o in verdict.star]
    return out


def _enumerate_seps(g: PatternGraph, max_base: int, horizon: int):
    pool = [core(c) for c in g.core_vertices]
    for s in g.strips:
        pool.extend(stripv(s.id, t, l) for t in range(horizon) for l in s.locals)
    pool.sort(key=VertexId.sort_key)
    # distinct bases X give distinct separations: no deduplication across them
    seps = []
    for r in range(max_base + 1):
        for combo in itertools.combinations(pool, r):
            seps.extend(_separations.enumerate_tame_separations(_components.delete(g, combo)))
    return seps


def _distinguish_json(g: PatternGraph, xi1, xi2) -> dict:
    sep = _separations.distinguish(g, xi1, xi2)
    o1 = _separations.orient_by_point(xi1, sep)
    return {
        "points": [str(xi1), str(xi2)],
        "separation": _separation_json(sep),
        "first_point_toward_side": o1.toward_side,
    }


def _analysis_report(g: PatternGraph, args, full: bool) -> dict:
    horizon = args.horizon
    family = _default_family(g, horizon)
    css, maps = _gamma.build_system(g, family)
    report = {
        "seed": args.seed,
        "summary": _summary_json(g),
        "classification": _classification_json(g),
        "critical": _critical_json(g, max_size=4, horizon=horizon),
        "gamma_system": _system_json(family, css, maps),
    }
    if full:
        report["components"] = [_components_json(css[X]) for X in family]
        pts = _separations.all_points(g, horizon)
        system = _separations.SeparationSystem(g, _enumerate_seps(g, 1, min(horizon, 2)))
        report["tangles"] = [_tangle_json(system, xi, 1, min(horizon, 2)) for xi in pts]
        report["distinguish"] = [
            _distinguish_json(g, a, b) for a, b in itertools.combinations(pts, 2)
        ]
    return report


# ---------------------------------------------------------------------------
# Output plumbing

def _emit(obj, args) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True, indent=2))
        return
    print(_render_text(obj))


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, (dict, list, str)) and not obj:
        return pad + json.dumps(obj)
    if isinstance(obj, dict):
        lines = []
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_text(val)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(_render_text(item, indent))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}- {_render_text(item)}")
        if lines[-1] == pad + "-":
            lines.pop()
        return "\n".join(lines)
    return f"{pad}{obj}"


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_analyze(g: PatternGraph, args) -> int:
    report = _analysis_report(g, args, full=False)
    _emit(report, args)
    return 0 if report["gamma_system"]["ok"] else 2


def _cmd_report(g: PatternGraph, args) -> int:
    report = _analysis_report(g, args, full=True)
    _emit(report, args)
    bad = not report["gamma_system"]["ok"] or any(not t["ok"] for t in report["tangles"])
    return 2 if bad else 0


def _cmd_components(g: PatternGraph, args) -> int:
    X = _parse_vertices(g, args.delete or "")
    _emit(_components_json(_components.delete(g, X)), args)
    return 0


def _cmd_critical(g: PatternGraph, args) -> int:
    _emit(_critical_json(g, args.max_size, args.horizon), args)
    return 0


def _cmd_classify(g: PatternGraph, args) -> int:
    _emit(_classification_json(g), args)
    return 0


def _cmd_limit(g: PatternGraph, args) -> int:
    family = _parse_family(g, args.family)
    try:
        css, maps = _gamma.build_system(g, family)
    except _gamma.NotDirectedError as exc:
        raise CliError(f"NotDirected: {exc}") from None
    pts = _gamma._threads(g, css, maps, args.horizon)
    out = {
        "family": [_tokens(X) for X in family],
        "horizon": args.horizon,
        "points": [
            {
                "point": str(xi),
                "thread": {
                    "{" + ",".join(_tokens(X)) + "}": _point_json(pt, css[X])
                    for X, pt in sorted(
                        thread.items(), key=lambda it: (len(it[0]), _tokens(it[0]))
                    )
                },
            }
            for xi, thread in pts
        ],
    }
    _emit(out, args)
    return 0


def _desc_brief(desc) -> str:
    bits = []
    if desc.vertices:
        vs = _tokens(desc.vertices)
        bits.append(vs[0] + (f"+{len(vs) - 1}" if len(vs) > 1 else ""))
    bits.extend(f"tail:{t.strip}@{t.start}" for t in desc.tails)
    for h, _ in desc.families:
        bits.append("fam:" + (h[1] if h[0] == "fan" else f"{h[1]}@{h[2]}"))
    return f"{desc.kind}[{' '.join(bits)}]"


def _point_json(pt, cs) -> str:
    if pt[0] == "limit":
        return "limit:{" + ",".join(_tokens(pt[1])) + "}"
    if pt[0] == "member":
        h = pt[1]
        tag = f"fan:{h[1]}" if h[0] == "fan" else f"pfan:{h[1]}/{h[2]}"
        return f"member:{tag}/{pt[2]}"
    return "component:" + _desc_brief(cs.descriptor(pt[1]))


def _cmd_check_tangle(g: PatternGraph, args) -> int:
    xi = _parse_point(g, args.point)
    kind, _, size = args.seps.partition(":")
    try:
        max_base = int(size) if kind == "auto" else -1
    except ValueError:
        max_base = -1
    if max_base < 0:
        raise CliError(f"BadSeps({args.seps!r}): use auto:<max base size>, a non-negative integer")
    system = _separations.SeparationSystem(g, _enumerate_seps(g, max_base, args.horizon))
    out = _tangle_json(system, xi, max_base, args.horizon)
    _emit(out, args)
    return 0 if out["ok"] else 2


def _cmd_distinguish(g: PatternGraph, args) -> int:
    xi1 = _parse_point(g, args.a)
    xi2 = _parse_point(g, args.b)
    try:
        _emit(_distinguish_json(g, xi1, xi2), args)
    except _separations.PointsEqualError:
        raise CliError("PointsEqual: the two points coincide") from None
    except _separations.NotFoundWithinHorizonError as exc:
        raise CliError(f"NotFoundWithinHorizon({exc.horizon})", code=2) from None
    return 0


def _cmd_export_dot(g: PatternGraph, args) -> int:
    print(truncation_dot(truncate(g, args.periods, args.copies)), end="")
    return 0


def _non_negative(text: str) -> int:
    """An argparse type: anything but a non-negative integer is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


# The options that several subcommands take; each subcommand declares the ones it reads.
_OPTIONS = {
    "--json": dict(action="store_true", help="emit canonical JSON"),
    "--seed": dict(type=int, default=0, help="seed recorded in reports"),
    "--horizon": dict(type=_non_negative, default=2, help="period horizon for enumerations"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="omegagraph",
        description="Analyze finitely presented infinite graphs.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="path to a pattern graph JSON file")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(fn=fn)
        return p

    command("analyze", _cmd_analyze, "classification, critical sets, gamma system check",
            "--json", "--seed", "--horizon")
    command("report", _cmd_report, "full analysis report including tangles", "--json", "--seed", "--horizon")

    p = command("components", _cmd_components, "components of G - X", "--json")
    p.add_argument("--delete", default="", help="comma-separated vertex tokens")

    p = command("critical", _cmd_critical, "enumerate critical vertex sets", "--json", "--horizon")
    p.add_argument("--max-size", type=_non_negative, default=4)

    command("classify", _cmd_classify, "tough / end-tough trichotomy", "--json")

    p = command("limit", _cmd_limit, "limit points over a directed family", "--json", "--horizon")
    p.add_argument("--family", required=True, help='e.g. "{};{strip:s1/0/p}"')

    p = command("check-tangle", _cmd_check_tangle, "verify a point's induced orientation", "--json", "--horizon")
    p.add_argument("--point", required=True, help="end:s1 or crit:{core:a}")
    p.add_argument("--seps", default="auto:1", help="auto:<max base size>")

    p = command("distinguish", _cmd_distinguish, "separate two limit points", "--json")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = command("export-dot", _cmd_export_dot, "DOT of a truncation")
    p.add_argument("--periods", type=_non_negative, default=3)
    p.add_argument("--copies", type=_non_negative, default=3, help="fan copy bound for truncations")

    return ap


# One parser per process, built on first use: parse_args only reads it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(_load(args.spec), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so exit flushes quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except UnknownVertexError as exc:
        print(f"UnknownVertex({exc.vertex})", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
