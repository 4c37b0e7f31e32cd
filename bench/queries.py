"""Child-side query execution and known-answer checks.

``prepare`` turns a job from ``plan.py`` into ready-to-run ``Query``
objects: it validates every input and parses every vertex token, so the
timed loop only calls into the library.  Each ``Query.run`` returns a small
JSON-able answer computed inside the timed region.  ``check`` compares an
answer with a known answer afterwards, outside the timed region: a closed
form, the brute-force oracle, a theorem of the paper (induced orientations
of points are tangles, distinct points are distinguished), or a digest of
the CLI's JSON recorded in ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from omegagraph import classify, cli, components, fixture_graphs, gamma, pattern, separations
from omegagraph.ids import parse_vertex

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Acceptance criterion 1 of the package: the trichotomy of each fixture.
TRICHOTOMY = {
    "ray": "Tough",
    "domray": "Tough",
    "star": "OnePointCase",
    "thetafan": "OnePointCase",
    "comb": "NeitherCase",
    "combo": "NeitherCase",
}


def _vertices(tokens) -> frozenset:
    return frozenset(parse_vertex(t) for t in tokens)


def _family(groups) -> list[frozenset]:
    return [_vertices(t for t in g[1:-1].split(",") if t) for g in groups]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Context:
    """Validated inputs, their spec file paths and the CLI's output volume."""

    def __init__(self, job: dict):
        self.graphs = {}
        self.paths = {}
        for name, inp in job["inputs"].items():
            if "fixture" in inp:
                path = fixture_graphs.fixture_path(inp["fixture"])
                self.paths[name] = str(path)
                with path.open() as fh:
                    raw = json.load(fh)
            else:
                raw = inp["spec"]
            self.graphs[name] = pattern.validate(raw)
        self.json_bytes = 0  # bytes the in-process CLI wrote


class Query:
    def __init__(self, spec: dict, ctx: Context):
        self.spec = spec
        self.op = spec["op"]
        self.case = spec.get("case")
        self.g = ctx.graphs[spec["input"]]
        if "X" in spec:
            self.X = _vertices(spec["X"])
        if "family" in spec:
            self.family = _family(spec["family"])
        if self.op == "cli":
            argv = spec["argv"]
            self.argv = [argv[0], ctx.paths[spec["input"]]] + argv[1:]
        self.label = f"{spec['op']} {spec['input']} " + json.dumps(
            {k: v for k, v in spec.items() if k not in ("op", "input", "X", "family")}
            | ({"X": len(spec["X"])} if "X" in spec else {})
        )

    def run(self, ctx: Context):
        op, g = self.op, self.g
        if op == "delete":
            cs = components.delete(g, self.X)
            crit = cs.crit()
            reads = [cs.family(Y) for Y in crit]
            reads.append(cs.family(frozenset()))
            return [
                len(cs.descriptors),
                len(cs.family_descriptors),
                len(crit),
                len(cs.cx_minus()),
                sum(len(f.explicit) + len(f.families) for f in reads),
                cs.stabilization_bound,
            ]
        if op == "oracle":
            cs = components.delete(g, self.X)
            P = max(cs.stabilization_bound, self.spec["periods"])
            C = max(cs.stabilization_bound, self.spec["copies"])
            return [components.oracle_mismatch(cs, P, C), P, C]
        if op == "truncate":
            fg = pattern.truncate(g, self.spec["periods"], self.spec["copies"])
            return [len(fg.vertices), len(fg.edges), len(fg.boundary)]
        if op == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self.argv)
            out = buf.getvalue()
            ctx.json_bytes += len(out.encode())
            return [rc, digest(out), out]
        if op == "system":
            report = gamma.check_inverse_system(g, self.family)
            return [report.ok, len(report.entries)]
        if op == "limit_count":
            return len(gamma.limit_points(g, self.family, self.spec["horizon"]))
        raise ValueError(f"unknown op {op!r}")


def prepare(job: dict):
    """Validate every input and build the query list of one pass."""
    ctx = Context(job)
    return ctx, [Query(spec, ctx) for spec in job["queries"]]


# ---------------------------------------------------------------------------
# Known answers

def _delete_form(form: str, n: int):
    """(descriptors, families, crit, cx_minus) of a deep deletion, in closed form.

    comb_prefix   comb minus its first n periods: n fan families, each
                  critical, and one tail component whose neighbourhood
                  {p_(n-1)} is itself critical.
    comb_deep     comb minus the single vertex p_n: the part before, the
                  family at n and the tail, all with neighbourhood {p_n}.
    comb_pfan     comb minus one fan vertex at period n: one component.
    combo_prefix  combo minus its first n periods: n families, the a-b-fan
                  component and the component of d and the tail.
    combo_deep    combo minus p_n: the family at n, the a-b-fan component
                  and the rest, held together by d.
    """
    return {
        "comb_prefix": (n + 1, n, n, 0),
        "comb_deep": (3, 1, 1, 0),
        "comb_pfan": (1, 0, 0, 1),
        "combo_prefix": (n + 2, n, n, 2),
        "combo_deep": (3, 1, 1, 1),
    }[form]


def _load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def check(q: Query, answer) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    s = q.spec
    if q.op == "delete":
        if s["form"] == "oracle":
            cs = components.delete(q.g, q.X)
            b = cs.stabilization_bound
            return components.oracle_mismatch(cs, b, b)
        want = _delete_form(s["form"], s["n"])
        return None if tuple(answer[:4]) == want else f"got {answer[:4]}, closed form {want}"
    if q.op == "oracle":
        return answer[0]
    if q.op == "truncate":
        P, C = s["periods"], s["copies"]
        want = [P * (1 + C), (P - 1) + P * C, P]  # comb: the ray, its fan copies, every p on the boundary
        return None if answer == want else f"got {answer}, closed form {want}"
    if q.op == "cli":
        return _check_cli(q, answer)
    if q.op == "system":
        if not answer[0]:
            return "inverse system check failed"
        if s.get("form") == "power_set":
            want = 2 * 3 ** s["n"] + 4 ** s["n"]  # continuity and condition 1 per pair, functoriality per chain
            return None if answer[1] == want else f"{answer[1]} checks, want {want}"
        return None
    if q.op == "limit_count":
        # the end and one critical set {p_t} per period t <= horizon; combo adds {a, b}
        want = 1 + (s["horizon"] + 1) + (s["input"] == "combo")
        return None if answer == want else f"{answer} limit points, want {want}"
    return f"no known answer for op {q.op!r}"


def _check_cli(q: Query, answer) -> str | None:
    rc, dig, out = answer
    if rc != 0:
        return f"exit code {rc}"
    s = q.spec
    doc = json.loads(out)
    if s.get("limit"):
        want = len(separations.all_points(q.g, _horizon(s)))
        return None if len(doc["points"]) == want else f"{len(doc['points'])} points, want {want}"
    key = cli_key(s)
    recorded = _load_digests().get(key)
    if recorded is None:
        return f"no recorded digest for {key}"
    if dig != recorded:
        return f"JSON digest {dig} differs from recorded {recorded}"
    if s["argv"][0] == "report":
        return _check_report(q, doc)
    return None if doc["ok"] else "check-tangle verdict not ok"


def _check_report(q: Query, doc: dict) -> str | None:
    if doc["classification"]["trichotomy"] != TRICHOTOMY[q.spec["input"]]:
        return f"trichotomy {doc['classification']['trichotomy']}"
    if not doc["gamma_system"]["ok"] or not all(t["ok"] for t in doc["tangles"]):
        return "report has a failed system or tangle check"
    if classify.trichotomy(q.g).trichotomy != TRICHOTOMY[q.spec["input"]]:
        return "library trichotomy differs from the table"
    for a, b in itertools.combinations(separations.all_points(q.g, _horizon(q.spec)), 2):
        sep = separations.distinguish(q.g, a, b)
        if separations.orient_by_point(a, sep).toward_side == separations.orient_by_point(b, sep).toward_side:
            return f"distinguish({a}, {b}) orients both points alike"
    return None


def _horizon(spec: dict) -> int:
    return int(spec["argv"][spec["argv"].index("--horizon") + 1])


def cli_key(spec: dict) -> str:
    return spec["input"] + " " + " ".join(spec["argv"])
