"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each traced function at every module that
binds it (``from .x import y`` makes a second binding) with a wrapper that
times the call.  Spans nest through a stack: a layer's self time is its
duration minus the time of the traced calls it made.  Spans are not kept
one by one; each layer keeps its call count, self time and the counts
read from its arguments and return values.  ``uninstall`` puts the
original functions back.

Which end-to-end metric each layer should move, and on which workload:

    pattern.validate                       setup_s, every workload
    pattern.truncate, pattern.neighbors    queries_per_s, oracle-check
    oracle.*, components.oracle_mismatch   queries_per_s, oracle-check
    components.delete                      query_p90_ms and queries_per_s on
                                           delete-sweep, less on report-gamma
    separations.enumerate_tame_separations,
      induced_orientation, check_tangle,
      distinguish                          query_p90_ms, report-gamma
    separations.svs_subseteq (memo lookups),
      subseteq_computed (misses), memo_*   query_p90_ms and peak_rss_mb,
                                           report-gamma
    gamma.*, classify.*, cli.*             query_p90_ms, report-gamma
    runtime.gc_*                           peak_rss_mb and query_p90_ms,
                                           report-gamma

``separations.memo_hit_ratio`` is (lookups - misses) / lookups, with
``separations.svs_subseteq.calls`` as its base.  Garbage collection pauses
are also counted in the self time of the layer they interrupt.
"""

from __future__ import annotations

import gc
import importlib
import time

_perf = time.perf_counter


def _delete_counts(args, kwargs, cs):
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"x_size": len(X), "stabilization_bound_sum": cs.stabilization_bound, "descriptors_out": len(cs.descriptors)}


# layer name -> (function name, omegagraph modules binding it, counts from (args, kwargs, result))
LAYERS = {
    "pattern.validate": ("validate", ("pattern", "cli", "fixture_graphs"), None),
    "pattern.truncate": ("truncate", ("pattern", "components", "cli"),
                         lambda a, k, r: {"vertices_out": len(r.vertices), "edges_out": len(r.edges)}),
    "pattern.neighbors": ("neighbors", ("pattern",), None),
    "oracle.components_after_deletion": ("components_after_deletion", ("oracle",),
                                         lambda a, k, r: {"components_out": len(r)}),
    "components.oracle_mismatch": ("oracle_mismatch", ("components",),
                                   lambda a, k, r: {"mismatches": int(r is not None)}),
    "components.delete": ("delete", ("components", "separations", "gamma", "classify"), _delete_counts),
    "separations.enumerate_tame_separations": ("enumerate_tame_separations", ("separations",),
                                               lambda a, k, r: {"seps_out": len(r)}),
    "separations.induced_orientation": ("induced_orientation", ("separations",), None),
    "separations.check_tangle": ("check_tangle", ("separations",), None),
    "separations.distinguish": ("distinguish", ("separations",), None),
    "separations.svs_subseteq": ("svs_subseteq", ("separations",), None),
    "separations.subseteq_computed": ("subseteq", ("separations.SymbolicVertexSet",), None),
    "gamma.check_inverse_system": ("check_inverse_system", ("gamma",),
                                   lambda a, k, r: {"checks_out": len(r.entries)}),
    "gamma.bonding_f": ("bonding_f", ("gamma",), None),
    "gamma.compose": ("compose", ("gamma",), None),
    "gamma.maps_equal": ("maps_equal", ("gamma",), None),
    "gamma.limit_points": ("limit_points", ("gamma",), None),
    "classify.trichotomy": ("trichotomy", ("classify",), None),
    "classify.enumerate_critical": ("enumerate_critical", ("classify",), None),
    "cli.main": ("main", ("cli",), None),
}

COUNTS = {
    "pattern.truncate": ("vertices_out", "edges_out"),
    "oracle.components_after_deletion": ("components_out",),
    "components.oracle_mismatch": ("mismatches",),
    "components.delete": ("x_size", "stabilization_bound_sum", "descriptors_out"),
    "separations.enumerate_tame_separations": ("seps_out",),
    "gamma.check_inverse_system": ("checks_out",),
}


def _resolve(path: str):
    """``separations.SymbolicVertexSet`` -> that object inside omegagraph."""
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"omegagraph.{module}")
    return getattr(obj, attr) if attr else obj


class Tracer:
    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0, **{c: 0 for c in COUNTS.get(name, ())}} for name in LAYERS}
        self._stack: list[float] = []  # time spent in traced children of each open span
        self._saved: list[tuple] = []
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = None

    def _wrap(self, name, fn, counts):
        stats, stack = self.stats[name], self._stack

        def traced(*args, **kwargs):
            start = _perf()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                stats["calls"] += 1
                stats["self_s"] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if counts is not None:
                for key, n in counts(args, kwargs, result).items():
                    stats[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _perf()
        elif self._gc_start is not None:
            self.gc_pause_s += _perf() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def install(self):
        for name, (attr, owner_names, counts) in LAYERS.items():
            owners = [_resolve(o) for o in owner_names]
            original = getattr(owners[0], attr, None)
            if original is None:  # the layer is gone from the library: it reports zero calls
                continue
            wrapper = self._wrap(name, original, counts)
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def metrics(self) -> dict:
        """Flat ``layer.stat`` -> value, plus memo and runtime figures."""
        out = {}
        for name, st in self.stats.items():
            if name == "separations.subseteq_computed":
                out[name] = st["calls"]
                out[name + ".self_s"] = st["self_s"]
                continue
            for key, val in st.items():
                out[f"{name}.{key}"] = val
        lookups = self.stats["separations.svs_subseteq"]["calls"]
        computed = self.stats["separations.subseteq_computed"]["calls"]
        out["separations.memo_hit_ratio"] = (lookups - computed) / lookups if lookups else 0.0
        out["separations.memo_entries_end"] = len(getattr(_resolve("separations"), "_SUBSETEQ_MEMO", ()))
        out["runtime.gc_pause_s"] = self.gc_pause_s
        out["runtime.gc_gen2_collections"] = self.gc_gen2
        return out
