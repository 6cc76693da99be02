"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each eulercc layer from outside the
package: every module namespace that holds a layer function (the defining
module and every module that imported it by name) gets the same wrapper, so
`euler.sum_sign` and `numerics.sum_sign` land in one span name. Spans are
kept in memory as parallel arrays (name, parent, start, end) and written out
at the end; self times, stage times and the per-layer counters are computed
from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

# Layer functions wrapped in the traced run; the span name is "<module>.<function>".
LAYER_FUNCTIONS = (
    "numerics.sum_sign",
    "numerics.certified_sign_near_zero",
    "numerics.bisect_sign_change",
    "numerics.isolate_between",
    "signomial.count_and_isolate",
    "euler.count_cell",
    "euler.endpoint_sign_g",
    "classifier.classify_total",
    "classifier.grid_scan",
    "cli.main",
)
OP = "bench.op"
NAMES = LAYER_FUNCTIONS + (OP,)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Collects spans while installed; install() and uninstall() may alternate."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []

    # --- recording --------------------------------------------------------------

    def _span(self, nid, fn, args, kwargs):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation as a root span."""
        return self._span(_ID[OP], fn, args, {})

    def _wrapper(self, name, fn):
        nid = _ID[name]
        span = self._span
        counts = self.counts

        if name == "numerics.bisect_sign_change":
            def wrapper(sign_fn, *args, **kwargs):
                def counted(x):
                    counts["bisect.sign_evals"] += 1
                    return sign_fn(x)
                return span(nid, fn, (counted,) + args, kwargs)
        elif name == "numerics.certified_sign_near_zero":
            from eulercc.numerics import ToleranceError

            def wrapper(*args, **kwargs):
                try:
                    return span(nid, fn, args, kwargs)
                except ToleranceError:
                    counts["anchor.refused"] += 1
                    raise
        elif name == "numerics.isolate_between":
            def wrapper(*args, **kwargs):
                roots = span(nid, fn, args, kwargs)
                counts["isolate.roots"] += len(roots)
                counts["isolate.degenerate_roots"] += sum(r.degenerate for r in roots)
                return roots
        elif name == "signomial.count_and_isolate":
            def wrapper(*args, **kwargs):
                result = span(nid, fn, args, kwargs)
                counts["signomial.roots"] += len(result[1])
                return result
        elif name == "euler.count_cell":
            def wrapper(*args, **kwargs):
                result = span(nid, fn, args, kwargs)
                counts["cell.solutions"] += len(result[1])
                counts["cell.degenerate"] += sum(s.degenerate for s in result[1])
                return result
        elif name == "classifier.grid_scan":
            def wrapper(*args, **kwargs):
                result = span(nid, fn, args, kwargs)
                counts["grid.checked"] += result.checked
                counts["grid.mismatches"] += len(result.mismatches)
                return result
        else:
            def wrapper(*args, **kwargs):
                return span(nid, fn, args, kwargs)
        return wrapper

    def install(self):
        """Patch every eulercc namespace that holds a layer function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "eulercc" or key.startswith("eulercc."))]
        for name in LAYER_FUNCTIONS:
            mod, func = name.split(".")
            original = getattr(importlib.import_module("eulercc." + mod), func)
            wrapper = self._wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        # mpmath is the last-resort tier; count its precision contexts entered
        # from numerics, wherever numerics gets the module from.
        import mpmath

        workdps = mpmath.workdps
        counts = self.counts

        def counted_workdps(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "eulercc.numerics":
                counts["mpmath.entries"] += 1
            return workdps(*args, **kwargs)

        mpmath.workdps = counted_workdps
        self._undo.append((mpmath, "workdps", workdps))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # --- output -----------------------------------------------------------------

    def dump(self, path):
        """Write the spans: one JSON header line, then the four arrays' bytes."""
        header = {"names": list(NAMES), "spans": len(self.start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self):
        """Totals from the spans: calls, wall and self seconds per name, stages, counters.

        A span's self time is its duration minus the durations of its direct
        child spans. Inside euler.count_cell the stages are attributed by call
        order: h runs until the first direct signomial.count_and_isolate child
        returns, g' until the next direct numerics.isolate_between child
        returns, and g for the rest of the call.
        """
        n = len(self.start)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * n
        cell_id = _ID["euler.count_cell"]
        h_id = _ID["signomial.count_and_isolate"]
        iso_id = _ID["numerics.isolate_between"]
        h_end = {}
        gp_end = {}
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            child[p] += end[i] - start[i]
            if name[p] == cell_id:
                if name[i] == h_id and p not in h_end:
                    h_end[p] = end[i]
                elif name[i] == iso_id and p in h_end and p not in gp_end:
                    gp_end[p] = end[i]
        calls = [0] * len(NAMES)
        wall = [0.0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        stage = {"h": 0.0, "gp": 0.0, "g": 0.0}
        for i in range(n):
            k = name[i]
            d = end[i] - start[i]
            calls[k] += 1
            wall[k] += d
            self_s[k] += d - child[i]
            if k == cell_id:
                t_h = h_end.get(i, end[i])
                t_gp = gp_end.get(i, end[i])
                stage["h"] += t_h - start[i]
                stage["gp"] += t_gp - t_h
                stage["g"] += end[i] - t_gp
        return {
            "calls": dict(zip(NAMES, calls)),
            "wall_s": dict(zip(NAMES, wall)),
            "self_s": dict(zip(NAMES, self_s)),
            "stage_s": stage,
            "counts": dict(self.counts),
        }


def merge(total, part):
    """Add one summary into another (for summaries from several processes)."""
    for key, values in part.items():
        sub = total.setdefault(key, {})
        for k, v in values.items():
            sub[k] = sub.get(k, 0) + v
    return total


def layer_metrics(summary, ops, time_scale, import_s, overhead_share, cli_process_s):
    """The per-layer metrics of BENCHMARK.json, normalized per operation.

    Span times are multiplied by time_scale (reference speed over measured
    speed); import_s and cli_process_s come in already scaled.
    """
    calls = summary.get("calls", {})
    self_s = summary.get("self_s", {})
    counts = summary.get("counts", {})
    stage = summary.get("stage_s", {})

    def per_op(x):
        return x / ops

    def per_op_s(x):
        return x * time_scale / ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in ("numerics.sum_sign", "numerics.bisect_sign_change",
                  "numerics.certified_sign_near_zero", "numerics.isolate_between",
                  "signomial.count_and_isolate", "euler.count_cell",
                  "euler.endpoint_sign_g", "classifier.classify_total"):
        put(layer + ".calls", per_op(calls.get(layer, 0)), "calls/op")
        put(layer + ".self_s", per_op_s(self_s.get(layer, 0.0)), "s/op")
    evals = counts.get("bisect.sign_evals", 0)
    put("numerics.bisect_sign_change.sign_evals", per_op(evals), "evals/op")
    put("numerics.bisect_sign_change.evals_per_root",
        ratio(evals, calls.get("numerics.bisect_sign_change", 0)), "evals/root")
    put("numerics.certified_sign_near_zero.refused", per_op(counts.get("anchor.refused", 0)),
        "1/op")
    put("numerics.mpmath.entries", per_op(counts.get("mpmath.entries", 0)), "1/op")
    put("numerics.isolate_between.roots", per_op(counts.get("isolate.roots", 0)), "roots/op")
    put("numerics.isolate_between.degenerate_roots",
        per_op(counts.get("isolate.degenerate_roots", 0)), "roots/op")
    put("signomial.count_and_isolate.roots", per_op(counts.get("signomial.roots", 0)),
        "roots/op")
    put("euler.count_cell.degenerate_share",
        ratio(counts.get("cell.degenerate", 0), counts.get("cell.solutions", 0)), "share")
    for key in ("h", "gp", "g"):
        put(f"euler.stage.{key}_s", per_op_s(stage.get(key, 0.0)), "s/op")
    put("classifier.grid_scan.checked", per_op(counts.get("grid.checked", 0)), "1/op")
    put("classifier.grid_scan.mismatches", per_op(counts.get("grid.mismatches", 0)), "1/op")
    put("cli.import_s", import_s, "s")
    put("cli.main.self_s", per_op_s(self_s.get("cli.main", 0.0)), "s/op")
    put("cli.process_s", cli_process_s, "s/op")
    put("trace.overhead_share", overhead_share, "share")
    return out
