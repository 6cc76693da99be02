"""eulercc benchmark: one workload per run, end to end or traced layer by layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the library is imported from its src/.
The run prints a run record line, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Operations whose answer
fails a check are counted in "failed" and the run still exits 0; a
benchmark error (no sources, a child that hangs, an unexpected crash of the
benchmark itself) exits 2 without a result. "correct" is false when an
operation failed in a way none of the checks describes: an exception other
than ToleranceError, an unexpected CLI exit code, or a traced answer that
differs from the untraced one.

A run measures a fixed number of operations for its --seconds, about that
much operation time on the machine the workloads were sized on, so the same
seed and --seconds give the same operations and the same failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("census", "band_b1", "figure_grid", "cold_cli")
# Failure kinds the checks describe; any other kind makes the run incorrect.
KNOWN_FAILURES = {"tolerance", "mirror", "unconfirmed_root", "grid_mismatch", "cli_output"}
# Raw time of a traced run's group over an untraced one's: both sides run.
TRACED_COST = 2.25


class BenchError(Exception):
    pass


def import_checkout():
    """Put the checkout's src/ first on the path and import eulercc from it."""
    pkg = ROOT / "src" / "eulercc"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no eulercc sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import eulercc

    if Path(eulercc.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"eulercc was imported from {eulercc.__file__}, not {pkg}")


def percentile(sorted_xs, pct):
    k = (len(sorted_xs) - 1) * pct / 100.0
    f = int(k)
    c = min(f + 1, len(sorted_xs) - 1)
    return sorted_xs[f] + (sorted_xs[c] - sorted_xs[f]) * (k - f)


def setup_probes(workload, seed):
    """import_s and setup_s from SETUP_PROBES fresh interpreters."""
    from workloads import child_env

    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, env=child_env(), timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Tally:
    """Attempted and failed operations, failure kinds, and failing examples."""

    def __init__(self, tolerance_error):
        self.tolerance_error = tolerance_error
        self.attempted = 0
        self.failed = 0
        self.kinds = Counter()
        self.examples = []
        self.correct = True

    def add(self, wl, op, result):
        if isinstance(result, self.tolerance_error):
            kinds = ["tolerance"]
        elif isinstance(result, Exception):
            kinds = [f"error:{type(result).__name__}"]
        else:
            kinds = wl.check(op, result)
        self.attempted += wl.points
        if not kinds:
            return
        # a figure row fails point by point; any other operation fails once
        self.failed += len(kinds) if wl.points > 1 else 1
        self.kinds.update(kinds)
        if any(k not in KNOWN_FAILURES for k in kinds):
            self.correct = False
        if len(self.examples) < 5:
            self.examples.append({"op": repr(op)[:300], "kinds": sorted(set(kinds))})


def run_op(wl, op, tracer=None):
    """(result or the exception raised, seconds)."""
    t = time.perf_counter()
    try:
        result = tracer.op(wl.run, op) if tracer is not None else wl.run(op)
    except subprocess.SubprocessError:
        raise  # a child that hangs is a benchmark error
    except Exception as exc:  # counted as a failed operation
        result = exc
    return result, time.perf_counter() - t


def outcome(wl, result):
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return wl.answer(result)


def group_count(wl, seconds, traced):
    """Groups in a run: about `seconds` of raw operation time.

    The count depends on `seconds` alone, not on the clock, so the same seed
    and seconds give the same operations, and so the same attempted and
    failed counts, however fast the machine runs at the moment. A traced run
    runs every block twice, once traced, and reports no tail latency, so it
    ignores the workload's minimum.
    """
    if traced:
        return max(1, round(seconds / (wl.group_s * TRACED_COST)))
    return max(wl.min_groups, round(seconds / wl.group_s))


def measure(wl, n_groups, tally):
    """Per-operation latencies and (raw, scaled) busy seconds.

    Each block is timed between two reference runs and scaled to reference
    speed (see reference.py). The answers are checked after each group,
    outside the timed region.
    """
    lat = []
    raw = scaled = 0.0
    for group in itertools.islice(wl.groups(), n_groups):
        done = []
        ref = wl.reference()
        for block in group:
            times = []
            for op in block:
                result, dt = run_op(wl, op)
                times.append(dt)
                done.append((op, result))
            ref_next = wl.reference()
            scale = 2.0 * wl.ref_s / (ref + ref_next)
            ref = ref_next
            lat.extend(dt * scale / wl.points for dt in times)
            raw += sum(times)
            scaled += sum(times) * scale
        for op, result in done:
            tally.add(wl, op, result)
    return lat, raw, scaled


def measure_traced(wl, n_groups, tally, tracer):
    """Each block runs untraced and traced, alternating which side goes first.

    Returns the grid points per side and each side's raw and scaled seconds.
    """
    raw = {False: 0.0, True: 0.0}
    scaled = {False: 0.0, True: 0.0}
    points = 0
    k = 0
    for group in itertools.islice(wl.groups(), n_groups):
        for block in group:
            done = {}
            ref = wl.reference()
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    wl.trace_on(tracer)
                done[traced] = []
                t = 0.0
                try:
                    for op in block:
                        result, dt = run_op(wl, op, tracer if traced else None)
                        t += dt
                        done[traced].append((op, result))
                finally:
                    if traced:
                        wl.trace_off(tracer)
                ref_next = wl.reference()
                raw[traced] += t
                scaled[traced] += t * 2.0 * wl.ref_s / (ref + ref_next)
                ref = ref_next
            k += 1
            for (op, plain), (_, traced) in zip(done[False], done[True]):
                if not isinstance(traced, Exception):
                    wl.collect(traced)
                if outcome(wl, plain) != outcome(wl, traced):
                    tally.correct = False
                tally.add(wl, op, plain)
            points += len(block) * wl.points
    return points, raw, scaled


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_checkout()
    OUT.mkdir(exist_ok=True)
    from eulercc.numerics import ToleranceError
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    probes = setup_probes(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    tally = Tally(ToleranceError)
    n_groups = group_count(wl, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "setup_probes": probes, "groups": n_groups,
    }
    import_s = statistics.median(p["import_s"] for p in probes)
    if args.trace:
        tracer = Tracer()
        points, raw, scaled = measure_traced(wl, n_groups, tally, tracer)
        tracer.dump(OUT / f"spans-{wl.name}.bin")
        # span times of the traced side, scaled like every other reported time
        time_scale = scaled[True] / raw[True]
        import_s, process_s = wl.trace_times(import_s, time_scale)
        metrics = layer_metrics(wl.trace_summary(tracer), points, time_scale, import_s,
                                1.0 - scaled[False] / scaled[True], process_s)
        record.update(points=points, untraced_raw_s=raw[False], traced_raw_s=raw[True],
                      untraced_s=scaled[False], traced_s=scaled[True], spans=len(tracer.start))
    else:
        lat, raw_s, busy = measure(wl, n_groups, tally)
        rss_mb = resource.getrusage(wl.rusage_who).ru_maxrss / 1024.0
        lat.sort()
        beyond = sum(1 for x in lat if x > percentile(lat, wl.tail_pct))
        metrics = {
            "ops_per_s": {"value": tally.attempted / busy, "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * percentile(lat, 50.0), "unit": "ms"},
            "op_ms_tail": {"value": 1e3 * percentile(lat, wl.tail_pct), "unit": "ms"},
            "ok_share": {"value": 1.0 - tally.failed / tally.attempted, "unit": "share"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        record.update(raw_busy_s=raw_s, busy_s=busy, raw_ops_per_s=tally.attempted / raw_s,
                      latency_samples=len(lat), tail_pct=wl.tail_pct,
                      tail_samples_beyond=beyond,
                      op_ms={f"p{p:g}": 1e3 * percentile(lat, p) for p in (50, 90, 95, 99)})
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failure_kinds=dict(tally.kinds), failure_examples=tally.examples,
                  correct=tally.correct)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("run record: " + json.dumps(record))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(2)
