"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/compare.py --seeds 1-10 [--workloads census,band_b1]
        [--seconds 16] [--trace 0] [--against OTHER_CHECKOUT]

Runs of different workloads (and, with --against, of the two checkouts)
are interleaved seed by seed, alternating which checkout goes first, so a
drift in machine speed lands on every workload and side alike. OTHER_CHECKOUT
must hold the same perfbench/ files. For each workload, side and metric it
prints the median, the quartiles and the spread (q3 - q1) / median, with
the metric's bound from BENCHMARK.json; raw results go to
.bench_out/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()

    sides = {"this": ROOT}
    if args.against is not None:
        sides["other"] = args.against.resolve()
    workloads = args.workloads.split(",")
    results = []
    for i, seed in enumerate(seed_list(args.seeds)):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for side in order:
                t0 = time.perf_counter()
                res = run_once(sides[side], workload, seed, args.seconds, args.trace)
                wall = time.perf_counter() - t0
                results.append({"side": side, "workload": workload, "seed": seed,
                                "wall_s": wall, **res})
                print(f"seed {seed} {workload} {side}: {wall:.1f}s wall, "
                      f"{res['failed']}/{res['attempted']} failed", flush=True)

    out = ROOT / ".bench_out" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':12} {'side':5} {'metric':44} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for side in sides:
            runs = [r for r in results if r["workload"] == workload and r["side"] == side]
            for metric in runs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(metric)
                flag = " !" if bound is not None and spread > bound / 3 else ""
                print(f"{workload:12} {side:5} {metric:44} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                      f" {spread:7.4f} {bound if bound is not None else '':>6}{flag}")
    print(f"raw results: {out}")


if __name__ == "__main__":
    main()
