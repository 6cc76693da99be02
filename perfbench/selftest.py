"""Self-test of the benchmark: tiny runs print every metric BENCHMARK.json names.

    python3 perfbench/selftest.py

For each workload it makes a one-second run with --trace 0 and with
--trace 1 and checks the last output line: exactly the keys correct,
attempted, failed and metrics, and exactly the end-to-end (or per-layer)
metric names with their units. It also checks that a directory holding
only BENCHMARK.json and perfbench/ (no sources) makes the benchmark exit
non-zero without a result. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            doc = json.loads(proc.stdout.splitlines()[-1])
            before = len(problems)
            if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(doc)}")
            if not (isinstance(doc["attempted"], int) and doc["attempted"] >= 1):
                problems.append(f"{label}: attempted {doc['attempted']!r}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            if got != want:
                units = [n for n in want.keys() & got.keys() if want[n] != got[n]]
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, units {units}")
            if len(problems) == before:
                print(f"ok   {label}: {len(got)} metrics, "
                      f"{doc['failed']}/{doc['attempted']} failed")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
