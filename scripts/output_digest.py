#!/usr/bin/env python3
"""One digest of eulercc's observable output, to compare two checkouts.

Hashes, section by section and in total:

- census, band_b1: the repr of count_all(m, b) and of count_all for the
  mirror (m3, m2, m1), or the error it raised, on the seeded draws of the
  benchmark workloads of those names (m in [-10, 10]^3, b in [-5, 5] or
  [0.8, 1.2], drawn in the order perfbench/workloads.py draws them);
- counts: the same draws' counts and degenerate flags alone, or the
  error, with no root values, so that a change that moves roots can still
  show that it changed no count or flag;
- counts_only: the repr of count_all(m, b, roots=False), or the error it
  raised, on the same draws, which reaches the count-only path that the
  grid takes;
- refusals: the repr of count_all(m, b), or the error it raised, where the
  series of g overflow floats: for two seeded mass triples per seed at every
  integer b in [-380, -360] and in [1015, 1031], and for a tenth of --draws
  seeded (m, b) per seed in each of b in [-700, -300] and [900, 1500];
- grid: the CSV of `eulercc grid --m2 -4:2 --b -4:4 -n 50x50 --check`;
- map: the CSV of `eulercc grid --m2 -4:2 --b -4:4 -n 200x200`, the map
  of the benchmark's cold_cli workload;
- cli: stdout, stderr and exit code of the README's solve, signomial and
  bounds examples and of `eulercc verify`.

The library is imported from this checkout's src/, so running the script in
two checkouts and comparing the last line tells whether they print the same
bytes:

    python scripts/output_digest.py --seeds 1-3 --draws 2700
"""

import argparse
import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eulercc import cli  # noqa: E402
from eulercc.euler import count_all  # noqa: E402
from eulercc.numerics import ToleranceError  # noqa: E402

DRAW_B_RANGES = {"census": (-5.0, 5.0), "band_b1": (0.8, 1.2)}

# Where the binomials, a series coefficient or a tail bound of g overflow
# floats: integer b around the edges of the refusals, and the wider ranges.
REFUSAL_B_EDGES = ((-380, -360), (1015, 1031))
REFUSAL_B_RANGES = ((-700.0, -300.0), (900.0, 1500.0))

CLI_EXAMPLES = (
    ["solve", "-m", "1,1,1", "-b", "-2"],
    ["solve", "-m", "0,-1,1", "-b", "-2"],
    ["signomial", "--terms", "[[1,0.5],[-3,1],[1,2]]"],
    ["signomial", "--terms", "[[2,0],[5,1],[4,2],[-4,3],[-5,4],[-2,5]]"],
    ["bounds", "straight", "-n", "6"],
    ["bounds", "khovanskii", "-d", "1,2", "-k", "4"],
    ["verify"],
)


def solve(masses, b, roots=True):
    """count_all(masses, b, roots=roots), or the ToleranceError it raised."""
    try:
        return count_all(masses, b, roots=roots)
    except ToleranceError as exc:
        return exc


def result_text(result):
    if isinstance(result, ToleranceError):
        return f"ToleranceError: {result}"
    return repr(result)


def count_line(masses, b):
    """The repr of count_all(masses, b), or the ToleranceError it raised, with its input."""
    return f"{masses!r} {b!r} {result_text(solve(masses, b))}"


def counts_text(result):
    """The counts and the solutions' degenerate flags of a count_all result, or its error."""
    if isinstance(result, ToleranceError):
        return result_text(result)
    counts, sols = result
    return f"{counts!r} {[sol.degenerate for sol in sols]!r}"


def draw_masses(rng):
    return tuple(rng.uniform(-10.0, 10.0) for _ in range(3))


def draw_results(name, seeds, draws):
    """(masses, b, result) of count_all on the first draws of a census-type workload."""
    results = []
    for seed in seeds:
        rng = random.Random(f"{name}:{seed}")
        for _ in range(draws):
            m = draw_masses(rng)
            b = rng.uniform(*DRAW_B_RANGES[name])
            for masses in (m, m[::-1]):
                results.append((masses, b, solve(masses, b)))
    return results


def refusal_lines(seeds, draws):
    """The repr lines of count_all at b where the series of g overflow floats."""
    for seed in seeds:
        rng = random.Random(f"refusals:{seed}")
        triples = [draw_masses(rng) for _ in range(2)]
        for lo, hi in REFUSAL_B_EDGES:
            for b in range(lo, hi + 1):
                for masses in triples:
                    yield count_line(masses, float(b))
        for b_range in REFUSAL_B_RANGES:
            for _ in range(max(1, draws // 10)):
                masses = draw_masses(rng)
                yield count_line(masses, rng.uniform(*b_range))


def cli_run(argv):
    """(exit code, stdout, stderr) of eulercc.cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def grid_lines(*options):
    code, out, err = cli_run(["grid", "--m2", "-4:2", "--b", "-4:4", *options])
    return [f"exit {code}", err, *out.splitlines()]


def cli_lines():
    for argv in CLI_EXAMPLES:
        code, out, err = cli_run(argv)
        yield f"$ eulercc {' '.join(argv)} -> exit {code}"
        yield out
        yield err


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-3"), metavar="A-B",
                    help="benchmark seeds of the census and band_b1 draws")
    ap.add_argument("--draws", type=int, default=2700,
                    help="draws per seed and workload, each counted with its mirror")
    ap.add_argument("--lines", action="store_true",
                    help="print the hashed lines instead of the digests")
    args = ap.parse_args()

    results = {name: draw_results(name, args.seeds, args.draws) for name in DRAW_B_RANGES}
    sections = {name: (f"{m!r} {b!r} {result_text(r)}" for m, b, r in results[name])
                for name in DRAW_B_RANGES}
    sections["counts"] = (f"{name} {m!r} {b!r} {counts_text(r)}"
                          for name in DRAW_B_RANGES for m, b, r in results[name])
    sections["counts_only"] = (f"{name} {m!r} {b!r} {result_text(solve(m, b, roots=False))}"
                               for name in DRAW_B_RANGES for m, b, _ in results[name])
    sections["refusals"] = refusal_lines(args.seeds, args.draws)
    sections["grid"] = grid_lines("-n", "50x50", "--check")
    sections["map"] = grid_lines("-n", "200x200")
    sections["cli"] = cli_lines()
    total = hashlib.sha256()
    for name, lines in sections.items():
        digest = hashlib.sha256()
        count = 0
        for line in lines:
            data = (line + "\n").encode()
            digest.update(data)
            total.update(data)
            count += 1
            if args.lines:
                print(f"{name}: {line}")
        if not args.lines:
            print(f"{name:11s} {count:6d} lines  sha256 {digest.hexdigest()}")
    if not args.lines:
        print(f"{'all':11s} {'':6s}        sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
