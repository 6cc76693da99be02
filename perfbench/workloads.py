"""The four benchmark workloads: seeded inputs, one operation, answer checks.

Each workload yields its operations in groups (a census block of draws, one
full figure pass, one CLI cycle), and each group as a list of blocks: the
operations timed between two runs of the reference computation. A run
measures a fixed number of whole groups, set by `group_s` (see run.py), so
the same seed and seconds give the same operations and the same failures
at any machine speed. `run` performs one operation; `check` runs
outside the timed region and returns the failure kinds found for that
operation (empty when the answer is right).
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import mpmath

from eulercc import classifier, euler, signomial
from eulercc.numerics import ToleranceError
from reference import REF_PROCESS_S, REF_S, reference_process_s, reference_s
from tracing import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Relative offset at which a reported root must show a sign change of g.
ROOT_CHECK_REL = 1e-9
CHECK_DPS = 60
CHILD_TIMEOUT_S = 60


def child_env():
    """Environment for child interpreters: the checkout's sources, one worker."""
    env = dict(os.environ)
    env.pop("EULERCC_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _view(m, cell):
    # (left, middle, right) masses of a cell, as documented for euler.cell_mass_view
    m1, m2, m3 = m
    return {1: (m2, m1, m3), 2: (m1, m2, m3), 3: (m1, m3, m2)}[cell]


def g_sign_mp(mv, b, s):
    """Sign of the balance function g at s, in 60-digit arithmetic."""
    with mpmath.workdps(CHECK_DPS):
        s = mpmath.mpf(s)
        b = mpmath.mpf(b)
        u = 1 + s
        m1, m2, m3 = (mpmath.mpf(x) for x in mv)
        g = ((m2 + m3) * s ** b + (m1 + m3) * u ** b + m3 * (s ** (b + 1) - u ** (b + 1))
             - m1 * u - m2 * s)
        return mpmath.sign(g)


def root_confirmed(m, b, sol):
    """True when g changes sign across sol.s * (1 -/+ ROOT_CHECK_REL)."""
    mv = _view(m, sol.cell)
    lo = g_sign_mp(mv, b, sol.s * (1.0 - ROOT_CHECK_REL))
    hi = g_sign_mp(mv, b, sol.s * (1.0 + ROOT_CHECK_REL))
    return lo * hi < 0


class InProcess:
    """A workload whose operations call the library in this process."""

    points = 1  # operations per call (figure_grid counts grid points)
    min_groups = 1  # fewest groups an untraced run measures
    rusage_who = resource.RUSAGE_SELF  # whose ru_maxrss is peak_rss_mb
    ref_s = REF_S  # nominal time of reference()

    def reference(self):
        return reference_s()

    def trace_on(self, tracer):
        tracer.install()

    def trace_off(self, tracer):
        tracer.uninstall()

    def answer(self, result):
        return result

    def collect(self, result):
        pass

    def trace_summary(self, tracer):
        return tracer.summary()

    def trace_times(self, probe_import_s, time_scale):
        """(package import seconds, process overhead seconds per operation)."""
        return probe_import_s, 0.0


class Census(InProcess):
    """count_all on seeded draws, each solved for m and its mirror (m3, m2, m1)."""

    name = "census"
    b_range = (-5.0, 5.0)
    tail_pct = 95.0
    block = 30
    blocks = 5
    # raw seconds of one group, the median over 20-second runs on a shared
    # 2-vCPU Intel Xeon under Python 3.11; run.py sizes runs by it
    group_s = 0.87

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def draw(self):
        m = tuple(self.rng.uniform(-10.0, 10.0) for _ in range(3))
        return m, self.rng.uniform(*self.b_range)

    def groups(self):
        while True:
            yield [[self.draw() for _ in range(self.block)] for _ in range(self.blocks)]

    def warm_up(self):
        self.run(self.draw())

    def run(self, op):
        m, b = op
        c, sols = euler.count_all(m, b)
        cm, sols_m = euler.count_all((m[2], m[1], m[0]), b)
        return c, sols, cm, sols_m

    def check(self, op, result):
        m, b = op
        c, sols, cm, sols_m = result
        kinds = []
        if (cm.e1, cm.e2, cm.e3) != (c.e3, c.e2, c.e1):
            kinds.append("mirror")
        for masses, found in ((m, sols), ((m[2], m[1], m[0]), sols_m)):
            for sol in found:
                if not sol.degenerate and not root_confirmed(masses, b, sol):
                    kinds.append("unconfirmed_root")
        return kinds


class BandB1(Census):
    """The census restricted to the cancellation band around b = 1."""

    name = "band_b1"
    b_range = (0.8, 1.2)
    group_s = 1.10


class FigureGrid(InProcess):
    """grid_scan with cross_check over the (m2, b) figure, one b row per call.

    A pass covers the N x N figure grid_scan((-4, 2), (-4, 4), (N, N),
    cross_check=True) computes, with both axes shifted by a seeded fraction
    of a grid step; each row call is the same loop grid_scan runs per row.
    """

    name = "figure_grid"
    n = 30
    tail_pct = 95.0
    points = n
    group_s = 2.21

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def groups(self):
        while True:
            m2_shift = self.rng.uniform(-0.5, 0.5) * 6.0 / (self.n - 1)
            b_shift = self.rng.uniform(-0.5, 0.5) * 8.0 / (self.n - 1)
            m2_range = (-4.0 + m2_shift, 2.0 + m2_shift)
            b_lo, b_hi = -4.0 + b_shift, 4.0 + b_shift
            step = (b_hi - b_lo) / (self.n - 1)
            yield [[(m2_range, b_lo + i * step)] for i in range(self.n)]

    def warm_up(self):
        classifier.grid_scan((0.5, 0.5), (-2.0, -2.0), (1, 1), cross_check=True)

    def run(self, op):
        m2_range, b = op
        return classifier.grid_scan(m2_range, (b, b), (self.n, 1), cross_check=True)

    def check(self, op, result):
        return ["grid_mismatch"] * len(result.mismatches)


README_SIGNOMIALS = (((1, 0.5), (-3, 1), (1, 2)),
                     ((2, 0), (5, 1), (4, 2), (-4, 3), (-5, 4), (-2, 5)))


class ColdCli:
    """A seeded cycle of eulercc invocations, each in a fresh interpreter.

    An operation is (argv, call): the command line, and the same request as
    a library call, (kind, *inputs), whose in-process answer the output must
    match. Children start through cli_child.py, which calls eulercc.cli.main
    as the console script does; in the traced run it also installs the
    tracer and writes the child's span summary, which collect() adds up.
    """

    name = "cold_cli"
    tail_pct = 85.0
    points = 1
    group_s = 2.92
    # 70 processes, so that 10 lie beyond the p85 tail
    min_groups = 7
    rusage_who = resource.RUSAGE_CHILDREN
    ref_s = REF_PROCESS_S
    map_resolution = 200

    def reference(self):
        return reference_process_s(child_env())

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.maps = [self._map() for _ in range(2)]
        self.expected = {}
        self.tracing = False
        self.children = 0
        self.summary = {}
        self.import_s = []
        self.process_s = []

    def _map(self):
        shift_m2 = self.rng.uniform(-0.05, 0.05)
        shift_b = self.rng.uniform(-0.05, 0.05)
        m2 = (-4.0 + shift_m2, 2.0 + shift_m2)
        b = (-4.0 + shift_b, 4.0 + shift_b)
        n = self.map_resolution
        argv = ("grid", "--m2", f"{m2[0]!r}:{m2[1]!r}", "--b", f"{b[0]!r}:{b[1]!r}",
                "-n", f"{n}x{n}")
        return argv, ("grid", m2, b, (n, n))

    def _solve(self):
        m = tuple(self.rng.uniform(-10.0, 10.0) for _ in range(3))
        b = self.rng.uniform(-5.0, 5.0)
        return ("solve", "--masses=" + ",".join(map(repr, m)), f"-b{b!r}"), ("solve", m, b)

    @staticmethod
    def _signomial(terms):
        return ("signomial", "--terms", json.dumps(terms)), ("signomial", terms)

    def _random_signomial(self):
        exps = sorted(self.rng.uniform(-3.0, 3.0) for _ in range(5))
        return self._signomial(tuple((self.rng.uniform(-5.0, 5.0), e) for e in exps))

    def groups(self):
        while True:
            s = [self._solve() for _ in range(5)]
            cycle = [s[0], self._signomial(README_SIGNOMIALS[0]), s[1], self.maps[0],
                     s[2], self._random_signomial(), s[3],
                     self._signomial(README_SIGNOMIALS[1]), s[4], self.maps[1]]
            yield [[op] for op in cycle]

    def warm_up(self):
        from eulercc import cli

        with redirect_stdout(io.StringIO()):
            cli.main(list(self._solve()[0]))

    def trace_on(self, tracer):
        self.tracing = True

    def trace_off(self, tracer):
        self.tracing = False

    def run(self, op):
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        trace_out = None
        if self.tracing:
            self.children += 1
            trace_out = OUT / f"cli_child-{self.children}.json"
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", *op[0]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        return proc.returncode, proc.stdout, trace_out, wall

    def collect(self, result):
        _, _, trace_out, wall = result
        doc = json.loads(trace_out.read_text())
        trace_out.unlink()
        self.summary = merge(self.summary, doc["summary"])
        self.import_s.append(doc["import_s"])
        self.process_s.append(wall - doc["import_s"] - doc["summary"]["wall_s"]["cli.main"])

    def trace_summary(self, tracer):
        return self.summary

    def trace_times(self, probe_import_s, time_scale):
        return (statistics.median(self.import_s) * time_scale,
                statistics.fmean(self.process_s) * time_scale)

    def answer(self, result):
        return result[:2]

    def check(self, op, result):
        code, out = result[:2]
        want_code, want_out = self._expected(op)
        if code != want_code:
            return [f"cli_exit_{code}"]
        if code != 0:
            return ["tolerance"]
        if op[1][0] == "grid":
            return [] if out.decode() == want_out else ["cli_output"]
        return [] if _same(json.loads(out), want_out) else ["cli_output"]

    def _expected(self, op):
        call = op[1]
        if call not in self.expected:
            self.expected[call] = self._library_answer(*call)
        return self.expected[call]

    @staticmethod
    def _library_answer(kind, *inputs):
        """(exit code, answer) the library gives in-process for one request."""
        try:
            if kind == "solve":
                m, b = inputs
                counts, sols = euler.count_all(m, b)
                tok = lambda v: "inf" if v == euler.INFINITE else int(v)  # noqa: E731
                return 0, {
                    "e1": tok(counts.e1), "e2": tok(counts.e2), "e3": tok(counts.e3),
                    "total": tok(counts.total),
                    "solutions": [{"cell": s.cell, "s": s.s, "positions": list(s.positions),
                                   "degenerate": s.degenerate} for s in sols],
                    "degenerate_family": euler.degenerate_family(m, b),
                }
            if kind == "signomial":
                p = signomial.normalize(inputs[0])
                count, roots = signomial.count_and_isolate(p)
                sv = signomial.sign_variations(p)
                return 0, {
                    "sign_variations": sv, "laguerre_bound": sv,
                    "count": "identically_zero" if count == signomial.IDENTICALLY_ZERO else count,
                    "roots": [{"lo": r.lo, "hi": r.hi, "value": r.value,
                               "degenerate": r.degenerate} for r in roots],
                }
            buf = io.StringIO()
            classifier.grid_to_csv(classifier.grid_scan(*inputs), buf)
            return 0, buf.getvalue()
        except ToleranceError:
            return 3, None


def _same(got, want):
    # JSON numbers parse back to the exact floats the CLI printed (17 digits)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want and type(got) is type(want)
    return isinstance(got, (int, float)) and not isinstance(got, bool) and got == want


WORKLOADS = {w.name: w for w in (Census, BandB1, FigureGrid, ColdCli)}
