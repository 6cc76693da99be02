"""Command-line front end: solve, grid, signomial, bounds, verify.

Machine-readable output only: JSON documents for solve/signomial, CSV for
grid, a bare integer for bounds. Floats are printed with 17 significant
digits so every value round-trips. Exit codes: 0 success, 2 usage or
parse error, 3 tolerance failure, 4 verification or cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import classifier, euler, qps, signomial
from .euler import INFINITE, MassTriple
from .numerics import ToleranceError


# --- formatting -----------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isinf(x) or math.isnan(x):
        return f'"{x}"'
    s = format(x, ".17g")
    # Guarantee the token stays a JSON number.
    return s


def _json_text(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _count_token(v):
    return "inf" if v == INFINITE else int(v)


def _write(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- argument parsing helpers -----------------------------------------------------


def _parse_masses(text) -> MassTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated masses")
    return MassTriple(*(float(p) for p in parts))


def _parse_range(text):
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError("expected lo:hi")
    return float(lo), float(hi)


def _parse_resolution(text):
    nx, _, ny = text.lower().partition("x")
    if not _:
        raise ValueError("expected NXxNY, e.g. 50x50")
    return int(nx), int(ny)


def _parse_interval(text):
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError("expected lo:hi (hi may be inf)")
    return float(lo), math.inf if hi.strip().lower() in ("inf", "") else float(hi)


# --- subcommands -------------------------------------------------------------------


def _cmd_solve(args) -> int:
    m = args.masses
    counts, solutions = euler.count_all(m, args.b, args.tol)
    doc = {
        "e1": _count_token(counts.e1),
        "e2": _count_token(counts.e2),
        "e3": _count_token(counts.e3),
        "total": _count_token(counts.total),
        "solutions": [
            {
                "cell": sol.cell,
                "s": sol.s,
                "positions": list(sol.positions),
                "degenerate": sol.degenerate,
            }
            for sol in solutions
        ],
        "degenerate_family": euler.degenerate_family(m, args.b),
    }
    _write(_json_text(doc) + "\n", args.output)
    return 0


def _cmd_grid(args) -> int:
    result = classifier.grid_scan(
        args.m2, args.b, args.resolution,
        cross_check=args.check, margin=args.margin, tol=args.tol,
    )
    import io

    buf = io.StringIO()
    classifier.grid_to_csv(result, buf)
    _write(buf.getvalue(), args.output)
    if result.mismatches:
        for mm in result.mismatches:
            sys.stderr.write(
                f"mismatch at m2={mm.m2:.17g} b={mm.b:.17g}: "
                f"classifier {mm.expected} vs numeric {mm.got}\n"
            )
        return 4
    return 0


def _cmd_signomial(args) -> int:
    p = signomial.normalize(args.terms)
    lo, hi = args.interval
    sv = signomial.sign_variations(p)
    count, roots = signomial.count_and_isolate(p, lo, hi, args.tol)
    doc = {
        "sign_variations": sv,
        "laguerre_bound": sv,
        "count": "identically_zero" if count == signomial.IDENTICALLY_ZERO else count,
        "roots": [
            {"lo": r.lo, "hi": r.hi, "value": r.value, "degenerate": r.degenerate}
            for r in roots
        ],
    }
    _write(_json_text(doc) + "\n", args.output)
    return 0


def _cmd_bounds(args) -> int:
    if args.kind == "straight":
        value = qps.straight_bound(args.n)
    else:
        d1, d2 = args.d
        value = qps.khovanskii_bound(d1, d2, args.k)
    sys.stdout.write(f"{value}\n")
    return 0


# --- verify: reduced acceptance battery -------------------------------------------


def _quintic_pairs(m: MassTriple):
    m1, m2, m3 = m.as_tuple()
    return [(m2 + m3, 0), (2 * m2 + 3 * m3, 1), (m2 + 3 * m3, 2),
            (-3 * m1 - m2, 3), (-3 * m1 - 2 * m2, 4), (-(m1 + m2), 5)]


def _verify() -> int:
    failures: list[str] = []
    rng = random.Random(20240917)

    def positive_triple():
        return MassTriple(*(rng.uniform(0.1, 10.0) for _ in range(3)))

    def any_triple(lim=10.0):
        return MassTriple(*(rng.uniform(-lim, lim) for _ in range(3)))

    def classic_uniqueness():
        for _ in range(50):
            m = positive_triple()
            p = signomial.normalize(_quintic_pairs(m))
            assert signomial.sign_variations(p) == 1
            n, sols = euler.count_cell(m, -2.0, 2)
            assert n == 1
            s = sols[0].s
            scale = sum(abs(c) * s ** e for c, e, _ in euler._g_triples(m, -2.0, s))
            assert abs(euler.eval_g(m, -2.0, s)) <= 1e-9 * max(scale, 1.0)

    def vortex_bound():
        for _ in range(100):
            m = any_triple()
            counts, _ = euler.count_all(m, -1.0)
            assert counts.total <= 3

    def middle_cell_bound():
        for _ in range(100):
            m = any_triple()
            b = rng.uniform(-5.0, 5.0)
            if euler.degenerate_family(m, b) is not None:
                continue
            n, sols = euler.count_cell(m, b, 2)
            assert n <= 3
            if n == 3:
                assert not any(s.degenerate for s in sols)

    def positive_masses():
        for _ in range(100):
            m = positive_triple()
            b = rng.uniform(-5.0, 0.99)
            counts, _ = euler.count_all(m, b)
            assert (counts.e1, counts.e2, counts.e3) == (1, 1, 1)

    def totals_split():
        for _ in range(50):
            m = any_triple()
            b = rng.uniform(-5.0, -1e-9)
            if euler.degenerate_family(m, b) is None:
                assert euler.count_all(m, b)[0].total <= 3
        for _ in range(50):
            m = any_triple()
            b = rng.uniform(1e-9, 1.0 - 1e-9)
            assert euler.count_all(m, b)[0].total <= 5
        counts, _ = euler.count_all(MassTriple(1.0, -0.9, 1.0), 0.5)
        assert counts.total == 5

    def zero_sum_cases():
        for b in (-2.0, -1.0):
            assert euler.count_all(MassTriple(0.0, -1.0, 1.0), b)[0].total == 0
        m = MassTriple(1.0, 2.0, -3.0)
        counts, sols = euler.count_all(m, -2.0)
        assert counts.total == 1
        assert abs(euler.celli_identity_residual(m, sols[0])) < 1e-9

    def expansions():
        for _ in range(50):
            m = any_triple(5.0)
            s = rng.uniform(0.05, 5.0)
            g2 = euler.eval_g(m, -2.0, s) * (1 + s) ** 2 * s ** 2
            q = sum(c * s ** e for c, e in _quintic_pairs(m))
            assert abs(g2 - q) <= 1e-9 * max(1.0, abs(q))
            g1 = euler.eval_g(m, -1.0, s) * (1 + s) * s
            cu = (-(m.m1 + m.m2) * s ** 3 - (2 * m.m1 + m.m2) * s ** 2
                  + (m.m2 + 2 * m.m3) * s + m.m2 + m.m3)
            assert abs(g1 - cu) <= 1e-9 * max(1.0, abs(cu))

    def degenerate_families():
        cases = [
            (MassTriple(0.0, 0.0, 0.0), -2.0),
            (MassTriple(1.0, -1.0, 1.0), 0.0),
            (MassTriple(0.7, -0.2, 1.3), 1.0),
            (MassTriple(1.0, 0.0, 1.0), 2.0),
            (MassTriple(1.0, 1.0, 1.0), 3.0),
        ]
        for m, b in cases:
            assert euler.count_all(m, b)[0].total == INFINITE
            for _ in range(20):
                dm = MassTriple(*(v + rng.uniform(-1e-3, 1e-3) for v in m.as_tuple()))
                db = b + rng.uniform(-1e-3, 1e-3)
                if euler.degenerate_family(dm, db) is not None:
                    continue
                assert euler.count_all(dm, db)[0].is_finite

    def figure_grid():
        result = classifier.grid_scan((-4.0, 2.0), (-4.0, 4.0), (25, 25),
                                      cross_check=True, margin=0.05)
        assert not result.mismatches, f"{len(result.mismatches)} grid mismatches"
        assert abs(classifier.frontier_curve_m2(-2.0) - (0.25 + 4.0) / -3.0) < 1e-12

    def signomial_engine():
        for _ in range(100):
            nterms = rng.randint(2, 6)
            exps = sorted(rng.uniform(-5.0, 5.0) for _ in range(nterms))
            if min(b - a for a, b in zip(exps, exps[1:])) < 1e-3:
                continue
            pairs = [(rng.uniform(-10.0, 10.0), e) for e in exps]
            p = signomial.normalize(pairs)
            if p.is_zero:
                continue
            count, _ = signomial.count_and_isolate(p, 1e-6, 1e6)
            assert count <= min(signomial.sign_variations(p), len(p) - 1)
            scan = 0
            prev = 0
            for i in range(20001):
                x = 10.0 ** (-6.0 + 12.0 * i / 20000)
                v = signomial.evaluate(p, x)
                s = 0 if v == 0.0 else (1 if v > 0 else -1)
                if prev != 0 and s != 0 and s != prev:
                    scan += 1
                if s != 0:
                    prev = s
            assert count >= scan, f"engine {count} < scan {scan}"

    def bound_formulas():
        assert qps.straight_bound(6) == 62
        assert qps.khovanskii_bound(1, 2, 4) == 32768
        for _ in range(10):
            m = any_triple(3.0)
            b = rng.uniform(-3.0, 0.9)
            if euler.degenerate_family(m, b) is not None:
                continue
            f, c = qps.euler_line_system(m.m1, m.m2, m.m3, b)
            got = qps.count_on_line(f, c).count
            want, _ = euler.count_cell(m, b, 2)
            assert got == want, f"{got} != {want} at {m}, b={b}"

    checks = [
        ("classic-uniqueness", classic_uniqueness),
        ("vortex-total-bound", vortex_bound),
        ("middle-cell-bound", middle_cell_bound),
        ("positive-masses-one-per-cell", positive_masses),
        ("total-bounds-by-regime", totals_split),
        ("zero-sum-masses", zero_sum_cases),
        ("polynomial-expansions", expansions),
        ("degenerate-families", degenerate_families),
        ("figure-grid-crosscheck", figure_grid),
        ("signomial-engine", signomial_engine),
        ("bound-formulas", bound_formulas),
    ]
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report and continue
            failures.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 4 if failures else 0


# --- main ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulercc",
        description="Count, isolate and classify collinear three-body central configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="count configurations and list isolated solutions")
    p.add_argument("-m", "--masses", required=True, help="m1,m2,m3")
    p.add_argument("-b", type=float, required=True, help="force-law exponent")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("grid", help="classify a (m2, b) grid for m1 = m3 = 1, as CSV")
    p.add_argument("--m2", required=True, help="lo:hi")
    p.add_argument("--b", required=True, help="lo:hi")
    p.add_argument("-n", "--resolution", required=True, help="NXxNY, e.g. 50x50")
    p.add_argument("--check", action="store_true",
                   help="cross-check off-frontier points against the numeric counter")
    p.add_argument("--margin", type=float, default=0.05,
                   help="frontier distance below which cross-checks are skipped")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("signomial", help="count and isolate roots of a signomial")
    p.add_argument("--terms", required=True,
                   help="JSON array of [coefficient, exponent] pairs")
    p.add_argument("--interval", default="0:inf", help="lo:hi, hi may be inf")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bounds", help="root-count bound formulas")
    bsub = p.add_subparsers(dest="kind", required=True)
    ps = bsub.add_parser("straight")
    ps.add_argument("-n", type=int, required=True)
    pk = bsub.add_parser("khovanskii")
    pk.add_argument("-d", required=True, help="d1,d2")
    pk.add_argument("-k", type=int, required=True)

    sub.add_parser("verify", help="run the reduced acceptance battery")
    return parser


def _merge_value_flags(argv):
    # argparse mistakes values that start with "-" but are not plain numbers
    # (ranges like "-4:2", mass lists like "-1,2,3", "-inf") for option
    # strings; fold the value into the flag token so `grid --m2 -4:2 --b -4:4`
    # and `solve -m -1,2,3 -b -inf` parse as typed.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--m2", "--b", "-m", "--masses", "-b") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_value_flags(list(argv)))
    try:
        if args.command == "solve":
            args.masses = _parse_masses(args.masses)
        elif args.command == "grid":
            args.m2 = _parse_range(args.m2)
            args.b = _parse_range(args.b)
            args.resolution = _parse_resolution(args.resolution)
        elif args.command == "signomial":
            terms = json.loads(args.terms)
            args.terms = [(float(c), float(e)) for c, e in terms]
            args.interval = _parse_interval(args.interval)
        elif args.command == "bounds" and args.kind == "khovanskii":
            d1, _, d2 = args.d.partition(",")
            if not _:
                raise ValueError("expected -d d1,d2")
            args.d = (int(d1), int(d2))
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        parser.error(str(exc))  # exits 2

    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "signomial":
            return _cmd_signomial(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "verify":
            return _verify()
    except ToleranceError as exc:
        sys.stderr.write(f"tolerance failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
