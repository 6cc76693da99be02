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


# --- verify: the acceptance criteria on a prefix of their draws -------------------

# Draw counts per criterion, in CRITERIA order; None for a criterion without draws.
_VERIFY_DRAWS = (50, 100, 100, 100, 50, None, 50, 20, 25, 100, 10)


def _verify() -> int:
    from .acceptance import CRITERIA  # here, so that other commands do not load it

    failures = 0
    for (_, name, _, fn), draws in zip(CRITERIA, _VERIFY_DRAWS, strict=True):
        try:
            fn() if draws is None else fn(draws)
        except Exception as exc:  # report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} checks passed")
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

    sub.add_parser("verify", help="run the acceptance criteria on a prefix of their draws")
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
