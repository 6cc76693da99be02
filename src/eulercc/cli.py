"""Command-line front end: solve, grid, signomial, bounds, verify.

Machine-readable output only: JSON documents for solve/signomial, CSV for
grid, a bare integer for bounds. Floats are printed with 17 significant
digits so every value round-trips. Exit codes: 0 success, 2 usage or
parse error or an output file that cannot be written, 3 tolerance failure,
4 verification or cross-check mismatch.

Each subcommand imports the library module it calls when it runs, so a
process loads only what its subcommand needs: `signomial` and `bounds`
never load the three-body counter, `grid` loads it only with `--check`,
and `solve` never loads the classifier. `json` is loaded only to read
`--terms` or to write a JSON document.
"""

from __future__ import annotations

import argparse
import io
import math
import sys

from .numerics import DEFAULT_REL_TOL, ToleranceError


# --- formatting -----------------------------------------------------------------


def _json_text(obj) -> str:
    import json

    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else f'"{obj}"'
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _count_token(v):
    return "inf" if v == math.inf else int(v)  # euler.INFINITE is math.inf


def _write(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from None


# --- argument types ------------------------------------------------------------------


def _expects(form):
    """Make a converter an argparse type whose error gives the expected form."""
    def wrap(convert):
        def parse(text):
            try:
                return convert(text)
            except (TypeError, ValueError):
                raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        return parse
    return wrap


@_expects("m1,m2,m3")
def _masses(text):
    m1, m2, m3 = text.split(",")
    return float(m1), float(m2), float(m3)


@_expects("lo:hi, hi may be empty or inf")
def _range(text):
    lo, hi = text.split(":")
    return float(lo), float(hi) if hi.strip() else math.inf


@_expects("NXxNY, e.g. 50x50")
def _resolution(text):
    nx, ny = text.lower().split("x")
    return int(nx), int(ny)


@_expects("a JSON array of [coefficient, exponent] pairs")
def _terms(text):
    import json

    terms = json.loads(text)
    if not all(isinstance(t, list) and len(t) == 2 for t in terms):
        raise ValueError
    return [(float(c), float(e)) for c, e in terms]


@_expects("d1,d2")
def _degrees(text):
    d1, d2 = text.split(",")
    return int(d1), int(d2)


# --- subcommands -------------------------------------------------------------------


def _cmd_solve(args) -> int:
    from . import euler

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
    from . import classifier

    result = classifier.grid_scan(
        args.m2, args.b, args.resolution,
        cross_check=args.check, margin=args.margin, tol=args.tol,
    )
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
    from . import signomial

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


# Python prints no int of more than 4,300 digits (its default
# int_max_str_digits); a bound that long is refused before it is built.
_MAX_DIGITS = 4300


def _print_bound(log10_of_bound, bound) -> int:
    try:
        digits = math.floor(log10_of_bound()) + 1
    except OverflowError:  # more digits than a float can count
        digits = math.inf
    if digits > _MAX_DIGITS:
        raise ValueError(f"the bound has about {digits:,} decimal digits, "
                         f"more than the {_MAX_DIGITS:,} that can be printed")
    sys.stdout.write(f"{bound()}\n")
    return 0


def _cmd_straight(args) -> int:
    from . import qps

    # 2^n - 2 has the digits of 2^n; n < 1 is left for straight_bound to refuse
    n = max(args.n, 0)
    return _print_bound(lambda: n * math.log10(2.0), lambda: qps.straight_bound(args.n))


def _cmd_khovanskii(args) -> int:
    from . import qps

    # log10 of d1*d2*(d1+d2+1)^k * 2^(k(k-1)/2); out-of-domain input is left
    # small here, for khovanskii_bound to refuse with its own message
    (d1, d2), k = args.d, max(args.k, 0)
    return _print_bound(
        lambda: (math.log10(max(d1 * d2, 1)) + k * math.log10(max(d1 + d2 + 1, 1))
                 + k * (k - 1) / 2 * math.log10(2.0)),
        lambda: qps.khovanskii_bound(d1, d2, args.k))


# --- verify: the acceptance criteria on a prefix of their draws -------------------

def _verify(args) -> int:
    from .acceptance import CRITERIA

    failures = 0
    for _, name, _, fn, draws in CRITERIA:
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_REL_TOL,
                        help="relative width at which root refinement stops")
    common.add_argument("-o", "--output", default=None, help="output file; - or none is stdout")

    p = sub.add_parser("solve", parents=[common],
                       help="count configurations and list isolated solutions")
    p.add_argument("-m", "--masses", type=_masses, required=True, metavar="M1,M2,M3")
    p.add_argument("-b", type=float, required=True, help="force-law exponent")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("grid", parents=[common],
                       help="classify a (m2, b) grid for m1 = m3 = 1, as CSV")
    p.add_argument("--m2", type=_range, required=True, metavar="LO:HI")
    p.add_argument("--b", type=_range, required=True, metavar="LO:HI")
    p.add_argument("-n", "--resolution", type=_resolution, required=True, metavar="NXxNY")
    p.add_argument("--check", action="store_true",
                   help="cross-check off-frontier points against the numeric counter")
    p.add_argument("--margin", type=float, default=0.05,
                   help="frontier distance below which cross-checks are skipped")
    p.set_defaults(run=_cmd_grid)

    p = sub.add_parser("signomial", parents=[common],
                       help="count and isolate roots of a signomial")
    p.add_argument("--terms", type=_terms, required=True,
                   help="JSON array of [coefficient, exponent] pairs")
    p.add_argument("--interval", type=_range, default=(0.0, math.inf), metavar="LO:HI",
                   help="hi may be empty or inf (default 0:inf)")
    p.set_defaults(run=_cmd_signomial)

    p = sub.add_parser("bounds", help="root-count bound formulas")
    bsub = p.add_subparsers(dest="kind", required=True)
    p = bsub.add_parser("straight", help="2^n - 2, a trinomial with an n-nomial")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(run=_cmd_straight)
    p = bsub.add_parser("khovanskii", help="d1*d2*(d1+d2+1)^k * 2^(k(k-1)/2)")
    p.add_argument("-d", type=_degrees, required=True, metavar="D1,D2")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(run=_cmd_khovanskii)

    sub.add_parser("verify", help="run the acceptance criteria on a prefix of their draws"
                   ).set_defaults(run=_verify)
    return parser


def _value_options(parser):
    """The option strings of parser and its subcommands that take one value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for p in action.choices.values():
                yield from _value_options(p)
        elif action.option_strings and action.nargs is None:
            yield from action.option_strings


def _join_values(argv, options):
    # argparse mistakes values that start with "-" but are not plain numbers
    # (ranges like "-4:2", mass lists like "-1,2,3", "-inf") for option
    # strings; join each value to its option token so `grid --m2 -4:2 --b -4:4`
    # and `solve -m -1,2,3 -b -inf` parse as typed.
    out = []
    for tok in argv:
        if out and out[-1] in options:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_values(argv, set(_value_options(parser))))
    try:
        return args.run(args)
    except ToleranceError as exc:
        sys.stderr.write(f"tolerance failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
