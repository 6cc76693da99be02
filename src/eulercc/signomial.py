"""Signomials: finite sums of real-coefficient, real-exponent powers on x > 0.

The root counter follows the classical Descartes/Laguerre argument made
effective: pick the exponent at the first sign change of the coefficient
sequence, divide it out, differentiate. The resulting signomial has one
term and one sign variation fewer, and by Rolle its roots separate the
monotone pieces of the original. These reductions, down to a
variation-free signomial (derivative_chain), are the levels of one
derivative chain (_levels), which numerics.run_chain walks back up with
certified sign evaluations. That yields a count of distinct positive roots
that is exact up to floating-point evaluation precision, with ambiguous
(near-double) roots flagged instead of guessed.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .numerics import (
    BOUNDARY_ZERO_REL,
    DEFAULT_REL_TOL,
    Bracket,
    RootRecord,
    certified_sign_near_zero,
    check_tol,
    float_terms,
    refine_bracket,
    run_chain,
    sum_sign,
    sum_value,
)

__all__ = [
    "Signomial",
    "RootRecord",
    "Endpoint",
    "IDENTICALLY_ZERO",
    "normalize",
    "evaluate",
    "sign_variations",
    "derivative_chain",
    "count_and_isolate",
]

# Count sentinel for a signomial that vanishes identically on the interval.
IDENTICALLY_ZERO = -1


class Endpoint(Enum):
    ZERO_PLUS = "0+"
    INFINITY = "inf"


class Signomial(NamedTuple):
    """A normalized signomial: (coefficient, exponent) pairs with strictly
    increasing exponents and nonzero coefficients; empty means identically zero.

    Build one with normalize; the derivative chain keeps the invariant.
    """

    pairs: tuple[tuple[float, float], ...]

    @property
    def is_zero(self):
        return not self.pairs

    def __len__(self):
        return len(self.pairs)


def merge_sorted(pairs):
    """Exponent-sorted (c, e) pairs as a tuple with strictly increasing exponents.

    Zero coefficients are skipped, neighbours with equal exponents are summed
    in order, and zero sums are dropped. Exponents coincide through exact
    relations or rounding after a shift, so float equality is the intended test.
    """
    out = []
    last = None
    cancelled = False
    for c, e in pairs:
        if c == 0.0:
            continue
        if e == last:
            c += out[-1][0]
            out[-1] = (c, last)
            cancelled = cancelled or c == 0.0
        else:
            out.append((c, e))
            last = e
    return tuple(p for p in out if p[0] != 0.0) if cancelled else tuple(out)


def normalize(raw_terms) -> Signomial:
    """Build a Signomial from (coefficient, exponent) pairs.

    The pairs are converted to float, sorted by exponent (stably, so equal
    exponents sum in input order) and merged by merge_sorted. This is the
    one entry point; the derivative chain never normalizes again.
    """
    pairs = sorted([(float(c), float(e)) for c, e in raw_terms], key=itemgetter(1))
    return Signomial(merge_sorted(pairs))


def evaluate(p: Signomial, x: float) -> float:
    """Evaluate p at x in (0, inf); ValueError for any other x, nan included."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"signomials are evaluated at 0 < x < inf, got x = {x!r}")
    return sum_value(((p.pairs, x),))


def _shift_differentiate(pairs, pivot: float):
    """The pairs of the derivative of x**(-pivot) * p(x), for p's pairs.

    With a pivot that is an exponent of p, that term is annihilated, and by
    Rolle the roots of the result interlace the monotone pieces of
    x**(-pivot) * p(x), which has the roots of p. Subtracting a constant
    keeps the float order of the exponents (ties included), so the terms
    stay sorted and only need the merge.
    """
    return merge_sorted([(c * (e - pivot), e - pivot - 1.0) for c, e in pairs])


def sign_variations(p: Signomial) -> int:
    """Strict sign changes in the coefficient sequence, exponents increasing."""
    count = 0
    prev = 0.0
    for c, _ in p.pairs:
        if prev != 0.0 and (c > 0.0) != (prev > 0.0):
            count += 1
        prev = c
    return count


def _first_variation_pivot(pairs):
    """The exponent of the first term whose sign differs from the first term's, or None."""
    positive = bool(pairs) and pairs[0][0] > 0.0
    for c, e in pairs:
        if (c > 0.0) != positive:
            return e
    return None


def derivative_chain(p: Signomial):
    """The successive shift-and-differentiate reductions down to zero variations.

    Yields (pivot_exponent, reduced_signomial) steps; each step removes
    exactly one term and one sign variation.
    """
    pairs = p.pairs
    while (pivot := _first_variation_pivot(pairs)) is not None:
        pairs = _shift_differentiate(pairs, pivot)
        yield pivot, Signomial(pairs)


# --- counting and isolation ---------------------------------------------------


def _levels(p: Signomial, lo: float, hi: float):
    """The levels of p's derivative chain on (lo, hi), lowest first, for run_chain.

    Each reduction of derivative_chain(p) is the chain function of the one
    above it, and one sign closure serves it in both roles; the top level's
    target is p. A level's anchors are certified from the records of the
    level below (ends), and a p without sign variations has no levels.
    """
    def ends_of(pairs):
        def ends(q_roots):
            # Left anchor: domination probe for the open end at 0, direct
            # evaluation for a finite boundary (a boundary zero is excluded,
            # not counted). The probes start below the first chain root and
            # above the last.
            inner = q_roots[0].lo if q_roots else (hi if math.isfinite(hi) else 2.0)
            if lo == 0.0:
                left = certified_sign_near_zero(pairs, start=0.5 * min(1.0, inner))
            else:
                left = (lo, sum_sign(((pairs, lo),), BOUNDARY_ZERO_REL)[0])
            if math.isinf(hi):
                outer = q_roots[-1].hi if q_roots else max(left[0], 0.5)
                # x -> 1/x carries the open end at infinity to 0+
                u, sign = certified_sign_near_zero([(c, -e) for c, e in reversed(pairs)],
                                                   start=1.0 / (2.0 * outer))
                right = (1.0 / u, sign)
            else:
                right = (hi, sum_sign(((pairs, hi),), BOUNDARY_ZERO_REL)[0])
            return left, right, q_roots

        return ends

    def sign_of(pairs):
        def sign(x, z):
            return sum_sign(((pairs, x),), z)

        # each term c * x**e is monotone in x, for the bound of _read_bracket
        sign.terms = lambda x: float_terms(((pairs, x),))
        return sign

    levels = []
    pairs, sign = p.pairs, sign_of(p.pairs)
    for _, q in derivative_chain(p):
        chain_sign = sign_of(q.pairs)
        levels.append((sign, chain_sign, ends_of(pairs)))
        pairs, sign = q.pairs, chain_sign
    return levels[::-1]


def count_and_isolate(p: Signomial, lo: float = 0.0, hi: float = math.inf,
                      tol: float = DEFAULT_REL_TOL):
    """Certified count and isolation of the distinct roots of p in (lo, hi).

    Returns (count, records). count is IDENTICALLY_ZERO for the empty
    signomial. Roots are counted as a set (no multiplicity); a root where
    the derivative-chain function is also below the degeneracy threshold
    is flagged degenerate and counted once. Raises ToleranceError when a
    sign cannot be certified at evaluation precision, and ValueError when
    a coefficient or exponent is NaN or infinite, or tol is not in (0, 1).
    """
    if not (0.0 <= lo < hi):
        raise ValueError("need 0 <= lo < hi")
    check_tol(tol)
    for c, e in p.pairs:
        if not (math.isfinite(c) and math.isfinite(e)):
            raise ValueError(f"signomial terms must be finite, got term [{c!r}, {e!r}]")
    if p.is_zero:
        return IDENTICALLY_ZERO, []
    levels = _levels(p, lo, hi)
    if not levels:
        return 0, []
    sign_fn, chain_fn, _ = levels[-1]
    roots = [refine_bracket(sign_fn, chain_fn, r, tol) if isinstance(r, Bracket) else r
             for r in run_chain(levels, tol)]
    return len(roots), roots
