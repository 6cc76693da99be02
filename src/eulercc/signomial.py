"""Signomials: finite sums of real-coefficient, real-exponent powers on x > 0.

The root counter follows the classical Descartes/Laguerre argument made
effective: pick the exponent at the first sign change of the coefficient
sequence, divide it out, differentiate. The resulting signomial has one
term and one sign variation fewer, and by Rolle its roots separate the
monotone pieces of the original. Recursing down to a variation-free
signomial and walking back up with certified sign evaluations yields a
count of distinct positive roots that is exact up to floating-point
evaluation precision, with ambiguous (near-double) roots flagged instead
of guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .numerics import (
    BOUNDARY_ZERO_REL,
    DEFAULT_REL_TOL,
    RootRecord,
    certified_sign_near_inf,
    certified_sign_near_zero,
    isolate_between,
    sum_sign,
    sum_value,
)

__all__ = [
    "Term",
    "Signomial",
    "RootRecord",
    "Endpoint",
    "IDENTICALLY_ZERO",
    "normalize",
    "evaluate",
    "derivative",
    "shift_and_differentiate",
    "sign_variations",
    "limit_sign",
    "derivative_chain",
    "count_and_isolate",
]

# Count sentinel for a signomial that vanishes identically on the interval.
IDENTICALLY_ZERO = -1


class Endpoint(Enum):
    ZERO_PLUS = "0+"
    INFINITY = "inf"


@dataclass(frozen=True)
class Term:
    coefficient: float
    exponent: float


@dataclass(frozen=True)
class Signomial:
    """Terms with strictly increasing exponents; empty means identically zero."""

    terms: tuple[Term, ...]

    @property
    def is_zero(self):
        return not self.terms

    def pairs(self):
        return tuple((t.coefficient, t.exponent) for t in self.terms)

    def exponents(self):
        return tuple(t.exponent for t in self.terms)

    def coefficients(self):
        return tuple(t.coefficient for t in self.terms)

    def __len__(self):
        return len(self.terms)


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

    The pairs are sorted by exponent (stably, so equal exponents sum in
    input order) and merged by merge_sorted.
    """
    pairs = sorted([(float(c), float(e)) for c, e in raw_terms], key=itemgetter(1))
    return Signomial(tuple(Term(c, e) for c, e in merge_sorted(pairs)))


def _triples(p: Signomial, x: float):
    return [(t.coefficient, t.exponent, x) for t in p.terms]


def evaluate(p: Signomial, x: float) -> float:
    """Evaluate p at x > 0."""
    if x <= 0.0:
        raise ValueError("signomials are defined on x > 0")
    return sum_value(_triples(p, x))


def derivative(p: Signomial) -> Signomial:
    """Term-wise derivative; constants vanish."""
    return normalize((t.coefficient * t.exponent, t.exponent - 1.0) for t in p.terms)


def shift_and_differentiate(p: Signomial, pivot_exponent: float) -> Signomial:
    """The derivative of x**(-pivot) * p(x), as a signomial.

    The pivot term is annihilated, so the result has exactly one term
    fewer, and by Rolle its positive roots interlace the monotone pieces
    of x**(-pivot) * p(x), which has the same roots as p.
    """
    exps = p.exponents()
    if pivot_exponent not in exps:
        raise ValueError(f"pivot exponent {pivot_exponent!r} is not an exponent of p")
    return normalize(
        (t.coefficient * (t.exponent - pivot_exponent), t.exponent - pivot_exponent - 1.0)
        for t in p.terms
    )


def sign_variations(p: Signomial) -> int:
    """Strict sign changes in the coefficient sequence, exponents increasing."""
    count = 0
    prev = 0.0
    for c in p.coefficients():
        if prev != 0.0 and (c > 0.0) != (prev > 0.0):
            count += 1
        prev = c
    return count


def limit_sign(p: Signomial, endpoint: Endpoint) -> int:
    """Sign of p at 0+ or +infinity: the dominant term decides; 0 only if p is zero."""
    if p.is_zero:
        return 0
    term = p.terms[0] if endpoint is Endpoint.ZERO_PLUS else p.terms[-1]
    return 1 if term.coefficient > 0.0 else -1


def _first_variation_pivot(p: Signomial) -> float:
    coeffs = p.coefficients()
    first = coeffs[0]
    for t in p.terms:
        if (t.coefficient > 0.0) != (first > 0.0):
            return t.exponent
    raise ValueError("signomial has no sign variation")


def derivative_chain(p: Signomial):
    """The successive shift-and-differentiate reductions down to zero variations.

    Yields (pivot_exponent, reduced_signomial) steps; each step removes
    exactly one term and one sign variation.
    """
    while sign_variations(p) > 0:
        pivot = _first_variation_pivot(p)
        p = shift_and_differentiate(p, pivot)
        yield pivot, p


# --- counting and isolation ---------------------------------------------------


def _isolate(p: Signomial, lo: float, hi: float, tol: float) -> list[RootRecord]:
    if len(p) <= 1 or sign_variations(p) == 0:
        # All stored coefficients share one sign: no positive roots at all.
        return []
    pivot = _first_variation_pivot(p)
    q = shift_and_differentiate(p, pivot)
    q_roots = _isolate(q, lo, hi, tol)

    # Left anchor: domination probe for the open end at 0, direct evaluation
    # for a finite boundary (a boundary zero is excluded, not counted).
    inner = q_roots[0].value if q_roots else (hi if math.isfinite(hi) else 2.0)
    if lo == 0.0:
        left = certified_sign_near_zero(p.pairs(), start=0.5 * min(1.0, inner))
    else:
        left = (lo, sum_sign(_triples(p, lo), BOUNDARY_ZERO_REL)[0])
    if math.isinf(hi):
        outer = q_roots[-1].value if q_roots else max(left[0], 0.5)
        right = certified_sign_near_inf(p.pairs(), start=2.0 * outer)
    else:
        right = (hi, sum_sign(_triples(p, hi), BOUNDARY_ZERO_REL)[0])
    return isolate_between(lambda x: _triples(p, x), lambda x: _triples(q, x),
                           left, right, q_roots, rel_tol=tol)


def count_and_isolate(p: Signomial, lo: float = 0.0, hi: float = math.inf,
                      tol: float = DEFAULT_REL_TOL):
    """Certified count and isolation of the distinct roots of p in (lo, hi).

    Returns (count, records). count is IDENTICALLY_ZERO for the empty
    signomial. Roots are counted as a set (no multiplicity); a root where
    the derivative-chain function is also below the degeneracy threshold
    is flagged degenerate and counted once. Raises ToleranceError when a
    sign cannot be certified at evaluation precision, and ValueError when
    a coefficient or exponent is NaN or infinite.
    """
    if not (0.0 <= lo < hi):
        raise ValueError("need 0 <= lo < hi")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    for t in p.terms:
        if not (math.isfinite(t.coefficient) and math.isfinite(t.exponent)):
            raise ValueError(f"signomial terms must be finite, got term "
                             f"[{t.coefficient!r}, {t.exponent!r}]")
    if p.is_zero:
        return IDENTICALLY_ZERO, []
    roots = _isolate(p, lo, hi, tol)
    return len(roots), roots
