"""Straight-case quasi-polynomial systems in two positive variables.

A system of two real-exponent power-sum equations is "straight" when one
equation is a trinomial: dividing by its right member and exponentiating
a linear change of variables turns it into a line a1*x + a2*y = 1 in the
positive quadrant, and the other equation restricts to a function of one
variable on that line. This module reduces such systems, counts roots of
the restriction by an adaptive scan (honest about its certification
status), and provides the standard upper-bound formulas: 2^n - 2 for a
trinomial paired with an n-nomial, and the Khovanskii bound
d1*d2*(d1+d2+1)^k * 2^(k(k-1)/2) for general systems with k exponential
expressions.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .numerics import DEFAULT_REL_TOL, RootRecord, ToleranceError, bisect_sign_change, check_tol
from .signomial import merge_sorted

__all__ = [
    "BivariateSignomial",
    "AffineConstraint",
    "LineCount",
    "straight_bound",
    "khovanskii_bound",
    "restrict_to_line",
    "count_on_line",
    "euler_line_system",
]


class BivariateSignomial(NamedTuple):
    """sum of coeff * x**xe * y**ye terms on x > 0, y > 0."""

    terms: tuple[tuple[float, float, float], ...]

    @classmethod
    def from_triples(cls, triples):
        """Terms summed over equal (xe, ye) and sorted by them; zero terms dropped.

        Raises ValueError when a coefficient or exponent is NaN or infinite.
        """
        pairs = []
        for triple in triples:
            c, xe, ye = map(float, triple)
            if not all(map(math.isfinite, (c, xe, ye))):
                raise ValueError(f"bivariate signomial terms must be finite, "
                                 f"got term {[c, xe, ye]!r}")
            pairs.append((c, (xe, ye)))
        pairs.sort(key=itemgetter(1))
        return cls(tuple((c, xe, ye) for c, (xe, ye) in merge_sorted(pairs)))

    def evaluate(self, x, y):
        """The sum at (x, y) in (0, inf)^2; ValueError for any other point, nan included."""
        if not (0.0 < x < math.inf and 0.0 < y < math.inf):
            raise ValueError(f"bivariate signomials are evaluated at 0 < x, y < inf, "
                             f"got x = {x!r}, y = {y!r}")
        return math.fsum(c * x ** xe * y ** ye for c, xe, ye in self.terms)


class _Line(NamedTuple):
    a1: float
    a2: float


class AffineConstraint(_Line):
    """The line a1*x + a2*y = 1; a2 != 0 so it defines y as a function of x."""

    __slots__ = ()

    def __new__(cls, a1, a2):
        if not (math.isfinite(a1) and math.isfinite(a2)):
            raise ValueError(f"line coefficients must be finite, got a1={a1!r}, a2={a2!r}")
        if a2 == 0.0:
            raise ValueError("a2 must be nonzero")
        return super().__new__(cls, a1, a2)

    def y_of(self, x):
        return (1.0 - self.a1 * x) / self.a2


def straight_bound(n: int) -> int:
    """Root-count bound 2^n - 2 for a trinomial paired with an n-nomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** n - 2


def khovanskii_bound(d1: int, d2: int, k: int) -> int:
    """Khovanskii's bound d1*d2*(d1+d2+1)^k * 2^(k(k-1)/2) on isolated roots."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return d1 * d2 * (d1 + d2 + 1) ** k * 2 ** (k * (k - 1) // 2)


def restrict_to_line(f: BivariateSignomial, c: AffineConstraint):
    """Restriction of f to the admissible piece of the line a1*x + a2*y = 1.

    Returns (callable, (xlo, xhi)) with the open admissible interval
    {x > 0, y(x) > 0}; raises ValueError when that set is empty.
    """
    if c.a2 > 0.0:
        # y > 0 <=> a1*x < 1
        xlo, xhi = 0.0, (1.0 / c.a1 if c.a1 > 0.0 else math.inf)
    else:
        # y > 0 <=> a1*x > 1
        if c.a1 <= 0.0:
            raise ValueError("empty admissible domain: a1 <= 0 with a2 < 0")
        xlo, xhi = 1.0 / c.a1, math.inf
    if not xlo < xhi:
        raise ValueError("empty admissible domain")

    def restriction(x):
        return f.evaluate(x, c.y_of(x))

    return restriction, (xlo, xhi)


class LineCount(NamedTuple):
    """Scan result: the sign changes found and their refined roots.

    The restriction of a bivariate signomial to a line is not itself a
    signomial, so the derivative-chain certificate does not apply: count is
    a lower bound on the number of roots, not a certified count.
    """

    count: int
    roots: tuple[RootRecord, ...]


_SCAN_POINTS = 10_000


def _probe_grid(xlo, xhi):
    if math.isinf(xhi):
        lo = max(xlo, 1e-8)
        lg_lo, lg_hi = math.log(lo), math.log(1e8)
        n = _SCAN_POINTS
        return [math.exp(lg_lo + (lg_hi - lg_lo) * i / (n - 1)) for i in range(n)]
    # Bounded interval: uniform interior plus geometric refinement into both ends.
    n = _SCAN_POINTS - 2 * 60
    width = xhi - xlo
    pts = [xlo + width * (i + 0.5) / n for i in range(n)]
    for k in range(1, 61):
        frac = 0.5 ** k * 1e-3
        pts.append(xlo + width * frac)
        pts.append(xhi - width * frac)
    return sorted(pts)


def count_on_line(f: BivariateSignomial, c: AffineConstraint,
                  tol=DEFAULT_REL_TOL) -> LineCount:
    """Count sign changes of the restriction on an adaptive probe grid.

    Sign changes are refined on their certified bracket to relative width
    tol. The restriction passes signs without values, so the refinement has
    nothing to interpolate: every step is plain bisection's own midpoint,
    and each bounds the walk. The count is a lower bound on the number of
    roots. Raises ValueError unless tol is in (0, 1), and ToleranceError
    naming the probe where a power of the restriction overflows floats, or
    its terms overflow to infinities of both signs.
    """
    check_tol(tol)
    on_line, (xlo, xhi) = restrict_to_line(f, c)

    def sign_at(x):
        try:
            v = on_line(x)
        except (OverflowError, ValueError):  # a power overflowed, or inf - inf in fsum
            raise ToleranceError(
                f"the restriction overflows floats at the probe x = {x!r}") from None
        return (0 if v == 0.0 else (1 if v > 0.0 else -1)), v

    signs = []
    for x in _probe_grid(xlo, xhi):
        # end refinements can collapse onto the boundary in floats
        if not (xlo < x < xhi) or c.y_of(x) <= 0.0:
            continue
        s, v = sign_at(x)
        if not math.isnan(v):
            signs.append((x, s))
    roots = []
    prev_x = prev_s = None
    for x, s in signs:
        if s == 0:
            roots.append(RootRecord(lo=x, hi=x, value=x, degenerate=True))
            prev_x, prev_s = x, None
            continue
        if prev_s is not None and s != prev_s:
            value, lo, hi, hit_zero = bisect_sign_change(
                lambda t: (sign_at(t)[0], None), prev_x, x, prev_s, tol)
            roots.append(RootRecord(lo=lo, hi=hi, value=value, degenerate=hit_zero))
        prev_x, prev_s = x, s
    roots.sort(key=lambda r: r.value)
    return LineCount(len(roots), tuple(roots))


def euler_line_system(m1, m2, m3, b):
    """The three-body balance equation as a straight quasi-polynomial system.

    First equation: t = 1 + s, normalized to the constraint -s + t = 1.
    Second equation: the six-term bivariate signomial in (s, t) whose
    restriction to the line is the cell balance function of (m1, m2, m3).
    """
    f = BivariateSignomial.from_triples([
        (m2 + m3, b, 0.0),
        (m1 + m3, 0.0, b),
        (m3, b + 1.0, 0.0),
        (-m3, 0.0, b + 1.0),
        (-m1, 0.0, 1.0),
        (-m2, 1.0, 0.0),
    ])
    return f, AffineConstraint(a1=-1.0, a2=1.0)
