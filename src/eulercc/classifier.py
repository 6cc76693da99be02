"""Closed-form cell counts over the (m2, b) parameter plane for m1 = m3 = 1.

With equal exterior masses the symmetric shape s = 1 is always a solution
and roots pair under s <-> 1/s, so the middle-cell count is 1 or 3
according to whether g changes sign between 0+ and 1-. The exterior-cell
count reduces by permutation to a middle-cell problem for masses
(m2, 1, 1) and is 0 or 1. Region boundaries:

  * the curve m2 = (2^b - 2b)/(b - 1), where the symmetric root degenerates,
  * two half-lines from (m2, b) = (-1, 1): {m2 = -1, b < 1} and
    {m2 = b - 2, b > 1},
  * the upper hyperbola branch m2 (b - 1) = 2 (exterior cells only),
  * the line b = 1 and the three points (-1, 0), (0, 2), (1, 3), where
    every configuration is central and counts are infinite.

The grid scanner reproduces the parameter-plane maps as CSV data and can
cross-check every off-frontier grid point against the numeric counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .euler import INFINITE, MassTriple, count_all
from .numerics import DEFAULT_REL_TOL, check_tol

__all__ = [
    "RegionClass",
    "GridMismatch",
    "GridResult",
    "frontier_curve_m2",
    "classify_E2",
    "classify_E1",
    "classify_total",
    "grid_scan",
    "grid_to_csv",
]

SPECIAL_POINTS = ((-1.0, 0.0), (0.0, 2.0), (1.0, 3.0))


@dataclass(frozen=True)
class RegionClass:
    """Classification of one (m2, b) point; e3 = e1 by the exterior symmetry."""

    e1: float
    e2: float
    e3: float
    total: float
    on_frontier: bool
    frontier_kind: str | None


def frontier_curve_m2(b) -> float:
    """m2 on the degenerate-symmetric-root curve: (2^b - 2b)/(b - 1)."""
    if b == 1.0:
        raise ValueError("the curve is undefined at b = 1")
    return (2.0 ** b - 2.0 * b) / (b - 1.0)


def _sym_g_prime_at_1(m2, b):
    # g'(1) for masses (1, m2, 1)
    return 2.0 * b - 2.0 ** b + m2 * (b - 1.0)


def _is_special(m2, b):
    return (m2, b) in SPECIAL_POINTS


def classify_E2(m2, b):
    """(value, on_frontier, frontier_kind) for the middle cell, masses (1, m2, 1).

    Interior rule: 1 + 2*[sign(g at 0+) != sign(-g'(1))]; the count is 3
    exactly when the sign of g flips between 0+ and the symmetric root.
    g at 0+ has the sign of its leading coefficient: m2 + 1 (on s^b) for
    b < 1 and b - 2 - m2 (on s) for b > 1, which vanish on the half-lines.
    """
    m2 = float(m2)
    b = float(b)
    if b == 1.0:
        return INFINITE, True, "line_b1"
    if _is_special(m2, b):
        return INFINITE, True, "special_point"
    gp1 = _sym_g_prime_at_1(m2, b)
    if m2 == frontier_curve_m2(b) or gp1 == 0.0:
        return 1, True, "curve"
    if b < 1.0 and m2 == -1.0:
        return 1, True, "halfline_low"
    if b > 1.0 and m2 == b - 2.0:
        return 1, True, "halfline_high"
    # The sign of a float sum is exact, and b - 2.0 is exact for 1 < b < 2**53.
    lead = m2 + 1.0 if b < 1.0 else (b - 2.0) - m2
    sigma0 = 1 if lead > 0.0 else -1
    sigma1 = 1 if -gp1 > 0.0 else -1
    return (1 if sigma0 == sigma1 else 3), False, None


def classify_E1(m2, b):
    """(value, on_frontier, frontier_kind) for an exterior cell (= e3).

    For b < 1 the count is 1 iff m2 > -1; for b > 1 it is 1 iff m2 lies
    strictly between b - 2 and 2/(b - 1) (an interval that is empty at
    b = 3). On the frontiers the count is 0.
    """
    m2 = float(m2)
    b = float(b)
    if b == 1.0:
        return INFINITE, True, "line_b1"
    if (m2, b) == (1.0, 3.0):
        return INFINITE, True, "special_point"
    if b < 1.0:
        if m2 == -1.0:
            return 0, True, "halfline_low"
        return (1 if m2 > -1.0 else 0), False, None
    if m2 == b - 2.0:
        return 0, True, "halfline_high"
    hyp = 2.0 / (b - 1.0)
    if m2 == hyp:
        return 0, True, "hyperbola"
    lo, hi = min(b - 2.0, hyp), max(b - 2.0, hyp)
    return (1 if lo < m2 < hi else 0), False, None


_KIND_PRIORITY = {k: i for i, k in enumerate(
    ("special_point", "line_b1", "curve", "halfline_low", "halfline_high", "hyperbola"))}


def classify_total(m2, b) -> RegionClass:
    """Combined classification; total = 2*e1 + e2 off the infinite set.

    On a frontier the combination of the per-cell frontier values (the
    middle count drops to 1, the exterior counts to 0) reproduces the
    minimum of the totals of the two regions the frontier separates.
    """
    e1, f1, k1 = classify_E1(m2, b)
    e2, f2, k2 = classify_E2(m2, b)
    kinds = [k for k in (k1, k2) if k is not None]
    kind = min(kinds, key=_KIND_PRIORITY.__getitem__) if kinds else None
    total = INFINITE if INFINITE in (e1, e2) else 2 * e1 + e2
    return RegionClass(e1=e1, e2=e2, e3=e1, total=total,
                       on_frontier=f1 or f2, frontier_kind=kind)


# --- grid scan ------------------------------------------------------------------


@dataclass(frozen=True)
class GridMismatch:
    m2: float
    b: float
    expected: tuple
    got: tuple


@dataclass(frozen=True)
class GridResult:
    m2_values: tuple[float, ...]
    b_values: tuple[float, ...]
    rows: tuple  # (m2, b, RegionClass) in row-major order (b outer, m2 inner)
    mismatches: tuple[GridMismatch, ...]
    checked: int


def _axis(lo, hi, n):
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
    if n == 1:
        return [float(lo)]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _frontier_distance(m2, b):
    """Approximate distance from (m2, b) to the nearest frontier (lower bound-ish).

    All frontiers are graphs m2 = f(b) (plus the line b = 1 and the three
    special points), so graph distance |m2 - f(b)| / sqrt(1 + f'(b)^2) is a
    serviceable proxy; slightly conservative values only cause extra
    cross-check skips near frontiers, never false mismatches.
    """
    dists = [abs(b - 1.0)]
    dists.extend(math.hypot(m2 - pm, b - pb) for pm, pb in SPECIAL_POINTS)
    # vertical half-line m2 = -1 (b <= 1), endpoint (-1, 1)
    dists.append(abs(m2 + 1.0) if b <= 1.0 else math.hypot(m2 + 1.0, b - 1.0))
    # slanted half-line m2 = b - 2 (b >= 1)
    dists.append(abs(m2 - b + 2.0) / math.sqrt(2.0) if b >= 1.0
                 else math.hypot(m2 + 1.0, b - 1.0))
    if abs(b - 1.0) > 1e-9:
        fp = ((2.0 ** b * math.log(2.0) - 2.0) * (b - 1.0) - (2.0 ** b - 2.0 * b)) / (b - 1.0) ** 2
        dists.append(abs(m2 - frontier_curve_m2(b)) / math.hypot(1.0, fp))
        if b > 1.0:
            hyp = 2.0 / (b - 1.0)
            dists.append(abs(m2 - hyp) / math.hypot(1.0, 2.0 / (b - 1.0) ** 2))
    return min(dists)


def grid_scan(m2_range, b_range, resolution, cross_check=False, margin=0.05,
              tol=DEFAULT_REL_TOL) -> GridResult:
    """Classify a grid; optionally cross-check off-frontier points numerically.

    resolution is (nx, ny) for the m2 and b axes. Rows are emitted in
    row-major order, b outer and m2 inner. Raises ValueError when a range
    end is NaN or infinite, tol is not in (0, 1), or margin is not finite
    and non-negative.
    """
    for name, (lo, hi) in (("m2", m2_range), ("b", b_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} range must be finite, got {lo!r}:{hi!r}")
    check_tol(tol)
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and non-negative, got {margin!r}")
    m2_values = _axis(float(m2_range[0]), float(m2_range[1]), int(resolution[0]))
    b_values = _axis(float(b_range[0]), float(b_range[1]), int(resolution[1]))
    rows = []
    mismatches = []
    checked = 0
    for b in b_values:
        for m2 in m2_values:
            rc = classify_total(m2, b)
            rows.append((m2, b, rc))
            if cross_check and not rc.on_frontier and _frontier_distance(m2, b) > margin:
                checked += 1
                counts, _ = count_all(MassTriple(1.0, m2, 1.0), b, tol, roots=False)
                got = (counts.e1, counts.e2, counts.e3, counts.total)
                expected = (rc.e1, rc.e2, rc.e3, rc.total)
                if got != expected:
                    mismatches.append(GridMismatch(m2=m2, b=b, expected=expected, got=got))
    return GridResult(
        m2_values=tuple(m2_values),
        b_values=tuple(b_values),
        rows=tuple(rows),
        mismatches=tuple(mismatches),
        checked=checked,
    )


def _fmt_count(v):
    return "inf" if v == INFINITE else str(int(v))


def grid_to_csv(result: GridResult, stream):
    """Write `m2,b,e1,e2,e3,total,on_frontier` rows, floats at 17 significant digits."""
    stream.write("m2,b,e1,e2,e3,total,on_frontier\n")
    for m2, b, rc in result.rows:
        stream.write(
            f"{m2:.17g},{b:.17g},{_fmt_count(rc.e1)},{_fmt_count(rc.e2)},"
            f"{_fmt_count(rc.e3)},{_fmt_count(rc.total)},"
            f"{'true' if rc.on_frontier else 'false'}\n"
        )
