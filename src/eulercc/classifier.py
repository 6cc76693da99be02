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

One rule classifies both cells: `_row(b)` computes the terms that depend
on b alone once and returns the classifier of m2 on that row. The point
functions classify_E1, classify_E2 and classify_total call it for one
point; the grid scanner calls it once per row of the map. Each classified
point shares its RegionClass with every other point of the same
classification. Every function raises ValueError naming a NaN or
infinite m2 or b, and naming b where 2^b overflows a float (b >= 1024).

The grid scanner reproduces the parameter-plane maps as CSV data and can
cross-check every off-frontier grid point against the numeric counter. It
imports the counter (`euler`) only for a cross-check, so a map without one
never loads it. The cross-check compares e1, e2 and the total with the
closed form. Its e3 is cell 1's count reflected, since count_all derives
cell 3 from cell 1 when m1 == m3; the tier-1 tests keep an independent
count of cell 3 on the figure grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .numerics import DEFAULT_REL_TOL, INFINITE, check_tol

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


class RegionClass(NamedTuple):
    """Classification of one (m2, b) point; e3 = e1 by the exterior symmetry."""

    e1: float
    e2: float
    e3: float
    total: float
    on_frontier: bool
    frontier_kind: str | None


def _pow2(b):
    try:
        return 2.0 ** b
    except OverflowError:
        raise ValueError(f"2**b overflows a float at b = {b!r}") from None


def frontier_curve_m2(b) -> float:
    """m2 on the degenerate-symmetric-root curve: (2^b - 2b)/(b - 1).

    Raises ValueError at b = 1, at a non-finite b and where 2**b overflows (b >= 1024).
    """
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b!r}")
    if b == 1.0:
        raise ValueError("the curve is undefined at b = 1")
    return (_pow2(b) - 2.0 * b) / (b - 1.0)


# Per-cell results (value, on_frontier, frontier_kind), shared by every point.
_LINE_B1 = (INFINITE, True, "line_b1")
_SPECIAL = (INFINITE, True, "special_point")
_E1_OFF = ((0, False, None), (1, False, None))  # indexed by the count
_E1_HALFLINE_LOW = (0, True, "halfline_low")
_E1_HALFLINE_HIGH = (0, True, "halfline_high")
_E1_HYPERBOLA = (0, True, "hyperbola")
_E2_ONE, _E2_THREE = (1, False, None), (3, False, None)
_E2_CURVE = (1, True, "curve")
_E2_HALFLINE_LOW = (1, True, "halfline_low")
_E2_HALFLINE_HIGH = (1, True, "halfline_high")


def _on_line_b1(m2):
    return _LINE_B1, _LINE_B1


def _row(b):
    """The classifier of the row at b: m2 (a float) -> (E1 result, E2 result).

    The b-only terms are computed once, with the same expressions as a
    per-point evaluation, so every float and every answer is bit-identical.

    E2, the middle cell: the count is 1 + 2*[sign(g at 0+) != sign(-g'(1))],
    3 exactly when the sign of g flips between 0+ and the symmetric root.
    g'(1) = 2b - 2^b + m2 (b - 1). g at 0+ has the sign of its leading
    coefficient: m2 + 1 (on s^b) for b < 1 and b - 2 - m2 (on s) for b > 1,
    which vanish on the half-lines. On a frontier the count is 1.

    E1, an exterior cell (= e3): for b < 1 the count is 1 iff m2 > -1; for
    b > 1 it is 1 iff m2 lies strictly between b - 2 and 2/(b - 1) (an
    interval that is empty at b = 3). On a frontier the count is 0.

    Raises ValueError at a non-finite b and where 2**b overflows (b >= 1024).
    """
    b = float(b)
    if b == 1.0:
        return _on_line_b1
    a = 2.0 * b - _pow2(b)
    bm1 = b - 1.0
    curve = frontier_curve_m2(b)
    half = b - 2.0
    hyp = 2.0 / bm1
    lo, hi = min(half, hyp), max(half, hyp)
    special = {m2 for m2, pb in SPECIAL_POINTS if pb == b}
    low = b < 1.0

    def classify(m2):
        if low:
            e1 = _E1_HALFLINE_LOW if m2 == -1.0 else _E1_OFF[m2 > -1.0]
        elif m2 == half:
            e1 = _E1_HALFLINE_HIGH
        elif m2 == hyp:
            e1 = _E1_HYPERBOLA
        else:
            e1 = _E1_OFF[lo < m2 < hi]
        if m2 in special:
            return (_SPECIAL if b == 3.0 else e1), _SPECIAL
        gp1 = a + m2 * bm1
        if m2 == curve or gp1 == 0.0:
            return e1, _E2_CURVE
        # The sign of a float sum is exact, and b - 2.0 is exact for 1 < b < 2**53.
        if low:
            if m2 == -1.0:
                return e1, _E2_HALFLINE_LOW
            lead = m2 + 1.0
        else:
            if m2 == half:
                return e1, _E2_HALFLINE_HIGH
            lead = half - m2
        return e1, (_E2_ONE if (lead > 0.0) == (-gp1 > 0.0) else _E2_THREE)

    return classify


def _point(m2, b):
    m2 = float(m2)
    if not math.isfinite(m2):
        raise ValueError(f"m2 must be finite, got {m2!r}")
    return _row(b)(m2)


def classify_E2(m2, b):
    """(value, on_frontier, frontier_kind) for the middle cell, masses (1, m2, 1).

    The count is 1 or 3, and 1 on a frontier; see `_row`.
    """
    return _point(m2, b)[1]


def classify_E1(m2, b):
    """(value, on_frontier, frontier_kind) for an exterior cell (= e3).

    The count is 0 or 1, and 0 on a frontier; see `_row`.
    """
    return _point(m2, b)[0]


_KIND_PRIORITY = {k: i for i, k in enumerate(
    ("special_point", "line_b1", "curve", "halfline_low", "halfline_high", "hyperbola"))}


def _combine(cell1, cell2) -> RegionClass:
    """The RegionClass of the results of both cells; total = 2*e1 + e2 off the infinite set.

    On a frontier the combination of the per-cell frontier values (the
    middle count drops to 1, the exterior counts to 0) reproduces the
    minimum of the totals of the two regions the frontier separates.
    """
    (e1, f1, k1), (e2, f2, k2) = cell1, cell2
    kinds = [k for k in (k1, k2) if k is not None]
    kind = min(kinds, key=_KIND_PRIORITY.__getitem__) if kinds else None
    total = INFINITE if INFINITE in (e1, e2) else 2 * e1 + e2
    return RegionClass(e1=e1, e2=e2, e3=e1, total=total,
                       on_frontier=f1 or f2, frontier_kind=kind)


# (E1 result, E2 result) -> RegionClass, one object shared by every point.
_REGIONS = {
    (cell1, cell2): _combine(cell1, cell2)
    for cell1 in (_LINE_B1, _SPECIAL, *_E1_OFF, _E1_HALFLINE_LOW, _E1_HALFLINE_HIGH,
                  _E1_HYPERBOLA)
    for cell2 in (_LINE_B1, _SPECIAL, _E2_ONE, _E2_THREE, _E2_CURVE, _E2_HALFLINE_LOW,
                  _E2_HALFLINE_HIGH)
}


def classify_total(m2, b) -> RegionClass:
    """Combined classification of both cells; see `_combine`."""
    return _REGIONS[_point(m2, b)]


# --- grid scan ------------------------------------------------------------------


class GridMismatch(NamedTuple):
    m2: float
    b: float
    expected: tuple
    got: tuple


class GridResult(NamedTuple):
    m2_values: tuple[float, ...]
    b_values: tuple[float, ...]
    rows: tuple  # (m2, b, RegionClass) in row-major order (b outer, m2 inner)
    mismatches: tuple[GridMismatch, ...]
    checked: int


def _axis(name, lo, hi, n):
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
    if n == 1:
        return [float(lo)]
    step = (hi - lo) / (n - 1)
    points = [lo, *(lo + i * step for i in range(1, n))]  # lo + 0 * step loses a -0.0
    if points[-1] == hi:
        points[-1] = hi  # lo + (n - 1) * step can lose a -0.0 as well
    # the points move away from lo monotonically, so the last one overflows
    # first: through hi - lo (-1e308:1e308) or a rounded step (0:1.79e308, n = 4)
    if not math.isfinite(points[-1]):
        raise ValueError(f"{name} grid points overflow floats on the range {lo!r}:{hi!r}")
    return points


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
        p = _pow2(b)
        fp = ((p * math.log(2.0) - 2.0) * (b - 1.0) - (p - 2.0 * b)) / (b - 1.0) ** 2
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
    end is NaN or infinite, a grid point overflows floats, tol is not in
    (0, 1), or margin is not finite and non-negative.
    """
    for name, (lo, hi) in (("m2", m2_range), ("b", b_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} range must be finite, got {lo!r}:{hi!r}")
    check_tol(tol)
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and non-negative, got {margin!r}")
    if cross_check:
        from .euler import count_all
    m2_values = _axis("m2", float(m2_range[0]), float(m2_range[1]), int(resolution[0]))
    b_values = _axis("b", float(b_range[0]), float(b_range[1]), int(resolution[1]))
    rows = []
    mismatches = []
    checked = 0
    for b in b_values:
        classify = _row(b)
        for m2 in m2_values:
            rc = _REGIONS[classify(m2)]
            rows.append((m2, b, rc))
            if cross_check and not rc.on_frontier and _frontier_distance(m2, b) > margin:
                checked += 1
                counts, _ = count_all((1.0, m2, 1.0), b, tol, roots=False)
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
    """Write `m2,b,e1,e2,e3,total,on_frontier` rows, floats at 17 significant digits.

    The rows are row-major over b_values x m2_values, so each axis value is
    formatted once, and each distinct RegionClass's columns once.
    """
    m2_cols = [f"{m2:.17g}," for m2 in result.m2_values]
    tails = {}
    lines = ["m2,b,e1,e2,e3,total,on_frontier\n"]
    rows = iter(result.rows)
    for b in result.b_values:
        b_col = f"{b:.17g},"
        for m2_col, (_, _, rc) in zip(m2_cols, rows):
            tail = tails.get(id(rc))
            if tail is None:
                tail = tails[id(rc)] = (
                    f"{_fmt_count(rc.e1)},{_fmt_count(rc.e2)},{_fmt_count(rc.e3)},"
                    f"{_fmt_count(rc.total)},{'true' if rc.on_frontier else 'false'}\n")
            lines.append(m2_col + b_col + tail)
    stream.write("".join(lines))
