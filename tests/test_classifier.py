import io
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from eulercc.classifier import (
    SPECIAL_POINTS,
    classify_E1,
    classify_E2,
    classify_total,
    frontier_curve_m2,
    grid_scan,
    grid_to_csv,
)
from eulercc.euler import INFINITE, _gp_pairs, _groups, count_all, count_cell
from eulercc.numerics import sum_value
from eulercc.signomial import count_and_isolate, normalize


def g_prime_at_one(m2, b):
    """g'(1) for the masses (1, m2, 1), summed from the groups the g' stage evaluates."""
    return sum_value(_groups(*_gp_pairs((1.0, m2, 1.0), b))(1.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12, 1.0, 2.0])
def test_bad_tol_is_rejected(tol):
    # b = 0 takes count_cell's affine path, which never reaches the root engine
    for call in (lambda: count_cell((1.0, 1.0, 1.0), -2.0, 2, tol),
                 lambda: count_cell((1.0, 1.0, 1.0), 0.0, 2, tol),
                 lambda: count_and_isolate(normalize([(1, 0), (-1, 1)]), tol=tol),
                 lambda: grid_scan((-2.0, 0.0), (-2.0, 0.0), (3, 3), cross_check=True, tol=tol)):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            call()


@pytest.mark.parametrize("margin", [math.nan, math.inf, -0.05])
def test_bad_margin_is_rejected(margin):
    with pytest.raises(ValueError, match="^margin must be finite and non-negative"):
        grid_scan((-2.0, 0.0), (-2.0, 0.0), (3, 3), cross_check=True, margin=margin)


def test_frontier_curve_values():
    assert frontier_curve_m2(-1.0) == pytest.approx(-1.25, rel=1e-15)
    assert frontier_curve_m2(0.0) == pytest.approx(-1.0, rel=1e-15)
    assert frontier_curve_m2(3.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        frontier_curve_m2(1.0)


def test_curve_is_the_degenerate_symmetric_locus():
    assert g_prime_at_one(-1.25, -1.0) == pytest.approx(0.0, abs=1e-12)
    rng = random.Random(30)
    for _ in range(100):
        b = rng.uniform(-4, 4)
        if abs(b - 1.0) < 1e-6:
            continue
        m2 = frontier_curve_m2(b)
        assert abs(g_prime_at_one(m2, b)) < 1e-9


def test_classify_E2_examples():
    assert classify_E2(1.0, -2.0)[0] == 1
    assert classify_E2(-1.2, -2.0)[0] == 3
    value, on_frontier, kind = classify_E2(1.0, 3.0)
    assert value == INFINITE and kind == "special_point"


def test_classify_E2_frontier_returns():
    value, on_frontier, kind = classify_E2(frontier_curve_m2(-2.0), -2.0)
    assert (value, on_frontier, kind) == (1, True, "curve")
    value, on_frontier, kind = classify_E2(-1.0, -2.0)
    assert (value, on_frontier, kind) == (1, True, "halfline_low")
    value, on_frontier, kind = classify_E2(0.5, 2.5)
    assert (value, on_frontier, kind) == (1, True, "halfline_high")


def _exact_sign(x):
    return (x > 0) - (x < 0)


def _near_half_line_points(rng, n):
    """(m2, b) within a few ulps of the half-lines, b kept 0.01 from 0, 1, 2 and 3."""
    points = [(2.0 ** -53, 2.0), (-2.0 ** -53, 2.0), (5e-324, 2.0), (-5e-324, 2.0)]
    while len(points) < n:
        low = rng.random() < 0.5
        b = rng.uniform(-4.0, 0.99) if low else rng.uniform(1.01, 6.0)
        if min(abs(b - k) for k in (0.0, 2.0, 3.0)) < 0.01:
            continue
        m2 = -1.0 if low else b - 2.0
        toward = rng.choice((-math.inf, math.inf))
        for _ in range(rng.randint(1, 4)):
            m2 = math.nextafter(m2, toward)
        points.append((m2, b))
    for k in range(1, 5):
        points += [(k * 2.0 ** -53, 2.0), (-k * 5e-324, 2.0)]
    return points


def test_classify_E2_near_the_half_lines_matches_exact_arithmetic():
    # g at 0+ has the sign of m2 + 1 (b < 1) or b - 2 - m2 (b > 1), taken
    # here in exact rationals; sign(-g'(1)) comes from 60-digit arithmetic.
    # A float evaluation of the leading series coefficient (b - 1) - m2 - 1
    # loses m2 within a few ulps of the half-line b > 1.
    rng = random.Random(53)
    with mpmath.workdps(60):
        for m2, b in _near_half_line_points(rng, 4000):
            m2q, bq = Fraction(m2), Fraction(b)
            sigma0 = _exact_sign(m2q + 1 if b < 1.0 else bq - 2 - m2q)
            bm = mpmath.mpf(b)
            gp1 = 2 * bm - mpmath.power(2, bm) + mpmath.mpf(m2) * (bm - 1)
            assert sigma0 != 0 and gp1 != 0
            expected = 1 + 2 * (sigma0 != _exact_sign(-gp1))
            assert classify_E2(m2, b) == (expected, False, None), (m2, b)


def test_classify_E1_examples():
    assert classify_E1(1.0, -2.0)[0] == 1
    assert classify_E1(-2.0, -1.0)[0] == 0
    assert classify_E1(1.0, 2.0)[0] == 1
    assert classify_E1(1.0, 3.0)[0] == INFINITE


def test_classify_E1_frontiers_are_zero():
    assert classify_E1(-1.0, -0.5) == (0, True, "halfline_low")
    assert classify_E1(0.5, 2.5) == (0, True, "halfline_high")
    assert classify_E1(2.0 / 1.5, 2.5) == (0, True, "hyperbola")


def test_classify_E1_interval_empties_at_three():
    # at b = 3 the central interval is empty (its endpoints cross there)
    assert classify_E1(1.0 + 1e-9, 3.0)[0] == 0
    assert classify_E1(1.0 - 1e-9, 3.0)[0] == 0
    # but it reopens on either side of b = 3
    assert classify_E1(1.0, 3.0 + 1e-9)[0] == 1
    assert classify_E1(1.0, 3.0 - 1e-9)[0] == 1


def test_classify_total_examples():
    assert classify_total(1.0, -2.0).total == 3
    rc = classify_total(-0.9, 0.5)
    assert (rc.e1, rc.e2, rc.e3, rc.total) == (1, 3, 1, 5)
    rc = classify_total(-1.2, -2.0)
    assert (rc.e1, rc.e2, rc.e3, rc.total) == (0, 3, 0, 3)


def test_total_composition_off_frontier():
    rng = random.Random(31)
    for _ in range(200):
        m2 = rng.uniform(-4, 2)
        b = rng.uniform(-4, 4)
        rc = classify_total(m2, b)
        if rc.on_frontier or rc.total == INFINITE:
            continue
        assert rc.total == 2 * rc.e1 + rc.e2
        assert rc.e2 in (1, 3)
        assert rc.e1 in (0, 1)


def test_infinite_set_is_line_and_three_points():
    for m2, b in SPECIAL_POINTS:
        assert classify_total(m2, b).total == INFINITE
    assert classify_total(0.37, 1.0).total == INFINITE
    # nearby points are finite
    assert classify_total(-1.0 + 1e-6, 1e-6).total != INFINITE
    assert classify_total(0.37, 1.0 + 1e-6).total != INFINITE


def test_exterior_symmetry_with_numeric_counts():
    # the exterior-cell classification is the middle-cell problem of the
    # permuted masses (m2, 1, 1)
    rng = random.Random(32)
    checked = 0
    while checked < 25:
        m2 = rng.uniform(-4, 2)
        b = rng.uniform(-4, 4)
        rc = classify_total(m2, b)
        if rc.on_frontier or rc.total == INFINITE:
            continue
        m = (1.0, m2, 1.0)
        assert count_cell(m, b, 1)[0] == rc.e1
        assert count_cell(m, b, 3)[0] == rc.e1
        assert count_cell((m2, 1.0, 1.0), b, 2)[0] == rc.e1
        checked += 1


def test_grid_scan_line_at_fixed_b():
    result = grid_scan((-2.0, -1.0), (-2.0, -2.0), (10, 1))
    totals = [rc.total for _, _, rc in result.rows]
    # middle-cell count jumps at the curve value -1.41666...; the grid points
    # -1.3333, -1.2222, -1.1111 lie between the curve and the half-line
    assert totals == [1, 1, 1, 1, 1, 1, 3, 3, 3, 1]
    assert result.rows[-1][2].on_frontier  # m2 = -1 is the half-line


def test_grid_scan_b_one_row_is_infinite():
    result = grid_scan((0.0, 0.0), (1.0, 1.0), (1, 1))
    assert all(rc.total == INFINITE for _, _, rc in result.rows)


@pytest.mark.parametrize("call, bad", [
    (lambda: classify_total(0.5, math.inf), "b must be finite, got inf"),
    (lambda: classify_total(math.nan, 2.5), "m2 must be finite, got nan"),
    (lambda: classify_total(0.5, math.nan), "b must be finite, got nan"),
    (lambda: classify_total(-math.inf, 2.5), "m2 must be finite, got -inf"),
    (lambda: classify_E1(math.nan, 2.5), "m2 must be finite, got nan"),
    (lambda: classify_E2(0.5, -math.inf), "b must be finite, got -inf"),
    (lambda: frontier_curve_m2(math.nan), "b must be finite, got nan"),
    (lambda: frontier_curve_m2(math.inf), "b must be finite, got inf"),
])
def test_point_functions_refuse_non_finite_input(call, bad):
    with pytest.raises(ValueError, match=bad):
        call()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_axis_keeps_a_negative_zero_lower_end(n):
    result = grid_scan((-0.0, -0.0), (-0.0, 1.0), (n, n))
    assert math.copysign(1.0, result.m2_values[0]) == -1.0
    assert math.copysign(1.0, result.b_values[0]) == -1.0


@pytest.mark.parametrize("m2_range, b_range, resolution, axis", [
    ((-1e308, 1e308), (0.0, 0.0), (3, 1), "m2"),  # the width overflows
    ((0.0, sys.float_info.max), (0.0, 0.0), (4, 1), "m2"),  # 3 * rounded step overflows
    ((0.0, 1.0), (1e308, -1e308), (2, 2), "b"),
])
def test_grid_refuses_points_that_overflow_floats(m2_range, b_range, resolution, axis):
    with pytest.raises(ValueError, match=f"{axis} grid points overflow floats on the range "):
        grid_scan(m2_range, b_range, resolution)


def test_grid_keeps_a_wide_range_whose_points_fit():
    assert grid_scan((-8e307, 8e307), (0.0, 0.0), (3, 1)).m2_values == (-8e307, 0.0, 8e307)


def test_grid_cross_check_small():
    result = grid_scan((-3.0, 1.5), (-3.0, 3.5), (14, 14), cross_check=True, margin=0.05)
    assert result.mismatches == ()
    assert result.checked > 100


def test_grid_csv_format_and_determinism():
    result = grid_scan((-1.0, 0.0), (2.0, 3.0), (3, 2))
    buf = io.StringIO()
    grid_to_csv(result, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "m2,b,e1,e2,e3,total,on_frontier"
    assert len(lines) == 1 + 6
    # (0, 2) is a special point: counts render as inf
    assert any(line.startswith("0,2,") and "inf" in line for line in lines)
    buf2 = io.StringIO()
    grid_to_csv(grid_scan((-1.0, 0.0), (2.0, 3.0), (3, 2)), buf2)
    assert buf2.getvalue() == text


def test_classifier_matches_counter_on_random_offgrid_points():
    rng = random.Random(33)
    checked = 0
    while checked < 20:
        m2 = rng.uniform(-4, 2)
        b = rng.uniform(-4, 4)
        rc = classify_total(m2, b)
        if rc.on_frontier or rc.total == INFINITE:
            continue
        counts, _ = count_all((1.0, m2, 1.0), b)
        assert (counts.e1, counts.e2, counts.e3, counts.total) == \
            (rc.e1, rc.e2, rc.e3, rc.total)
        checked += 1


# Points of the 200 x 200 figure grid (`grid --check --margin 0`) whose counts
# disagreed with the classifier while every breakpoint was read at its refined
# value: four beside (m2, b) = (-1, 1) and two on the half-line m2 = b - 2,
# where a root or a breakpoint sits at extreme s (ROADMAP item 1). The last
# two, one of the 200 x 200 grid and one of the 50 x 50 grid, got an even
# cell-2 count until cell 2 of (1, m2, 1) was folded at s = 1; at the first
# the root near 1e-15 reads zero and hides the sign change the fold mirrors.
@pytest.mark.parametrize("m2, b", [
    (-0.98492462311557816, 0.94472361809045236),
    (-0.98492462311557816, 0.98492462311557816),
    (-0.95477386934673358, 1.025125628140704),
    (-0.92462311557788945, 1.0653266331658289),
    (0.43216080402009993, 2.4321608040201008),
    (0.67336683417085386, 2.6733668341708547),
    (0.070351758793969488, 2.0703517587939704),
    (-0.93877551020408179, 1.0612244897959178),
])
def test_margin_zero_grid_points_match_the_classifier(m2, b):
    rc = classify_total(m2, b)
    counts, _ = count_all((1.0, m2, 1.0), b, roots=False)
    assert (counts.e1, counts.e2, counts.total) == (rc.e1, rc.e2, rc.total)


def test_figure_grid_matches_the_classifier_at_margin_zero():
    result = grid_scan((-4.0, 2.0), (-4.0, 4.0), (50, 50), cross_check=True, margin=0.0)
    assert result.mismatches == ()
    assert result.checked > 2000
