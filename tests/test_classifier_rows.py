"""The row-at-a-time classifier and the cached CSV writer against per-point references.

`_reference_*` below are the per-point rules and the per-row CSV formatter
as they stood before the classifier computed its b-only terms once per row:
every classification and every CSV byte must stay the same.
"""

import io
import math
import random
from dataclasses import dataclass

import pytest

from eulercc.classifier import (
    SPECIAL_POINTS,
    _frontier_distance,
    classify_E1,
    classify_E2,
    classify_total,
    frontier_curve_m2,
    grid_scan,
    grid_to_csv,
)
from eulercc.euler import INFINITE

# --- the per-point reference rules --------------------------------------------------


@dataclass(frozen=True)
class _ReferenceRegion:
    e1: float
    e2: float
    e3: float
    total: float
    on_frontier: bool
    frontier_kind: str | None


def _reference_frontier_curve_m2(b) -> float:
    if b == 1.0:
        raise ValueError("the curve is undefined at b = 1")
    return (2.0 ** b - 2.0 * b) / (b - 1.0)


def _sym_g_prime_at_1(m2, b):
    return 2.0 * b - 2.0 ** b + m2 * (b - 1.0)


def _is_special(m2, b):
    return (m2, b) in SPECIAL_POINTS


def _reference_classify_E2(m2, b):
    m2 = float(m2)
    b = float(b)
    if b == 1.0:
        return INFINITE, True, "line_b1"
    if _is_special(m2, b):
        return INFINITE, True, "special_point"
    gp1 = _sym_g_prime_at_1(m2, b)
    if m2 == _reference_frontier_curve_m2(b) or gp1 == 0.0:
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


def _reference_classify_E1(m2, b):
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


def _reference_classify_total(m2, b):
    e1, f1, k1 = _reference_classify_E1(m2, b)
    e2, f2, k2 = _reference_classify_E2(m2, b)
    kinds = [k for k in (k1, k2) if k is not None]
    kind = min(kinds, key=_KIND_PRIORITY.__getitem__) if kinds else None
    total = INFINITE if INFINITE in (e1, e2) else 2 * e1 + e2
    return _ReferenceRegion(e1=e1, e2=e2, e3=e1, total=total,
                            on_frontier=f1 or f2, frontier_kind=kind)


def _fields(rc):
    return (rc.e1, rc.e2, rc.e3, rc.total, rc.on_frontier, rc.frontier_kind)


def _fmt_count(v):
    return "inf" if v == INFINITE else str(int(v))


def _reference_grid_to_csv(result, stream):
    stream.write("m2,b,e1,e2,e3,total,on_frontier\n")
    for m2, b, rc in result.rows:
        stream.write(
            f"{m2:.17g},{b:.17g},{_fmt_count(rc.e1)},{_fmt_count(rc.e2)},"
            f"{_fmt_count(rc.e3)},{_fmt_count(rc.total)},"
            f"{'true' if rc.on_frontier else 'false'}\n"
        )


# --- classification --------------------------------------------------------------------


def _assert_same_as_reference(m2, b):
    assert classify_E1(m2, b) == _reference_classify_E1(m2, b), (m2, b)
    assert classify_E2(m2, b) == _reference_classify_E2(m2, b), (m2, b)
    assert _fields(classify_total(m2, b)) == _fields(_reference_classify_total(m2, b)), (m2, b)


def _near(x, steps=2):
    """x and its float neighbours up to `steps` ulps away on either side."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def _frontier_hits(b):
    """The m2 values at which a frontier of the row at b passes, and their neighbours."""
    hits = [-1.0, b - 2.0, 0.0, -0.0, 1.0]
    if b != 1.0:
        hits += [frontier_curve_m2(b), 2.0 / (b - 1.0)]
    return [m2 for hit in hits for m2 in _near(hit)]


def test_row_rule_matches_the_point_rule_on_seeded_points():
    rng = random.Random(131)
    for _ in range(20000):
        _assert_same_as_reference(rng.uniform(-6.0, 4.0), rng.uniform(-8.0, 8.0))
    for _ in range(2000):
        _assert_same_as_reference(rng.uniform(-1e6, 1e6), rng.uniform(-1000.0, 1023.0))


def test_row_rule_matches_the_point_rule_on_frontier_hits():
    rng = random.Random(132)
    bs = [rng.uniform(-6.0, 6.0) for _ in range(400)]
    bs += [0.0, -0.0, 1.0, 2.0, 3.0, 3.0 + 1e-12, 3.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-12]
    bs += [b for _, pb in SPECIAL_POINTS for b in _near(pb)]
    for b in bs:
        for m2 in _frontier_hits(b):
            _assert_same_as_reference(m2, b)


def test_row_rule_matches_the_point_rule_at_the_special_points():
    for pm, pb in SPECIAL_POINTS:
        for m2 in _near(pm, 3):
            for b in _near(pb, 3):
                _assert_same_as_reference(m2, b)


def test_row_rule_matches_the_point_rule_on_the_b_one_row():
    rng = random.Random(133)
    for m2 in [rng.uniform(-6.0, 4.0) for _ in range(200)] + _frontier_hits(1.0):
        _assert_same_as_reference(m2, 1.0)
        assert classify_total(m2, 1.0).total == INFINITE


@pytest.mark.parametrize("m2_range, b_range, resolution", [
    ((-4.0, 2.0), (-4.0, 4.0), (7, 9)),  # integer points: every special point and b = 1
    ((-4.0, 2.0), (-4.0, 4.0), (61, 81)),
    ((-2.0, 0.0), (3.0 - 1e-12, 3.0 + 1e-12), (5, 3)),
])
def test_grid_rows_match_the_point_rule(m2_range, b_range, resolution):
    result = grid_scan(m2_range, b_range, resolution)
    assert len(result.rows) == resolution[0] * resolution[1]
    rows = iter(result.rows)
    for b in result.b_values:
        for m2 in result.m2_values:
            m2_row, b_row, rc = next(rows)
            assert (m2_row, b_row) == (m2, b)
            assert _fields(rc) == _fields(_reference_classify_total(m2, b)), (m2, b)


def test_grid_shares_its_region_objects():
    # one RegionClass per pair of cell results, of which each cell has 7
    result = grid_scan((-4.0, 2.0), (-4.0, 4.0), (61, 81))
    assert len({id(rc) for _, _, rc in result.rows}) <= 7 * 7
    assert len({rc for _, _, rc in result.rows}) >= 10


# --- the overflow of 2**b ------------------------------------------------------------


def test_b_where_2_to_the_b_overflows_is_refused():
    for call in (lambda: classify_total(0.5, 1024.0),
                 lambda: classify_E2(0.5, 1e300),
                 lambda: frontier_curve_m2(1024.0),
                 lambda: _frontier_distance(0.5, 1024.0),
                 lambda: grid_scan((-4.0, 2.0), (1000.0, 2000.0), (3, 3)),
                 lambda: grid_scan((-4.0, 2.0), (1000.0, 2000.0), (3, 3), cross_check=True)):
        with pytest.raises(ValueError, match=r"^2\*\*b overflows a float at b = "):
            call()


def test_b_just_inside_the_float_range_is_classified():
    for m2, b in ((0.5, 1023.9), (0.5, -1100.0), (-2.0, -1100.0)):
        _assert_same_as_reference(m2, b)
    assert _frontier_distance(0.5, 1023.9) >= 0.0


# --- CSV ---------------------------------------------------------------------------------


def _csv(result, writer):
    buf = io.StringIO()
    writer(result, buf)
    return buf.getvalue()


@pytest.mark.parametrize("m2_range, b_range, resolution", [
    ((-4.0, 2.0), (-4.0, 4.0), (200, 200)),
    ((0.5, 0.5), (-2.0, -2.0), (1, 1)),
    ((-0.0, -0.0), (-1.0, 1.0), (1, 3)),  # -0 beside a b axis holding 0.0
    ((-1.0, 1.0), (-0.0, -0.0), (3, 1)),
    ((-4.0, 2.0), (-4.0, 4.0), (7, 9)),  # frontier hits and infinite counts
])
def test_csv_bytes_match_the_per_row_formatter(m2_range, b_range, resolution):
    result = grid_scan(m2_range, b_range, resolution)
    assert _csv(result, grid_to_csv) == _csv(result, _reference_grid_to_csv)


def test_csv_keeps_the_sign_of_zero():
    text = _csv(grid_scan((-0.0, -0.0), (-1.0, 1.0), (1, 3)), grid_to_csv)
    assert [line.split(",")[:2] for line in text.splitlines()[1:]] == \
        [["-0", "-1"], ["-0", "0"], ["-0", "1"]]
