import math
import random
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from eulercc.euler import count_cell, degenerate_family, eval_g
from eulercc.numerics import ToleranceError
from eulercc.qps import (
    AffineConstraint,
    BivariateSignomial,
    count_on_line,
    euler_line_system,
    khovanskii_bound,
    restrict_to_line,
    straight_bound,
)


def test_straight_bound_values():
    assert straight_bound(6) == 62
    assert straight_bound(3) == 6
    assert straight_bound(1) == 0
    with pytest.raises(ValueError):
        straight_bound(0)


def test_khovanskii_bound_values():
    assert khovanskii_bound(1, 2, 4) == 32768
    assert khovanskii_bound(1, 1, 6) == 3 ** 6 * 2 ** 15
    assert khovanskii_bound(1, 1, 0) == 1
    with pytest.raises(ValueError):
        khovanskii_bound(0, 1, 1)
    with pytest.raises(ValueError):
        khovanskii_bound(1, 1, -1)


@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 6), st.integers(0, 5))
def test_bounds_monotone(n, d1, d2, k):
    assert straight_bound(n + 1) > straight_bound(n)
    assert khovanskii_bound(d1 + 1, d2, k) >= khovanskii_bound(d1, d2, k)
    assert khovanskii_bound(d1, d2 + 1, k) >= khovanskii_bound(d1, d2, k)
    assert khovanskii_bound(d1, d2, k + 1) >= khovanskii_bound(d1, d2, k)


def test_constraint_rejects_zero_a2():
    with pytest.raises(ValueError, match="a2 must be nonzero"):
        AffineConstraint(1.0, 0.0)
    with pytest.raises(ValueError, match="a2 must be nonzero"):
        AffineConstraint(a1=1.0, a2=-0.0)
    c = AffineConstraint(a1=-1.0, a2=1.0)
    assert repr(c) == "AffineConstraint(a1=-1.0, a2=1.0)"
    with pytest.raises(AttributeError):
        c.a2 = 0.0


def test_restrict_product_to_segment():
    f = BivariateSignomial.from_triples([(1.0, 1.0, 1.0)])  # x*y
    r, (lo, hi) = restrict_to_line(f, AffineConstraint(1.0, 1.0))
    assert (lo, hi) == (0.0, 1.0)
    for x in (0.1, 0.5, 0.9):
        assert r(x) == pytest.approx(x * (1 - x), rel=1e-15)


def test_restrict_constraint_absorbs_equation():
    f = BivariateSignomial.from_triples([(1.0, 0.0, 1.0), (-1.0, 0.0, 0.0)])  # y - 1
    r, (lo, hi) = restrict_to_line(f, AffineConstraint(0.0, 1.0))
    assert (lo, hi) == (0.0, math.inf)
    assert r(3.7) == 0.0


def test_restrict_empty_domain():
    with pytest.raises(ValueError):
        restrict_to_line(BivariateSignomial.from_triples([(1, 1, 0)]),
                         AffineConstraint(-1.0, -1.0))


def test_bivariate_normalization_merges_duplicates():
    f = BivariateSignomial.from_triples([(1, 2, 3), (2, 2, 3), (-3, 2, 3)])
    assert f.terms == ()
    f = BivariateSignomial.from_triples([(1, 0, 0), (0.0, 1, 1)])
    assert f.terms == ((1.0, 0.0, 0.0),)



def _dict_from_triples(triples):
    # The dict merge from_triples used before merge_sorted, kept as the
    # reference: equal (xe, ye) summed in input order, zeros dropped.
    merged = {}
    for c, xe, ye in triples:
        c = float(c)
        if c == 0.0:
            continue
        key = (float(xe), float(ye))
        merged[key] = merged.get(key, 0.0) + c
    return tuple((c, xe, ye) for (xe, ye), c in sorted(merged.items()) if c != 0.0)


def test_bivariate_merge_matches_dict_merge():
    rng = random.Random(42)
    exps = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0)
    coeffs = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.1, 0.2, -0.3)
    for _ in range(5000):
        triples = [(rng.choice(coeffs + (rng.uniform(-3, 3),)), rng.choice(exps),
                    rng.choice(exps)) for _ in range(rng.randint(0, 8))]
        got = BivariateSignomial.from_triples(triples).terms
        want = _dict_from_triples(triples)
        assert repr(got) == repr(want), triples


@pytest.mark.parametrize("triple", [(math.nan, 1.0, 0.0), (1.0, math.inf, 0.0),
                                    (1.0, 0.0, -math.inf), (0.0, math.nan, 0.0)])
def test_bivariate_rejects_non_finite_terms(triple):
    with pytest.raises(ValueError, match="terms must be finite") as exc:
        BivariateSignomial.from_triples([(1.0, 0.0, 0.0), triple])
    assert repr(list(triple)) in str(exc.value)


@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
def test_bivariate_evaluate_refuses_points_off_the_open_quadrant(x, y):
    # a nan coordinate used to evaluate to nan
    f = BivariateSignomial.from_triples([(1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match=re.escape(f"got x = {x!r}, y = {y!r}")):
        f.evaluate(x, y)


@pytest.mark.parametrize("a1, a2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                    (-1.0, -math.inf)])
def test_constraint_rejects_non_finite(a1, a2):
    with pytest.raises(ValueError, match="line coefficients must be finite"):
        AffineConstraint(a1, a2)


def test_count_on_line_rejects_non_finite_masses():
    # used to count 0 roots as a "certified lower bound"
    with pytest.raises(ValueError, match="terms must be finite"):
        count_on_line(*euler_line_system(1.0, math.nan, 1.0, -2.0))
    # used to count one root at x = 1 on the line nan*x + y = 1
    with pytest.raises(ValueError, match="line coefficients must be finite"):
        count_on_line(BivariateSignomial.from_triples([(1, 0, 0), (-1, 1, 0)]),
                      AffineConstraint(math.nan, 1.0))


def test_count_on_line_refuses_a_float_overflow():
    # x^400 - 1 on the line y = 1 + x: x ** 400 overflows at the probes above ~5.6
    with pytest.raises(ToleranceError, match=r"overflows floats at the probe x = \d"):
        count_on_line(BivariateSignomial.from_triples([(1, 400, 0), (-1, 0, 0)]),
                      AffineConstraint(-1.0, 1.0))


def test_count_on_line_refuses_overflow_to_opposite_infinities():
    # 1e300 x^2 - 1e300 y^2 on the line y = 1 + x: both terms overflow to
    # infinities of opposite sign above x ~ 1.3e4, where fsum meets inf - inf
    with pytest.raises(ToleranceError, match=r"overflows floats at the probe x = \d"):
        count_on_line(BivariateSignomial.from_triples([(1e300, 2, 0), (-1e300, 0, 2)]),
                      AffineConstraint(-1.0, 1.0))


@pytest.mark.parametrize("tol", [2.0, 0.0, -1.0, math.nan])
def test_count_on_line_refuses_a_bad_tol(tol):
    # tol = 2.0 used to return a root off by 7e-4 relative
    with pytest.raises(ValueError, match="tol must be finite and positive and below 1"):
        count_on_line(*euler_line_system(1.0, 2.0, 3.0, -2.0), tol)


def test_balance_system_restriction_reproduces_g():
    rng = random.Random(40)
    for _ in range(50):
        m = (rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = rng.uniform(-3, 3)
        f, c = euler_line_system(*m, b)
        r, dom = restrict_to_line(f, c)
        assert dom == (0.0, math.inf)
        s = rng.uniform(0.05, 20.0)
        gv = eval_g(m, b, s)
        assert abs(r(s) - gv) <= 1e-12 * max(1.0, abs(gv), abs(r(s)))


def test_count_on_line_gravitational_symmetric():
    f, c = euler_line_system(1.0, 1.0, 1.0, -2.0)
    res = count_on_line(f, c)
    assert res.count == 1
    assert res.roots[0].value == pytest.approx(1.0, rel=1e-9)


def test_count_on_line_three_roots():
    f, c = euler_line_system(1.0, -1.2, 1.0, -2.0)
    res = count_on_line(f, c)
    assert res.count == 3


def test_count_on_line_constant_restriction():
    f = BivariateSignomial.from_triples([(1, 1, 0), (1, 0, 1), (-3, 0, 0)])  # x + y - 3
    res = count_on_line(f, AffineConstraint(1.0, 1.0))
    assert res.count == 0


def test_count_on_line_matches_cell_counter():
    rng = random.Random(41)
    checked = 0
    while checked < 15:
        m = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = rng.uniform(-3, 0.9)
        if degenerate_family(m, b):
            continue
        f, c = euler_line_system(*m, b)
        assert count_on_line(f, c).count == count_cell(m, b, 2)[0]
        checked += 1


def test_json_round_trip_of_triples():
    import json
    f = BivariateSignomial.from_triples([(1.5, -2.0, 0.5), (-0.25, 0.0, 3.0)])
    text = json.dumps(f.terms)
    g = BivariateSignomial.from_triples(json.loads(text))
    assert g == f
