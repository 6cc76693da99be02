import collections
import functools
import json
import math
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from eulercc import euler
from eulercc.acceptance import diff2, g_polynomial, horner, positive_root_count
from eulercc.euler import (
    CELLS,
    INFINITE,
    CellCount,
    abc_terms,
    cell_mass_view,
    celli_identity_residual,
    count_all,
    count_cell,
    degenerate_family,
    endpoint_sign_g,
    eval_g,
    h_signomial,
)
from eulercc.euler import (
    _binomials,
    _cell3_from_cell1,
    _derivative,
    _end_anchors,
    _end_sign,
    _fold,
    _g_pairs,
    _gp_leads_differ,
    _gp_pairs,
    _groups,
    _in_s,
    _low_coefficients,
    _masses,
    _reflect,
    _rescaled,
    _safe_range,
    _short_order,
    _solution,
    _solve_view,
    _stage_sign,
    _y_to_s,
    _zero_series_g,
)
from eulercc.classifier import frontier_curve_m2
from eulercc.numerics import (
    BOUNDARY_ZERO_REL,
    DEFAULT_REL_TOL,
    DEGENERACY_REL,
    Bracket,
    RootRecord,
    Tail,
    ToleranceError,
    _fsum_tier,
    certified_sign_near_zero,
    run_chain,
    sum_sign,
    sum_value,
)
from eulercc.signomial import Endpoint, Signomial, _levels, evaluate, normalize, sign_variations

from oracles import cell_sign_changes, diff1


def rand_masses(rng, lim=10.0):
    return rng.uniform(-lim, lim), rng.uniform(-lim, lim), rng.uniform(-lim, lim)


# --- abc_terms --------------------------------------------------------------------


def test_abc_vanish_at_b_one():
    for s in (0.3, 1.0, 7.5):
        assert abc_terms(1.0, s) == (0.0, 0.0, 0.0)


def test_abc_values_match_balance_function():
    # b=-1, s=2: A = 3(1/9 - 1), B = 2(1/4 - 1), C = 6(1/4 - 1/9)
    a, b_, c = abc_terms(-1.0, 2.0)
    assert a == pytest.approx(-8.0 / 3.0, rel=1e-15)
    assert b_ == pytest.approx(-1.5, rel=1e-15)
    assert c == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert a + b_ + c == pytest.approx(eval_g((1, 1, 1), -1.0, 2.0), rel=1e-12)


@pytest.mark.parametrize("b, s, message", [
    (-2.0, 0.0, "^abc_terms requires 0 < s < inf, got s = 0.0$"),
    (-2.0, -1.0, "^abc_terms requires 0 < s < inf, got s = -1.0$"),
    (-2.0, math.nan, "^abc_terms requires 0 < s < inf, got s = nan$"),
    (-2.0, math.inf, "^abc_terms requires 0 < s < inf, got s = inf$"),
    (math.nan, 1.0, "^b must be finite, got nan$"),
    (math.inf, 1.0, "^b must be finite, got inf$"),
    (-math.inf, 1.0, "^b must be finite, got -inf$"),
], ids=["s=0", "s=-1", "s=nan", "s=inf", "b=nan", "b=inf", "b=-inf"])
def test_abc_refuses_out_of_domain_input(b, s, message):
    with pytest.raises(ValueError, match=message):
        abc_terms(b, s)


def test_abc_order_inequalities_below_one():
    rng = random.Random(3)
    for _ in range(200):
        b = rng.uniform(-6.0, 0.999)
        s = rng.uniform(1e-3, 50.0)
        a, bb, c = abc_terms(b, s)
        assert a < 0.0 < c
        assert a < bb < c


# --- eval_g -----------------------------------------------------------------------


def test_g_symmetric_root():
    assert eval_g((1, 1, 1), -1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_g_vortex_value():
    assert eval_g((1, 1, 1), -1.0, 2.0) == pytest.approx(-10.0 / 3.0, rel=1e-14)


def test_g_identically_zero_at_b_one():
    for s in (0.1, 1.0, 9.0):
        assert eval_g((1, 1, 1), 1.0, s) == pytest.approx(0.0, abs=1e-14)


def test_g_domain_error():
    with pytest.raises(ValueError):
        eval_g((1, 1, 1), -2.0, -0.5)


@pytest.mark.parametrize("m, b, s, message", [
    ((1, 2, 3), -2.0, math.nan, "^eval_g requires 0 < s < inf, got s = nan$"),
    ((1, 2, 3), -2.0, math.inf, "^eval_g requires 0 < s < inf, got s = inf$"),
    ((math.nan, 2, 3), -2.0, 1.0, "^masses must be finite"),
    ((1, 2, -math.inf), -2.0, 1.0, "^masses must be finite"),
    ((1, 2, 3), math.nan, 1.0, "^b must be finite, got nan$"),
    ((1, 2, 3), math.inf, 1.0, "^b must be finite, got inf$"),
], ids=["s=nan", "s=inf", "m1=nan", "m3=-inf", "b=nan", "b=inf"])
def test_g_refuses_non_finite_input(m, b, s, message):
    with pytest.raises(ValueError, match=message):
        eval_g(m, b, s)


def test_g_two_forms_agree():
    rng = random.Random(4)
    for _ in range(100):
        m = rand_masses(rng)
        b = rng.uniform(-5, 5)
        s = rng.uniform(1e-2, 20.0)
        m1, m2, m3 = m
        a, bb, c = abc_terms(b, s)
        via_abc = m1 * a + m2 * bb + m3 * c
        direct = eval_g(m, b, s)
        scale = (abs(m1 * a) + abs(m2 * bb) + abs(m3 * c)
                 + abs(m2 + m3) * s ** b + abs(m1 + m3) * (1 + s) ** b)
        assert abs(via_abc - direct) <= 1e-9 * max(scale, 1e-12)


def test_polynomial_specializations():
    rng = random.Random(8)
    for _ in range(100):
        m = rand_masses(rng, 5.0)
        s = rng.uniform(0.05, 8.0)
        m1, m2, m3 = m
        for b in range(-6, 7):
            k = max(0, -b)
            p = g_polynomial(m, b)
            err = abs((1 + s) ** k * s ** k * eval_g(m, b, s) - horner(p, s))
            if p:
                scale = max(sum(abs(c) * s ** j for j, c in enumerate(p)), 1e-9)
            else:  # b = 1: g cancels to 0, and eval_g must be rounding noise of its terms
                scale = (abs(m2 + m3) * s + abs(m1 + m3) * (1 + s) + abs(m1) * (1 + s)
                         + abs(m3) * (s * s + (1 + s) ** 2) + abs(m2) * s)
            assert err <= 1e-9 * scale, (m, b, s)
        # the paper's Euler quintic (b = -2) and vortex cubic (b = -1)
        f1, f2, f3 = map(Fraction, m)
        assert g_polynomial(m, -2) == [f2 + f3, 2 * f2 + 3 * f3, f2 + 3 * f3,
                                       -(3 * f1 + f2), -(3 * f1 + 2 * f2), -(f1 + f2)]
        assert g_polynomial(m, -1) == [f2 + f3, f2 + 2 * f3, -(2 * f1 + f2), -(f1 + f2)]


# --- g' ----------------------------------------------------------------------------


def g_prime(m, b, s):
    """d/ds of the balance function, summed from the groups the g' stage evaluates."""
    return sum_value(_groups(*_gp_pairs(_masses(m), b))(s))


def test_g_prime_symmetric_closed_form():
    rng = random.Random(9)
    for _ in range(100):
        mm = rng.uniform(-8, 8)
        b = rng.uniform(-4, 4)
        want = 2.0 * b - 2.0 ** b + mm * (b - 1.0)
        assert g_prime((1, mm, 1), b, 1.0) == pytest.approx(want, rel=1e-10, abs=1e-10)
    assert g_prime((1, 1, 1), -2.0, 1.0) == pytest.approx(-7.25, rel=1e-14)


def test_g_prime_matches_finite_differences():
    rng = random.Random(10)
    for _ in range(100):
        m = rand_masses(rng)
        b = rng.uniform(-4, 4)
        s = rng.uniform(0.1, 10.0)
        fd = diff1(lambda t: eval_g(m, b, t), s, 1e-6 * s)
        want = g_prime(m, b, s)
        assert abs(fd - want) <= 1e-6 * max(abs(want), abs(fd), 1e-6)


# --- the per-cell evaluators of g and g' ----------------------------------------------


def _evaluator_masses(rng):
    """Masses, a fifth of them with no zero coefficient and the rest with one
    of g's or g''s coefficients exactly zero."""
    m1, m2, m3 = rand_masses(rng)
    kind = rng.randrange(5)
    if kind == 1:
        m3 = 0.0
    elif kind == 2:
        m2 = -m3
    elif kind == 3:
        m1 = -m3
    elif kind == 4:
        m1 = -m2
    return m1, m2, m3


def _evaluator_b(rng):
    """b at or beside 0, +-1, 2 or 3, or drawn from [-5, 5] or [-300, 300]."""
    kind = rng.randrange(3)
    if kind == 0:
        b = rng.choice((0.0, 1.0, -1.0, 2.0, 3.0))
        return rng.choice((b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)))
    return rng.uniform(-5.0, 5.0) if kind == 1 else rng.uniform(-300.0, 300.0)


def _range_edges(groups):
    """s at and beside the ends of the range where an evaluator computes its terms."""
    top = max(abs(e) for pairs, _ in groups(1.0) for _, e in pairs)
    for end in _safe_range(top):
        if 0.0 < end < math.inf:
            yield from (math.nextafter(end, 0.0), end, math.nextafter(end, math.inf))


def _written_gp_groups(m, b):
    """s -> the five-term groups of g', written out: two pairs on s, two on
    1 + s, and the constant term on the base 1.0."""
    m1, m2, m3 = m
    return lambda s: ((((b * (m2 + m3), b - 1.0), ((b + 1.0) * m3, b)), s),
                      (((b * (m1 + m3), b - 1.0), (-(b + 1.0) * m3, b)), 1.0 + s),
                      (((-(m1 + m2), 0.0),), 1.0))


@pytest.mark.parametrize("pairs, written", [(_g_pairs, None), (_gp_pairs, _written_gp_groups)])
def test_cell_evaluators_match_sum_sign_bit_for_bit(pairs, written):
    # The stage evaluator computes the six terms itself; sum_sign on the
    # groups must give the same sign and value, in both tiers and at every
    # threshold, and so must sum_sign on the five-term groups of g'.
    rng = random.Random(21)
    tiers = {True: 0, False: 0}
    for i in range(4000):
        m = _evaluator_masses(rng)
        b = _evaluator_b(rng)
        z = rng.choice((0.0, BOUNDARY_ZERO_REL, DEGENERACY_REL))
        groups = _groups(*pairs(m, b))
        points = [10.0 ** rng.uniform(-300.0, 300.0)]
        if i % 8 == 0:
            points += _range_edges(groups)
        for s in points:
            want = sum_sign(groups(s), z)
            assert _stage_sign(*pairs(m, b))(s, z) == want, (m, b, s, z)
            if written is not None:
                assert sum_sign(written(m, b)(s), z) == want, (m, b, s, z)
            tiers[math.isfinite(_fsum_tier(groups(s))[1])] += 1
    # both tiers are crossed: fsum and mpmath
    assert min(tiers.values()) > 500


# --- h_signomial ---------------------------------------------------------------------


def h_value(m, b, y):
    """The curvature kernel h at y: H / (b(b-1)) with H = h_signomial(m, b)."""
    return evaluate(h_signomial(m, b), y) / (b * (b - 1.0))


def test_h_vanishes_at_one():
    rng = random.Random(14)
    for _ in range(50):
        m = rand_masses(rng)
        b = rng.uniform(-4, 4)
        if abs(b - 1.0) < 1e-3:
            continue
        assert h_value(m, b, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9 * (1 + sum(map(abs, m))))


def test_h_value_from_transform_identity():
    # h(1/2) for unit vorticities: g''(1) = 4.5, (1-y)^(1-b) = 1/4, b(b-1) = 2
    m, b, y = (1, 1, 1), -1.0, 0.5
    s = y / (1.0 - y)
    gpp = diff2(lambda t: eval_g(m, b, t), s, 1e-5)
    implied = gpp / ((1.0 - y) ** (1.0 - b) * b * (b - 1.0))
    assert h_value(m, b, y) == pytest.approx(9.0, rel=1e-13)
    assert implied == pytest.approx(9.0, rel=1e-4)


def test_h_signomial_degenerate_families_empty():
    assert h_signomial((1, 1, 1), 3.0).is_zero
    assert h_signomial((1, 0, 1), 2.0).is_zero


def test_h_signomial_vortex_terms():
    p = h_signomial((1, 1, 1), -1.0)
    assert list(p.pairs) == [(4.0, -3.0), (-4.0, -2.0), (4.0, 0.0), (-4.0, 1.0)]


def test_h_signomial_is_empty_at_zero_and_one():
    # the prefactor b(b-1) cancels every coefficient exactly, on any masses
    rng = random.Random(16)
    for _ in range(2000):
        m = rand_masses(rng, lim=rng.choice((1e-300, 1.0, 1e300)))
        for b in (0.0, -0.0, 1.0):
            assert h_signomial(m, b).is_zero, (m, b)


def test_transform_identity_against_finite_differences():
    rng = random.Random(15)
    checked = 0
    while checked < 60:
        m = rand_masses(rng, 5.0)
        b = rng.uniform(-3.0, 3.0)
        if min(abs(b), abs(b - 1.0)) < 0.1 or degenerate_family(m, b):
            continue
        y = rng.uniform(0.15, 0.85)
        s = y / (1.0 - y)
        big_h = h_signomial(m, b)
        rhs = (1.0 - y) ** (1.0 - b) * evaluate(big_h, y)
        lhs = diff2(lambda t: eval_g(m, b, t), s, 3e-4 * s)
        scale = (1.0 - y) ** (1.0 - b) * sum(abs(c) * y ** e for c, e in big_h.pairs)
        assert abs(lhs - rhs) <= 1e-5 * max(scale, abs(lhs), 1.0)
        checked += 1


# --- the exact pre-count of H on (0, 1) -----------------------------------------------


def _poly(*coeffs):
    """sum(c_i y^i) as a Signomial, the constant first."""
    return normalize((c, i) for i, c in enumerate(coeffs))


@pytest.mark.parametrize("h", [
    _poly(-1, 1),                         # v = 1: y - 1
    _poly(2, -3, 1),                      # v = 2, even parity: (y - 1)(y - 2)
    _poly(-6, 11, -6, 1),                 # v = 3, y_r = 6^(1/3): (y - 1)(y - 2)(y - 3)
    _poly(-(1 + 1e-6), 3 + 1e-6, -3, 1),  # v = 3, log y_r = 3.3e-7, past the margin:
                                          # (y - 1)((y - 1)^2 + 1e-6)
    _poly(-0.35, 1.35, -2, 1),            # v = 3, y_r = 0.35^(1/3) < 1, sigma Q < 0
                                          # around it: (y - 1)((y - 0.5)^2 + 0.1)
])
def test_pre_count_proves_h_rootless_below_one(h):
    assert euler._no_roots_below_one(h)
    assert run_chain(_levels(h, 0.0, 1.0), DEFAULT_REL_TOL) == []


@pytest.mark.parametrize("h, roots", [
    (_poly(2.001, -3, 1), 0),             # H(1) = 0.001 is not read as zero
    (_poly(1, -2, 1), 0),                 # H'(1) reads zero: (y - 1)^2
    (_poly(-1, 3, -3, 1), 0),             # H'(1) reads zero: (y - 1)^3
    (_poly(0.5, -1.5, 1), 1),             # v = 2, odd parity: (y - 0.5)(y - 1)
    (_poly(-1, 3.5, -3.5, 1), 1),         # v = 3, odd parity: (y - 0.5)(y - 1)(y - 2)
    (_poly(-(1 + 1e-10), 3 + 1e-10, -3, 1), 0),  # log y_r = 3.3e-11, inside the margin,
                                          # and the bound on sigma Q around y_r straddles
                                          # 0: (y - 1)((y - 1)^2 + 1e-10)
    (_poly(-0.26, 1.26, -2, 1), 0),       # y_r < 1, where sigma Q > 0:
                                          # (y - 1)((y - 0.5)^2 + 0.01)
    (_poly(-0.18, 1.08, -1.9, 1), 2),     # y_r < 1, two roots: (y - 0.3)(y - 0.6)(y - 1)
])
def test_pre_count_defers_to_the_chain(h, roots):
    assert not euler._no_roots_below_one(h)
    assert len(run_chain(_levels(h, 0.0, 1.0), DEFAULT_REL_TOL)) == roots


def test_in_s_places_a_bracket_reaching_y_one():
    # The h stage's records map from y to s = y/(1-y). A bracket reaching
    # y = 1 reaches s = +infinity: the curvature sign read with a value at
    # the right anchor drops it (the bracket's sign at its low end) or brings
    # its end to the anchor (the other sign), and refuses in the noise.
    reads = []

    def curvature(sign, value):
        def read(s, zero_rel):
            reads.append((s, zero_rel))
            return sign, value
        return read

    below = [Bracket(0.2, 0.25, -1), RootRecord(0.25, 0.5, 0.4, True)]
    mapped = [Bracket(_y_to_s(0.2), _y_to_s(0.25), -1),
              RootRecord(_y_to_s(0.25), 1.0, _y_to_s(0.4), True)]
    h_roots = below + [Bracket(0.5, 1.0, 1)]
    assert list(_in_s(h_roots, 4.0, curvature(1, 2.0))) == mapped
    assert list(_in_s(h_roots, 4.0, curvature(-1, -2.0))) == mapped + [Bracket(1.0, 4.0, 1)]
    for sign, value in ((-1, None), (0, 0.0)):
        with pytest.raises(ToleranceError, match="cannot be placed beside 4.0"):
            list(_in_s(h_roots, 4.0, curvature(sign, value)))
    assert reads == [(4.0, 0.0)] * 4
    # one that starts beyond the anchor is left for the g' stage to skip, unread
    assert list(_in_s([Bracket(0.9, 1.0, 1)], 4.0, curvature(0, None))) == [
        Bracket(_y_to_s(0.9), math.inf, 1)]
    assert len(reads) == 4


def _pre_count_draws(rng, n):
    """(masses, b): integer b, b = k +/- 10^-j, b near 1, |b| <= 40 and b in [-5, 5].

    A fifth of the triples put one mass at a relative 0, 1e-15, -1e-12 or 1e-9
    from another (next to the families at integer b), a tenth zero a mass,
    and 3 in 10 are symmetric views of cell 2.
    """
    draws = []
    for _ in range(n):
        b = rng.choice((
            lambda: float(rng.randint(-8, 8)),
            lambda: rng.randint(-6, 6) + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.randint(1, 15),
            lambda: rng.uniform(0.8, 1.2),
            lambda: rng.uniform(-40.0, 40.0),
            lambda: rng.uniform(-5.0, 5.0),
        ))()
        m = list(rand_masses(rng))
        if rng.random() < 0.2:
            i, j = rng.sample(range(3), 2)
            m[i] = m[j] * (1.0 + rng.choice((0.0, 1e-15, -1e-12, 1e-9)))
        if rng.random() < 0.1:
            m[rng.randrange(3)] = 0.0
        if rng.random() < 0.3:
            m[2] = m[0]
        draws.append((tuple(m), b))
    return draws


def _kernels(draws):
    """(mv, b, H) of every view of the draws that reaches the chain."""
    for m, b in draws:
        for cell in CELLS:
            mv = cell_mass_view(_rescaled(m), cell)
            if degenerate_family(mv, b) is None and not (h := h_signomial(mv, b)).is_zero:
                yield mv, b, h


def test_pre_count_agrees_with_the_chain():
    # where the pre-count finds no root in (0, 1), the h stage finds none on
    # its range, (0, 1/2) for a symmetric view; every rule decides some views
    cells, decided = 0, collections.Counter()
    for mv, b, h in _kernels(_pre_count_draws(random.Random(28), 4000)):
        cells += 1
        if euler._no_roots_below_one(h):
            decided[sign_variations(h)] += 1
            hi = 0.5 if mv[0] == mv[2] else 1.0
            assert run_chain(_levels(h, 0.0, hi), DEFAULT_REL_TOL) == [], (mv, b)
    assert cells >= 10_000
    assert sum(decided.values()) > 0.6 * cells and min(decided[v] for v in (1, 2, 3)) > 100


def test_pre_count_answers_where_the_h_stage_cannot_anchor_at_zero():
    # H = -4e-300 - 2.09 y^(1e-6) - 8e-300 y + 2.09 y^1.000001: no probe of
    # the h stage finds its lowest term dominant, while one sign variation
    # leaves no root in (0, 1). g = -m2 (s - s^b) up to terms of 2e-300 s, so
    # s = 1 is the one root.
    m, b = (2e-300, -1.0453989944787914, 2e-300), 2.000001
    h = h_signomial(m, b)
    with pytest.raises(ToleranceError, match="no probe point"):
        run_chain(_levels(h, 0.0, 0.5), DEFAULT_REL_TOL)
    assert euler._no_roots_below_one(h)
    assert count_cell(m, b, 2) == (1, [_solution(2, 1.0, False)])


def _exact_roots_below_one(mv, b):
    """The number of distinct roots in (0, 1) of H for the exact masses mv at integer b, by Sturm.

    y^k H(y), k = max(0, 2 - b), is a polynomial; y = t/(1 + t) carries (0, 1)
    to t > 0, where (1 + t)^d y^k H counts them (d its degree).
    """
    m1, m2, m3 = map(Fraction, mv)
    b = int(b)
    bb, k = b * (b - 1), max(0, 2 - b)
    terms = ((-bb * m2 + 2 * b * m3, b - 1), (bb * (m2 + m3), b - 2),
             (-bb * (m1 + m3), 1), (bb * m1 - 2 * b * m3, 0))
    d = max(e for _, e in terms) + k
    p = [Fraction(0)] * (d + 1)
    for c, e in terms:
        p[e + k] += c
    t = [Fraction(0)] * (d + 1)
    for i, c in enumerate(p):
        for j in range(d - i + 1):
            t[i + j] += c * math.comb(d - i, j)
    while not t[-1]:
        t.pop()
    return positive_root_count(t)


def test_pre_count_matches_the_exact_count_at_integer_b():
    rng = random.Random(29)
    decided = 0
    for b in range(-6, 7):
        if b in (0, 1):
            continue
        draws = [(m, float(b)) for m, _ in _pre_count_draws(rng, 40)]
        for mv, b, h in _kernels(draws):
            if euler._no_roots_below_one(h):
                decided += 1
                assert _exact_roots_below_one(mv, b) == 0, (mv, b)
    assert decided >= 1000


# --- degenerate_family ----------------------------------------------------------------


@pytest.mark.parametrize("m,b,case", [
    ((0, 0, 0), -2.0, "i"),
    ((1, -1, 1), 0.0, "ii"),
    ((0.3, 1.7, -2.0), 1.0, "iii"),
    ((1.5, 0.0, 1.5), 2.0, "iv"),
    ((0.7, 0.7, 0.7), 3.0, "v"),
])
def test_degenerate_family_cases(m, b, case):
    assert degenerate_family(m, b) == case


def test_degenerate_family_absent_for_generic_point():
    assert degenerate_family((1, 1, 1), -2.0) is None
    assert degenerate_family((1, -1, 1), 0.5) is None
    assert degenerate_family((1, 0, 1), 2.5) is None


# --- endpoint_sign_g --------------------------------------------------------------------


def test_endpoint_sign_examples():
    assert endpoint_sign_g((1, -1.2, 1), -2.0, Endpoint.ZERO_PLUS) == -1
    # m2 + m3 = 0 falls through to the next-order term m3
    assert endpoint_sign_g((0, -1, 1), -2.0, Endpoint.ZERO_PLUS) == 1
    assert endpoint_sign_g((1, 1, 1), -2.0, Endpoint.INFINITY) == -1


def test_endpoint_sign_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        endpoint_sign_g((1, 1, 1), 1.0, Endpoint.ZERO_PLUS)
    with pytest.raises(ValueError):
        endpoint_sign_g((1, -1, 1), 0.0, Endpoint.ZERO_PLUS)


_NON_FINITE_INPUT = [
    ((math.nan, 1.0, 1.0), -2.0, "masses must be finite, got (nan, 1.0, 1.0)"),
    ((1.0, 1.0, -math.inf), -2.0, "masses must be finite, got (1.0, 1.0, -inf)"),
    ((1.0, 1.0, 1.0), math.nan, "b must be finite, got nan"),
    ((1.0, 1.0, 1.0), math.inf, "b must be finite, got inf"),
    ((1.0, 1.0, 1.0), -math.inf, "b must be finite, got -inf"),
]


@pytest.mark.parametrize("m, b, bad", _NON_FINITE_INPUT)
@pytest.mark.parametrize("endpoint", list(Endpoint))
def test_endpoint_sign_refuses_non_finite_input_as_count_cell_does(m, b, bad, endpoint):
    with pytest.raises(ValueError, match=re.escape(bad)):
        endpoint_sign_g(m, b, endpoint)
    with pytest.raises(ValueError, match=re.escape(bad)):
        count_cell(m, b)


@pytest.mark.parametrize("m, b, bad", _NON_FINITE_INPUT)
def test_h_signomial_refuses_non_finite_input_as_count_cell_does(m, b, bad):
    # it used to build nan coefficients from a nan mass, nan exponents from a nan b
    with pytest.raises(ValueError, match=re.escape(bad)):
        h_signomial(m, b)


@pytest.mark.parametrize("b", [2000.0, 3e4, 1e8, 1e20, -1e20, 1e308])
def test_count_refuses_a_b_whose_binomials_overflow_at_once(b):
    # The running binomials of the 0+ series overflow floats, so no tail
    # bound is finite. The rows stop at the first overflow, so the refusal
    # takes no memory or time that grows with |b|; at 1e308 b(b-1) in h
    # overflows as well.
    t0 = time.perf_counter()
    with pytest.raises(ToleranceError, match=re.escape(f"at b = {b!r}")):
        count_all((1.0, 2.0, 3.0), b)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("b", [-372.0, -370.0, 1025.0, 1028.0])
def test_count_names_b_when_a_series_coefficient_overflows(b):
    # The binomials are finite here, but c * e in the series of g' (and at
    # -372 the tail bound of g) overflows floats, so no probe certifies the
    # anchor; the refusal names the series and b.
    with pytest.raises(ToleranceError, match=re.escape(f"the series of g' at 0+ overflows "
                                                       f"floats at b = {b!r}")):
        count_all((1.0, 2.0, 3.0), b)


def test_endpoint_sign_reads_the_finite_low_order_terms_at_an_overflowing_b():
    # the leading coefficient sits below the first overflowing row
    assert endpoint_sign_g((1, 2, 3), -500.0, Endpoint.ZERO_PLUS) == 1  # m2 + m3, at s^b
    assert endpoint_sign_g((1, 2, 3), -500.0, Endpoint.INFINITY) == -1
    assert endpoint_sign_g((1, 2, 3), 1e8, Endpoint.ZERO_PLUS) == 1  # (b-1) m1 - m2 - m3, at s
    assert endpoint_sign_g((-1, 2, 3), 1e8, Endpoint.ZERO_PLUS) == -1


def _g_anchor_zero(m, b):
    return _end_anchors(m, b, Endpoint.ZERO_PLUS, None)("g")


def _g_anchor_inf(m, b):
    return _end_anchors(m, b, Endpoint.INFINITY, None)("g")


def _sign_of(x):
    return 0 if x == 0.0 else (1 if x > 0.0 else -1)


def reference_endpoint_sign_g(m, b, endpoint):
    """The leading/correction-term cascade endpoint_sign_g used to write out for each end."""
    m = _masses(m)
    m1, m2, m3 = m
    if endpoint is Endpoint.ZERO_PLUS:
        if b != 0.0:
            if b < 1.0:
                lead = m2 + m3
                nxt = ((b - 1.0) * m1 - m2 - m3) if b > 0.0 else m3
            else:
                lead = (b - 1.0) * m1 - m2 - m3
                if b < 2.0:
                    nxt = m2 + m3
                elif b > 2.0:
                    nxt = m1 * (b - 1.0) - 2.0 * m3
                else:
                    nxt = 0.0
            if lead != 0.0:
                return _sign_of(lead)
            if nxt != 0.0:
                return _sign_of(nxt)
        return _g_anchor_zero(m, b)[1]
    if endpoint is Endpoint.INFINITY:
        if b != 0.0:
            if b < 1.0:
                lead = -(m1 + m2)
                nxt = -((b - 1.0) * m3 - m2 - m1) if b > 0.0 else -m1
            else:
                lead = -((b - 1.0) * m3 - m2 - m1)
                if b < 2.0:
                    nxt = -(m1 + m2)
                elif b > 2.0:
                    nxt = -(m3 * (b - 1.0) - 2.0 * m1)
                else:
                    nxt = 0.0
            if lead != 0.0:
                return _sign_of(lead)
            if nxt != 0.0:
                return _sign_of(nxt)
        return _g_anchor_inf(m, b)[1]
    raise ValueError(f"unknown endpoint {endpoint!r}")


def test_endpoint_sign_matches_reference_cascade():
    # Mixes generic draws with the inputs where the cascade's branches meet:
    # b in {0, 2}, integer and half-integer b, and masses that zero a
    # low-order coefficient (m2 = -m3, m3 = 0, (b-1) m1 = m2 + m3).
    rng = random.Random(24)
    checked = anchored = 0
    while checked < 20000:
        k = checked % 8
        if k < 2:
            m = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        else:
            m = [float(rng.randint(-4, 4)) for _ in range(3)]
        r = rng.random()
        if r < 0.2:
            b = rng.choice([0.0, 2.0])
        elif r < 0.45:
            b = float(rng.randint(-6, 6))
        elif r < 0.7:
            b = rng.randint(-12, 12) / 2.0
        else:
            b = rng.uniform(-6.0, 6.0)
        if k == 3:
            m[1] = -m[2]
        elif k == 4:
            m[2] = 0.0
        elif k == 5:
            m[1] = (b - 1.0) * m[0] - m[2]
        if b == 1.0 or degenerate_family(m, b) is not None:
            continue
        for end in (Endpoint.ZERO_PLUS, Endpoint.INFINITY):
            assert endpoint_sign_g(m, b, end) == reference_endpoint_sign_g(m, b, end), (m, b, end)
        anchored += b in (0.0, 2.0)
        checked += 1
    assert anchored > 2000


def test_endpoint_sign_matches_direct_evaluation():
    rng = random.Random(16)
    checked = 0
    while checked < 200:
        m = rand_masses(rng)
        b = rng.uniform(-5, 5)
        if b == 1.0 or degenerate_family(m, b):
            continue
        s0 = endpoint_sign_g(m, b, Endpoint.ZERO_PLUS)
        s1 = endpoint_sign_g(m, b, Endpoint.INFINITY)
        x0, sign0 = _g_anchor_zero(m, b)
        x1, sign1 = _g_anchor_inf(m, b)
        assert s0 == sign0
        assert s1 == sign1
        g0 = eval_g(m, b, x0)
        g1 = eval_g(m, b, x1)
        assert g0 == 0.0 or (g0 > 0) == (s0 > 0)
        assert g1 == 0.0 or (g1 > 0) == (s1 > 0)
        checked += 1


def _mp_g(m, b, s, derivative):
    m1, m2, m3 = (mpmath.mpf(v) for v in m)
    b = mpmath.mpf(b)
    u = 1 + s
    if derivative:
        return (b * (m2 + m3) * s ** (b - 1) + (b + 1) * m3 * s ** b
                + b * (m1 + m3) * u ** (b - 1) - (b + 1) * m3 * u ** b - (m1 + m2))
    return (m2 + m3) * s ** b + (m1 + m3) * u ** b + m3 * (s ** (b + 1) - u ** (b + 1)) \
        - m1 * u - m2 * s


def _mp_zero_terms(m, b, order):
    # the exact terms of the 0+ series of g below the truncation order
    m1, m2, m3 = (mpmath.mpf(v) for v in m)
    b = mpmath.mpf(b)
    terms = [(m2 + m3, b), (m3, b + 1), ((b - 1) * m1 - m2 - m3, 1)]
    for k in range(2, order):
        terms.append(((m1 + m3) * mpmath.binomial(b, k) - m3 * mpmath.binomial(b + 1, k), k))
    return terms


def test_series_tail_bounds_dominate_the_remainder():
    # Both the full series and the short one (cut at _short_order) must
    # bound the remainder; b = 3.7184 puts the short order at 6, where the
    # tail exponent at +infinity is 6 - b - 1 = 1.28.
    rng = random.Random(25)
    masses = [rand_masses(rng) for _ in range(3)] + [(1.0, -2.0, 3.0)]
    bs = [-3.0, -2.0, 0.0, 2.0, 3.0, -2.5, -0.5, 0.5, 1.5, 3.5, 3.7184] + \
        [rng.uniform(-5.0, 5.0) for _ in range(3)]
    with mpmath.workdps(60):
        for m in masses:
            for b, cut in ((b, cut) for b in bs for cut in (None, _short_order(m, b))):
                zero = _zero_series_g(m, b, cut)
                order = int(zero.tail.exponent)
                for end in (Endpoint.ZERO_PLUS, Endpoint.INFINITY):
                    if end is Endpoint.ZERO_PLUS:
                        series = zero
                        terms = _mp_zero_terms(m, b, order)
                    else:
                        series = _reflect(_zero_series_g(m[::-1], b, cut), b)
                        terms = [(-c, e - mpmath.mpf(b) - 1)
                                 for c, e in _mp_zero_terms(m[::-1], b, order)]
                    sigma = 1 if end is Endpoint.ZERO_PLUS else -1
                    for derivative in (False, True):
                        if derivative:
                            series = _derivative(series, end)
                            terms = [(sigma * c * e, e - sigma) for c, e in terms]
                        tail = series.tail
                        for x in (0.01, 0.1, 0.25):
                            x = mpmath.mpf(x)
                            s = x if end is Endpoint.ZERO_PLUS else 1 / x
                            parts = [c * x ** e for c, e in terms]
                            target = _mp_g(m, b, s, derivative)
                            remainder = abs(target - mpmath.fsum(parts))
                            assert tail.ratio * x < 1
                            bound = (mpmath.mpf(tail.coeff) * x ** mpmath.mpf(tail.exponent)
                                     / (1 - mpmath.mpf(tail.ratio) * x))
                            # 60-digit evaluation noise of the subtraction
                            noise = mpmath.mpf(10) ** -45 * (abs(target) + sum(map(abs, parts)))
                            assert remainder <= bound + noise, (m, b, cut, end, derivative, x)
    # Cut at order 3, the tail exponent at +infinity is 3 - b - 1 = -0.7184,
    # where the derivative's tail bound does not hold: it used to return a
    # negative coefficient and a ratio below 1, which certified x = 4 for g'
    # where the full series' anchor is 64.
    m, b = (1.0, -2.0, 3.0), 3.7184
    with pytest.raises(ValueError, match=re.escape(repr(3.0 - b - 1.0))):
        _derivative(_reflect(_zero_series_g(m[::-1], b, 3), b), Endpoint.INFINITY)


# The endpoint series builders as they were with Signomial and normalize,
# kept verbatim as the reference for the flat (c, e) tuples.


@dataclass(frozen=True)
class _RefSeries:
    signomial: Signomial
    tail: Tail


def _ref_series_order(b):
    big = max(abs(b), abs(b + 1.0))
    return max(14, 2 * int(math.ceil(big)) + 6), big


def _ref_zero_series_g(m, b) -> _RefSeries:
    order, big = _ref_series_order(b)
    m1, _, m3 = m
    pairs = list(zip(_low_coefficients(m, b), (b, b + 1.0, 1.0, 2.0)))
    cb = 1.0    # running C(b, k)
    cb1 = 1.0   # running C(b+1, k)
    for k in range(3):
        cb *= (b - k) / (k + 1.0)
        cb1 *= (b + 1.0 - k) / (k + 1.0)
    for k in range(3, order):
        pairs.append(((m1 + m3) * cb - m3 * cb1, float(k)))
        cb *= (b - k) / (k + 1.0)
        cb1 *= (b + 1.0 - k) / (k + 1.0)
    tail_coeff = abs(m1 + m3) * abs(cb) + abs(m3) * abs(cb1)
    ratio = 1.0 + (big + 1.0) / (order + 1.0)
    return _RefSeries(normalize(pairs), Tail(tail_coeff, float(order), ratio))


def _ref_reflect(series: _RefSeries, b) -> _RefSeries:
    p = normalize((-c, e - b - 1.0) for c, e in series.signomial.pairs)
    t = series.tail
    return _RefSeries(p, Tail(t.coeff, t.exponent - b - 1.0, t.ratio))


def _ref_derivative(series: _RefSeries, end) -> _RefSeries:
    sigma = 1.0 if end is Endpoint.ZERO_PLUS else -1.0
    p = normalize((sigma * c * e, e - sigma) for c, e in series.signomial.pairs)
    t = series.tail
    return _RefSeries(p, Tail(t.coeff * t.exponent, t.exponent - sigma,
                              t.ratio * (1.0 + 1.0 / t.exponent)))


def _ref_anchor(series: _RefSeries, end):
    p = series.signomial
    if p.is_zero:
        raise ToleranceError("series vanished to working order; cannot certify a sign")
    t = series.tail
    x0, sign = certified_sign_near_zero(p.pairs, tail=t, start=min(0.25, 0.5 / t.ratio))
    return (x0, sign) if end is Endpoint.ZERO_PLUS else (1.0 / x0, sign)


def _anchor_or_error(anchor):
    try:
        return anchor()
    except ToleranceError as exc:
        return "ToleranceError", str(exc)


def test_flat_series_match_the_normalize_reference(monkeypatch):
    # Integer and half-integer b make b or b+1 collide with the integer
    # exponents (and the reflected ones collide through rounding); the
    # structured masses zero low-order coefficients (m3 = 0, m1 = -m3,
    # m2 = -m3), so zero coefficients are dropped and zero sums removed.
    # The cell's anchors, tried on the short series first as _cell_roots
    # asks for them, must be the reference's on the full series.
    decided = []
    below = []  # the outcomes at b < -5

    def bounded(*args):
        found = bounded_sign_near_zero(*args)
        decided.append(found is not None)
        if b < -5.0:
            below.append(found is not None)
        return found

    bounded_sign_near_zero = euler._bounded_sign_near_zero
    monkeypatch.setattr(euler, "_bounded_sign_near_zero", bounded)
    rng = random.Random(26)
    for i in range(5000):
        k = i % 6
        if k < 2:
            m = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        else:
            m = [float(rng.randint(-4, 4)) for _ in range(3)]
        if k == 3:
            m[2] = 0.0
        elif k == 4:
            m[0] = -m[2]
        elif k == 5:
            m[1] = -m[2]
        r = rng.random()
        if r < 0.15:
            b = rng.choice([-1.0, 0.0, 2.0])
        elif r < 0.45:
            b = float(rng.randint(-4, 6))
        elif r < 0.75:
            b = rng.randint(-9, 13) / 2.0
        elif r < 0.9:
            b = rng.uniform(-6.0, 6.0)
        else:
            # below b = -5 the short series' order grows with |b|
            b = rng.uniform(-40.0, -5.0)
        m = tuple(m)
        zero = _zero_series_g(m, b)
        inf = _reflect(_zero_series_g(m[::-1], b), b)
        ref_zero = _ref_zero_series_g(m, b)
        ref_inf = _ref_reflect(_ref_zero_series_g(m[::-1], b), b)
        order = _short_order(m, b)
        for end, series, ref in ((Endpoint.ZERO_PLUS, zero, ref_zero),
                                 (Endpoint.INFINITY, inf, ref_inf)):
            cell_anchor = _end_anchors(m, b, end, order)
            full_anchor = _end_anchors(m, b, end, None)
            # g' first, as in _cell_roots
            for name, got, want in (("g'", _derivative(series, end), _ref_derivative(ref, end)),
                                    ("g", series, ref)):
                # repr tells -0.0 from 0.0 and round-trips every float
                assert repr(got.pairs) == repr(want.signomial.pairs), (m, b, end)
                assert repr(got.tail) == repr(want.tail), (m, b, end)
                expected = repr(_anchor_or_error(lambda: _ref_anchor(want, end)))
                assert repr(_anchor_or_error(lambda: full_anchor(name))) == expected, \
                    (m, b, end, name)
                assert repr(_anchor_or_error(lambda: cell_anchor(name))) == expected, \
                    (m, b, end, name)
    # both branches ran: anchors the short series decided, and fallbacks
    assert True in decided and False in decided
    # and the short series decided most anchors below b = -5
    assert sum(below) > 0.9 * len(below) > 100


def test_endpoint_sign_reflection_identity():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        m = rand_masses(rng)
        b = rng.uniform(-4, 4)
        if b == 1.0 or degenerate_family(m, b):
            continue
        swapped = m[::-1]
        assert endpoint_sign_g(m, b, Endpoint.INFINITY) == -endpoint_sign_g(
            swapped, b, Endpoint.ZERO_PLUS)
        checked += 1


# --- end signs read before the anchors ---------------------------------------------


def _end_sign_draw(rng, kind):
    """(m, b) of a kind: census, the band around b = 1, integer or half b, or near a family."""
    if kind == "census":
        return rand_masses(rng), rng.uniform(-5.0, 5.0)
    if kind == "band":
        return rand_masses(rng), rng.uniform(0.8, 1.2)
    if kind == "integer":
        return rand_masses(rng), rng.randint(-12, 12) / 2.0
    # next to families ii-v: (x, -x, x) at b = 0, any m at b = 1, (x, 0, x)
    # at b = 2 and (x, x, x) at b = 3, each moved by 0 or a small offset
    x = rng.uniform(0.5, 2.0)
    d = rng.choice([0.0, 1e-15, -1e-9, 1e-4])
    b, m = rng.choice([(0.0, (x, -x + d, x)), (1.0, rand_masses(rng)),
                       (2.0, (x, d, x + d)), (3.0, (x, x + d, x))])
    return m, b + rng.choice([0.0, 1e-15, -1e-12, 1e-7, -1e-3])


def test_end_signs_are_the_signs_of_their_anchors():
    # Where _end_sign reads a sign, the end's anchor certifies it: it does
    # not raise, and its sign is the same. Where _gp_leads_differ holds, the
    # two reads of g' do not give one sign.
    rng = random.Random(32)
    read = collections.Counter()
    for kind in ("census", "band", "integer", "family"):
        for _ in range(120):
            m, b = _end_sign_draw(rng, kind)
            for cell in CELLS:
                mv = cell_mass_view(_rescaled(m), cell)
                if b in (0.0, 1.0) or degenerate_family(mv, b) is not None:
                    continue
                order = _short_order(mv, b)
                signs = {}
                for end in Endpoint:
                    anchor = _end_anchors(mv, b, end, order)
                    for name in ("g'", "g"):
                        sign = signs[end, name] = _end_sign(mv, b, end, name, order)
                        read[kind, sign is not None] += 1
                        if sign is not None:
                            got = _anchor_or_error(lambda: anchor(name))
                            assert got[1] == sign, (mv, b, end, name, got)
                if _gp_leads_differ(mv, b):
                    read["differ"] += 1
                    first, last = signs[Endpoint.ZERO_PLUS, "g'"], signs[Endpoint.INFINITY, "g'"]
                    assert first is None or last is None or first != last, (mv, b)
    # most reads give a sign, and some draws next to the families give none
    for kind in ("census", "band", "integer", "family"):
        assert read[kind, True] > 4 * read[kind, False], (kind, read)
    assert read["family", False] > 0 and read["differ"] > 100


def test_end_sign_leaves_the_anchor_what_the_leading_pair_cannot_settle():
    z = Endpoint.ZERO_PLUS
    m, b = (1.0, 0.5, 0.25), 2.5
    assert _end_sign(m, b, z, "g", _short_order(m, b)) == 1
    # no short order: the series may overflow floats
    assert _end_sign(m, b, z, "g", None) is None
    # the coefficients of s and s^2 vanish, so the second lowest term is a
    # binomial row's
    m, b = (1.0, 1.75, 1.75), 4.5
    assert _low_coefficients(m, b)[2:] == (0.0, 0.0)
    assert _end_sign(m, b, z, "g", _short_order(m, b)) is None
    # at b = 2, s^b and s^2 share the second lowest exponent
    m, b = (1.0, 0.5, 0.25), 2.0
    assert _end_sign(m, b, z, "g", _short_order(m, b)) is None
    # a leading coefficient of 1.4e-300, which the anchor cannot certify
    m = (-1.1581022085242285, 1.4321932578067464e-300, 1.5851076119187376e-302)
    b = -0.0349999613843357
    order = _short_order(m, b)
    assert _end_sign(m, b, z, "g", order) is None
    with pytest.raises(ToleranceError):
        _end_anchors(m, b, z, order)("g")
    # at b = 1.0001 the leading pair of g at 0+, -4e-4 s + 5e-4 s^b, has
    # its root near x = e^-2231, below the probe floor: the anchor carries
    # the sign above that root, not the leading coefficient's
    m, b = (1.0, 0.0005, 0.0), 1.0001
    order = _short_order(m, b)
    assert _low_coefficients(m, b)[2] < 0.0
    assert _end_sign(m, b, z, "g", order) is None
    assert _end_anchors(m, b, z, order)("g")[1] == 1


def test_a_cell_settled_by_its_end_signs_builds_anchors_only_for_its_roots(monkeypatch):
    # At b = -2 with positive masses, g' keeps one sign and g changes sign
    # once: a count alone builds no anchor, and the root is isolated
    # between g's anchors as before.
    ends = []
    real_anchors = euler._end_anchors

    def anchors(mv, b, end, order):
        ends.append(end)
        return real_anchors(mv, b, end, order)

    monkeypatch.setattr(euler, "_end_anchors", anchors)
    m = (1.0, 2.0, 3.0)
    assert count_cell(m, -2.0, 1, roots=False) == (1, [])
    assert ends == []
    n, sols = count_cell(m, -2.0, 1)
    assert ends == [Endpoint.ZERO_PLUS, Endpoint.INFINITY]
    s, view = sols[0].s, cell_mass_view(m, 1)
    assert n == 1
    assert eval_g(view, -2.0, s * (1 - 1e-9)) * eval_g(view, -2.0, s * (1 + 1e-9)) < 0


# --- cells ----------------------------------------------------------------------------


def test_cell_mass_view_permutations():
    m = (1.0, 2.0, 3.0)
    assert cell_mass_view(m, 2) == m
    assert cell_mass_view(m, 1) == (2.0, 1.0, 3.0)
    assert cell_mass_view(m, 3) == (1.0, 3.0, 2.0)
    with pytest.raises(ValueError):
        cell_mass_view(m, 4)



@pytest.mark.parametrize("cell", [0, 4, 2.5, "2", None, True, 2.0])
def test_bad_cell_is_refused(cell):
    with pytest.raises(ValueError, match="cell must be 1, 2 or 3"):
        cell_mass_view((1.0, 2.0, 3.0), cell)
    with pytest.raises(ValueError, match="cell must be 1, 2 or 3"):
        count_cell((1.0, 2.0, 3.0), -2.0, cell)


def test_positions_put_the_view_masses_at_0_1_and_1_plus_s():
    m = (1.0, 2.0, 3.0)
    assert CELLS == (1, 2, 3)
    expected = {1: (1.0, 0.0, 1.25), 2: (0.0, 1.0, 1.25), 3: (0.0, 1.25, 1.0)}
    for cell in CELLS:
        pos = _solution(cell, 0.25, False).positions
        assert pos == expected[cell]
        # the particles at 0, 1 and 1 + s carry the view's left, middle and right masses
        assert tuple(mass for _, mass in sorted(zip(pos, m))) == cell_mass_view(m, cell)


def test_cell_views_match_full_line_scans():
    # the permuted s>0 counting equals direct counting on s<-1 and -1<s<0
    rng = random.Random(19)
    checked = 0
    while checked < 12:
        m = rand_masses(rng, 4.0)
        b = rng.uniform(-3.5, 0.9)
        if degenerate_family(m, b):
            continue
        counts = [count_cell(m, b, cell)[0] for cell in (1, 2, 3)]
        if any(c == INFINITE for c in counts):
            continue
        scans = cell_sign_changes(*m, b)
        assert tuple(counts) == scans, (m, b, counts, scans)
        checked += 1


# --- count_cell / count_all -------------------------------------------------------------


def test_count_cell_symmetric_gravitational():
    n, sols = count_cell((1, 1, 1), -2.0, 2)
    assert n == 1
    assert sols[0].s == pytest.approx(1.0, rel=1e-10)
    assert sols[0].positions == (0.0, 1.0, pytest.approx(2.0, rel=1e-10))
    assert not sols[0].degenerate


def test_count_cell_three_roots():
    n, sols = count_cell((1, -1.2, 1), -2.0, 2)
    assert n == 3
    values = [s.s for s in sols]
    assert values[1] == pytest.approx(1.0, rel=1e-9)
    # paired roots s and 1/s around the symmetric one
    assert values[0] * values[2] == pytest.approx(1.0, rel=1e-8)


def test_count_cell_infinite_family():
    n, sols = count_cell((1, -1, 1), 0.0, 2)
    assert n == INFINITE
    assert sols == []


def test_count_cell_affine_zero_exponent():
    # b = 0, cell views are affine: (1,-1,1) has e1 = e3 = 0
    assert count_cell((1, -1, 1), 0.0, 1)[0] == 0
    assert count_cell((1, -1, 1), 0.0, 3)[0] == 0
    n, sols = count_cell((2.0, 1.0, 1.0), 0.0, 2)
    assert n == 1
    assert sols[0].s == pytest.approx(2.0 / 3.0, rel=1e-12)


def reference_affine_roots(mv, b):
    """Roots of g when the curvature kernel vanishes identically.

    Outside the degenerate families this happens exactly on the b = 0
    plane, the b = 2 plane m1 + m2 = m3, and the b = -1 line m1 = m2 = -m3,
    where g(s) = alpha + beta*s with exactly computable coefficients.
    """
    m1, m2, m3 = mv
    beta = (b - 1.0) * m1 - m2 - m3
    if b == 0.0:
        alpha = m2 + m3
        beta += m3
    elif b == -1.0:
        alpha = m3
    elif b == 2.0:
        alpha = 0.0
    else:
        raise ToleranceError("curvature kernel vanished on an unexpected parameter set")
    if beta == 0.0:
        if alpha == 0.0:
            raise ToleranceError("identically-zero balance outside a known family")
        return []
    s = -alpha / beta
    return [(s, False)] if s > 0.0 else []


def _plane_draw(rng, plane):
    # dyadic masses keep the plane relations exact; plain floats let rounding
    # push some views off the plane, onto the full chain
    if rng.random() < 0.5:
        x, y, z = (rng.randint(-20, 20) * 2.0 ** rng.randint(-8, 8) for _ in range(3))
    else:
        x, y, z = (rng.uniform(-10.0, 10.0) for _ in range(3))
    if plane == 0:
        b, m = 0.0, [x, y, z]
    elif plane == 1:
        b, m = 2.0, [x, y, x + y]
    else:
        b, m = -1.0, [x, x, -x]
    rng.shuffle(m)
    return m, b


def test_affine_branch_matches_the_per_plane_reference():
    # The affine coefficients are read from the exact 0+ series; the
    # reference writes alpha and beta out per plane.
    rng = random.Random(71)
    draws = [_plane_draw(rng, i % 3) for i in range(3300)]
    draws += [((1.0, 5e-324, 1.0), 2.0), ((1.0, -2.0 ** -53, 1.0), 2.0),
              ((0.0, 1.0, -1.0), 0.0), ((-0.0, 2.0, 3.0), -0.0)]
    affine = raised = 0
    for m, b in draws:
        for cell in (1, 2, 3):
            mv = cell_mass_view(m, cell)
            if degenerate_family(mv, b) is not None:
                continue
            if not h_signomial(mv, b).is_zero:
                continue
            try:
                roots = reference_affine_roots(mv, b)
            except ToleranceError as exc:
                expected = f"ToleranceError: {exc}"
                raised += 1
            else:
                sols = [_solution(cell, s, deg) for s, deg in roots]
                expected = repr((len(sols), sols))
            try:
                got = repr(count_cell(m, b, cell))
            except ToleranceError as exc:
                got = f"ToleranceError: {exc}"
            assert got == expected, (m, b, cell)
            affine += 1
    assert affine >= 3000 and raised >= 1


def test_count_all_examples():
    counts, _ = count_all((1, 1, 1), -2.0)
    assert (counts.e1, counts.e2, counts.e3, counts.total) == (1, 1, 1, 3)
    # the repr is part of the output digest
    assert repr(count_all((1, 1, 1), -2.0)) == (
        "(CellCount(e1=1, e2=1, e3=1, total=3), ["
        "ConfigurationSolution(cell=1, s=1.0, positions=(1.0, 0.0, 2.0), degenerate=False), "
        "ConfigurationSolution(cell=2, s=1.0, positions=(0.0, 1.0, 2.0), degenerate=False), "
        "ConfigurationSolution(cell=3, s=1.0, positions=(0.0, 2.0, 1.0), degenerate=False)])")
    # records are immutable
    with pytest.raises(AttributeError):
        counts.total = 4
    counts, sols = count_all((0, -1, 1), -2.0)
    assert counts.total == 0 and sols == []
    counts, _ = count_all((1, -0.9, 1), 0.5)
    assert (counts.e1, counts.e2, counts.e3, counts.total) == (1, 3, 1, 5)


def test_count_all_matches_golden_results():
    # 300 seeded draws (150 with b in [-5, 5], 100 in the band b in [0.8, 1.2],
    # 50 with integer masses and integer or half-integer b), recorded before
    # the derivative-chain stages were folded into one engine.
    golden = json.loads((Path(__file__).parent / "data" / "count_all_golden.json").read_text())
    tol = golden["tol"]
    for case in golden["cases"]:
        counts, sols = count_all(case["masses"], case["b"], tol)
        got = ["inf" if v == INFINITE else v for v in (counts.e1, counts.e2, counts.e3)]
        assert got == case["counts"], case
        assert [(sol.cell, sol.degenerate) for sol in sols] == \
            [(cell, deg) for cell, _, deg in case["solutions"]], case
        for sol, (_, s, _) in zip(sols, case["solutions"]):
            assert abs(sol.s - s) <= 4.0 * tol * s, case


def _counts_or_error(m, b, **kw):
    try:
        return count_all(m, b, **kw)
    except ToleranceError as exc:
        return repr(exc), []


_FIGURE_GRID = [((1.0, -4.0 + 6.0 * i / 59, 1.0), -4.0 + 8.0 * j / 59)
                for j in range(60) for i in range(60)]


def test_count_only_matches_full_counts():
    # roots=False leaves the roots of g unrefined; the counts must be the
    # full run's on the golden draws and a 60 x 60 figure grid at masses
    # (1, m2, 1). test_count_invariants[count_only] checks the random draws.
    golden = json.loads((Path(__file__).parent / "data" / "count_all_golden.json").read_text())
    cases = [(case["masses"], case["b"]) for case in golden["cases"]]
    cases += _FIGURE_GRID
    for m, b in cases:
        want, _ = _counts_or_error(m, b)
        got, sols = _counts_or_error(m, b, roots=False)
        assert got == want and sols == [], (m, b)


def _symmetric_draws(seed, n):
    # (a, m2, a): n draws with b in [-5, 5] and n in the band b in [0.8, 1.2]
    rng = random.Random(seed)
    draws = []
    for b_range in ((-5.0, 5.0), (0.8, 1.2)):
        for _ in range(n):
            a, m2 = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            draws.append(((a, m2, a), rng.uniform(*b_range)))
    return draws


def test_cell_3_is_cell_1_reflected_when_m1_equals_m3(monkeypatch):
    # With m1 == m3, cell 3's view is cell 1's reversed: the same count, and
    # the roots at 1/s in reverse order with the same flags, bit for bit,
    # from count_all and from count_cell, which solves cell 1's view without
    # re-entering the public count_cell.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return count_cell(*args, **kwargs)

    monkeypatch.setattr(euler, "count_cell", counted)
    cases = _symmetric_draws(91, 300) + _FIGURE_GRID
    # degenerate families, and roots near the probe floor 1e-280 and beyond 1e276
    cases += [((2.0, -3.0, 2.0), 1.0), ((2.0, 2.0, 2.0), 3.0), ((0.0, 0.0, 0.0), -2.0),
              ((1.0, 1500.0, 1.0), 0.9995), ((1.0, 1700.0, 1.0), 0.999)]
    for m, b in cases:
        for roots in (True, False):
            del calls[:]
            counts, sols = count_all(m, b, roots=roots)
            assert calls == [1, 2], (m, b)
            cell1 = [sol for sol in sols if sol.cell == 1]
            cell3 = [sol for sol in sols if sol.cell == 3]
            assert counts.e3 == counts.e1, (m, b)
            assert len(cell3) == len(cell1) == (counts.e1 if roots and counts.is_finite else 0)
            for sol, mirror in zip(cell3, reversed(cell1)):
                assert sol.s == 1.0 / mirror.s and math.isfinite(sol.s), (m, b)
                assert sol.degenerate == mirror.degenerate, (m, b)
                assert sol == _solution(3, sol.s, sol.degenerate)
            assert count_cell(m, b, 3, roots=roots) == (counts.e3, cell3), (m, b)
            assert calls == [1, 2], (m, b)
    assert count_all((2.0, -3.0, 2.0), 1.0)[0] == CellCount.of(INFINITE, INFINITE, INFINITE)
    # cell 1 of (a, m2, a) has at most one root, as (1, m2/a, 1) shows, so
    # the order is checked on two solutions made up here
    assert _cell3_from_cell1(2, [_solution(1, 0.5, False), _solution(1, 4.0, True)]) == \
        (2, [_solution(3, 0.25, True), _solution(3, 2.0, False)])
    assert count_all((1.0, 1500.0, 1.0), 0.9995)[1][0].s < 1e-276
    # masses with m1 != m3 still count cell 3 through count_cell
    del calls[:]
    count_all((2.0, -3.0, 2.5), -2.0)
    assert calls == [1, 2, 3]


# --- symmetric views: solved on (0, 1) and folded at s = 1 ----------------------------


def _symmetric_views(seed, n):
    # ((m1, m2, m3), b, cell) with the cell's left and right masses equal:
    # cell 2 of (a, m2, a), cell 1 of (m1, a, a) and cell 3 of (a, a, m3)
    views = [(m, b, 2) for m, b in _symmetric_draws(seed, n) + _FIGURE_GRID]
    for (a, x, _), b in _symmetric_draws(seed + 1, n):
        views += [((x, a, a), b, 1), ((a, a, x), b, 3)]
    return views


def test_symmetric_views_pair_their_roots_around_one():
    # g(1/u) = -u^(-b-1) g(u): s = 1 is a root, the middle one, and the others
    # are each other's reciprocals bit for bit
    for m, b, cell in _symmetric_views(93, 300):
        n, sols = count_cell(m, b, cell)
        if n == INFINITE or h_signomial(cell_mass_view(m, cell), b).is_zero:
            continue
        assert n % 2 == 1 and len(sols) == n, (m, b, cell)
        assert sols[n // 2].s == 1.0, (m, b, cell)
        for k, sol in enumerate(sols):
            assert sol.s == 1.0 / sols[n - 1 - k].s, (m, b, cell)
            if k != n // 2:
                assert sol.degenerate == sols[n - 1 - k].degenerate, (m, b, cell)
        assert count_cell(m, b, cell, roots=False) == (n, []), (m, b, cell)


def test_fold_and_the_cell_3_reflection_agree_when_all_masses_are_equal():
    # with m1 == m2 == m3, count_cell takes cell 3 from cell 1 reflected, and
    # the fold solves the same symmetric view directly
    rng = random.Random(94)
    for i in range(400):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(-5.0, 5.0) if i % 2 else rng.uniform(0.8, 1.2)
        m = (a, a, a)
        for roots in (True, False):
            direct = _solve_view(cell_mass_view(_rescaled(m), 3), b, 3, DEFAULT_REL_TOL, roots)
            assert repr(count_cell(m, b, 3, roots=roots)) == repr(direct), (m, b)


def test_nearly_symmetric_views_count_as_the_fold():
    # moving one outer mass by an ulp runs the whole line to +infinity, with
    # its series anchors there; away from the frontiers the count is the same
    for m, b in _symmetric_draws(95, 300):
        a, m2, _ = m
        near = (a, m2, math.nextafter(a, math.inf))
        assert count_cell(near, b, 2, roots=False)[0] == count_cell(m, b, 2, roots=False)[0], \
            (m, b)


def test_symmetric_views_stop_every_stage_at_one(monkeypatch):
    # H on y in (0, 1/2), which is s in (0, 1), and no series at +infinity
    ends = []
    real_anchors, real_levels = euler._end_anchors, euler._levels

    def anchors(mv, b, end, order):
        ends.append(end)
        return real_anchors(mv, b, end, order)

    def levels(p, lo, hi):
        ends.append(hi)
        return real_levels(p, lo, hi)

    monkeypatch.setattr(euler, "_end_anchors", anchors)
    monkeypatch.setattr(euler, "_levels", levels)
    assert count_cell((1.0, -0.9, 1.0), 0.5, 2)[0] == 3
    assert ends == [0.5, Endpoint.ZERO_PLUS]
    del ends[:]
    # a view whose H has a root in (0, 1) runs the h stage on (0, 1)
    count_cell((1.0, 0.9, -1.5), 0.5, 2)
    assert ends == [1.0, Endpoint.ZERO_PLUS, Endpoint.INFINITY]
    # one that the pre-count shows rootless runs no h stage, symmetric or not;
    # where g' has different end signs, its stage runs on the anchors
    for m, b, want in (((1.0, -0.9, 1.5), 0.5, [Endpoint.ZERO_PLUS, Endpoint.INFINITY]),
                       # the end signs of g' agree, and so do those of g: no anchor
                       ((1.0, -0.9, 1.0), -2.0, [])):
        del ends[:]
        count_cell(m, b, 2)
        assert ends == want


@pytest.mark.parametrize("b", [-2.0, -1.0, 0.5, 2.5])
def test_frontier_root_at_one_is_one_flagged_root(b):
    # on the curve m2 = frontier_curve_m2(b), s = 1 is a triple root: g'(1)
    # reads zero, and so does H at y = 1/2, the right end of the h stage
    m = (1.0, frontier_curve_m2(b), 1.0)
    assert count_cell(m, b, 2) == (1, [_solution(2, 1.0, True)])
    assert count_cell(m, b, 2, roots=False) == (1, [])


def test_symmetric_view_reads_g_prime_at_one_once(monkeypatch):
    # g'(1) is read at DEGENERACY_REL for the flag of s = 1, and that sign,
    # when it is not 0, is the right anchor's; only a 0 is read again, at
    # BOUNDARY_ZERO_REL. (The g' stage may read s = 1 again as a bracket
    # end, at BOUNDARY_ZERO_REL.)
    real = euler._stage_sign
    reads = []

    def stage_sign(on_s, on_u):
        sign = real(on_s, on_u)
        if on_s[2] != (0.0, 0.0):  # g's pairs: the third pair of g' on s is (0, 0)
            return sign

        def recorded(s, zero_rel):
            found = sign(s, zero_rel)
            if s == 1.0:
                reads.append((zero_rel, found[0]))
            return found

        recorded.terms = sign.terms
        return recorded

    monkeypatch.setattr(euler, "_stage_sign", stage_sign)
    flat = 0
    for m, b in _FIGURE_GRID[::37] + [((1.0, frontier_curve_m2(b), 1.0), b)
                                      for b in (-2.0, -1.0, 0.5, 2.5)]:
        del reads[:]
        count_cell(m, b, 2, roots=False)
        zero_rels = [z for z, _ in reads]
        assert zero_rels.count(DEGENERACY_REL) == 1 and zero_rels[0] == DEGENERACY_REL, (m, b)
        if reads[0][1] == 0:
            assert zero_rels[1] == BOUNDARY_ZERO_REL, (m, b)
            flat += 1
    # the four frontier points
    assert flat >= 4


def test_noise_level_middle_mass_next_to_family_iv_has_its_one_root_at_one():
    # g = -2^-53 s (s - 1) at b = 2, inside the rounding noise everywhere: no
    # root of the half may be mirrored, so the count is at most 1
    assert count_cell((1.0, -2.0 ** -53, 1.0), 2.0, 2) == (1, [_solution(2, 1.0, True)])
    assert count_all((1.0, -2.0 ** -53, 1.0), 2.0, roots=False)[0] == (0, 1, 0, 1)


def _zero_read(s):
    return RootRecord(lo=s * (1.0 - 1e-12), hi=s * (1.0 + 1e-12), value=s, degenerate=True)


_CHAIN = [Bracket(1e-4, 1e-2, 1), Bracket(0.1, 0.5, -1)]


def test_fold_mirrors_a_zero_read_that_hides_a_sign_change():
    # g is positive at 0+ and negative just left of 1, and no bracket changes
    # its sign: the zero read at 1e-3 is a root, and 1e3 its mirror
    half = [_zero_read(1e-3)]
    assert _fold(half, half, _CHAIN, (1, -1), False) == \
        [(1.0 / (1.0 / 1e-3), True), (1.0, False), (1.0 / 1e-3, True)]
    # the brackets' sign changes are read off first
    half = [Bracket(1e-5, 1e-4, 1), _zero_read(1e-3)]
    assert len(_fold(half, half, _CHAIN, (1, 1), False)) == 5
    # the rule reads half, and the mirror the refined records
    roots = [RootRecord(lo=1e-5, hi=1e-4, value=5e-5, degenerate=False), half[1]]
    assert _fold(half, roots, _CHAIN, (1, 1), False) == \
        [(1.0 / (1.0 / 5e-5), False), (1.0 / (1.0 / 1e-3), True), (1.0, False),
         (1.0 / 1e-3, True), (1.0 / 5e-5, False)]


def test_fold_takes_a_zero_read_at_the_last_root_of_g_prime_as_s_one():
    # g keeps its sign around the zero read, which lies in the last bracket of
    # g': g is monotone from there to s = 1, where it vanishes
    for signs in ((1, 1), (-1, 0), (1, 0)):
        half = [_zero_read(0.3)]
        assert _fold(half, half, _CHAIN, signs, False) == [(1.0, True)], signs
    # g'(1) reading zero at the degeneracy threshold flags s = 1 on its own
    assert _fold([], [], [], (1, 0), True) == [(1.0, True)]


@pytest.mark.parametrize("half, signs", [
    ([_zero_read(1e-3)], (1, 1)),            # before the last root of g'
    ([_zero_read(1e-3)], (1, 0)),            # no certified sign just left of 1
    ([_zero_read(1e-3), _zero_read(0.3)], (1, -1)),  # two zero reads
    ([_zero_read(0.3), Bracket(0.4, 0.6, -1)], (-1, 1)),  # a sign change after it
])
def test_fold_refuses_a_zero_read_with_no_certified_sign_change(half, signs):
    with pytest.raises(ToleranceError, match="no certified sign change to mirror"):
        _fold(half, half, _CHAIN, signs, False)


def test_cell_3_counted_independently_matches_the_reflection():
    # count_all derives cell 3 of masses (a, m2, a) from cell 1; the view
    # (a, a, m2) of cell 2 is cell 3's own view, solved directly.
    for m, b in _FIGURE_GRID + _symmetric_draws(92, 1500):
        a, m2, _ = m
        assert count_cell((a, a, m2), b, 2, roots=False)[0] == \
            count_all(m, b, roots=False)[0].e3, (m, b)


def test_counts_are_invariant_under_scaling_by_powers_of_two():
    # subnormal masses that a power of two carries exactly: the same
    # counts, flags and roots. test_count_invariants[scaling] checks
    # +/-2^k on the random draws.
    pairs = [((0.5, 5e-324, 0.5), (1.0, 1e-323, 1.0)),
             ((2.0 ** -1070, -3.0, 2.0 ** -1072), (2.0 ** -1069, -6.0, 2.0 ** -1071))]
    for b in (-2.0, -0.5, 0.5, 2.5):
        for m, doubled in pairs:
            assert repr(_counts_or_error(m, b)) == repr(_counts_or_error(doubled, b)), (m, b)


# --- count invariants ----------------------------------------------------------------------


@functools.cache
def _invariant_draws():
    # 1,000 census draws (b in [-5, 5]) then 1,000 band draws (b in
    # [0.8, 1.2]), masses in [-10, 10]^3, each with its baseline count,
    # computed once for every invariant
    rng = random.Random(95)
    draws = []
    for b_range in ((-5.0, 5.0), (0.8, 1.2)):
        for _ in range(1000):
            m, b = rand_masses(rng), rng.uniform(*b_range)
            draws.append((m, b, _counts_or_error(m, b)))
    return draws


def _mirror_invariant(draws):
    # the reflection m1 <-> m3 swaps e1 and e3, with and without roots
    for m, b, (want, _) in draws:
        for roots in (True, False):
            e3, e2, e1, _ = count_all(m[::-1], b, roots=roots)[0]
            assert CellCount.of(e1, e2, e3) == want, (m, b, roots)


def _count_only_invariant(draws):
    # roots=False gives the same counts, or the same error, and no roots
    for m, b, (want, _) in draws:
        got, sols = _counts_or_error(m, b, roots=False)
        assert got == want and sols == [], (m, b)


def _scaling_invariant(draws):
    # g is linear in the masses, and scaling by +/-2^k is exact in floats;
    # count_cell divides every triple into the same normal form, so the
    # counts, flags and roots agree bit for bit
    factors = [sign * 2.0 ** k for k in (-700, -1, 1, 700) for sign in (1.0, -1.0)]
    factors += [-1.0, 2.0 ** 1020]
    for m, b, want in draws[:200] + draws[1000:1200]:
        for factor in factors:
            scaled = tuple(factor * x for x in m)
            assert repr(_counts_or_error(scaled, b)) == repr(want), (m, b, factor)


def _fold_invariant(draws):
    # cell 2 of (m1, m2, m1) is a symmetric view, folded at s = 1
    for m, b, _ in draws:
        sols = count_cell((m[0], m[1], m[0]), b, 2)[1]
        assert 1.0 in [sol.s for sol in sols], (m, b)


def _zero_sum_invariant(draws):
    # the twin (m1, m2, -(m1 + m2)) sums to exactly 0 in floats, so
    # m1*x1 + m2*x2 + m3*x3 vanishes at each of its solutions, up to rounding
    for (m1, m2, _), b, _ in draws:
        twin = (m1, m2, -(m1 + m2))
        for sol in count_all(twin, b)[1]:
            scale = math.fsum(abs(mass * x) for mass, x in zip(twin, sol.positions))
            assert abs(celli_identity_residual(twin, sol)) <= 1e-9 * scale, (twin, b, sol)


def _odd_count(view, b):
    """Whether a view's count is odd, from its masses alone; None where a sign is 0.

    The end signs of g are those of mid + r and mid + l for b < 1, and of
    b*l - M and b*r - M for b > 1, with M = l + mid + r; the count is odd
    exactly when they agree.
    """
    left, mid, right = view
    total = left + mid + right
    ends = (mid + right, mid + left) if b < 1.0 else (b * left - total, b * right - total)
    if 0.0 in ends:
        return None
    return (ends[0] > 0.0) == (ends[1] > 0.0)


def _parity_invariant(draws):
    # each cell's count has the parity of its end signs, and the total is odd
    for (m1, m2, m3), b, (counts, _) in draws:
        if isinstance(counts, str):
            continue
        # (left, middle, right) of cells 1, 2 and 3, written out, not read from cell_mass_view
        views = ((m2, m1, m3), (m1, m2, m3), (m1, m3, m2))
        odd = [_odd_count(view, b) for view in views]
        for cell, n, want in zip(CELLS, counts[:3], odd):
            if want is not None and n != INFINITE:
                assert (n % 2 == 1) == want, ((m1, m2, m3), b, cell)
        if None not in odd and counts.total != INFINITE:
            assert counts.total % 2 == 1, ((m1, m2, m3), b)


@pytest.mark.parametrize("check", [
    _mirror_invariant, _count_only_invariant, _scaling_invariant,
    _fold_invariant, _zero_sum_invariant, _parity_invariant,
], ids=lambda check: check.__name__[1:-len("_invariant")])
def test_count_invariants(check):
    check(_invariant_draws())


def test_masses_near_the_float_limit_are_rescaled():
    assert count_all((1e308, 1e308, 1e308), -2.0)[0] == CellCount.of(1, 1, 1)
    # a power of two times (-3, 5, 7): the same solutions, bit for bit
    for b in (-2.0, 0.5, 1.5):
        big = tuple(math.ldexp(x, 1000) for x in (-3.0, 5.0, 7.0))
        assert count_all(big, b) == count_all((-3.0, 5.0, 7.0), b)


def test_masses_that_rescaling_would_make_subnormal_are_refused():
    # refused where the division would round a nonzero mass, or flush it to zero
    for m in ((1e308, 1e-300, 1e308), (3.0, 3e-308, 5.0), (3.0, 5e-324, 3.0)):
        with pytest.raises(ValueError, match=re.escape(f"masses {m} span too wide a range")):
            count_cell(m, -2.0)
    # a zero mass stays exact
    assert count_cell((1e308, 0.0, 1e308), -2.0)[0] == count_cell((1.0, 0.0, 1.0), -2.0)[0]
    # a largest |mass| in [1, 2) is not scaled, and a subnormal mass is not refused
    assert count_all((1.0, 5e-324, 1.0), -2.0)[0] == CellCount.of(1, 1, 1)


def test_any_three_reals_are_the_same_masses():
    # every entry point converts its masses once, to a float triple
    for b in (-2.0, -1.0, 0.5):
        want = repr(count_all((5.0, -2.0, 3.0), b))
        assert repr(count_all([5.0, -2.0, 3.0], b)) == want
        assert repr(count_all((5, -2, 3), b)) == want
    with pytest.raises(ValueError):
        count_all((5.0, -2.0), -2.0)


@pytest.mark.parametrize("m, b", [
    ((math.nan, 1.0, 1.0), -2.0),
    ((1.0, math.inf, 1.0), -2.0),
    ((1.0, 1.0, -math.inf), -2.0),
    ((1.0, 1.0, 1.0), math.nan),
    ((1.0, 1.0, 1.0), math.inf),
    ((1.0, 1.0, 1.0), -math.inf),
])
def test_non_finite_input_is_rejected(m, b):
    name = "b" if math.isfinite(sum(m)) else "masses"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        count_cell(m, b, 2)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        count_all(m, b)


def test_count_all_infinite_total_when_any_cell_infinite():
    counts, _ = count_all((1, -1, 1), 0.0)
    assert counts.e2 == INFINITE
    assert counts.e1 == 0 and counts.e3 == 0
    assert counts.total == INFINITE


def test_middle_cell_bound_and_sign_laws():
    rng = random.Random(20)
    for _ in range(300):
        m = rand_masses(rng)
        b = rng.uniform(-5, 5)
        if degenerate_family(m, b):
            continue
        n, sols = count_cell(m, b, 2)
        assert n <= 3
        if n == 3:
            assert not any(s.degenerate for s in sols)
        if n >= 2 and b < 1.0:
            m1, m2, m3 = m
            assert m1 * m3 > 0.0
            assert m2 * m1 < 0.0
            if b < 0.0:
                assert min(abs(m1), abs(m3)) < abs(m2)


# --- zero-sum identity ---------------------------------------------------------------------


def test_residual_identity_for_zero_sum_masses():
    m = (1.0, 2.0, -3.0)
    counts, sols = count_all(m, -2.0)
    assert counts.total == 1
    assert abs(celli_identity_residual(m, sols[0])) < 1e-9
    m = (2.0, -1.0, -1.0)
    counts, sols = count_all(m, -1.0)
    assert counts.total == 1
    assert abs(celli_identity_residual(m, sols[0])) < 1e-9


def test_residual_requires_zero_sum():
    _, sols = count_all((1, 1, 1), -2.0)
    with pytest.raises(ValueError):
        celli_identity_residual((1, 1, 1), sols[0])


def test_zero_sum_with_zero_mass_has_no_configurations():
    for b in (-2.0, -1.0):
        counts, sols = count_all((1.0, -1.0, 0.0), b)
        assert counts.total == 0 and sols == []


def test_h_basis_functions_positive_below_one():
    # h = m1*alpha + m2*beta + m3*gamma; the basis values come from unit masses
    rng = random.Random(23)
    for _ in range(200):
        b = rng.uniform(-6.0, 0.999)
        y = rng.uniform(1e-3, 1.0 - 1e-3)
        alpha = h_value((1, 0, 0), b, y)
        beta = h_value((0, 1, 0), b, y)
        gamma = h_value((0, 0, 1), b, y)
        assert alpha > 0.0
        assert beta > 0.0
        assert gamma > 0.0
        assert alpha < beta


# Benchmark draws (census and band_b1, seeds 1-3, in the order
# scripts/output_digest.py draws them) whose count went up by one root in
# one cell once breakpoints were read from their bracket ends: each count
# is the one a 400-digit sign scan of g at 3,000 log-spaced points of
# [1e-300, 1e300] gives, and the mirror (m3, m2, m1) gives it reversed.
SCANNED_COUNTS = [
    # census, seed 1
    ((-8.011956503270186, 7.914010009936547, -8.992333802006158), 0.9227489095455264, (1, 3, 1)),
    # census, seed 3
    ((-9.806847039341548, 8.808364824887104, -8.162939553027226), 1.113103779507325, (1, 2, 0)),
    # band_b1, seed 1
    ((9.724074820802148, -9.673099936329823, 3.7001044527349976), 0.9695431985395611, (1, 2, 0)),
    ((-6.106806662056132, -2.4554516491878564, 6.1000866300306384), 0.8733325389823859, (1, 0, 2)),
    ((2.5916913597810236, -2.7484272866114345, -2.423390573979458), 1.037434923107825, (2, 1, 0)),
    ((-9.293512576488919, 9.27751948642998, -5.557591351907165), 0.9051241473629007, (1, 2, 0)),
    ((-9.015873374752223, 9.401005222121093, 7.7264920748240336), 1.0067179105455402, (2, 1, 0)),
    ((-3.1867689481681687, -3.4011920428346727, 3.1795635838690277), 0.9977963272311812, (1, 1, 3)),
    ((-5.113771707496797, 5.045193519471553, -6.2674923086689915), 0.9941097724509556, (1, 3, 1)),
    ((9.704629303970151, 9.32466863485844, -8.95908323189147), 1.0645418341050212, (1, 0, 2)),
    ((9.814340195835612, -9.905670744351678, -8.981585654155149), 0.9486443507996234, (2, 1, 0)),
    ((4.536013846849848, 2.5445271389772586, -4.4549636041689356), 1.0309162244360388, (1, 0, 2)),
    ((-8.408944751953847, 8.653697164648403, 2.4112534389196334), 1.0909704559360027, (2, 1, 0)),
    ((8.92610161965695, -8.697303295464199, 8.699742026696164), 0.9579052628210931, (1, 3, 1)),
    ((9.096229316035188, -9.162937644074255, -5.168586002751383), 1.005542372227256, (2, 1, 0)),
    ((-3.6436058831482825, -3.9761310947521578, 3.549076209407506), 0.9708181527190757, (1, 1, 3)),
    # band_b1, seed 2
    ((9.287338353231899, 4.344685854249615, -9.058036909076915), 1.0397450182343428, (1, 0, 2)),
    ((5.401653450233926, -6.457443252148664, -5.908407116421619), 1.173937705375319, (2, 1, 0)),
    ((-8.245682898009818, 8.229124760028256, -8.129182631077336), 0.8500997154074164, (1, 2, 0)),
    ((-2.7378550288570924, 2.670164199469715, -1.4532545580657992), 1.009010482521023, (1, 2, 0)),
    ((-4.740661920883471, 4.767640417968613, 1.2709721328483532), 0.9864064531830328, (2, 1, 0)),
    ((-9.755415668812379, 9.635153135523879, -7.7034747289852445), 0.9832962833744353, (1, 2, 0)),
    ((4.441528925517467, 2.1895451462793396, -4.417833014745167), 0.9833991132351341, (1, 0, 2)),
    ((8.660345646603197, 9.551381484470514, -8.489576032421496), 1.0015000557727345, (1, 1, 3)),
    ((7.594900686926, 1.8772295775540382, -7.5538647857271375), 0.977494555956947, (1, 0, 2)),
    ((-6.229750461783943, 7.289356784072805, 8.096371616489556), 1.1303873969843665, (3, 1, 1)),
    ((6.248015328834722, 4.436515890202099, -5.928624250577698), 1.0482634215848095, (1, 0, 2)),
    ((9.82349173560143, -9.643283128403583, 9.037507379202466), 0.9689088397065606, (1, 2, 0)),
    ((-4.170486471210351, 4.4590973988207505, 3.97850808964548), 1.0696942094067663, (2, 1, 0)),
    ((-9.077974482933291, 8.933207376762258, -3.1499210897516665), 1.0065031015467822, (1, 2, 0)),
    ((8.95922505087427, 7.136339756243711, -8.735435507270227), 0.9889971487227507, (1, 0, 2)),
    ((9.271859213750297, 9.918656402658566, -7.597098002248918), 1.1674114434037326, (1, 1, 3)),
    ((-8.730745953436895, -9.891326428516807, 7.791921925424891), 1.0843482245304534, (1, 1, 3)),
    # band_b1, seed 3
    ((5.629144321957913, -5.732130339706445, -6.318137500004339), 0.959486087203343, (3, 1, 1)),
    ((5.701121448964265, -5.643209346782951, 2.9514188677057422), 0.9643574251446736, (1, 2, 0)),
    ((-6.19743484245496, 6.481223844185845, 5.326493455200751), 1.0527958738817542, (2, 1, 0)),
    ((6.823730840441154, -6.34454940843598, 4.073771892773536), 1.1161056257320552, (1, 2, 0)),
    ((7.025984061189742, -7.107405524152783, -6.7839818071214575), 0.9439898808510877, (2, 1, 0)),
    ((-2.6514369008834215, 2.674808793844388, 1.5936093042970612), 0.9892257185999499, (2, 1, 0)),
    ((3.688771263724826, -3.4719641809388158, 2.5973800167310053), 1.062859164471914, (1, 2, 0)),
    ((-8.471853851118023, 8.268412154336414, -8.110376372668014), 1.0072006107308122, (1, 2, 0)),
    ((7.4293640864518125, -7.4478320020262405, -8.841840540256953), 0.8432049371570401, (3, 1, 1)),
    ((9.588954493243996, 5.9072947190912615, -9.435544151777364), 0.9859836157019407, (1, 0, 2)),
    ((-6.457748733692393, 6.093157347889459, -5.070049598465105), 1.046659474874403, (1, 2, 0)),
    ((-9.678565526939362, -7.003591785378687, 9.581372156571682), 1.0038213783719907, (1, 0, 2)),
    ((8.443769059315876, -8.279041113995444, 4.571578872887297), 1.0090566058865869, (1, 2, 0)),
    ((-8.426124434225473, 9.13883876421189, 5.962142254159836), 1.1109394763199387, (2, 1, 0)),
    ((-7.6261132412297545, -6.129031561906144, 7.490959467060584), 0.9896061675410033, (1, 0, 2)),
    ((-8.18082019414991, -4.861704940007472, 8.008703893224638), 1.025083503715233, (1, 0, 2)),
]


@pytest.mark.parametrize("m, b, counts", SCANNED_COUNTS)
def test_counts_match_a_400_digit_scan(m, b, counts):
    assert count_all(m, b)[0][:3] == counts
    assert count_all(m[::-1], b)[0][:3] == counts[::-1]
