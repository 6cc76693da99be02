import math
import random
from dataclasses import dataclass
from operator import itemgetter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from eulercc.signomial import (
    IDENTICALLY_ZERO,
    Signomial,
    _shift_differentiate,
    count_and_isolate,
    derivative_chain,
    evaluate,
    merge_sorted,
    normalize,
    sign_variations,
)

from eulercc.numerics import (
    BOUNDARY_ZERO_REL,
    DEFAULT_REL_TOL,
    Bracket,
    ToleranceError,
    bisect_sign_change,
    certified_sign_near_zero,
    isolate_between,
    refine_bracket,
    sum_sign,
    sum_value,
)
from oracles import signomial_sign_changes


def pairs(p: Signomial):
    return list(p.pairs)


def shifted(p: Signomial, pivot: float = 0.0) -> Signomial:
    """The derivative of x**(-pivot) * p(x) by the chain's kernel; pivot 0 differentiates p."""
    return Signomial(_shift_differentiate(p.pairs, pivot))


# --- normalize ------------------------------------------------------------------


def test_normalize_merges_equal_exponents():
    assert pairs(normalize([(1, 2), (3, 2)])) == [(4.0, 2.0)]
    # len is the term count, not the number of record fields
    assert len(normalize([(1, 2), (3, 2)])) == 1
    assert len(normalize([(1, 0.5), (-3, 1), (1, 2)])) == 3
    assert len(normalize([])) == 0
    with pytest.raises(AttributeError):
        normalize([(1, 2)]).pairs = ()


def test_normalize_cancellation_gives_zero():
    p = normalize([(1, 1), (-1, 1)])
    assert p.is_zero


def test_normalize_drops_zero_coefficients_and_sorts():
    p = normalize([(0.0, 2), (2, 1), (-2, 1), (0.0, 0)])
    assert p.is_zero
    p = normalize([(3, 5), (1, -1)])
    assert pairs(p) == [(1.0, -1.0), (3.0, 5.0)]


@given(st.lists(st.tuples(st.floats(-10, 10), st.integers(-4, 4)), max_size=8))
def test_normalize_idempotent(raw):
    p = normalize(raw)
    assert normalize(p.pairs).pairs == p.pairs
    exps = [e for _, e in p.pairs]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert all(c != 0.0 for c, _ in p.pairs)


def _dict_normalize_pairs(raw_terms):
    # The dict-based merge that normalize used before merge_sorted, kept as
    # the reference: equal exponents summed in input order, zeros dropped.
    merged = {}
    for c, e in raw_terms:
        c, e = float(c), float(e)
        if c != 0.0:
            merged[e] = merged.get(e, 0.0) + c
    return tuple((c, e) for e, c in sorted(merged.items()) if c != 0.0)


def test_normalize_matches_the_dict_merge():
    # Few distinct exponents (with 0.0 and -0.0) and coefficients that
    # cancel exactly, so collisions, zero sums and signed zeros all occur.
    rng = random.Random(5)
    for _ in range(3000):
        exps = [rng.choice([0.0, -0.0, 1.0, 0.5, rng.uniform(-3, 3)]) for _ in range(3)]
        raw = [(rng.choice([0.0, 1.0, -1.0, 0.1, 0.2, -0.3, rng.uniform(-5, 5)]), rng.choice(exps))
               for _ in range(rng.randint(0, 8))]
        assert repr(normalize(raw).pairs) == repr(_dict_normalize_pairs(raw))


# --- evaluate -------------------------------------------------------------------


def test_evaluate_simple():
    p = normalize([(1, 0.5), (-3, 1), (1, 2)])
    assert evaluate(p, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_evaluate_empty_is_zero():
    assert evaluate(normalize([]), 3.7) == 0.0


def test_evaluate_at_one_sums_coefficients():
    assert evaluate(normalize([(1, math.pi)]), 1.0) == 1.0


def test_evaluate_rejects_nonpositive():
    p = normalize([(1, 1)])
    with pytest.raises(ValueError):
        evaluate(p, 0.0)
    with pytest.raises(ValueError):
        evaluate(p, -2.0)
    with pytest.raises(ValueError):
        evaluate(p, math.nan)
    with pytest.raises(ValueError):
        evaluate(p, math.inf)


# --- derivative -----------------------------------------------------------------


def test_derivative_power_rule():
    assert pairs(shifted(normalize([(4, 2)]))) == [(8.0, 1.0)]
    assert shifted(normalize([(5, 0)])).is_zero
    assert pairs(shifted(normalize([(1, 0.5), (-3, 1)]))) == [(0.5, -0.5), (-3.0, 0.0)]


def test_derivative_matches_finite_differences():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 6)
        p = normalize([(rng.uniform(-10, 10), rng.uniform(-5, 5)) for _ in range(n)])
        if p.is_zero:
            continue
        dp = shifted(p)
        for _ in range(5):
            x = rng.uniform(0.2, 5.0)
            h = 1e-6 * x
            fd = (evaluate(p, x + h) - evaluate(p, x - h)) / (2 * h)
            want = evaluate(dp, x)
            scale = sum(abs(c) * x ** e for c, e in dp.pairs) + abs(fd)
            assert abs(fd - want) <= 1e-6 * max(scale, 1e-12)


# --- shift by a pivot exponent, then differentiate -------------------------------


def test_shift_one_step():
    assert pairs(shifted(normalize([(1, 0), (-2, 1)]), 0.0)) == [(-2.0, 0.0)]


def test_shift_single_term_annihilated():
    assert shifted(normalize([(2, 3)]), 3.0).is_zero


def test_shift_drops_exactly_one_term_any_pivot():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        p = normalize([(rng.uniform(-10, 10), rng.uniform(-5, 5)) for _ in range(n)])
        if p.is_zero:
            continue
        pivot = rng.choice([e for _, e in p.pairs])
        q = shifted(p, pivot)
        assert len(q) == len(p) - 1


def test_chain_decrements_variations_by_exactly_one():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 6)
        p = normalize([(rng.uniform(-10, 10), rng.uniform(-5, 5)) for _ in range(n)])
        if p.is_zero:
            continue
        sv, terms = sign_variations(p), len(p)
        for _, q in derivative_chain(p):
            assert sign_variations(q) == sv - 1
            assert len(q) == terms - 1
            sv, terms = sign_variations(q), len(q)
        assert sv == 0


def test_extreme_pivots_never_increase_variations():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 6)
        p = normalize([(rng.uniform(-10, 10), rng.uniform(-5, 5)) for _ in range(n)])
        if p.is_zero:
            continue
        for pivot in (p.pairs[0][1], p.pairs[-1][1]):
            assert sign_variations(shifted(p, pivot)) <= sign_variations(p)


# --- sign_variations --------------------------------------------------------------


def test_sign_variations_gravitational_quintic():
    p = normalize([(2, 0), (5, 1), (4, 2), (-4, 3), (-5, 4), (-2, 5)])
    assert sign_variations(p) == 1


def test_sign_variations_empty_and_alternating():
    assert sign_variations(normalize([])) == 0
    assert sign_variations(normalize([(1, 0), (-3, 1), (1, 2)])) == 2


# --- count_and_isolate --------------------------------------------------------------


def test_count_gravitational_quintic_symmetric():
    p = normalize([(2, 0), (5, 1), (4, 2), (-4, 3), (-5, 4), (-2, 5)])
    count, roots = count_and_isolate(p)
    assert count == 1
    assert roots[0].value == pytest.approx(1.0, rel=1e-10)
    assert not roots[0].degenerate


def test_count_three_term_two_roots():
    p = normalize([(1, 0.5), (-3, 1), (1, 2)])
    count, roots = count_and_isolate(p)
    assert count == 2
    assert 0.0 < roots[0].value < 1.0
    assert 1.0 < roots[1].value < 4.0


def test_count_empty_is_identically_zero_sentinel():
    count, roots = count_and_isolate(normalize([]))
    assert count == IDENTICALLY_ZERO
    assert roots == []


def test_count_rejects_bad_interval():
    p = normalize([(1, 1)])
    with pytest.raises(ValueError):
        count_and_isolate(p, 2.0, 1.0)
    with pytest.raises(ValueError):
        count_and_isolate(p, -1.0, 1.0)


@pytest.mark.parametrize("raw, bad", [
    ([(1.0, math.nan), (-1.0, 0.0)], "[1.0, nan]"),
    ([(math.nan, 1.0), (-1.0, 0.0)], "[nan, 1.0]"),
    ([(1.0, math.inf), (-1.0, 0.0)], "[1.0, inf]"),
    ([(-math.inf, 1.0), (-1.0, 0.0)], "[-inf, 1.0]"),
])
def test_count_rejects_non_finite_terms(raw, bad):
    with pytest.raises(ValueError, match="^signomial terms must be finite") as exc:
        count_and_isolate(normalize(raw))
    assert bad in str(exc.value)


# --- the chain on (c, e) pairs against the Term/normalize reference ---------------

# The representation the chain ran on before Signomial held the merged pairs:
# Term records, and normalize (sort plus merge) at every level. The functions
# below are that code kept verbatim, with names prefixed.


@dataclass(frozen=True)
class _RefTerm:
    coefficient: float
    exponent: float


@dataclass(frozen=True)
class _RefSignomial:
    terms: tuple[_RefTerm, ...]

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


def _ref_normalize(raw_terms):
    pairs = sorted([(float(c), float(e)) for c, e in raw_terms], key=itemgetter(1))
    return _RefSignomial(tuple(_RefTerm(c, e) for c, e in merge_sorted(pairs)))


def _ref_groups(p, x):
    return ((tuple((t.coefficient, t.exponent) for t in p.terms), x),)


def _ref_derivative(p):
    return _ref_normalize((t.coefficient * t.exponent, t.exponent - 1.0) for t in p.terms)


def _ref_shift_and_differentiate(p, pivot_exponent):
    exps = p.exponents()
    if pivot_exponent not in exps:
        raise ValueError(f"pivot exponent {pivot_exponent!r} is not an exponent of p")
    return _ref_normalize(
        (t.coefficient * (t.exponent - pivot_exponent), t.exponent - pivot_exponent - 1.0)
        for t in p.terms
    )


def _ref_sign_variations(p):
    count = 0
    prev = 0.0
    for c in p.coefficients():
        if prev != 0.0 and (c > 0.0) != (prev > 0.0):
            count += 1
        prev = c
    return count


def _ref_first_variation_pivot(p):
    coeffs = p.coefficients()
    first = coeffs[0]
    for t in p.terms:
        if (t.coefficient > 0.0) != (first > 0.0):
            return t.exponent
    raise ValueError("signomial has no sign variation")


def _ref_derivative_chain(p):
    while _ref_sign_variations(p) > 0:
        pivot = _ref_first_variation_pivot(p)
        p = _ref_shift_and_differentiate(p, pivot)
        yield pivot, p


def certified_sign_near_inf(pairs, start=4.0):
    """(x1, sign) with the sign of sum(c x^e) certified constant on [x1, inf).

    Realized by reflecting x -> 1/x onto the 0+ case.
    """
    reflected = [(c, -e) for c, e in reversed(list(pairs))]
    u0, sign = certified_sign_near_zero(reflected, start=1.0 / start)
    return 1.0 / u0, sign


def _ref_isolate(p, lo, hi, tol, refine=True):
    if len(p) <= 1 or _ref_sign_variations(p) == 0:
        # All stored coefficients share one sign: no positive roots at all.
        return []
    pivot = _ref_first_variation_pivot(p)
    q = _ref_shift_and_differentiate(p, pivot)
    q_roots = _ref_isolate(q, lo, hi, tol, refine=False)

    # Left anchor: domination probe for the open end at 0, direct evaluation
    # for a finite boundary (a boundary zero is excluded, not counted).
    inner = q_roots[0].lo if q_roots else (hi if math.isfinite(hi) else 2.0)
    if lo == 0.0:
        left = certified_sign_near_zero(p.pairs(), start=0.5 * min(1.0, inner))
    else:
        left = (lo, sum_sign(_ref_groups(p, lo), BOUNDARY_ZERO_REL)[0])
    if math.isinf(hi):
        outer = q_roots[-1].hi if q_roots else max(left[0], 0.5)
        right = certified_sign_near_inf(p.pairs(), start=2.0 * outer)
    else:
        right = (hi, sum_sign(_ref_groups(p, hi), BOUNDARY_ZERO_REL)[0])

    def sign_fn(x, z):
        return sum_sign(_ref_groups(p, x), z)

    def chain_fn(x, z):
        return sum_sign(_ref_groups(q, x), z)

    roots = isolate_between(sign_fn, chain_fn, left, right, q_roots, rel_tol=tol)
    if refine:
        roots = [refine_bracket(sign_fn, chain_fn, r, tol) if isinstance(r, Bracket) else r
                 for r in roots]
    return roots


def _ref_count_and_isolate(p, lo, hi):
    if p.is_zero:
        return IDENTICALLY_ZERO, []
    roots = _ref_isolate(p, lo, hi, DEFAULT_REL_TOL)
    return len(roots), roots


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ToleranceError as exc:
        return "ToleranceError", str(exc)


# Exponents that round together after a shift by 1 (the derivative) or by a
# pivot of larger magnitude (1 + 2**-52 - 16 == 1 - 16), with both zeros.
_CLUSTERED_EXPONENTS = (0.0, -0.0, 2.0 ** -60, -(2.0 ** -60), 2.0 ** -58,
                        1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 1.0 - 2.0 ** -53,
                        1.0 - 2.0 ** -52, 0.5, 2.0, -1.5, 16.0, -16.0, 33.0)


def test_chain_on_pairs_matches_the_term_reference():
    # About 1,200 shift steps merge colliding exponents, 20 of them to a zero
    # sum, and in 12 draws the merged sum depends on the summation order.
    rng = random.Random(61)
    for i in range(3000):
        raw = [(rng.choice([1.0, -1.0, rng.uniform(-5, 5), rng.uniform(-5, 5)]),
                rng.choice(_CLUSTERED_EXPONENTS)) for _ in range(rng.randint(1, 9))]
        p, ref = normalize(raw), _ref_normalize(raw)
        assert repr(p.pairs) == repr(ref.pairs()), raw
        assert repr(shifted(p).pairs) == repr(_ref_derivative(ref).pairs()), raw
        chain = [(pivot, q.pairs) for pivot, q in derivative_chain(p)]
        ref_chain = [(pivot, q.pairs()) for pivot, q in _ref_derivative_chain(ref)]
        assert repr(chain) == repr(ref_chain), raw
        lo, hi = ((0.0, math.inf), (0.0, 1.0), (0.5, 4.0))[i % 3]
        got = _outcome(count_and_isolate, p, lo, hi)
        assert repr(got) == repr(_outcome(_ref_count_and_isolate, ref, lo, hi)), raw


# --- overflowing float terms --------------------------------------------------------


def test_sum_sign_overflowing_term_takes_the_mpmath_tier():
    # 1e300 * 100**10 overflows to inf; the magnitude sum is then not finite
    assert sum_sign([(((1e300, 10.0),), 100.0), (((-1.0, 0.0),), 1.0)]) == (1, None)
    # inf - inf: fsum raises ValueError
    assert sum_sign([(((2e300, 10.0), (-1e300, 10.0)), 100.0)]) == (1, None)
    # finite terms whose magnitude sum overflows: fsum raises OverflowError
    assert sum_sign([(((1e308, 1.0), (-1e308, 2.0)), 1.2)]) == (-1, None)


def test_sum_value_overflowing_terms_take_the_mpmath_tier():
    assert sum_value([(((1e308, 1.0),), 2.0), (((-1e308, 1.0),), 1.5)]) == pytest.approx(5e307)
    assert sum_value([(((1.2e308, 0.0), (1e308, 0.0), (-1.5e308, 0.0)), 1.0)]) == \
        pytest.approx(7e307)
    assert sum_value([(((2e300, 10.0), (-1e300, 10.0)), 100.0)]) == math.inf


def test_sum_sign_cancellation_out_of_float_range_takes_the_mpmath_tier():
    # 10^400 leaves the float range, and the two terms agree to ~1e-13:
    # 60-digit mpmath decides
    near = 10.0 * (1.0 + 2.0 ** -52)
    groups = [(((1.0, 400.0),), 10.0), (((-1.0, 400.0),), near)]
    assert sum_sign(groups, 0.0) == (-1, None)
    assert sum_sign(groups) == (0, None)
    assert sum_sign([(((1.0, 400.0), (-1.0, 400.0)), 10.0)], 0.0) == (0, None)
    assert sum_value(groups) == -math.inf


def test_nondegenerate_roots_bracket_a_sign_change():
    rng = random.Random(11)
    seen = 0
    while seen < 60:
        n = rng.randint(2, 6)
        p = normalize([(rng.uniform(-10, 10), rng.uniform(-4, 4)) for _ in range(n)])
        if p.is_zero:
            continue
        _, roots = count_and_isolate(p, 1e-6, 1e6)
        for r in roots:
            if not r.degenerate:
                assert evaluate(p, r.lo) * evaluate(p, r.hi) < 0.0
                seen += 1


def test_count_bounded_by_variations_and_terms():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 6)
        exps = sorted(rng.uniform(-5, 5) for _ in range(n))
        if n > 1 and min(b - a for a, b in zip(exps, exps[1:])) < 1e-3:
            continue
        p = normalize([(rng.uniform(-10, 10), e) for e in exps])
        if p.is_zero:
            continue
        count, roots = count_and_isolate(p)
        assert count <= sign_variations(p)
        assert count <= len(p) - 1
        # at the term-count maximum every root must be non-degenerate
        if len(p) >= 2 and count == len(p) - 1:
            assert not any(r.degenerate for r in roots)


def test_count_agrees_with_dense_scan_on_window():
    # well-separated exponents keep every root inside the scan window
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 5)
        exps = sorted(rng.uniform(-4, 4) for _ in range(n))
        if min(b - a for a, b in zip(exps, exps[1:])) < 0.5:
            continue
        p = normalize([(rng.uniform(-9, 9) or 1.0, e) for e in exps])
        if p.is_zero:
            continue
        count, _ = count_and_isolate(p, 1e-6, 1e6)
        import numpy as np
        assert count == signomial_sign_changes(p.pairs, np.linspace(-6, 6, 200_001))
    # real exponents in [-5, 5] with gaps down to 1e-3: the 500 draws of seed
    # 110 with a gap below 0.25, which exponents in (1/4)Z (criterion 10) never
    # have, against the million-point scan
    rng = random.Random(110)
    drawn = close = 0
    while drawn < 500:
        exps = sorted(rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, 6)))
        gap = min((b - a for a, b in zip(exps, exps[1:])), default=math.inf)
        if gap < 1e-3:
            continue
        p = normalize([(rng.uniform(-10.0, 10.0), e) for e in exps])
        drawn += 1
        if gap < 0.25:
            close += 1
            count, _ = count_and_isolate(p, 1e-6, 1e6)
            assert count == signomial_sign_changes(p.pairs), p.pairs
    assert close == 125


def test_subinterval_counts_are_consistent():
    p = normalize([(1, 0.5), (-3, 1), (1, 2)])
    in_left, _ = count_and_isolate(p, 0.0, 1.0)
    in_right, _ = count_and_isolate(p, 1.0, math.inf)
    assert (in_left, in_right) == (1, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_isolation_windows_are_disjoint_and_sorted(n, seed):
    rng = random.Random(seed)
    exps = sorted(rng.uniform(-4, 4) for _ in range(n))
    if min(b - a for a, b in zip(exps, exps[1:])) < 1e-2:
        return
    p = normalize([(rng.uniform(-10, 10), e) for e in exps])
    if p.is_zero:
        return
    _, roots = count_and_isolate(p, 1e-6, 1e6)
    for a, b in zip(roots, roots[1:]):
        assert a.value < b.value
        assert a.hi <= b.lo or a.degenerate or b.degenerate
    for r in roots:
        assert r.lo < r.value < r.hi or r.lo == r.hi == r.value


@pytest.mark.parametrize("raw", [
    [(2, 0), (5, 1), (4, 2), (-4, 3), (-5, 4), (-2, 5)],
    [(1, 1), (-1, 2)],
])
def test_root_at_an_exact_zero_has_a_zero_width_bracket(raw):
    # The geometric midpoint of the anchors is the root 1, where the sum is
    # exactly 0: the bracket closes on it instead of staying unrefined.
    count, roots = count_and_isolate(normalize(raw))
    assert count == 1
    assert roots[0].lo == roots[0].hi == roots[0].value == 1.0


# --- refinement ------------------------------------------------------------------


def counted(eval_fn):
    """eval_fn wrapped to count its calls in calls[0]."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return eval_fn(x)

    return wrapped, calls


def signomial_eval(p):
    return lambda x: sum_sign(((p.pairs, x),), 0.0)


@pytest.mark.parametrize("raw", [
    [(3, -0.5), (-1, 5)],
    [(3, -2), (-1, 1)],
    [(2, -3), (-1, 0.5)],
    [(7, -1), (-1, 5)],
])
def test_interpolation_step_beside_the_root_keeps_a_bracket(raw):
    # On these steep monotone signomials an interpolation step lands within a
    # few ulps of the root. Without the end guard the next step closed the
    # bracket to one ulp, inside rounding noise, and the whole bisection
    # path then had to be evaluated again (more than 50 evaluations).
    p = normalize(raw)
    (c0, e0), (c1, e1) = p.pairs
    root = (-c0 / c1) ** (1.0 / (e1 - e0))
    eval_fn, calls = counted(signomial_eval(p))
    value, lo, hi, hit_zero = bisect_sign_change(eval_fn, root / 1.5, root * 1.5, 1)
    assert not hit_zero
    assert lo < value < hi
    assert hi - lo <= DEFAULT_REL_TOL * hi
    assert value == pytest.approx(root, rel=2 * DEFAULT_REL_TOL)
    assert calls[0] <= 20


def test_refinement_steps_are_bounded_by_bisection():
    # x^40 - 1 on [0.5, 2] defeats interpolation: the regula-falsi point
    # crawls from the flat end. The projection still keeps the interpolation
    # steps within bisection's plus n0 = 1, and 2 more cover the midpoints of
    # the bisection path that fall inside their final bracket.
    p = normalize([(1, 40), (-1, 0)])
    walk_fn, walk_calls = counted(signomial_eval(p))
    value, lo, hi, _ = bisect_sign_change(walk_fn, 0.5, 2.0, -1)
    plain_fn, plain_calls = counted(lambda x: (signomial_eval(p)(x)[0], None))
    bisect_sign_change(plain_fn, 0.5, 2.0, -1)
    # without values every step bisects: ceil(log2(1.5 / 1e-12)) halvings
    assert plain_calls[0] == math.ceil(math.log2(1.5 / DEFAULT_REL_TOL))
    assert walk_calls[0] <= plain_calls[0] + 1 + 2
    assert lo < 1.0 < hi and hi - lo <= DEFAULT_REL_TOL * hi
    assert lo < value < hi


def test_exact_zero_on_the_replayed_path_closes_the_bracket():
    # z is a midpoint of bisection's path from [0.5, 1.5]. An interpolation
    # step that reads the exact zero there bounds nothing; the replay is the
    # one to evaluate z and close the bracket on it.
    z = 1.0 + 2.0 ** -30

    def eval_fn(x):
        v = (x - z) ** 3
        return (v > 0.0) - (v < 0.0), v

    assert bisect_sign_change(eval_fn, 0.5, 1.5, -1) == (z, z, z, True)


@pytest.mark.parametrize("raw, lo, hi, sign_lo", [
    ([(1, 40), (-1, 0)], 0.5, 2.0, -1),
    ([(3, -1), (-1, 1)], 1e-3, 1e3, 1),
    ([(1, 0.5), (-3, 1), (1, 2)], 0.5, 4.0, -1),
])
def test_refinement_without_values_converges_to_the_same_width(raw, lo, hi, sign_lo):
    # qps passes value=None: every step then bisects, to the same stop rule,
    # and the result is the one the interpolating refinement reports.
    p = normalize(raw)
    with_values = bisect_sign_change(signomial_eval(p), lo, hi, sign_lo)
    without = bisect_sign_change(lambda x: (signomial_eval(p)(x)[0], None), lo, hi, sign_lo)
    value, a, b, hit_zero = without
    assert not hit_zero
    assert a < value < b
    assert b - a <= DEFAULT_REL_TOL * b
    assert signomial_eval(p)(a)[0] == sign_lo and signomial_eval(p)(b)[0] == -sign_lo
    assert with_values == without
