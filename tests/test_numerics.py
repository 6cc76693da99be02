"""The numeric kernels against verbatim copies of their earlier forms.

The endpoint anchor's linear-space domination test and its probe skip
against the log-space form; the reading of a breakpoint's sign from the
ends of its bracket, or from the term-range bound over it, against the
same stage with the breakpoint refined; the refinement walk against plain
bisection, on synthetic rounding noise and on the refinements count_all
runs; and the records every stage of count_all returns, which are never
refined.
"""

import collections
import math
import random

import pytest

from eulercc import euler, numerics, signomial
from eulercc.acceptance import g_polynomial, positive_root_count
from eulercc.euler import count_all
from eulercc.numerics import (
    DEFAULT_REL_TOL,
    Bracket,
    RootRecord,
    Tail,
    ToleranceError,
    bisect_sign_change,
    certified_sign_near_zero,
    isolate_between,
    refine_bracket,
    sum_sign,
)
from eulercc.signomial import Endpoint

# --- reference: the anchor as it was when every probe was decided in log space ---
# (a verbatim copy; only the function's name differs)

_PROBE_FLOOR = 1e-280
_SHRINK = 0.0625
_MARGIN = 0.5
_PAIR_MARGIN_LOG = 3.0


def _tail_rel(tail, lead_log, e0, lx):
    # log of tail bound relative to the leading term magnitude at x = e**lx
    if tail is None or tail.coeff == 0.0:
        return None
    x = math.exp(lx)
    if tail.ratio * x >= 0.9:
        return math.inf
    return (math.log(tail.coeff) - lead_log + (tail.exponent - e0) * lx
            - math.log(1.0 - tail.ratio * x))


def reference_sign_near_zero(pairs, tail=None, start=0.25):
    """(x0, sign) with the sign of sum(c x^e) certified constant on (0, x0].

    pairs must be sorted by strictly increasing exponent with nonzero
    coefficients; tail optionally bounds a truncated remainder. Two phases:

    1. magnitude domination of the leading term, whose ratios to all other
       contributions only shrink as x decreases;
    2. when the two lowest exponents are too close for (1), the leading
       pair w(x) = c0 x^e0 + c1 x^e1 is handled exactly: it has at most one
       positive root at x* = (|c0|/|c1|)^(1/(e1-e0)), is monotone on either
       side, and keeps the sign of c0 below x*. Probing below x* until the
       remaining terms are dominated by the pair's certified minimum
       magnitude yields the anchor.

    Raises ToleranceError when neither phase certifies above the probe
    floor (three or more exponents would have to cluster at the bottom of
    the spectrum, which the callers' functions never produce).
    """
    if not pairs:
        raise ToleranceError("cannot certify the sign of an empty sum")
    c0, e0 = pairs[0]
    sign0 = 1 if c0 > 0.0 else -1
    lead_log = math.log(abs(c0))
    rest = [(math.log(abs(c)) - lead_log, e - e0) for c, e in pairs[1:]]

    def rel_log(others, lx):
        # log of the summed magnitudes of others (and the tail) relative to
        # the leading term at x = e**lx
        parts = [lc + de * lx for lc, de in others]
        t = _tail_rel(tail, lead_log, e0, lx)
        if t is not None:
            parts.append(t)
        if not parts:
            return -math.inf
        top = max(parts)
        if top == math.inf:
            return math.inf
        return top + math.log(math.fsum(math.exp(v - top) for v in parts))

    floor_log = math.log(_PROBE_FLOOR)
    shrink_log = math.log(_SHRINK)

    # Phase 1: quick single-term domination.
    x = min(start, 0.25)
    phase1 = 10 if len(pairs) > 1 else 10 ** 6
    for _ in range(phase1):
        if x < _PROBE_FLOOR:
            raise ToleranceError("tail bound refused to shrink below the leading term")
        if rel_log(rest, math.log(x)) < math.log(_MARGIN):
            return x, sign0
        x *= _SHRINK

    # Phase 2: exact treatment of the leading pair w = c0 x^e0 + c1 x^e1.
    # Relative to c0 x^e0 the pair is rel(x) = 1 + (c1/c0) x^eps: monotone,
    # with at most one root. The certified zone is [zone_floor, x0] chosen a
    # safe log-margin away from that root; when the root falls below the
    # representable floor the zone sits above it and carries the opposite of
    # the 0+ limit sign (structure below the floor is out of numeric scope).
    c1, e1 = pairs[1]
    eps = e1 - e0
    pair_log = math.log(abs(c1)) - lead_log
    cap_log = math.log(min(start, 0.25))
    zone_floor_log = floor_log
    zone_sign = sign0
    if (c0 > 0.0) != (c1 > 0.0):
        root_log = -pair_log / eps
        if root_log - _PAIR_MARGIN_LOG >= floor_log:
            cap_log = min(cap_log, root_log - _PAIR_MARGIN_LOG)
        else:
            zone_floor_log = max(floor_log, root_log + _PAIR_MARGIN_LOG)
            zone_sign = -sign0
    if cap_log < zone_floor_log:
        raise ToleranceError("no representable probe range below the leading-pair root")
    remote = rest[1:]

    def rel_abs(lx):
        return abs(1.0 + math.copysign(math.exp(pair_log + eps * lx), c0 * c1))

    floor_rel = rel_abs(zone_floor_log)
    lx = cap_log
    while lx >= zone_floor_log:
        # |rel| is monotone with no root inside [zone_floor, x], so it is
        # bounded below by its value at the two ends
        w_rel_min = min(1.0, floor_rel, rel_abs(lx))
        if w_rel_min > 0.0 and rel_log(remote, lx) < math.log(_MARGIN) + math.log(w_rel_min):
            return math.exp(lx), zone_sign
        lx += shrink_log
    raise ToleranceError("no probe point dominated by the leading terms")


# --- inputs ----------------------------------------------------------------------


def _recorded_anchor_inputs(monkeypatch, draws):
    """(pairs, tail, start) of every full-series anchor count_all may ask for on the draws.

    euler's four full series per cell (g and g' at 0+ and at +infinity) are
    built directly, since count_all certifies most of its anchors on a short
    series; the signomial engine's anchors along the h chain are recorded
    as count_all asks for them.
    """
    seen = []

    def record(pairs, tail=None, start=0.25):
        seen.append((tuple(pairs), tail, start))
        return certified_sign_near_zero(pairs, tail, start)

    monkeypatch.setattr(signomial, "certified_sign_near_zero", record)
    for m, b in draws:
        for masses in (m, m[::-1]):
            try:
                count_all(masses, b)
            except ToleranceError:
                pass
            for cell in euler.CELLS:
                mv = euler.cell_mass_view(euler._rescaled(masses), cell)
                if euler.degenerate_family(mv, b) is not None or euler.h_signomial(mv, b).is_zero:
                    continue
                for end, series in (
                        (Endpoint.ZERO_PLUS, euler._zero_series_g(mv, b)),
                        (Endpoint.INFINITY, euler._reflect(euler._zero_series_g(mv[::-1], b), b))):
                    for s in (series, euler._derivative(series, end)):
                        seen.append((s.pairs, s.tail, 0.5 / s.tail.ratio))
    monkeypatch.undo()
    return seen


def _census_draws(rng, n, b_range):
    return [(tuple(rng.uniform(-10.0, 10.0) for _ in range(3)), rng.uniform(*b_range))
            for _ in range(n)]


def _signed(rng, magnitude):
    return magnitude if rng.random() < 0.5 else -magnitude


def _random_pairs(rng, lead, n, log10_range=(-300.0, 300.0)):
    e = rng.uniform(-5.0, 5.0)
    pairs = [(_signed(rng, lead), e)]
    for _ in range(n - 1):
        e += rng.uniform(0.05, 3.0)
        pairs.append((_signed(rng, 10.0 ** rng.uniform(*log10_range)), e))
    return pairs


def _random_tail(rng, pairs):
    if rng.random() < 0.4:
        return None
    return Tail(10.0 ** rng.uniform(-5.0, 5.0), pairs[-1][1] + rng.uniform(0.5, 3.0),
                rng.uniform(0.5, 3.0))


def _synthetic_inputs(rng):
    """(pairs, tail, start) cases aimed at both tests' edges."""
    cases = []
    starts = (0.25, 0.5, 0.1, 1e-3, 2.0 ** -10)
    for _ in range(2500):
        # coefficients from 1e-300 to 1e300
        lead = 10.0 ** rng.uniform(-300.0, 300.0)
        pairs = _random_pairs(rng, lead, rng.randint(1, 8))
        cases.append((pairs, _random_tail(rng, pairs), rng.choice(starts)))
    for _ in range(1500):
        # a subnormal or tiny lead coefficient, with other terms that sum to
        # near the threshold |c0|/2 at the first or second probe, each
        # rounded on its own in the subnormal range
        lead = rng.choice((5e-324, 1e-320, 3.3e-315, 2.2e-310, 1e-300, 1e-260, 2e-250))
        lead *= rng.uniform(1.0, 4.0)
        x = 0.25 * 0.0625 ** rng.randint(0, 1)
        n_rest = rng.randint(1, 5)
        spread = rng.choice((0.3, 1e-3, 1e-6, 1e-9))
        e0 = e = rng.uniform(-3.0, 3.0)
        pairs = [(_signed(rng, lead), e0)]
        for _ in range(n_rest):
            e += rng.choice((1.0, 2.0, 0.5, rng.uniform(0.1, 3.0)))
            c = lead / x ** (e - e0) * 0.5 / n_rest * (1.0 + rng.uniform(-spread, spread))
            if c != 0.0:  # the routine takes nonzero coefficients only
                pairs.append((_signed(rng, c), e))
        cases.append((pairs, None, 0.25))
    for _ in range(2500):
        # the threshold itself: S = |c0|/2 * (1 + delta) at a probe, delta from
        # exact ties through the rounding of the log-space test to the guard band
        lead = 10.0 ** rng.uniform(-200.0, 200.0)
        k = rng.randint(0, 3)
        x = 0.25 * 0.0625 ** k
        delta = rng.choice((0.0, rng.uniform(-4e-15, 4e-15), rng.uniform(-2e-9, 2e-9)))
        n_rest = rng.randint(1, 3)
        e0 = rng.uniform(-3.0, 3.0)
        pairs = [(_signed(rng, lead), e0)]
        share = 0.5 * lead * (1.0 + delta) / n_rest
        e = e0
        for _ in range(n_rest):
            de = rng.choice((1.0, 2.0, 3.0, rng.uniform(0.2, 2.0)))
            e += de
            pairs.append((_signed(rng, share / x ** (e - e0)), e))
        cases.append((pairs, None, 0.25))
    for _ in range(1500):
        # clustered lowest exponents: phase 2, the leading pair
        lead = 10.0 ** rng.uniform(-100.0, 100.0)
        pairs = _random_pairs(rng, lead, rng.randint(3, 6), log10_range=(-100.0, 100.0))
        c1 = _signed(rng, lead * 10.0 ** rng.uniform(-3.0, 3.0))
        pairs[1] = (c1, pairs[0][1] + 10.0 ** rng.uniform(-12.0, -2.0))
        cases.append((pairs, _random_tail(rng, pairs), rng.choice(starts)))
    for _ in range(1500):
        # a tail whose ratio * x is near 0.9 at a probe, on both sides of it
        lead = 10.0 ** rng.uniform(-50.0, 50.0)
        pairs = _random_pairs(rng, lead, rng.randint(1, 4), log10_range=(-60.0, 60.0))
        x = 0.25 * 0.0625 ** rng.randint(0, 2)
        # (a few ulps off 0.9, where the log-space test, reading x back as
        # exp(log(x)), may land on the other side of 0.9)
        near = rng.choice((rng.randint(-3, 3) * 2.0 ** -53, rng.uniform(-2e-9, 2e-9),
                           rng.uniform(-0.05, 0.05)))
        tail = Tail(lead * 10.0 ** rng.uniform(-3.0, 0.0), pairs[-1][1] + 1.0,
                    0.9 * (1.0 + near) / x)
        cases.append((pairs, tail, 0.25))
    for _ in range(1000):
        # a lead of at least 1e-250 beside a large |c| whose power x^(e - e0)
        # underflows at the first probe, though the term decides the test
        # there: the true other magnitudes are |c0| * 10**log_f
        shrink = rng.uniform(300.0, 330.0)  # -log10 of x^(e - e0) at the first probe
        log_f = rng.uniform(-3.0, 3.0)
        log_lead = rng.uniform(-250.0, 305.0 - shrink - log_f)
        de = rng.choice((2.0, 3.0, rng.uniform(1.2, 4.0)))
        e0 = rng.uniform(-3.0, 3.0)
        pairs = [(_signed(rng, 10.0 ** log_lead), e0)]
        big = 10.0 ** (log_lead + log_f + shrink)
        if rng.random() < 0.3:
            tail = Tail(big, e0 + de, rng.uniform(0.0, 3.0))
        else:
            pairs.append((_signed(rng, big), e0 + de))
            tail = None
        cases.append((pairs, tail, 10.0 ** (-shrink / de)))
    # (1.5e-162)**2 is 0.0 in floats, but the true sum is about -2.25e-16
    cases.append(([(1e-20, 0.0), (-1e308, 2.0)], None, 1.5e-162))
    for _ in range(500):
        # magnitudes near the float limit, so the linear sum overflows
        e = rng.uniform(-2.0, 2.0)
        pairs = []
        for _ in range(rng.randint(2, 6)):
            pairs.append((_signed(rng, rng.uniform(1e307, 1.7e308)), e))
            e += rng.uniform(1e-6, 1e-2)
        cases.append((pairs, _random_tail(rng, pairs), rng.choice(starts)))
    for _ in range(1500):
        # the second term alone defeats the probes before probe k and is
        # within a few skip margins of |c0|/2 there; k >= 10 lies past
        # phase 1's budget, so the skipped probes lead straight to phase 2
        start = rng.choice(starts)
        k = rng.randint(1, 12)
        eps = rng.choice((rng.uniform(1e-3, 0.05), rng.uniform(0.05, 3.0)))
        log_x = math.log10(min(start, 0.25) * 0.0625 ** k)
        lead = 10.0 ** rng.uniform(-200.0, min(200.0, 290.0 + eps * log_x))
        pairs = _skip_pairs(rng, lead, log_x, eps)
        cases.append((pairs, _random_tail(rng, pairs), start))
    for _ in range(500):
        # the second term is about |c0|/2 just below the probe floor, so it
        # defeats the probes above it, which mostly reach the floor within
        # phase 1's budget
        start = 10.0 ** rng.uniform(-279.0, -268.0)
        eps = rng.uniform(0.01, 0.5)
        lead = 10.0 ** rng.uniform(-200.0, 290.0 - 281.0 * eps)
        cases.append((_skip_pairs(rng, lead, -281.0, eps), None, start))
    for lead in (5e-324, 1e-250 * (1.0 - 1e-9), math.nextafter(1e-250, 0.0), 1e-250,
                 math.nextafter(1e-250, 1.0), 1e-250 * (1.0 + 1e-9)):
        # leads on both sides of the linear test's minimum, where no probe
        # is skipped below it
        for _ in range(200):
            start = rng.choice(starts)
            eps = rng.uniform(1e-3, 3.0)
            log_x = math.log10(min(start, 0.25)) + rng.randint(1, 12) * math.log10(0.0625)
            cases.append((_skip_pairs(rng, lead, log_x, eps), None, start))
    return cases


def _skip_pairs(rng, lead, log_x, eps):
    """Pairs whose second term alone is about |c0|/2 at x = 10**log_x, more above.

    Its excess over |c0|/2 ranges from exact ties through the skip's log
    margin of 1e-6 to a factor of 1.5; smaller terms follow it.
    """
    e0 = rng.uniform(-3.0, 3.0)
    delta = rng.choice((0.0, 1e-6, -1e-6, rng.uniform(-3e-6, 3e-6), rng.uniform(-0.5, 0.5)))
    c1 = lead * (0.5 * (1.0 + delta) * 10.0 ** (-eps * log_x))
    pairs = [(_signed(rng, lead), e0), (_signed(rng, c1), e0 + eps)]
    e = e0 + eps
    for _ in range(rng.randint(0, 3)):
        e += rng.uniform(0.5, 3.0)
        pairs.append((_signed(rng, lead * 10.0 ** rng.uniform(-5.0, 5.0)), e))
    # the routine takes nonzero coefficients only (a subnormal lead's
    # neighbours may round to 0)
    return [(c, e) for c, e in pairs if c != 0.0]


def _outcome(fn, pairs, tail, start):
    try:
        return repr(fn(pairs, tail, start))
    except (ToleranceError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


# --- the reading rule: a breakpoint's sign from the ends of its bracket ---------


def _poly_sign(*coeffs, calls=None):
    """(x, zero_rel) -> sum_sign of sum(c x^k), coeffs from k = 0; calls records (x, zero_rel)."""
    pairs = tuple((float(c), float(k)) for k, c in enumerate(coeffs) if c)

    def sign(x, zero_rel):
        if calls is not None:
            calls.append((x, zero_rel))
        return sum_sign(((pairs, x),), zero_rel)

    return sign


def _refined(records, sign_fn, chain_sign_fn, **kwargs):
    """isolate_between's records with each Bracket refined, as a caller refines them."""
    return [refine_bracket(sign_fn, chain_sign_fn, r, **kwargs) if isinstance(r, Bracket) else r
            for r in records]


def _check_against_refined_chain_roots(got, sign_fn, chain_sign_fn, left, right, chain_roots,
                                       **kwargs):
    """got, isolate_between's records, against the ones it returns when every
    Bracket among the chain roots is first refined to a RootRecord (the old
    rule), both refined."""
    refined = []
    for r in chain_roots:
        if isinstance(r, Bracket):
            value, lo, hi, _ = bisect_sign_change(lambda x: chain_sign_fn(x, 0.0),
                                                  r.lo, r.hi, r.sign)
            r = RootRecord(lo=lo, hi=hi, value=value, degenerate=False)
        refined.append(r)
    want = isolate_between(sign_fn, chain_sign_fn, left, right, refined, **kwargs)
    got, want = (_refined(records, sign_fn, chain_sign_fn, **kwargs) for records in (got, want))
    assert [r.degenerate for r in got] == [r.degenerate for r in want]
    for g, w in zip(got, want):
        assert g.value == pytest.approx(w.value, rel=4 * DEFAULT_REL_TOL)


# x^2 - 4x + 3 = (x - 1)(x - 3), and its derivative 2x - 4, negative below the
# minimum at 2
_TARGET = (3.0, -4.0, 1.0)
_DERIVATIVE = (-4.0, 2.0)


def test_a_bracket_end_decides_without_narrowing():
    # The minimum at 2 is below zero: the target is negative at both ends of
    # the bracket, each end shows it, and the two sign changes come back as
    # the brackets of their points without a read of the chain function.
    # Refined, the chain function is read only at the two roots, for their
    # degeneracy.
    chain_calls = []
    args = (_poly_sign(*_TARGET), _poly_sign(*_DERIVATIVE, calls=chain_calls),
            (0.5, 1), (4.0, 1), [Bracket(lo=1.5, hi=2.5, sign=-1)])
    brackets = isolate_between(*args)
    assert brackets == [Bracket(lo=0.5, hi=1.5, sign=1), Bracket(lo=2.5, hi=4.0, sign=-1)]
    assert chain_calls == []
    roots = _refined(brackets, *args[:2])
    assert [r.value for r in roots] == [pytest.approx(1.0), pytest.approx(3.0)]
    assert [z for _, z in chain_calls] == [numerics.DEGENERACY_REL] * 2
    _check_against_refined_chain_roots(brackets, *args)


@pytest.mark.parametrize("target, count", [
    ((5.0, -4.0, 1.0), 0),  # (x - 2)^2 + 1: its minimum 1 is above zero
    ((4.0, -4.0, 1.0), 1),  # (x - 2)^2: zero at the minimum, a degenerate root
])
def test_extremum_on_the_far_side_is_read_at_the_refined_chain_root(target, count):
    # The target is positive at both ends, the side away from a minimum, and
    # has no terms to bound, so no end and no narrowing can decide: the
    # chain root is refined and the target read there with
    # BOUNDARY_ZERO_REL, as every breakpoint was before.
    target_calls, chain_calls = [], []
    args = (_poly_sign(*target, calls=target_calls), _poly_sign(*_DERIVATIVE, calls=chain_calls),
            (0.5, 1), (4.0, 1), [Bracket(lo=1.25, hi=2.95, sign=-1)])
    roots = isolate_between(*args)
    assert len(roots) == count
    # the narrowing steps, then the refinement
    assert len(chain_calls) > numerics._NARROW_ROUNDS * numerics._NARROW_STEPS
    x, zero_rel = target_calls[-1]
    assert zero_rel == numerics.BOUNDARY_ZERO_REL
    assert x == pytest.approx(2.0, rel=2 * DEFAULT_REL_TOL)
    if count:
        assert roots[0].degenerate and roots[0].lo <= 2.0 <= roots[0].hi
    _check_against_refined_chain_roots(roots, *args)


@pytest.mark.parametrize("left, right, bracket, values, narrowed", [
    # the chain root 2 lies inside the left anchor's bracket but above it
    ((0.9, 1), (4.0, 1), Bracket(lo=0.5, hi=2.5, sign=-1), [1.0, 3.0], False),
    # ... and below it, where the anchor's sign already holds
    ((2.2, -1), (4.0, 1), Bracket(lo=0.5, hi=2.5, sign=-1), [3.0], False),
    # the bracket reaches past the right anchor, to the root 3, which reads
    # zero: that end keeps the other from deciding, and narrowing decides
    ((0.5, 1), (2.6, -1), Bracket(lo=1.5, hi=3.0, sign=-1), [1.0], True),
])
def test_bracket_straddling_an_anchor(left, right, bracket, values, narrowed):
    chain_calls = []
    args = (_poly_sign(*_TARGET), _poly_sign(*_DERIVATIVE, calls=chain_calls),
            left, right, [bracket])
    brackets = isolate_between(*args)
    roots = _refined(brackets, *args[:2])
    assert [r.value for r in roots] == [pytest.approx(v) for v in values]
    assert (0.0 in [z for _, z in chain_calls]) == narrowed
    _check_against_refined_chain_roots(brackets, *args)


def test_h_bracket_reaching_y_one_is_narrowed(monkeypatch):
    # In cell 2 of this fold draw the top level of the h stage gets a bracket
    # from its chain function that reaches y = 1, where H reads its forced
    # zero. That end cannot decide; after narrowing, both ends do.
    m, b = (0.6771886089623074, -0.5724068641860653, 0.46234833159033956), -2.0
    stages = []
    real = numerics.isolate_between

    def spy(*args, **kwargs):
        stages.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "isolate_between", spy)  # as run_chain looks it up
    euler.count_cell(m, b, 2)
    (sign_fn, chain_sign_fn, left, right, chain_roots), kwargs = stages[-1]
    assert right[:2] == (1.0, 0) and sign_fn(1.0, numerics.BOUNDARY_ZERO_REL)[0] == 0
    assert [r.hi for r in chain_roots if isinstance(r, Bracket)] == [1.0]
    read = []

    def recorded(*args):
        found = numerics._read_bracket.__wrapped__(*args)
        read.append(found)
        return found

    recorded.__wrapped__ = numerics._read_bracket
    monkeypatch.setattr(numerics, "_read_bracket", recorded)
    roots = real(sign_fn, chain_sign_fn, left, right, chain_roots, **kwargs)
    monkeypatch.undo()
    ends, refined = read[-1]
    assert refined is None and 0.5 < ends[0][0] < ends[1][0] < 1.0
    _check_against_refined_chain_roots(roots, sign_fn, chain_sign_fn, left, right, chain_roots,
                                       **kwargs)


def test_h_bracket_reaching_y_one_ends_at_the_right_anchor(monkeypatch):
    # At b = 2 the two terms of H in cell 1 of this fold draw cancel at y = 1
    # to 2e-12 of their size, above the zero threshold, so H's root bracket
    # reaches y = 1, which is +infinity in s. The chain sign at the g' stage's
    # right anchor places the root beyond it (euler._in_s), as the end at the
    # last y below 1 does, and the count is exact.
    m, b = (0.7071645873767574, -5.7592436576155524e-05, 0.7070489749963377), 2.0
    stages, placed = [], []
    real, real_in_s = numerics.isolate_between, euler._in_s

    def spy(*args, **kwargs):
        # the chain roots _in_s yields, kept to run the stage on them again
        args = (*args[:4], list(args[4]), *args[5:])
        stages.append((args, kwargs))
        return real(*args, **kwargs)

    def in_s(h_roots, xr, curvature):
        placed.append((h_roots, xr))
        return real_in_s(h_roots, xr, curvature)

    monkeypatch.setattr(euler, "isolate_between", spy)
    monkeypatch.setattr(euler, "_in_s", in_s)
    count, _ = euler.count_cell(m, b, 1)
    (h_roots, xr), = placed
    assert [r.hi for r in h_roots] == [1.0] and math.isfinite(xr)
    args, kwargs = stages[0]  # the g' stage
    assert args[3][0] == xr and args[4] == []  # dropped: its root lies beyond xr
    finite = [Bracket(euler._y_to_s(r.lo), euler._y_to_s(1.0 - 2.0 ** -53), r.sign)
              for r in h_roots]
    assert real(*args[:4], finite, *args[5:], **kwargs) == real(*args, **kwargs)
    assert count == positive_root_count(g_polynomial(euler.cell_mass_view(m, 1), b))


# --- the term-range bound: far-side breakpoints settled without refinement ---


def _poly_target(*coeffs, calls=None):
    """_poly_sign with the terms c x^k at a point, for the term-range bound."""
    sign = _poly_sign(*coeffs, calls=calls)
    pairs = tuple((float(c), float(k)) for k, c in enumerate(coeffs) if c)
    sign.terms = lambda x: numerics.float_terms(((pairs, x),))
    return sign


def _linear_chain(root, calls=None):
    """(x, zero_rel) -> the sign and value of x - root, as the chain function reads them."""
    def chain(x, zero_rel=0.0):
        if calls is not None:
            calls.append(x)
        v = x - root
        return (1 if v > 0.0 else -1 if v < 0.0 else 0), v

    return chain


def test_bound_settles_a_far_side_bracket_unrefined():
    # (x - 2)^2 + 1 on [1.9, 2.1]: the terms 5, -4x and x^2 sum, at their
    # smaller ends, to 5 - 8.4 + 3.61 = 0.21, far above the margin, so the
    # minimum is positive and the bracket is settled from its ends alone
    chain_calls = []
    args = (_poly_target(5.0, -4.0, 1.0), _poly_sign(*_DERIVATIVE, calls=chain_calls),
            (0.5, 1), (4.0, 1), [Bracket(lo=1.9, hi=2.1, sign=-1)])
    assert isolate_between(*args) == []
    assert chain_calls == []
    _check_against_refined_chain_roots([], *args)


def test_bound_declines_a_near_side_extremum():
    # (x - 2)^2 - 0.1 is positive at both ends of [1.5, 2.5] and negative at
    # the minimum: the smaller end values sum to 3.9 - 10 + 2.25 < 0, and the
    # bound declines (the larger ones, 3.9 - 6 + 6.25, would settle it wrongly).
    # The chain root is refined and both roots are found.
    args = (_poly_target(3.9, -4.0, 1.0), _poly_sign(*_DERIVATIVE),
            (0.5, 1), (4.0, 1), [Bracket(lo=1.5, hi=2.5, sign=-1)])
    brackets = isolate_between(*args)
    roots = _refined(brackets, *args[:2])
    assert [r.value for r in roots] == [pytest.approx(2.0 - 0.1 ** 0.5),
                                        pytest.approx(2.0 + 0.1 ** 0.5)]
    _check_against_refined_chain_roots(brackets, *args)
    # the same on a maximum: -(x - 2)^2 + 0.1
    args = (_poly_target(-3.9, 4.0, -1.0), _poly_sign(4.0, -2.0),
            (0.5, -1), (4.0, -1), [Bracket(lo=1.5, hi=2.5, sign=1)])
    assert len(isolate_between(*args)) == 2


def _read_with(ends, terms, bracket=Bracket(lo=1.5, hi=2.5, sign=-1)):
    """_read_bracket on a stub target that reads ends[0] at the low end and
    ends[1] elsewhere, each (sign, value), with the given terms at every
    point, and a chain function with its root at 2: (chain calls, root)."""
    calls = []

    def read(x):
        return (x, *ends[0 if x == bracket.lo else 1])

    _, root = numerics._read_bracket(read, _linear_chain(2.0, calls), bracket,
                                     DEFAULT_REL_TOL, terms)
    return calls, root


@pytest.mark.parametrize("ends", [
    ((1, 1.0), (1, 1.0)),      # the far side's sign at both ends: settled
    ((1, 1.0), (0, None)),     # an end reads zero
    ((0, None), (0, None)),
    ((1, 1.0), (-1, None)),    # the ends differ, neither decides
    ((-1, None), (-1, None)),  # the near side's sign, in the noise
])
def test_bound_is_tried_only_where_both_ends_read_the_far_side(ends):
    # terms whose sum clears zero by far would settle any bracket
    calls, root = _read_with(ends, lambda x: [1.0, 0.5])
    if ends[0] == ends[1] == (1, 1.0):
        assert calls == [] and root is None
    else:
        assert calls and root.lo <= 2.0 <= root.hi


@pytest.mark.parametrize("gap, settled", [
    (2.0 ** -40, False),  # a sum of 9e-13: inside the margin of 2e-10 of the terms
    (1e-9, True),         # just beyond it
])
def test_bound_keeps_a_margin_above_the_rounding(gap, settled):
    calls, root = _read_with(((1, 1.0), (1, 1.0)), lambda x: [1.0, -1.0 + gap])
    assert (root is None) == settled and (calls == []) == settled


@pytest.mark.parametrize("terms", [
    # a power beyond LOG_SAFE: 1e-300 x^-2000 on [1.9, 2.1]
    lambda x: numerics.float_terms(((((5.0, 0.0), (1e-300, -2000.0)), x),)),
    lambda x: [1.0, math.inf],       # a term that overflowed
    lambda x: [1e308, 1e308, -1e308],  # the magnitudes' sum overflows
    lambda x: None,
])
def test_bound_declines_without_float_terms(terms):
    calls, root = _read_with(((1, 1.0), (1, 1.0)), terms,
                             bracket=Bracket(lo=1.9, hi=2.1, sign=-1))
    assert calls and root is not None


def _sign_without_terms(sign_fn):
    return lambda x, zero_rel: sign_fn(x, zero_rel)


def test_bound_settles_only_brackets_whose_chain_root_reads_the_far_side(monkeypatch):
    # Every bracket the bound settles, on seeded census, band_b1 and
    # (1, m2, 1) figure draws with mirrors and on random signomials, is
    # read again as before the bound: narrowed and refined, with the
    # target read at the refined chain root with BOUNDARY_ZERO_REL. It
    # reads the ends' sign there. And every stage returns the records it
    # returns on a target without terms, bit for bit.
    real_read, real_isolate = numerics._read_bracket, numerics.isolate_between
    settled = []

    def read_bracket(read, chain_fn, bracket, rel_tol, terms):
        ends, root = real_read(read, chain_fn, bracket, rel_tol, terms)
        if root is None and not numerics._decides(ends, bracket.sign):
            far = -bracket.sign
            assert ends[0][1] == ends[1][1] == far
            before, refined = real_read(read, chain_fn, bracket, rel_tol, None)
            assert refined is not None and read(refined.value)[1] == far, bracket
            assert [e[1] for e in before] == [far, far]
            settled.append(bracket)
        return ends, root

    def isolate(sign_fn, chain_sign_fn, left, right, chain_roots, rel_tol=DEFAULT_REL_TOL):
        chain_roots = list(chain_roots)
        records = real_isolate(sign_fn, chain_sign_fn, left, right, chain_roots, rel_tol)
        assert records == real_isolate(_sign_without_terms(sign_fn), chain_sign_fn, left,
                                       right, chain_roots, rel_tol)
        return records

    monkeypatch.setattr(numerics, "_read_bracket", read_bracket)
    monkeypatch.setattr(numerics, "isolate_between", isolate)
    monkeypatch.setattr(euler, "isolate_between", isolate)
    rng = random.Random(33)
    draws = _census_draws(rng, 200, (-5.0, 5.0)) + _census_draws(rng, 200, (0.8, 1.2))
    figure = [((1.0, rng.uniform(-4.0, 2.0), 1.0), rng.uniform(-4.0, 4.0)) for _ in range(200)]
    for m, b in draws + figure:
        for masses in (m, m[::-1]):
            try:
                count_all(masses, b)
            except ToleranceError:
                pass
    on_draws = len(settled)
    for _ in range(400):
        exps = sorted(rng.uniform(-4.0, 4.0) for _ in range(rng.randint(3, 7)))
        p = signomial.normalize([(rng.uniform(-9.0, 9.0), e) for e in exps])
        try:
            signomial.count_and_isolate(p)
        except ToleranceError:
            pass
    # 815 settled on the draws and 200 on the signomials
    assert on_draws > 600 and len(settled) - on_draws > 100


def test_anchor_fast_path_matches_log_reference(monkeypatch):
    rng = random.Random(9)
    # 10,696 recorded inputs; the pre-count of H spares most cells the h
    # chain's anchors, so 80 draws from a second generator keep the floor
    recorded = _recorded_anchor_inputs(
        monkeypatch, _census_draws(rng, 150, (-5.0, 5.0)) + _census_draws(rng, 150, (0.8, 1.2))
        + _census_draws(random.Random(10), 80, (-5.0, 5.0)))
    synthetic = _synthetic_inputs(rng)
    assert len(recorded) >= 10000 and len(recorded) + len(synthetic) >= 20000
    clamped = 0
    for pairs, tail, start in recorded + synthetic:
        want = _outcome(reference_sign_near_zero, pairs, tail, start)
        got = _outcome(certified_sign_near_zero, pairs, tail, start)
        if want.startswith("OverflowError"):
            # the reference's exp overflow in phase 2, now clamped: an answer
            # or a ToleranceError, never the traceback
            assert not got.startswith("OverflowError"), (pairs, tail, start)
            clamped += 1
            continue
        assert got == want, (pairs, tail, start)
    assert clamped > 0


def _counted(eval_fn):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return eval_fn(x)

    return wrapped, calls


def _noisy_eval(root, window, salt, cubic):
    """x**3 - root**3 or x - root, read as rounding noise within window * root of root.

    Inside the window the sign is pseudo-random in x and comes without a
    value, as sum_sign reports an fsum in the noise; outside it is exact.
    """
    def eval_fn(x):
        if abs(x - root) <= window * root:
            return (1 if random.Random(f"{salt}:{x!r}").random() < 0.5 else -1), None
        v = x ** 3 - root ** 3 if cubic else x - root
        return (1 if v > 0.0 else -1), v

    return eval_fn


# --- the bisection walk against plain bisection on the counter's refinements ---


def plain_bisection(eval_fn, lo, hi, sign_lo, rel_tol=DEFAULT_REL_TOL):
    """Geometric midpoints while hi > 8 * lo, then midpoints; every one evaluated."""
    for _ in range(3000):
        if hi - lo <= rel_tol * hi:
            return 0.5 * (lo + hi), lo, hi, False
        if hi > 8.0 * lo:
            mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        else:
            mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return mid, lo, hi, False
        s, _ = eval_fn(mid)
        if s == 0:
            return mid, mid, mid, True
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    raise ToleranceError("plain bisection failed to converge")


def test_untrusted_itp_bracket_uses_the_valued_points():
    # The interpolation steps land inside the noise window, whose points read
    # pseudo-random signs without a value. The walk closes its bracket on the
    # nearest points with a value and replays bisection between them: the
    # result is plain bisection's, in no more evaluations on any case.
    rng = random.Random(5)
    spans = (lambda: rng.uniform(1.05, 2.0), lambda: rng.uniform(2.0, 100.0))
    total = 0
    for i in range(300):
        root = rng.uniform(0.5, 5.0)
        window = 10.0 ** rng.uniform(-11.0, -9.0)
        lo = root / rng.choice(spans)()
        hi = root * rng.choice(spans)()
        eval_fn = _noisy_eval(root, window, i, cubic=i % 2 == 1)
        plain_fn, plain_calls = _counted(eval_fn)
        walk_fn, walk_calls = _counted(eval_fn)
        want = plain_bisection(plain_fn, lo, hi, -1)
        assert bisect_sign_change(walk_fn, lo, hi, -1) == want, (root, window, lo, hi)
        assert walk_calls[0] <= plain_calls[0], (root, window, lo, hi)
        total += walk_calls[0]
    # 9,218 evaluations in the ITP walk this replaced, 12,666 in plain
    # bisection, and about 8,000 now
    assert total <= 9_218


def test_refinements_return_plain_bisection(monkeypatch):
    # Every refinement count_all runs on seeded census and band_b1 draws (the
    # benchmark's, with mirrors) returns plain bisection's result bit for bit,
    # those whose evaluations read an exact zero included.
    walk = numerics.bisect_sign_change
    compared = []

    def checked(eval_fn, lo, hi, sign_lo, rel_tol=DEFAULT_REL_TOL):
        got = walk(eval_fn, lo, hi, sign_lo, rel_tol)
        compared.append((got, plain_bisection(eval_fn, lo, hi, sign_lo, rel_tol)))
        return got

    monkeypatch.setattr(numerics, "bisect_sign_change", checked)
    for name, b_range in (("census", (-5.0, 5.0)), ("band_b1", (0.8, 1.2))):
        for seed in (1, 2):
            rng = random.Random(f"{name}:{seed}")
            for m, b in _census_draws(rng, 900, b_range):
                for masses in (m, m[::-1]):
                    try:
                        count_all(masses, b)
                    except ToleranceError:
                        pass
    monkeypatch.undo()
    diffs = [(got, want) for got, want in compared if got != want]
    assert diffs == []
    # 14,698 refinements, 10,596 of them in the first 650 draws per seed
    assert len(compared) > 14_000


def test_stages_return_brackets_and_zero_reads_only(monkeypatch):
    # Every isolate_between call count_all makes, in the signomial engine
    # and in the g' and g stages of plain and symmetric views, returns each
    # sign change as the Bracket of its two points, and a zero read at a
    # chain root as its flagged RootRecord: never a refined root.
    real = numerics.isolate_between
    kinds = collections.Counter()

    def spy(*args, **kwargs):
        records = real(*args, **kwargs)
        for r in records:
            assert isinstance(r, Bracket) or type(r) is RootRecord and r.degenerate, r
            kinds[type(r).__name__] += 1
        return records

    monkeypatch.setattr(numerics, "isolate_between", spy)
    monkeypatch.setattr(euler, "isolate_between", spy)
    rng = random.Random(29)
    draws = _census_draws(rng, 150, (-5.0, 5.0)) + _census_draws(rng, 150, (0.8, 1.2))
    figure = [((1.0, rng.uniform(-4.0, 2.0), 1.0), rng.uniform(-4.0, 4.0)) for _ in range(150)]
    solutions = 0
    for m, b in draws + figure:
        for masses in (m, m[::-1]):
            try:
                solutions += len(count_all(masses, b)[1])
            except ToleranceError:
                pass
    # 4,162 Brackets, 10 zero reads and 1,700 solutions
    assert kinds["Bracket"] > 4_000 and kinds["RootRecord"] > 0 and solutions > 1_500
