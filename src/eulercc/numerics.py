"""Low-level numeric kernels shared by the root-counting modules.

Every "is this zero" question is asked relative to the sum of term
magnitudes at the evaluation point, never against an absolute epsilon:
the functions handled here mix wildly different exponents, so absolute
thresholds are meaningless.

Roots are refined on a certified bracket, which moves only on a certified
sign. Interpolation steps find the sign change in few evaluations; the root
reported is still the one plain bisection reports, bit for bit (see
bisect_sign_change).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# Cell counts are ints, or this marker for the identically-vanishing families.
INFINITE = math.inf

# Relative threshold below which the chain function at a refined root is
# treated as zero, which flags that root degenerate.
DEGENERACY_REL = 1e-8

# Tighter threshold at breakpoints and user-supplied finite endpoints: a value
# this far down in the noise is a zero of the function itself, not a sign.
BOUNDARY_ZERO_REL = 1e-12

# Default relative width at which refinement stops.
DEFAULT_REL_TOL = 1e-12


def check_tol(tol):
    """Raise ValueError unless the relative refinement width tol is in (0, 1).

    A breakpoint s is bracketed as s*(1 - tol)..s*(1 + tol), whose low end
    is no longer positive once tol >= 1.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite and positive and below 1, got {tol!r}")


# |exponent * log(base)| beyond which float powers may overflow and the
# mpmath tier is used instead.
LOG_SAFE = 660.0

_MP_DPS = 60

# An fsum within this multiple of the term magnitudes is inside the rounding
# noise of the terms (a few ulps each, times |exponent| for a rounded base):
# its sign still counts, but its magnitude is not passed on.
_NOISE_REL = 2.0 ** -48


class ToleranceError(RuntimeError):
    """A sign could not be certified within the configured evaluation precision."""


def float_terms(groups):
    """The float terms c * base**e of groups, or None where a power may overflow.

    groups are (pairs, base) with the (c, e) pairs on one base listed once,
    so each base takes one log per point. None when some |e * log(base)|
    exceeds LOG_SAFE; zero coefficients give no term.
    """
    terms = []
    for pairs, base in groups:
        log_base = math.log(base)
        for c, e in pairs:
            if c != 0.0:
                if abs(e * log_base) > LOG_SAFE:
                    return None
                terms.append(c * base ** e)
    return terms


def _fsum_tier(groups, terms=None):
    """(value, scale): the fsum of the terms and of their magnitudes, in floats.

    groups are as for float_terms; terms, when given, are their terms
    already computed (see sum_sign). scale is inf when it overflowed; both
    are inf when the value's fsum fails or a power may overflow.
    """
    if terms is None:
        terms = float_terms(groups)
        if terms is None:
            return math.inf, math.inf
    try:
        value = math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf - inf
        return math.inf, math.inf
    try:
        scale = math.fsum(map(abs, terms))
    except OverflowError:
        scale = math.inf
    return value, scale


def _mp_tier(groups, zero_rel):
    """(value, sign) of the sum at _MP_DPS digits; value as a float, maybe +/-inf."""
    import mpmath

    with mpmath.workdps(_MP_DPS):
        vals = [mpmath.mpf(c) * mpmath.power(base, e)
                for pairs, base in groups for c, e in pairs if c != 0.0]
        value = mpmath.fsum(vals)
        scale = mpmath.fsum(abs(v) for v in vals)
        if scale == 0 or abs(value) <= mpmath.mpf(zero_rel) * scale:
            return float(value), 0
        return float(value), (1 if value > 0 else -1)


def sum_value(groups):
    """Value of sum(c * base**e) over (pairs, base) groups, all bases > 0.

    Uses exact float summation (fsum); falls back to mpmath when the float
    range is exceeded by a power, a term or the sum, so the returned value
    may be +/-inf for results that genuinely overflow doubles.
    """
    value, _ = _fsum_tier(groups)
    if math.isfinite(value):
        return value
    return _mp_tier(groups, 0.0)[0]


def sum_sign(groups, zero_rel=DEGENERACY_REL, terms=None):
    """(sign, value) of sum(c * base**e); the sign is 0 below zero_rel * scale.

    groups are (pairs, base) as for sum_value; sign is in {-1, 0, 1}; scale
    is the sum of term magnitudes at the point. Two tiers: plain fsum when
    exponents are safely in float range and the terms and their magnitude
    sum stay finite, and 60-digit mpmath when they do not. value is the fsum
    that decided the sign, or None when mpmath decided it or the fsum is
    within rounding noise of the terms. groups is read again when the first
    tier refuses.

    terms, when given, are the float terms c * base**e of groups that the
    caller computed itself, in their order, after checking that no
    |e * log(base)| exceeds LOG_SAFE; they may include the terms of zero
    coefficients, which change neither correctly rounded sum. The first tier
    then sums them instead of computing its own.
    """
    value, scale = _fsum_tier(groups, terms)
    if math.isfinite(scale):
        if abs(value) <= zero_rel * scale:
            sign = 0
        else:
            sign = 1 if value > 0.0 else -1
        return sign, (value if abs(value) > _NOISE_REL * scale else None)
    return _mp_tier(groups, zero_rel)[1], None


class Tail(NamedTuple):
    """Bound on a truncated series remainder: |R(x)| <= coeff * x**exponent / (1 - ratio*x)."""

    coeff: float
    exponent: float
    ratio: float


_PROBE_FLOOR = 1e-280
_SHRINK = 0.0625
_PHASE1_PROBES = 10
_MARGIN = 0.5
_PAIR_MARGIN_LOG = 3.0
# The linear-space domination test decides only outside this relative band
# around its threshold, far wider than the rounding of either test; inside
# it, and for a lead coefficient below _LINEAR_MIN_LEAD (where |c0|/2 and
# the other terms may round in the subnormal range), the log-space test
# decides.
_GUARD_BAND = 1e-9
_LINEAR_MIN_LEAD = 1e-250
# A probe where one other term alone exceeds |c0|/2 by this log margin, far
# wider than the rounding of either test, fails both and is skipped.
_SKIP_MARGIN_LOG = 1e-6


def _linear_rest(pairs, tail, x):
    """sum(|c| x^(e - e0)) over pairs[1:], plus the tail bound over x^e0, or None.

    None when the linear sum cannot be trusted: it overflowed, a power
    x^(e - e0) fell below the normal range (where pow underflows to a
    subnormal or to 0 and a large |c| would scale up that loss), or the tail
    bound's ratio * x is within the guard band of 0.9, where the log-space
    test, which reads x back from its log, refuses.
    """
    e0 = pairs[0][1]
    # x < 1 and the exponents increase, so the last power is the smallest
    if len(pairs) > 1 and x ** (pairs[-1][1] - e0) < sys.float_info.min:
        return None
    try:
        s = math.fsum([abs(c) * x ** (e - e0) for c, e in pairs[1:]])
        if tail is not None and tail.coeff != 0.0:
            if tail.ratio * x >= 0.9 * (1.0 - _GUARD_BAND):
                return None
            power = x ** (tail.exponent - e0)
            if power < sys.float_info.min:
                return None
            s += tail.coeff * power / (1.0 - tail.ratio * x)
    except OverflowError:
        return None
    return s if math.isfinite(s) else None


def _log_space(pairs, tail):
    """(rel_log, rest, lead_log): the log-space form of the domination test.

    rest holds (log|c/c0|, e - e0) for pairs[1:]; rel_log(others, lx) is the
    log of the summed magnitudes of others (and the tail) relative to the
    leading term at x = e**lx.
    """
    c0, e0 = pairs[0]
    lead_log = math.log(abs(c0))
    rest = [(math.log(abs(c)) - lead_log, e - e0) for c, e in pairs[1:]]

    def rel_log(others, lx):
        parts = [lc + de * lx for lc, de in others]
        if tail is not None and tail.coeff != 0.0:
            x = math.exp(lx)
            if tail.ratio * x >= 0.9:
                return math.inf
            parts.append(math.log(tail.coeff) - lead_log + (tail.exponent - e0) * lx
                         - math.log(1.0 - tail.ratio * x))
        if not parts:
            return -math.inf
        top = max(parts)
        if top == math.inf:
            return math.inf
        return top + math.log(math.fsum(math.exp(v - top) for v in parts))

    return rel_log, rest, lead_log


def certified_sign_near_zero(pairs, tail=None, start=0.25):
    """(x0, sign) with the sign of sum(c x^e) certified constant on (0, x0].

    pairs must be sorted by strictly increasing exponent with nonzero
    coefficients; tail optionally bounds a truncated remainder. Two phases:

    1. magnitude domination of the leading term, whose ratios to all other
       contributions only shrink as x decreases. At each probe x the other
       magnitudes S = sum(|c| x^(e-e0)) plus the tail bound are compared
       with |c0|/2 in linear space; within a relative guard band of 1e-9
       of |c0|/2, or when S overflows, a power x^(e-e0) leaves the normal
       float range, |c0| is below 1e-250 or the tail's ratio * x nears
       0.9, the per-term logs are taken and the same
       comparison is made in log space at the same probe, so the answer is
       the log-space test's. Once the first probe fails, the next probes
       where the second term alone, |c1| x^(e1-e0), exceeds |c0|/2 by a
       log margin of 1e-6 are skipped without either test, since both
       would fail there; skipped probes still count against the phase's
       10 probes and stop at the probe floor, so the outcome is the one
       every probe gives (not for |c0| below 1e-250);
    2. when the two lowest exponents are too close for (1), the leading
       pair w(x) = c0 x^e0 + c1 x^e1 is handled exactly: it has at most one
       positive root at x* = (|c0|/|c1|)^(1/(e1-e0)), is monotone on either
       side, and keeps the sign of c0 below x*. Probing below x* until the
       remaining terms are dominated by the pair's certified minimum
       magnitude (in log space) yields the anchor.

    Raises ToleranceError when neither phase certifies above the probe
    floor (three or more exponents would have to cluster at the bottom of
    the spectrum, which the callers' functions never produce).
    """
    if not pairs:
        raise ToleranceError("cannot certify the sign of an empty sum")
    c0, e0 = pairs[0]
    sign0 = 1 if c0 > 0.0 else -1
    half = _MARGIN * abs(c0)
    linear = abs(c0) >= _LINEAR_MIN_LEAD
    log_space = None  # built on first use

    floor_log = math.log(_PROBE_FLOOR)
    shrink_log = math.log(_SHRINK)

    # Phase 1: quick single-term domination.
    x = min(start, 0.25)
    phase1 = _PHASE1_PROBES if len(pairs) > 1 else 10 ** 6
    skip = None  # (e1 - e0, log threshold), set once the first probe fails
    for _ in range(phase1):
        if x < _PROBE_FLOOR:
            raise ToleranceError("tail bound refused to shrink below the leading term")
        if skip is not None and skip[0] * math.log(x) >= skip[1]:
            # |c1| x^(e1 - e0) alone reaches |c0|/2: both tests fail here
            x *= _SHRINK
            continue
        s = _linear_rest(pairs, tail, x) if linear else None
        if s is not None and abs(s - half) > _GUARD_BAND * half:
            dominated = s < half
        else:
            if log_space is None:
                log_space = _log_space(pairs, tail)
            rel_log, rest, _ = log_space
            dominated = rel_log(rest, math.log(x)) < math.log(_MARGIN)
        if dominated:
            return x, sign0
        if skip is None and linear and len(pairs) > 1:
            c1, e1 = pairs[1]
            skip = (e1 - e0, math.log(half) - math.log(abs(c1)) + _SKIP_MARGIN_LOG)
        x *= _SHRINK

    # Phase 2: exact treatment of the leading pair w = c0 x^e0 + c1 x^e1.
    # Relative to c0 x^e0 the pair is rel(x) = 1 + (c1/c0) x^eps: monotone,
    # with at most one root. The certified zone is [zone_floor, x0] chosen a
    # safe log-margin away from that root; when the root falls below the
    # representable floor the zone sits above it and carries the opposite of
    # the 0+ limit sign (structure below the floor is out of numeric scope).
    rel_log, rest, lead_log = log_space or _log_space(pairs, tail)
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
        # only ever a lower bound inside min(1, ...), so a clamped exponent,
        # whose |rel| is still far above 1, leaves the result unchanged
        return abs(1.0 + math.copysign(math.exp(min(pair_log + eps * lx, 700.0)), c0 * c1))

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


# The two bounds of a short series decide a probe only outside this relative
# band around |c0|/2, far wider than their rounding and than the rounding of
# either test of certified_sign_near_zero on the full series.
_BOUND_BAND = 1e-6


def _bounded_sign_near_zero(pairs, tail, start):
    """certified_sign_near_zero on a full series, decided on a short one, or None.

    pairs are the full series' pairs below tail.exponent, with finite
    coefficients; tail bounds the magnitudes of all its other terms, and
    start is its first probe. At each probe of phase 1, L = fsum(|c| x^(e -
    e0)) over pairs[1:] bounds the full series' other magnitudes from below
    and U = L + the tail bound from above. U below |c0|/2 by the band is the
    full series' anchor (x, sign); L above it by the band fails the probe,
    as the full series' tests and skips do. Anything else is undecided
    (None): a probe between the two, a U that cannot be trusted (ratio * x
    near 0.9, a power below the normal range), |c0| below 1e-250, and
    phase 1 running out.
    """
    if not pairs or abs(pairs[0][0]) < _LINEAR_MIN_LEAD:
        return None
    c0, e0 = pairs[0]
    half = _MARGIN * abs(c0)
    above, below = half * (1.0 + _BOUND_BAND), half * (1.0 - _BOUND_BAND)
    x = min(start, 0.25)
    if len(pairs) > 1:
        # the second term alone fails phase 1's last probe, and so every probe
        c1, e1 = pairs[1]
        if abs(c1) * (x * _SHRINK ** (_PHASE1_PROBES - 1)) ** (e1 - e0) > above:
            return None
    last = pairs[-1][1] - e0
    for _ in range(_PHASE1_PROBES):
        if x < _PROBE_FLOOR:
            return None
        lower = math.fsum([abs(c) * x ** (e - e0) for c, e in pairs[1:]])
        if lower <= above:
            if x ** last < sys.float_info.min:
                return None
            upper = lower
            if tail.coeff != 0.0:
                rx = tail.ratio * x
                power = x ** (tail.exponent - e0)
                if rx >= 0.9 or power < sys.float_info.min:
                    return None
                upper += tail.coeff * power / (1.0 - rx)
            return (x, 1 if c0 > 0.0 else -1) if upper < below else None
        x *= _SHRINK
    return None


class RootRecord(NamedTuple):
    """An isolated root: bracketing interval, refined value, degeneracy flag.

    For degenerate=False the function changes sign across [lo, hi], or
    lo == hi == value where it evaluates to exactly zero; for
    degenerate=True the root sits where the bracketing derivative-chain
    function is itself below the degeneracy threshold, so the bracket is
    only a location estimate. refine_bracket makes one from a Bracket, and
    isolate_between returns one, flagged, for a zero read at a chain root.
    """

    lo: float
    hi: float
    value: float
    degenerate: bool


class Bracket(NamedTuple):
    """An unrefined root: the function changes sign exactly once across [lo, hi].

    sign is its certified sign at lo. isolate_between returns every sign
    change as one; as a chain root of a later stage it is read by its ends,
    and refine_bracket refines it for a caller that wants the root. value
    is nan and degenerate False, so a caller that only counts roots takes a
    Bracket where it takes a RootRecord.
    """

    lo: float
    hi: float
    sign: int
    value = math.nan
    degenerate = False


# The interpolation steps truncate and project as ITP does (Oliveira &
# Takahashi, ACM TOMS 47(1), 2020). The interpolated point moves toward the
# midpoint by w0 * (w / w0)**_ITP_K2, w the bracket width and w0 its width
# when the steps began, so the bracket closes from both sides. The
# projection is the halving safeguard: after k steps the bracket is at most
# 2**(_ITP_N0 - k) * w0 wide, _ITP_N0 steps of slack over bisection.
_ITP_K2 = 2.5
_ITP_N0 = 1
# Trial points move _END_GUARD * rel_tol * hi toward the midpoint and keep
# that far from both bracket ends: a step that would land on the root lands
# just past it, the next one just before it, and the bracket closes on two
# points with a value instead of one inside the rounding noise.
_END_GUARD = 0.25
# Growth of the outward steps that close a bracket around rounding noise.
_OUTWARD = 8.0
# Iteration budget of the interpolation steps.
_MAX_ITER = 3000


def _interpolate(nodes, lo, hi):
    """The zero of the inverse quadratic through the last three nodes, or else
    of the secant through the last two, when it lies in (lo, hi); else None.

    nodes are the (x, value) points read with a value, oldest first. The
    inverse quadratic is x as a quadratic in the value (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4), in Newton's divided
    differences, whose first term is the secant. An interpolant whose
    values repeat, or whose zero is not finite or falls outside the bracket,
    is passed over.
    """
    n = len(nodes)
    if n < 2:
        return None
    x1, y1 = nodes[-2]
    x2, y2 = nodes[-1]
    if y1 == y2:
        return None
    d12 = (x2 - x1) / (y2 - y1)
    if n > 2:
        x0, y0 = nodes[-3]
        if y0 != y1 and y0 != y2:
            d01 = (x1 - x0) / (y1 - y0)
            x = x2 - d12 * y2 + (d12 - d01) / (y2 - y0) * y2 * y1
            if lo < x < hi:
                return x
    x = x2 - d12 * y2
    return x if lo < x < hi else None


def _valued_ends(eval_fn, x, lo, hi, sign_lo, rel_tol):
    """(l, h): the nearest points on either side of x with a value and that side's sign.

    x, inside (lo, hi), read an exact zero or a value inside the rounding
    noise. From x the steps go outward, rel_tol * hi first and _OUTWARD
    times farther at each step, to the first point with a value and the sign
    of its side; on a side where the next step would reach lo (hi), the
    bound is lo (hi), the latest point that bounds the walk there.
    """
    ends = []
    for end, side, sign in ((lo, -1.0, sign_lo), (hi, 1.0, -sign_lo)):
        d = rel_tol * hi
        while lo < (y := x + side * d) < hi:
            s, v = eval_fn(y)
            if s == sign and v is not None:
                end = y
                break
            d *= _OUTWARD
        ends.append(end)
    return tuple(ends)


def _itp_bracket(eval_fn, lo, hi, sign_lo, rel_tol, nodes):
    """Interpolation steps on [lo, hi], hi <= 8 * lo: bounds (l, h) of the sign change.

    nodes are the (x, value) points read with a value so far, oldest first;
    the steps append theirs. Each step evaluates the zero that _interpolate
    finds, truncated toward the midpoint, projected onto the halving
    safeguard and kept off the ends (_ITP_K2, _ITP_N0, _END_GUARD), or the
    midpoint when there is none; a point's sign moves the bracket.

    Only points that order the signs bound the walk: points with a value
    (outside the 2**-48 rounding noise, where a monotone function's float
    sign is its true sign), the ends the steps began from, and, while every
    step so far was the midpoint, bisection's own path points. An exact zero
    or a value inside the noise at an interpolated point bounds nothing:
    the steps stop there, and (l, h) are the nearest points with a value
    around it (_valued_ends). Otherwise (l, h) is the converged bracket,
    h - l <= rel_tol * h or no float between; or l == h, an exact zero on
    bisection's own path, which is bisection's answer.
    """
    w0 = hi - lo
    reach = math.ldexp(w0, _ITP_N0 - 1)  # the safeguard: |x - mid| <= reach - w / 2
    on_path = True  # every step so far was bisection's own midpoint
    for _ in range(_MAX_ITER):
        w = hi - lo
        mid = 0.5 * (lo + hi)
        if w <= rel_tol * hi or not lo < mid < hi:
            return lo, hi
        x = _interpolate(nodes, lo, hi)
        if x is None:
            x = mid
        else:
            # truncated toward the midpoint, projected, kept off the ends: the
            # distance from the midpoint that is left, on the same side
            guard = _END_GUARD * rel_tol * hi
            d = min(abs(x - mid) - max(guard, w0 * (w / w0) ** _ITP_K2),
                    reach - 0.5 * w, 0.5 * w - guard)
            x = (mid + d if x > mid else mid - d) if d > 0.0 else mid
        reach *= 0.5
        on_path = on_path and x == mid
        s, v = eval_fn(x)
        if s == 0 and on_path:
            return x, x
        if s == 0 or v is None and not on_path:
            return _valued_ends(eval_fn, x, lo, hi, sign_lo, rel_tol)
        if s == sign_lo:
            lo = x
        else:
            hi = x
        if v is not None:
            nodes.append((x, v))
    raise ToleranceError("interpolation steps failed to converge within iteration budget")


def bisect_sign_change(eval_fn, lo, hi, sign_lo, rel_tol=DEFAULT_REL_TOL):
    """Refine a certified sign change on [lo, hi], 0 < lo < hi, to plain bisection's result.

    eval_fn(x) returns (sign, value) as sum_sign(groups, 0.0) does; value
    is None inside the rounding noise, or always for a caller that reads
    signs only. Plain bisection splits a bracket spanning more than a
    factor of 8 at its geometric midpoint, so brackets reaching toward 0 or
    infinity converge in O(log log-range) steps, and after that at its
    midpoint, until the width is at most rel_tol * hi; it evaluates every
    midpoint.

    The walk evaluates the geometric midpoints as plain bisection does. On
    the bracket of at most a factor of 8 that follows, interpolation steps
    (_itp_bracket) start from the values read at those midpoints, if any,
    and find bounds l < h of the sign change: points with a value, never an
    exact zero or a value inside the noise. The walk then replays plain
    bisection from that bracket: a midpoint between l and h is evaluated,
    and one outside only decides the side. So the result is the one plain
    bisection returns, bit for bit, exact zeros included.

    Returns (value, lo, hi, hit_zero); at an exact zero lo == hi == value.
    """
    nodes = []
    while hi > 8.0 * lo:
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        if not lo < mid < hi:  # bracket exhausted float resolution
            return mid, lo, hi, False
        s, v = eval_fn(mid)
        if s == 0:
            return mid, mid, mid, True
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
        if v is not None:
            nodes.append((mid, v))
    l, h = _itp_bracket(eval_fn, lo, hi, sign_lo, rel_tol, nodes)
    if l == h:
        return l, l, l, True
    while True:  # the replay
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * hi or not lo < mid < hi:
            return mid, lo, hi, False
        if mid <= l:
            s = sign_lo
        elif mid >= h:
            s = -sign_lo
        else:
            s, _ = eval_fn(mid)
            if s == 0:
                return mid, mid, mid, True
        if s == sign_lo:
            lo = mid
        else:
            hi = mid


# A breakpoint whose bracket ends cannot decide is narrowed by this many
# bisection steps on the chain function between two readings of the ends,
# for at most this many rounds, before its chain root is refined in full.
_NARROW_STEPS = 4
_NARROW_ROUNDS = 2

# The term-range bound settles a bracket only when it clears zero by this
# share of the terms' largest magnitudes: far above the rounding of the
# terms and of their fsums, and above BOUNDARY_ZERO_REL, so that the target
# would read the bound's sign at any point of the bracket.
_BOUND_REL = 1e-10


def _decides(ends, sign):
    """True when a bracket end shows the target's sign at the extremum inside.

    That sign is the chain function's sign at the low end (see
    _read_bracket); the end must read it with a value outside the rounding
    noise, and neither end may read zero.
    """
    (_, sa, va), (_, sc, vc) = ends
    return sa != 0 and sc != 0 and (sa == sign and va is not None
                                    or sc == sign and vc is not None)


def _far_side(terms, lo, hi, sign):
    """True when the target's term range proves it of sign -sign on all of [lo, hi].

    terms(x) is the target's float terms at x, each monotone in x, or None
    where a power may overflow. Over [lo, hi] each term lies between its
    values at the ends, so the sum of the larger (sign > 0, a maximum
    inside) or of the smaller (sign < 0, a minimum) end values bounds the
    target there from that side (a one-sided interval enclosure). It must
    clear zero by _BOUND_REL of the sum of the terms' larger end
    magnitudes. False when it does not, or an end's terms or the sums
    cannot be had in floats.
    """
    at_lo, at_hi = terms(lo), terms(hi)
    if at_lo is None or at_hi is None:
        return False
    pick = max if sign > 0 else min
    try:
        bound = math.fsum(map(pick, at_lo, at_hi))
        scale = math.fsum([max(abs(a), abs(c)) for a, c in zip(at_lo, at_hi)])
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf - inf
        return False
    return math.isfinite(scale) and sign * bound < -_BOUND_REL * scale


def _read_bracket(read, chain_fn, bracket, rel_tol, terms):
    """(ends, root): a chain root's bracket read at its ends, and the root if they cannot decide.

    read(x) is the target's (x, sign, value) with BOUNDARY_ZERO_REL, read
    once per point, and chain_fn(x) the chain function's (sign, value) with
    threshold 0. The target is monotone on either side of the chain root,
    which is the one extremum in the bracket: a maximum where the chain
    function is positive at the low end, a minimum where it is negative.
    So an end where the target has that sign shows the target's sign at
    the root (_decides), and root is None. Where both ends read the other
    sign, terms (the target's terms at a point, or None) bound the target
    over the bracket (_far_side): when the bound keeps that sign,
    the extremum lies on the far side of zero, and root is None too.
    Otherwise the bracket is narrowed, _NARROW_STEPS bisection steps on the
    chain function at a time, each on a sign read with a value, and its
    ends are read again and bounded again, for at most _NARROW_ROUNDS
    rounds. When they still do not decide, the chain root is refined by
    bisect_sign_change and root is its RootRecord. ends are the two last
    read, inside the bracket either way.
    """
    lo, hi, sign = bracket
    for step in range(_NARROW_ROUNDS * _NARROW_STEPS + 1):
        if step % _NARROW_STEPS == 0:
            ends = read(lo), read(hi)
            if _decides(ends, sign) or (terms is not None and ends[0][1] == ends[1][1] == -sign
                                        and _far_side(terms, lo, hi, sign)):
                return ends, None
        if step == _NARROW_ROUNDS * _NARROW_STEPS:
            break
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi))) if hi > 8.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s, v = chain_fn(mid)
        if s == 0 or v is None:
            break
        if s == sign:
            lo = mid
        else:
            hi = mid
    value, lo, hi, _ = bisect_sign_change(chain_fn, lo, hi, sign, rel_tol)
    return ends, RootRecord(lo=lo, hi=hi, value=value, degenerate=False)


def refine_bracket(sign_fn, chain_sign_fn, bracket, rel_tol=DEFAULT_REL_TOL):
    """The RootRecord of a Bracket's sign change, refined by bisect_sign_change.

    sign_fn and chain_sign_fn are those of the isolate_between call that
    returned the Bracket. The target is read with threshold 0.0 from the
    bracket alone, and the root is flagged degenerate when the chain
    function reads 0 there at DEGENERACY_REL.
    """
    value, lo, hi, _ = bisect_sign_change(lambda x: sign_fn(x, 0.0), bracket.lo, bracket.hi,
                                          bracket.sign, rel_tol)
    # A mid-point landing exactly on zero says nothing about degeneracy;
    # only the chain function's magnitude at the root does.
    degenerate = chain_sign_fn(value, DEGENERACY_REL)[0] == 0
    return RootRecord(lo=lo, hi=hi, value=value, degenerate=degenerate)


def isolate_between(sign_fn, chain_sign_fn, left, right, chain_roots,
                    rel_tol=DEFAULT_REL_TOL):
    """One stage of a derivative chain: the roots of a target between anchors.

    sign_fn(x, zero_rel) and chain_sign_fn(x, zero_rel) return the (sign,
    value) of the target and of its chain function at x, as sum_sign does
    on their groups with that threshold. chain_roots are the chain
    function's roots (the lower stage's records, sorted), between which the
    target is strictly monotone: the chain function has the sign of the
    derivative of the target times a positive function. left and right
    are (x, sign) anchors whose signs are certified constant beyond them
    (toward 0+ and +infinity respectively, or exact boundary values). An
    anchor with sign 0 is a boundary zero and is not recorded.

    The target's sign at each chain root is read with BOUNDARY_ZERO_REL.
    A chain root that is a RootRecord is read at its value. A Bracket is
    read at its ends, bounded by the target's term range where they read
    the far side's sign, narrowed and at last refined when neither decides
    (_read_bracket). The bound needs sign_fn.terms(x), the target's float
    terms at x, each monotone in x, or None where a power may overflow; a
    sign_fn without it is never bounded. A bracket with an end beyond an
    anchor is read the same way, and only its ends between the anchors are
    kept. One wholly beyond an anchor is skipped unread. A sign of 0 at a
    chain root is itself a root of the target, recorded once with the
    chain root's bracket and flagged degenerate. The other roots are the
    sign changes between consecutive points read, the anchors and the
    bracket ends with a sign included; each lies alone between its two
    points and is returned as their Bracket, neither refined nor tested for
    degeneracy. A later stage reads it as a chain root by its ends, and a
    caller that wants the root refines it with refine_bracket. The records
    come in increasing order.
    """
    xl, sl = left
    xr, sr = right
    if xl >= xr:
        # Certified constant-sign zones overlap: no room for any root.
        if sl != 0 and sr != 0 and sl != sr:
            raise ToleranceError("conflicting certified signs on overlapping zones")
        return []
    read_at = {}
    terms = getattr(sign_fn, "terms", None)

    def read(x):
        if x not in read_at:
            read_at[x] = (x, *sign_fn(x, BOUNDARY_ZERO_REL))
        return read_at[x]

    out = []
    prev = left

    def visit(point):
        # the roots between prev and point, then point becomes prev
        nonlocal prev
        (xa, sa), (xb, sb) = prev[:2], point[:2]
        prev = point
        if sa != 0 and sb != 0 and sa != sb:
            out.append(Bracket(lo=xa, hi=xb, sign=sa))

    def chain_fn(x):
        return chain_sign_fn(x, 0.0)

    def end(point):
        # a bracket end with a sign, between the anchors
        if point[1] != 0 and xl < point[0] < xr:
            visit(point)

    def at_chain_root(r):
        if xl < r.value < xr:
            point = read(r.value)
            visit(point)
            if point[1] == 0:
                out.append(RootRecord(lo=r.lo, hi=r.hi, value=r.value, degenerate=True))

    for r in chain_roots:
        if isinstance(r, Bracket):
            if r.hi <= xl or r.lo >= xr:
                continue
            (a, c), r = _read_bracket(read, chain_fn, r, rel_tol, terms)
            end(a)
            if r is not None:
                at_chain_root(r)
            end(c)
        else:
            at_chain_root(r)
    visit(right)
    return out


def run_chain(levels, rel_tol):
    """The top level's records of one derivative chain, whose levels come lowest first.

    A level is a (sign_fn, chain_sign_fn, ends) triple: isolate_between's
    functions, and ends(records_below) -> (left, right, chain_roots). The
    lowest level's chain function has no roots, so its ends get []; with
    no levels the records are [].
    """
    records = []
    for sign_fn, chain_sign_fn, ends in levels:
        records = isolate_between(sign_fn, chain_sign_fn, *ends(records), rel_tol=rel_tol)
    return records
