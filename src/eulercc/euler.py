"""Collinear central configurations of three bodies: counting and isolation.

Positions are normalized so the cell's left, middle, and right particles
sit at 0, 1, and 1+s with shape parameter s > 0. The balance function

    g(s) = (m2+m3) s^b + (m1+m3)(1+s)^b + m3 (s^(b+1) - (1+s)^(b+1))
           - m1 (1+s) - m2 s

vanishes exactly at the central configurations of the cell; b = -2 is
the gravitational case, b = -1 the point-vortex case. The counting
pipeline walks a derivative chain: the second derivative transforms
under y = s/(1+s) into a four-term signomial H = b(b-1)*h on (0, 1)
(h_signomial), whose roots are isolated by the certified signomial
engine; the sign-constant pieces of g'' then locate the roots of g', and
those in turn the roots of g. The roots of H and of g' stay unrefined
brackets between certified points: the function one stage up has a
single extremum in each bracket, at the root, so an end where it already
has the extremum's sign gives its sign there, and a bracket is narrowed,
and at last refined, only when neither end does. Only the roots of g are
refined, and only when they are asked for. Where H is empty and g is not
identically zero, g is affine in s and its root is read off directly.
Before the signomial engine runs, an exact pre-count reads H's
coefficient signs, H(1) = 0 and the sign of H'(1) (Descartes, parity and
Rolle, see _no_roots_below_one): where they show H rootless on (0, 1),
g'' has no breakpoint and the h stage is skipped; where they cannot
decide, the engine isolates H's roots as before.
Signs at the open ends 0+ and +infinity are certified by expanding g
into its exact generalized power series at 0 (binomial coefficients,
explicit tail bound) and probing until the leading term dominates; the
end at +infinity reduces to the end at 0 through the reflection identity
g_{m1,m2,m3}(1/s) = -s^(-b-1) g_{m3,m2,m1}(s). Each anchor is first
tried on a short series, cut at a low order with its own tail bound,
whose lower and upper bounds on the full series' other magnitudes decide
most probes; the full series is built only for an end where they do not,
and the anchor is the full series' either way. A b so large that the
binomial coefficients overflow floats has no finite tail bound, and its
count is refused with ToleranceError.
Before any anchor is built for a cell whose g'' has no breakpoint, the
signs of g' and g at both ends are read from the leading pairs of their
exact series, with no probe (_end_sign). Where g' has one sign at both
ends, g is monotone, and its end signs give its count, 0 or 1; only a
root that is asked for is then isolated, between g's anchors. Every other
cell, and every end whose leading pair cannot settle its sign, is
anchored as above.

A symmetric view, whose left and right masses are equal, is its own
reflection, g(1/s) = -s^(-b-1) g(s): g(1) = 0 exactly, and the other roots
pair as s <-> 1/s. Its chain runs on s in (0, 1) alone, H on y in
(0, 1/2), and ends at s = 1, where g'(1) read by the kernel anchors the g'
stage and g just left of 1 has the opposite sign; no series at +infinity
is built. The roots are those of the half, s = 1, and the half's
reciprocals (see _fold). Cell 2 of every figure point (1, m2, 1) is such a
view; its cell 3 is still cell 1 reflected.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter
from typing import NamedTuple

from .numerics import (
    BOUNDARY_ZERO_REL,
    DEFAULT_REL_TOL,
    DEGENERACY_REL,
    INFINITE,
    LOG_SAFE,
    _LINEAR_MIN_LEAD,
    _PROBE_FLOOR,
    Bracket,
    RootRecord,
    Tail,
    ToleranceError,
    _bounded_sign_near_zero,
    certified_sign_near_zero,
    check_tol,
    isolate_between,
    refine_bracket,
    run_chain,
    sum_sign,
    sum_value,
)
from .signomial import Endpoint, Signomial, _levels, merge_sorted, normalize, sign_variations

__all__ = [
    "INFINITE",
    "CellCount",
    "ConfigurationSolution",
    "abc_terms",
    "eval_g",
    "h_signomial",
    "degenerate_family",
    "endpoint_sign_g",
    "cell_mass_view",
    "count_cell",
    "count_all",
    "celli_identity_residual",
]

# The (left, middle, right) particle indices of each cell. Each entry is its
# own inverse, so it also maps particles to their (left, middle, right) slots.
_CELL_ORDER = {1: (1, 0, 2), 2: (0, 1, 2), 3: (0, 2, 1)}
CELLS = tuple(_CELL_ORDER)


def _masses(m):
    """The float triple (m1, m2, m3) of any three reals; ValueError on a wrong length.

    Masses (gravitational case) or vorticities (vortex case), of any signs.
    """
    m1, m2, m3 = m
    return float(m1), float(m2), float(m3)


def _finite_masses(m, b):
    """The float triple of m; ValueError naming the masses or b when one is not finite."""
    m = _masses(m)
    if not all(map(math.isfinite, m)):
        raise ValueError(f"masses must be finite, got {m}")
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b!r}")
    return m


class CellCount(NamedTuple):
    """Per-cell configuration counts; INFINITE marks a degenerate family."""

    e1: float
    e2: float
    e3: float
    total: float

    @classmethod
    def of(cls, e1, e2, e3):
        total = INFINITE if INFINITE in (e1, e2, e3) else e1 + e2 + e3
        return cls(e1, e2, e3, total)

    @property
    def is_finite(self):
        return self.total != INFINITE


class ConfigurationSolution(NamedTuple):
    """One central configuration: cell, shape parameter, normalized positions.

    positions is (x1, x2, x3) with the cell's left/middle/right particles
    at 0, 1, 1+s. degenerate flags a root within threshold of a g' root.
    """

    cell: int
    s: float
    positions: tuple[float, float, float]
    degenerate: bool


def abc_terms(b, s):
    """The mass-coefficient functions (A, B, C) with g = m1*A + m2*B + m3*C.

    Raises ValueError when s is not in (0, inf) or b is not finite.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"abc_terms requires 0 < s < inf, got s = {s!r}")
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b!r}")
    u = 1.0 + s
    a = u * (u ** (b - 1.0) - 1.0)
    bb = s * (s ** (b - 1.0) - 1.0)
    c = s * u * (s ** (b - 1.0) - u ** (b - 1.0))
    return a, bb, c


def _g_pairs(m, b):
    """The (c, e) pairs of g, three on the base s and three on 1 + s."""
    m1, m2, m3 = m
    return ((m2 + m3, b), (m3, b + 1.0), (-m2, 1.0)), ((m1 + m3, b), (-m3, b + 1.0), (-m1, 1.0))


def _gp_pairs(m, b):
    """The (c, e) pairs of g' in the layout of _g_pairs.

    The third pair on s is (0, 0), and the third on 1 + s is the constant
    term (c, 0).
    """
    m1, m2, m3 = m
    return (((b * (m2 + m3), b - 1.0), ((b + 1.0) * m3, b), (0.0, 0.0)),
            ((b * (m1 + m3), b - 1.0), (-(b + 1.0) * m3, b), (-(m1 + m2), 0.0)))


def _groups(on_s, on_u):
    """s -> the (pairs, base) groups at s of the stage function with these pairs."""
    return lambda s: ((on_s, s), (on_u, 1.0 + s))


# The stage evaluator below computes the six terms c * base**e of g or g'
# itself and hands them to sum_sign, which decides the sign on them as its
# first tier does on the groups: the same terms in the same order, with
# the zero coefficients' terms left in, which change neither correctly
# rounded fsum. So the pair (0, 0) of g' on s adds a 0, and its constant
# term, c * (1+s)**0, is c. It does so only where every |e * log(base)| is
# safely below LOG_SAFE (_safe_range), so the first tier computes them
# too; elsewhere sum_sign gets the groups alone and picks its tier itself.


def _safe_range(top):
    """(lo, hi): for lo < s < hi, |e * log(base)| < LOG_SAFE on the bases s and 1 + s.

    That holds for every |e| <= top, top > 0, with a relative margin of
    2**-20 for the rounding of the logs and of 1 + s.
    """
    lim = LOG_SAFE / top * (1.0 - 2.0 ** -20)
    return math.exp(-lim), (math.exp(lim) - 1.0 if lim < 709.0 else math.inf)


def _stage_sign(on_s, on_u):
    """(s, zero_rel) -> sum_sign(_groups(on_s, on_u)(s), zero_rel), the six terms computed here.

    on_s and on_u are three (c, e) pairs each, as _g_pairs and _gp_pairs
    give them. Its terms(s) are those six terms, or None outside
    _safe_range.
    """
    ((c1, e1), (c2, e2), (c3, e3)), ((d1, f1), (d2, f2), (d3, f3)) = on_s, on_u
    lo, hi = _safe_range(max(map(abs, (e1, e2, e3, f1, f2, f3))))

    def terms(s):
        if lo < s < hi:
            u = 1.0 + s
            return [c1 * s ** e1, c2 * s ** e2, c3 * s ** e3,
                    d1 * u ** f1, d2 * u ** f2, d3 * u ** f3]
        return None

    def sign(s, zero_rel):
        return sum_sign(((on_s, s), (on_u, 1.0 + s)), zero_rel, terms(s))

    sign.terms = terms
    return sign


def eval_g(m, b, s) -> float:
    """The configuration balance function g at shape parameter s > 0.

    Raises ValueError when a mass or b is not finite, or s is not in (0, inf).
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"eval_g requires 0 < s < inf, got s = {s!r}")
    return sum_value(_groups(*_g_pairs(_finite_masses(m, b), b))(s))


def h_signomial(m, b) -> Signomial:
    """H = b(b-1)*h as a signomial in y (exponents b-1, b-2, 1, 0), normalized.

    h is the curvature kernel: g''(s) = (1-y)^(1-b) * H(y) with
    s = y/(1-y), and h(1) = 0 always. Exponent collisions at b in {1, 2, 3}
    merge exactly. H is empty at b in {0, 1}, where the prefactor b(b-1)
    cancels every coefficient exactly, and on the degenerate families and
    the parameter sets where g is affine in s (see _affine_roots). Raises
    ValueError when a mass or b is not finite.
    """
    m1, m2, m3 = _finite_masses(m, b)
    bb = b * (b - 1.0)
    return normalize([
        (-bb * m2 + 2.0 * b * m3, b - 1.0),
        (bb * (m2 + m3), b - 2.0),
        (-bb * (m1 + m3), 1.0),
        (bb * m1 - 2.0 * b * m3, 0.0),
    ])


def _no_roots_below_one(h):
    """True when H = h_signomial(...), of pairs (c_i, e_i), has no root in (0, 1); False defers.

    It decides only when H(1) reads 0 at BOUNDARY_ZERO_REL, so y = 1 is the
    chain's boundary zero, and H'(1) does not. By Descartes, v sign
    variations allow at most v positive roots, one of them y = 1. H just
    left of 1 has the sign of -H'(1); where sigma, H's sign at 0+ (its
    lowest-exponent coefficient's), matches it, (0, 1) holds an even
    number. So v = 1 allows none, and so does v = 2 with that parity. For
    v = 3, four alternating terms, Rolle bounds the roots in (0, 1) by those
    of (y^-e1 H)' = y^(e2-e1-1) Q, where sigma Q = B - A y^-alpha - C y^beta
    with A = |c0|(e1-e0), B = |c2|(e2-e1), C = |c3|(e3-e1), alpha = e2-e0
    and beta = e3-e2. It rises to one maximum, at y_r with
    y_r^(alpha+beta) = A alpha / (C beta), and then falls. With y_r >= 1
    it has at most one root in (0, 1), which the parity leaves none; with
    sigma Q < 0 on a log-interval around y_r, each term bounded at the end
    where it is largest, it has none. Both tests keep a relative margin of
    1e-9 in the logs for rounding.
    """
    cs = [c for c, _ in h.pairs]
    if abs(math.fsum(cs)) > BOUNDARY_ZERO_REL * math.fsum(map(abs, cs)):
        return False
    v = sign_variations(h)
    if v == 1:
        return True
    slopes = [c * e for c, e in h.pairs]
    slope = math.fsum(slopes)
    if (abs(slope) <= BOUNDARY_ZERO_REL * math.fsum(map(abs, slopes))
            or (slope > 0.0) == (cs[0] > 0.0)):
        return False
    if v == 2:
        return True
    (c0, e0), (_, e1), (c2, e2), (c3, e3) = h.pairs
    alpha, beta = e2 - e0, e3 - e2
    log_a = math.log(abs(c0)) + math.log(e1 - e0)
    log_c = math.log(abs(c3)) + math.log(e3 - e1)
    log_yr = (log_a + math.log(alpha) - log_c - math.log(beta)) / (alpha + beta)
    w = 1e-9 * (1.0 + abs(log_yr))
    if log_yr > w:
        return True
    # log A - alpha log y at the interval's top, log C + beta log y at its bottom
    t1, t3 = log_a - alpha * (log_yr + w), log_c + beta * (log_yr - w)
    top = max(t1, t3)
    log_b = math.log(abs(c2)) + math.log(e2 - e1)
    return log_b < top + math.log1p(math.exp(min(t1, t3) - top)) - 1e-9 * (1.0 + abs(top))


def degenerate_family(m, b):
    """The case tag 'i'..'v' when g vanishes identically on the cell, else None."""
    m1, m2, m3 = _masses(m)
    if m1 == 0.0 and m2 == 0.0 and m3 == 0.0:
        return "i"
    if b == 0.0 and m1 == -m2 and m3 == m1:
        return "ii"
    if b == 1.0:
        return "iii"
    if b == 2.0 and m2 == 0.0 and m1 == m3:
        return "iv"
    if b == 3.0 and m1 == m2 and m2 == m3:
        return "v"
    return None


# --- exact series of g at s -> 0 and its certified leading sign ---------------


class _Series(NamedTuple):
    pairs: tuple  # (c, e): strictly increasing e, nonzero c
    tail: Tail    # bounds the summed magnitudes of all terms beyond pairs
    full: Tail    # the tail of the full series, whose ratio sets the first probe


def _tail_ratio(b, order):
    """The ratio of the tail bound of a 0+ series cut at order.

    Beyond the cut, |C(b, k+1) / C(b, k)| = |b - k| / (k + 1) stays below
    it, and so does the ratio for b + 1.
    """
    return 1.0 + (max(abs(b), abs(b + 1.0)) + 1.0) / (order + 1.0)


@functools.lru_cache(maxsize=1)
def _binomials(b):
    """(rows, ratio, peak): rows[i] = (C(b, k), C(b+1, k), k) for k = 3 + i up to the order.

    Both come from one recurrence and depend on b alone, so every 0+ series
    at this b shares them; the last row (k = order) and ratio feed the tail
    bound of the full series, and peak is the largest |C| of the rows. Once
    a running coefficient overflows floats, every later one is +/-inf or nan
    and no finite tail bound exists: the rows then stop, the first
    non-finite row is the last one, and ratio and peak are inf. The rows
    above it still give the low-order coefficients endpoint_sign_g reads.
    The table of the latest b is kept, so the cells of count_all, which
    call count_cell at one b, build it once.
    """
    order = max(14, 2 * int(math.ceil(max(abs(b), abs(b + 1.0)))) + 6)
    b1 = b + 1.0
    cb = 1.0    # running C(b, k)
    cb1 = 1.0   # running C(b+1, k)
    peak = 0.0
    rows = []
    for k in range(order):
        if k >= 3:
            rows.append((cb, cb1, float(k)))
            peak = max(peak, abs(cb), abs(cb1))
        d = k + 1.0
        cb *= (b - k) / d
        cb1 *= (b1 - k) / d
        if not (math.isfinite(cb) and math.isfinite(cb1)):
            rows.append((cb, cb1, d))
            return tuple(rows), math.inf, math.inf
    rows.append((cb, cb1, float(order)))
    return tuple(rows), _tail_ratio(b, order), max(peak, abs(cb), abs(cb1))


# Below this bound on the magnitudes of the full series' coefficients, of
# g and g' at either end, none of them overflows floats (see _short_order).
_FINITE_SERIES = 1e300


def _short_order(m, b):
    """The order J of the short 0+ series of g for the triple m, or None.

    J = max(5, floor(b) + 3), and floor(-b) + 3 for b < -5: b + 1 < J, so
    no term of the short series merges with a term beyond it, and the tail
    exponent J - b - 1 at +infinity is positive. Growing with |b|, J keeps
    the tail ratio 1 + (max(|b|, |b + 1|) + 1)/(J + 1) at most 2, so the
    short series' tail bound holds at the first probes on both sides of
    b = 0. None when the coefficients of the full series,
    of g or g', might overflow floats at either end: the full series
    refuses those anchors (see _end_anchors), so the short one must not decide
    them. The full series' coefficients are at most the sum of |m| times
    2 * peak + 2 * b^2 + 8, and a derivative multiplies them by at most
    order + |b| + 2.
    """
    rows, _, peak = _binomials(b)
    order = len(rows) + 2
    bound = sum(map(abs, m)) * (2.0 * peak + 2.0 * b * b + 8.0) * (order + abs(b) + 2.0)
    if not bound < _FINITE_SERIES:
        return None
    return min(max(5, math.floor(-b if b < -5.0 else b) + 3), order)


def _low_coefficients(m, b):
    """The exact coefficients of s^b, s^(b+1), s and s^2 in g at 0+.

    The k = 0 binomial coefficient is identically zero; k = 1 and k = 2 are
    written in canonical forms, so a combination that is zero in exact
    arithmetic on exact inputs is exactly zero here (a naive binomial
    evaluation leaves ~1e-16 residues in the structurally-zero slots, which
    would masquerade as leading terms). They open the series below, from
    which endpoint_sign_g reads the sign of g at 0+ and the affine branch
    reads g = alpha + beta*s.
    """
    m1, m2, m3 = m
    return (
        m2 + m3,
        m3,
        (b - 1.0) * m1 - m2 - m3,
        0.5 * b * (m1 * (b - 1.0) - 2.0 * m3),
    )


def _zero_series_g(m, b, order=None) -> _Series:
    """g(s) = (m2+m3) s^b + m3 s^(b+1) + sum_k c_k s^k exactly for 0 < s < 1.

    The lowest four coefficients come from _low_coefficients, the c_k for
    3 <= k < order from the binomial table _binomials(b) of (1+s)^b and
    (1+s)^(b+1); the tail bound controls the rest. The pairs are sorted by
    exponent once (stably, so colliding exponents sum in a fixed order) and
    merged. Without an order the series is the full one, cut at the order
    of the table. A short order J (see _short_order) gives a short series:
    its pairs are those of the full series below J, and its tail, from the
    row k = J and _tail_ratio(b, J), bounds every other term of the full
    series, the full tail included. Either way, full is the full series'
    tail, so a short series probes where the full one does.
    """
    rows, ratio, _ = _binomials(b)
    m1, _, m3 = m
    m13 = m1 + m3
    a13, a3 = abs(m13), abs(m3)
    cb, cb1, k = rows[-1]
    full = Tail(a13 * abs(cb) + a3 * abs(cb1), k, ratio)
    if order is None:
        n, tail = len(rows) - 1, full
    else:
        n = order - 3
        cb, cb1, k = rows[n]
        tail = Tail(a13 * abs(cb) + a3 * abs(cb1), k, _tail_ratio(b, order))
    pairs = list(zip(_low_coefficients(m, b), (b, b + 1.0, 1.0, 2.0)))
    pairs += [(m13 * cb - m3 * cb1, k) for cb, cb1, k in rows[:n]]
    pairs.sort(key=itemgetter(1))
    return _Series(merge_sorted(pairs), tail, full)


def _reflect(series: _Series, b) -> _Series:
    """The series of g at +infinity, in u = 1/s, from the 0+ series of the swapped masses.

    g_m(1/u) = -u^(-b-1) * g_swap(u): each pair (c, e) maps to
    (-c, e - b - 1), which keeps the exponent order, so only the merge of
    exponents that rounding made equal is needed.
    """
    p = merge_sorted([(-c, e - b - 1.0) for c, e in series.pairs])
    t, f = series.tail, series.full
    return _Series(p, Tail(t.coeff, t.exponent - b - 1.0, t.ratio),
                   Tail(f.coeff, f.exponent - b - 1.0, f.ratio))


def _derivative(series: _Series, end) -> _Series:
    """The series of g' at the same end, from that of g.

    With sigma = +1 at 0+ and -1 at +infinity, where g' = -u^2 dG/du in
    u = 1/s, each pair (c, e) becomes (sigma*c*e, e - sigma); the order of
    the exponents is kept, and the merge drops the constant term's zero
    coefficient. The tail's coefficient bound grows with the exponent: the
    k-th remainder term gains a factor (E + k) <= E * (1 + 1/E)^k, which the
    ratio absorbs. That needs E > 0; a tail exponent E <= 0 raises
    ValueError.
    """
    sigma = 1.0 if end is Endpoint.ZERO_PLUS else -1.0
    t, f = series.tail, series.full
    if not (t.exponent > 0.0 and f.exponent > 0.0):
        raise ValueError(f"the tail bound of a derivative needs a positive tail "
                         f"exponent, got {min(t.exponent, f.exponent)!r}")
    p = merge_sorted([(sigma * c * e, e - sigma) for c, e in series.pairs])
    return _Series(p, Tail(t.coeff * t.exponent, t.exponent - sigma,
                           t.ratio * (1.0 + 1.0 / t.exponent)),
                   Tail(f.coeff * f.exponent, f.exponent - sigma,
                        f.ratio * (1.0 + 1.0 / f.exponent)))


def _end_anchors(mv, b, end, order):
    """name -> the (x, sign) anchor in s of g ("g") or g' ("g'") at end, for the triple mv.

    The sign is certified constant beyond x toward the end. With a short
    order (see _short_order), an anchor is certified on the short series
    cut there when its two bounds decide every probe
    (_bounded_sign_near_zero). The full series is built at most once, for
    the first anchor they leave undecided, and from then on certifies the
    end's anchors itself (certified_sign_near_zero). The anchor is the full
    series' either way. With order None, the full series certifies every
    anchor. ToleranceError when the series to certify vanished, or when
    one of its coefficients or its tail bound overflowed floats.
    """
    def series(cut=None):
        if end is Endpoint.ZERO_PLUS:
            return _zero_series_g(mv, b, cut)
        return _reflect(_zero_series_g(mv[::-1], b, cut), b)

    short = None if order is None else series(order)
    full = None

    def anchor(name):
        nonlocal full
        found = None
        if full is None and short is not None:
            s = short if name == "g" else _derivative(short, end)
            found = _bounded_sign_near_zero(s.pairs, s.tail, 0.5 / s.full.ratio)
        if found is None:
            if full is None:
                full = series()
            s = full if name == "g" else _derivative(full, end)
            if not s.pairs:
                raise ToleranceError("series vanished to working order; cannot certify a sign")
            t = s.tail
            if not (math.isfinite(t.coeff) and all(math.isfinite(c) for c, _ in s.pairs)):
                at = "0+" if end is Endpoint.ZERO_PLUS else "+infinity"
                raise ToleranceError(f"the series of {name} at {at} overflows floats at b = {b!r}")
            found = certified_sign_near_zero(s.pairs, tail=t, start=0.5 / t.ratio)
        x0, sign = found
        return (x0 if end is Endpoint.ZERO_PLUS else 1.0 / x0), sign

    return anchor


# _end_sign leaves to the anchor a leading pair of opposite signs whose root,
# in log x, lies below this bound, 10 above the probe floor: there
# certified_sign_near_zero's phase 2 may certify the sign above the root.
_END_ROOT_LOG = math.log(_PROBE_FLOOR) + 10.0


def _end_sign(mv, b, end, name, order):
    """The sign of g ("g") or g' ("g'") at end for the triple mv, read without a probe, or None.

    It is the sign of the leading coefficient of the end's exact series,
    whose two lowest terms come from _low_coefficients with the float
    operations of _zero_series_g, _reflect and _derivative; order is
    _short_order(mv, b). Where it is a sign, it is the sign of the end's
    anchor (_end_anchors(mv, b, end, order)(name)), which certifies it.
    None, and the anchor is needed, when order is None, when the two
    lowest nonzero terms are not among the four low terms or share an
    exponent with another term, when the leading coefficient is below
    1e-250, where the anchor's tests leave linear space, and when the two
    have opposite signs and their root lies below _END_ROOT_LOG, where the
    anchor may carry the opposite sign from above the root.
    """
    if order is None:
        return None
    # the four low terms of g at the end, reflected as _reflect does, and
    # top, the exponent 3 of the first binomial row, shifted the same way
    if end is Endpoint.ZERO_PLUS:
        sigma = 1.0
        cs = _low_coefficients(mv, b)
        es = (b, b + 1.0, 1.0, 2.0)
        top = 3.0
    else:
        sigma = -1.0
        c0, c1, c2, c3 = _low_coefficients(mv[::-1], b)
        cs = (-c0, -c1, -c2, -c3)
        es = (b - b - 1.0, b + 1.0 - b - 1.0, 1.0 - b - 1.0, 2.0 - b - 1.0)
        top = 3.0 - b - 1.0
    derivative = name == "g'"
    if derivative:
        top -= sigma
    # the low terms by their exponents b, b + 1, 1 and 2, an order the shifts
    # keep up to ties: the first two nonzero ones lead, and the next one, or
    # else the first row, must lie above them
    if b < 1.0:
        rank = (0, 1, 2, 3) if b < 0.0 else (0, 2, 1, 3)
    else:
        rank = (2, 0, 3, 1) if b < 2.0 else (2, 3, 0, 1)
    lead = []
    for i in rank:
        c, e = cs[i], es[i]
        if derivative:
            c, e = sigma * c * e, e - sigma  # as _derivative
        if c != 0.0:
            lead.append((c, e))
            if len(lead) == 3:
                break
    if len(lead) < 2:
        return None
    (c0, e0), (c1, e1) = lead[0], lead[1]
    above = lead[2][1] if len(lead) == 3 else top
    if not (e0 < e1 < above and e1 < top) or abs(c0) < _LINEAR_MIN_LEAD:
        return None
    if ((c0 > 0.0) != (c1 > 0.0)
            and (math.log(abs(c0)) - math.log(abs(c1))) / (e1 - e0) < _END_ROOT_LOG):
        return None
    return 1 if c0 > 0.0 else -1


def _gp_leads_differ(mv, b):
    """True when _end_sign's two reads of g' for the triple mv cannot give one sign.

    The low term that comes first at both ends is that of s^b for b < 1 and
    that of s for b >= 1. These are its g' coefficients at 0+ and at
    +infinity, with the float operations of _end_sign, which returns their
    signs or None where they are nonzero. So opposite signs settle that g'
    changes sign, or is left to the anchors, in a few operations; a zero
    gives False, and the reads decide.
    """
    m1, m2, m3 = mv
    if b < 1.0:
        first, last = (m2 + m3) * b, -(m2 + m1)
    else:
        first, last = (b - 1.0) * m1 - m2 - m3, ((b - 1.0) * m3 - m2 - m1) * (1.0 - b - 1.0)
    return first * last < 0.0


def endpoint_sign_g(m, b, endpoint) -> int:
    """Sign of g near 0+ or +infinity, read from the exact series at 0+.

    At 0+ it is the sign of the series' leading coefficient; at +infinity it
    is minus that sign for the masses m1 <-> m3 (reflection identity).
    Requires finite masses and b, b != 1 and (m, b) outside the degenerate
    families, else raises ValueError; raises ToleranceError when the series
    vanishes to working order.
    """
    m = _finite_masses(m, b)
    if b == 1.0:
        raise ValueError("g vanishes identically at b = 1")
    if degenerate_family(m, b) is not None:
        raise ValueError("g vanishes identically for this degenerate family")
    if endpoint is Endpoint.ZERO_PLUS:
        sign = 1
    elif endpoint is Endpoint.INFINITY:
        m, sign = m[::-1], -1
    else:
        raise ValueError(f"unknown endpoint {endpoint!r}")
    pairs = _zero_series_g(m, b).pairs
    if not pairs:
        raise ToleranceError("series vanished to working order; cannot certify a sign")
    return sign if pairs[0][0] > 0.0 else -sign


# --- cells ---------------------------------------------------------------------


def _rescaled(m):
    """The float triple m divided by the power of two putting its largest |mass| in [1, 2).

    Triples that differ by a factor 2^k share this normal form, and g is
    linear in the masses, so they get the same counts and roots; the terms
    of g and h stay in the float range. Raises ValueError when the division
    would round a mass or flush it to zero; scaling up is always exact.
    """
    shift = 1 - math.frexp(max(map(abs, m)))[1]
    scaled = tuple(math.ldexp(x, shift) for x in m)
    if shift < 0 and any(math.ldexp(y, -shift) != x for x, y in zip(m, scaled)):
        raise ValueError(f"masses {m} span too wide a range to be scaled down "
                         f"exactly by a power of two")
    return scaled


def cell_mass_view(m, cell):
    """The masses as the float triple (left, middle, right), so the cell becomes s > 0.

    Counting roots of g on s > 0 for the returned triple equals the count
    for the requested cell; by reflection the left/right choice is
    immaterial.
    """
    masses = _masses(m)
    if type(cell) is not int or cell not in CELLS:  # True == 1 and 2.0 == 2
        raise ValueError("cell must be 1, 2 or 3")
    left, middle, right = _CELL_ORDER[cell]
    return masses[left], masses[middle], masses[right]


def _solution(cell, s, degenerate) -> ConfigurationSolution:
    slots = (0.0, 1.0, 1.0 + s)
    pos = tuple(slots[j] for j in _CELL_ORDER[cell])
    return ConfigurationSolution(cell=cell, s=s, positions=pos, degenerate=degenerate)


def _affine_roots(mv, b):
    """Roots of g when the curvature kernel vanishes identically.

    Outside the degenerate families this happens exactly on the b = 0
    plane, the b = 2 plane m1 + m2 = m3, and the b = -1 line m1 = m2 = -m3,
    where the exact 0+ series of g is alpha + beta*s.
    """
    coeffs = {e: c for c, e in _zero_series_g(mv, b).pairs}
    alpha = coeffs.pop(0.0, 0.0)
    beta = coeffs.pop(1.0, 0.0)
    if coeffs:
        raise ToleranceError("curvature kernel vanished on an unexpected parameter set")
    if beta == 0.0:
        if alpha == 0.0:
            raise ToleranceError("identically-zero balance outside a known family")
        return []
    s = -alpha / beta
    return [(s, False)] if s > 0.0 else []


def _y_to_s(y):
    """s = y/(1-y) for y on (0, 1]; +infinity at y = 1."""
    return y / (1.0 - y) if y < 1.0 else math.inf


def _in_s(h_roots, xr, curvature):
    """Yield the h stage's records, in y, as the g' stage's chain roots, in s = y/(1-y).

    A bracket reaching y = 1 reaches s = +infinity, where its end cannot be
    read. When it starts below the g' stage's right anchor xr, the sign of
    curvature, that stage's chain function, read at xr drops it (its root
    lies beyond xr) or brings its end to xr; ToleranceError when that sign
    is in the rounding noise.
    """
    for r in h_roots:
        lo, hi = _y_to_s(r.lo), _y_to_s(r.hi)
        if isinstance(r, RootRecord):
            yield RootRecord(lo, hi, _y_to_s(r.value), r.degenerate)
        elif hi < math.inf or lo >= xr:
            yield Bracket(lo, hi, r.sign)
        else:
            sign, value = curvature(xr, 0.0)
            if value is None or sign == 0:
                raise ToleranceError(f"the chain root of the bracket from {lo!r} "
                                     f"to +infinity cannot be placed beside {xr!r}")
            if sign != r.sign:
                yield Bracket(lo, xr, r.sign)


def _cell_roots(mv, b, h, tol, refine=True):
    """The (s, degenerate) pairs of the roots of g on s > 0 for the triple mv, b not in {0, 1}.

    mv is the (left, middle, right) triple. Each stage returns its sign
    changes as Brackets (see isolate_between). With refine set, those of g
    are refined here by refine_bracket, for plain and symmetric views
    alike; with refine=False they are only counted, and their s is nan.
    The breakpoints below g are never refined unless their bracket ends
    cannot tell the sign of the function above at them: the roots of H
    come unrefined from its derivative chain (_levels, run_chain) and the
    roots of g' from the g' stage, and each stage reads the sign at a
    breakpoint from the ends of its bracket. The h stage is skipped, with
    no breakpoint, where _no_roots_below_one shows H rootless on (0, 1);
    it runs H's chain wherever that pre-count defers.

    Where g'' has no breakpoint, g' is monotone, and so is g wherever g'
    has one sign at both ends. Those end signs are read from the exact
    series' leading pairs (_end_sign) before any anchor is built, and not
    at all for g' where its leading coefficients already differ
    (_gp_leads_differ). Equal g' end signs skip the g' stage and its
    anchors. Then equal g end signs leave no root, and unequal ones one
    root: counted without anchors when refine is off, isolated between
    g's anchors when it is on, so every root stays the one the anchors
    give. Where a sign cannot be read so, the stages run on the anchors
    as before.

    The stages end at +infinity, anchored on the series there, except for
    a symmetric view, mv[0] == mv[2], whose stages end at s = 1: g
    vanishes there exactly, g' is read there by the kernel, and g just left
    of it has the sign opposite to g'(1). Its roots on (0, 1) are then
    folded (see _fold).
    """
    symmetric = mv[0] == mv[2]
    # Stage 1: sign changes of g'' as breakpoints, none where the exact
    # pre-count shows H rootless on (0, 1) (_no_roots_below_one), else via
    # H's derivative chain on (0, 1) in y (the forced boundary zero at y = 1
    # is excluded), or on (0, 1/2) for s in (0, 1).
    h_roots = [] if _no_roots_below_one(h) else run_chain(
        _levels(h, 0.0, 0.5 if symmetric else 1.0), tol)
    order = _short_order(mv, b)
    gp = _stage_sign(*_gp_pairs(mv, b))
    if symmetric:
        # a sign at DEGENERACY_REL is the BOUNDARY_ZERO_REL sign, read from
        # the same sum against a larger threshold; only a 0 is read again
        sign = gp(1.0, DEGENERACY_REL)[0]
        degenerate_one = sign == 0
        if degenerate_one:
            sign = gp(1.0, BOUNDARY_ZERO_REL)[0]
        right = {"g'": (1.0, sign), "g": (1.0, -sign)}.get

    def end_signs(name):
        # name's signs at 0+ and at the right end, read without anchors, or
        # None where one of them cannot be read so
        first = _end_sign(mv, b, Endpoint.ZERO_PLUS, name, order)
        if first is None:
            return None
        last = right(name)[1] if symmetric else _end_sign(mv, b, Endpoint.INFINITY, name, order)
        return None if last is None else (first, last)

    gp_roots = found = None
    may_settle = not h_roots and (symmetric or not _gp_leads_differ(mv, b))
    if may_settle and (signs := end_signs("g'")) and signs[0] == signs[1]:
        # g' keeps its sign: no root of g', and one root of g where its end
        # signs differ, somewhere between the ends when only counted
        gp_roots = []
        signs = end_signs("g")
        if signs and (signs[0] == signs[1] or not refine):
            g0 = signs[0]
            found = roots = [] if g0 == signs[1] else [
                Bracket(0.0, 1.0 if symmetric else math.inf, g0)]
    if found is None:
        zero = _end_anchors(mv, b, Endpoint.ZERO_PLUS, order)
        if not symmetric:
            right = _end_anchors(mv, b, Endpoint.INFINITY, order)
        if gp_roots is None:
            # Stage 2: g' is strictly monotone between curvature breakpoints,
            # and g'' has the sign of H(s/(1+s)); _in_s maps the breakpoints to s.
            def curvature(s, z):
                return sum_sign(((h.pairs, s / (1.0 + s)),), z)

            gp_left, gp_right = zero("g'"), right("g'")
            gp_roots = isolate_between(gp, curvature, gp_left, gp_right,
                                       _in_s(h_roots, gp_right[0], curvature), tol)
        # Stage 3: g is strictly monotone between g' roots.
        g = _stage_sign(*_g_pairs(mv, b))
        left = zero("g")
        g0 = left[1]
        found = isolate_between(g, gp, left, right("g"), gp_roots, tol)
        roots = [refine_bracket(g, gp, r, tol) if refine and isinstance(r, Bracket) else r
                 for r in found]
    if symmetric:
        return _fold(found, roots, gp_roots, (g0, -sign), degenerate_one)
    return [(r.value, r.degenerate) for r in roots]


def _fold(half, roots, gp_roots, signs, degenerate_one):
    """The (s, degenerate) pairs of a symmetric view's roots, from its roots on (0, 1).

    A symmetric view's g satisfies g(1/u) = -u^(-b-1) g(u), so g(1) = 0 and
    its other roots pair as s <-> 1/s. The roots are the half's, then
    s = 1, then the half's at 1/s in reverse order. Each pair is (1/t, t)
    with t = 1/s rounded, so each member is the other's reciprocal bit for
    bit. s = 1 is flagged when degenerate_one is set, which the caller
    does where g'(1) reads 0 at DEGENERACY_REL.

    half holds the records of the g stage on (0, 1) as isolate_between
    returns them, roots the same with their Brackets refined (half itself
    for a count), and signs g's certified signs at 0+ and just left of
    s = 1, 0 when g'(1) reads 0. The rule reads half; the mirror, roots. A
    Bracket is a certified sign change. A flagged RootRecord is a zero read
    at a root of g', which a certified sign change may hide: there is one
    when the Brackets leave g's two signs unmatched. A lone zero read that
    hides one is a root and is mirrored. A lone zero read that hides none,
    at the last root of g' in the half, is s = 1 itself: g is monotone from
    there to s = 1 and vanishes at both ends, so it stays in the noise in
    between. It is not mirrored and flags s = 1. Any other zero read has no
    certified sign change to mirror, and the count is refused with
    ToleranceError.
    """
    lows = [r for r, u in zip(roots, half) if isinstance(u, Bracket)]
    zeros = [u for u in half if not isinstance(u, Bracket)]
    if zeros:
        first, last = signs
        hidden = last != 0 and first * (-1) ** len(lows) != last
        if len(zeros) == 1 and hidden:
            lows = roots
        elif len(zeros) == 1 and zeros[0] is half[-1] and zeros[0].value >= gp_roots[-1].lo:
            degenerate_one = True
        else:
            raise ToleranceError(f"a zero of g at s = {zeros[0].value!r} in a symmetric view "
                                 f"has no certified sign change to mirror")
    highs = [(1.0 / r.value, r.degenerate) for r in reversed(lows)]
    return [(1.0 / s, d) for s, d in reversed(highs)] + [(1.0, degenerate_one)] + highs


def _solve_view(mv, b, cell, tol, roots):
    """count_cell for the (left, middle, right) triple mv of the rescaled masses."""
    if degenerate_family(mv, b) is not None:
        return INFINITE, []
    if _binomials(b)[1] == math.inf:
        raise ToleranceError(f"the binomial coefficients of the series of g at 0+ "
                             f"overflow floats at b = {b!r}")
    h = h_signomial(mv, b)
    if h.is_zero:
        pairs = _affine_roots(mv, b)
    else:
        pairs = _cell_roots(mv, b, h, tol, roots)
    return len(pairs), ([_solution(cell, s, deg) for s, deg in pairs] if roots else [])


def _cell3_from_cell1(count, solutions):
    """Cell 3's (count, solutions) from cell 1's, for masses with m1 == m3.

    Cell 3's view (m1, m3, m2) is then cell 1's view (m2, m1, m3) reversed,
    and by the reflection identity its roots are the reciprocals of cell
    1's: the same count, and each solution at 1/s, in reverse order, with
    the same degenerate flag.
    """
    return count, [_solution(3, 1.0 / sol.s, sol.degenerate) for sol in reversed(solutions)]


def count_cell(m, b, cell=2, tol=DEFAULT_REL_TOL, *, roots=True):
    """Certified count and solutions for one cell.

    Returns (count, solutions); count is INFINITE (with no enumerable
    solutions) exactly on the degenerate families of the cell's mass view.
    With roots=False the count is the same but the roots of g are not
    refined and solutions is []. The masses are first divided by the power
    of two that puts the largest |mass| in [1, 2), so scaling them by 2^k
    changes no output bit. When m1 == m3, cell 3 is cell 1 reflected: its
    count is cell 1's and its solutions are cell 1's at s -> 1/s, in
    reverse order, with the same degenerate flags, as count_all gives them.
    A symmetric view, whose left and right masses are equal (cell 1 when
    m2 == m3, cell 2 when m1 == m3, cell 3 when m1 == m2), is solved on
    s in (0, 1) and folded at s = 1: its count is odd, the middle solution
    is s = 1.0, flagged when g'(1) reads zero at the degeneracy threshold,
    and the others pair as s and 1/s bit for bit, each with its partner's
    flag. A zero of g in (0, 1) with no certified sign change to mirror
    raises ToleranceError. Raises ValueError when a mass or b is NaN or infinite, cell is not the
    int 1, 2 or 3, tol is not in (0, 1), or that division would round a
    mass or flush it to zero (see _rescaled). Raises ToleranceError naming
    b when the binomial coefficients of g's series overflow floats (|b|
    above a few hundred), before any work that depends on b's size.
    """
    m = _finite_masses(m, b)
    check_tol(tol)
    mv = cell_mass_view(_rescaled(m), cell)
    if cell == 3 and mv[0] == mv[1]:
        return _cell3_from_cell1(*_solve_view(mv[::-1], b, 1, tol, roots))
    return _solve_view(mv, b, cell, tol, roots)


def count_all(m, b, tol=DEFAULT_REL_TOL, *, roots=True):
    """Counts for all three cells. Returns (CellCount, solutions).

    Cells 1 and 2 are counted by count_cell. When m1 == m3, cell 2 is
    folded at s = 1 (see count_cell), and cell 3 is cell 1 reflected, as
    count_cell gives it, without being solved again; otherwise count_cell
    counts it too. With roots=False only the counts
    are computed and solutions is []. Raises ValueError when a mass or b is
    NaN or infinite.
    """
    m = _masses(m)
    n1, sols1 = count_cell(m, b, 1, tol, roots=roots)
    n2, sols2 = count_cell(m, b, 2, tol, roots=roots)
    if m[0] == m[2]:
        n3, sols3 = _cell3_from_cell1(n1, sols1)
    else:
        n3, sols3 = count_cell(m, b, 3, tol, roots=roots)
    return CellCount.of(n1, n2, n3), sols1 + sols2 + sols3


def celli_identity_residual(m, sol: ConfigurationSolution) -> float:
    """m1*x1 + m2*x2 + m3*x3 for a solution; near zero when m1+m2+m3 = 0."""
    m1, m2, m3 = _masses(m)
    if m1 + m2 + m3 != 0.0:
        raise ValueError("residual identity requires m1 + m2 + m3 = 0")
    x1, x2, x3 = sol.positions
    return math.fsum((m1 * x1, m2 * x2, m3 * x3))
