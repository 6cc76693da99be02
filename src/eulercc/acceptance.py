"""The acceptance criteria of the source paper, each written once.

CRITERIA lists the eleven criteria as (number, name, description, fn,
verify_draws). Each fn draws from its own seeded generator (seeds 101-111)
and takes its draw count, so a smaller count runs a prefix of the default
draws; `eulercc verify` runs verify_draws of them, and the test suite runs
them at the default counts. The oracles are exact and stdlib only:
g_polynomial gives g's coefficients at integer b, and positive_root_count
counts a polynomial's positive roots by Sturm's theorem, which criterion 10
applies to signomials with exponents in (1/4)Z as polynomials in x^(1/4).
A criterion fails by raising AssertionError naming the input, never by a
bare assert, so it also fails under `python -O`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import classifier, euler, qps, signomial
from .euler import INFINITE


# --- plain formulas and stdlib oracles ------------------------------------------


def g_polynomial(m, b):
    """Exact coefficients (s^0 first, the last nonzero) of s^k (1+s)^k g(s), k = max(0, -b).

    g's six terms c s^i (1+s)^j are expanded over Fraction, so float masses
    give exact coefficients; g vanishing identically gives [].
    """
    if not all(map(math.isfinite, (*m, b))):
        raise ValueError(f"g_polynomial needs finite masses and b, got m = {m!r}, b = {b!r}")
    if b != int(b):
        raise ValueError(f"g is a polynomial only at integer b, got {b!r}")
    b = int(b)
    k = max(0, -b)
    m1, m2, m3 = map(Fraction, m)
    coeffs = [Fraction(0)] * (2 * k + abs(b) + 3)
    for c, i, j in ((m2 + m3, b, 0), (m1 + m3, 0, b), (m3, b + 1, 0),
                    (-m3, 0, b + 1), (-m1, 0, 1), (-m2, 1, 0)):
        for t in range(j + k + 1):
            coeffs[i + k + t] += c * math.comb(j + k, t)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def positive_root_count(p):
    """The number of distinct positive roots of p (s^0 first, the last coefficient nonzero).

    Sturm's theorem, exact for int, float or Fraction coefficients: with s's
    factors dropped, the sign changes of p, p', -rem(p, p'), ... at 0 minus those at +inf.
    The chain is kept in integers: denominators are cleared, each remainder is
    a pseudo-remainder and each link is divided by its content, all by
    positive factors, which keep the signs.
    """
    def sign_changes(values):
        signs = [v > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))
    p = [Fraction(c) for c in p]
    if not p or not p[-1]:
        raise ValueError(f"the last coefficient must be nonzero, got {p}")
    den = math.lcm(*(c.denominator for c in p))
    p = [int(c * den) for c in p]
    while not p[0]:
        p.pop(0)
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while chain[-1]:
        r, q = list(chain[-2]), chain[-1]
        while len(r) >= len(q):
            f = r.pop() if q[-1] > 0 else -r.pop()
            r = [abs(q[-1]) * c for c in r]
            for i, c in enumerate(q[:-1], len(r) + 1 - len(q)):
                r[i] -= f * c
        while r and not r[-1]:
            r.pop()
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    return sign_changes(q[0] for q in chain[:-1]) - sign_changes(q[-1] for q in chain[:-1])


def horner(coeffs, s):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def diff2(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


# --- draws and registration ---------------------------------------------------------


def _require(ok, message):
    if not ok:
        raise AssertionError(message)


def _triple(rng, lo, hi):
    return tuple(rng.uniform(lo, hi) for _ in range(3))


def _draws(rng, n, lim, draw_b, skip=lambda b: False):
    """n (m, b) draws off the degenerate families: m in [-lim, lim]^3, b = draw_b()."""
    while n:
        m = _triple(rng, -lim, lim)
        b = draw_b()
        if not skip(b) and euler.degenerate_family(m, b) is None:
            yield m, b
            n -= 1


class Criterion(NamedTuple):
    number: int
    name: str
    description: str
    fn: Callable
    verify_draws: int | None


CRITERIA: list[Criterion] = []


def _criterion(name, description, verify_draws=None):
    """Register the decorated function as the next criterion of CRITERIA.

    verify_draws is the draw count `eulercc verify` passes it, None for a
    criterion that takes no draws.
    """
    def register(fn):
        CRITERIA.append(Criterion(len(CRITERIA) + 1, name, description, fn, verify_draws))
        return fn
    return register


# --- the criteria -------------------------------------------------------------------


@_criterion("classic-uniqueness", "positive masses at b=-2: one sign variation, one root, and "
                                  "an exact sign change of the quintic across it to 1e-9", 50)
def classic_uniqueness(draws=200):
    rng = random.Random(101)
    for _ in range(draws):
        m = _triple(rng, 0.1, 10.0)
        p = g_polynomial(m, -2)
        sv = signomial.sign_variations(signomial.normalize([(c, k) for k, c in enumerate(p)]))
        # one sign variation: by Descartes' rule, exactly one positive root, and a simple one
        _require(sv == 1, f"{m}: the quintic has {sv} sign variations")
        n, sols = euler.count_cell(m, -2.0, 2)
        _require(n == 1, f"{m}: {n} roots in the middle cell at b=-2")
        s = Fraction(sols[0].s)
        _require(horner(p, s * (1 - Fraction(1e-9))) * horner(p, s * (1 + Fraction(1e-9))) < 0,
                 f"{m}: the quintic does not change sign across root {sols[0].s!r}")


@_criterion("vortex-total-bound", "b=-1, 1000 real mass triples: total count <= 3", 100)
def vortex_total_bound(draws=1000):
    rng = random.Random(102)
    for m, b in _draws(rng, draws, 10.0, lambda: -1.0):
        total = euler.count_all(m, b)[0].total
        _require(total <= 3, f"{m}: total {total} at b=-1")


@_criterion("middle-cell-bound", "1000 random (m, b): middle-cell count <= 3; "
                                 "at 3 no root is degenerate", 100)
def middle_cell_bound(draws=1000):
    rng = random.Random(103)
    for m, b in _draws(rng, draws, 10.0, lambda: rng.uniform(-5.0, 5.0)):
        n, sols = euler.count_cell(m, b, 2)
        _require(n <= 3, f"{m}, b={b!r}: middle-cell count {n}")
        _require(n < 3 or not any(s.degenerate for s in sols), f"{m}, b={b!r}: degenerate root")


@_criterion("positive-masses-one-per-cell",
            "1000 positive triples, b in [-5, 0.99]: counts (1,1,1)", 100)
def positive_masses_one_per_cell(draws=1000):
    rng = random.Random(104)
    for _ in range(draws):
        m = _triple(rng, 0.1, 10.0)
        b = rng.uniform(-5.0, 0.99)
        c = euler.count_all(m, b)[0]
        _require((c.e1, c.e2, c.e3, c.total) == (1, 1, 1, 3), f"{m}, b={b!r}: counts {c}")


@_criterion("total-bounds-by-regime", "totals <= 3 for b < 0 and <= 5 for 0 < b < 1; "
                                      "(1, -0.9, 1) at b = 0.5 attains 5", 50)
def total_bounds_by_regime(draws=500):
    rng = random.Random(105)
    for (lo, hi), bound in (((-5.0, 0.0), 3), ((0.0, 1.0), 5)):
        for m, b in _draws(rng, draws, 10.0, lambda: rng.uniform(lo, hi),
                           skip=lambda b: b in (0.0, 1.0)):
            total = euler.count_all(m, b)[0].total
            _require(total <= bound, f"{m}, b={b!r}: total {total} > {bound}")
    total = euler.count_all((1.0, -0.9, 1.0), 0.5)[0].total
    _require(total == 5, f"(1, -0.9, 1) at b=0.5: total {total}, expected 5")


@_criterion("zero-sum-masses", "(0,-1,1) has no configurations at b=-2,-1; (1,2,-3) has one "
                               "with center-of-mass residual < 1e-9")
def zero_count_and_zero_sum():
    for b in (-2.0, -1.0):
        counts, sols = euler.count_all((0.0, -1.0, 1.0), b)
        _require(counts.total == 0 and sols == [], f"(0, -1, 1) at b={b}: total {counts.total}")
    m = (1.0, 2.0, -3.0)
    counts, sols = euler.count_all(m, -2.0)
    _require(counts.total == 1, f"(1, 2, -3) at b=-2: total {counts.total}, expected 1")
    residual = euler.celli_identity_residual(m, sols[0])
    _require(abs(residual) < 1e-9, f"(1, 2, -3): center-of-mass residual {residual!r}")


@_criterion("polynomial-expansions", "polynomial specializations at b=-2,-1 to 1e-9 relative; "
                                     "second-derivative transform identity to 1e-5", 50)
def expansion_equivalences(draws=100):
    rng = random.Random(107)
    for _ in range(draws):
        m = _triple(rng, -5.0, 5.0)
        s = rng.uniform(0.05, 8.0)
        for b, k in ((-2.0, 2), (-1.0, 1)):
            coeffs = [float(c) for c in g_polynomial(m, b)]
            scale = sum(abs(c) * s ** j for j, c in enumerate(coeffs))
            err = abs((1 + s) ** k * s ** k * euler.eval_g(m, b, s) - horner(coeffs, s))
            _require(err <= 1e-9 * max(scale, 1e-9), f"{m}, b={b}, s={s!r}: error {err!r}")
    for m, b in _draws(rng, draws, 5.0, lambda: rng.uniform(-3.0, 3.0),
                       skip=lambda b: min(abs(b), abs(b - 1.0)) < 0.1):
        y = rng.uniform(0.15, 0.85)
        s = y / (1.0 - y)
        big_h = euler.h_signomial(m, b)
        rhs = (1.0 - y) ** (1.0 - b) * signomial.evaluate(big_h, y)
        lhs = diff2(lambda t: euler.eval_g(m, b, t), s, 3e-4 * s)
        scale = (1.0 - y) ** (1.0 - b) * sum(abs(c) * y ** e for c, e in big_h.pairs)
        _require(abs(lhs - rhs) <= 1e-5 * max(scale, abs(lhs), 1.0),
                 f"{m}, b={b!r}, y={y!r}: g'' {lhs!r}, transformed h {rhs!r}")


@_criterion("degenerate-families", "the five identically-vanishing families report infinite "
                                   "counts; 1e-3 perturbations are finite", 20)
def degenerate_families(draws=100):
    rng = random.Random(108)
    for m, b in (((0.0, 0.0, 0.0), -2.0), ((1.0, -1.0, 1.0), 0.0),
                 ((0.4, -1.1, 2.2), 1.0), ((1.3, 0.0, 1.3), 2.0),
                 ((0.8, 0.8, 0.8), 3.0)):
        total = euler.count_all(m, b)[0].total
        _require(total == INFINITE, f"{m}, b={b}: total {total}, expected infinite")
        perturbed = 0
        while perturbed < draws:
            dm = tuple(v + rng.uniform(-1e-3, 1e-3) for v in m)
            db = b + rng.uniform(-1e-3, 1e-3)
            if euler.degenerate_family(dm, db) is not None:
                continue
            _require(euler.count_all(dm, db)[0].is_finite, f"{dm}, b={db!r}: infinite count")
            perturbed += 1


@_criterion("figure-grid-crosscheck", "50x50 grid over m2 in [-4,2], b in [-4,4], margin 0.05: "
                                      "classifier matches the numeric counter everywhere", 25)
def figure_reconstruction(n=50):
    result = classifier.grid_scan((-4.0, 2.0), (-4.0, 4.0), (n, n),
                                  cross_check=True, margin=0.05)
    _require(result.mismatches == (), f"grid mismatches: {result.mismatches}")
    _require(result.checked > 0.8 * n * n, f"only {result.checked} points cross-checked")
    frontier = classifier.frontier_curve_m2(-2.0)
    _require(abs(frontier - (0.25 + 4.0) / (-3.0)) <= 1e-12, f"frontier at b=-2: {frontier!r}")
    # the half-line frontier at b=-2 sits at m2 = -1 exactly
    _require(classifier.classify_E1(-1.0, -2.0)[1] and classifier.classify_E2(-1.0, -2.0)[1],
             "m2=-1 is not on the b=-2 frontier")


@_criterion("signomial-engine", "500 random signomials with exponents in (1/4)Z: certified "
                                "count on (0, inf) <= min(variations, terms-1), equals the exact "
                                "Sturm count in x^(1/4), chain decrements hold", 100)
def root_engine_vs_oracle(draws=500):
    rng = random.Random(110)
    for _ in range(draws):
        ks = sorted(rng.sample(range(-20, 21), rng.randint(1, 6)))
        p = signomial.normalize([(rng.uniform(-10.0, 10.0), k / 4) for k in ks])
        sv, terms = signomial.sign_variations(p), len(p)
        count, _ = signomial.count_and_isolate(p)
        _require(count <= min(sv, terms - 1), f"{p.pairs}: count {count} over the bound")
        # c x^(k/4) is c t^(k - k0) in t = x^(1/4), which maps (0, inf) onto
        # itself, so Sturm's count of that polynomial is p's count on (0, inf)
        k0 = round(4 * p.pairs[0][1])
        poly = [0.0] * (round(4 * p.pairs[-1][1]) - k0 + 1)
        for c, e in p.pairs:
            poly[round(4 * e) - k0] = c
        exact = positive_root_count(poly)
        _require(count == exact, f"{p.pairs}: count {count}, exact {exact}")
        for _, q in signomial.derivative_chain(p):
            _require(signomial.sign_variations(q) == sv - 1 and len(q) == terms - 1,
                     f"{p.pairs}: a chain step did not drop one term and one variation")
            sv, terms = sv - 1, terms - 1


@_criterion("bound-formulas", "straight_bound(6)=62, khovanskii_bound(1,2,4)=32768; "
                              "line reduction matches the cell counter on 50 draws", 10)
def bound_formulas_and_line_reduction(draws=50):
    _require(qps.straight_bound(6) == 62, f"straight_bound(6) = {qps.straight_bound(6)}")
    k = qps.khovanskii_bound(1, 2, 4)
    _require(k == 32768, f"khovanskii_bound(1, 2, 4) = {k}")
    rng = random.Random(111)
    for m, b in _draws(rng, draws, 3.0, lambda: rng.uniform(-3.0, 0.9)):
        got = qps.count_on_line(*qps.euler_line_system(*m, b)).count
        want = euler.count_cell(m, b, 2)[0]
        _require(got == want, f"{m}, b={b!r}: line reduction {got}, cell counter {want}")
