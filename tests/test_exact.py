"""The counter against the exact polynomial oracle at integer b.

At integer b, s^k (1+s)^k g(s) is a polynomial with exact rational
coefficients (acceptance.g_polynomial), and Sturm's theorem counts its
distinct positive roots exactly (acceptance.positive_root_count). A root
the counter reports unflagged must show an exact sign change of that
polynomial across s * (1 +/- 4 tol). Known wrong answers are strict xfails,
each naming the ROADMAP item that should fix it.
"""

import math
import random
from fractions import Fraction

import pytest

from eulercc.acceptance import g_polynomial, horner, positive_root_count
from eulercc.classifier import frontier_curve_m2
from eulercc.euler import CELLS, cell_mass_view, count_cell, degenerate_family
from eulercc.numerics import DEFAULT_REL_TOL

from oracles import fold_masses


def poly(*roots):
    """Coefficients (s^0 first) of the monic polynomial with these roots."""
    p = [Fraction(1)]
    for r in roots:
        p = [a - r * b for a, b in zip([0] + p, p + [0])]
    return p


@pytest.mark.parametrize("p, count", [
    (poly(1, 2, 3), 3),
    (poly(1, 1, 2), 2),
    (poly(-1, -2, -3), 0),
    (poly(0, 0, 1), 1),
    ([Fraction(-7, 3)], 0),
    ([0.5, -1.0], 1),  # floats are exact rationals: the root 1/2
])
def test_positive_root_count_constructed(p, count):
    assert positive_root_count(p) == count


def test_exact_oracle_refuses_what_it_cannot_count():
    with pytest.raises(ValueError, match="last coefficient must be nonzero"):
        positive_root_count([1, Fraction(0)])
    with pytest.raises(ValueError, match="integer b"):
        g_polynomial((1.0, 2.0, 3.0), -1.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"finite masses and b, .*b = {bad!r}"):
            g_polynomial((1.0, 2.0, 3.0), bad)
        with pytest.raises(ValueError, match=f"finite masses and b, got m = .*{bad!r}"):
            g_polynomial((1.0, bad, 3.0), -1)
    assert g_polynomial((0.4, -1.1, 2.2), 1) == []  # g vanishes identically at b = 1


def exact_disagreements(m, b, flagged_too=False):
    """What count_cell gets wrong on the non-degenerate cells, by the exact oracle.

    A count differs from the Sturm count, or a root (unflagged only, unless
    flagged_too) shows no exact sign change across s * (1 +/- 4 tol).
    """
    rel = 4 * Fraction(DEFAULT_REL_TOL)
    wrong = []
    for cell in CELLS:
        mv = cell_mass_view(m, cell)
        if degenerate_family(mv, b) is not None:
            continue
        p = g_polynomial(mv, b)
        n, sols = count_cell(m, b, cell)
        if n != (exact := positive_root_count(p)):
            wrong.append(f"cell {cell}: count {n}, exact {exact}")
        for sol in sols:
            s = Fraction(sol.s)
            if sol.degenerate and not flagged_too:
                continue
            if horner(p, s * (1 - rel)) * horner(p, s * (1 + rel)) >= 0:
                wrong.append(f"cell {cell}: no exact sign change across root {sol.s!r}")
    return wrong


# Each entry: masses, b, the ROADMAP item that should fix it, and what the
# counter reports against the exact truth.
KNOWN_WRONG = [
    ((9.125581159649855, -8.512388637869133, 0.6131925217807218), 2.0, 1,
     "counts (0, 0, 0), exact (0, 1, 0): the cell-2 root at s = 5.1e16 is missed"),
    ((6.471410224665288, 0.0, 6.471410226223088), 2.0, 3,
     "counts (1, 0, 1) with flagged roots, exact (0, 0, 1)"),
    ((0.4992827083164979, 0.0, 0.4993724292502949), 2.0, 3,
     "unflagged cell-3 root at 8.984175883e-5, exact root 8.98417586e-5"),
    # a draw of test_counter_matches_exact_count_at_integer_b
    ((-0.570988238590342, -5.642755291571209, 3.378673369782465), 5.0, 1,
     "unflagged cell-3 root at 8.812522935880956e-4, exact root 8.812522935980558e-4"),
]


# Former entries of KNOWN_WRONG that the fold of symmetric views at s = 1
# puts right: the cell-3 views of the first two, (m1, m3, m1), and the cell-2
# view of the third are symmetric, so their roots above 1 are the reciprocals
# of the well-placed roots below it. The third sits next to family iv, where
# g = -2^-53 s (s - 1) is inside the rounding noise on all of s > 0: its one
# root is s = 1 itself, flagged.
FOLDED_RIGHT = [
    ((-5.361559892466568, -5.361559892466568, 5.3615598924665715), -1.0),
    ((1.701482148107269, 1.701482148107269, -1.7014821481072695), -1.0),
    ((1.0, -2.0 ** -53, 1.0), 2.0),
]


@pytest.mark.parametrize("m, b", FOLDED_RIGHT)
def test_symmetric_views_folded_at_one_are_right(m, b):
    assert not exact_disagreements(m, b, flagged_too=True)


def test_folded_middle_cell_matches_exact_count_at_integer_b():
    # (1, m2, 1) is symmetric in cell 2: the count is solved on (0, 1) and
    # folded at s = 1
    rng = random.Random(26)
    for b in (-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        for _ in range(40):
            m = (1.0, rng.uniform(-10.0, 10.0), 1.0)
            n, sols = count_cell(m, b, 2)
            assert n == positive_root_count(g_polynomial(m, b)) == len(sols), (m, b)
            assert count_cell(m, b, 2, roots=False)[0] == n, (m, b)


def test_counter_matches_exact_count_at_integer_b():
    known = {(m, b) for m, b, _, _ in KNOWN_WRONG}
    rng = random.Random(20)
    for b in (-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        for _ in range(40):
            m = tuple(rng.uniform(-10.0, 10.0) for _ in range(3))
            assert (m, b) in known or not exact_disagreements(m, b), (m, b)


@pytest.mark.parametrize("m, b", [
    pytest.param(m, b, marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}"))
    for m, b, item, what in KNOWN_WRONG
])
def test_known_wrong_answers(m, b):
    assert not exact_disagreements(m, b, flagged_too=True)


# --- fold draws: masses near a double root of g at s, checked by the exact count ----
#
# fold_masses puts the double root at s only up to float rounding, so the two
# signs of eps are not guaranteed to split it: these are hard near-fold draws,
# each judged by the exact count alone.


def fold_draws(eps):
    """Seeded fold masses moved by +/-eps, with their b: 60 fold points s per b."""
    rng = random.Random(5)
    for b in (-2.0, -1.0, 2.0, 3.0):
        for _ in range(60):
            s = 10.0 ** rng.uniform(-6.0, 6.0)
            for side in (1.0, -1.0):
                yield fold_masses(b, s, side * eps), b


@pytest.mark.parametrize("b", [-2.0, -1.0, 0.5, 2.5])
def test_fold_masses_at_one_are_the_classifier_frontier(b):
    m1, m2, m3 = fold_masses(b, 1.0)
    assert m3 / m1 == pytest.approx(1.0, rel=1e-14)
    assert m2 / m1 == pytest.approx(frontier_curve_m2(b), rel=1e-12)


# The fold draws at eps = 1e-12 whose cell-2 count is off by one, with a
# flagged root near the fold: its sign decides between 0 and 2 roots there.
FOLD_WRONG = [
    ((0.5322853567053377, -0.6357017078598378, 0.5590667559971321), -1.0),  # 2, exact 1
    ((0.5322853567070208, -0.6357017078588995, 0.5590667559965965), -1.0),  # 2, exact 3
    ((0.504380999772548, -0.5685689506895535, 0.6498685677736883), -1.0),  # 1, exact 0
    ((0.5043809997741407, -0.5685689506883589, 0.6498685677734973), -1.0),  # 1, exact 2
    ((0.5259668856573907, -0.6123147231290623, 0.5902791839725038), -1.0),  # 2, exact 1
    ((0.5259668856590372, -0.6123147231279807, 0.5902791839721587), -1.0),  # 2, exact 3
    ((0.5311615208097232, -0.6605001571201712, 0.5306665443151011), -1.0),  # 2, exact 3
    ((0.5311615208109005, -0.6605001571204967, 0.5306665443135175), -1.0),  # 2, exact 1
    ((0.5773424681780057, 0.5773580701601082, 0.5773502691253585), 3.0),  # 2 flagged, exact 1
]


@pytest.mark.parametrize("eps", [1e-4, 1e-12])
def test_fold_draws_match_exact_count(eps):
    for m, b in fold_draws(eps):
        if (m, b) not in FOLD_WRONG:
            assert count_cell(m, b, 2)[0] == positive_root_count(g_polynomial(m, b)), (m, b)


@pytest.mark.parametrize("m, b", [
    pytest.param(m, b, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4: a sign inside rounding noise decides the count"))
    for m, b in FOLD_WRONG
])
def test_fold_draws_known_wrong(m, b):
    assert count_cell(m, b, 2)[0] == positive_root_count(g_polynomial(m, b))
