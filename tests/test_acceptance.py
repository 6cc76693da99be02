"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The criteria live in eulercc.acceptance, which pins every tolerance
and seeds every draw; here they run at their default draw counts, with the
same exact oracles as `eulercc verify`, which runs fewer draws: criteria 1
and 7 use the polynomial at b = -2 and -1, and criterion 10 compares the
count of signomials with exponents in (1/4)Z on (0, inf) with Sturm's count.
Real exponents with close gaps are compared with a dense scan in
tests/test_signomial.py.
"""

from contextlib import contextmanager

from eulercc import acceptance


@contextmanager
def criterion(number):
    description = acceptance.CRITERIA[number - 1].description
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"[criterion {number:02d}] PASS - {description}")


def test_criterion_01_classic_uniqueness():
    with criterion(1):
        acceptance.classic_uniqueness()


def test_criterion_02_vortex_total_bound():
    with criterion(2):
        acceptance.vortex_total_bound()


def test_criterion_03_middle_cell_bound():
    with criterion(3):
        acceptance.middle_cell_bound()


def test_criterion_04_positive_masses_one_per_cell():
    with criterion(4):
        acceptance.positive_masses_one_per_cell()


def test_criterion_05_total_bounds_by_regime():
    with criterion(5):
        acceptance.total_bounds_by_regime()


def test_criterion_06_zero_count_and_zero_sum():
    with criterion(6):
        acceptance.zero_count_and_zero_sum()


def test_criterion_07_expansion_equivalences():
    with criterion(7):
        acceptance.expansion_equivalences()


def test_criterion_08_degenerate_families():
    with criterion(8):
        acceptance.degenerate_families()


def test_criterion_09_figure_reconstruction():
    with criterion(9):
        acceptance.figure_reconstruction()


def test_criterion_10_root_engine_vs_oracle():
    with criterion(10):
        acceptance.root_engine_vs_oracle()


def test_criterion_11_bound_formulas_and_line_reduction():
    with criterion(11):
        acceptance.bound_formulas_and_line_reduction()
