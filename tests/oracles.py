"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own counting machinery:
dense sign scans over numpy grids, finite differences for derivatives, the
full-line balance function with absolute values for the cell
reparameterization checks, and masses near the fold curve, where g has a
double root. The million-point signomial scan checks the root engine on real
exponents with close gaps (tests/test_signomial.py), which criterion 10's
exponents in (1/4)Z never have. The exact oracles, g_polynomial's
coefficients at integer b and positive_root_count's Sturm count, live in
eulercc.acceptance, since `eulercc verify` uses them too.
"""

from __future__ import annotations

import math

import numpy as np

from eulercc.euler import abc_terms

LOG10 = math.log(10.0)

# Fixed million-point log grid on [1e-6, 1e6] shared by the signomial scans.
SCAN_LOGX = np.linspace(-6.0, 6.0, 10 ** 6)


def signomial_sign_changes(pairs, logx=None):
    """Sign changes of sum(c x^e) over a dense log-spaced grid."""
    if logx is None:
        logx = SCAN_LOGX
    c = np.array([p[0] for p in pairs])
    e = np.array([p[1] for p in pairs])
    vals = np.exp(logx[:, None] * (e[None, :] * LOG10)) @ c
    signs = np.sign(vals)
    nonzero = signs[signs != 0.0]
    return int(np.sum(nonzero[1:] != nonzero[:-1]))


def full_line_g(m1, m2, m3, b, s):
    """The balance function on the whole punctured line s not in {-1, 0}."""
    u = 1.0 + s
    a = u * (abs(u) ** (b - 1.0) - 1.0)
    bb = s * (abs(s) ** (b - 1.0) - 1.0)
    c = s * u * (abs(s) ** (b - 1.0) - abs(u) ** (b - 1.0))
    return m1 * a + m2 * bb + m3 * c


def _scan_signs(vals):
    signs = np.sign(vals)
    nonzero = signs[signs != 0.0]
    return int(np.sum(nonzero[1:] != nonzero[:-1]))


def cell_sign_changes(m1, m2, m3, b, n=400_001):
    """Scan counts (e1, e2, e3): roots with particle 1, 2, 3 in the middle.

    Cell 2 is s > 0, cell 3 is -1 < s < 0, cell 1 is s < -1 in the
    normalization x = (0, 1, 1+s).
    """
    glog = np.linspace(-6.0, 6.0, n)
    s_pos = 10.0 ** glog
    e2 = _scan_signs(full_line_g(m1, m2, m3, b, s_pos))
    # -1 < s < 0: approach both endpoints geometrically
    y = np.unique(np.concatenate([10.0 ** np.linspace(-9, -0.30103, n // 2),
                                  1.0 - 10.0 ** np.linspace(-9, -0.30103, n // 2)]))
    e3 = _scan_signs(full_line_g(m1, m2, m3, b, -y))
    e1 = _scan_signs(full_line_g(m1, m2, m3, b, -1.0 - s_pos))
    return e1, e2, e3


def diff1(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fold_masses(b, s, eps=0.0):
    """Unit masses m = A x A' near the fold at s, moved by eps*A/|A|.

    g = m . A(s) with A = abc_terms(b, s), so in exact arithmetic m makes
    g(s) and g'(s) both zero and the move sets g(s) = eps*|A(s)|. In floats
    both hold only up to the rounding of A, A' and the cross product: at
    small eps that rounding can exceed eps*|A(s)|, so the two signs of eps
    need not fall on the two sides of the fold, and at large eps the move is
    not local. Callers use these as near-fold draws checked against the
    exact count, not as a guaranteed split of a double root.
    """
    u = 1.0 + s
    a = abc_terms(b, s)
    da = (b * u ** (b - 1.0) - 1.0, b * s ** (b - 1.0) - 1.0,
          b * s ** (b - 1.0) * u + s ** b - u ** b - b * s * u ** (b - 1.0))
    m = (a[1] * da[2] - a[2] * da[1], a[2] * da[0] - a[0] * da[2], a[0] * da[1] - a[1] * da[0])
    norm_m, norm_a = math.hypot(*m), math.hypot(*a)
    return tuple(x / norm_m + eps * y / norm_a for x, y in zip(m, a))
