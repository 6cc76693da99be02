"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own counting machinery:
dense sign scans over numpy grids, numpy eigenvalue root-finding for the
polynomial specializations, finite differences for derivatives, and the
full-line balance function with absolute values for the cell
reparameterization checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from eulercc.acceptance import horner

LOG10 = math.log(10.0)

# Fixed million-point log grid on [1e-6, 1e6] shared by the signomial scans.
SCAN_LOGX = np.linspace(-6.0, 6.0, 10 ** 6)


def signomial_scan_count(pairs, logx=None):
    """Sign changes of sum(c x^e) over a dense log-spaced grid."""
    if logx is None:
        logx = SCAN_LOGX
    c = np.array([p[0] for p in pairs])
    e = np.array([p[1] for p in pairs])
    vals = np.exp(logx[:, None] * (e[None, :] * LOG10)) @ c
    signs = np.sign(vals)
    nonzero = signs[signs != 0.0]
    return int(np.sum(nonzero[1:] != nonzero[:-1]))


def positive_roots_of_poly(coeffs_ascending):
    """Distinct positive real roots via numpy eigenvalues + brentq polish."""
    co = np.array(coeffs_ascending[::-1], dtype=float)
    co = np.trim_zeros(co, "f")
    roots = np.roots(co)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-7 * max(1.0, abs(r.real)) or r.real <= 0.0:
            continue
        x = r.real
        lo, hi = x * (1 - 1e-4), x * (1 + 1e-4)
        f = lambda t: horner(coeffs_ascending, t)
        if f(lo) * f(hi) < 0:
            x = brentq(f, lo, hi, xtol=1e-300, rtol=1e-15)
        out.append(x)
    out.sort()
    # collapse near-duplicates
    dedup = []
    for x in out:
        if not dedup or x - dedup[-1] > 1e-9 * x:
            dedup.append(x)
    return dedup


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


def cell_scan_counts(m1, m2, m3, b, n=400_001):
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
