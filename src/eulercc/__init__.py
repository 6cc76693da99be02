"""Certified counting, isolation and classification of collinear three-body
central configurations ("Euler configurations") for arbitrary real masses or
vorticities and any real force-law exponent, built on a certified root
engine for real-exponent power sums (signomials).

The namespace is lazy: `import eulercc` loads no submodule, and each name of
`__all__` imports its submodule on first access (PEP 562), so a process that
uses only the signomial engine never loads the three-body counter.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "euler": (
        "INFINITE", "CellCount", "ConfigurationSolution", "abc_terms",
        "cell_mass_view", "celli_identity_residual", "count_all", "count_cell",
        "degenerate_family", "endpoint_sign_g", "eval_g", "h_signomial",
    ),
    "classifier": (
        "RegionClass", "classify_E1", "classify_E2", "classify_total", "frontier_curve_m2",
        "grid_scan", "grid_to_csv",
    ),
    "numerics": ("ToleranceError",),
    "qps": (
        "AffineConstraint", "BivariateSignomial", "LineCount", "count_on_line",
        "euler_line_system", "khovanskii_bound", "restrict_to_line", "straight_bound",
    ),
    "signomial": (
        "IDENTICALLY_ZERO", "Endpoint", "RootRecord", "Signomial", "count_and_isolate",
        "derivative_chain", "evaluate", "normalize", "sign_variations",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
