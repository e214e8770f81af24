"""The settable surface of the public API, pinned.

Every defaulted parameter of a public function or method, and every
field of a public dataclass, is a value a caller can set, and each one
multiplies the configurations the tests must cover. SURFACE lists them
for every callable in ``stablerkhs.__all__``; a callable absent from it
has none. Adding a knob therefore takes a visible edit here.
"""

import dataclasses
import inspect

import stablerkhs

SURFACE = {
    "Constant": ("value",),
    "ConvergenceTrace": ("grid", "tracked", "eigenvalue_paths",
                         "discrepancies", "unreliable", "min_gaps",
                         "clamped", "final"),
    "Diagonal": ("g",),
    "Estimate": ("estimator", "impulse_response", "coefficients", "order",
                 "gamma", "rss", "diagnostics"),
    "Gaussian": ("width",),
    "Geometric": ("ratio",),
    "Literal": ("values",),
    "MercerModel": ("basis", "eigenvalue_law"),
    "NormEstimate": ("value", "kind", "d", "method", "witness"),
    "OrthoBasis": ("kind", "window", "vectors", "params"),
    "PowerLaw": ("exponent",),
    "RankOne": ("v",),
    "RegressionProblem": ("u", "times", "y", "sigma", "window"),
    "Spectrum": ("d", "eigenvalues", "eigenvectors", "clamped",
                 "multiplicity_warnings"),
    "StabilityReport": ("kernel", "verdict", "class_flags", "tests"),
    "StableSpline": ("alpha",),
    "TranslationInvariant": ("h",),
    "TruncatedKernel": ("d", "entries", "source"),
    "canonical_basis": ("window",),
    "classify": ("seed",),
    "convergence_scan": ("threads",),
    "inf_one_norm_exact": ("cap",),
    "inf_one_norm_heuristic": ("restarts", "seed"),
    "mercer_reconstruct": ("reference",),
    "norm_growth_scan": ("method", "cap", "restarts", "seed"),
    "ns_condition_estimate": ("cap", "restarts", "seed"),
    "select_gamma": ("folds",),
    "simulate": ("window",),
    "sweep_d": ("reference",),
}


def _defaulted(fn):
    return tuple(p.name for p in inspect.signature(fn).parameters.values()
                 if p.default is not p.empty)


def _settable(obj):
    """Dataclass fields, then "method.param" for defaulted method
    parameters; for a function, its defaulted parameters."""
    if not inspect.isclass(obj):
        return _defaulted(obj)
    out = ()
    if dataclasses.is_dataclass(obj):
        out += tuple(f.name for f in dataclasses.fields(obj))
    for name, method in inspect.getmembers(obj, inspect.isfunction):
        if not name.startswith("_"):
            out += tuple(f"{name}.{p}" for p in _defaulted(method))
    return out


def test_public_settable_values_match_the_allow_list():
    found = {name: _settable(getattr(stablerkhs, name))
             for name in stablerkhs.__all__
             if callable(getattr(stablerkhs, name))}
    assert {name: values for name, values in found.items() if values} \
        == SURFACE
