"""Stable kernels over the natural numbers: diagnostics, spectra, estimation.

The package turns the structure theory of BIBO-stable reproducing-kernel
Hilbert spaces of sequences into executable tools:

* ``kernels`` / ``generators``: kernel families evaluable entrywise,
  finite truncations, PSD validation;
* ``stability`` / ``opnorm``: the summability class battery, exact and
  heuristic (inf,1) operator norms, evidence-based classification;
* ``spectral``: truncated eigendecompositions, convergence monitoring,
  Mercer reconstruction and feature maps;
* ``basis``: orthonormal bases (canonical, discrete Laguerre, random),
  kernel synthesis from eigenvalue laws, feature-space stability tests;
* ``sysid``: impulse-response identification: least squares with order
  selection, kernel regularized least squares, and the truncated
  eigenbasis surrogate;
* ``cli``: the ``stablerkhs`` command-line front end.
"""

from .errors import (
    ConfigError,
    DomainError,
    EnumerationCapError,
    NumericalError,
    StableRKHSError,
    StructuralError,
)
from .generators import (
    Constant,
    Geometric,
    Literal,
    PowerLaw,
    SequenceGenerator,
    parse_generator,
)
from .kernels import (
    Diagonal,
    Gaussian,
    KernelSpec,
    RankOne,
    StableSpline,
    TranslationInvariant,
    TruncatedKernel,
    spec_from_config,
    truncate,
    validate_psd,
)
from .opnorm import (
    NormEstimate,
    NormKind,
    NormMethod,
    inf_one_norm_exact,
    inf_one_norm_heuristic,
)
from .stability import (
    StabilityReport,
    classify,
    divergence_probe,
    norm_growth_scan,
    partial_trace,
    tail_trace,
)
from .spectral import (
    ConvergenceTrace,
    Spectrum,
    convergence_scan,
    eigendecompose,
    feature_map,
    mercer_reconstruct,
)
from .basis import (
    MercerModel,
    OrthoBasis,
    bounded_l1_test,
    canonical_basis,
    l1_profile,
    laguerre_basis,
    ns_condition_estimate,
    random_orthogonal_basis,
    sufficient_stability_test,
    synthesize_kernel,
)
from .sysid import (
    Estimate,
    RegressionProblem,
    ls_estimate,
    rels_estimate,
    rels_path,
    select_gamma,
    select_order,
    simulate,
    sweep_d,
    trunc_mercer_estimate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
