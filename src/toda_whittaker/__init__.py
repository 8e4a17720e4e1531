"""Numerical Whittaker functions for quantum Toda chains, Baxter operators,
and local L-factor identities.

The package is organized by subject:

* :mod:`toda_whittaker.numerics` — log-Gamma, Gamma products, Macdonald K.
* :mod:`toda_whittaker.quadrature` — deterministic integration: adaptive
  over boxes and decaying integrands on R^d, the trapezoid rule along
  horizontal complex contours.
* :mod:`toda_whittaker.gl_whittaker` — A-series Whittaker functions in the
  coordinate and spectral-plane models, mixed pipelines, Toda Hamiltonians.
* :mod:`toda_whittaker.gl_baxter` — Baxter Q-operators (three conventions),
  their dual on the spectral side, and the rank-2 spherical transform.
* :mod:`toda_whittaker.so_toda` — odd-orthogonal chain: evaluators, Baxter
  operator, quadratic Hamiltonian.
* :mod:`toda_whittaker.local_lfactors` — exact non-Archimedean local factors
  and the Archimedean Gamma-factor.
* :mod:`toda_whittaker.rankin_selberg` — convolution integrals: pairing
  integrals with Gamma-product evaluations, kernel contraction identities,
  and the two-row contour identity.
* :mod:`toda_whittaker.checks` — one function per identity, and the
  ``verify`` suites built from them.
* :mod:`toda_whittaker.cli` — command-line interface.
"""

from .errors import (
    BudgetExceeded,
    ContourError,
    ConvergenceError,
    PoleError,
    RankError,
    ShiftError,
    SingularMatrixError,
    TodaWhittakerError,
)
from .numerics import AccuracyBudget, gamma_product, log_gamma, macdonald_k
from .quadrature import (
    ContourSpec,
    DecayProfile,
    DoubleExponential,
    Exponential,
    QuadratureResult,
    integrate_box,
    integrate_contour,
    integrate_decaying,
    stable_exp,
)
from .gl_whittaker import (
    closed_form_gl2,
    closed_form_gl2_batch,
    givental_eval,
    givental_recursive_eval,
    givental_step_kernel,
    mb_closed_form_batch,
    mellin_barnes_eval,
    mixed_eval,
    plancherel_measure,
    toda_apply,
)
from .gl_baxter import (
    MIN_SPECTRAL_GAP,
    BaxterConvention,
    CommutationCheck,
    LoweringCheck,
    SphericalTransformCheck,
    baxter_apply,
    baxter_eigenfunction,
    baxter_eigenfunction_batch,
    baxter_eigenvalue,
    baxter_kernel,
    commutation_residual,
    dual_baxter_apply,
    gaussian_zonal_function,
    half_sum_offsets,
    lowering_compatibility,
    spherical_function_rank2,
    spherical_transform_check_rank2,
    spherical_transform_rank2,
    universal_baxter_phi,
)
from .so_toda import (
    MIN_SO_SPECTRAL_GAP,
    closed_form_so3,
    so_baxter_apply,
    so_baxter_eigenvalue,
    so_givental_eval,
    so_recursive_eval,
    so_toda_apply_h2,
)
from .local_lfactors import (
    SatakeClass,
    TruncatedSeries,
    archimedean_lfactor,
    complete_symm,
    elementary_symm,
    hecke_q_series,
    hecke_t_series,
    local_lfactor_p,
    local_lfactor_p_exact,
    verify_tq_identity,
)
from .rankin_selberg import (
    BarnesCheck,
    barnes_gustafson_check,
    bump_friedberg_integral,
    bump_friedberg_prediction,
    bump_inner_correlation,
    bump_inner_correlation_prediction,
    double_step_kernel,
    stade_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyBudget",
    "BarnesCheck",
    "BaxterConvention",
    "BudgetExceeded",
    "CommutationCheck",
    "ContourError",
    "ContourSpec",
    "ConvergenceError",
    "DecayProfile",
    "DoubleExponential",
    "Exponential",
    "LoweringCheck",
    "MIN_SO_SPECTRAL_GAP",
    "MIN_SPECTRAL_GAP",
    "PoleError",
    "QuadratureResult",
    "RankError",
    "SatakeClass",
    "ShiftError",
    "SingularMatrixError",
    "SphericalTransformCheck",
    "TodaWhittakerError",
    "TruncatedSeries",
    "__version__",
    "archimedean_lfactor",
    "barnes_gustafson_check",
    "baxter_apply",
    "baxter_eigenfunction",
    "baxter_eigenfunction_batch",
    "baxter_eigenvalue",
    "baxter_kernel",
    "bump_friedberg_integral",
    "bump_friedberg_prediction",
    "bump_inner_correlation",
    "bump_inner_correlation_prediction",
    "closed_form_gl2",
    "closed_form_gl2_batch",
    "closed_form_so3",
    "commutation_residual",
    "complete_symm",
    "double_step_kernel",
    "dual_baxter_apply",
    "elementary_symm",
    "gamma_product",
    "gaussian_zonal_function",
    "givental_eval",
    "givental_recursive_eval",
    "givental_step_kernel",
    "half_sum_offsets",
    "hecke_q_series",
    "hecke_t_series",
    "integrate_box",
    "integrate_contour",
    "integrate_decaying",
    "local_lfactor_p",
    "local_lfactor_p_exact",
    "log_gamma",
    "lowering_compatibility",
    "macdonald_k",
    "mb_closed_form_batch",
    "mellin_barnes_eval",
    "mixed_eval",
    "plancherel_measure",
    "so_baxter_apply",
    "so_baxter_eigenvalue",
    "so_givental_eval",
    "so_recursive_eval",
    "so_toda_apply_h2",
    "spherical_function_rank2",
    "spherical_transform_check_rank2",
    "spherical_transform_rank2",
    "stable_exp",
    "stade_kernel",
    "toda_apply",
    "universal_baxter_phi",
    "verify_tq_identity",
]
