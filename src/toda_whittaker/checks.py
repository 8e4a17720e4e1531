"""Identity checks shared by the ``verify`` command and the acceptance tests.

Each check function evaluates both sides of one identity at one point and
returns a :class:`CaseResult`: the two sides, their residual, the limit the
residual must meet, and whether it does.  :data:`SUITES` groups the checks
into the named suites that ``verify`` runs; the acceptance tests call the
same functions, at the suites' points or at their own, and apply their own
bounds to the returned sides and residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .gl_baxter import (
    baxter_apply,
    baxter_eigenfunction,
    baxter_eigenfunction_batch,
    baxter_eigenvalue,
    commutation_residual,
    dual_baxter_apply,
    spherical_transform_check_rank2,
)
from .gl_whittaker import (
    closed_form_gl2,
    closed_form_gl2_batch,
    givental_recursive_eval,
    mb_closed_form_batch,
    mellin_barnes_eval,
    toda_apply,
)
from .local_lfactors import SatakeClass, verify_tq_identity
from .quadrature import _DEFAULT_MAX_EVALS
from .rankin_selberg import (
    barnes_gustafson_check,
    bump_friedberg_integral,
    bump_friedberg_prediction,
    bump_inner_correlation,
    bump_inner_correlation_prediction,
    double_step_kernel,
    stade_kernel,
)
from .so_toda import closed_form_so3, so_toda_apply_h2

__all__ = [
    "CaseResult",
    "SUITES",
    "SUITE_OPTIONS",
    "SuiteOptions",
    "barnes",
    "baxter_eigen",
    "bump_friedberg",
    "commute",
    "dual_baxter",
    "inner_correlation",
    "mb_vs_givental",
    "spherical_rank2",
    "stade",
    "toda",
    "tq_padic",
]


@dataclass(frozen=True)
class CaseResult:
    """One checked case: both sides, their residual, the limit ``tol`` the
    residual must meet (``ok``), and the integrand evaluations the quadrature
    behind the sides took (0 where the check does not count them)."""

    case: str
    lhs: object
    rhs: object
    residual: float
    tol: float
    ok: bool
    evaluations: int = 0


def _result(case: str, lhs, rhs, residual: float, limit: float, evaluations: int = 0) -> CaseResult:
    return CaseResult(case, lhs, rhs, residual, limit, residual <= limit, evaluations)


# ---------------------------------------------------------------------------
# One function per identity


def baxter_eigen(case, gamma, lam, y, convention, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Integral operator applied to its eigenfunction, over the eigenfunction
    at ``y``, against the Gamma-product eigenvalue."""

    def psi(xs: np.ndarray) -> np.ndarray:
        return baxter_eigenfunction_batch(lam, xs, convention)

    res = baxter_apply(psi, y, gamma, convention, tol, psi_spectral=lam, max_evals=max_evals)
    base = baxter_eigenfunction(lam, y, convention)
    lhs = res.value / base
    rhs = baxter_eigenvalue(gamma, lam, convention)
    return _result(case, lhs, rhs, abs(lhs - rhs), 10.0 * tol * max(1.0, 1.0 / abs(base)))


def mb_vs_givental(case, lam, x, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Spectral-plane model against the closed form (gl2) or the recursive
    coordinate model (gl3)."""
    mb = mellin_barnes_eval(lam, x, tol, max_evals=max_evals)
    if len(lam) == 2:
        ref = closed_form_gl2(lam, x)
    else:
        ref = givental_recursive_eval(lam, x, tol, max_evals).value
    return _result(case, mb.value, ref, abs(mb.value - ref), 10.0 * tol)


def stade(case, x_top, x_bot, lam, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Two chained one-step kernels, integrated, against the closed-form
    descent kernel."""
    closed = stade_kernel(x_top, x_bot, lam)
    quad = double_step_kernel(x_top, x_bot, lam, tol, max_evals)
    return _result(case, quad.value, closed, abs(quad.value - closed), 10.0 * tol)


def bump_friedberg(case, ell, gamma, lam, t, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Damped pairing of rank-``ell`` eigenfunctions against its Gamma
    product; the limit is 10 tol at ``ell = 0`` and 20 tol at ``ell = 1``."""
    res = bump_friedberg_integral(ell, gamma, lam, t, tol, max_evals)
    rhs = bump_friedberg_prediction(gamma, lam, t)
    return _result(case, res.value, rhs, abs(res.value - rhs), (20.0 if ell else 10.0) * tol)


def inner_correlation(case, gamma, lam, t, x_last, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Reduced level-1 inner correlation against its phase-times-Gamma
    prediction."""
    res = bump_inner_correlation(1, gamma, lam, t, x_last, tol, max_evals)
    rhs = bump_inner_correlation_prediction(gamma, lam, t, x_last)
    return _result(case, res.value, rhs, abs(res.value - rhs), 20.0 * tol)


def barnes(case, lam2, gam2, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Two-row contour integral of four Gamma factors against its closed form."""
    chk = barnes_gustafson_check(lam2, gam2, tol, max_evals)
    return _result(case, chk.lhs, chk.rhs, chk.residual, 10.0 * tol)


def tq_padic(case, params, p):
    """Exact ``T Q = 1`` at the prime ``p``, through order ``2 n + 4`` for
    ``n`` rational Satake parameters; the residual is 0 or 1."""
    ok = verify_tq_identity(SatakeClass(params, p), 2 * len(params) + 4)
    return _result(case, Fraction(1), Fraction(1), 0.0 if ok else 1.0, 0.0)


def toda(case, hamiltonian, psi, x, rhs):
    """``hamiltonian(psi, x, step)``, Richardson-extrapolated over the steps
    1e-3 and 5e-4, over ``psi(x)`` against the eigenvalue ``rhs``."""
    coarse = hamiltonian(psi, x, 1e-3)
    fine = hamiltonian(psi, x, 1e-3 / 2.0)
    base = complex(psi(np.asarray([list(x)], dtype=float))[0])
    lhs = (4.0 * fine - coarse) / 3.0 / base
    return _result(case, lhs, rhs, abs(lhs - rhs), 1e-7)


def dual_baxter(case, gamma, x, z, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Dual operator applied to the spectral-plane closed form, over that
    form at ``gamma``, against the multiplier ``exp(-exp(x_last - z))``."""

    def F(betas: np.ndarray) -> np.ndarray:
        return mb_closed_form_batch(betas, x)

    res = dual_baxter_apply(F, gamma, z, tol, max_evals=max_evals)
    base = complex(mb_closed_form_batch(np.asarray([gamma], dtype=complex), x)[0])
    lhs = res.value / base
    rhs = math.exp(-math.exp(x[-1] - z))
    return _result(case, lhs, rhs, abs(lhs - rhs), 10.0 * tol * max(1.0, 1.0 / abs(base)),
                   res.evaluations)


def spherical_rank2(case, gamma, lam, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Rank-2 zonal average against its Gamma-product prediction."""
    chk = spherical_transform_check_rank2(gamma, lam, tol, max_evals)
    return _result(case, chk.lhs, chk.rhs, chk.residual, 10.0 * tol)


def commute(case, gammas, lam, y, tol, max_evals=_DEFAULT_MAX_EVALS):
    """Two integral operators applied in both orders."""
    chk = commutation_residual(gammas, lam, y, tol, max_evals)
    return _result(case, chk.first_then_second, chk.second_then_first, chk.residual, 10.0 * tol)


# ---------------------------------------------------------------------------
# Suites: each maps options to (case name, thunk) pairs


@dataclass(frozen=True)
class SuiteOptions:
    """``tol`` replaces each case's default tolerance where set, ``budget``
    caps each quadrature, ``rank`` selects baxter-eigen cases, and ``n`` and
    ``trials`` size the tq-padic draws."""

    tol: float | None = None
    budget: int = _DEFAULT_MAX_EVALS
    rank: int | None = None
    n: int = 3
    trials: int = 20

    def tol_or(self, default: float) -> float:
        return self.tol if self.tol is not None else default


def _thunks(check, specs, *extra):
    return [(spec[0], partial(check, *spec, *extra)) for spec in specs]


def _baxter_eigen_suite(o: SuiteOptions):
    specs = [
        ("rank1-lie", -1.2j, (0.4,), (0.2,), "lie", o.tol_or(1e-8)),
        ("rank1-iwasawa", -2.4j, (0.8,), (0.4,), "iwasawa", o.tol_or(1e-8)),
        ("rank1-iwasawa-pi", -2.4j, (0.8,), (0.4,), "iwasawa_pi", o.tol_or(1e-8)),
        ("rank2-lie", -1.5j, (0.5, -0.5), (0.1, -0.3), "lie", o.tol_or(1e-5)),
        ("rank2-iwasawa-pi", -3.0j, (0.5, -0.5), (-0.6, 0.9), "iwasawa_pi", 2e-5),
    ]
    specs = [s for s in specs if o.rank is None or len(s[2]) == o.rank]
    return _thunks(baxter_eigen, specs, o.budget)


def _mb_vs_givental_suite(o: SuiteOptions):
    specs = [
        ("gl2", (0.4, -0.3), (0.25, -0.45), o.tol_or(1e-8)),
        ("gl3", (0.6, 0.1, -0.45), (0.3, 0.0, -0.3), o.tol_or(1e-6)),
    ]
    return _thunks(mb_vs_givental, specs, o.budget)


def _stade_suite(o: SuiteOptions):
    specs = [
        ("ell1", (0.3, -0.2), (), (0.5, -0.5), o.tol_or(1e-8)),
        ("ell2", (0.3, 0.0, -0.3), (0.1,), (0.5, -0.5), o.tol_or(1e-7)),
    ]
    return _thunks(stade, specs, o.budget)


def _bump_friedberg_suite(o: SuiteOptions):
    pairings = [
        ("ell0-gamma07", 0, (0.0,), (0.0,), -0.7j, o.tol_or(1e-8)),
        ("ell0-shifted", 0, (0.3,), (0.1,), -1.0j, o.tol_or(1e-8)),
        ("ell1-pair", 1, (0.4, -0.4), (0.2, -0.2), -0.8j, max(o.tol_or(1e-4), 1e-5)),
    ]
    correlations = [("inner-correlation", (0.3,), (0.2, -0.2), -0.8j, 0.6, o.tol_or(1e-6))]
    return _thunks(bump_friedberg, pairings, o.budget) + _thunks(
        inner_correlation, correlations, o.budget
    )


def _barnes_suite(o: SuiteOptions):
    specs = [
        ("imaginary-pairs", (-0.5j, -0.7j), (0.5j, 0.6j)),
        ("generic-complex", (0.3 - 0.6j, -0.2 - 0.5j), (0.1 + 0.4j, -0.3 + 0.55j)),
        ("wide-separation", (-0.9j, -1.1j), (0.8j, 1.2j)),
    ]
    return _thunks(barnes, specs, o.tol_or(1e-8), o.budget)


def _tq_padic_suite(o: SuiteOptions):
    rng = np.random.default_rng(20260822)
    primes = (2, 3, 5, 7, 11)
    specs = []
    for trial in range(o.trials):
        n = int(rng.integers(1, min(max(o.n, 1), 5) + 1))
        params = []
        for _ in range(n):
            num = 0
            while num == 0:
                num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            params.append(Fraction(num, den))
        p = int(primes[int(rng.integers(0, len(primes)))])
        specs.append(("trial%02d-n%d-p%d" % (trial, n, p), tuple(params), p))
    return _thunks(tq_padic, specs)


def _toda_suite(o: SuiteOptions):
    lam2 = (0.5, -0.3)

    def gl1_psi(xs: np.ndarray) -> np.ndarray:
        return np.exp(1j * 0.7 * xs[:, 0])

    def gl2_psi(xs: np.ndarray) -> np.ndarray:
        return closed_form_gl2_batch(lam2, xs)

    def so3_psi(xs: np.ndarray) -> np.ndarray:
        return np.array([closed_form_so3(0.6, float(r[0])) for r in xs])

    h1, h2 = partial(toda_apply, "H1"), partial(toda_apply, "H2tilde")
    specs = [
        ("gl1-h1", h1, gl1_psi, (0.3,), 0.7 + 0j),
        ("gl1-h2", h2, gl1_psi, (0.3,), 0.5 * 0.7**2 + 0j),
        ("gl2-h1", h1, gl2_psi, (0.2, -0.1), lam2[0] + lam2[1] + 0j),
        ("gl2-h2", h2, gl2_psi, (0.2, -0.1), 0.5 * (lam2[0] ** 2 + lam2[1] ** 2) + 0j),
        ("so3-h2", so_toda_apply_h2, so3_psi, (0.25,), 0.5 * 0.6**2 + 0j),
    ]
    return _thunks(toda, specs)


def _dual_baxter_suite(o: SuiteOptions):
    specs = [
        ("rank1", (0.4,), (0.1,), 0.7, o.tol_or(1e-8)),
        ("rank2", (0.5, -0.3), (0.2, -0.4), 0.9, o.tol_or(1e-5)),
    ]
    return _thunks(dual_baxter, specs, o.budget)


def _spherical_rank2_suite(o: SuiteOptions):
    specs = [
        ("acceptance-point", (0.8, -0.8), -1.5j),
        ("generic-point", (0.3, -0.6), -1.8j),
        ("constant-zonal", (0.0, 0.0), -1.5j),
    ]
    return _thunks(spherical_rank2, specs, o.tol_or(1e-5), o.budget)


def _commute_suite(o: SuiteOptions):
    specs = [
        ("rank1", (-0.9j, -1.4j), (0.3,), (0.2,)),
        ("rank2", (-0.9j, -1.4j), (0.4, -0.4), (0.2, -0.1)),
    ]
    return _thunks(commute, specs, o.tol_or(1e-7), o.budget)


#: Suite name -> function of :class:`SuiteOptions` returning the suite's
#: ``(case name, thunk)`` pairs; each thunk returns a :class:`CaseResult`.
SUITES = {
    "baxter-eigen": _baxter_eigen_suite,
    "mb-vs-givental": _mb_vs_givental_suite,
    "stade": _stade_suite,
    "bump-friedberg": _bump_friedberg_suite,
    "barnes": _barnes_suite,
    "tq-padic": _tq_padic_suite,
    "toda": _toda_suite,
    "dual-baxter": _dual_baxter_suite,
    "spherical-rank2": _spherical_rank2_suite,
    "commute": _commute_suite,
}

#: Suite name -> the :class:`SuiteOptions` fields its cases read; ``verify``
#: rejects a flag for any other field.
SUITE_OPTIONS = {
    "baxter-eigen": ("tol", "budget", "rank"),
    "mb-vs-givental": ("tol", "budget"),
    "stade": ("tol", "budget"),
    "bump-friedberg": ("tol", "budget"),
    "barnes": ("tol", "budget"),
    "tq-padic": ("n", "trials"),
    "toda": (),
    "dual-baxter": ("tol", "budget"),
    "spherical-rank2": ("tol", "budget"),
    "commute": ("tol", "budget"),
}
