"""Eigenfunctions of the open chain with a reflecting end, rank one and two.

The functions here solve the chain whose potential carries, besides the
nearest-neighbour couplings, one extra exponential wall at the first site.
They are built as iterated integrals over a triangular pattern holding two
families of auxiliary variables, with every integration direction damped
double-exponentially (or exponentially, for the one conditionally convergent
direction of the operator application).

Provided: the rank-one closed form (a Macdonald function of doubled order),
direct pattern-integral evaluation at ranks one and two, the rank-two
function by one step from the rank-one closed form, the integral operator
with a two-Gamma-factor eigenvalue, and the quadratic chain Hamiltonian
applied by central differences.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import RankError, ShiftError
from .numerics import (
    AccuracyBudget,
    _DEFAULT_BUDGET,
    _box_scales,
    _macdonald_grid,
    _quadrature_budget,
    gamma_product,
    log_gamma,
    macdonald_k,
)
from .gl_whittaker import _kinetic, _stencil
from .quadrature import (
    _DEFAULT_MAX_EVALS,
    QuadratureResult,
    _with_tail,
    integrate_box,
    stable_exp,
)

__all__ = [
    "MIN_SO_SPECTRAL_GAP",
    "closed_form_so3",
    "so_givental_eval",
    "so_recursive_eval",
    "so_baxter_eigenvalue",
    "so_baxter_apply",
    "so_toda_apply_h2",
]


#: Minimum decay rate required of the conditionally convergent directions in
#: ``so_baxter_apply``; see that function.
MIN_SO_SPECTRAL_GAP = 0.25


def closed_form_so3(lam: complex, x: float) -> complex:
    """Rank-one eigenfunction: ``2 K_{2 i lam}(2 exp(x/2))``."""
    return 2.0 * macdonald_k(2j * complex(lam), 2.0 * math.exp(0.5 * float(x)))


def _closed_form_so3_batch(
    lam: complex, xs: np.ndarray, budget: AccuracyBudget = _DEFAULT_BUDGET
) -> np.ndarray:
    args = 2.0 * np.exp(np.clip(0.5 * np.asarray(xs, dtype=float), -370.0, 350.0))
    return 2.0 * _macdonald_grid(2j * complex(lam), args, budget)


def _as_lam_tuple(lam) -> tuple[complex, ...]:
    if isinstance(lam, (int, float, complex)):
        return (complex(lam),)
    return tuple(complex(v) for v in lam)


def so_givental_eval(
    lam,
    x: Sequence[float],
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Rank-one or rank-two eigenfunction by direct pattern quadrature.

    Rank one integrates the single auxiliary variable; rank two fuses all
    four pattern variables into one quadrature.  Spectral parameters may
    carry a small imaginary part; the value is even under flipping all of
    them at rank one.
    """
    lam_t = _as_lam_tuple(lam)
    x_arr = np.asarray([float(v) for v in x], dtype=float)
    ell = x_arr.size
    if len(lam_t) != ell:
        raise RankError("lam and x must have equal length")
    if ell not in (1, 2):
        raise RankError("so_givental_eval supports one or two variables")
    imag_slack = max(abs(v.imag) for v in lam_t)
    tau, big, m = _box_scales(tol, imag_slack)

    if ell == 1:
        la, xv = lam_t[0], x_arr[0]

        def f1(p: np.ndarray) -> np.ndarray:
            z = p[:, 0]
            expo = 1j * la * (2.0 * z - xv)
            expo = expo - np.exp(np.minimum(z, 700.0))
            expo = expo - np.exp(np.minimum(xv - z, 700.0))
            return stable_exp(expo)

        box = [(0.5 * xv - m, 0.5 * xv + m)]
        return _with_tail(integrate_box(f1, box, 0.8 * tol, max_evals), 2.0 * tau, tol)

    la1, la2 = lam_t
    x1, x2 = x_arr
    z1_hi = math.log(big) + 2.0
    z1_lo = x1 - m
    z2_hi = x1 + m
    z2_lo = x2 - m
    xb_hi = z1_hi + m
    xb_lo = z2_lo - m
    w_hi = math.log(big) + 2.0
    w_lo = xb_lo - m

    def f2(p: np.ndarray) -> np.ndarray:
        z1, z2, xb, w = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        expo = 1j * la2 * (2.0 * (z1 + z2) - x1 - x2 - xb)
        expo = expo + 1j * la1 * (2.0 * w - xb)
        walls = np.exp(np.minimum(z1, 700.0))
        walls += np.exp(np.minimum(xb - z1, 700.0))
        walls += np.exp(np.minimum(z2 - xb, 700.0))
        walls += np.exp(np.minimum(x1 - z1, 700.0))
        walls += np.exp(np.minimum(z2 - x1, 700.0))
        walls += np.exp(np.minimum(x2 - z2, 700.0))
        walls += np.exp(np.minimum(w, 700.0))
        walls += np.exp(np.minimum(xb - w, 700.0))
        return stable_exp(expo - walls)

    box = [(z1_lo, z1_hi), (z2_lo, z2_hi), (xb_lo, xb_hi), (w_lo, w_hi)]
    return _with_tail(integrate_box(f2, box, 0.8 * tol, max_evals), 8.0 * tau, tol)


def so_recursive_eval(
    lam,
    x: Sequence[float],
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Rank-two eigenfunction by chaining the step kernel onto the rank-one
    closed form (rank one falls back to the direct integral).

    The chained integral is fused into a single three-dimensional quadrature
    whose integrand carries the closed-form Macdonald factor, so this follows
    a genuinely different numerical path from ``so_givental_eval`` and serves
    as a self-consistency oracle for it.
    """
    lam_t = _as_lam_tuple(lam)
    x_arr = np.asarray([float(v) for v in x], dtype=float)
    ell = x_arr.size
    if len(lam_t) != ell:
        raise RankError("lam and x must have equal length")
    if ell not in (1, 2):
        raise RankError("so_recursive_eval supports one or two variables")
    if ell == 1:
        return so_givental_eval(lam_t, x_arr, tol, max_evals)

    la1, la2 = lam_t
    x1, x2 = x_arr
    tau, big, m = _box_scales(tol, max(abs(la1.imag), abs(la2.imag)))
    budget = _quadrature_budget(tol)
    z2_lo = x2 - m
    xb_lo = z2_lo - m

    def f(p: np.ndarray) -> np.ndarray:
        z1, z2, xb = p[:, 0], p[:, 1], p[:, 2]
        expo = 1j * la2 * (2.0 * (z1 + z2) - x1 - x2 - xb)
        walls = np.exp(np.minimum(z1, 700.0))
        walls += np.exp(np.minimum(xb - z1, 700.0))
        walls += np.exp(np.minimum(z2 - xb, 700.0))
        walls += np.exp(np.minimum(x1 - z1, 700.0))
        walls += np.exp(np.minimum(z2 - x1, 700.0))
        walls += np.exp(np.minimum(x2 - z2, 700.0))
        return stable_exp(expo - walls) * _closed_form_so3_batch(la1, xb, budget)

    box = [
        (x1 - 2.0 * m, math.log(big) + 2.0),
        (z2_lo, x1 + m),
        (xb_lo, math.log(big) + 2.0 + m),
    ]
    return _with_tail(integrate_box(f, box, 0.8 * tol, max_evals), 6.0 * tau, tol)


def so_baxter_eigenvalue(gamma: complex, lam) -> complex:
    """Predicted operator eigenvalue: ``prod_i Gamma(i gamma + i lam_i)
    Gamma(i gamma - i lam_i)``."""
    g = complex(gamma)
    zs: list[complex] = []
    for la in _as_lam_tuple(lam):
        zs.append(1j * g + 1j * la)
        zs.append(1j * g - 1j * la)
    return gamma_product(zs)


def so_baxter_apply(
    gamma: complex,
    lam,
    y: Sequence[float],
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Apply the rank-one integral operator to the rank-one eigenfunction.

    The kernel's own two auxiliary variables and the argument of the
    eigenfunction are fused into one three-dimensional quadrature; the kernel
    is normalized so that the expected eigenvalue is
    ``so_baxter_eigenvalue(gamma, lam)``.

    Raises ``ShiftError`` unless ``Re(i gamma +/- i lam) >=``
    ``MIN_SO_SPECTRAL_GAP``: the two center-of-mass directions only decay at
    those rates, so the parameter needs a negative imaginary part.
    """
    lam_t = _as_lam_tuple(lam)
    y_arr = np.asarray([float(v) for v in y], dtype=float)
    if y_arr.size != 1 or len(lam_t) != 1:
        raise RankError("so_baxter_apply supports exactly one variable")
    g = complex(gamma)
    la = lam_t[0]
    yv = y_arr[0]
    rate_p = (1j * g + 1j * la).real
    rate_m = (1j * g - 1j * la).real
    if min(rate_p, rate_m) < MIN_SO_SPECTRAL_GAP:
        raise ShiftError(
            f"decay rates ({rate_p:.4f}, {rate_m:.4f}) below the minimum "
            f"{MIN_SO_SPECTRAL_GAP}; lower Im(gamma)"
        )
    r = (1j * g).real
    tau, big, m = _box_scales(tol, abs(la.imag))
    budget = _quadrature_budget(tol)
    z1_lo, z1_hi = yv - m, math.log(big) + 2.0
    z2_hi = yv + m
    z2_lo = -(big + 8.0) / (2.0 * min(r, rate_p, rate_m)) + min(0.0, yv) - 1.0
    x_lo, x_hi = z2_lo - m, z1_hi + m
    norm = stable_exp(-log_gamma(2j * g))

    def f(p: np.ndarray) -> np.ndarray:
        z1, z2, xv = p[:, 0], p[:, 1], p[:, 2]
        expo = -1j * g * (yv - 2.0 * (z1 + z2) + xv)
        walls = np.exp(np.minimum(z1, 700.0))
        walls += np.exp(np.minimum(yv - z1, 700.0))
        walls += np.exp(np.minimum(z2 - yv, 700.0))
        walls += np.exp(np.minimum(xv - z1, 700.0))
        walls += np.exp(np.minimum(z2 - xv, 700.0))
        return norm * stable_exp(expo - walls) * _closed_form_so3_batch(la, xv, budget)

    box = [(z1_lo, z1_hi), (z2_lo, z2_hi), (x_lo, x_hi)]
    return _with_tail(integrate_box(f, box, 0.8 * tol, max_evals), 6.0 * tau, tol)


def so_toda_apply_h2(
    psi: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    step: float = 1e-3,
) -> complex:
    """Quadratic chain Hamiltonian with a reflecting end, by second-order
    central differences.

    Computes ``(-1/2 sum d^2 + 1/2 exp(x_1) + sum_{i<l} exp(x_{i+1}-x_i))``
    applied to ``psi`` at ``x``.  ``psi`` follows the vectorized evaluator
    contract ((m, l) array in, (m,) complex out).
    """
    step = float(step)
    x_arr, vals = _stencil(psi, x, step)
    potential = 0.5 * math.exp(x_arr[0])
    potential += sum(math.exp(x_arr[j + 1] - x_arr[j]) for j in range(x_arr.size - 1))
    return complex(_kinetic(vals, step) + potential * vals[0])
