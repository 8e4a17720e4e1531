"""Pairing integrals between eigenfunctions of adjacent ranks.

Pairing a rank-``ell`` eigenfunction against a spectrally shifted rank-``ell``
twin under a damping weight produces a product of Gamma factors in the shifted
parameter; the operations here evaluate both sides of that identity.  The
module also provides the closed-form two-parameter descent kernel (a product
of modified Bessel factors of the second kind), its twin built from two
chained one-step kernels, and a contour-integral identity check for a ratio
of four Gamma factors.

All quadrature follows the package-wide contract: absolute accuracy targets,
deterministic evaluation, and honest error reports via
:class:`~toda_whittaker.quadrature.QuadratureResult`.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import ContourError, RankError, ShiftError
from .gl_baxter import _LIE, MIN_SPECTRAL_GAP, IdentityCheck, _kernel_exponent_rows
from .gl_whittaker import _step_exponent_rows, closed_form_gl2_batch
from .numerics import (
    _macdonald_pairs,
    _quadrature_budget,
    gamma_product,
    log_gamma,
    log_gamma_array,
    macdonald_k,
)
from .quadrature import (
    _DEFAULT_MAX_EVALS,
    ContourSpec,
    QuadratureResult,
    _axis_differences,
    _integrate_lattice,
    _integrate_truncated,
    _rate_reach,
    _wall_reach,
    integrate_contour,
    stable_exp,
)

__all__ = [
    "bump_friedberg_integral",
    "bump_friedberg_prediction",
    "bump_inner_correlation",
    "bump_inner_correlation_prediction",
    "stade_kernel",
    "double_step_kernel",
    "barnes_gustafson_check",
]

def _eigenfunction_rows(lam: tuple[complex, ...], xs: np.ndarray, budget) -> np.ndarray:
    """The rank-0 or rank-1 coordinate-model function at ``(m, 1)`` or
    ``(m, 2)`` rows, in closed form."""
    if len(lam) == 1:
        return np.exp(1j * lam[0] * xs[:, 0])
    return closed_form_gl2_batch(lam, xs, budget)


def _pair_arguments(gamma, lam, t) -> list[complex]:
    """Gamma arguments ``i*t + i*lam_k - i*conj(gamma_j)`` over all pairs."""
    t = complex(t)
    return [
        1j * t + 1j * complex(lk) - 1j * complex(gj).conjugate()
        for lk in lam
        for gj in gamma
    ]


def bump_friedberg_prediction(gamma, lam, t) -> complex:
    """Gamma-product side of the shifted pairing identity.

    Returns ``prod_{k,j} Gamma(i t + i lam_k - i conj(gamma_j))`` over all
    pairs of spectral parameters.  ``gamma`` and ``lam`` must have equal
    length.  Raises :class:`PoleError` on a pole of any factor.
    """
    gamma = tuple(complex(v) for v in gamma)
    lam = tuple(complex(v) for v in lam)
    if len(gamma) != len(lam):
        raise RankError("gamma and lam must have the same length")
    return gamma_product(_pair_arguments(gamma, lam, t))


def bump_friedberg_integral(
    ell: int,
    gamma,
    lam,
    t,
    tol: float = 1e-6,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Damped pairing of a rank-``ell`` eigenfunction with a shifted twin.

    Integrates ``exp(-exp(x_last)) * conj(psi_gamma(x)) * psi_{lam + t}(x)``
    over coordinate space, where ``psi_{lam + t}`` carries every spectral
    parameter shifted by ``t``.  The result should match
    :func:`bump_friedberg_prediction`.  Supports ``ell`` in ``{0, 1}``
    (coordinate dimension ``ell + 1``); conjugation is applied numerically to
    the evaluated eigenfunction.

    Raises :class:`ShiftError` when any predicted Gamma argument has real
    part below ``MIN_SPECTRAL_GAP``, since the integrand then decays too
    slowly to truncate honestly.
    """
    if ell not in (0, 1):
        raise RankError("only ell = 0 and ell = 1 are supported")
    gamma = tuple(complex(v) for v in gamma)
    lam = tuple(complex(v) for v in lam)
    if len(gamma) != ell + 1 or len(lam) != ell + 1:
        raise RankError("gamma and lam must each have length ell + 1")
    t = complex(t)
    args = _pair_arguments(gamma, lam, t)
    rate = min(a.real for a in args)
    if rate < MIN_SPECTRAL_GAP:
        raise ShiftError(
            f"slowest pairing decay rate {rate:.6g} is below the minimum "
            f"spectral gap {MIN_SPECTRAL_GAP}; shift t further down"
        )
    shifted = tuple(l + t for l in lam)
    # x_last: the damping's wall above, the slowest pairing rate below.  x_1
    # at ell = 1: the rank-1 functions' wall exp(-4 e^{(x_1 - x_2)/2}) above
    # x_2, the center-of-mass rate below.
    sides = 2 * (ell + 1)
    r = _wall_reach(tol, sides, shifted + gamma)
    rate_com = sum(a.real for a in args) / 4.0
    x1_hi = r + _wall_reach(tol, sides, shifted + gamma, 0.5, math.log(4.0))
    box = [(-_rate_reach(tol, sides, rate_com), x1_hi)] * ell + [(-_rate_reach(tol, sides, rate), r)]
    budget = _quadrature_budget(tol)
    # conj(e^{i a x}) = e^{conj(i a) x} on real x: the phase of both
    # functions along each axis, their center-of-mass phase at ell = 1.
    slope = 1j * shifted[0] + (1j * gamma[0]).conjugate()
    if ell == 1:
        slope = 0.5j * sum(shifted) + (0.5j * sum(gamma)).conjugate()

    def integrand(axes: tuple) -> np.ndarray:
        # The damping exp(-e^{x_last}) is the rank-1 kernel Q(x_last, 0 | 0).
        last = axes[-1][:, None]
        damping = stable_exp(_kernel_exponent_rows(last, np.zeros_like(last), 0.0, _LIE))
        value = np.exp(slope * axes[-1]) * damping
        if ell == 0:
            return value
        # The rank-1 functions' Macdonald factors depend on x_1 - x_2 alone.
        diffs, index = _axis_differences(axes[0], axes[1])
        y = 2.0 * np.exp(0.5 * diffs)
        # Both functions' Macdonald factors from one kernel call (one set-up).
        orders = np.repeat([1j * (shifted[0] - shifted[1]), 1j * (gamma[0] - gamma[1])], y.size)
        k = _macdonald_pairs(orders, np.concatenate([y, y]), budget)
        radial = 4.0 * k[:y.size] * np.conj(k[y.size:])
        return np.exp(slope * axes[0])[:, None] * value[None, :] * radial[index]

    return _integrate_lattice(lambda grids: [integrand(axes) for axes in grids], box, tol, max_evals,
                              shifted + gamma)


def bump_inner_correlation_prediction(gamma_bot, lambda_top, t, x_last) -> complex:
    """Closed form of the innermost shifted-pairing correlation.

    ``exp(i * a * x_last) * Gamma(A_1) * Gamma(A_2)`` with
    ``A_k = i t + i lambda_k - i conj(gamma)`` and
    ``a = lambda_1 + lambda_2 + 2 t - conj(gamma)``: the last-coordinate
    dependence is a pure phase with that slope, of modulus one exactly when
    ``a`` is real.
    """
    (g,) = (complex(v) for v in gamma_bot)
    l1, l2 = (complex(v) for v in lambda_top)
    t = complex(t)
    a_slope = l1 + l2 + 2.0 * t - g.conjugate()
    args = [1j * t + 1j * l1 - 1j * g.conjugate(), 1j * t + 1j * l2 - 1j * g.conjugate()]
    return cmath.exp(1j * a_slope * complex(x_last)) * gamma_product(args)


def bump_inner_correlation(
    ell: int,
    gamma_bot,
    lambda_top,
    t,
    x_last,
    tol: float = 1e-7,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Innermost correlation of the shifted pairing, with the last coordinate
    held fixed.

    For ``ell = 1``: integrates over ``x`` the conjugated rank-zero
    eigenfunction ``conj(exp(i gamma x))`` against the rank-one closed form
    with shifted parameters, evaluated at ``(x, x_last)``.  The result equals
    :func:`bump_inner_correlation_prediction`; dividing by the prediction
    gives 1 for any ``x_last``, which factors the last-coordinate dependence
    of the full pairing into an explicit phase.
    """
    if ell != 1:
        raise RankError("only ell = 1 is supported")
    gamma_bot = tuple(complex(v) for v in gamma_bot)
    lambda_top = tuple(complex(v) for v in lambda_top)
    if len(gamma_bot) != 1 or len(lambda_top) != 2:
        raise RankError("gamma_bot must have length 1 and lambda_top length 2")
    (g,) = gamma_bot
    t = complex(t)
    x_last = float(x_last)
    args = [1j * t + 1j * lk - 1j * g.conjugate() for lk in lambda_top]
    rate = sum(a.real for a in args) / 2.0
    if min(a.real for a in args) < MIN_SPECTRAL_GAP:
        raise ShiftError(
            "a pairing Gamma argument has real part below the minimum "
            f"spectral gap {MIN_SPECTRAL_GAP}; shift t further down"
        )
    shifted = (lambda_top[0] + t, lambda_top[1] + t)
    # Below x_last the pairing rate; above it the rank-1 function's wall
    # exp(-2 e^{(x - x_last)/2}).
    hi = x_last + _wall_reach(tol, 2, shifted + (g,), 0.5, math.log(2.0))
    box = [(x_last - _rate_reach(tol, 2, rate), hi)]
    budget = _quadrature_budget(tol)

    def integrand(p: np.ndarray) -> np.ndarray:
        pts = np.column_stack([p[:, 0], np.full(p.shape[0], x_last)])
        return np.conj(_eigenfunction_rows((g,), p, budget)) * _eigenfunction_rows(shifted, pts, budget)

    return _integrate_truncated(integrand, box, tol, max_evals, shifted + (g,))


def stade_kernel(x_top: Sequence[float], x_bot: Sequence[float], lam_pair) -> complex:
    """Closed-form two-parameter descent kernel.

    Maps ``ell + 1`` top coordinates to ``ell - 1`` bottom coordinates while
    attaching two new spectral parameters: a center-of-mass phase times a
    product of ``ell`` modified Bessel factors of the second kind,

    ``exp(i (l1 + l2) (sum(top) - sum(bot)) / 2)
      * prod_i 2 K_{i (l1 - l2)}(2 sqrt(A_i B_i))``

    with ``A_i = exp(top_i) + exp(bot_{i-1})`` and
    ``B_i = exp(-top_{i+1}) + exp(-bot_i)``, where out-of-range bottom terms
    are dropped.  Agrees with :func:`double_step_kernel` (two chained
    one-step kernels) and, for ``ell = 1``, with the rank-one closed form.
    """
    top = [float(v) for v in x_top]
    bot = [float(v) for v in x_bot]
    ell = len(top) - 1
    if ell < 1 or len(bot) != ell - 1:
        raise RankError(
            "x_top must have ell + 1 entries and x_bot ell - 1 entries with ell >= 1"
        )
    l1, l2 = (complex(v) for v in lam_pair)
    order = 1j * (l1 - l2)
    value = cmath.exp(0.5j * (l1 + l2) * (sum(top) - sum(bot)))
    for i in range(ell):
        a_i = math.exp(top[i]) + (math.exp(bot[i - 1]) if i >= 1 else 0.0)
        b_i = math.exp(-top[i + 1]) + (math.exp(-bot[i]) if i <= ell - 2 else 0.0)
        value *= 2.0 * macdonald_k(order, 2.0 * math.sqrt(a_i * b_i))
    return value


def double_step_kernel(
    x_top: Sequence[float],
    x_bot: Sequence[float],
    lam_pair,
    tol: float = 1e-7,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Two chained one-step descent kernels, integrated over the middle row.

    ``ell + 1`` top coordinates chain through an ``ell``-entry middle row to
    ``ell - 1`` bottom coordinates; the top step carries ``lam_pair[1]`` and
    the bottom step ``lam_pair[0]``.  Equals :func:`stade_kernel` in closed
    form, and for ``ell = 1`` the rank-one closed form.
    """
    top = [float(v) for v in x_top]
    bot = [float(v) for v in x_bot]
    ell = len(top) - 1
    if ell < 1 or len(bot) != ell - 1:
        raise RankError(
            "x_top must have ell + 1 entries and x_bot ell - 1 entries with ell >= 1"
        )
    if ell > 5:
        raise RankError("middle-row dimension above 5 is not supported")
    l_bot, l_top = (complex(v) for v in lam_pair)
    # Middle entry i interlaces top_i < m_i < top_{i+1} and, where they
    # exist, bot_{i-1} < m_i < bot_i.
    r = _wall_reach(tol, 2 * ell, (l_bot, l_top))
    box = [
        (max([top[i], *bot[max(i - 1, 0):i]]) - r, min([top[i + 1], *bot[i:i + 1]]) + r)
        for i in range(ell)
    ]

    def integrand(p: np.ndarray) -> np.ndarray:
        mid = [p[:, i] for i in range(ell)]
        expo = _step_exponent_rows(top, mid, l_top) + _step_exponent_rows(mid, bot, l_bot)
        return stable_exp(expo)

    return _integrate_truncated(integrand, box, tol, max_evals, (l_bot, l_top))


def barnes_gustafson_check(
    lambda2,
    gamma2,
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> IdentityCheck:
    """Check the first contour identity for four Gamma factors.

    The left side integrates ``(1/2 pi) Gamma(i u - i a_1) Gamma(i u - i a_2)
    Gamma(i b_1 - i u) Gamma(i b_2 - i u)`` along a horizontal contour
    separating the ascending poles (above the ``a``-group) from the
    descending ones (below the ``b``-group); the right side is
    ``prod_{i,j} Gamma(i b_j - i a_i) / Gamma(sum i b - sum i a)``.

    The two-element groups are taken from ``lambda2`` and ``gamma2`` in
    whichever role assignment is admissible: all four Gamma arguments on the
    right must have positive real part and the groups' imaginary parts must
    separate so a horizontal contour fits between the pole families.  Raises
    :class:`ContourError` when neither assignment works.
    """
    lam = tuple(complex(v) for v in lambda2)
    gam = tuple(complex(v) for v in gamma2)
    if len(lam) != 2 or len(gam) != 2:
        raise RankError("lambda2 and gamma2 must each have two entries")

    chosen = None
    for lo, hi in ((lam, gam), (gam, lam)):
        args = [1j * h - 1j * l for l in lo for h in hi]
        if min(a.real for a in args) <= 0.05:
            continue
        lo_floor = min(v.imag for v in lo)
        hi_ceil = max(v.imag for v in hi)
        if hi_ceil >= lo_floor - 0.05:
            continue
        chosen = (lo, hi, args, 0.5 * (hi_ceil + lo_floor))
        break
    if chosen is None:
        raise ContourError(
            "no role assignment separates the pole families with positive "
            "Gamma arguments on the product side"
        )
    lo, hi, args, offset = chosen
    total = sum(1j * h for h in hi) - sum(1j * l for l in lo)
    rhs = gamma_product(args) * cmath.exp(-log_gamma(total))

    lo_arr = np.asarray(lo, dtype=complex)
    hi_arr = np.asarray(hi, dtype=complex)

    def integrand(pts: np.ndarray) -> np.ndarray:
        u = pts[:, 0]
        expo = np.zeros_like(u)
        for l in lo_arr:
            expo = expo + log_gamma_array(1j * u - 1j * l)
        for h in hi_arr:
            expo = expo + log_gamma_array(1j * h - 1j * u)
        return stable_exp(expo) / (2.0 * math.pi)

    inner = integrate_contour(
        integrand, ContourSpec([[offset]]), 4, 0.9 * tol, max_evals
    )
    return IdentityCheck(inner.value, rhs, inner.abs_error + 0.1 * tol)
