"""Integral operators with Gamma-product eigenvalues on the chain eigenfunctions.

The central object is a one-parameter family of integral operators acting on
functions of ``n`` real variables.  Three normalizations of the kernel are
supported and produce eigenvalues that are, respectively, a plain product of
Gamma factors, the same product at half argument, and the half-argument
product dressed with powers of pi (the archimedean local-factor form):

* ``"lie"``          -- walls ``exp(t)``, prefactor 1.
* ``"iwasawa"``      -- walls ``exp(2 t)``, prefactor ``2**n``.
* ``"iwasawa_pi"``   -- walls ``pi * exp(2 t)``, prefactor ``2**n``, and a
  linear twist by the half-sum offsets ``(n+1)/2 - j``.

Also provided: the dual operator acting on spectral-plane functions along
horizontal contours, numerical commutation and lowering-compatibility checks,
and the rank-2 symmetric-space reduction in which a zonal average against a
Gaussian-type weight reproduces the ``"iwasawa_pi"`` eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, RankError, ShiftError, SingularMatrixError
from .gl_whittaker import (
    _as_params,
    _exp_wall,
    _spectral_step,
    _step_exponent_rows,
    closed_form_gl2_batch,
    mb_closed_form_batch,
)
from .numerics import (
    _DEFAULT_BUDGET,
    _exp_sorted_sum,
    log_gamma,
    _EPS,
    _macdonald_grid,
)
from .quadrature import (
    _DEFAULT_MAX_EVALS,
    ContourSpec,
    QuadratureResult,
    _integrate_truncated,
    _rate_reach,
    _wall_reach,
    stable_exp,
)

__all__ = [
    "BaxterConvention",
    "MIN_SPECTRAL_GAP",
    "half_sum_offsets",
    "baxter_kernel",
    "baxter_apply",
    "baxter_eigenvalue",
    "baxter_eigenfunction",
    "baxter_eigenfunction_batch",
    "dual_baxter_apply",
    "mb_closed_form_batch",
    "CommutationCheck",
    "IdentityCheck",
    "commutation_residual",
    "lowering_compatibility",
    "spherical_function_rank2",
    "gaussian_zonal_function",
    "spherical_transform_rank2",
    "universal_baxter_phi",
    "spherical_transform_check_rank2",
]

#: Minimum of Re(i*gamma - i*lam_j) required before an operator application is
#: attempted; below this the right tail of the defining integral decays too
#: slowly to truncate reliably.
MIN_SPECTRAL_GAP = 0.25


@dataclass(frozen=True)
class BaxterConvention:
    """One of the three kernel normalizations (see the module docstring)."""

    kind: str

    _KINDS = ("lie", "iwasawa", "iwasawa_pi")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown convention {self.kind!r}; expected one of {self._KINDS}"
            )

    @property
    def wall_slope(self) -> float:
        return 1.0 if self.kind == "lie" else 2.0

    @property
    def wall_log_scale(self) -> float:
        return math.log(math.pi) if self.kind == "iwasawa_pi" else 0.0

    def prefactor(self, n: int) -> float:
        return 1.0 if self.kind == "lie" else 2.0**n

    def rho(self, n: int) -> tuple[float, ...]:
        if self.kind == "iwasawa_pi":
            return half_sum_offsets(n)
        return (0.0,) * n


_LIE = BaxterConvention("lie")


def _as_convention(conv) -> BaxterConvention:
    if isinstance(conv, BaxterConvention):
        return conv
    return BaxterConvention(str(conv))


def half_sum_offsets(n: int) -> tuple[float, ...]:
    """The strictly decreasing offsets ``(n+1)/2 - j`` for ``j = 1..n``."""
    if n < 1:
        raise RankError(f"need at least one variable, got {n}")
    return tuple(0.5 * (n + 1) - j for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# Kernel and operator application


def _kernel_exponent_rows(
    out: np.ndarray, ins: np.ndarray, gamma: complex, conv: BaxterConvention
) -> np.ndarray:
    """Log of the kernel from output points ``out`` -- one ``(n,)`` point,
    or ``(m, n)`` rows aligned with the input rows -- to ``(m, n)`` input
    rows ``ins``."""
    n = ins.shape[1]
    s, lsc, rho = conv.wall_slope, conv.wall_log_scale, conv.rho(n)
    total, real = 0.0, math.log(conv.prefactor(n))
    for j in range(n):
        # Walls e^{s (out_j - in_j)} for every j and e^{s (in_j - out_{j+1})}.
        diff = out[..., j] - ins[:, j]
        total = total + diff
        real = real + rho[j] * diff - _exp_wall(s * diff + lsc)
        if j + 1 < n:
            real = real - _exp_wall(s * (ins[:, j] - out[..., j + 1]) + lsc)
    return 1j * gamma * total + real


def baxter_kernel(x_out, x_in, gamma: complex, convention="lie") -> complex:
    """Kernel value ``K(x_out, x_in | gamma)`` for the chosen convention.

    Operators act as ``(Q f)(x_out) = integral K(x_out, x_in) f(x_in) dx_in``.
    """
    conv = _as_convention(convention)
    out = np.asarray([float(v) for v in x_out], dtype=float)
    ins = np.asarray([float(v) for v in x_in], dtype=float)
    if out.size != ins.size or out.size == 0:
        raise RankError("x_out and x_in must have equal, positive length")
    expo = _kernel_exponent_rows(out, ins[None, :], complex(gamma), conv)
    return complex(stable_exp(expo)[0])


def baxter_apply(
    psi: Callable[[np.ndarray], np.ndarray],
    y: Sequence[float],
    gamma: complex,
    convention="lie",
    tol: float = 1e-8,
    psi_spectral=None,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Apply the integral operator to ``psi`` at the point ``y``.

    ``psi`` is vectorized: ``(m, n)`` float rows in, ``(m,)`` complex out.
    ``psi_spectral`` (optional) states the spectral content of ``psi``; it
    sharpens the truncation of the one non-wall tail, widens the wall
    truncation by its imaginary parts, bounds how fast ``psi`` oscillates
    (which lets one or two variables go to the trapezoid lattice; without
    it the adaptive engine takes the box), and activates the spectral-gap
    validation: every ``Re(i*gamma - i*lam_j)`` must be at least
    :data:`MIN_SPECTRAL_GAP`, else :class:`ShiftError` is raised.
    """
    conv = _as_convention(convention)
    y_arr = np.asarray([float(v) for v in y], dtype=float)
    n = y_arr.size
    if n == 0:
        raise RankError("y must be non-empty")
    gamma = complex(gamma)
    lam_t = ()
    if psi_spectral is not None:
        lam_t = _as_params(psi_spectral)
        gaps = [(1j * gamma - 1j * l).real for l in lam_t]
        worst = min(gaps)
        if worst < MIN_SPECTRAL_GAP:
            raise ShiftError(
                f"spectral gap {worst:.4f} below the minimum {MIN_SPECTRAL_GAP}; "
                f"shift gamma further below the spectral parameters"
            )
        rate = worst
    else:
        rate = MIN_SPECTRAL_GAP
    # The last linear-twist offset weakens the one non-wall tail (the
    # eigenfunctions stay bounded there, so only the kernel's modulus decays).
    rate += conv.rho(n)[n - 1]
    if rate <= 0.05:
        raise ShiftError(
            f"effective tail rate {rate:.4f} too small for reliable truncation; "
            f"widen the spectral gap (pass psi_spectral) or lower gamma"
        )
    # Every side is a wall exp(-e^{s u + lsc}) but the last one, where the
    # kernel's modulus decays at ``rate``.
    r = _wall_reach(tol, 2 * n, (gamma,) + lam_t, conv.wall_slope, conv.wall_log_scale)
    box = [(y_arr[i] - r, y_arr[i + 1] + r) for i in range(n - 1)]
    box.append((y_arr[n - 1] - r, y_arr[n - 1] + _rate_reach(tol, 2 * n, rate)))

    def f(points: np.ndarray) -> np.ndarray:
        expo = _kernel_exponent_rows(y_arr, points, gamma, conv)
        return stable_exp(expo) * np.asarray(psi(points), dtype=complex)

    params = (gamma,) + lam_t if psi_spectral is not None else None
    return _integrate_truncated(f, box, tol, max_evals, params)


# ---------------------------------------------------------------------------
# Eigenvalues and eigenfunctions


def baxter_eigenvalue(gamma: complex, lam, convention="lie") -> complex:
    """The Gamma-product eigenvalue for the chosen convention."""
    conv = _as_convention(convention)
    lam_t = _as_params(lam)
    n = len(lam_t)
    gamma = complex(gamma)
    rho = conv.rho(n)
    logs = []
    for j, l in enumerate(lam_t):
        base = 1j * gamma - 1j * l
        if conv.kind == "lie":
            logs.append(log_gamma(base))
        elif conv.kind == "iwasawa":
            logs.append(log_gamma(0.5 * base))
        else:
            z = 0.5 * (base + rho[j])
            logs.append(log_gamma(z) - z * math.log(math.pi))
    return _exp_sorted_sum(logs)


def baxter_eigenfunction(lam, x, convention="lie") -> complex:
    """Scalar wrapper around :func:`baxter_eigenfunction_batch`."""
    xs = np.asarray([[float(v) for v in x]], dtype=float)
    return complex(baxter_eigenfunction_batch(lam, xs, convention)[0])


def baxter_eigenfunction_batch(lam, xs: np.ndarray, convention="lie") -> np.ndarray:
    """Eigenfunctions of the operator family, vectorized over ``(m, n)`` rows.

    Supported for one and two variables; higher ranks raise
    :class:`RankError` (use the rank-one/two closed forms recursively through
    the chain evaluators instead).
    """
    conv = _as_convention(convention)
    lam_t = _as_params(lam)
    n = len(lam_t)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != n:
        raise RankError(f"xs must be (m, {n}); got {xs.shape}")
    if n == 1:
        return np.exp(1j * lam_t[0] * xs[:, 0])
    if n != 2:
        raise RankError(f"closed-form eigenfunctions cover n <= 2, got {n}")
    if conv.kind == "lie":
        return closed_form_gl2_batch(lam_t, xs)
    if conv.kind == "iwasawa":
        return closed_form_gl2_batch((0.5 * lam_t[0], 0.5 * lam_t[1]), 2.0 * xs)
    # iwasawa_pi: relative-variable Macdonald factor at shifted order, with the
    # half-sum linear twist and argument scaled by pi.
    s1, s2 = lam_t
    d = xs[:, 0] - xs[:, 1]
    yv = 2.0 * math.pi * np.exp(np.clip(d, -700.0, 700.0))
    order = 0.5j * (s1 - s2) - 0.5
    kvals = _macdonald_grid(order, yv, _DEFAULT_BUDGET)
    phase = np.exp(0.5j * (s1 + s2) * (xs[:, 0] + xs[:, 1]))
    return 2.0 * np.exp(0.5 * d) * phase * kvals


# ---------------------------------------------------------------------------
# Dual operator on spectral-plane functions


def _require_rank_le2(n: int, what: str) -> None:
    if n not in (1, 2):
        raise RankError(f"{what} supports one or two variables, got {n}")


def dual_baxter_apply(
    F: Callable[[np.ndarray], np.ndarray],
    gamma,
    z: float,
    tol: float = 1e-8,
    contour: ContourSpec | None = None,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Apply the dual operator to a spectral-plane function ``F``.

    The integral runs over horizontal contours placed half a unit below the
    lowest of the ``gamma`` parameters (or along ``contour`` if given, which
    must lie strictly below every ``Im gamma_j``, else :class:`ContourError`),
    with the spectral density included.  ``F`` receives complex ``(m, n)``
    rows.

    The contours are cut at the radius of a Gamma-decay count of ``n =
    len(gamma)``: ``F`` times the Gamma factors and the density must fall
    off like ``exp(-pi n |t| / 2)`` in every real coordinate ``t`` for the
    reported error to cover the cut tails.  A rank-1 eigenfunction ``F``
    (:func:`mb_closed_form_batch` at ``n = 2``) leaves only
    ``exp(-pi |t| / 2)`` along each axis; that is far below ``tol`` at the
    workloads' tolerances, but at ``tol = 1e-10`` the error can exceed the
    report by a factor of two.
    """
    g = _as_params(gamma)
    n = len(g)
    _require_rank_le2(n, "dual_baxter_apply")
    z = float(z)
    if contour is None:
        c = min(v.imag for v in g) - 0.5
        contour = ContourSpec([[c] * n])
    return _spectral_step(g, z, F, contour, n, tol, max_evals)


# ---------------------------------------------------------------------------
# Commutation and lowering-compatibility checks


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    """Both sides of an identity, with the quadrature error behind them."""

    lhs: complex
    rhs: complex
    abs_error: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True, slots=True)
class CommutationCheck:
    """Both orderings of a double application, with the quadrature error."""

    first_then_second: complex
    second_then_first: complex
    abs_error: float

    @property
    def residual(self) -> float:
        return abs(self.first_then_second - self.second_then_first)


def _double_apply_fused(
    gamma_out: complex,
    gamma_in: complex,
    lam: tuple[complex, ...],
    y: np.ndarray,
    tol: float,
    max_evals: int,
) -> QuadratureResult:
    """One ordering of two chained kernel applications, evaluated at ``y``
    as a single fused ``2n``-dimensional integral: ``Q_out`` from ``y`` to
    ``x``, ``Q_in`` from ``x`` to ``w``, and the test function at ``w``.

    The test function is an oscillating bump ``exp(i lam . w - sum 2cosh(w_i))``
    whose double-exponential side decay keeps every integration direction
    sharply localized, so the check is cheap at both supported ranks.
    """
    n = y.size
    # x interlaces y and w, whose bump walls end r from 0 on both sides.
    r = _wall_reach(tol, 4 * n, (gamma_out, gamma_in) + lam)
    box = [(y[i] - r, y[i + 1] + r) for i in range(n - 1)]
    box.append((y[n - 1] - r, 2.0 * r))
    box.extend([(-r, r)] * n)
    lam_v = np.asarray(lam, dtype=complex)

    def integrand(p: np.ndarray) -> np.ndarray:
        xs = p[:, :n]
        ws = p[:, n:]
        expo = _kernel_exponent_rows(y, xs, gamma_out, _LIE) + _kernel_exponent_rows(xs, ws, gamma_in, _LIE)
        expo = expo + (ws * (1j * lam_v)).sum(axis=1)
        expo = expo - 2.0 * np.cosh(ws).sum(axis=1)
        return stable_exp(expo)

    return _integrate_truncated(integrand, box, tol, max_evals, (gamma_out, gamma_in) + lam)


def commutation_residual(
    gamma_pair: Sequence[complex],
    lam,
    y: Sequence[float],
    tol: float = 1e-6,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> CommutationCheck:
    """Numerically compare both orderings of two operator applications.

    Each ordering chains both kernels onto a rapidly decaying oscillating
    bump and is evaluated fused (2n dimensions); the two orderings follow
    genuinely different numerical paths, so agreement is a real consistency
    check.  Supports one and two variables.
    """
    ga, gb = (complex(v) for v in gamma_pair)
    lam_t = _as_params(lam)
    y_arr = np.asarray([float(v) for v in y], dtype=float)
    _require_rank_le2(y_arr.size, "commutation_residual")
    if y_arr.size != len(lam_t):
        raise RankError("y and lam must have equal length")
    r_ab = _double_apply_fused(ga, gb, lam_t, y_arr, tol, max_evals)
    r_ba = _double_apply_fused(gb, ga, lam_t, y_arr, tol, max_evals)
    return CommutationCheck(r_ab.value, r_ba.value, r_ab.abs_error + r_ba.abs_error)


def lowering_compatibility(
    gamma: complex,
    lam: complex,
    y: Sequence[float],
    x: float,
    tol: float = 1e-7,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> IdentityCheck:
    """Check that the two-variable operator slides through the rank-lowering
    step kernel onto the one-variable operator, up to one Gamma factor.

    LHS: two-variable operator composed with the step kernel (2-dim integral).
    RHS: ``Gamma(i gamma - i lam)`` times the step kernel composed with the
    one-variable operator (1-dim integral).  Both are evaluated at outer point
    ``y`` (two entries) and inner point ``x`` (one entry).
    """
    gamma = complex(gamma)
    lam = complex(lam)
    y1, y2 = float(y[0]), float(y[1])
    x = float(x)
    rate = (1j * gamma - 1j * lam).real
    if rate < MIN_SPECTRAL_GAP:
        raise ShiftError(
            f"spectral gap {rate:.4f} below the minimum {MIN_SPECTRAL_GAP}"
        )

    y_arr = np.asarray([y1, y2])
    params = (gamma, lam)

    def f_lhs(p: np.ndarray) -> np.ndarray:
        step = _step_exponent_rows([p[:, 0], p[:, 1]], [x], lam)
        return stable_exp(_kernel_exponent_rows(y_arr, p, gamma, _LIE) + step)

    # m_1 lies between the walls at y_1 and at y_2 and x; m_2 above the walls
    # at y_2 and x, with a tail of rate ``rate`` beyond.
    r, foot = _wall_reach(tol, 4, params), max(y2, x)
    box = [(y1 - r, min(y2, x) + r), (foot - r, foot + _rate_reach(tol, 4, rate))]
    lhs = _integrate_truncated(f_lhs, box, tol, max_evals, params)

    def f_rhs(p: np.ndarray) -> np.ndarray:
        step = _step_exponent_rows([y1, y2], [p[:, 0]], lam)
        return stable_exp(step + _kernel_exponent_rows(p, np.full_like(p, x), gamma, _LIE))

    r = _wall_reach(tol, 2, params)
    rhs_int = _integrate_truncated(f_rhs, [(y1 - r, min(y2, x) + r)], tol, max_evals, params)
    factor = cmath.exp(log_gamma(1j * gamma - 1j * lam))
    rhs = factor * rhs_int.value
    err = lhs.abs_error + abs(factor) * rhs_int.abs_error
    return IdentityCheck(lhs.value, rhs, err)


# ---------------------------------------------------------------------------
# Rank-2 symmetric-space reduction

#: Relative accuracy of the rank-2 zonal function; a row whose rounding
#: estimate exceeds it raises :class:`ConvergenceError` instead.
_ZONAL_REL_TOL = 1e-12
#: Rounding of a series sum per unit of its term mass ``sum_k |term_k|``, in
#: ulps (at most 0.2 in an mpmath sweep where the mass is large).
_ROUNDING_ULPS = 8.0
#: Rows with ``1 - q <= 1/2`` and ``|a| (1 - q) <= _DIRECT_REACH`` sum the
#: Gauss series directly; its term mass grows like ``exp(|a| (1 - q))``.
_DIRECT_REACH = 5.0
_MAX_TERMS = 4096
_BLOCK = 8

#: (2**(1-2j) - 2) B_2j / (2j (2j-1)) for j = 1..8, the Stirling series of
#: log(Gamma(w + 1/2) / Gamma(w + 1)) in odd powers of 1/w (DLMF 5.11.8).
_RATIO_STIRLING = tuple(
    (2.0 ** (1 - 2 * j) - 2.0) * b / (2 * j * (2 * j - 1))
    for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510),
        start=1,
    )
)


def _gamma_ratio(z: complex) -> complex:
    """``Gamma(z + 1/2) / Gamma(z + 1)`` to a few ulps at any ``|z|``.

    Shifted by the recurrence to ``Re w >= 10`` and summed by its Stirling
    series.  ``exp(log_gamma(z + 1/2) - log_gamma(z + 1))`` is off by 1.3e-13
    relative at ``|Im z| = 10`` and 2e-12 at 1000 (the Lanczos sum's error),
    which the rounding estimate of the zonal function cannot see: with it the
    zonal function would be 6e-12 off at ``gamma = (-6000 + 0.8i, 0)``,
    ``d = 10``."""
    scale = 1.0 + 0j
    w = z
    while w.real < 10.0:
        if w + 0.5 == 0.0:
            raise ConvergenceError(
                f"the connection formula degenerates: Gamma(z + 1/2) has a pole at z = {z!r}"
            )
        scale *= (w + 1.0) / (w + 0.5)
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    series = 0j
    for c in reversed(_RATIO_STIRLING):
        series = series * inv2 + c
    return scale * cmath.exp(series * inv - 0.5 * cmath.log(w))


def _gauss_series(p1: complex, p2: float, p3: complex, z: np.ndarray):
    """``sum_k (p1)_k (p2)_k / ((p3)_k k!) z**k`` and ``sum_k |term_k|`` for
    real ``z``, summed in blocks of terms.  A row stops once its tail, bounded
    by its last term and the larger of ``|z|`` and its last term ratio, is
    below half an ulp of its sum."""
    total = np.ones(z.size, dtype=complex)
    mass = np.ones(z.size)
    idx = np.arange(z.size)
    zz = np.asarray(z, dtype=float)
    term = np.ones(z.size, dtype=complex)
    ks = np.arange(_BLOCK, dtype=float)
    for k in range(0, _MAX_TERMS, _BLOCK):
        coef = (p1 + k + ks) * (p2 + k + ks) / ((p3 + k + ks) * (k + ks + 1.0))
        terms = term[:, None] * np.cumprod(zz[:, None] * coef[None, :], axis=1)
        total[idx] += terms.sum(axis=1)
        sizes = np.abs(terms)
        mass[idx] += sizes.sum(axis=1)
        term = terms[:, -1]
        bound = max(abs(coef[-1]), 1.0) * np.abs(zz)
        live = (bound >= 1.0) | (
            sizes[:, -1] * bound > 0.5 * _EPS * (1.0 - bound) * np.abs(total[idx])
        )
        if not live.any():
            return total, mass
        idx, zz, term = idx[live], zz[live], term[live]
    raise ConvergenceError(f"zonal function series unconverged after {_MAX_TERMS} terms")


def _spherical_rows(gamma: tuple[complex, complex], xs: np.ndarray) -> np.ndarray:
    """Closed-form zonal function for ``(m, 2)`` position rows; see
    :func:`spherical_function_rank2`."""
    g1, g2 = gamma
    x1 = np.minimum(xs[:, 0], xs[:, 1])
    x2 = np.maximum(xs[:, 0], xs[:, 1])
    d = x2 - x1
    q = np.exp(-2.0 * d)
    a = 0.5j * (g2 - g1)
    hyp = np.empty(xs.shape[0], dtype=complex)
    mass = np.empty(xs.shape[0])
    near = (1.0 - q <= 0.5) & (abs(a) * (1.0 - q) <= _DIRECT_REACH)
    if near.any():
        hyp[near], mass[near] = _gauss_series(-a, 0.5, 1.0, 1.0 - q[near])
    far = ~near
    if far.any():
        # DLMF 15.8.4; 1/Gamma(-a) = -a/Gamma(1-a) and
        # Gamma(-1/2-a) = Gamma(1/2-a)/(-1/2-a) leave one ratio function.
        qf = q[far]
        c1 = _gamma_ratio(a) / math.sqrt(math.pi)
        c2 = a / (0.5 + a) * _gamma_ratio(-a) / math.sqrt(math.pi)
        s1, m1 = _gauss_series(-a, 0.5, 0.5 - a, qf)
        s2, m2 = _gauss_series(1.0 + a, 0.5, 1.5 + a, qf)
        w = c2 * np.exp(-(1.0 + 2.0 * a) * d[far])
        hyp[far] = c1 * s1 + w * s2
        mass[far] = abs(c1) * m1 + np.abs(w) * m2
    # Accuracy is relative to |hyp| or, near its zeros, to the least modulus
    # min(1, q**Re a) of the averaged power on the circle.
    scale = np.maximum(np.abs(hyp), np.exp(-2.0 * max(a.real, 0.0) * d))
    bad = _ROUNDING_ULPS * _EPS * mass > _ZONAL_REL_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"cancellation puts relative accuracy {_ZONAL_REL_TOL} out of reach "
            f"for the zonal function at gamma={gamma!r}, "
            f"x=({float(xs[i, 0])!r}, {float(xs[i, 1])!r})"
        )
    return np.exp(1j * (g1 * x1 + g2 * x2)) * hyp


def spherical_function_rank2(gamma, x) -> complex:
    """Rank-2 zonal function: the circle average of a plane wave in the
    radial coordinates of the group element, in closed form.  Symmetric under
    swapping the two position entries.

    With ``x1 = min(x)``, ``x2 = max(x)``, ``d = x2 - x1``, ``q = exp(-2 d)``
    and ``a = i (gamma_2 - gamma_1) / 2``, the average of
    ``(cos^2 t + q sin^2 t)**a`` over the circle is a Laplace integral of the
    Legendre function (DLMF 14.12.4)::

        phi(x) = exp(i (gamma_1 x1 + gamma_2 x2)) 2F1(-a, 1/2; 1; 1 - q)
               = exp(i (gamma_1 + gamma_2) (x1 + x2) / 2) P_a(cosh d).

    The Gauss series is summed directly where ``1 - q <= min(1/2, 5/|a|)``,
    elsewhere through the ``1 - z`` connection formula (DLMF 15.8.4), whose
    two series run in ``q``; each series stops by a convergence test.

    Accuracy: relative error at most 1e-12 against ``|phi|`` or, near its
    zeros, against the least modulus of the averaged plane wave,
    ``|exp(i (gamma_1 x1 + gamma_2 x2))| min(1, q**Re a)`` -- plus the
    rounding of the phase ``gamma_1 x1 + gamma_2 x2`` itself (about
    ``2e-16 |gamma| |x|``).  Checked against mpmath for real
    ``gamma_j`` in [-20, 20], ``|Im gamma_j| <= 0.4`` and ``d`` in [0, 40].

    Raises
    ------
    ConvergenceError
        Where cancellation puts 1e-12 out of reach: near
        ``gamma_2 - gamma_1 = +-i, +-3i, ...``, where ``1/2 + a`` is an integer
        and the connection formula degenerates, and where
        ``|gamma_2 - gamma_1|`` exceeds about 1000 and a series needs more
        than 4096 terms.
    """
    g = _as_params(gamma)
    if len(g) != 2:
        raise RankError("spherical_function_rank2 needs exactly two parameters")
    xs = np.asarray([[float(x[0]), float(x[1])]], dtype=float)
    return complex(_spherical_rows((g[0], g[1]), xs)[0])


def gaussian_zonal_function(lam: complex, x) -> complex:
    """Gaussian-type zonal weight evaluated on the inverse group element:
    ``4 exp(-(x1 + x2)(i lam + 1/2) - pi (e^{-2 x1} + e^{-2 x2}))``."""
    x1, x2 = float(x[0]), float(x[1])
    walls = _exp_wall(-2.0 * x1) + _exp_wall(-2.0 * x2)
    return complex(4.0 * stable_exp(-(x1 + x2) * (1j * complex(lam) + 0.5) - math.pi * walls))


def spherical_transform_rank2(
    lam: complex,
    gamma,
    tol: float = 1e-5,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Pair the Gaussian-type zonal weight against the rank-2 zonal function
    over the ordered chamber, with the invariant radial measure.

    The result reproduces the ``"iwasawa_pi"`` eigenvalue
    ``baxter_eigenvalue(lam, gamma, "iwasawa_pi")`` -- the reduction of the
    operator family to the rank-2 symmetric space.

    In the center of mass ``s = x1 + x2`` and ``d = x2 - x1 >= 0`` the
    pairing is ``(pi / 2) int int w(x) 2 sinh d phi(x) ds dd``, with the
    weight ``w = 4 exp(-s (i lam + 1/2) - 2 pi cosh d e^{-s})`` and the zonal
    function ``phi(x) = e^{i (gamma_1 + gamma_2) s / 2} phi(-d/2, d/2)``
    (:func:`spherical_function_rank2`).  So ``s`` enters only through
    ``exp(-c s - A e^{-s})``, ``c = i lam + 1/2 - i (gamma_1 + gamma_2) / 2``,
    ``A = 2 pi cosh d``, whose integral over ``s`` is Euler's
    ``Gamma(c) A^{-c}`` for ``Re c > 0`` (DLMF 5.2.1).  What is left is one
    integral over ``d``,

        4 pi Gamma(c) int_0^inf sinh d (2 pi cosh d)^{-c} phi(-d/2, d/2) dd,

    a Mellin transform of the Legendre function ``phi(-d/2, d/2) =
    P_a(cosh d)`` in ``t = cosh d``: the identity still checks that
    transform against the Gamma product ``Gamma(z_1) Gamma(z_2)
    pi^{-z_1 - z_2}``.

    Its rate: ``phi`` is a circle average of plane waves whose radial
    coordinates lie between ``-d/2`` and ``d/2``, so
    ``|phi(-d/2, d/2)| <= e^{|Im(gamma_1 - gamma_2)| d / 2}``, and
    ``sinh d (cosh d)^{-Re c} <= 2^{Re c - 1} e^{(1 - Re c) d}``.  The
    integrand decays at least at ``Re c - 1 - |Im(gamma_1 - gamma_2)| / 2
    = Re(i lam) - 1/2 + min Im gamma_j``, hence at
    ``rate = Re(i lam) - 1/2 - max |Im gamma_j|``, and is at most
    ``B e^{-rate d}``, ``B = 2 pi |Gamma(c)| pi^{-Re c}``.
    :class:`ShiftError` is raised unless ``rate`` exceeds 0.2; in practice
    take ``Re(i lam) >= 1`` and real ``gamma``.  The integral is cut where
    that bound leaves a tail below ``tol / 10``.

    The integrand evaluates the zonal function in closed form (relative
    accuracy 1e-12), so the quadrature tolerance is the only error left;
    its :class:`ConvergenceError` passes through where that accuracy is out
    of reach.
    """
    lam = complex(lam)
    g = _as_params(gamma)
    if len(g) != 2:
        raise RankError("spherical_transform_rank2 needs exactly two parameters")
    rate = (1j * lam).real - 0.5 - max(abs(v.imag) for v in g)
    if rate <= 0.2:
        raise ShiftError(
            f"decay rate {rate:.4f} too small; increase Re(i lam)"
        )
    c = 1j * lam + 0.5 - 0.5j * (g[0] + g[1])
    log_gamma_c = log_gamma(c)
    scale = 4.0 * math.pi * cmath.exp(log_gamma_c - c * math.log(2.0 * math.pi))
    bound = 2.0 * math.pi * math.exp(log_gamma_c.real - c.real * math.log(math.pi)) / rate

    def f(p: np.ndarray) -> np.ndarray:
        d = p[:, 0]
        log_cosh = d + np.log1p(np.exp(-2.0 * d)) - math.log(2.0)
        measure = -0.5 * np.expm1(-2.0 * d) * np.exp(d - c * log_cosh)  # sinh d (cosh d)^{-c}
        return scale * measure * _spherical_rows((g[0], g[1]), np.column_stack([-0.5 * d, 0.5 * d]))

    # The side d = 0 is the chamber's wall, where the integrand's first
    # derivative in d does not vanish and the lattice is only second order:
    # no params, so the adaptive engine takes the integral.
    reach = _rate_reach(tol / max(1.0, bound), 1, rate)
    return _integrate_truncated(f, [(0.0, reach)], tol, max_evals)


def universal_baxter_phi(g_matrix, lam: complex) -> complex:
    """Rotation-biinvariant kernel on invertible ``n x n`` real matrices:

    ``2**n * |det g|**(i lam + (n - 1)/2) * exp(-pi * Tr(g^T g))``.

    Depends on ``g`` only through its singular values, so it is invariant
    under orthogonal factors on either side; restricted to diagonal
    ``g = diag(exp(-x_1), ..., exp(-x_n))`` at ``n = 2`` it recovers
    :func:`gaussian_zonal_function`.  Raises :class:`SingularMatrixError`
    when the determinant vanishes.
    """
    arr = np.asarray(g_matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise RankError("g_matrix must be a square matrix")
    n = arr.shape[0]
    det = float(np.linalg.det(arr))
    if det == 0.0 or not math.isfinite(det):
        raise SingularMatrixError("matrix determinant vanishes")
    expo = (1j * complex(lam) + 0.5 * (n - 1)) * math.log(abs(det))
    expo -= math.pi * float((arr * arr).sum())
    return float(2**n) * cmath.exp(complex(min(expo.real, 709.0), expo.imag))


def spherical_transform_check_rank2(
    gamma,
    lam: complex,
    tol: float = 1e-5,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> IdentityCheck:
    """Check the rank-2 symmetric-space reduction.

    The left side pairs the Gaussian-type zonal weight against the rank-2
    zonal function over the ordered chamber; the right side is the dressed
    half-argument Gamma product
    ``prod_j pi**(-z_j) Gamma(z_j)``, ``z_j = (i lam - i gamma_j + rho_j)/2``
    -- the ``"iwasawa_pi"`` eigenvalue with ``lam`` in the operator slot.
    """
    inner = spherical_transform_rank2(lam, gamma, tol, max_evals)
    rhs = baxter_eigenvalue(lam, gamma, convention="iwasawa_pi")
    return IdentityCheck(inner.value, rhs, inner.abs_error)
