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

from .errors import RankError, ShiftError, SingularMatrixError
from .gl_whittaker import _as_params, closed_form_gl2_batch
from .numerics import (
    AccuracyBudget,
    log_gamma,
    log_gamma_array,
    macdonald_k,
    _macdonald_grid,
    _macdonald_pairs,
)
from .quadrature import (
    _DEFAULT_MAX_EVALS,
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

__all__ = [
    "BaxterConvention",
    "MIN_SPECTRAL_GAP",
    "half_sum_offsets",
    "baxter_kernel",
    "baxter_apply",
    "baxter_eigenvalue",
    "baxter_eigenfunction",
    "baxter_eigenfunction_batch",
    "dual_baxter_kernel",
    "dual_baxter_apply",
    "mb_closed_form_batch",
    "CommutationCheck",
    "commutation_residual",
    "LoweringCheck",
    "lowering_compatibility",
    "spherical_function_rank2",
    "gaussian_zonal_function",
    "spherical_transform_rank2",
    "universal_baxter_phi",
    "SphericalTransformCheck",
    "spherical_transform_check_rank2",
]

_DEFAULT_BUDGET = AccuracyBudget()

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

    @classmethod
    def lie(cls) -> "BaxterConvention":
        return cls("lie")

    @classmethod
    def iwasawa(cls) -> "BaxterConvention":
        return cls("iwasawa")

    @classmethod
    def iwasawa_pi(cls) -> "BaxterConvention":
        return cls("iwasawa_pi")

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
    """Log of the kernel at one output point against ``(m, n)`` input rows."""
    n = out.size
    rho = conv.rho(n)
    s = conv.wall_slope
    lsc = conv.wall_log_scale
    diffs = out[None, :] - ins  # (m, n)
    expo = np.zeros(ins.shape[0], dtype=complex)
    for j in range(n):
        expo += (1j * gamma + rho[j]) * diffs[:, j]
    walls = np.zeros(ins.shape[0])
    for i in range(n - 1):
        walls += np.exp(np.minimum(s * (out[i] - ins[:, i]) + lsc, 700.0))
        walls += np.exp(np.minimum(s * (ins[:, i] - out[i + 1]) + lsc, 700.0))
    walls += np.exp(np.minimum(s * (out[n - 1] - ins[:, n - 1]) + lsc, 700.0))
    return expo - walls + math.log(conv.prefactor(n))


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
    sharpens the truncation of the one non-wall tail and activates the
    spectral-gap validation: every ``Re(i*gamma - i*lam_j)`` must be at least
    :data:`MIN_SPECTRAL_GAP`, else :class:`ShiftError` is raised.
    """
    conv = _as_convention(convention)
    y_arr = np.asarray([float(v) for v in y], dtype=float)
    n = y_arr.size
    if n == 0:
        raise RankError("y must be non-empty")
    gamma = complex(gamma)
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
    s = conv.wall_slope
    lsc = conv.wall_log_scale
    sides = []
    for i in range(n - 1):
        sides.append(
            (
                DoubleExponential(s, s * y_arr[i] + lsc),
                DoubleExponential(s, -s * y_arr[i + 1] + lsc),
            )
        )
    sides.append((DoubleExponential(s, s * y_arr[n - 1] + lsc), Exponential(rate)))
    profile = DecayProfile(sides)

    def f(points: np.ndarray) -> np.ndarray:
        expo = _kernel_exponent_rows(y_arr, points, gamma, conv)
        return stable_exp(expo) * np.asarray(psi(points), dtype=complex)

    return integrate_decaying(f, profile, tol, max_evals)


# ---------------------------------------------------------------------------
# Eigenvalues and eigenfunctions


def baxter_eigenvalue(gamma: complex, lam, convention="lie") -> complex:
    """The Gamma-product eigenvalue for the chosen convention."""
    conv = _as_convention(convention)
    lam_t = _as_params(lam)
    n = len(lam_t)
    gamma = complex(gamma)
    rho = conv.rho(n)
    total = 0j
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
    logs.sort(key=lambda v: (v.real, v.imag))
    for v in logs:
        total += v
    return cmath.exp(total)


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


def _plancherel_rows(betas: np.ndarray) -> np.ndarray:
    """Spectral density along contour rows, via the reflection identity
    ``1/(Gamma(w) Gamma(-w)) = -w sin(pi w)/pi`` (entire, no poles)."""
    m, n = betas.shape
    value = np.full(m, 1.0 / ((2.0 * math.pi) ** n * math.factorial(n)), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            w = 1j * (betas[:, j] - betas[:, k])
            value *= -w * np.sin(math.pi * w) / math.pi
    return value


def dual_baxter_kernel(gamma, beta, z: float) -> complex:
    """Spectral-plane kernel: full Gamma array times a linear phase in ``z``."""
    g = _as_params(gamma)
    b = _as_params(beta)
    if len(g) != len(b):
        raise RankError("gamma and beta must have equal length")
    args = [1j * bj - 1j * gi for gi in g for bj in b]
    logs = sorted((log_gamma(a) for a in args), key=lambda v: (v.real, v.imag))
    total = 0j
    for v in logs:
        total += v
    phase = -1j * float(z) * (sum(g) - sum(b))
    return cmath.exp(total + phase)


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
    lowest of the ``gamma`` parameters (or along ``contour`` if given), with
    the spectral density included.  ``F`` receives complex ``(m, n)`` rows.
    """
    g = _as_params(gamma)
    n = len(g)
    _require_rank_le2(n, "dual_baxter_apply")
    z = float(z)
    if contour is None:
        c = min(v.imag for v in g) - 0.5
        contour = ContourSpec([[c] * n])
    sum_g = sum(g)

    def f(betas: np.ndarray) -> np.ndarray:
        expo = np.zeros(betas.shape[0], dtype=complex)
        for gi in g:
            for j in range(n):
                expo += log_gamma_array(1j * betas[:, j] - 1j * gi)
        expo += -1j * z * (sum_g - betas.sum(axis=1))
        vals = stable_exp(expo) * _plancherel_rows(betas)
        return vals * np.asarray(F(betas), dtype=complex)

    return integrate_contour(f, contour, n, tol, max_evals)


def mb_closed_form_batch(betas: np.ndarray, x) -> np.ndarray:
    """Spectral-plane-normalized eigenfunctions at fixed position ``x``,
    vectorized over ``(m, n)`` rows of (possibly complex) parameters.

    These carry the opposite sign of the spectral parameter relative to the
    coordinate-space normalization: one variable gives ``exp(-i beta x)``."""
    betas = np.asarray(betas, dtype=complex)
    if betas.ndim != 2:
        raise RankError("betas must be a 2-d array")
    n = betas.shape[1]
    _require_rank_le2(n, "mb_closed_form_batch")
    if n == 1:
        return np.exp(-1j * betas[:, 0] * float(x[0]))
    x1, x2 = float(x[0]), float(x[1])
    order = 1j * (betas[:, 0] - betas[:, 1])
    yv = np.full(betas.shape[0], 2.0 * math.exp(0.5 * (x1 - x2)))
    kvals = _macdonald_pairs(order, yv, _DEFAULT_BUDGET)
    phase = np.exp(-0.5j * (betas[:, 0] + betas[:, 1]) * (x1 + x2))
    return 2.0 * phase * kvals


# ---------------------------------------------------------------------------
# Commutation and lowering-compatibility checks


@dataclass(frozen=True)
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
    as a single fused ``2n``-dimensional integral.

    The test function is an oscillating bump ``exp(i lam . w - sum 2cosh(w_i))``
    whose double-exponential side decay keeps every integration direction
    sharply localized, so the check is cheap at both supported ranks.
    """
    n = y.size
    tau = tol / 50.0
    big = math.log(1.0 / tau) + 10.0
    margin = math.log(big) + 3.0
    m_w = math.log(big + 40.0) + 3.0
    box: list[tuple[float, float]] = []
    for i in range(n - 1):
        box.append((y[i] - margin, y[i + 1] + margin))
    box.append((y[n - 1] - margin, m_w + margin + 3.0))
    box.extend([(-m_w, m_w)] * n)
    lam_v = np.asarray(lam, dtype=complex)
    y_sum = float(y.sum())

    def integrand(p: np.ndarray) -> np.ndarray:
        xs = p[:, :n]
        ws = p[:, n:]
        xs_sum = xs.sum(axis=1)
        expo = 1j * gamma_out * (y_sum - xs_sum)
        expo = expo + 1j * gamma_in * (xs_sum - ws.sum(axis=1))
        walls = np.zeros(p.shape[0])
        for i in range(n - 1):
            walls += np.exp(np.minimum(y[i] - xs[:, i], 700.0))
            walls += np.exp(np.minimum(xs[:, i] - y[i + 1], 700.0))
            walls += np.exp(np.minimum(xs[:, i] - ws[:, i], 700.0))
            walls += np.exp(np.minimum(ws[:, i] - xs[:, i + 1], 700.0))
        walls += np.exp(np.minimum(y[n - 1] - xs[:, n - 1], 700.0))
        walls += np.exp(np.minimum(xs[:, n - 1] - ws[:, n - 1], 700.0))
        expo = expo + (ws * (1j * lam_v)).sum(axis=1)
        expo = expo - 2.0 * np.cosh(ws).sum(axis=1)
        return stable_exp(expo - walls)

    inner = integrate_box(integrand, box, 0.8 * tol, max_evals)
    err = inner.abs_error + 6.0 * n * tau
    return QuadratureResult(inner.value, err, inner.evaluations, err <= tol)


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


@dataclass(frozen=True)
class LoweringCheck:
    """Both sides of the rank-lowering compatibility identity."""

    lhs: complex
    rhs: complex
    abs_error: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def lowering_compatibility(
    gamma: complex,
    lam: complex,
    y: Sequence[float],
    x: float,
    tol: float = 1e-7,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> LoweringCheck:
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

    def f_lhs(p: np.ndarray) -> np.ndarray:
        m1, m2 = p[:, 0], p[:, 1]
        expo = 1j * gamma * (y1 + y2 - m1 - m2) + 1j * lam * (m1 + m2 - x)
        walls = np.exp(np.minimum(y1 - m1, 700.0))
        walls += np.exp(np.minimum(m1 - y2, 700.0))
        walls += np.exp(np.minimum(y2 - m2, 700.0))
        walls += np.exp(np.minimum(m1 - x, 700.0))
        walls += np.exp(np.minimum(x - m2, 700.0))
        return stable_exp(expo - walls)

    prof_lhs = DecayProfile(
        [
            (DoubleExponential(1.0, y1), DoubleExponential(1.0, -y2)),
            (DoubleExponential(1.0, max(y2, x)), Exponential(rate)),
        ]
    )
    lhs = integrate_decaying(f_lhs, prof_lhs, tol, max_evals)

    def f_rhs(p: np.ndarray) -> np.ndarray:
        u = p[:, 0]
        expo = 1j * lam * (y1 + y2 - u) + 1j * gamma * (u - x)
        walls = np.exp(np.minimum(y1 - u, 700.0))
        walls += np.exp(np.minimum(u - y2, 700.0))
        walls += np.exp(np.minimum(u - x, 700.0))
        return stable_exp(expo - walls)

    prof_rhs = DecayProfile([(DoubleExponential(1.0, y1), DoubleExponential(1.0, -y2))])
    rhs_int = integrate_decaying(f_rhs, prof_rhs, tol, max_evals)
    factor = cmath.exp(log_gamma(1j * gamma - 1j * lam))
    rhs = factor * rhs_int.value
    err = lhs.abs_error + abs(factor) * rhs_int.abs_error
    return LoweringCheck(lhs.value, rhs, err)


# ---------------------------------------------------------------------------
# Rank-2 symmetric-space reduction

_THETA_POINTS = 2048


def _spherical_rows(gamma: tuple[complex, complex], xs: np.ndarray) -> np.ndarray:
    """Zonal average over the circle for ``(m, 2)`` position rows."""
    g1, g2 = gamma
    x1 = np.minimum(xs[:, 0], xs[:, 1])
    x2 = np.maximum(xs[:, 0], xs[:, 1])
    s = x1 + x2
    d = x2 - x1
    theta = 2.0 * math.pi * np.arange(_THETA_POINTS) / _THETA_POINTS
    cos2 = np.cos(theta) ** 2
    sin2 = np.sin(theta) ** 2
    out = np.empty(xs.shape[0], dtype=complex)
    chunk = 2000
    for lo in range(0, xs.shape[0], chunk):
        hi = min(lo + chunk, xs.shape[0])
        damp = np.exp(-2.0 * d[lo:hi])
        arg = cos2[None, :] + damp[:, None] * sin2[None, :]
        h2 = x2[lo:hi, None] + 0.5 * np.log(np.maximum(arg, 1e-300))
        h1 = s[lo:hi, None] - h2
        out[lo:hi] = np.exp(1j * (g1 * h1 + g2 * h2)).mean(axis=1)
    return out


def spherical_function_rank2(gamma, x) -> complex:
    """Rank-2 zonal function: the circle average of a plane wave in the
    radial coordinates of the group element.  Symmetric under swapping the
    two position entries."""
    g = _as_params(gamma)
    if len(g) != 2:
        raise RankError("spherical_function_rank2 needs exactly two parameters")
    xs = np.asarray([[float(x[0]), float(x[1])]], dtype=float)
    return complex(_spherical_rows((g[0], g[1]), xs)[0])


def gaussian_zonal_function(lam: complex, x) -> complex:
    """Gaussian-type zonal weight evaluated on the inverse group element."""
    lam = complex(lam)
    x1, x2 = float(x[0]), float(x[1])
    expo = -(x1 + x2) * (1j * lam + 0.5)
    expo -= math.pi * (math.exp(min(-2.0 * x1, 700.0)) + math.exp(min(-2.0 * x2, 700.0)))
    return 4.0 * cmath.exp(complex(min(expo.real, 709.0), expo.imag))


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

    Requires ``Re(i lam) + 1/2 > |Im gamma_j|``-type decay; in practice take
    ``Re(i lam) >= 1`` and real ``gamma``.
    """
    lam = complex(lam)
    g = _as_params(gamma)
    if len(g) != 2:
        raise RankError("spherical_transform_rank2 needs exactly two parameters")
    srate = (1j * lam).real + 0.5 - max(abs(v.imag) for v in g)
    if srate <= 0.2:
        raise ShiftError(
            f"center-of-mass decay rate {srate:.4f} too small; increase Re(i lam)"
        )
    tau = tol / 30.0
    big = math.log(1.0 / tau) + 10.0
    s_hi = (big + 8.0) / srate
    s_lo = -(max(math.log(big / (2.0 * math.pi)), 0.0) + 2.0)
    d_hi = s_hi
    for _ in range(4):
        d_hi = s_hi + math.log((big + d_hi) / math.pi)
    d_hi = max(d_hi + 2.0, 3.0)

    def f(p: np.ndarray) -> np.ndarray:
        sv, dv = p[:, 0], p[:, 1]
        x1 = 0.5 * (sv - dv)
        x2 = 0.5 * (sv + dv)
        expo = -sv * (1j * lam + 0.5)
        expo = expo - math.pi * (
            np.exp(np.minimum(-2.0 * x1, 700.0)) + np.exp(np.minimum(-2.0 * x2, 700.0))
        )
        weight = 4.0 * stable_exp(expo) * 2.0 * np.sinh(dv)
        phi = _spherical_rows((g[0], g[1]), np.column_stack([x1, x2]))
        return math.pi * 0.5 * weight * phi

    box = [(s_lo, s_hi), (0.0, d_hi)]
    inner = integrate_box(f, box, 0.8 * tol, max_evals)
    err = inner.abs_error + 6.0 * tau
    return QuadratureResult(inner.value, err, inner.evaluations, err <= tol)


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


@dataclass(frozen=True)
class SphericalTransformCheck:
    """Zonal-average value and its Gamma-product prediction, with the
    quadrature error of the left side."""

    lhs: complex
    rhs: complex
    abs_error: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def spherical_transform_check_rank2(
    gamma,
    lam: complex,
    tol: float = 1e-5,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> SphericalTransformCheck:
    """Check the rank-2 symmetric-space reduction.

    The left side pairs the Gaussian-type zonal weight against the rank-2
    zonal function over the ordered chamber; the right side is the dressed
    half-argument Gamma product
    ``prod_j pi**(-z_j) Gamma(z_j)``, ``z_j = (i lam - i gamma_j + rho_j)/2``
    -- the ``"iwasawa_pi"`` eigenvalue with ``lam`` in the operator slot.
    """
    inner = spherical_transform_rank2(lam, gamma, tol, max_evals)
    rhs = baxter_eigenvalue(lam, gamma, convention="iwasawa_pi")
    return SphericalTransformCheck(inner.value, rhs, inner.abs_error)
