"""Whittaker functions for the A-series quantum Toda chain.

Two integral models of the same family of functions are implemented, together
with the bridges between them:

* the coordinate-space iterated-kernel model (ranks 0..2 supported), both as a
  single fused multidimensional integral and as a genuinely nested recursion;
* the spectral-plane contour model built from Gamma-factor kernels and the
  Plancherel density, with configurable contour offsets;
* mixed evaluation pipelines that build each rank step in either model.

Spectral parameters are plain sequences in the Givental convention. The
spectral-plane model uses globally negated parameters internally (the two
models differ by the sign of the spectral tuple); all public entry points
take the same convention and agree with each other, which the tests verify
pointwise.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContourError, PoleError, RankError
from .numerics import (
    AccuracyBudget,
    log_gamma_array,
    macdonald_k,
    _macdonald_grid,
    _macdonald_pairs,
    _DEFAULT_BUDGET,
)
from .quadrature import (
    _DEFAULT_MAX_EVALS,
    ContourSpec,
    QuadratureResult,
    _with_tail,
    integrate_box,
    integrate_contour,
    stable_exp,
)

__all__ = [
    "givental_eval",
    "givental_recursive_eval",
    "givental_step_kernel",
    "mellin_barnes_eval",
    "mb_closed_form_batch",
    "mixed_eval",
    "closed_form_gl2",
    "closed_form_gl2_batch",
    "plancherel_measure",
    "toda_apply",
]

_MAX_RANK = 2  # chain length minus one: ranks 0, 1, 2 <=> gl1, gl2, gl3


# ---------------------------------------------------------------------------
# Shared helpers


def _as_params(lam) -> tuple[complex, ...]:
    return tuple(complex(v) for v in lam)


def _exp_wall(diff: np.ndarray) -> np.ndarray:
    # exp of a real array, saturating instead of overflowing: the result is
    # only ever subtracted inside another exponent.
    return np.exp(np.clip(diff, None, 700.0))


def _halfwidth(tol: float, lin_slack: float = 1.0) -> float:
    """Truncation half-width for a unit-slope doubly-exponential wall fighting
    at most ``lin_slack``-rate linear growth in the exponent."""
    target = max(math.log(10.0 / tol), 1.0)
    a = math.log(target) + 3.0
    for _ in range(4):
        a = math.log(target + lin_slack * max(a, 1.0)) + 3.0
    return a


def _im_slack(lam: tuple[complex, ...]) -> float:
    return 1.0 + sum(abs(v.imag) for v in lam)


# ---------------------------------------------------------------------------
# Closed forms (ranks 0 and 1)


def closed_form_gl2(lam, x) -> complex:
    """Rank-1 function in closed form: a phase in the center-of-mass variable
    times a Macdonald function of imaginary order in the relative variable."""
    params = _as_params(lam)
    if len(params) != 2 or len(x) != 2:
        raise RankError("closed_form_gl2 needs two spectral parameters and two coordinates")
    l1, l2 = params
    x1, x2 = float(x[0]), float(x[1])
    phase = cmath.exp(0.5j * (l1 + l2) * (x1 + x2))
    return 2.0 * phase * macdonald_k(1j * (l1 - l2), 2.0 * math.exp(0.5 * (x1 - x2)))


def closed_form_gl2_batch(lam, xs: np.ndarray, budget: AccuracyBudget = _DEFAULT_BUDGET) -> np.ndarray:
    """Vectorized :func:`closed_form_gl2` over rows of an ``(m, 2)`` array."""
    params = _as_params(lam)
    if len(params) != 2:
        raise RankError("closed_form_gl2_batch needs two spectral parameters")
    l1, l2 = params
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 2:
        raise RankError("xs must be an (m, 2) array")
    y = 2.0 * np.exp(0.5 * (xs[:, 0] - xs[:, 1]))
    kvals = _macdonald_grid(1j * (l1 - l2), y, budget)
    phase = np.exp(0.5j * (l1 + l2) * (xs[:, 0] + xs[:, 1]))
    return 2.0 * phase * kvals


# ---------------------------------------------------------------------------
# Coordinate-space model


def givental_step_kernel(x_top: Sequence[float], x_bot: Sequence[float], lam: complex) -> complex:
    """One-step kernel lowering rank: ``len(x_top) == len(x_bot) + 1``.

    Total (entire) in all arguments; underflows smoothly to 0.
    """
    top = [float(v) for v in x_top]
    bot = [float(v) for v in x_bot]
    if len(top) != len(bot) + 1:
        raise ValueError("x_top must have exactly one more entry than x_bot")
    lam = complex(lam)
    expo = 1j * lam * (sum(top) - sum(bot))
    walls = 0.0
    for i, b in enumerate(bot):
        walls += math.exp(min(top[i] - b, 700.0)) + math.exp(min(b - top[i + 1], 700.0))
    expo -= walls
    if expo.real < -745.0:
        return 0.0 + 0.0j
    return cmath.exp(expo)


def _step_exponent_rows(top_cols: list[np.ndarray], bot_cols: list[np.ndarray], lam: complex) -> np.ndarray:
    """Vectorized log of the step kernel; columns are aligned 1-d arrays."""
    s_top = top_cols[0].copy()
    for c in top_cols[1:]:
        s_top = s_top + c
    s_bot = np.zeros_like(top_cols[0])
    for c in bot_cols:
        s_bot = s_bot + c
    expo = 1j * lam * (s_top - s_bot)
    for i in range(len(bot_cols)):
        expo = expo - _exp_wall(top_cols[i] - bot_cols[i]) - _exp_wall(bot_cols[i] - top_cols[i + 1])
    return expo


def givental_eval(
    lam, x, tol: float = 1e-8, max_evals: int = _DEFAULT_MAX_EVALS
) -> QuadratureResult:
    """Evaluate the coordinate-model function as one fused integral.

    Supports ranks 0..2 (:class:`RankError` beyond); rank 0 is exact.
    ``max_evals`` caps the quadrature (:class:`BudgetExceeded` beyond it).
    """
    lam_t = _as_params(lam)
    n = len(lam_t)
    x = tuple(float(v) for v in x)
    if len(x) != n:
        raise RankError(f"expected {n} coordinates, got {len(x)}")
    ell = n - 1
    if ell > _MAX_RANK:
        raise RankError(f"rank {ell} not supported (maximum {_MAX_RANK})")
    if ell == 0:
        return QuadratureResult(cmath.exp(1j * lam_t[0] * x[0]), 0.0, 1, True)

    a = _halfwidth(tol, _im_slack(lam_t))
    if ell == 1:
        l1, l2 = lam_t
        x1, x2 = x

        def f(pts: np.ndarray) -> np.ndarray:
            u = pts[:, 0]
            expo = _step_exponent_rows([np.full_like(u, x1), np.full_like(u, x2)], [u], l2)
            return stable_exp(expo + 1j * l1 * u)

        box = [(x1 - a, x2 + a)]
        return _with_tail(integrate_box(f, box, 0.9 * tol, max_evals), tol / 10.0, tol)

    l1, l2, l3 = lam_t
    x1, x2, x3 = x

    def f3(pts: np.ndarray) -> np.ndarray:
        u1, u2, v = pts[:, 0], pts[:, 1], pts[:, 2]
        cx1 = np.full_like(u1, x1)
        cx2 = np.full_like(u1, x2)
        cx3 = np.full_like(u1, x3)
        expo = _step_exponent_rows([cx1, cx2, cx3], [u1, u2], l3)
        expo = expo + _step_exponent_rows([u1, u2], [v], l2)
        return stable_exp(expo + 1j * l1 * v)

    box = [(x1 - a, x2 + a), (x2 - a, x3 + a), (x1 - 2 * a, x3 + 2 * a)]
    return _with_tail(integrate_box(f3, box, 0.9 * tol, max_evals), tol / 10.0, tol)


@functools.lru_cache(maxsize=None)
def _leggauss(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per size
    and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(size)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def givental_recursive_eval(
    lam, x, tol: float = 1e-8, max_evals: int = _DEFAULT_MAX_EVALS
) -> QuadratureResult:
    """Same function as :func:`givental_eval`, computed as a genuinely nested
    recursion: an adaptive outer integral over the next row down, with the
    lower-rank function evaluated on a fixed (convergence-doubled) grid.
    ``max_evals`` caps the outer (adaptive) quadrature only."""
    lam_t = _as_params(lam)
    n = len(lam_t)
    x = tuple(float(v) for v in x)
    ell = n - 1
    if ell > _MAX_RANK:
        raise RankError(f"rank {ell} not supported (maximum {_MAX_RANK})")
    if ell == 0:
        return QuadratureResult(cmath.exp(1j * lam_t[0] * x[0]), 0.0, 1, True)

    a = _halfwidth(tol, _im_slack(lam_t))
    extra_evals = 0

    if ell == 1:
        l1, l2 = lam_t
        x1, x2 = x

        def f(pts: np.ndarray) -> np.ndarray:
            u = pts[:, 0]
            expo = _step_exponent_rows([np.full_like(u, x1), np.full_like(u, x2)], [u], l2)
            return stable_exp(expo) * np.exp(1j * l1 * u)

        box = [(x1 - a, x2 + a)]
        return _with_tail(integrate_box(f, box, 0.9 * tol, max_evals), tol / 10.0, tol)

    l1, l2, l3 = lam_t
    x1, x2, x3 = x
    inner_tol = tol / 100.0
    v_lo, v_hi = x1 - 2 * a, x3 + 2 * a

    def inner_rank1(rows: np.ndarray) -> np.ndarray:
        """Rank-1 function at the (u1, u2) rows via grid doubling over v."""
        nonlocal extra_evals
        u1, u2 = rows[:, 0], rows[:, 1]
        prev = None
        size = 256
        while size <= 1 << 14:
            nodes, weights = _leggauss(size)
            v = 0.5 * (v_hi + v_lo) + 0.5 * (v_hi - v_lo) * nodes
            w = 0.5 * (v_hi - v_lo) * weights
            expo = (
                1j * l2 * (u1[:, None] + u2[:, None] - v[None, :])
                - _exp_wall(u1[:, None] - v[None, :])
                - _exp_wall(v[None, :] - u2[:, None])
                + 1j * l1 * v[None, :]
            )
            est = stable_exp(expo) @ w
            extra_evals += rows.shape[0] * size
            if prev is not None and np.max(np.abs(est - prev)) <= inner_tol:
                return est
            prev = est
            size *= 2
        return prev

    def outer(pts: np.ndarray) -> np.ndarray:
        u1, u2 = pts[:, 0], pts[:, 1]
        cx1 = np.full_like(u1, x1)
        cx2 = np.full_like(u1, x2)
        cx3 = np.full_like(u1, x3)
        expo = _step_exponent_rows([cx1, cx2, cx3], [u1, u2], l3)
        return stable_exp(expo) * inner_rank1(pts)

    box = [(x1 - a, x2 + a), (x2 - a, x3 + a)]
    res = integrate_box(outer, box, 0.8 * tol, max_evals)
    # The inner grid is converged to inner_tol in absolute terms; the outer
    # kernel has integral mass O(10), so budget tol/10 for it.
    err = res.abs_error + tol / 10.0 + tol / 10.0
    return QuadratureResult(res.value, err, res.evaluations + extra_evals, err <= tol)


# ---------------------------------------------------------------------------
# Spectral-plane model


def _pair_reciprocal_gammas(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    # 1/(Gamma(w) Gamma(-w)) = -w sin(pi w)/pi for w = i(g1-g2): entire, so
    # contour diagonals need no special-casing.
    w = 1j * (g1 - g2)
    return -w * np.sin(math.pi * w) / math.pi


def _plancherel_rows(betas: np.ndarray) -> np.ndarray:
    """Spectral density along contour rows, via the reflection identity
    ``1/(Gamma(w) Gamma(-w)) = -w sin(pi w)/pi`` (entire, no poles)."""
    m, n = betas.shape
    value = np.full(m, 1.0 / ((2.0 * math.pi) ** n * math.factorial(n)), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            value *= _pair_reciprocal_gammas(betas[:, j], betas[:, k])
    return value


def _spectral_rows(params: Sequence[complex], betas: np.ndarray, z: float) -> np.ndarray:
    """One spectral step along contour rows ``betas``: the Gamma factors
    ``prod_{p, j} Gamma(i beta_j - i p)`` over ``params``, the phase
    ``exp(-i z (sum params - sum beta))`` and the spectral density.

    The Gamma factors of a column depend on that column alone, so each is
    evaluated once per distinct value; rows on a grid share them."""
    expo = np.zeros(betas.shape[0], dtype=complex)
    for j in range(betas.shape[1]):
        values, inverse = np.unique(betas[:, j], return_inverse=True)
        column = np.zeros(values.size, dtype=complex)
        for p in params:
            column += log_gamma_array(1j * values - 1j * p)
        expo += column[inverse]
    expo += -1j * z * (sum(params) - betas.sum(axis=1))
    return stable_exp(expo) * _plancherel_rows(betas)


def _check_below(offsets: Sequence[float], params: Sequence[complex]) -> None:
    """Raise :class:`ContourError` unless every contour offset lies strictly
    below every parameter's imaginary part, where the poles of
    ``Gamma(i beta - i p)`` begin."""
    if not all(c < p.imag for c in offsets for p in params):
        raise ContourError(
            f"contour offsets {list(offsets)} must sit below every spectral "
            f"parameter (imaginary parts {[p.imag for p in params]})"
        )


def mb_closed_form_batch(betas: np.ndarray, x) -> np.ndarray:
    """Spectral-plane-normalized eigenfunctions at fixed position ``x``,
    vectorized over ``(m, n)`` rows of (possibly complex) parameters, for
    ``n`` = 1 or 2.

    These carry the opposite sign of the spectral parameter relative to the
    coordinate-space normalization: one variable gives ``exp(-i beta x)``.
    Two variables need one Macdonald function per distinct order
    ``i (beta_1 - beta_2)``; rows on a grid share their orders, so each
    distinct order is evaluated once."""
    betas = np.asarray(betas, dtype=complex)
    if betas.ndim != 2 or betas.shape[1] not in (1, 2):
        raise RankError(f"betas must be an (m, 1) or (m, 2) array, got shape {betas.shape}")
    if betas.shape[1] == 1:
        return np.exp(-1j * betas[:, 0] * float(x[0]))
    x1, x2 = float(x[0]), float(x[1])
    orders, inverse = np.unique(1j * (betas[:, 0] - betas[:, 1]), return_inverse=True)
    yv = np.full(orders.size, 2.0 * math.exp(0.5 * (x1 - x2)))
    kvals = _macdonald_pairs(orders, yv, _DEFAULT_BUDGET)[inverse]
    phase = np.exp(-0.5j * (betas[:, 0] + betas[:, 1]) * (x1 + x2))
    return 2.0 * phase * kvals


def default_contour(lam, ell: int | None = None) -> ContourSpec:
    """Default nested contour offsets for the spectral-plane model: level ``k``
    (k = 1 the innermost) sits ``(ell + 1 - k)/2`` below the lowest parameter."""
    lam_t = _as_params(lam)
    if ell is None:
        ell = len(lam_t) - 1
    base = min((-v).imag for v in lam_t)  # spectral-plane parameters are negated
    rows = []
    for k in range(1, ell + 1):
        c = base - 0.5 * (ell + 1 - k)
        rows.append([c] * k)
    return ContourSpec(rows)


def mellin_barnes_eval(
    lam,
    x,
    tol: float = 1e-8,
    contour: ContourSpec | None = None,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Evaluate via the spectral-plane contour model (ranks 0..2).

    The rank-``ell`` function is one spectral step applied to the rank
    ``ell - 1`` function in closed form: an integral over the top contour
    level ``beta`` of ``prod Gamma(i beta_j - i mu_m)`` times the spectral
    density, ``exp(-i x_last (sum mu - sum beta))`` and
    :func:`mb_closed_form_batch` ``(beta, x[:-1])``, with ``mu = -lam``.  At
    rank 2 that is the innermost level integrated in closed form,

        integral Gamma(iu - ig_1) Gamma(iu - ig_2) e^{iu(x_2 - x_1)} du
            = 2 pi e^{i x_2 (g_1 + g_2)} mb_closed_form_batch((g_1, g_2), (x_1, x_2)),

    which holds for a ``u``-line below both ``g``-lines, so ``contour``
    (levels of 1, ..., ``ell`` offsets) must interlace; the top level is
    integrated by :func:`integrate_contour`.  Raises :class:`ContourError`
    unless the top level lies strictly below every ``Im mu``.

    Agrees with :func:`givental_eval`; moving the contour offsets slightly
    (within the pole-free band) changes the value only at the tolerance level.
    ``max_evals`` caps the quadrature (:class:`BudgetExceeded` beyond it).
    """
    lam_t = _as_params(lam)
    n = len(lam_t)
    x = tuple(float(v) for v in x)
    ell = n - 1
    if ell > _MAX_RANK:
        raise RankError(f"rank {ell} not supported (maximum {_MAX_RANK})")
    if ell == 0:
        return QuadratureResult(cmath.exp(1j * lam_t[0] * x[0]), 0.0, 1, True)

    mu = tuple(-v for v in lam_t)  # spectral-plane sign map
    if contour is None:
        contour = default_contour(lam_t, ell)
    if [len(row) for row in contour.offsets] != list(range(1, n)):
        raise ValueError(
            f"rank-{ell} spectral evaluation needs contour levels of 1, ..., {ell} offsets"
        )
    top = ContourSpec([contour.offsets[-1]])
    _check_below(top.flat, mu)

    def f(betas: np.ndarray) -> np.ndarray:
        return _spectral_rows(mu, betas, x[-1]) * mb_closed_form_batch(betas, x[:-1])

    return integrate_contour(f, top, 2, tol, max_evals)


def plancherel_measure(lam) -> complex:
    """Spectral density: the inverse-squared-modulus Gamma product with the
    standard normalization. Raises :class:`PoleError` at coinciding values."""
    lam_t = _as_params(lam)
    n = len(lam_t)
    for j in range(n):
        for k in range(j + 1, n):
            if abs(lam_t[j] - lam_t[k]) <= 1e-12:
                raise PoleError(
                    f"plancherel_measure undefined at coinciding parameters {j}, {k}",
                    index=j,
                )
    value = 1.0 / ((2.0 * math.pi) ** n * math.factorial(n))
    for j in range(n):
        for k in range(j + 1, n):
            w = 1j * (lam_t[j] - lam_t[k])
            value *= -w * cmath.sin(math.pi * w) / math.pi
    return value


# ---------------------------------------------------------------------------
# Mixed pipelines


def mixed_eval(word, lam, x, tol: float = 1e-8) -> QuadratureResult:
    """Evaluate with a per-step model choice.

    ``word[j]`` selects the model ('L' coordinate, 'R' spectral) of the step
    that builds rank ``j+1`` from rank ``j`` — bottom-up, one letter per step.
    Spectral steps sit on the default contours of :func:`mellin_barnes_eval`.
    All words agree with :func:`givental_eval` on their common domain.
    """
    lam_t = _as_params(lam)
    n = len(lam_t)
    x = tuple(float(v) for v in x)
    ell = n - 1
    word = tuple(word)
    if len(word) != ell:
        raise ValueError(f"word length {len(word)} must equal the rank {ell}")
    if not all(c in ("L", "R") for c in word):
        raise ValueError("word entries must be 'L' or 'R'")
    if ell > _MAX_RANK:
        raise RankError(f"rank {ell} not supported (maximum {_MAX_RANK})")
    if ell == 0:
        return QuadratureResult(cmath.exp(1j * lam_t[0] * x[0]), 0.0, 1, True)

    if all(c == "L" for c in word):
        return givental_recursive_eval(lam_t, x, tol)
    if all(c == "R" for c in word):
        return mellin_barnes_eval(lam_t, x, tol)

    # Rank-2 hybrids: one spectral level folded into a real box integration.
    a = _halfwidth(tol, _im_slack(lam_t) + 1.0)
    mu = tuple(-v for v in lam_t)
    x1, x2, x3 = x
    tau = tol / 40.0
    radius = (math.log(1.0 / tau) + 16.0) / math.pi + 2.0

    if word == ("L", "R"):
        # Top step spectral (two contour variables), bottom step coordinate.
        c2 = min(m.imag for m in mu) - 0.5
        s_mu = sum(mu)

        def f_lr(pts: np.ndarray) -> np.ndarray:
            t1, t2, v = pts[:, 0], pts[:, 1], pts[:, 2]
            g1 = t1 + 1j * c2
            g2 = t2 + 1j * c2
            lg = np.zeros(t1.shape, dtype=complex)
            for m in mu:
                lg = lg + log_gamma_array(1j * g1 - 1j * m) + log_gamma_array(1j * g2 - 1j * m)
            # bottom coordinate step of the negated-parameter rank-1 function
            step = (
                1j * (-g2) * (x1 + x2 - v)
                - _exp_wall(np.full_like(v, x1) - v)
                - _exp_wall(v - np.full_like(v, x2))
                - 1j * g1 * v
            )
            expo = lg - 1j * x3 * (s_mu - g1 - g2) + step
            measure = _pair_reciprocal_gammas(g1, g2) / (2.0 * (2.0 * math.pi) ** 2)
            return measure * stable_exp(expo)

        box = [(-radius, radius), (-radius, radius), (x1 - a, x2 + a)]
        return _with_tail(integrate_box(f_lr, box, 0.9 * tol), tol / 10.0, tol)

    # word == ("R", "L"): top step coordinate, bottom step spectral.
    c1 = min(m.imag for m in mu[:2]) - 0.5
    s_mu12 = mu[0] + mu[1]

    def f_rl(pts: np.ndarray) -> np.ndarray:
        y1, y2, t = pts[:, 0], pts[:, 1], pts[:, 2]
        u = t + 1j * c1
        expo = _step_exponent_rows(
            [np.full_like(y1, x1), np.full_like(y1, x2), np.full_like(y1, x3)],
            [y1, y2],
            lam_t[2],
        )
        lg = log_gamma_array(1j * u - 1j * mu[0]) + log_gamma_array(1j * u - 1j * mu[1])
        expo = expo + lg - 1j * y2 * (s_mu12 - u) - 1j * u * y1 - math.log(2.0 * math.pi)
        return stable_exp(expo)

    box = [(x1 - a, x2 + a), (x2 - a, x3 + a), (-radius, radius)]
    return _with_tail(integrate_box(f_rl, box, 0.9 * tol), tol / 10.0, tol)


# ---------------------------------------------------------------------------
# Toda Hamiltonians by finite differences


def _stencil(
    psi: Callable[[np.ndarray], np.ndarray], x: Sequence[float], step: float
) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as an array, and ``psi`` at ``x`` (entry 0) and at ``x +- step``
    along axis ``j`` (entries ``1 + 2 j`` and ``2 + 2 j``)."""
    x_arr = np.asarray([float(v) for v in x], dtype=float)
    if step <= 0.0:
        raise ValueError("step must be positive")
    points = [x_arr]
    for j in range(x_arr.size):
        for sgn in (+1.0, -1.0):
            p = x_arr.copy()
            p[j] += sgn * step
            points.append(p)
    return x_arr, np.asarray(psi(np.array(points)), dtype=complex)


def _kinetic(vals: np.ndarray, step: float) -> complex:
    """``-1/2 sum_j d^2 psi / dx_j^2`` from the values of :func:`_stencil`."""
    out = 0.0 + 0.0j
    for j in range((vals.size - 1) // 2):
        out += -0.5 * (vals[1 + 2 * j] - 2.0 * vals[0] + vals[2 + 2 * j]) / (step * step)
    return out


def toda_apply(
    h: str,
    psi: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    step: float = 1e-3,
) -> complex:
    """Apply a named chain Hamiltonian to ``psi`` at ``x`` by second-order
    central differences.

    ``h`` is ``"H1"`` (momentum sum: −i·Σ∂) or ``"H2tilde"`` (−½Σ∂² plus the
    nearest-neighbour exponential potential). ``psi`` follows the vectorized
    evaluator contract ((m, n) array in, (m,) complex out).
    """
    name = h.strip().lower()
    if name not in ("h1", "h2tilde"):
        raise ValueError(f"unknown hamiltonian {h!r} (expected 'H1' or 'H2tilde')")
    step = float(step)
    x_arr, vals = _stencil(psi, x, step)
    n = x_arr.size
    if name == "h1":
        out = 0.0 + 0.0j
        for j in range(n):
            out += -1j * (vals[1 + 2 * j] - vals[2 + 2 * j]) / (2.0 * step)
        return complex(out)
    potential = sum(math.exp(x_arr[j] - x_arr[j + 1]) for j in range(n - 1))
    return complex(_kinetic(vals, step) + potential * vals[0])
