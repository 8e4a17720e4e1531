"""Whittaker functions for the A-series quantum Toda chain.

Every evaluator builds the rank-``ell`` function (ranks 0..2) by one step
over the rank below.  The coordinate step integrates the Givental kernel over
the pattern row below ``x``, the spectral step the Gamma kernel and the
spectral density over one contour level.  :func:`givental_eval` fuses every
coordinate step of a pattern into one integral and is the reference;
:func:`givental_recursive_eval` is a coordinate step over the rank below,
:func:`mellin_barnes_eval` a spectral step over the rank below in closed
form, and in :func:`mixed_eval` ``word[-1]`` picks the top step and
``word[0]`` the model in which the rank below is computed at its nodes.
Spectral variables always go to the trapezoid rule, and so do a step's
coordinate variables (a 1-D or 2-D box on the lattice of
:func:`~toda_whittaker.quadrature._integrate_truncated`) and the rank-1
level below a step: one batch of 1-D lattice integrals per batch of the
step's nodes, one integral per distinct key of those nodes.

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

from .errors import BudgetExceeded, ContourError, PoleError, RankError
from .numerics import (
    AccuracyBudget,
    log_gamma_array,
    macdonald_k,
    _fold_orders,
    _macdonald_grid,
    _macdonald_pairs,
    _DEFAULT_BUDGET,
)
from .quadrature import (
    _DEFAULT_MAX_EVALS,
    ContourSpec,
    QuadratureResult,
    _axis_differences,
    _integrate_contour_axes,
    _integrate_star,
    _integrate_truncated,
    _on_rows,
    _trapezoid,
    _wall_reach,
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


def _checked(lam, x) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """``lam`` and ``x`` as tuples; :class:`RankError` unless there is one
    coordinate per parameter, at least one, and the rank is supported."""
    lam_t = _as_params(lam)
    x_t = tuple(float(v) for v in x)
    if not lam_t or len(x_t) != len(lam_t):
        raise RankError(f"expected one coordinate per spectral parameter, got {len(x_t)} for {len(lam_t)}")
    if len(lam_t) - 1 > _MAX_RANK:
        raise RankError(f"rank {len(lam_t) - 1} not supported (maximum {_MAX_RANK})")
    return lam_t, x_t


def _rank0(lam_t: tuple[complex, ...], x: tuple[float, ...]) -> QuadratureResult:
    """The rank-0 function ``exp(i lam_1 x_1)``, exact."""
    return QuadratureResult(cmath.exp(1j * lam_t[0] * x[0]), 0.0, 1, True)


def _wall(sign: float) -> Callable:
    """The factor ``exp(-e^{sign d})`` of a wall across a difference ``d``."""
    return lambda d: np.exp(-_exp_wall(sign * d))


def _exp_wall(diff: np.ndarray) -> np.ndarray:
    """The wall ``e^diff`` of a kernel exponent, saturating instead of
    overflowing: it is only ever subtracted inside another exponent.  The
    kernel exponents (the step's, the Baxter kernel's, the so step's and the
    zonal weight's) are its only callers."""
    return np.exp(np.minimum(diff, 700.0))


# ---------------------------------------------------------------------------
# Closed forms (ranks 0 and 1)


def closed_form_gl2(lam, x) -> complex:
    """Rank-1 function in closed form: a phase in the center-of-mass variable
    times a Macdonald function of imaginary order in the relative variable.
    It is 0 where the Macdonald argument ``2 exp((x_1 - x_2)/2)`` is infinite;
    :class:`ValueError` names the coordinates where it is NaN or 0."""
    params = _as_params(lam)
    if len(params) != 2 or len(x) != 2:
        raise RankError("closed_form_gl2 needs two spectral parameters and two coordinates")
    l1, l2 = params
    x1, x2 = float(x[0]), float(x[1])
    y = math.inf if x1 - x2 > 1400.0 else 2.0 * math.exp(0.5 * (x1 - x2))
    if not y > 0.0:
        raise ValueError(_ZERO_ARGUMENT.format([[x1, x2]]))
    if y == math.inf:
        return 0j
    phase = cmath.exp(0.5j * (l1 + l2) * (x1 + x2))
    return 2.0 * phase * macdonald_k(1j * (l1 - l2), y)


_ZERO_ARGUMENT = "the Macdonald argument 2 exp((x_1 - x_2)/2) is NaN or 0 (K unbounded) at x = {}"


def closed_form_gl2_batch(lam, xs: np.ndarray, budget: AccuracyBudget = _DEFAULT_BUDGET) -> np.ndarray:
    """Vectorized :func:`closed_form_gl2` over rows of an ``(m, 2)`` array."""
    params = _as_params(lam)
    if len(params) != 2:
        raise RankError("closed_form_gl2_batch needs two spectral parameters")
    l1, l2 = params
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 2:
        raise RankError("xs must be an (m, 2) array")
    with np.errstate(over="ignore", invalid="ignore"):  # infinite coordinates, checked below
        y, com = 2.0 * np.exp(0.5 * (xs[:, 0] - xs[:, 1])), xs[:, 0] + xs[:, 1]
    if not (y > 0.0).all():
        raise ValueError(_ZERO_ARGUMENT.format(xs[~(y > 0.0)][:3].tolist()))
    kvals = _macdonald_grid(1j * (l1 - l2), y, budget)
    if (y == math.inf).any():  # K is 0 there, and the phase may be NaN
        com = np.where(y == math.inf, 0.0, com)
    return 2.0 * np.exp(0.5j * (l1 + l2) * com) * kvals


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
    return complex(stable_exp(_step_exponent_rows(top, bot, complex(lam))))


def _step_exponent_rows(top_cols: list, bot_cols: list, lam) -> np.ndarray:
    """Vectorized log of the step kernel; columns are aligned arrays or
    numbers, and ``lam`` is a number or an array broadcasting against them."""
    walls = 0.0
    for i, b in enumerate(bot_cols):
        walls = walls + _exp_wall(top_cols[i] - b) + _exp_wall(b - top_cols[i + 1])
    return 1j * lam * (sum(top_cols) - sum(bot_cols)) - walls


def _pattern_box(x: Sequence[float], a: float, rows: int) -> list[tuple[float, float]]:
    """Box of the ``rows`` pattern rows below ``x``: entry ``j`` of the row
    ``k`` levels down lies in ``(x_j - k a, x_{j+k} + k a)``."""
    return [(x[j] - k * a, x[j + k] + k * a) for k in range(1, rows + 1) for j in range(len(x) - k)]


def givental_eval(
    lam, x, tol: float = 1e-8, max_evals: int = _DEFAULT_MAX_EVALS
) -> QuadratureResult:
    """Evaluate the coordinate-model function as one fused integral over the
    whole pattern below ``x``.

    Supports ranks 0..2 (:class:`RankError` beyond); rank 0 is exact.  At
    rank 1 the one pattern entry is a 1-D box on the trapezoid lattice.  At
    rank 2 the row ``(a, b)`` below ``x`` couples only to the bottom entry
    ``c``, by the walls ``e^{a - c}`` and ``e^{c - b}``: a star contraction
    with centre ``c`` (:func:`~toda_whittaker.quadrature._integrate_star`),
    whose ``evaluations`` are its factor values, the three axes' nodes and
    the two walls' distinct differences.  ``max_evals`` caps the count
    (:class:`BudgetExceeded` beyond it).
    """
    lam_t, x = _checked(lam, x)
    n = len(lam_t)
    if n == 1:
        return _rank0(lam_t, x)
    box = _pattern_box(x, _wall_reach(tol, n * (n - 1), lam_t), n - 1)
    if n == 2:
        f = lambda p: stable_exp(_step_exponent_rows(list(x), [p[:, 0]], lam_t[1]) + 1j * lam_t[0] * p[:, 0])
        return _integrate_truncated(f, box, tol, max_evals, lam_t)
    (x1, x2, x3), (l1, l2, l3) = x, lam_t

    def entry(left: float, right: float) -> Callable:  # an entry of the row below x, between left and right
        return lambda a: stable_exp(1j * (l2 - l3) * a - _exp_wall(left - a) - _exp_wall(a - right))

    centre = lambda c: stable_exp(1j * (l1 - l2) * c + 1j * l3 * (x1 + x2 + x3))
    leaves = [(_wall(-1.0), entry(x1, x2)), (_wall(1.0), entry(x2, x3))]
    return _integrate_star(centre, leaves, [box[2], box[0], box[1]], tol, max_evals, lam_t)


def _step_box(lam_t, x, tol: float) -> list[tuple[float, float]]:
    """The pattern box of the row below ``x`` of a coordinate step at ``tol``."""
    return _pattern_box(x, _wall_reach(tol, 2 * (len(x) - 1), lam_t), 1)


def _coordinate_step(lam_t, x, lower: Callable, tol: float, max_evals: int) -> QuadratureResult:
    """One coordinate step: the integral over the pattern row below ``x`` of
    the step kernel with parameter ``lam_t[-1]`` times ``lower``, the rank
    below at rows of that row, on the row's pattern box."""

    def f(rows: np.ndarray) -> np.ndarray:
        expo = _step_exponent_rows(list(x), [rows[:, j] for j in range(rows.shape[1])], lam_t[-1])
        return stable_exp(expo) * lower(rows)

    return _integrate_truncated(f, _step_box(lam_t, x, tol), tol, max_evals, lam_t)


def givental_recursive_eval(
    lam, x, tol: float = 1e-8, max_evals: int = _DEFAULT_MAX_EVALS
) -> QuadratureResult:
    """Same function as :func:`givental_eval`, computed as one coordinate
    step, an integral over the next row down, over the rank below.
    At rank 2 the rank below is the rank-1 coordinate model, integrated on
    the lattice once per distinct difference of the step's node
    coordinates, each to its own stop.  ``max_evals`` caps the evaluations
    of the step and of the rank-1 level together (:class:`BudgetExceeded`
    beyond it)."""
    lam_t, x = _checked(lam, x)
    if len(lam_t) == 1:
        return _rank0(lam_t, x)
    if len(lam_t) == 3:
        return _over_rank1("LL", lam_t, x, tol, max_evals)
    l1 = lam_t[0]
    return _coordinate_step(lam_t, x, lambda rows: np.exp(1j * l1 * rows[:, 0]), tol, max_evals)


# ---------------------------------------------------------------------------
# Spectral-plane model


def _distinct(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of complex ``z`` and the inverse that rebuilds ``z`` from them, by one
    float sort on the imaginary parts: each run of equal adjacent values is one
    value, so the inverse is exact, and a value whose run is split by another of
    the same imaginary part only comes twice."""
    order = np.argsort(z.imag)
    ordered = z[order]
    new = np.ones(z.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(z.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _spectral_density(axes: tuple) -> np.ndarray:
    """Spectral density on the grid of the parameter axes ``axes``, one
    complex 1-D array per variable: the standard normalization times, for
    each pair ``j < k``, the reflection identity ``1/(Gamma(w) Gamma(-w)) =
    -w sin(pi w)/pi`` (entire, no poles) at ``w = i (beta_j - beta_k)``.
    Along a lattice axis the imaginary part is constant, so ``w`` depends
    on a node only through the difference of its two real parts, and is
    evaluated once per difference (:func:`_axis_differences`).  Each node's
    value has the same bits whichever nodes share the axes."""
    n = len(axes)
    value = 1.0 / ((2.0 * math.pi) ** n * math.factorial(n))
    for j in range(n):
        for k in range(j + 1, n):
            diffs, index = _axis_differences(axes[j].real, axes[k].real)
            w = 1j * (diffs + 1j * (axes[j][0].imag - axes[k][0].imag))
            shape = [1] * n
            shape[j], shape[k] = index.shape
            value = value * (-w * np.sin(math.pi * w) / math.pi)[index.reshape(shape)]
    return value


def _spectral_step(
    params, z: float, lower: Callable, contour: ContourSpec, decay: int, tol: float, max_evals: int
) -> QuadratureResult:
    """One spectral step: the integral along ``contour`` of the Gamma factors
    ``prod_{p, j} Gamma(i beta_j - i p)`` over ``params``, the phase
    ``exp(-i z (sum params - sum beta))``, the spectral density and
    ``lower``, the rank below at ``(m, n)`` parameter rows ``beta``, by
    :func:`~toda_whittaker.quadrature._integrate_contour_axes` with
    ``decay`` as its Gamma-decay count.  The Gamma factors and the phase of
    a column depend on that column alone, so they are evaluated once per
    axis node, and the density once per difference of two axes' nodes;
    ``lower`` gets the nodes of a whole batch of grids as rows.

    Raises :class:`ContourError` unless every contour offset lies strictly
    below every ``Im params``, where the poles of ``Gamma(i beta - i p)``
    begin."""
    if not all(c < p.imag for c in contour.flat for p in params):
        raise ContourError(
            f"contour offsets {list(contour.flat)} must sit below every spectral "
            f"parameter (imaginary parts {[p.imag for p in params]})"
        )
    phase = cmath.exp(-1j * z * sum(params))

    def kernel(axes: tuple) -> np.ndarray:
        value = phase * _spectral_density(axes)
        for j, beta in enumerate(axes):
            column = 1j * z * beta
            for p in params:
                column = column + log_gamma_array(1j * beta - 1j * p)
            shape = [1] * len(axes)
            shape[j] = beta.size
            value = value * stable_exp(column).reshape(shape)
        return value

    below = _on_rows(lower)

    def f(grids: list) -> list:
        return [kernel(axes) * values for axes, values in zip(grids, below(grids))]

    return _integrate_contour_axes(f, contour, decay, tol, max_evals)


def mb_closed_form_batch(betas: np.ndarray, x) -> np.ndarray:
    """Spectral-plane-normalized eigenfunctions at fixed position ``x``,
    vectorized over ``(m, n)`` rows of (possibly complex) parameters, for
    ``n`` = 1 or 2, with ``len(x) == n`` (:class:`RankError` otherwise).

    These carry the opposite sign of the spectral parameter relative to the
    coordinate-space normalization: one variable gives ``exp(-i beta x)``.
    Two variables need one Macdonald function per distinct order
    ``i (beta_1 - beta_2)`` up to sign (``K_nu = K_-nu``); rows on a grid
    share their orders, and on a contour pair they come in ``+-`` pairs.  So
    the rows' orders are deduplicated by one float sort on their imaginary
    parts, the distinct ones folded to ``Im >= 0`` (where ``+-`` pairs meet)
    and deduplicated again, and each distinct folded order is evaluated once."""
    betas = np.asarray(betas, dtype=complex)
    if betas.ndim != 2 or betas.shape[1] not in (1, 2):
        raise RankError(f"betas must be an (m, 1) or (m, 2) array, got shape {betas.shape}")
    if len(x) != betas.shape[1]:
        raise RankError(f"expected {betas.shape[1]} coordinates, got {len(x)}")
    if betas.shape[1] == 1:
        return np.exp(-1j * betas[:, 0] * float(x[0]))
    x1, x2 = float(x[0]), float(x[1])
    orders, inverse = _distinct(1j * (betas[:, 0] - betas[:, 1]))
    orders, back = _distinct(_fold_orders(orders))
    kvals = _macdonald_pairs(orders, 2.0 * math.exp(0.5 * (x1 - x2)), _DEFAULT_BUDGET)[back[inverse]]
    phase = np.exp(-0.5j * (betas[:, 0] + betas[:, 1]) * (x1 + x2))
    return 2.0 * phase * kvals


def default_contour(lam) -> ContourSpec:
    """Default nested contour offsets for the spectral-plane model: level ``k``
    (k = 1 the innermost) sits ``(ell + 1 - k)/2`` below the lowest parameter."""
    lam_t = _as_params(lam)
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

    The rank-``ell`` function is one spectral step over the rank ``ell - 1``
    function in closed form: an integral over the top contour level ``beta``
    of ``prod Gamma(i beta_j - i mu_m)`` times the spectral density,
    ``exp(-i x_last (sum mu - sum beta))`` and :func:`mb_closed_form_batch`
    ``(beta, x[:-1])``, with ``mu = -lam``.  At rank 2 that is the innermost
    level integrated in closed form,

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
    lam_t, x = _checked(lam, x)
    n = len(lam_t)
    if n == 1:
        return _rank0(lam_t, x)
    if contour is None:
        contour = default_contour(lam_t)
    if [len(row) for row in contour.offsets] != list(range(1, n)):
        raise ValueError(
            f"rank-{n - 1} spectral evaluation needs contour levels of 1, ..., {n - 1} offsets"
        )
    mu = tuple(-v for v in lam_t)  # spectral-plane sign map
    top = ContourSpec([contour.offsets[-1]])
    below = functools.partial(mb_closed_form_batch, x=x[:-1])
    return _spectral_step(mu, x[-1], below, top, 2, tol, max_evals)


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
    return complex(np.ravel(_spectral_density(tuple(np.array([v]) for v in lam_t)))[0])


# ---------------------------------------------------------------------------
# The rank-1 function below a step, as one batch of lattice integrals


def _coordinate_rank1(p1, p2, u1, u2, reach: float, inner_tol: float, max_evals: int):
    """The rank-1 coordinate model at parameter rows ``(p1, p2)`` and
    coordinate rows ``(u1, u2)``, all broadcast: with ``v = (u1 + u2)/2 + t``
    the step kernel of parameter ``p2`` times ``exp(i p1 v)`` is
    ``exp(i (p1 + p2)(u1 + u2)/2)`` times ``exp(i d t - 2 e^{delta/2} cosh t)``,
    ``d = p1 - p2``, ``delta = u1 - u2``, so the integral over ``t`` is taken
    once per distinct ``(d, delta)``, to ``inner_tol`` on ``|t| <= reach``
    with frequency ``|Re d|``.  Each row's pattern box ``|t| <= a - delta/2``
    must lie in that box; ``reach`` depends only on the caller's point and
    tol, so that a row has the same bits whichever rows share its call.
    Returns the values, the largest error among them, and the evaluation
    count; :class:`BudgetExceeded` once the count would pass ``max_evals``."""
    p1, p2, u1, u2 = np.broadcast_arrays(np.asarray(p1, dtype=complex), p2, u1, u2)
    keys, inverse = np.unique(np.stack([p1 - p2, u1 - u2], axis=1), axis=0, return_inverse=True)
    d, w = keys[:, 0], 2.0 * np.exp(0.5 * keys[:, 1].real)

    def g(grids: list, rows: np.ndarray) -> list:
        return [stable_exp(1j * d[rows, None] * t - w[rows, None] * np.cosh(t)) for (t,) in grids]

    box = np.array([-reach]), np.array([reach])
    values, errors, evals = _trapezoid(g, *box, inner_tol / 10.0, inner_tol, max_evals, np.abs(d.real))
    phase = np.exp(0.5j * (p1 + p2) * (u1 + u2))
    return phase * values[inverse], float((np.abs(phase) * errors[inverse]).max()), evals


def _spectral_rank1(l1: complex, l2: complex, y1, y2, inner_tol: float, max_evals: int):
    """The rank-1 spectral model at coordinate rows ``(y1, y2)``:
    ``exp(i y2 (l1 + l2)) / (2 pi)`` times ``integral Gamma(iu + i l1)
    Gamma(iu + i l2) e^{iu (y2 - y1)} du`` along its default contour, one
    contour integral per distinct ``y2 - y1`` to ``inner_tol``, with the
    Gamma row computed once per node.  Returns as :func:`_coordinate_rank1`."""
    delta, inverse = np.unique(y2 - y1, return_inverse=True)

    def g(grids: list, rows: np.ndarray) -> list:
        gammas = [log_gamma_array(1j * u + 1j * l1) + log_gamma_array(1j * u + 1j * l2) for (u,) in grids]
        return [stable_exp(lg + 1j * u * delta[rows, None]) for lg, (u,) in zip(gammas, grids)]

    contour, frequency = default_contour((l1, l2)), np.zeros(delta.size)
    values, errors, evals = _integrate_contour_axes(g, contour, 2, inner_tol, max_evals, frequency)
    scale = np.exp(1j * y2 * (l1 + l2)) / (2.0 * math.pi)
    return scale * values[inverse], float((np.abs(scale) * errors[inverse]).max()), evals


def _over_rank1(word: str, lam_t, x, tol: float, max_evals: int) -> QuadratureResult:
    """A rank-2 word: the top step ``word[-1]`` over the rank-1 level in
    model ``word[0]``, one batch of lattice integrals to a hundredth of
    ``tol`` per batch of the step's nodes.  Its error adds ten times their
    largest error (a step kernel's mass is at most 10).  ``max_evals`` caps
    the step's evaluations and the rank-1 level's together, checked before
    each level of the rank-1 lattice; once the next level would pass it,
    the step stops there, with no estimate (value nan, error inf)."""
    inner_tol, spent, row_err = tol / 100.0, [0], [0.0]
    a = _wall_reach(inner_tol, 2, lam_t)
    if word == "LL":  # rows at the step's nodes, whose u1 - u2 is least at a corner of its box
        (lo, _), (_, hi) = _step_box(lam_t, x, 0.9 * tol)
        reach = max(a - 0.5 * (lo - hi), 0.5)
    else:
        reach = max(a - 0.5 * (x[0] - x[1]), 0.5)
    rank1 = {  # the rank-1 level at the step's nodes (u, v), within the budget n
        "LR": lambda u, v, n: _coordinate_rank1(-u, -v, *x[:2], reach, inner_tol, n),  # spectral-plane sign
        "LL": lambda u, v, n: _coordinate_rank1(*lam_t[:2], u, v, reach, inner_tol, n),
        "RL": lambda u, v, n: _spectral_rank1(*lam_t[:2], u, v, inner_tol, n),
    }[word]

    def lower(nodes: np.ndarray) -> np.ndarray:
        try:
            values, err, evals = rank1(nodes[:, 0], nodes[:, 1], max_evals - spent[0] - nodes.shape[0])
        except BudgetExceeded as exc:
            spent[0] += nodes.shape[0] + exc.result.evaluations
            raise
        spent[0] += nodes.shape[0] + evals
        row_err[0] = max(row_err[0], err)
        return values

    stopped = False
    try:
        if word[-1] == "R":
            mu, top = tuple(-v for v in lam_t), ContourSpec([default_contour(lam_t).offsets[-1]])
            res = _spectral_step(mu, x[2], lower, top, 2, 0.9 * tol, max_evals)
        else:
            res = _coordinate_step(lam_t, x, lower, 0.9 * tol, max_evals)
    except BudgetExceeded as exc:
        res, stopped = exc.result, True
    err, evals = res.abs_error + 10.0 * row_err[0], spent[0]
    if stopped or evals > max_evals:
        raise BudgetExceeded(
            f"evaluation budget {max_evals} exhausted by the step and its rank-1 level "
            f"({evals} evaluations, error {err:.3e}, tol {tol:.3e})",
            result=QuadratureResult(res.value, err, evals, False),
            max_evaluations=max_evals,
        )
    return QuadratureResult(res.value, err, evals, err <= tol)


def mixed_eval(word, lam, x, tol: float = 1e-8) -> QuadratureResult:
    """Evaluate with a per-step model choice, one letter per step: 'L' the
    coordinate model, 'R' the spectral one.  ``word[-1]`` picks the top step
    and ``word[0]`` the model in which the rank below is computed at that
    step's nodes.  Words of one model are :func:`givental_recursive_eval`
    and :func:`mellin_barnes_eval` (below a spectral step the spectral level
    is in closed form); 'LR' and 'RL' integrate their rank-1 level in the
    other model on the trapezoid lattice, as one batch of integrals per
    batch of the step's nodes.  Spectral steps sit on the default contours
    of :func:`mellin_barnes_eval`.  All words agree with
    :func:`givental_eval` on their common domain.
    """
    lam_t, x = _checked(lam, x)
    word = tuple(word)
    if len(word) != len(lam_t) - 1:
        raise ValueError(f"word length {len(word)} must equal the rank {len(lam_t) - 1}")
    if not all(c in ("L", "R") for c in word):
        raise ValueError("word entries must be 'L' or 'R'")
    if "R" not in word:
        return givental_recursive_eval(lam_t, x, tol)
    if "L" not in word:
        return mellin_barnes_eval(lam_t, x, tol)
    return _over_rank1("".join(word), lam_t, x, tol, _DEFAULT_MAX_EVALS)


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
