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
applied by central differences.  The pattern step and the operator's kernel
are one so step kernel (:func:`_so_step_exponent_rows`), a middle row between
two outer rows; the operator's middle row is integrated in closed form, and
the rank-two evaluators take the step's factors one variable at a time
(:func:`_so_middle`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import RankError, ShiftError
from .numerics import (
    AccuracyBudget,
    _macdonald_grid,
    _macdonald_pairs,
    _quadrature_budget,
    gamma_product,
    macdonald_k,
)
from .gl_whittaker import _exp_wall, _kinetic, _stencil, _wall
from .quadrature import (
    _DEFAULT_MAX_EVALS,
    QuadratureResult,
    _integrate_star,
    _integrate_truncated,
    _rate_reach,
    _wall_reach,
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


#: Minimum decay rate required of the conditionally convergent direction of
#: ``so_baxter_apply``; see that function.
MIN_SO_SPECTRAL_GAP = 0.25


def closed_form_so3(lam: complex, x: float) -> complex:
    """Rank-one eigenfunction: ``2 K_{2 i lam}(2 exp(x/2))``, 0 where the
    argument is infinite; :class:`ValueError` names ``x`` where it is NaN or 0."""
    x = float(x)
    y = math.inf if x > 1400.0 else 2.0 * math.exp(0.5 * x)
    if not y > 0.0:
        raise ValueError(f"the Macdonald argument 2 exp(x/2) is NaN or 0 (K unbounded) at x = {x!r}")
    return 2.0 * macdonald_k(2j * complex(lam), y)


def _so3_argument(xs) -> np.ndarray:
    """The rank-one eigenfunction's Macdonald argument ``2 exp(x/2)``, clipped."""
    return 2.0 * np.exp(np.clip(0.5 * np.asarray(xs, dtype=float), -370.0, 350.0))


def _closed_form_so3_batch(lam: complex, xs: np.ndarray, budget: AccuracyBudget) -> np.ndarray:
    return 2.0 * _macdonald_grid(2j * complex(lam), _so3_argument(xs), budget)


def _as_lam_tuple(lam) -> tuple[complex, ...]:
    if isinstance(lam, (int, float, complex)):
        return (complex(lam),)
    return tuple(complex(v) for v in lam)


def _checked(lam, x, name: str) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """``lam`` and ``x`` as tuples; :class:`RankError` unless they have equal
    length one or two."""
    lam_t = _as_lam_tuple(lam)
    x_t = tuple(float(v) for v in x)
    if len(lam_t) != len(x_t):
        raise RankError("lam and x must have equal length")
    if len(x_t) not in (1, 2):
        raise RankError(f"{name} supports one or two variables")
    return lam_t, x_t


def _so_step_exponent_rows(top: list, mid: list, bot: list, lam: complex) -> np.ndarray:
    """Log of the so step kernel: the row ``mid`` between the rows ``top``
    and ``bot`` (lists of aligned columns or numbers), with parameter
    ``lam``.  Both outer rows interlace ``mid`` from below (walls
    ``e^{r_i - mid_i}`` and ``e^{mid_{i+1} - r_i}``), and ``mid_1`` meets the
    reflecting wall ``e^{mid_1}``.  With ``len(mid) == len(top) == len(bot)
    + 1`` this is the pattern step, with ``len(mid) == len(top) + 1 ==
    len(bot) + 1`` the Baxter kernel."""
    walls = _exp_wall(mid[0])
    for row in (top, bot):
        for i, v in enumerate(row):
            walls = walls + _exp_wall(v - mid[i])
            if i + 1 < len(mid):
                walls = walls + _exp_wall(mid[i + 1] - v)
    return 1j * lam * (2.0 * sum(mid) - sum(top) - sum(bot)) - walls


def _so_box(lam_t, x, steps: int, tol: float) -> list:
    """The box of ``steps`` so steps down from the row ``x``: each step's
    middle and bottom rows, cut past the walls of the step."""
    sizes = [len(x) - k for k in range(steps)]  # the top row of each step
    r = _wall_reach(tol, 2 * sum(2 * m - 1 for m in sizes), lam_t)
    box, top = [], [(v, v) for v in x]
    for _ in sizes:
        mid = [(top[i][0] - r, r if i == 0 else top[i - 1][1] + r) for i in range(len(top))]
        top = [(mid[i + 1][0] - r, mid[i][1] + r) for i in range(len(top) - 1)]
        box += mid + top
    return box


def _so_middle(lam: complex, x1: float, x2: float) -> list:
    """The leaves ``(wall, factor)`` of the middle row ``(m_1, m_2)`` of the
    so step down from ``(x_1, x_2)`` with parameter ``lam``, on a star whose
    centre is the step's bottom entry ``b``: walls ``e^{b - m_1}`` and
    ``e^{m_2 - b}``, and each entry's phase and walls against the top row
    and the reflecting end."""
    return [
        (_wall(1.0), lambda m: stable_exp(2j * lam * m - _exp_wall(m) - _exp_wall(x1 - m))),
        (_wall(-1.0), lambda m: stable_exp(2j * lam * m - _exp_wall(m - x1) - _exp_wall(x2 - m))),
    ]


def so_givental_eval(
    lam,
    x: Sequence[float],
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Rank-one or rank-two eigenfunction by direct pattern quadrature.

    Every so step of the pattern, one per rank, is fused into one
    quadrature: one auxiliary variable at rank one, a 1-D lattice box; four
    at rank two, the first step's middle row ``(m_1, m_2)`` and bottom row
    ``b`` and the second step's middle row ``n``.  Their walls couple each
    only to ``b``: a star contraction with centre ``b``
    (:func:`~toda_whittaker.quadrature._integrate_star`), whose
    ``evaluations`` are its factor values, the four axes' nodes and the
    three walls' distinct differences; ``max_evals`` caps the count.
    Spectral parameters may carry a small imaginary part; the value is even
    under flipping all of them at rank one.
    """
    lam_t, x_t = _checked(lam, x, "so_givental_eval")
    # Each phase is a sum of two parameters, up to sign.
    params = lam_t + tuple(-v for v in lam_t)
    if len(x_t) == 1:
        f = lambda p: stable_exp(_so_step_exponent_rows(list(x_t), [p[:, 0]], [], lam_t[0]))
        return _integrate_truncated(f, _so_box(lam_t, x_t, 1, tol), tol, max_evals, params)
    (x1, x2), (l1, l2) = x_t, lam_t
    m1, m2, b, n = _so_box(lam_t, x_t, 2, tol)
    leaves = _so_middle(l2, x1, x2) + [(_wall(1.0), lambda m: stable_exp(2j * l1 * m - _exp_wall(m)))]
    centre = lambda c: stable_exp(-1j * (l1 + l2) * c - 1j * l2 * (x1 + x2))
    return _integrate_star(centre, leaves, [b, m1, m2, n], tol, max_evals, params)


def so_recursive_eval(
    lam,
    x: Sequence[float],
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Rank-two eigenfunction by one so step over the rank-one closed form
    (rank one falls back to the direct integral).

    The step integrates its middle row ``(m_1, m_2)`` and bottom entry ``b``
    against the closed-form Macdonald factor ``2 K_{2 i lam_1}(2 e^{b/2})``,
    so this is a distinct model from ``so_givental_eval``, which integrates
    the second step too, and serves as a self-consistency oracle for it.
    The walls couple ``m_1`` and ``m_2`` each only to ``b``: a star
    contraction with centre ``b`` carrying the Macdonald factor
    (:func:`~toda_whittaker.quadrature._integrate_star`), whose
    ``evaluations`` are its factor values, the three axes' nodes (one
    Macdonald value per node of ``b``) and the two walls' distinct
    differences; ``max_evals`` caps the count.
    """
    lam_t, x_t = _checked(lam, x, "so_recursive_eval")
    if len(x_t) == 1:
        return so_givental_eval(lam_t, x_t, tol, max_evals)
    (x1, x2), (l1, l2), budget = x_t, lam_t, _quadrature_budget(tol)
    m1, m2, b = _so_box(lam_t, x_t, 1, tol)

    def centre(c: np.ndarray) -> np.ndarray:
        return stable_exp(-1j * l2 * c - 1j * l2 * (x1 + x2)) * _closed_form_so3_batch(l1, c, budget)

    return _integrate_star(centre, _so_middle(l2, x1, x2), [b, m1, m2], tol, max_evals,
                           lam_t + tuple(-v for v in lam_t))


def so_baxter_eigenvalue(gamma: complex, lam) -> complex:
    """Predicted operator eigenvalue: ``prod_i Gamma(i gamma + i lam_i)
    Gamma(i gamma - i lam_i)``."""
    g = complex(gamma)
    zs: list[complex] = []
    for la in _as_lam_tuple(lam):
        zs.append(1j * g + 1j * la)
        zs.append(1j * g - 1j * la)
    return gamma_product(zs)


def _so_baxter_kernel(g: complex, y: float, xs: np.ndarray, budget: AccuracyBudget, lam=None) -> np.ndarray:
    """``Q(y, x)`` of :func:`so_baxter_apply` at ``xs``: ``e^{i g (x + y - t)}``
    times the rank-one eigenfunction at ``g`` and ``t = log(e^x + e^y)``; with
    ``lam``, also times the eigenfunction at ``lam`` and ``xs``, both Macdonald
    factors from one kernel call (one set-up)."""
    t = np.logaddexp(xs, y)
    if lam is None:
        return stable_exp(1j * g * (xs + y - t)) * _closed_form_so3_batch(g, t, budget)
    orders = np.repeat([2j * complex(g), 2j * complex(lam)], xs.size)
    k = 2.0 * _macdonald_pairs(orders, np.concatenate([_so3_argument(t), _so3_argument(xs)]), budget)
    return stable_exp(1j * g * (xs + y - t)) * k[:xs.size] * k[xs.size:]


def so_baxter_apply(
    gamma: complex,
    lam,
    y: Sequence[float],
    tol: float = 1e-8,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Apply the rank-one integral operator to the rank-one eigenfunction.

    The kernel is the so step from ``[y]`` to ``[x]`` with the middle row
    ``[z_0, z_1]``, over ``Gamma(2 i gamma)`` so that the expected
    eigenvalue is ``so_baxter_eigenvalue(gamma, lam)``.  The middle entries
    couple to the outer rows only, so each integrates in closed form: ``z_1``
    by Euler's integral, ``Gamma(2 i gamma) (e^{-y} + e^{-x})^{-2 i gamma}``,
    and ``z_0`` by DLMF 10.32.10, ``2 s^{i gamma} K_{2 i gamma}(2 sqrt(s))``
    with ``s = e^x + e^y``.  That leaves ``Q(y, x) = 2 e^{i gamma (x + y)}
    s^{-i gamma} K_{2 i gamma}(2 sqrt(s))``, integrated over ``x`` against
    the eigenfunction ``2 K_{2 i lam}(2 e^{x/2})``.

    Raises ``ShiftError`` unless ``Re(i gamma +/- i lam) >=``
    ``MIN_SO_SPECTRAL_GAP``: as ``x -> -infinity`` the integrand only decays
    at those rates, so the parameter needs a negative imaginary part.
    """
    lam_t, y_t = _as_lam_tuple(lam), tuple(float(v) for v in y)
    if len(y_t) != 1 or len(lam_t) != 1:
        raise RankError("so_baxter_apply supports exactly one variable")
    g, (la,), (yv,) = complex(gamma), lam_t, y_t
    rate_p, rate_m = (1j * g + 1j * la).real, (1j * g - 1j * la).real
    if min(rate_p, rate_m) < MIN_SO_SPECTRAL_GAP:
        raise ShiftError(
            f"decay rates ({rate_p:.4f}, {rate_m:.4f}) below the minimum "
            f"{MIN_SO_SPECTRAL_GAP}; lower Im(gamma)"
        )
    # Above, the two Macdonald factors make the wall exp(-4 e^{x/2}); below
    # 0 and y the integrand decays at the slower of the two rates.
    hi = _wall_reach(tol, 2, (g, la), 0.5, math.log(4.0))
    lo = min(0.0, yv) - _rate_reach(tol, 2, min(rate_p, rate_m))
    budget = _quadrature_budget(tol)

    def f(p: np.ndarray) -> np.ndarray:
        return _so_baxter_kernel(g, yv, p[:, 0], budget, la)

    return _integrate_truncated(f, [(lo, hi)], tol, max_evals, (g, la, -g, -la))


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
