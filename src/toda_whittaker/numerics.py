"""Scalar special-function layer: complex log-gamma, overflow-safe Gamma
products, and the Macdonald function (modified Bessel function of the second
kind, standard normalization).

Everything downstream — quadrature integrands, Whittaker evaluators, Baxter
eigenvalues, L-factors — reduces to these primitives, so they are written to be
dependable over large complex ranges.  Vectorized variants (numpy arrays in,
arrays out) are provided for the integrand hot paths; the scalar entry points
add the full argument validation.

Accuracy contract of the Macdonald function: for |Re nu| <= 50 and
|Im nu| <= 50 a returned value is within the budget's ``rel_tol`` of K_nu(y)
relative to |K_nu(y)| (relative to the envelope sqrt(2 pi/|nu|) e^{-pi |Im nu|/2}
where y < |Im nu| and K oscillates).  Where that cannot be reached —
cancellation, overflow, or a quadrature that does not settle — it raises
:class:`ConvergenceError`; it never returns a less accurate value as if it were
converged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, PoleError

__all__ = [
    "AccuracyBudget",
    "log_gamma",
    "gamma_product",
    "macdonald_k",
]

# ---------------------------------------------------------------------------
# Accuracy budget


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy request for scalar special-function evaluation.

    Parameters
    ----------
    rel_tol : float
        Target relative accuracy, strictly between 0 and 1.
    abs_floor : float
        Floor of the Macdonald quadrature's convergence test, in units of
        the peak of the integrand: changes below it count as converged.
    """

    rel_tol: float = 1e-12
    abs_floor: float = 1e-280

    def __post_init__(self) -> None:
        if not (0.0 < float(self.rel_tol) < 1.0):
            raise ValueError(f"rel_tol must lie strictly in (0, 1), got {self.rel_tol}")
        if float(self.abs_floor) < 0.0:
            raise ValueError(f"abs_floor must be >= 0, got {self.abs_floor}")


_DEFAULT_BUDGET = AccuracyBudget()


def _quadrature_budget(tol: float) -> AccuracyBudget:
    """Special-function accuracy matched to an absolute quadrature tolerance:
    full precision for tight tolerances, relaxed for exploratory ones."""
    return AccuracyBudget(rel_tol=min(1e-7, max(0.02 * tol, 1e-13)))


# ---------------------------------------------------------------------------
# log-gamma: Lanczos approximation (g = 7, 9 coefficients) plus reflection.

_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_TWO = math.log(2.0)
_POLE_TOL = 1e-12


def _lanczos_log_gamma(z: complex) -> complex:
    # Valid (and accurate) for Re z >= 0.5.
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, 9):
        acc += _LANCZOS_COEFFS[k] / (w + k)
    t = w + 7.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sin_pi_upper(z: complex) -> complex:
    # Branch-continuous log sin(pi z) for Im z >= 0: real on (0, 1) and
    # analytic across every vertical strip, so the reflection formula below
    # reproduces the principal branch of log-gamma (not just its exponential).
    # |e^{2 pi i z}| <= 1 on the closed upper half-plane, so nothing overflows.
    w = cmath.exp(2j * math.pi * z)
    return -1j * math.pi * z + 0.5j * math.pi - _LOG_TWO + cmath.log(1.0 - w)


def log_gamma(z: complex) -> complex:
    """Principal branch of the log-Gamma function.

    Raises
    ------
    PoleError
        If ``z`` lies within 1e-12 of a non-positive integer.
    """
    z = complex(z)
    n = round(z.real)
    if n <= 0 and abs(z - n) <= _POLE_TOL:
        raise PoleError(f"log_gamma pole at z={z!r} (non-positive integer {n})")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    return _LOG_PI - _log_sin_pi_upper(z) - _lanczos_log_gamma(1.0 - z)


def log_gamma_array(z: np.ndarray) -> np.ndarray:
    """Vectorized principal-branch log-Gamma for integrand hot paths.

    No pole checking: points at poles produce ``inf``/``nan`` entries, which
    well-posed contours never hit. Input is any array-like of complex numbers.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    lower = z.imag < 0.0
    zu = np.where(lower, np.conj(z), z)

    right = zu.real >= 0.5
    # Right half-plane: Lanczos directly.
    zr = np.where(right, zu, 1.0 - zu)  # both branches need a Re >= 0.5 input
    w = zr - 1.0
    acc = np.full(zr.shape, _LANCZOS_COEFFS[0], dtype=complex)
    for k in range(1, 9):
        acc += _LANCZOS_COEFFS[k] / (w + k)
    t = w + 7.5
    lg_right = _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)

    # Left half-plane via reflection with the branch-continuous log-sin.
    ex = np.exp(2j * math.pi * zu)
    log_sin = -1j * math.pi * zu + 0.5j * math.pi - _LOG_TWO + np.log(1.0 - ex)
    lg_left = _LOG_PI - log_sin - lg_right

    out = np.where(right, lg_right, lg_left)
    return np.where(lower, np.conj(out), out)


def _exp_sorted_sum(logs: Sequence[complex]) -> complex:
    """``exp`` of the sum of ``logs``, added in value order (by real, then
    imaginary part), so the result is bit-for-bit invariant under
    permutations of ``logs``."""
    total = 0j
    for v in sorted(logs, key=lambda v: (v.real, v.imag)):
        total += v
    return cmath.exp(total)


def gamma_product(zs: Sequence[complex]) -> complex:
    """Product of Gamma values, accumulated in log space.

    The log terms are summed in a sorted (value-ordered) sequence, so the
    result is bit-for-bit invariant under permutations of the input.

    Raises
    ------
    PoleError
        If any factor sits at a pole; ``index`` identifies which.
    """
    logs = []
    for idx, z in enumerate(zs):
        try:
            logs.append(log_gamma(z))
        except PoleError as exc:
            raise PoleError(
                f"gamma_product factor {idx} at z={complex(z)!r} is a pole", index=idx
            ) from exc
    return _exp_sorted_sum(logs)


# ---------------------------------------------------------------------------
# Macdonald function K_nu(y) = (1/2) int_R e^{phi(t)} dt, phi(t) = -y cosh t + nu t.
#
# One kernel serves every entry point.  K is even in nu, so each order is folded
# to a = Im nu >= 0.  Each point integrates along a path t = s + i v(s) with v
# even, so the halves s < 0 and s > 0 fold into one integrand on s >= 0 (the
# average of the path integrands of nu and -conj(nu)).  As in Gil, Segura and
# Temme (ACM TOMS 30, 2004, Algorithm 831), the path keeps clear of the
# e^{pi a/2} cancellation on the real axis: it is the real axis for a <= 1; the
# steepest-descent path sin v = sigma s / sinh s through the saddle i arcsin(sigma),
# sigma = min(a / y, 0.9), for a <= 1.1 y; otherwise the line Im t = pi/2 up to
# the saddle mu + i pi/2 (cosh mu = a / y), then the steepest-descent path
# Im phi = const.  The integrand is scaled by its peak and cut off rel_tol e^{-8}
# below it; a nested rule per piece (trapezoid on even integrands, Fejer's second
# rule on finite ones) halves its step until, point by point,
# |dS| <= rel_tol |S| + 50 eps int|f| + abs_floor.  A call's points are
# integrated in blocks of _BLOCK, grouped by path and by whether the order is
# imaginary; there the integrand is real and is carried in real arithmetic.

_MAX_RE_ORDER = 50.0
_EPS = float(np.finfo(float).eps)
_HALF_PI = 0.5 * math.pi
_SIGMA_CAP = 0.9
_MAX_LEVEL = 4096  # finest rule, in intervals
_BLOCK = 4096  # points integrated together
_UNDERFLOW = -760.0  # real-axis log peaks below this give K = 0


@lru_cache(maxsize=None)
def _rule(kind: str, n: int):
    """Nodes on [0, 1] and weights of the n-interval rule, and the slices of its
    nodes shared with the n/2 rule and of its new ones."""
    if kind == "trapezoid":
        w = np.full(n + 1, 1.0 / n)
        w[0] = w[-1] = 0.5 / n
        return np.arange(n + 1) / n, w, slice(0, None, 2), slice(1, None, 2)
    theta = np.arange(1, n) * (math.pi / n)  # Fejer's second rule
    j = np.arange(1, n, 2)
    w = (2.0 / n) * np.sin(theta) * (np.sin(np.outer(theta, j)) / j).sum(axis=1)
    return 0.5 * (1.0 - np.cos(theta)), w, slice(1, None, 2), slice(0, None, 2)


def _nested(kind: str, f, width, start, envelope, budget: AccuracyBudget):
    """Integrals of f and |f| over [0, width_i], from start_i intervals on;
    f(rows, u) is the integrand of those rows at offsets u.  A row stops once it
    converges, relative to the larger of |S| and its envelope; its value
    depends on its own integrand only."""
    est, mass = np.empty(width.size, dtype=complex), np.empty(width.size)
    for n in sorted(set(start.tolist())):
        rows = np.flatnonzero(start == n)
        wide = width[rows]
        x, w, old, _ = _rule(kind, n)
        vals = f(rows, wide[:, None] * x)
        prev = (vals[:, old] * _rule(kind, n // 2)[1]).sum(axis=1) * wide
        cur = (vals * w).sum(axis=1) * wide
        absint = (np.abs(vals) * w).sum(axis=1) * wide
        while True:
            size = np.maximum(np.abs(cur), envelope[rows])
            ok = np.abs(cur - prev) <= (budget.rel_tol * size + 50.0 * _EPS * absint
                                        + budget.abs_floor)
            done = rows[ok]
            est[done], mass[done] = cur[ok], absint[ok]
            if done.size == rows.size:
                break
            left = ~ok
            rows, wide, prev, absint, n = rows[left], wide[left], cur[left], absint[left], 2 * n
            if n > _MAX_LEVEL:
                raise ConvergenceError(f"macdonald_k did not converge ({rows.size} point(s))")
            x, w, old, new = _rule(kind, n)
            fresh = f(rows, wide[:, None] * x[new])
            if kind == "trapezoid":  # the old nodes keep half their weight
                step = wide / n
                cur = 0.5 * prev + fresh.sum(axis=1) * step
                absint = 0.5 * absint + np.abs(fresh).sum(axis=1) * step
            else:
                merged = np.empty((rows.size, x.size), dtype=vals.dtype)
                merged[:, old], merged[:, new] = vals[left], fresh
                vals = merged
                cur = (vals * w).sum(axis=1) * wide
                absint = (np.abs(vals) * w).sum(axis=1) * wide
    return est, mass


def _intervals(estimate):
    """The power of two from 16 to _MAX_LEVEL at or above an estimate.  The
    estimates of the paths only choose where halving starts (fewer levels,
    fewer calls); every value still passes the convergence test."""
    return 2 ** np.ceil(np.log2(np.clip(estimate, 16, _MAX_LEVEL))).astype(int)


def _values(s, base, phase, p, v=None, dv=None):
    """(1/2) e^{ipv} [e^{base + ps} z + e^{base - ps} conj z], z = e^{i phase} t',
    where base + i phase is phi at order i a, less the scale, at t = s + iv.
    Where every p is 0 (imaginary order) the values are real: e^base Re z."""
    cos = np.cos(phase)
    if not p.any():
        return np.exp(base) * (cos if dv is None else cos - np.sin(phase) * dv)
    sin = np.sin(phase)
    zr, zi = (cos, sin) if dv is None else (cos - sin * dv, sin + cos * dv)
    plus, minus = np.exp(base + p * s), np.exp(base - p * s)
    gr, gi = 0.5 * (plus + minus) * zr, 0.5 * (plus - minus) * zi
    g = np.empty(gr.shape, dtype=complex)
    if v is None:
        g.real, g.imag = gr, gi
    else:
        cv, sv = np.cos(p * v), np.sin(p * v)
        g.real, g.imag = gr * cv - gi * sv, gr * sv + gi * cv
    return g


def _cutoff(y, big_p, scale, depth):
    """Where e^{-y cosh s + |p| s} is e^{depth} below e^{scale} (from above)."""
    t = np.arccosh(np.maximum((depth - scale) / y, 1.0))
    if big_p.any():
        t = 2.0 * (t + np.arcsinh(big_p / y) + 1.0)
        for _ in range(12):
            t = np.arccosh(np.maximum((depth - scale + big_p * t) / y, 1.0))
    return t


def _envelope(p, a, y, scale):
    """sqrt(2 pi / |nu|) e^{-pi a / 2}, less the scale, where y < a and K
    oscillates (accuracy is relative to it there); 0 elsewhere."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        size = np.sqrt(2.0 * math.pi / np.hypot(p, a)) * np.exp(-_HALF_PI * a - scale)
    return np.where(a > y, size, 0.0)


def _real_axis(p, a, y, depth, budget):
    big_p = np.abs(p)
    top = np.arcsinh(big_p / y)  # the peak of e^{-y cosh s + |p| s}
    scale = big_p * top - y * np.cosh(top)

    def f(r, s):
        if p.any():
            t = top[r, None]
            base = -2.0 * y[r, None] * np.sinh(0.5 * (s + t)) * np.sinh(0.5 * (s - t))
            base -= big_p[r, None] * t
        else:  # the peak is at 0
            half = np.sinh(0.5 * s)
            base = -2.0 * y[r, None] * half * half
        return _values(s, base, a[r, None] * s, p[r, None])

    width = _cutoff(y, big_p, scale, depth + _HALF_PI * a)
    start = _intervals(width * depth / 6.0)
    return _nested("trapezoid", f, width, start, _envelope(p, a, y, scale), budget) + (scale,)


def _one_saddle(p, a, y, depth, budget):
    sigma = np.minimum(a / y, _SIGMA_CAP)
    theta, height = np.arcsin(sigma), y * np.sqrt((1.0 - sigma) * (1.0 + sigma))
    top = np.arcsinh(np.abs(p) / y)
    scale = np.maximum(-height - a * theta, np.abs(p) * top - y * np.cosh(top))

    def f(r, s):
        sg, yr = sigma[r, None], y[r, None]
        sh = np.sinh(s)
        with np.errstate(invalid="ignore"):
            ratio = np.where(s > 0.0, s / sh, 1.0)
            slope = np.where(s > 0.0, (sh - s * np.cosh(s)) / (sh * sh), 0.0)
        q = sg * ratio  # sin v
        cv, v = np.sqrt((1.0 - q) * (1.0 + q)), np.arcsin(q)
        base = -yr * np.cosh(s) * cv - a[r, None] * v - scale[r, None]
        return _values(s, base, s * (a[r, None] - yr * sg), p[r, None], v, sg * slope / cv)

    width, start = _cutoff(height, np.abs(p), scale, depth), np.full(a.size, 32)
    return _nested("trapezoid", f, width, start, _envelope(p, a, y, scale), budget) + (scale,)


def _two_saddles(p, a, y, depth, budget):
    big_p, mu = np.abs(p), np.arccosh(a / y)
    ysh = np.sqrt((a - y) * (a + y))  # y sinh(mu)
    phase = a * mu - ysh  # Im phi along the descent path
    scale = big_p * mu - _HALF_PI * a
    low = -big_p * mu  # Re phi less the scale on the line Im t = pi/2

    def line(r, s):
        phase_s = a[r, None] * s - y[r, None] * np.sinh(s)
        return _values(s, low[r, None], phase_s, p[r, None], _HALF_PI)

    def descent(r, w):
        ar, yr, big, s = a[r, None], y[r, None], ysh[r, None], mu[r, None] + w
        half, ys, ych, sinh_w = np.sinh(0.5 * w) ** 2, yr * np.sinh(s), yr * np.cosh(s), np.sinh(w)
        delta = (2.0 * big * half + ar * (sinh_w - w)) / ys  # 1 - sin v
        cv = np.sqrt(delta * (2.0 - delta))
        drop = 2.0 * np.arcsin(np.sqrt(0.5 * delta))  # pi/2 - v
        dv = (delta * ych - 2.0 * ar * half - big * sinh_w) / (ys * cv)
        return _values(s, ar * drop - ych * cv + low[r, None], phase[r, None], p[r, None],
                       _HALF_PI - drop, dv)

    envelope = _envelope(p, a, y, scale)
    s1, m1 = _nested("fejer", line, mu, _intervals(1.5 * (a - y) * mu + 24.0), envelope, budget)
    width = _cutoff(y, big_p, scale, depth) - mu
    s2, m2 = _nested("fejer", descent, width, np.full(a.size, 64), envelope, budget)
    return s1 + s2, m1 + m2, scale


def _macdonald(nu, y, budget: AccuracyBudget) -> np.ndarray:
    """K_{nu_i}(y_i) for broadcastable arrays of orders and positive arguments."""
    nu, y = np.broadcast_arrays(np.asarray(nu, dtype=complex), np.asarray(y, dtype=float))
    if np.any(y <= 0.0):
        raise ValueError("macdonald_k requires y > 0")
    out, flat_nu, flat_y = np.empty(y.shape, dtype=complex), nu.ravel(), y.ravel()
    for lo in range(0, y.size, _BLOCK):
        out.flat[lo:lo + _BLOCK] = _macdonald_block(
            flat_nu[lo:lo + _BLOCK], flat_y[lo:lo + _BLOCK], budget)
    return out


def _fold_orders(nu: np.ndarray) -> np.ndarray:
    """Each order as the one of ``nu``, ``-nu`` with ``Im >= 0``: K is even in
    its order (DLMF 10.27.3), and the kernel sees only the folded order, so
    ``K_nu`` and ``K_-nu`` are the same bits."""
    return np.where(nu.imag < 0.0, -nu, nu)


def _macdonald_block(nu: np.ndarray, y: np.ndarray, budget: AccuracyBudget) -> np.ndarray:
    folded = _fold_orders(nu)
    p, a = folded.real + 0.0, np.abs(folded.imag)
    top = np.arcsinh(np.abs(p) / y)
    kind = np.where(a <= 1.0, 0, np.where(a <= 1.1 * y, 1, 2))
    kind[np.abs(p) * top - y * np.cosh(top) < _UNDERFLOW] = 3  # K underflows to 0
    est, mass, scale = np.zeros(y.size, dtype=complex), np.zeros(y.size), np.zeros(y.size)
    depth = 8.0 - math.log(budget.rel_tol)
    group = 2 * kind + (p != 0.0)  # the path, and real integrands apart from complex ones
    for g in sorted(set(group[kind < 3].tolist())):
        i = np.flatnonzero(group == g)
        path = (_real_axis, _one_saddle, _two_saddles)[g // 2]
        est[i], mass[i], scale[i] = path(p[i], a[i], y[i], depth, budget)
    reach = budget.rel_tol * np.maximum(np.abs(est), _envelope(p, a, y, scale))
    with np.errstate(over="ignore", invalid="ignore"):
        out = est * np.exp(scale)
    lost = (50.0 * _EPS * mass > reach + budget.abs_floor) | ~np.isfinite(out)
    if lost.any():
        j = int(np.flatnonzero(lost)[0])
        raise ConvergenceError(f"macdonald_k cannot reach relative accuracy {budget.rel_tol} "
                               f"at order {complex(nu[j])!r}, y = {float(y[j])!r}")
    out.imag[p == 0.0] = 0.0  # real at imaginary order
    return out


def _macdonald_grid(nu: complex, y: np.ndarray, budget: AccuracyBudget) -> np.ndarray:
    """K_nu(y_i) for one order and a 1-D array of positive arguments,
    evaluated once per distinct argument: rows of a lattice in the relative
    coordinate share them.  An integrand on the lattice's tensor axes
    passes one argument per difference of two axes' nodes (see
    :func:`~toda_whittaker.quadrature._axis_differences`), all distinct."""
    values, inverse = np.unique(y, return_inverse=True)
    return _macdonald(complex(nu), values, budget)[inverse]


def _macdonald_pairs(nu: np.ndarray, y, budget: AccuracyBudget) -> np.ndarray:
    """K_{nu_i}(y_i) for broadcastable arrays of orders and positive arguments."""
    return _macdonald(nu, y, budget)


def macdonald_k(nu: complex, y: float, budget: AccuracyBudget = _DEFAULT_BUDGET) -> complex:
    """Macdonald function K_nu(y), standard normalization, complex order.

    For |Re nu| <= 50 and |Im nu| <= 50 the value is within ``budget.rel_tol``
    of K relative to |K|, or, where y < |Im nu| and K oscillates, relative to
    the envelope sqrt(2 pi / |nu|) e^{-pi |Im nu| / 2}.

    Parameters
    ----------
    nu : complex
        Order; ``|Re nu|`` must not exceed 50.
    y : float
        Argument, strictly positive.
    budget : AccuracyBudget
        Requested accuracy.

    Raises
    ------
    ConvergenceError
        If ``|Re nu| > 50``, or cancellation or overflow puts that accuracy
        out of reach (no less accurate value is returned).
    """
    nu = complex(nu)
    y = float(y)
    if y <= 0.0:
        raise ValueError(f"macdonald_k requires y > 0, got {y}")
    if abs(nu.real) > _MAX_RE_ORDER:
        raise ConvergenceError(
            f"macdonald_k supports |Re nu| <= {_MAX_RE_ORDER}, got Re nu = {nu.real}"
        )
    return complex(_macdonald_grid(nu, np.array([y]), budget)[0])
