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
# below it.  A block's points (_BLOCK at most) are grouped by path and by whether the
# order is imaginary (then the integrand is real, in real arithmetic).  On the real
# axis the trapezoid's error is known (Poisson summation; Trefethen and Weideman,
# SIAM Review 56, 2014): the rule of step h is K_nu(y) plus the aliases
# K_{nu - 2 pi i m / h}(y), m != 0, each at most e^{-theta |Im|} K_{Re nu}(y cos theta)
# on the path Im t = theta.  That bound sets each point's step, one integrand call
# evaluates all points' nodes, and the bound certifies each sum relative to max(|S|,
# envelope); a point that fails halves on.  The saddle paths' nested rule (trapezoid on
# even integrands, Fejer's second rule on finite ones) halves a piece's points in one
# loop (one integrand call a level) to |dS| <= rel_tol max(|S|, envelope) + 50 eps int|f| + abs_floor.

_MAX_RE_ORDER = 50.0
_EPS = float(np.finfo(float).eps)
_HALF_PI = 0.5 * math.pi
_SIGMA_CAP = 0.9
_MAX_LEVEL = 4096  # finest rule, in intervals
_LEVELS = 2 ** np.minimum(np.arange(4, 14), 12)  # start levels, 16 to _MAX_LEVEL
_BLOCK = 4096  # points integrated together
_UNDERFLOW = -760.0  # real-axis log peaks below this give K = 0


@lru_cache(maxsize=None)
def _rule(kind: str, n: int):
    """The n-interval rule's nodes on [0, 1], weights (none for the trapezoid, whose
    rows keep sums) and slices of the nodes shared with the n/2 rule and of the new."""
    if kind == "trapezoid":
        return np.arange(n + 1) / n, None, slice(0, None, 2), slice(1, None, 2)
    theta = np.arange(1, n) * (math.pi / n)  # Fejer's second rule
    j = np.arange(1, n, 2)
    w = (2.0 / n) * np.sin(theta) * (np.sin(np.outer(theta, j)) / j).sum(axis=1)
    return 0.5 * (1.0 - np.cos(theta)), w, slice(1, None, 2), slice(0, None, 2)


def _call(f, blocks):
    """f at each block's nodes (rows, offsets of shape (rows, nodes)) in one call:
    a lone block broadcasts its rows, two are flattened to a row per node."""
    if len(blocks) == 1:
        return [f(blocks[0][0][:, None], blocks[0][1])]
    (r0, u0), (r1, u1) = blocks
    out = f(np.concatenate([np.repeat(r0, u0.shape[1]), np.repeat(r1, u1.shape[1])]),
            np.concatenate([u0.ravel(), u1.ravel()]))
    return [out[:u0.size].reshape(u0.shape), out[u0.size:].reshape(u1.shape)]


def _nested(kind, f, width, start, envelope, budget: AccuracyBudget):
    """Integrals of f and |f| over [0, width_i], from start_i intervals on, in one
    halving loop; f(r, u) is the integrand of rows r at offsets u.  A trapezoid
    row keeps the sums of its values and moduli, a Fejer row its values.  A row
    stops once it converges, relative to the larger of |S| and its envelope; its
    value depends on its own integrand only."""
    est, mass = np.empty(width.size, dtype=complex), np.empty(width.size)
    levels = sorted(set(start.tolist()), reverse=True)  # start levels to come, next last
    single, trapezoid = len(levels) == 1, kind == "trapezoid"
    # The open rows: indices, widths and last estimates, then a trapezoid row's
    # sums of values and moduli or a Fejer row's values; None while none is open.
    rows = wide = prev = sums = moduli = vals = None

    def cat(a, b):  # the open rows' a, then the joining rows' b
        return b if a is None else np.concatenate([a, b])

    while rows is not None or levels:
        n = levels[-1] if rows is None else 2 * n
        if n > _MAX_LEVEL:
            raise ConvergenceError(f"macdonald_k did not converge ({rows.size} point(s))")
        x, w, old, new = _rule(kind, n)
        blocks, join = [] if rows is None else [(rows, wide[:, None] * x[new])], None
        if levels and levels[-1] == n:
            levels.pop()
            join = np.arange(width.size) if single else np.flatnonzero(start == n)
            blocks.append((join, width[join][:, None] * x))
        got = _call(f, blocks)
        if rows is not None and trapezoid:
            sums, moduli = sums + got[0].sum(axis=1), moduli + np.abs(got[0]).sum(axis=1)
        elif rows is not None:
            merged = np.empty((rows.size, x.size), dtype=got[0].dtype)
            merged[:, old], merged[:, new] = vals, got[0]
            vals = merged
        if join is not None:  # the rows starting here compare with the n/2 rule
            v, wj = got[-1], width[join]
            if trapezoid:  # end nodes at half weight
                v[:, ::n] *= 0.5
                prev = cat(prev, v[:, old].sum(axis=1) * (2.0 / n) * wj)
                sums, moduli = cat(sums, v.sum(axis=1)), cat(moduli, np.abs(v).sum(axis=1))
            else:
                prev = cat(prev, np.einsum("ij,j->i", v[:, old], _rule(kind, n // 2)[1]) * wj)
                vals = cat(vals, v)
            rows, wide = cat(rows, join), cat(wide, wj)
        if trapezoid:
            step = wide / n
            cur, absint = sums * step, moduli * step
        else:  # einsum, not BLAS: a BLAS product's bits depend on the other rows
            cur = np.einsum("ij,j->i", vals, w) * wide
            absint = np.einsum("ij,j->i", np.abs(vals), w) * wide
        size = np.maximum(np.abs(cur), envelope[rows])
        ok = np.abs(cur - prev) <= (budget.rel_tol * size + 50.0 * _EPS * absint
                                    + budget.abs_floor)
        est[rows], mass[rows], left = cur, absint, ~ok  # open rows write again later
        closed = ok.all()
        rows, wide, prev, sums, moduli, vals = (
            None if closed or part is None else part[left]
            for part in (rows, wide, cur, sums, moduli, vals))
    return est, mass


def _intervals(estimate):
    """The power of two from 16 to _MAX_LEVEL at or above an estimate.  The
    estimates of the paths only choose where halving starts (fewer levels,
    fewer calls); every value still passes the convergence test."""
    return _LEVELS[_LEVELS[:-1].searchsorted(estimate)]


def _half_angle(x):
    """h = 2 / (1 + t^2) and t = tan x: cos 2x = h - 1 and sin 2x = t h within a
    few eps (numpy vectorizes tan; its cos and sin of doubles are scalar loops)."""
    t = np.tan(x)
    return 2.0 / (1.0 + t * t), t


def _values(s, base, half, p, v=None, dv=None):
    """(1/2) e^{ipv} [e^{base + ps} z + e^{base - ps} conj z], z = e^{2i half} t',
    where base + 2i half is phi at order i a, less the scale, at t = s + iv.
    At imaginary order (p is None) the values are real: e^base Re z."""
    h, t = _half_angle(half)
    if p is None:
        return np.exp(base) * (h - 1.0 if dv is None else h - 1.0 - t * h * dv)
    zr, zi = (h - 1.0, t * h) if dv is None else (h - 1.0 - t * h * dv, t * h + (h - 1.0) * dv)
    plus, minus = np.exp(base + p * s), np.exp(base - p * s)
    gr, gi = 0.5 * (plus + minus) * zr, 0.5 * (plus - minus) * zi
    g = np.empty(gr.shape, dtype=complex)
    if v is None:
        g.real, g.imag = gr, gi
    else:
        h, t = _half_angle(0.5 * p * v)
        g.real, g.imag = gr * (h - 1.0) - gi * t * h, gr * t * h + gi * (h - 1.0)
    return g


def _cutoff(y, big_p, scale, depth, cplx):
    """Where e^{-y cosh s + |p| s} is e^{depth} below e^{scale}: the root of s =
    arccosh(c + k s), c = (depth - scale) / y, k = |p| / y.  Two Newton steps on
    that convex equation from above it end above it, by less than 3 percent."""
    c = (depth - scale) / y
    t = np.arccosh(np.maximum(c, 1.0))
    if cplx:
        k = big_p / y
        t = 2.0 * (t + np.arcsinh(k) + 1.0)
        for _ in range(2):
            z = np.maximum(c + k * t, 1.0)
            t = t - (t - np.arccosh(z)) / (1.0 - k / np.sqrt(z * z - 1.0))
    return t


def _envelope(p, a, y, scale):
    """sqrt(2 pi / |nu|) e^{-pi a / 2}, less the scale, where y < a and K
    oscillates (accuracy is relative to it there); 0 elsewhere."""
    osc = a > y
    if not osc.any():
        return np.zeros(a.size)
    power = np.where(osc, -_HALF_PI * a - scale, -np.inf)
    return np.sqrt(2.0 * math.pi / np.hypot(p, np.maximum(a, y))) * np.exp(power)


def _aliasing(q, a, y, top, peak, width, rel, cplx):
    """Intervals n on [0, width] for the trapezoid sum of K_nu(y), nu = +-q + i a,
    and a bound on its error, the aliases' and the cut tail's, in units of e^peak;
    n puts the bound at rel |S| / 8 for the a priori |S| >= (width - top) / 32."""
    big_l = 6.0 - math.log(rel)  # near-best shift theta: sin = sqrt(2 L / y) if below 1, cos^2 >= floor
    floor = (q * q + 1.0) / (q * q + 1.0 + (big_l / 1.5) ** 2) if cplx else (1.5 / big_l) ** 2
    cos = np.sqrt(np.maximum(1.0 - 2.0 * big_l / y, floor))
    theta, big_y = np.arccos(cos), y * cos
    # 2 cosh(a theta) K_q(Y) <= 2 e^{a theta + max psi} (t_R + 1), psi = q t - Y cosh t, psi'(t_R) = -1
    log_k = np.log(np.arcsinh((q + 1.0) / big_y) + 1.0) - np.hypot(q, big_y) + (a * theta - peak)
    if cplx:
        log_k += q * np.arcsinh(q / big_y)
    n = np.ceil(width * (log_k + math.log(512.0 / rel) - np.log(width - top)) / (2.0 * math.pi * theta))
    tail = (2.0 * math.exp(-8.0) * rel) * width  # 2 width e^{-depth}: the integral and nodes cut
    return n.astype(np.intp), 2.0 * np.exp(log_k) / np.expm1((2.0 * math.pi) * theta * n / width) + tail


def _real_axis(p, a, y, top, peak, depth, budget, cplx):
    """Every point's trapezoid sum on s >= 0 from one integrand call.  On the whole
    line the rule of step h = 2 pi / w is K_nu(y) + sum_{m != 0} K_{nu - i m w}(y),
    and |K_{q + ib}(y)| <= e^{-|b| theta} K_q(y cos theta) for 0 <= theta < pi/2, so
    the aliases sum to at most 2 cosh(a theta) K_q(y cos theta) / (e^{w theta} - 1);
    _aliasing bounds K_q and sets each point's n.  Point i's nodes j width_i / n_i,
    j < n_i, are a ragged row of one flat array, summed alone (np.add.reduceat); a
    sum whose bound exceeds rel_tol max(|S|, envelope) + abs_floor halves on."""
    big_p, half_a, y2 = np.abs(p), 0.5 * a, -2.0 * y  # e^{-y cosh s + |p| s} peaks at s = top

    def f(r, s):
        if cplx:
            t = top[r]
            base = y2[r] * np.sinh(0.5 * (s + t)) * np.sinh(0.5 * (s - t)) - big_p[r] * t
            return _values(s, base, half_a[r] * s, p[r])
        half = np.sinh(0.5 * s)  # the peak is at 0
        return _values(s, y2[r] * half * half, half_a[r] * s, None)

    width, envelope = _cutoff(y, big_p, peak, depth + _HALF_PI * a, cplx), _envelope(p, a, y, peak)
    n, bound = _aliasing(big_p, a, y, top, peak, width, budget.rel_tol, cplx)
    starts, rows, step = np.cumsum(n) - n, np.repeat(np.arange(n.size), n), width / n
    v = f(rows, (np.arange(rows.size) - starts[rows]) * step[rows])
    v[starts] *= 0.5  # the node at width is past the cutoff and left out
    est, mass = np.add.reduceat(v, starts) * step, np.add.reduceat(np.abs(v), starts) * step
    fail = np.flatnonzero(bound > budget.rel_tol * np.maximum(np.abs(est), envelope) + budget.abs_floor)
    if fail.size:
        est = est.astype(complex)  # as the nested rule's sums are
        est[fail], mass[fail] = _nested("trapezoid", lambda r, s: f(fail[r], s), width[fail],
                                        _intervals(2 * n[fail]), envelope[fail], budget)
    return est, mass, peak, envelope


def _one_saddle(p, a, y, top, peak, depth, budget, cplx):
    sigma = np.minimum(a / y, _SIGMA_CAP)
    theta, height = np.arcsin(sigma), y * np.sqrt((1.0 - sigma) * (1.0 + sigma))
    scale, turn = np.maximum(-height - a * theta, peak), 0.5 * (a - y * sigma)

    def f(r, s):
        sg, yr, sh, ch = sigma[r], y[r], np.sinh(s), np.cosh(s)
        safe = np.where(s > 0.0, sh, 1.0)  # s / sinh s is 1 at s = 0
        q = sg * np.where(s > 0.0, s / safe, 1.0)  # sin v
        cv, v = np.sqrt((1.0 - q) * (1.0 + q)), np.arcsin(q)
        dv = sg * ((sh - s * ch) / (safe * safe)) / cv
        base = -yr * ch * cv - a[r] * v - scale[r]
        return _values(s, base, s * turn[r], p[r] if cplx else None, v, dv)

    width, envelope = _cutoff(height, np.abs(p), scale, depth, cplx), _envelope(p, a, y, scale)
    return _nested("trapezoid", f, width, np.full(a.size, 32), envelope, budget) + (scale, envelope)


def _two_saddles(p, a, y, top, peak, depth, budget, cplx):
    big_p, mu = np.abs(p), np.arccosh(a / y)
    ysh = np.sqrt((a - y) * (a + y))  # y sinh(mu)
    half = 0.5 * (a * mu - ysh)  # Im phi / 2 along the descent path
    scale, half_a, half_y = big_p * mu - _HALF_PI * a, 0.5 * a, 0.5 * y
    low = -big_p * mu  # Re phi less the scale on the line Im t = pi/2

    def line(r, s):
        phase = half_a[r] * s - half_y[r] * np.sinh(s)
        return _values(s, low[r], phase, p[r] if cplx else None, _HALF_PI)

    def descent(r, w):
        ar, yr, big, s = a[r], y[r], ysh[r], mu[r] + w
        sq, ys, ych, sinh_w = np.sinh(0.5 * w) ** 2, yr * np.sinh(s), yr * np.cosh(s), np.sinh(w)
        delta = (2.0 * big * sq + ar * (sinh_w - w)) / ys  # 1 - sin v
        cv = np.sqrt(delta * (2.0 - delta))
        drop = 2.0 * np.arcsin(np.sqrt(0.5 * delta))  # pi/2 - v
        dv = (delta * ych - 2.0 * ar * sq - big * sinh_w) / (ys * cv)
        base = ar * drop - ych * cv + low[r]
        return _values(s, base, half[r], p[r] if cplx else None, _HALF_PI - drop, dv)

    envelope = _envelope(p, a, y, scale)
    s1, m1 = _nested("fejer", line, mu, _intervals(1.5 * (a - y) * mu + 24.0), envelope, budget)
    width = _cutoff(y, big_p, scale, depth, cplx) - mu
    s2, m2 = _nested("fejer", descent, width, np.full(a.size, 64), envelope, budget)
    return s1 + s2, m1 + m2, scale, envelope


def _macdonald(nu, y, budget: AccuracyBudget) -> np.ndarray:
    """K_{nu_i}(y_i) for broadcastable arrays of orders and positive arguments."""
    nu, y = np.asarray(nu, dtype=complex), np.asarray(y, dtype=float)
    if nu.shape != y.shape:
        nu, y = np.broadcast_arrays(nu, y)
    if not ((y > 0.0).all() and np.isfinite(nu).all()):
        raise ValueError("macdonald_k requires finite orders and y > 0 (or y = inf)")
    out, flat_nu, flat_y = np.empty(y.size, dtype=complex), nu.ravel(), y.ravel()
    for lo in range(0, y.size, _BLOCK):
        out[lo:lo + _BLOCK] = _macdonald_block(
            flat_nu[lo:lo + _BLOCK], flat_y[lo:lo + _BLOCK], budget)
    return out.reshape(y.shape)


def _fold_orders(nu: np.ndarray) -> np.ndarray:
    """Each order as the one of ``nu``, ``-nu`` with ``Im >= 0``: K is even in
    its order (DLMF 10.27.3), and the kernel sees only the folded order, so
    ``K_nu`` and ``K_-nu`` are the same bits."""
    return np.where(nu.imag < 0.0, -nu, nu)


def _macdonald_block(nu: np.ndarray, y: np.ndarray, budget: AccuracyBudget) -> np.ndarray:
    folded = _fold_orders(nu)
    p, a, big_p = folded.real + 0.0, np.abs(folded.imag), np.abs(folded.real)
    top = np.arcsinh(big_p / y)
    peak = big_p * top - y * np.cosh(top)
    # twice the path (0 real axis, 1 one saddle, 2 two saddles, 3 K is 0), plus 1 if p != 0
    saddles = np.add(a > 1.0, a > np.maximum(1.1 * y, 1.0), dtype=np.int8)
    group = np.where(peak < _UNDERFLOW, 6, 2 * saddles + (p != 0.0))
    groups, depth = np.flatnonzero(np.bincount(group)).tolist(), 8.0 - math.log(budget.rel_tol)
    est, mass, scale, envelope = np.zeros(y.size, dtype=complex), *np.zeros((3, y.size))
    for g in groups[:-1] if groups[-1] == 6 else groups:
        i = np.flatnonzero(group == g) if len(groups) > 1 else slice(None)
        est[i], mass[i], scale[i], envelope[i] = (_real_axis, _one_saddle, _two_saddles)[g // 2](
            p[i], a[i], y[i], top[i], peak[i], depth, budget, g % 2)
    reach = budget.rel_tol * np.maximum(np.abs(est), envelope)
    with np.errstate(over="ignore", invalid="ignore"):
        out = est * np.exp(scale)
    ok = (50.0 * _EPS * mass <= reach + budget.abs_floor) & np.isfinite(out)
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        raise ConvergenceError(f"macdonald_k cannot reach relative accuracy {budget.rel_tol} "
                               f"at order {complex(nu[j])!r}, y = {float(y[j])!r}")
    return out  # real at imaginary order: those integrands are carried in real arithmetic


def _macdonald_grid(nu: complex, y: np.ndarray, budget: AccuracyBudget) -> np.ndarray:
    """K_nu(y_i) for one order and a 1-D array of positive arguments, once per
    distinct argument (rows of a lattice in the relative coordinate share them):
    ``np.unique`` deduplicates them unless they already increase strictly, as a
    single argument does and the differences of two tensor axes' nodes do (see
    :func:`~toda_whittaker.quadrature._axis_differences`)."""
    if (y[1:] > y[:-1]).all():
        return _macdonald(np.full(y.shape, complex(nu)), y, budget)
    values, inverse = np.unique(y, return_inverse=True)
    return _macdonald(np.full(values.shape, complex(nu)), values, budget)[inverse]


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
        Argument, strictly positive (K is 0 at y = inf).
    budget : AccuracyBudget
        Requested accuracy.

    Raises
    ------
    ValueError
        If ``nu`` is not finite, or ``y`` is NaN or not positive.
    ConvergenceError
        If ``|Re nu| > 50``, or cancellation or overflow puts that accuracy
        out of reach (no less accurate value is returned).
    """
    nu = complex(nu)
    y = float(y)
    if not (y > 0.0 and cmath.isfinite(nu)):
        raise ValueError(f"macdonald_k requires a finite order and y > 0, got {nu!r}, {y!r}")
    if abs(nu.real) > _MAX_RE_ORDER:
        raise ConvergenceError(
            f"macdonald_k supports |Re nu| <= {_MAX_RE_ORDER}, got Re nu = {nu.real}"
        )
    return complex(_macdonald_block(np.array([nu]), np.array([y]), budget)[0])
