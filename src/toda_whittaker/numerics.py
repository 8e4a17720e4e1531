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
# One kernel serves every entry point.  K is even in nu, so each order is folded to
# a = Im nu >= 0.  Each point integrates along a path t = s + i v(s) with v even, so the
# halves s < 0 and s > 0 fold into one integrand on s >= 0 (the average of the path
# integrands of nu and -conj(nu)), scaled by its peak and cut off rel_tol e^{-8} below
# it.  The paths keep clear of the e^{pi a/2} cancellation on the real axis (Gil, Segura
# and Temme, ACM TOMS 30, 2004): for a <= max(1.1 y, 1) the line Im t = lift through the
# saddle arcsinh(nu / y) of phi (lift at most arcsin(0.9): the tangent there of their
# one-saddle path); otherwise the line Im t = pi/2 up to the saddle mu + i pi/2 (cosh mu
# = a / y), then its steepest-descent path Im phi = const.  A block's points (_BLOCK at
# most) are grouped by path and by whether the order is imaginary (then the integrand is
# real, in real arithmetic).  Every piece sets each point's node count from an a priori
# bound on its rule's error, evaluates all its points' nodes in one integrand call
# (_flat), and certifies each sum after by that bound relative to max(|S|, envelope); a
# point that fails halves on (_halve).  On a line the trapezoid's error is a sum of
# aliases (Poisson summation; Trefethen and Weideman, SIAM Review 56, 2014); on the
# two-saddle pieces Fejer's second rule's follows from the Bernstein ellipse in which the
# integrand is analytic (Trefethen, SIAM Review 50, 2008).

_MAX_RE_ORDER = 50.0
_EPS = float(np.finfo(float).eps)
_HALF_PI = 0.5 * math.pi
_LIFT_CAP = math.asin(0.9)  # the one-saddle line's height
_RHO = np.array([1.2, 1.5, 2.0, 3.0, 4.5])  # Bernstein ellipses tried
_A, _B = 0.5 * (_RHO + 1.0 / _RHO), 0.5 * (_RHO - 1.0 / _RHO)
_LOG_RHO, _GAIN = np.log(_RHO), math.log(4.3) - np.log1p(-_RHO ** -2.0)
_MAX_LEVEL = 4096  # finest rule, in intervals
_BLOCK = 4096  # points integrated together
_UNDERFLOW = -760.0  # real-axis log peaks below this give K = 0


@lru_cache(maxsize=None)
def _fejer(n: int):  # nodes on [0, 1] and weights of Fejer's second rule of n intervals
    theta, j = np.arange(1, n) * (math.pi / n), np.arange(1, n, 2)
    return 0.5 * (1.0 - np.cos(theta)), (2.0 / n) * np.sin(theta) * (np.sin(np.outer(theta, j)) / j).sum(axis=1)


def _halve(f, width, n, fejer, prev, envelope, budget: AccuracyBudget):
    """The rows whose sums S_n failed their certificate at 2n, 4n, ... intervals (a _flat
    call a level) until |S_2n - S_n| <= rel_tol max(|S_2n|, envelope) + 50 eps int|f| + abs_floor."""
    est, mass, rows = np.empty(n.size, dtype=complex), np.empty(n.size), np.arange(n.size)
    while rows.size:
        n = 2 * n
        if n.max() > _MAX_LEVEL:
            raise ConvergenceError(f"macdonald_k did not converge ({rows.size} point(s))")
        cur, absint = _flat(lambda r, s, rows=rows: f(rows[r], s), width[rows], n, fejer)
        ok = np.abs(cur - prev) <= (budget.rel_tol * np.maximum(np.abs(cur), envelope[rows])
                                    + 50.0 * _EPS * absint + budget.abs_floor)
        est[rows[ok]], mass[rows[ok]] = cur[ok], absint[ok]
        rows, n, prev = rows[~ok], n[~ok], cur[~ok]
    return est, mass


def _half_angle(x):
    """h = 2 / (1 + t^2) and t = tan x: cos 2x = h - 1 and sin 2x = t h within a
    few eps (numpy vectorizes tan; its cos and sin of doubles are scalar loops)."""
    t = np.tan(x)
    return 2.0 / (1.0 + t * t), t


def _values(s, base, half, p, v=None, dv=None):
    """(1/2) e^{ipv} [e^{base + ps} z + e^{base - ps} conj z], z = e^{2i half} t',
    where base + 2i half is phi at order i a, less the scale, at t = s + iv (half may
    come as its _half_angle).  At imaginary order (p is None) the values are real."""
    h, t = half if isinstance(half, tuple) else _half_angle(half)
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


def _aliasing(q, a, y, top, peak, width, rel, cplx, lift, big_y):
    """Intervals n on [0, width] for the trapezoid sum of K_nu(y), nu = +-q + i a, on the
    line Im t = lift (big_y = y cos lift), and a bound on its error, the aliases' and the
    cut tail's, in units of e^peak; n puts the bound at rel |S| / 8 for the a priori
    |S| >= (width - top) / 32."""
    big_l = 6.0 - math.log(rel)  # sin(theta - lift)^2 = 2 L / (y cos lift) if below 1, cos^2 >= floor
    floor = (q * q + 1.0) / (q * q + 1.0 + (big_l / 1.5) ** 2) if cplx else (1.5 / big_l) ** 2
    rise = np.arcsin(np.sqrt(np.minimum((2.0 * big_l) / big_y, 1.0)))
    theta = np.minimum(lift + rise, np.maximum(np.arccos(np.sqrt(floor)), 0.5 * lift + 0.25 * math.pi))
    shift_y = y * np.cos(theta)
    # K_q(Y) <= e^{max psi} (t_R + 1), psi = q t - Y cosh t, psi'(t_R) = -1
    log_k = np.log(np.arcsinh((q + 1.0) / shift_y) + 1.0) - np.hypot(q, shift_y) - peak
    if cplx:
        log_k += q * np.arcsinh(q / shift_y)
    # the aliases m > 0 weigh e^{a theta} and decay at theta + lift, those m < 0 e^{-a theta} and theta - lift
    up, down, room = log_k + a * theta, log_k - a * theta, math.log(512.0 / rel) - np.log(width - top)
    fast, slow = theta + lift, theta - lift
    n = np.maximum(np.ceil(np.maximum((up + room) / fast, (down + room) / slow) * width / (2.0 * math.pi)), 1.0)
    w = n * (2.0 * math.pi) / width
    aliases = np.exp(up) / np.expm1(w * fast) + np.exp(down) / np.expm1(w * slow)
    return n.astype(np.intp), aliases + (2.0 * math.exp(-8.0) * rel) * width  # 2 width e^{-depth}: the cut tail


def _bernstein(log_m, half, target):
    """Intervals n (a multiple of 4) of Fejer's second rule on [0, 2 half] and a bound on
    its error, 4.3 half M rho^-n / (1 - rho^-2) at the best of _RHO: the bound for an
    integrand analytic in the ellipse with foci 0 and 2 half and semi-axes half (A, B),
    A + B = rho, where its modulus is at most M = e^{log_m} (a column per rho).  Its
    Chebyshev coefficients obey |c_k| <= 2 M rho^-k, the rule is exact to degree n - 1, and
    an uncaught T_k costs at most 2 + 2 / (k^2 - 1) (positive weights summing to 2)."""
    log_c = log_m + (np.log(half) + _GAIN)
    n = 4.0 * np.ceil(((log_c - np.log(target)[:, None]) / (4.0 * _LOG_RHO)).min(axis=1))
    n = np.minimum(np.maximum(n, 4.0), _MAX_LEVEL)
    return n.astype(np.intp), np.exp((log_c - n[:, None] * _LOG_RHO).min(axis=1))


def _flat(f, width, n, fejer):
    """Each row's rule of n_i intervals on [0, width_i], the trapezoid's (on the nodes j
    width_i / n_i, j < n_i: the node at width is past the cutoff) or Fejer's second, in one
    call of f(r, s): rows of one n broadcast, others are ragged rows of one flat array, and
    either way each row's sums of values and moduli (np.add.reduceat) have the same bits."""
    count = n - 1 if fejer else n
    starts = np.cumsum(count) - count
    step = None if fejer else width / n
    if (n == n[0]).all():
        x, w = _fejer(int(n[0])) if fejer else (np.arange(n[0]), 1.0)
        v = f(np.arange(n.size)[:, None], width[:, None] * x if fejer else x * step[:, None])
    else:
        rows = np.repeat(np.arange(n.size), count)
        at = np.arange(rows.size)
        if fejer:  # the rules end to end, and each node's place in them
            keys = sorted(set(n.tolist()))
            xs, ws = zip(*map(_fejer, keys))
            first = np.cumsum([0] + keys[:-1]) - np.arange(len(keys))  # each rule's first node
            node = at + (first[np.searchsorted(keys, n)] - starts)[rows]
            x, w = np.concatenate(xs)[node], np.concatenate(ws)[node]
            v = f(rows, width[rows] * x)
        else:
            v, w = f(rows, (at - starts[rows]) * step[rows]), 1.0
    if not fejer:
        v = v.ravel()
        v[starts] *= 0.5
        return np.add.reduceat(v, starts) * step, np.add.reduceat(np.abs(v), starts) * step
    return (np.add.reduceat((v * w).ravel(), starts) * width,
            np.add.reduceat((np.abs(v) * w).ravel(), starts) * width)


def _line(p, a, y, top, peak, depth, budget, cplx):
    """Every point's trapezoid sum on the line Im t = lift (0 for a <= 1), s >= 0, in one
    integrand call.  On the whole line the rule of step h = 2 pi / w is K_nu(y) + sum_{m != 0}
    e^{-m w lift} K_{nu - i m w}(y) (shift the line to the real axis), and |K_{q + ib}(y)| <=
    e^{-|b| theta} K_q(y cos theta) for 0 <= theta < pi/2, so with theta > lift the aliases
    sum to at most K_q(y cos theta) [e^{a theta} / (e^{w (theta + lift)} - 1) + e^{-a theta}
    / (e^{w (theta - lift)} - 1)]; _aliasing bounds K_q and sets each point's n."""
    big_p, half_a, big_y, lift = np.abs(p), 0.5 * a, y, 0.0
    level = not (a > 1.0).any()  # then lift's terms, exact 0s and 1s, are left out
    if not level:
        lift = np.where(a > 1.0, np.minimum(np.arcsinh((p + 1j * a) / y).imag, _LIFT_CAP) if cplx
                        else np.arcsin(np.minimum(a / y, 0.9)), 0.0)
        half_y, big_y = 0.5 * y * np.sin(lift), y * np.cos(lift)
        top = np.arcsinh(big_p / big_y)  # the line's e^{-Y cosh s + |p| s} peaks at s = top
        peak = big_p * top - big_y * np.cosh(top)
    y2 = -2.0 * big_y

    def f(r, s):
        phase = half_a[r] * s if level else half_a[r] * s - half_y[r] * np.sinh(s)
        if cplx:
            t = top[r]
            base = y2[r] * np.sinh(0.5 * (s + t)) * np.sinh(0.5 * (s - t)) - big_p[r] * t
            return _values(s, base, phase, p[r], None if level else lift[r])
        half = np.sinh(0.5 * s)  # the peak is at 0
        return _values(s, y2[r] * half * half, phase, None)

    width = _cutoff(big_y, big_p, peak, depth + (_HALF_PI - lift) * a, cplx)
    peak = peak if level else peak - a * lift
    envelope = _envelope(p, a, y, peak)
    n, bound = _aliasing(big_p, a, y, top, peak, width, budget.rel_tol, cplx, lift, big_y)
    est, mass = _flat(f, width, n, False)
    fail = np.flatnonzero(bound > budget.rel_tol * np.maximum(np.abs(est), envelope) + budget.abs_floor)
    if fail.size:
        est = est.astype(complex)  # as the halved sums are
        est[fail], mass[fail] = _halve(lambda r, s: f(fail[r], s), width[fail], n[fail], False, est[fail],
                                       envelope[fail], budget)
    return est, mass, peak, envelope


def _two_saddles(p, a, y, top, peak, depth, budget, cplx):
    """The line Im t = pi/2 to the saddle mu + i pi/2, then its steepest-descent path, each
    piece by Fejer's second rule in one integrand call, n from _bernstein.  On the line phi
    is entire and |e^{phi - scale}| <= e^{y cosh s sin tau - a tau + |p| (|s| - mu)} at t =
    s + i (pi/2 + tau), which bounds M on an ellipse in closed form: below the line by
    a tau - y sin tau, above it (only where y cosh s > a) by tau (y cosh s - a).  On the
    descent M is a model: the Gaussian of the piece's drop e^{-depth} (and a tenth more),
    times e^2 and e^{|p| Re t} at the ellipse's widest; the mpmath sweeps check that it
    bounds the error.  The a priori |S| is the envelope, or for p != 0 at most a quarter
    of the saddle's half Gaussian."""
    big_p, mu = np.abs(p), np.arccosh(a / y)
    ysh = np.sqrt((a - y) * (a + y))  # y sinh(mu)
    half = 0.5 * (a * mu - ysh)  # Im phi / 2 along the descent path
    turn = None if cplx else _half_angle(half)
    scale, half_a, half_y = big_p * mu - _HALF_PI * a, 0.5 * a, 0.5 * y
    low = -big_p * mu  # Re phi less the scale on the line Im t = pi/2

    def line(r, s):
        phase = half_a[r] * s - half_y[r] * np.sinh(s)
        return _values(s, low[r], phase, p[r], _HALF_PI) if cplx else _values(s, 0.0, phase, None)

    def descent(r, w):
        ar, big, sh = a[r], ysh[r], np.sinh(0.5 * w)
        sq = sh * sh
        sinh_w, cosh_w = 2.0 * sh * np.sqrt(1.0 + sq), 1.0 + 2.0 * sq
        ys, ych = big * cosh_w + ar * sinh_w, ar * cosh_w + big * sinh_w  # y sinh, y cosh at mu + w
        delta = (2.0 * big * sq + ar * (sinh_w - w)) / ys  # 1 - sin v
        cv = np.sqrt(delta * (2.0 - delta))
        drop = 2.0 * np.arcsin(np.sqrt(0.5 * delta))  # pi/2 - v
        dv = (delta * ych - 2.0 * ar * sq - big * sinh_w) / (ys * cv)
        base = ar * drop - ych * cv + low[r]
        if cplx:
            return _values(mu[r] + w, base, half[r], p[r], _HALF_PI - drop, dv)
        return _values(w, base, (turn[0][r], turn[1][r]), None, None, dv)

    envelope, width = _envelope(p, a, y, scale), _cutoff(y, big_p, scale, depth, cplx) - mu
    share = budget.rel_tol / 16.0  # of the a priori |S|, for each piece
    target = share * envelope
    c1, c2, col_a, col_y = 0.5 * mu[:, None], 0.5 * width[:, None], a[:, None], y[:, None]
    tau = c1 * _B  # the ellipse's half height on the line
    m1 = np.maximum(col_a * tau - col_y * np.sin(tau),  # Im t < pi/2, and above it where y cosh s > a
                    c1 * (_B * _B / _A) * np.maximum(col_y * np.cosh(c1 * (1.0 + _A)) - col_a, 0.0))
    m1[tau > math.pi] = np.inf
    m2 = (1.1 * depth) * (_A * _A - 1.0) ** 2 / (4.0 * _A * _A) + 2.0
    if cplx:
        target = np.maximum(target, share * -np.expm1(-big_p * mu) * np.sqrt(math.pi / (32.0 * ysh)))
        m1, m2 = m1 + big_p[:, None] * c1 * (_A - 1.0), m2 + big_p[:, None] * c2 * (_A + _B)
    (n1, b1), (n2, b2) = _bernstein(m1, c1, target), _bernstein(m2, c2, target)
    (s1, w1), (s2, w2) = _flat(line, mu, n1, True), _flat(descent, width, n2, True)
    est, mass = s1 + s2, w1 + w2
    fail = np.flatnonzero(b1 + b2 > budget.rel_tol * np.maximum(np.abs(est), envelope) + budget.abs_floor)
    if fail.size:  # each piece halves on
        est, env = est.astype(complex), envelope[fail]
        s1, w1 = _halve(lambda r, s: line(fail[r], s), mu[fail], n1[fail], True, s1[fail], env, budget)
        s2, w2 = _halve(lambda r, s: descent(fail[r], s), width[fail], n2[fail], True, s2[fail], env, budget)
        est[fail], mass[fail] = s1 + s2, w1 + w2
    return est, mass, scale, envelope


def _macdonald(nu, y, budget: AccuracyBudget) -> np.ndarray:
    """K_{nu_i}(y_i) for broadcastable arrays of orders and positive arguments."""
    nu, y = np.asarray(nu, dtype=complex), np.asarray(y, dtype=float)
    if nu.shape != y.shape:  # np.full, not np.broadcast_arrays, for the common scalar argument
        nu, y = np.broadcast_arrays(nu, y) if y.ndim else (nu, np.full(nu.shape, y))
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
    # twice the path (0 a line, 1 two saddles, 2 K is 0), plus 1 if p != 0
    group = np.where(peak < _UNDERFLOW, 4, 2 * (a > np.maximum(1.1 * y, 1.0)) + (p != 0.0))
    groups, depth = np.flatnonzero(np.bincount(group)).tolist(), 8.0 - math.log(budget.rel_tol)
    est, mass, scale, envelope = np.zeros(y.size, dtype=complex), *np.zeros((3, y.size))
    for g in groups[:-1] if groups[-1] == 4 else groups:
        i = np.flatnonzero(group == g) if len(groups) > 1 else slice(None)
        est[i], mass[i], scale[i], envelope[i] = (_line, _two_saddles)[g // 2](
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
