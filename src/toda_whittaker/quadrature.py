"""Deterministic quadrature in one to six dimensions.

Two engines: the trapezoid rule on a dyadic lattice, and adaptive cubature
over real boxes.

* :func:`integrate_contour` — integration over horizontal lines in the complex
  plane (fixed imaginary offsets) by the tensor trapezoid rule, halving a
  dyadic step until two successive sums agree; the lines are truncated using
  the Gamma-function decay rate ``exp(-pi * count * |Re z| / 2)`` supplied by
  the caller.  Its integrands are analytic in a strip around the lines and
  decay exponentially, where the trapezoid rule converges geometrically
  (Trefethen and Weideman, SIAM Review 56, 2014).  Every node of the first
  step that may stop is evaluated at once, and the sums of the coarser
  steps are read off those values as strided slices.
* :func:`integrate_box` — adaptive integration over an explicit box, using a
  Gauss–Kronrod 7/15 pair in one dimension and an embedded degree-7/5
  fully-symmetric cubature rule in dimensions two through six.

Coordinate-space integrals run over the whole of R^d and are cut to a box by
one truncation rule.  Each side the box truncates ends either behind a
double-exponential wall ``exp(-e^u)`` (cut at :func:`_wall_reach` past the
wall's foot) or in a single exponential tail (cut at :func:`_rate_reach`);
either way the neglected tail is at most ``tol / 10`` split over the truncated
sides.  :func:`_integrate_truncated` integrates the box to ``0.9 tol`` and
adds ``tol / 10`` for the tails, so the reported error covers both.  Its
integrands are entire and vanish at every side of the box, so one- and
two-dimensional boxes whose caller bounds their frequencies take the
contours' trapezoid rule on the lattice ``2**-k Z^d``, and so do star-shaped
and separable integrands, contracted factor by factor without forming the
node grid (:func:`_integrate_star`); the other boxes of three or more
dimensions take the adaptive engine, and so does the one integral with a
true edge, the spherical transform's over the chamber's radius ``d >= 0``.

Integrand contract
------------------
Integrands are vectorized: ``f(points)`` receives an ``(m, d)`` array (real
for the box integrators, complex for the contour integrator) and must
return an ``(m,)`` complex array. Tolerances are absolute.  The lattice
itself hands its integrand grids by their tensor axes, one 1-D node array
per dimension, and takes back the values on each grid (see
:func:`_trapezoid_level`), so a factor that depends on one axis, or on the
difference of two (:func:`_axis_differences`), is evaluated once per axis
node or per difference; :func:`_on_rows` adapts a row integrand to it.  An
integrand may also hold a batch of integrals on one box as a leading axis of
rows: each row stops on its own, with the value, error and count it has
alone (see :func:`_trapezoid`).

Determinism: identical inputs produce bit-identical results.  The trapezoid
rule sums its nodes in a fixed order.  The adaptive engine keeps its regions
as arrays in creation order; which regions a generation splits depends only
on their error estimates, and the value and error bound are NumPy sums over
the regions in that order.  A star's ``np.convolve`` products give the same
bits on one BLAS thread as on two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, ContourError

__all__ = [
    "QuadratureResult",
    "ContourSpec",
    "integrate_box",
    "integrate_contour",
    "stable_exp",
]

_MAX_DIM = 6
_DEFAULT_MAX_EVALS = 4_000_000
_WIDTH_FLOOR = 1e-13
_TRAPEZOID_CHUNK = 1 << 15
# Most points in one integrand call of the adaptive engine; this bounds the
# memory one generation of splits holds at once.
_CALL_POINTS = 1 << 13


# ---------------------------------------------------------------------------
# Result and request types


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    """Outcome of an integration.

    ``converged`` is True only when ``abs_error <= tol`` for the tolerance the
    integral was requested with; the error bound is always reported honestly.
    """

    value: complex
    abs_error: float
    evaluations: int
    converged: bool

    def __post_init__(self) -> None:
        # Python scalars, not NumPy ones, so that ``res.converged is False``
        # holds on every unconverged result.
        object.__setattr__(self, "value", complex(self.value))
        object.__setattr__(self, "abs_error", float(self.abs_error))
        object.__setattr__(self, "evaluations", int(self.evaluations))
        object.__setattr__(self, "converged", bool(self.converged))
        if self.abs_error < 0.0:
            raise ValueError("abs_error must be non-negative")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


@dataclass(frozen=True)
class ContourSpec:
    """Imaginary offsets for nested horizontal contours, grouped by level.

    ``offsets[k]`` lists the offsets of the variables at level ``k``. Levels
    must interlace upward: every offset at level ``k`` lies strictly below
    every offset at level ``k+1``. Violations raise :class:`ContourError`.
    """

    offsets: tuple

    def __init__(self, offsets: Sequence[Sequence[float]]) -> None:
        rows = tuple(tuple(float(c) for c in row) for row in offsets)
        if not rows or any(not row for row in rows):
            raise ContourError("ContourSpec needs at least one non-empty level")
        object.__setattr__(self, "offsets", rows)
        self.validate()

    def validate(self) -> None:
        for k in range(len(self.offsets) - 1):
            if max(self.offsets[k]) >= min(self.offsets[k + 1]):
                raise ContourError(
                    f"contour levels {k} and {k + 1} do not interlace: "
                    f"max({self.offsets[k]}) >= min({self.offsets[k + 1]})"
                )

    @property
    def flat(self) -> tuple[float, ...]:
        return tuple(c for row in self.offsets for c in row)

    @property
    def dim(self) -> int:
        return len(self.flat)


def stable_exp(exponent: np.ndarray) -> np.ndarray:
    """exp of a complex array with the real part clipped so underflow goes
    gracefully to zero and overflow saturates instead of producing NaNs."""
    exponent = np.asarray(exponent, dtype=complex)
    re = np.clip(exponent.real, -745.0, 709.0)
    return np.exp(re + 1j * exponent.imag)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 (one dimension)

_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _build_gk15() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nodes = np.empty(15)
    wk = np.empty(15)
    wg = np.zeros(15)
    for j in range(7):
        nodes[j] = -_XGK_HALF[j]
        nodes[14 - j] = _XGK_HALF[j]
        wk[j] = _WGK_HALF[j]
        wk[14 - j] = _WGK_HALF[j]
    nodes[7] = 0.0
    wk[7] = _WGK_HALF[7]
    # Gauss-7 nodes are the odd-index Kronrod nodes plus the center.
    for j, half_idx in enumerate((1, 3, 5)):
        wg[half_idx] = _WG_HALF[j]
        wg[14 - half_idx] = _WG_HALF[j]
    wg[7] = _WG_HALF[3]
    return nodes, wk, wg


_GK_NODES, _GK_WK, _GK_WG = _build_gk15()
_EPS = np.finfo(float).eps


class _Rule1D:
    npts = 15

    def __init__(self) -> None:
        self.template = _GK_NODES.reshape(15, 1)

    def apply(self, vals: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # vals: (k, 15); halves: (k, 1)
        h = halves[:, 0]
        s_k = vals @ _GK_WK
        s_g = vals @ _GK_WG
        value = h * s_k
        mean = s_k / 2.0
        resabs = np.abs(vals) @ _GK_WK
        resasc = (np.abs(vals - mean[:, None]) @ _GK_WK) * h
        uu = np.abs(s_k - s_g) * h
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.minimum(1.0, 200.0 * uu / np.maximum(resasc, 1e-300))
            scaled = np.where(
                (resasc > 0.0) & (uu > 0.0),
                resasc * ratio**1.5,
                uu,
            )
        err = np.maximum(scaled, 50.0 * _EPS * resabs * h)
        axis = np.zeros(vals.shape[0], dtype=int)
        return value, err, axis


class _RuleGenzMalik:
    """Embedded degree-7/5 fully-symmetric cubature (Genz-Malik)."""

    def __init__(self, d: int) -> None:
        self.d = d
        l2 = math.sqrt(9.0 / 70.0)
        l3 = math.sqrt(9.0 / 10.0)
        l4 = math.sqrt(9.0 / 10.0)
        l5 = math.sqrt(9.0 / 19.0)
        pts = [np.zeros(d)]
        w7 = [(12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0]
        w5 = [(729.0 - 950.0 * d + 50.0 * d * d) / 729.0]
        self._ax2 = []
        for i in range(d):
            for sign in (+1.0, -1.0):
                p = np.zeros(d)
                p[i] = sign * l2
                pts.append(p)
                w7.append(980.0 / 6561.0)
                w5.append(245.0 / 486.0)
        self._off3 = len(pts)
        for i in range(d):
            for sign in (+1.0, -1.0):
                p = np.zeros(d)
                p[i] = sign * l3
                pts.append(p)
                w7.append((1820.0 - 400.0 * d) / 19683.0)
                w5.append((265.0 - 100.0 * d) / 1458.0)
        for i in range(d):
            for j in range(i + 1, d):
                for si in (+1.0, -1.0):
                    for sj in (+1.0, -1.0):
                        p = np.zeros(d)
                        p[i] = si * l4
                        p[j] = sj * l4
                        pts.append(p)
                        w7.append(200.0 / 19683.0)
                        w5.append(25.0 / 729.0)
        for mask in range(1 << d):
            p = np.full(d, l5)
            for i in range(d):
                if mask >> i & 1:
                    p[i] = -l5
            pts.append(p)
            w7.append(6859.0 / 19683.0 / (1 << d))
            w5.append(0.0)
        self.template = np.array(pts)
        self.w7 = np.array(w7)
        self.w5 = np.array(w5)
        self.npts = len(pts)
        self._ratio = (l2 * l2) / (l3 * l3)

    def apply(self, vals: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # vals: (k, npts); halves: (k, d)
        vol = np.prod(2.0 * halves, axis=1)
        i7 = vals @ self.w7
        i5 = vals @ self.w5
        value = vol * i7
        resabs = np.abs(vals) @ np.abs(self.w7)
        err = np.maximum(vol * np.abs(i7 - i5), 50.0 * _EPS * vol * resabs)
        f0 = vals[:, 0]
        diffs = np.empty((vals.shape[0], self.d))
        for i in range(self.d):
            f2p = vals[:, 1 + 2 * i]
            f2m = vals[:, 2 + 2 * i]
            f3p = vals[:, self._off3 + 2 * i]
            f3m = vals[:, self._off3 + 1 + 2 * i]
            diffs[:, i] = np.abs(
                (f2p + f2m - 2.0 * f0) - self._ratio * (f3p + f3m - 2.0 * f0)
            )
        axis = np.argmax(diffs, axis=1)
        return value, err, axis


_RULES: dict[int, object] = {}


def _rule_for(d: int):
    if d not in _RULES:
        _RULES[d] = _Rule1D() if d == 1 else _RuleGenzMalik(d)
    return _RULES[d]


# ---------------------------------------------------------------------------
# Adaptive engine


def _halves(lo: np.ndarray, hi: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of each region ``(lo[j], hi[j])`` across ``axis[j]``:
    every lower half, then every upper half."""
    rows = np.arange(axis.size)
    mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
    upper_lo, lower_hi = lo.copy(), hi.copy()
    upper_lo[rows, axis] = mid
    lower_hi[rows, axis] = mid
    return np.concatenate([lo, upper_lo]), np.concatenate([lower_hi, hi])


def _integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_evals: int,
) -> QuadratureResult:
    d = lo.size
    rule = _rule_for(d)
    template = rule.template
    npts = rule.npts

    def evaluate(los: np.ndarray, his: np.ndarray):
        """Value, error estimate and split axis of each region, and whether
        it is wide enough across that axis to be split."""
        centers = 0.5 * (los + his)
        halves = 0.5 * (his - los)
        pts = centers[:, None, :] + halves[:, None, :] * template[None, :, :]
        vals = np.asarray(f(pts.reshape(-1, d)), dtype=complex).reshape(-1, npts)
        value, error, axis = rule.apply(vals, halves)
        rows = np.arange(axis.size)
        a, b = los[rows, axis], his[rows, axis]
        return value, error, axis, b - a > _WIDTH_FLOOR * (1.0 + np.abs(a) + np.abs(b))

    # Seed the regions with a grid.  Large or strongly elongated regions can
    # hide a narrow peak from the embedded error estimate entirely, so halve
    # the longest side of the cells while it is longer than six or than four
    # times the shortest side, as long as the grid fits in one integrand call
    # and has at most 128 cells.
    cells = np.ones(d, dtype=int)
    while 2 * cells.prod() <= min(128, _CALL_POINTS // npts):
        w = (hi - lo) / cells
        if w.max() <= min(6.0, 4.0 * w.min()):
            break
        cells[np.argmax(w)] *= 2
    corner = np.indices(cells).reshape(d, -1).T
    lo, hi = lo + (hi - lo) * corner / cells, lo + (hi - lo) * (corner + 1) / cells

    # Every region evaluated, in creation order: bounds, value, error
    # estimate, split axis, and whether it is open to splitting.  The first
    # n rows cost n * npts evaluations.  A split region is closed and its
    # value and error are zeroed, so sums over the first n rows cover the
    # live regions.  Each generation splits the worst eighth of the open
    # regions (at least 12) in one integrand call of at most _CALL_POINTS
    # points.  The growing share keeps the number of generations, and so the
    # engine's cost, near-linear in the number of regions.
    val, err, axis, open_ = evaluate(lo, hi)
    n = val.size
    while True:
        total = err[:n].sum()
        if total <= max(tol, 100.0 * _EPS * np.abs(val[:n]).sum()):
            return QuadratureResult(val[:n].sum(), total, n * npts, True)
        picked = np.flatnonzero(open_[:n])
        if picked.size == 0:
            return QuadratureResult(val[:n].sum(), total, n * npts, False)
        k = min(max(12, picked.size // 8), _CALL_POINTS // (2 * npts))
        if k < picked.size:
            picked = np.sort(picked[np.argpartition(err[picked], -k)[-k:]])
        m = 2 * picked.size
        if (n + m) * npts > max_evals:
            raise BudgetExceeded(
                f"evaluation budget {max_evals} exhausted (error {total:.3e} > tol {tol:.3e})",
                result=QuadratureResult(val[:n].sum(), total, n * npts, False),
                max_evaluations=max_evals,
            )
        if n + m > val.size:
            lo, hi, val, err, axis, open_ = (
                np.concatenate([a[:n], np.empty_like(a, shape=(n + m,) + a.shape[1:])])
                for a in (lo, hi, val, err, axis, open_)
            )
        new = slice(n, n + m)
        lo[new], hi[new] = _halves(lo[picked], hi[picked], axis[picked])
        val[new], err[new], axis[new], open_[new] = evaluate(lo[new], hi[new])
        val[picked], err[picked], open_[picked] = 0.0, 0.0, False
        n += m


# ---------------------------------------------------------------------------
# Public entry points


def _normalize_box(box) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("box must be a sequence of (lo, hi) pairs")
    lo, hi = arr[:, 0].copy(), arr[:, 1].copy()
    if lo.size > _MAX_DIM:
        raise ValueError(f"dimension {lo.size} exceeds the supported maximum {_MAX_DIM}")
    if np.any(hi <= lo):
        raise ValueError("every box side needs lo < hi")
    return lo, hi


def integrate_box(
    f: Callable[[np.ndarray], np.ndarray],
    box,
    tol: float,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Adaptively integrate ``f`` over an axis-aligned box.

    ``f`` must be vectorized: it receives an ``(m, d)`` float array and
    returns an ``(m,)`` complex array. ``tol`` is an absolute tolerance.

    The box is first halved into at most 128 seed regions, none longer than
    six or than four times its shortest side where that cap allows; each
    region is integrated by the rule of its dimension, which also estimates
    its error.  Each generation then halves the worst eighth of the regions
    still wide enough to split (at least 12 of them) across their roughest
    axis, in one call of ``f`` with at most 8,192 points, until the error
    estimates, summed over the regions in creation order, are within
    ``tol``.

    Raises
    ------
    ValueError
        For dimensions above six or malformed boxes.
    BudgetExceeded
        When ``max_evals`` is exhausted; the exception carries the best
        estimate with ``converged=False``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = _normalize_box(box)
    return _integrate_adaptive(f, lo, hi, float(tol), int(max_evals))


# ---------------------------------------------------------------------------
# The truncation rule for coordinate-space integrals


def _wall_reach(
    tol: float, sides: int, params: Sequence[complex] = (), slope: float = 1.0, shift: float = 0.0
) -> float:
    """How far past its foot ``u = 0`` a double-exponential wall
    ``exp(-e^{slope u + shift})`` is cut, in a box that truncates ``sides``
    sides at tolerance ``tol``: each side's tail is to stay below
    ``tol / (10 sides)``.

    In the wall's own variable ``v = slope u + shift`` the wall may fight
    linear growth ``e^{slack v}`` of the rest of the integrand, with
    ``slack = (1 + sum |Im p|) / slope`` over the spectral ``params``.  The
    cut ``v = a`` solves ``a = log(log(1 / budget) + slack a) + 3`` (four
    fixed-point steps), which leaves a tail far below the side's budget."""
    target = max(math.log(10.0 * sides / tol), 1.0)
    slack = (1.0 + sum(abs(complex(p).imag) for p in params)) / slope
    a = math.log(target) + 3.0
    for _ in range(4):
        a = math.log(target + slack * max(a, 1.0)) + 3.0
    return (a - shift) / slope


def _rate_reach(tol: float, sides: int, rate: float) -> float:
    """How far from its foot a single exponential tail ``exp(-rate |u|)`` is
    cut, in a box that truncates ``sides`` sides at tolerance ``tol``."""
    return (max(math.log(10.0 * sides / tol), 1.0) + 8.0) / rate


def _integrate_truncated(
    f: Callable[[np.ndarray], np.ndarray], box, tol: float, max_evals: int, params=None
) -> QuadratureResult:
    """An integral over R^d of ``f``, cut to a box by :func:`_wall_reach` and
    :func:`_rate_reach`: the box to ``0.9 tol``, plus ``tol / 10`` for the
    tails it truncates; converged if the sum is within ``tol``.  ``f`` takes
    ``(m, d)`` rows.

    ``params``, when given, are spectral parameters whose real parts bound
    the phases of ``f``: along each axis every plane wave ``e^{i w t}`` in it
    has ``|Re w|`` at most the spread of those real parts.  A one- or
    two-dimensional box with ``params`` goes to :func:`_integrate_lattice`,
    which hands ``f`` the lattice's nodes as rows through :func:`_on_rows`;
    every other box goes to :func:`integrate_box`.  A star-shaped integrand
    on a box of any dimension, given by its factors instead of ``f``, takes
    the same lattice through :func:`_integrate_star`.

    Where the walls of a side cross before their reaches (``lo >= hi``),
    every point of that axis lies past one of them, so the whole integral
    is within the tail bound of zero; that side is kept one unit wide."""
    if params is not None and len(box) <= 2:
        return _integrate_lattice(_on_rows(f), box, tol, max_evals, params)
    box = [(lo, max(hi, lo + 1.0)) for lo, hi in box]
    inner = integrate_box(f, box, 0.9 * tol, max_evals)
    err = inner.abs_error + tol / 10.0
    return QuadratureResult(inner.value, err, inner.evaluations, err <= tol)


def _integrate_lattice(
    g: Callable[[list], list], box, tol: float, max_evals: int, params
) -> QuadratureResult:
    """:func:`_integrate_truncated` of a one- or two-dimensional box with
    ``params``, for an integrand ``g`` on tensor axes (see
    :func:`_trapezoid_level`): the trapezoid rule on the dyadic lattice
    ``2**-k Z^d`` (see :func:`_trapezoid`), each node evaluated once.  The
    lattice needs ``g`` to vanish to within the tail bound on every side of
    the box, as it does past the walls and tails: the sum over the nodes in
    the box then converges geometrically.  At a true edge, where the domain
    itself ends and the first derivative of the integrand across it does
    not vanish, the lattice is only second order, so a box with one passes
    no ``params``."""
    box = [(lo, max(hi, lo + 1.0)) for lo, hi in box]
    re = [complex(p).real for p in params]
    lo, hi = np.asarray(box, dtype=float).T
    return _trapezoid(g, lo, hi, tol / 10.0, tol, max_evals, max(re) - min(re))


def _integrate_star(centre: Callable, leaves: Sequence, box, tol: float, max_evals: int, params):
    """:func:`_integrate_lattice` of a star: ``centre(c)`` times, for each
    leaf ``(wall, factor)``, ``wall(c - l) factor(l)`` (1-D array callables),
    on ``box``, the centre's side and then each leaf's.  At each step the
    sum is the centre's vector times, per leaf, the Toeplitz wall matrix
    times the leaf's vector (one ``np.convolve``); the node grid is never
    formed.  A leaf whose wall is ``None`` couples to nothing: the sum over
    its nodes multiplies in, so an integrand that is a product of factors of
    one variable each is the product of their 1-D sums.  ``evaluations``
    counts the factor values computed: one per axis node and one per
    distinct difference of a wall, ``n_c + n_l - 1`` on axes of ``n_c`` and
    ``n_l`` nodes.  The first level reads the coarser steps' vectors off its
    own as strided slices; each later halving computes only the values it
    adds."""
    box = [(lo, max(hi, lo + 1.0)) for lo, hi in box]
    lo, hi = np.asarray(box, dtype=float).T
    coupled = [j for j, (wall, _) in enumerate(leaves, 1) if wall is not None]
    free = [j for j, (wall, _) in enumerate(leaves, 1) if wall is None]
    d, factors = lo.size, [centre] + [factor for _, factor in leaves] + [leaves[j - 1][0] for j in coupled]

    def spans(k: int) -> list:  # the first index and count of each vector at step 2**-k
        first, n = _lattice(lo, hi, k)
        walls = [(first[0] - first[j] - n[j] + 1, n[0] + n[j] - 1 if n[0] and n[j] else 0)
                 for j in coupled]
        return list(zip(first.tolist(), n)) + walls

    def contract(vectors: list) -> complex:
        if not all(v.size for v in vectors[:d]):
            return 0j
        value = vectors[0]
        for j, w in zip(coupled, vectors[d:]):
            value = value * np.convolve(w, vectors[j], "valid")
        value = np.add.reduce(value)
        for j in free:
            value = value * np.add.reduce(vectors[j])
        return complex(value)

    kept = [None] * 3  # the last level's spans, vectors and sum

    def level(k: int, first: bool, rows) -> tuple[list, int]:
        span, count, vectors = spans(k), 0, []
        for j, (f, (a, n)) in enumerate(zip(factors, span)):
            v, new = np.empty(n, dtype=complex), np.ones(n, dtype=bool)
            if not first:  # the values of step 2**(1 - k)
                (b, m), v_old = kept[0][j], kept[1][j]
                new[2 * b - a::2][:m] = False
                v[~new] = v_old
            v[new] = f((a + np.flatnonzero(new)) * 2.0**-k)
            vectors.append(v)
            count += int(new.sum())
        if first:  # steps 2**-i, i = -1, ..., k, every 2**(k - i)-th value from step 2**-k
            full = [contract([v[b * 2**(k - i) - a::2**(k - i)][:m] for v, (a, _), (b, m) in
                              zip(vectors, span, spans(i))]) for i in range(-1, k + 1)]
            sums = full[:3] + [t - s for s, t in zip(full[2:], full[3:])]
        else:
            full = [contract(vectors)]
            sums = [full[0] - kept[2]]
        kept[:] = span, vectors, full[-1]
        return sums, count

    re, values = [complex(p).real for p in params], lambda k: sum(n for _, n in spans(k))
    return _halving(level, values, d, tol / 10.0, tol, max_evals, max(re) - min(re))


def _grid_rows(axes: tuple) -> np.ndarray:
    """Every node of the grid of ``axes`` as an ``(m, d)`` row, in C order."""
    d = len(axes)
    rows = np.empty(tuple(a.size for a in axes) + (d,), dtype=np.result_type(*axes))
    for j, a in enumerate(axes):
        rows[..., j] = a.reshape([-1 if i == j else 1 for i in range(d)])
    return rows.reshape(-1, d)


def _on_rows(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[list], list]:
    """The lattice integrand that evaluates the row integrand ``f`` (see
    :func:`_trapezoid_level`): on a batch of grids it calls ``f`` once with
    the nodes of every grid as ``(m, d)`` rows, grid after grid, each in C
    order, and returns each grid's values as an array of its shape."""

    def g(grids: list) -> list:
        values = np.asarray(f(np.concatenate([_grid_rows(axes) for axes in grids])), dtype=complex)
        out, start = [], 0
        for axes in grids:
            shape = [a.size for a in axes]
            out.append(values[start:start + math.prod(shape)].reshape(shape))
            start += math.prod(shape)
        return out

    return g


def _axis_differences(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The differences ``u[a] - v[b]`` of two real axes of one dyadic
    lattice, each increasing and evenly spaced (as :func:`_trapezoid_level`
    hands them): every multiple of the finer spacing from the least
    difference to the greatest, and the ``(u.size, v.size)`` array of each
    pair's position among them.  The nodes are dyadic, so each difference
    is exact and has the same bits whichever nodes share the axes."""
    step = min((a[1] - a[0] for a in (u, v) if a.size > 1), default=1.0)
    iu = np.rint((u - u[0]) / step).astype(np.intp)
    iv = np.rint((v[-1] - v) / step).astype(np.intp)
    diffs = (u[0] - v[-1]) + step * np.arange(iu[-1] + iv[0] + 1)
    return diffs, iu[:, None] + iv[None, :]


def _lattice(lo: np.ndarray, hi: np.ndarray, k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The first index and the number of indices, per axis, of the nodes
    ``2**-k j`` in the box ``[lo, hi]``.  The even indices at ``k + 1`` are
    the doubled indices at ``k``."""
    first = np.ceil(lo * 2.0**k).astype(int)
    return first, tuple(int(n) for n in np.floor(hi * 2.0**k).astype(int) - first + 1)


def _batches(grids: list) -> list:
    """The grids of per-axis index arrays ``grids`` as slabs of their first
    axis, each of at most ``_TRAPEZOID_CHUNK`` nodes (at least one row),
    grid after grid and skipping empty grids, and those slabs grouped in
    order into batches of at most ``_TRAPEZOID_CHUNK`` nodes."""
    batches, size = [], _TRAPEZOID_CHUNK
    for grid in grids:
        rest = math.prod(ix.size for ix in grid[1:])
        if rest == 0:
            continue
        rows = max(1, _TRAPEZOID_CHUNK // rest)
        for r in range(0, grid[0].size, rows):
            slab = [grid[0][r:r + rows]] + grid[1:]
            nodes = slab[0].size * rest
            if size + nodes > _TRAPEZOID_CHUNK:
                batches.append([])
                size = 0
            batches[-1].append(slab)
            size += nodes
    return batches


def _picks(index: list, odd: int, stride: int) -> tuple:
    """Slices of the grid of the per-axis index arrays ``index`` that pick
    the nodes on the lattice of indices divisible by ``stride``, with the
    index in units of ``stride`` odd on axis ``odd`` and even on the axes
    before it (any on the axes after it; every node of that lattice for
    ``odd = -1``)."""
    picks = []
    for b, ix in enumerate(index):
        mod, rest = (stride, 0) if b > odd else (2 * stride, stride if b == odd else 0)
        picks.append(slice((rest - int(ix[0])) % mod, None, mod))
    return tuple(picks)


def _trapezoid_level(
    g: Callable[[list], list],
    k: int,
    lo: np.ndarray,
    hi: np.ndarray,
    first: bool,
    mass: bool = False,
) -> tuple[list, int]:
    """Sums of ``g`` over the nodes ``2**-k j`` in the box ``[lo, hi]``.

    ``g`` is evaluated on tensor axes: it takes a batch, a list of grids
    each given by its axes, a tuple of ``d`` 1-D node arrays, and returns
    the list of their values, each a ``d``-dimensional array on its grid.
    The grids are slabs of the first axis, never empty, and a batch holds
    at most ``_TRAPEZOID_CHUNK`` nodes (a slab of one row may exceed it);
    each node is evaluated once.  Every sum adds, slab by slab, the NumPy
    sums of C-ordered copies of strided slices of the values
    (:func:`_picks`).

    On the ``first`` lattice every node is evaluated, and the sums of the
    coarser steps are read off those values as strided slices (a node lies
    on the lattice of step ``2**-i`` when every index of it is divisible by
    ``m = 2**(k - i)``, so on each axis the slice starts at ``-first mod
    m``): the sums over the nodes of step 2, of step 1, of step 1/2, and
    then for each step ``2**-i``, ``i = 2, ..., k``, over the nodes it adds
    to step ``2**(1 - i)``.  Those are ``d`` sub-grids, the nodes whose
    index is odd on axis ``a`` and even on the axes before it, for ``a = 0,
    ..., d - 1``, summed in that order.  Otherwise only those ``d``
    sub-grids of step ``2**-k`` are evaluated, in the same order and in
    batches across them, and their sum is the one entry.  A sum read off
    one slab therefore has the bits of its step's own evaluation in one
    slab per sub-grid.  Values with a leading axis of rows (see
    :func:`_trapezoid`) are summed row by row.

    Returns those sums and the number of values evaluated; with ``mass`` on
    the ``first`` lattice, the sum of ``|g|`` over the nodes of step 1/2,
    read off as that step's sum is, follows them."""
    corner, shape = _lattice(lo, hi, k)
    index = [c + np.arange(n) for c, n in zip(corner.tolist(), shape)]
    d, step = len(index), 2.0**-k
    grids = [index]
    if not first:
        grids = [[ix[pick] for ix, pick in zip(index, _picks(index, a, 1))] for a in range(d)]
    sums = [0j] * (k + 2 if first else 1) + [0.0] * (first and mass)
    count = 0
    for batch in _batches(grids):
        for slab, vals in zip(batch, g([tuple(ix * step for ix in slab) for slab in batch])):
            vals = np.asarray(vals, dtype=complex, order="C")
            flat = vals.shape[:-d] + (-1,)  # one flat row of nodes per integral
            count += vals.size
            if not first:
                sums[0] += np.add.reduce(vals.reshape(flat), -1)
                continue
            for e, i in enumerate(range(-1, k + 1)):
                m = 1 << (k - i)
                for odd in [-1] if i <= 1 else range(d):
                    picked = vals[(..., *_picks(slab, odd, m))].reshape(flat)
                    sums[e] += np.add.reduce(picked, -1)
                    if mass and i == 1:
                        sums[-1] += np.add.reduce(np.abs(picked), -1)
    return sums, count


def _trapezoid(g: Callable, lo: np.ndarray, hi: np.ndarray, tail: float, tol: float, max_evals: int,
               frequency=0.0):
    """:func:`_halving` of the sums of ``g``, an integrand on tensor axes
    (see :func:`_trapezoid_level`), over the nodes ``2**-k j`` in the box
    ``[lo, hi]``, each node one evaluation.  With ``frequency`` an array,
    ``g(grids, rows)`` is one integral per entry: it gets the indices of the
    open rows and returns values with a leading axis over them, and a row's
    mass is the rule on ``|g|`` at step 1/2."""

    def level(k: int, first: bool, rows):
        h = g if rows is None else lambda grids: g(grids, rows)
        return _trapezoid_level(h, k, lo, hi, first, first and rows is not None)

    nodes = lambda k: math.prod(_lattice(lo, hi, k)[1])
    return _halving(level, nodes, lo.size, tail, tol, max_evals, frequency)


def _halving(level: Callable, size: Callable, d: int, tail: float, tol: float, max_evals: int, frequency=0.0):
    """The one halving loop of the lattice rules, over the steps ``h =
    2**-k``, ``k = 1, 2, ...``, of a ``d``-dimensional integral: ``level(k,
    first, rows)`` returns unscaled sums and the count of values it computes
    as :func:`_trapezoid_level` does, ``size(k)`` the values step ``2**-k``
    holds, and ``T_h`` is ``h**d`` times the sum of step ``h``.  Halving
    stops at the first ``h <= 1/4`` whose error is within ``tol``, or raises
    :class:`BudgetExceeded` before a halving that would take the count past
    ``max_evals``.

    ``frequency`` bounds ``|Re w|`` of the plane waves ``e^{i w t}`` in the
    integrand along each axis.  The error of ``T_h`` is the sum of such a
    wave's aliases ``w + 2 pi m / h``, ``m != 0``, each the larger the
    nearer it lies to zero; ``T_2h - T_h`` holds only the aliases ``w + pi m
    / h`` of odd ``m``, so once ``|w|`` passes ``3 pi / (2 h)`` it misses the
    one nearest zero and under-reports.  Halving therefore also runs on
    until ``h <= pi / (2 frequency)``: there every alias the difference
    misses lies at least ``3 pi / (2 h)`` from zero and the nearest one it
    holds at most ``pi / h``.  The first level is the first step that may
    stop, the finest up to it within ``max_evals`` (step 1/2 always).

    The error is ``d_1 + tail``, ``d_1 = |T_h - T_2h|``.  That difference
    understates the error of ``T_h`` when ``T_2h`` happens to be accurate,
    so once the two differences before it fall (``d_2 < d_3``, with
    ``d_2 = |T_2h - T_4h|``, ``d_3 = |T_4h - T_8h|``) the error is at least
    a hundredth of ``d_2**3 / d_3**2``, which is what ``d_1`` would be on
    the geometric convergence ``d_2`` and ``d_3`` show.

    Rows: with ``frequency`` an array the sums are arrays, one integral per
    entry, and ``level`` gets the indices of the rows still open.  Each row
    halves and stops on its own sums and frequency, with the bits and count
    it has alone.  A row's error is at least its rounding floor, ``8 eps``
    times its mass (the first level's sums end with it), plus the tail, and
    a row also stops once its estimate is within that floor.  The floor
    covers the rounding that no move shows, since the values and partial
    sums a halving reuses carry their errors into both sums compared: node
    values whose relative error, weighted by their moduli, is within ``4
    eps`` (at most 3.9 eps for the rank-1 integrands of
    :mod:`~toda_whittaker.gl_whittaker`, against 30 digits), and NumPy's
    pairwise sums, whose independent roundings add about ``1 eps`` of the
    mass.  Returns the rows' values and errors and the count of values;
    :class:`BudgetExceeded` carries value nan and error inf."""
    if isinstance(frequency, np.ndarray):
        rows, k0 = np.arange(len(frequency)), np.full(len(frequency), 2)
        while (coarse := frequency * 2.0**-k0 > 0.5 * math.pi).any():
            k0 += coarse
        out = np.empty(rows.size, dtype=complex), np.empty(rows.size)
        top, width = int(k0.min()), rows.size
    else:
        rows, k0 = None, 2
        while frequency * 2.0**-k0 > 0.5 * math.pi:
            k0 += 1
        top, width = k0, 1
    n = size(top)
    while top > 1 and n * width > max_evals:
        top -= 1
        n = size(top)
    sums, evals = level(top, True, rows)
    if rows is not None:  # 8 eps times each row's mass, the rule on |g| at step 1/2
        floor = 8.0 * _EPS * 2.0**-d * sums.pop()
    previous = sums[1]  # T_1
    moves = [0.0, abs(previous - 2.0**d * sums[0])]  # |T_1 - T_2|, after a 0 no move falls below
    total, k = 0j, 0
    while True:
        k += 1
        if k <= top:
            total += sums[k + 1]
        else:
            (s_new,), count = level(k, False, rows)
            total += s_new
            evals += count
        value = 2.0 ** (-k * d) * total
        moves.append(abs(value - previous))
        if rows is None:
            move = moves[-1]
            if moves[-2] < moves[-3]:
                move = max(move, 0.01 * moves[-2] * (moves[-2] / moves[-3]) ** 2)
            err = move + tail
            if k >= k0 and err <= tol:
                return QuadratureResult(value, err, evals, True)
        else:
            ratio = np.divide(moves[-2], moves[-3], out=np.zeros(rows.size), where=moves[-2] < moves[-3])
            move = np.maximum(moves[-1], 0.01 * moves[-2] * ratio**2)
            err = np.maximum(move, floor) + tail
            done = (k >= k0) & ((err <= tol) | (move <= floor))  # below its floor only rounding moves
            out[0][rows[done]], out[1][rows[done]] = value[done], err[done]
            rows, k0, floor, total, value, *moves = (
                a[~done] for a in (rows, k0, floor, total, value, *moves[-2:]))
            if not rows.size:
                return out + (evals,)
        grown = size(k + 1) if k >= top else n  # values after the next level
        if evals + (grown - n) * (1 if rows is None else rows.size) > max_evals:
            raise BudgetExceeded(
                f"evaluation budget {max_evals} exhausted at step {2.0**-k} "
                f"(error {np.max(err):.3e}, tol {tol:.3e})",
                result=QuadratureResult(value, err, evals, False) if rows is None
                else QuadratureResult(complex(math.nan, math.nan), math.inf, evals, False),
                max_evaluations=max_evals,
            )
        n = grown
        previous = value


def _trapezoid_radius(tol: float, d: int, gamma_decay_count: int) -> tuple[int, float]:
    """Truncation radius for ``d`` variables whose integrand falls off like
    ``exp(-pi*gamma_decay_count*|t|/2)``, and its tail bound ``tol/10``."""
    tail_budget = tol / (20.0 * d)
    rate = math.pi * gamma_decay_count / 2.0
    radius = math.ceil(max(8.0, (math.log(1.0 / tail_budget) + 16.0) / rate + 2.0))
    return radius, 2.0 * d * tail_budget


def integrate_contour(
    f: Callable[[np.ndarray], np.ndarray],
    contour: ContourSpec,
    gamma_decay_count: int,
    tol: float,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integrate ``f`` along horizontal contours with fixed imaginary parts,
    by the tensor trapezoid rule with nested dyadic steps.

    ``f`` receives complex points ``t + i c`` as an ``(m, d)`` complex array,
    one column per contour variable in level order. ``gamma_decay_count`` is
    the caller's statement of the net Gamma-factor decay: the integrand's
    modulus must fall off at least like ``exp(-pi*count*|t|/2)`` in every real
    coordinate, which fixes the truncation radius (rounded up to a whole
    number). No ``1/(2 pi)`` factors are applied here; include them in ``f``.

    The rule: the sum ``T_h`` of ``f`` over every node of step ``h`` in the
    cube ``[-radius, radius]**d``, scaled by ``h**d``, for ``h = 1/2, 1/4,
    ...``.  The nodes are integer multiples of ``h``, so every node is
    evaluated once, and node coordinates (and their differences) are exact.
    The same halving loop integrates the truncated 1-D and 2-D boxes of the
    coordinate-space integrals, on the lattice nodes inside each box.  On
    integrands analytic in a strip around the contour the error falls like
    ``exp(-2 pi w / h)``, ``w`` the distance to the nearest singularity.

    The loop works on tensor axes (see :func:`_trapezoid_level`); ``f`` gets
    each grid's nodes as rows through :func:`_on_rows`, and
    :func:`_integrate_contour_axes` takes an integrand on the axes instead.
    Every node of step ``1/4``, the first that may stop, is evaluated in
    slabs of at most 32,768 nodes, and ``T_2``, ``T_1`` and ``T_1/2`` are
    summed from strided slices of those values.  Each later halving
    evaluates only the nodes the step before lacks, as ``d`` sub-grids.

    Error estimate: ``abs_error`` is ``|T_h - T_2h|`` plus the bound on the
    truncated tails, raised where the two differences before it show a
    geometric convergence that ``|T_h - T_2h|`` falls far short of (see
    :func:`_trapezoid`).  Halving stops at the first ``h <= 1/4`` where
    ``abs_error <= tol``; ``evaluations`` is the number of nodes evaluated,
    which is the node count at the last step.  Sums run in a fixed order,
    so repeated calls give identical bits.

    Raises
    ------
    BudgetExceeded
        When the next halving would take the node count past ``max_evals``
        (step ``1/2`` is always evaluated, and step ``1/4`` with it when its
        nodes fit); the exception carries the last step's estimate with
        ``converged=False``.
    """
    return _integrate_contour_axes(_on_rows(f), contour, gamma_decay_count, tol, max_evals)


def _integrate_contour_axes(
    g: Callable,
    contour: ContourSpec,
    gamma_decay_count: int,
    tol: float,
    max_evals: int = _DEFAULT_MAX_EVALS,
    frequency=0.0,
):
    """:func:`integrate_contour` of an integrand ``g`` on tensor axes (see
    :func:`_trapezoid_level`): each grid it receives has one complex axis
    of points ``t + i c`` per contour variable, in level order.  An array
    ``frequency`` makes ``g`` a batch of integrals (see :func:`_trapezoid`)."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if gamma_decay_count < 1:
        raise ValueError("gamma_decay_count must be at least 1")
    contour.validate()
    offsets = contour.flat
    d = len(offsets)
    if d > _MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported maximum {_MAX_DIM}")
    radius, tail = _trapezoid_radius(tol, d, gamma_decay_count)

    def shifted(grids: list, *rows) -> list:
        return g([tuple(t + 1j * c for t, c in zip(axes, offsets)) for axes in grids], *rows)

    box = np.full(d, -float(radius)), np.full(d, float(radius))
    return _trapezoid(shifted, *box, tail, tol, max_evals, frequency)
