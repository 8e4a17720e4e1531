"""Deterministic quadrature in one to six dimensions.

Two engines, one per job: adaptive cubature over real boxes, and the
trapezoid rule along contours.  Three entry points use them:

* :func:`integrate_box` — adaptive integration over an explicit box, using a
  Gauss–Kronrod 7/15 pair in one dimension and an embedded degree-7/5
  fully-symmetric cubature rule in dimensions two through six.
* :func:`integrate_decaying` — integration over the whole line (per dimension)
  for integrands with known exponential or doubly-exponential tail envelopes;
  the tails are truncated so the neglected mass stays within a fixed fraction
  of the tolerance, then the box integrator finishes the job.
* :func:`integrate_contour` — integration over horizontal lines in the complex
  plane (fixed imaginary offsets) by the tensor trapezoid rule, halving a
  dyadic step until two successive sums agree; the lines are truncated using
  the Gamma-function decay rate ``exp(-pi * count * |Re z| / 2)`` supplied by
  the caller.  Its integrands are analytic in a strip around the lines and
  decay exponentially, where the trapezoid rule converges geometrically
  (Trefethen and Weideman, SIAM Review 56, 2014).

Integrand contract
------------------
Integrands are vectorized: ``f(points)`` receives an ``(m, d)`` array (real
for the box/decaying integrators, complex for the contour integrator) and must
return an ``(m,)`` complex array. Tolerances are absolute.

Determinism: identical inputs produce bit-identical results. The adaptive
refinement queue is ordered by (error, creation index), work proceeds in
fixed-size batches, and the final value and error bound are reduced by
pairwise summation over subregions in creation order; the trapezoid rule sums
its nodes in a fixed order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, ContourError

__all__ = [
    "QuadratureResult",
    "DoubleExponential",
    "Exponential",
    "DecayProfile",
    "ContourSpec",
    "integrate_box",
    "integrate_decaying",
    "integrate_contour",
    "stable_exp",
]

_MAX_DIM = 6
_DEFAULT_MAX_EVALS = 4_000_000
_WIDTH_FLOOR = 1e-13
_TRAPEZOID_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# Result and request types


@dataclass(frozen=True)
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
        if self.abs_error < 0.0:
            raise ValueError("abs_error must be non-negative")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


@dataclass(frozen=True)
class DoubleExponential:
    """Tail envelope ``|f(u)| <= exp(-exp(slope*|u| + shift))``."""

    slope: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.slope <= 0.0:
            raise ValueError("DoubleExponential slope must be positive")

    def cutoff(self, tail_budget: float) -> float:
        target = max(math.log(1.0 / tail_budget), 1.0)
        return (math.log(target) - self.shift + 3.0) / self.slope


@dataclass(frozen=True)
class Exponential:
    """Tail envelope ``|f(u)| <= exp(-rate*|u|)``."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError("Exponential rate must be positive")

    def cutoff(self, tail_budget: float) -> float:
        target = max(math.log(1.0 / tail_budget), 1.0)
        return (target + 8.0) / self.rate


@dataclass(frozen=True)
class DecayProfile:
    """Per-dimension pair of tail envelopes ``(left, right)``.

    ``sides[i]`` describes how the integrand decays as coordinate ``i`` goes
    to -infinity (left) and +infinity (right).
    """

    sides: tuple

    def __init__(self, sides: Sequence) -> None:
        norm = []
        for pair in sides:
            left, right = pair
            for side in (left, right):
                if not isinstance(side, (DoubleExponential, Exponential)):
                    raise TypeError(
                        "each profile side must be DoubleExponential or Exponential"
                    )
            norm.append((left, right))
        object.__setattr__(self, "sides", tuple(norm))
        if not self.sides:
            raise ValueError("DecayProfile needs at least one dimension")

    @property
    def dim(self) -> int:
        return len(self.sides)

    def box(self, tail_budget_per_side: float) -> list[tuple[float, float]]:
        out = []
        for left, right in self.sides:
            out.append((-left.cutoff(tail_budget_per_side), right.cutoff(tail_budget_per_side)))
        return out


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


def _with_tail(inner: QuadratureResult, tail: float, tol: float) -> QuadratureResult:
    """``inner`` with the bound ``tail`` on its truncated tails added to its
    error, converged if the sum is within ``tol``."""
    err = inner.abs_error + tail
    return QuadratureResult(inner.value, err, inner.evaluations, err <= tol)


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


def _pairwise(values: list) -> complex:
    n = len(values)
    if n == 0:
        return 0.0
    if n == 1:
        return values[0]
    mid = n // 2
    return _pairwise(values[:mid]) + _pairwise(values[mid:])


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
    evals = 0
    next_id = 0
    live: dict[int, tuple[np.ndarray, np.ndarray, complex, float, int]] = {}
    heap: list[tuple[float, int]] = []
    batch = 32 if d == 1 else 12

    def evaluate(los: np.ndarray, his: np.ndarray):
        nonlocal evals
        k = los.shape[0]
        centers = 0.5 * (los + his)
        halves = 0.5 * (his - los)
        pts = centers[:, None, :] + halves[:, None, :] * template[None, :, :]
        vals = np.asarray(f(pts.reshape(k * npts, d)), dtype=complex).reshape(k, npts)
        evals += k * npts
        return rule.apply(vals, halves)

    def finalize(converged_flag_tol: float | None):
        ids = sorted(live.keys())
        value = _pairwise([live[i][2] for i in ids])
        err = float(np.real(_pairwise([live[i][3] for i in ids])))
        if converged_flag_tol is not None:
            rounding = 100.0 * _EPS * sum(abs(live[i][2]) for i in ids)
            conv = err <= max(converged_flag_tol, rounding)
        else:
            conv = False
        return value, err, conv

    # Seed the queue. Large or strongly elongated regions can hide a narrow
    # peak from the embedded error estimate entirely, so bisect the longest
    # axes first until every seed side is at most six units long and no seed
    # is more than four times longer than its shortest side (capped at 128
    # seeds), then evaluate all seeds in one batch.
    seeds: list[tuple[np.ndarray, np.ndarray]] = [(lo.copy(), hi.copy())]
    i = 0
    while i < len(seeds) and len(seeds) < 128:
        slo, shi = seeds[i]
        w = shi - slo
        if w.max() > 6.0 or w.max() > 4.0 * max(float(w.min()), 1e-300):
            ax = int(np.argmax(w))
            mid = 0.5 * (slo[ax] + shi[ax])
            h1 = shi.copy()
            h1[ax] = mid
            l2 = slo.copy()
            l2[ax] = mid
            seeds[i] = (slo, h1)
            seeds.append((l2, shi))
        else:
            i += 1
    seed_lo = np.array([p[0] for p in seeds])
    seed_hi = np.array([p[1] for p in seeds])
    v0, e0, a0 = evaluate(seed_lo, seed_hi)
    running = 0.0
    absint = 0.0
    for j in range(len(seeds)):
        live[j] = (seed_lo[j], seed_hi[j], complex(v0[j]), float(e0[j]), int(a0[j]))
        heapq.heappush(heap, (-float(e0[j]), j))
        running += float(e0[j])
        absint += abs(complex(v0[j]))
    next_id = len(seeds)

    while True:
        if running <= max(0.985 * tol, 100.0 * _EPS * absint):
            value, err, conv = finalize(tol)
            if conv:
                return QuadratureResult(value, err, evals, True)
            running = err
        if not heap:
            value, err, conv = finalize(tol)
            return QuadratureResult(value, err, evals, conv)
        picked = []
        while heap and len(picked) < batch:
            negerr, rid = heapq.heappop(heap)
            if rid in live:
                picked.append(rid)
        if not picked:
            value, err, conv = finalize(tol)
            return QuadratureResult(value, err, evals, conv)
        # Filter out regions too narrow to split further; they stay as leaves.
        splittable = []
        for rid in picked:
            rlo, rhi, _, _, axis = live[rid]
            width = rhi[axis] - rlo[axis]
            scale = 1.0 + abs(rlo[axis]) + abs(rhi[axis])
            if width > _WIDTH_FLOOR * scale:
                splittable.append(rid)
        if not splittable:
            continue
        cost = 2 * len(splittable) * npts
        if evals + cost > max_evals:
            value, err, _ = finalize(None)
            result = QuadratureResult(value, err, evals, False)
            raise BudgetExceeded(
                f"evaluation budget {max_evals} exhausted (error {err:.3e} > tol {tol:.3e})",
                result=result,
                max_evaluations=max_evals,
            )
        child_lo = []
        child_hi = []
        for rid in splittable:
            rlo, rhi, rval, rerr, axis = live[rid]
            mid = 0.5 * (rlo[axis] + rhi[axis])
            l1, h1 = rlo.copy(), rhi.copy()
            h1[axis] = mid
            l2, h2 = rlo.copy(), rhi.copy()
            l2[axis] = mid
            child_lo.extend((l1, l2))
            child_hi.extend((h1, h2))
            running -= rerr
            absint -= abs(rval)
            del live[rid]
        clo = np.array(child_lo)
        chi = np.array(child_hi)
        values, errors, axes = evaluate(clo, chi)
        for j in range(clo.shape[0]):
            live[next_id] = (clo[j], chi[j], complex(values[j]), float(errors[j]), int(axes[j]))
            heapq.heappush(heap, (-float(errors[j]), next_id))
            running += float(errors[j])
            absint += abs(complex(values[j]))
            next_id += 1


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


def integrate_decaying(
    f: Callable[[np.ndarray], np.ndarray],
    profile: DecayProfile,
    tol: float,
    max_evals: int = _DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integrate ``f`` over the whole of R^d using tail envelopes.

    The profile's envelopes determine per-side truncation points such that
    each neglected tail is at most ``tol / (10 d)``; the remaining box goes to
    :func:`integrate_box` with the rest of the budget.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    d = profile.dim
    if d > _MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported maximum {_MAX_DIM}")
    tail_budget = tol / (10.0 * d)
    box = profile.box(tail_budget)
    return _with_tail(integrate_box(f, box, 0.8 * tol, max_evals), 2.0 * d * tail_budget, tol)


def _trapezoid_level(
    g: Callable[[np.ndarray], np.ndarray], k: int, radius: int, d: int, first: bool
) -> tuple[complex, complex, int]:
    """Sum of ``g`` over the nodes of step ``2**-k`` in the cube
    ``[-radius, radius]**d`` -- all of them on the ``first`` level, else
    those the level of step ``2**(1-k)`` lacks -- in C order and in chunks
    of at most ``_TRAPEZOID_CHUNK`` enumerated nodes.

    Returns that sum, the part of it on the nodes of the step twice as long
    (``first`` level only; zero otherwise) and the number of nodes
    evaluated."""
    half = radius << k
    side = 2 * half + 1
    total = side**d
    step = 2.0**-k
    s_new = s_coarse = 0j
    count = 0
    for lo in range(0, total, _TRAPEZOID_CHUNK):
        flat = np.arange(lo, min(lo + _TRAPEZOID_CHUNK, total))
        idx = np.stack(np.unravel_index(flat, (side,) * d), axis=1) - half
        odd = (idx & 1).any(axis=1)
        if not first:
            idx = idx[odd]
        vals = g(idx * step)
        s_new += vals.sum()
        if first:
            s_coarse += vals[~odd].sum()
        count += idx.shape[0]
    return s_new, s_coarse, count


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
    ...``.  The steps are dyadic, so each halving evaluates only the nodes
    the step before lacks, and node coordinates (and their differences) are
    exact.  On integrands analytic in a strip around the contour the error
    falls like ``exp(-2 pi w / h)``, ``w`` the distance to the nearest
    singularity.

    Error estimate: ``abs_error`` is ``|T_h - T_2h|`` plus the bound on the
    truncated tails (``T_1`` is summed from the nodes of step ``1/2`` that
    lie on integers).  Halving stops at the first ``h <= 1/4`` where
    ``abs_error <= tol``; ``evaluations`` is the number of nodes evaluated,
    which is the node count at the last step.  Sums run in a fixed order,
    so repeated calls give identical bits.

    Raises
    ------
    BudgetExceeded
        When the next halving would take the node count past ``max_evals``
        (step ``1/2`` is always evaluated); the exception carries the last
        step's estimate with ``converged=False``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if gamma_decay_count < 1:
        raise ValueError("gamma_decay_count must be at least 1")
    contour.validate()
    offsets = np.asarray(contour.flat, dtype=float)
    d = offsets.size
    if d > _MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported maximum {_MAX_DIM}")
    tail_budget = tol / (20.0 * d)
    rate = math.pi * gamma_decay_count / 2.0
    radius = math.ceil(max(8.0, (math.log(1.0 / tail_budget) + 16.0) / rate + 2.0))
    tail = 2.0 * d * tail_budget

    def g(t: np.ndarray) -> np.ndarray:
        return np.asarray(f(t + 1j * offsets[None, :]), dtype=complex)

    # The first step is 1/2; its nodes on integers give T_1.
    k = 1
    total, previous, evals = _trapezoid_level(g, k, radius, d, True)
    while True:
        value = 2.0 ** (-k * d) * total
        err = abs(value - previous) + tail
        if k > 1 and err <= tol:
            return QuadratureResult(value, err, evals, True)
        half = radius << (k + 1)
        if evals + (2 * half + 1) ** d - (half + 1) ** d > max_evals:
            raise BudgetExceeded(
                f"evaluation budget {max_evals} exhausted at step {2.0**-k} "
                f"(error {err:.3e}, tol {tol:.3e})",
                result=QuadratureResult(value, err, evals, False),
                max_evaluations=max_evals,
            )
        k += 1
        s_new, _, count = _trapezoid_level(g, k, radius, d, False)
        total += s_new
        evals += count
        previous = value
