"""Seeded workloads for the benchmark, with the reference check of every case.

A workload is a list of cases drawn from the seed before any timing starts.
Each case holds the call into the library (module attributes are looked up at
call time, so the tracer's wrappers see every call) and a check that compares
the output with its reference.  References that need mpmath, or a tighter
evaluation by the library, are computed only when the check runs, which is
after the timed loop.

Workloads:

* ``duality``: gl2 and gl3 draws, each evaluated in every model and checked
  against the fused coordinate model within ``5 * tol`` (criterion 02).
* ``operator``: integral operators applied to closed-form eigenfunctions,
  each checked against its Gamma-product eigenvalue or prediction.
* ``coordinate``: many small calls with cheap integrands, scalar special
  functions against mpmath, exact finite-place inverses, and CLI calls.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import toda_whittaker  # noqa: F401  (the benchmark times this import)
from toda_whittaker import (
    cli,
    gl_baxter,
    gl_whittaker,
    local_lfactors,
    numerics,
    quadrature,
    rankin_selberg,
    so_toda,
)

WORKLOADS = ("duality", "operator", "coordinate")

#: The Macdonald kernel misses relative 1e-8 at imaginary order: now and
#: then from about 4i (1e-8 to 1e-7 at 4.15i and 7.3i), always from about 10i
#: (2e-2..0.8 near 20i, 1e5 and more from 30i).  The scalar sweep over
#: i*[0, 40] exists to show this, so its cases carry the label: their
#: failures count in ``failed`` without marking the run incorrect.
MACDONALD_DEFECT = "Macdonald K misses relative 1e-8 at imaginary order (ROADMAP item 2)"

# Draws jitter the spectral parameters of criterion 02 by at most 0.1 and take
# coordinates in [-0.1, 0.1], so that the cost of a draw varies little from
# seed to seed (the gl3 evaluation count follows the coordinates most).
DUALITY_ANCHOR = {2: (0.4, -0.3), 3: (0.6, 0.1, -0.45)}
DUALITY_TOL = {2: 1e-7, 3: 3e-5}


@dataclass
class Case:
    """One call into the library and the check of its output."""

    kind: str
    params: dict
    call: Callable[[], object]
    check: Callable[[object], "Verdict"]
    defect: str = ""


@dataclass
class Verdict:
    """Largest error of a case against its bound, and the reference used."""

    error: float
    bound: float
    reference: object
    detail: str = ""

    @property
    def ok(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.bound


def fingerprint(out) -> str:
    """Exact text form of an output, for the bit-identity check."""
    if dataclasses.is_dataclass(out):
        return repr(dataclasses.astuple(out))
    if isinstance(out, tuple):
        return "(" + ", ".join(fingerprint(o) for o in out) + ")"
    return repr(out)


def unconverged(out) -> bool:
    """True when any quadrature result in the output says it did not converge."""
    if isinstance(out, tuple):
        return any(unconverged(o) for o in out)
    return getattr(out, "converged", True) is False


class _Lazy:
    """A reference computed on first use, after the timed loop."""

    def __init__(self, fn):
        self._fn = fn
        self._done = False
        self._value = None

    def __call__(self):
        if not self._done:
            self._value = self._fn()
            self._done = True
        return self._value


# ---------------------------------------------------------------------------
# mpmath references (imported lazily: mpmath is not a dependency of the
# library and its import must stay out of the timed set-up)


def _mp():
    import mpmath

    mpmath.mp.dps = 20
    return mpmath


def mp_besselk(order: complex, y: float) -> complex:
    mp = _mp()
    return complex(mp.besselk(mp.mpc(order), mp.mpf(y)))


def mp_closed_gl2(lam, x) -> complex:
    l1, l2 = (complex(v) for v in lam)
    x1, x2 = (float(v) for v in x)
    phase = cmath.exp(0.5j * (l1 + l2) * (x1 + x2))
    return 2.0 * phase * mp_besselk(1j * (l1 - l2), 2.0 * math.exp(0.5 * (x1 - x2)))


def mp_closed_so3(lam: float, x: float) -> complex:
    return 2.0 * mp_besselk(2j * lam, 2.0 * math.exp(0.5 * x))


def mp_gamma_product(zs, pi_power: bool = False) -> complex:
    """prod Gamma(z), or prod pi**(-z) Gamma(z) when ``pi_power``."""
    mp = _mp()
    total = mp.mpc(0)
    for z in zs:
        z = mp.mpc(complex(z))
        total += mp.loggamma(z) - (z * mp.log(mp.pi) if pi_power else 0)
    return complex(mp.exp(total))


def mp_stade(x_top, x_bot, lam_pair) -> complex:
    top = [float(v) for v in x_top]
    bot = [float(v) for v in x_bot]
    ell = len(top) - 1
    l1, l2 = (complex(v) for v in lam_pair)
    value = cmath.exp(0.5j * (l1 + l2) * (sum(top) - sum(bot)))
    for i in range(ell):
        a_i = math.exp(top[i]) + (math.exp(bot[i - 1]) if i >= 1 else 0.0)
        b_i = math.exp(-top[i + 1]) + (math.exp(-bot[i]) if i <= ell - 2 else 0.0)
        value *= 2.0 * mp_besselk(1j * (l1 - l2), 2.0 * math.sqrt(a_i * b_i))
    return value


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _relative(value: complex, ref: complex, bound: float) -> Verdict:
    return Verdict(_rel(value, ref), bound, ref)


def _verdicts(*parts: tuple[float, float, object, str]) -> Verdict:
    """The part with the largest error-to-bound ratio (a NaN error wins)."""
    def badness(p):
        err, bound = p[0], p[1]
        return math.inf if not math.isfinite(err) else err / bound

    err, bound, ref, detail = max(parts, key=badness)
    return Verdict(err, bound, ref, detail)


# ---------------------------------------------------------------------------
# duality


def _duality(rng: np.random.Generator, n: int) -> list[Case]:
    cases: list[Case] = []
    while len(cases) < n:
        # Five gl2 draws per gl3 draw (26 cases): in a pass of two cycles the
        # median falls among the gl2 spectral-plane evaluations, and p90
        # among the two gl3 spectral-plane ones (mellin_barnes_eval and the
        # RR word), which do the same work, rather than between unlike models.
        for anchor in (DUALITY_ANCHOR[2],) * 5 + (DUALITY_ANCHOR[3],):
            rank = len(anchor)
            lam = tuple(float(a + d) for a, d in zip(anchor, rng.uniform(-0.1, 0.1, size=rank)))
            x = tuple(float(v) for v in rng.uniform(-0.1, 0.1, size=rank))
            tol = DUALITY_TOL[rank]
            ref = _Lazy(lambda lam=lam, x=x, tol=tol:
                        gl_whittaker.givental_eval(lam, x, tol / 100.0).value)

            def check(out, ref=ref, tol=tol):
                return Verdict(abs(out.value - ref()), 5.0 * tol, ref())

            params = {"lam": lam, "x": x, "tol": tol}
            cases.append(Case(f"gl{rank}.givental_eval", params,
                              lambda lam=lam, x=x, tol=tol: gl_whittaker.givental_eval(lam, x, tol),
                              check))
            cases.append(Case(f"gl{rank}.mellin_barnes_eval", params,
                              lambda lam=lam, x=x, tol=tol: gl_whittaker.mellin_barnes_eval(lam, x, tol),
                              check))
            words = ("L", "R") if rank == 2 else ("LL", "LR", "RL", "RR")
            for word in words:
                cases.append(Case(f"gl{rank}.mixed_eval_{word}", params,
                                  lambda w=word, lam=lam, x=x, tol=tol:
                                  gl_whittaker.mixed_eval(w, lam, x, tol),
                                  check))
    return cases[:n]


# ---------------------------------------------------------------------------
# operator


def _eigen_base(lam, y, conv) -> complex:
    """Closed-form eigenfunction value at ``y`` (two variables), via mpmath."""
    s1, s2 = lam
    if conv == "lie":
        return mp_closed_gl2(lam, y)
    if conv == "iwasawa":
        return mp_closed_gl2((0.5 * s1, 0.5 * s2), (2.0 * y[0], 2.0 * y[1]))
    d = y[0] - y[1]
    order = 0.5j * (s1 - s2) - 0.5
    phase = cmath.exp(0.5j * (s1 + s2) * (y[0] + y[1]))
    return 2.0 * math.exp(0.5 * d) * phase * mp_besselk(order, 2.0 * math.pi * math.exp(d))


def _eigenvalue(gamma, lam, conv) -> complex:
    """Gamma-product eigenvalue of the operator, via mpmath."""
    n = len(lam)
    bases = [1j * gamma - 1j * complex(l) for l in lam]
    if conv == "lie":
        return mp_gamma_product(bases)
    if conv == "iwasawa":
        return mp_gamma_product([0.5 * b for b in bases])
    rho = [0.5 * (n + 1) - j for j in range(1, n + 1)]
    return mp_gamma_product([0.5 * (b + r) for b, r in zip(bases, rho)], pi_power=True)


def _baxter_rank2(rng, conv: str) -> Case:
    a = float(rng.uniform(0.45, 0.55))
    lam = (a, -a)
    if conv == "lie":
        gamma, tol = -1j * float(rng.uniform(2.0, 2.2)), 1e-3
    else:
        gamma, tol = -1j * float(rng.uniform(2.9, 3.1)), (1e-3 if conv == "iwasawa" else 1e-4)
    if conv == "iwasawa_pi":
        y = (float(rng.uniform(-0.65, -0.55)), float(rng.uniform(0.85, 0.95)))
    else:
        y = tuple(float(v) for v in rng.uniform(-0.2, 0.2, size=2))

    def psi(xs):
        return gl_baxter.baxter_eigenfunction_batch(lam, xs, conv)

    def check(out):
        base = _eigen_base(lam, y, conv)
        eigen = _eigenvalue(gamma, lam, conv)
        ratio = out.value / base
        if conv == "iwasawa_pi":
            # criterion 03, pi convention: |ratio - eigenvalue| <= 10 tol max(1, 1/|base|)
            return Verdict(abs(ratio - eigen), 10.0 * tol * max(1.0, 1.0 / abs(base)), eigen)
        # criterion 03, rank 2: relative 1e-5 at tol 1e-6
        return Verdict(_rel(ratio, eigen), 10.0 * tol, eigen)

    return Case(f"gl_baxter.baxter_apply_{conv}",
                {"gamma": gamma, "lam": lam, "y": y, "tol": tol},
                lambda: gl_baxter.baxter_apply(psi, y, gamma, conv, tol, psi_spectral=lam),
                check)


def _so_baxter(rng) -> Case:
    gamma = -1j * float(rng.uniform(1.5, 1.7))
    lam = (float(rng.uniform(0.4, 0.5)),)
    y = (float(rng.uniform(-0.1, 0.1)),)
    tol = 1e-2

    def check(out):
        eigen = mp_gamma_product([1j * gamma + 1j * lam[0], 1j * gamma - 1j * lam[0]])
        ratio = out.value / mp_closed_so3(lam[0], y[0])
        # criterion 09: relative 1e-4 at tol 2e-5
        return Verdict(_rel(ratio, eigen), 5.0 * tol, eigen)

    return Case("so_toda.so_baxter_apply", {"gamma": gamma, "lam": lam, "y": y, "tol": tol},
                lambda: so_toda.so_baxter_apply(gamma, lam, y, tol), check)


def _so_recursive(rng) -> Case:
    lam = (float(rng.uniform(0.3, 0.4)), float(rng.uniform(-0.4, -0.3)))
    x = (float(rng.uniform(-0.1, 0.0)), float(rng.uniform(0.0, 0.1)))
    tol = 1e-2

    def check(out):
        ref = so_toda.so_givental_eval(lam, x, 1e-5).value
        return Verdict(abs(out.value - ref), 5.0 * tol, ref)

    return Case("so_toda.so_recursive_eval", {"lam": lam, "x": x, "tol": tol},
                lambda: so_toda.so_recursive_eval(lam, x, tol), check)


def _bump_friedberg_level1(rng) -> Case:
    a, b = float(rng.uniform(0.35, 0.45)), float(rng.uniform(0.15, 0.25))
    gamma, lam = (a, -a), (b, -b)
    t = -1j * float(rng.uniform(1.7, 1.9))
    tol = 3e-3

    def check(out):
        pred = mp_gamma_product([1j * t + 1j * lk - 1j * complex(gj).conjugate()
                                 for lk in lam for gj in gamma])
        # criterion 06, level 1: absolute 1e-4 at tol 1e-4
        return Verdict(abs(out.value - pred), tol, pred)

    return Case("rankin_selberg.bump_friedberg_integral_1",
                {"gamma": gamma, "lam": lam, "t": t, "tol": tol},
                lambda: rankin_selberg.bump_friedberg_integral(1, gamma, lam, t, tol), check)


def _inner_correlation(rng) -> Case:
    gam = (float(rng.uniform(0.25, 0.35)),)
    lam = (float(rng.uniform(0.15, 0.25)), float(rng.uniform(-0.25, -0.15)))
    t = -1j * float(rng.uniform(0.75, 0.85))
    x_last = float(rng.uniform(0.5, 0.7))
    tol = 1e-6

    def check(out):
        g = complex(gam[0]).conjugate()
        slope = lam[0] + lam[1] + 2.0 * t - g
        pred = cmath.exp(1j * slope * x_last) * mp_gamma_product(
            [1j * t + 1j * lk - 1j * g for lk in lam])
        # criterion 06, correlation: absolute 1e-4
        return Verdict(abs(out.value - pred), 1e-4, pred)

    return Case("rankin_selberg.bump_inner_correlation",
                {"gamma": gam, "lam": lam, "t": t, "x_last": x_last, "tol": tol},
                lambda: rankin_selberg.bump_inner_correlation(1, gam, lam, t, x_last, tol), check)


def _dual_baxter(rng) -> Case:
    gamma = (float(rng.uniform(0.45, 0.55)), float(rng.uniform(-0.35, -0.25)))
    x = (float(rng.uniform(0.1, 0.3)), float(rng.uniform(-0.5, -0.3)))
    z = float(rng.uniform(0.8, 1.0))
    tol = 3e-3

    def F(betas):
        return gl_baxter.mb_closed_form_batch(betas, x)

    def check(out):
        # Spectral-plane eigenfunction at beta = gamma: the coordinate closed
        # form at the negated parameters.
        base = mp_closed_gl2((-gamma[0], -gamma[1]), x)
        target = math.exp(-math.exp(x[-1] - z))
        # criterion 05, rank 2: absolute 1e-4 at tol 1e-5
        return Verdict(abs(out.value / base - target), 10.0 * tol, target)

    return Case("gl_baxter.dual_baxter_apply", {"gamma": gamma, "x": x, "z": z, "tol": tol},
                lambda: gl_baxter.dual_baxter_apply(F, gamma, z, tol), check)


def _spherical(rng) -> Case:
    gamma = (float(rng.uniform(0.2, 0.4)), float(rng.uniform(-0.7, -0.5)))
    lam = -1j * float(rng.uniform(1.7, 1.9))
    tol = 1e-3

    def check(out):
        rhs = _eigenvalue(lam, gamma, "iwasawa_pi")
        # criterion 12: absolute 1e-4 at tol 1e-5
        return Verdict(abs(out.lhs - rhs), 10.0 * tol, rhs)

    return Case("gl_baxter.spherical_transform_check_rank2",
                {"gamma": gamma, "lam": lam, "tol": tol},
                lambda: gl_baxter.spherical_transform_check_rank2(gamma, lam, tol), check)


def _operator(rng: np.random.Generator, n: int) -> list[Case]:
    makers = (
        lambda: _baxter_rank2(rng, "lie"),
        lambda: _inner_correlation(rng),
        lambda: _so_baxter(rng),
        lambda: _baxter_rank2(rng, "iwasawa_pi"),
        lambda: _dual_baxter(rng),
        lambda: _bump_friedberg_level1(rng),
        lambda: _baxter_rank2(rng, "iwasawa"),
        lambda: _spherical(rng),
        lambda: _so_recursive(rng),
    )
    return [makers[i % len(makers)]() for i in range(n)]


# ---------------------------------------------------------------------------
# coordinate


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _givental_gl2(rng) -> Case:
    lam = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    tol = _log_uniform(rng, 1e-9, 1e-6)

    def check(out):
        ref = mp_closed_gl2(lam, x)
        return Verdict(abs(out.value - ref), 5.0 * tol, ref)

    return Case("gl2.givental_eval", {"lam": lam, "x": x, "tol": tol},
                lambda: gl_whittaker.givental_eval(lam, x, tol), check)


def _givental_gl3(pool, rng) -> Case:
    lam, x, ref = pool[int(rng.integers(len(pool)))]
    tol = 1e-6

    def check(out):
        return Verdict(abs(out.value - ref()), 5.0 * tol, ref())

    return Case("gl3.givental_eval", {"lam": lam, "x": x, "tol": tol},
                lambda: gl_whittaker.givental_eval(lam, x, tol), check)


def _so_givental(rng) -> Case:
    lam = float(rng.uniform(0.1, 1.0))
    x = float(rng.uniform(-1.0, 1.0))
    tol = _log_uniform(rng, 1e-10, 1e-8)

    def check(out):
        ref = mp_closed_so3(lam, x)
        return Verdict(abs(out.value - ref), 10.0 * tol, ref)

    return Case("so3.so_givental_eval", {"lam": lam, "x": x, "tol": tol},
                lambda: so_toda.so_givental_eval((lam,), (x,), tol), check)


def _double_step(rng, level: int) -> Case:
    lam = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    xt = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=level + 1))
    xb = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=level - 1))
    tol = 1e-8 if level == 1 else 1e-6

    def call():
        return (rankin_selberg.double_step_kernel(xt, xb, lam, tol),
                rankin_selberg.stade_kernel(xt, xb, lam))

    def check(out):
        quad, closed = out
        ref = mp_stade(xt, xb, lam)
        # criterion 07: quadrature vs closed form 1e-5; closed form relative 1e-8
        return _verdicts((abs(quad.value - ref), 1e-5, ref, "double_step_kernel"),
                         (_rel(closed, ref), 1e-8, ref, "stade_kernel"))

    return Case(f"rankin_selberg.double_step_kernel_{level}",
                {"x_top": xt, "x_bot": xb, "lam": lam, "tol": tol}, call, check)


def _commutation(rng, rank: int) -> Case:
    # Near criterion 04's parameters, where the cost varies little.
    gammas = (-1j * float(rng.uniform(0.85, 0.95)), -1j * float(rng.uniform(1.35, 1.45)))
    a = float(rng.uniform(0.35, 0.45))
    lam = (a,) if rank == 1 else (a, -a)
    y = tuple(float(v) for v in rng.uniform(-0.2, 0.2, size=rank))
    tol = 1e-7

    def check(out):
        # criterion 04: residual 1e-5
        return Verdict(out.residual, 1e-5, out.second_then_first)

    return Case(f"gl_baxter.commutation_residual_{rank}",
                {"gammas": gammas, "lam": lam, "y": y, "tol": tol},
                lambda: gl_baxter.commutation_residual(gammas, lam, y, tol), check)


def _lowering(rng) -> Case:
    gamma = -1j * float(rng.uniform(1.0, 1.5))
    lam = float(rng.uniform(0.1, 0.5))
    y = (float(rng.uniform(0.0, 0.5)), float(rng.uniform(-0.4, 0.0)))
    x = float(rng.uniform(-0.3, 0.2))
    tol = 1e-7

    def check(out):
        # criterion 04: residual 1e-5
        return Verdict(out.residual, 1e-5, out.rhs)

    return Case("gl_baxter.lowering_compatibility",
                {"gamma": gamma, "lam": lam, "y": y, "x": x, "tol": tol},
                lambda: gl_baxter.lowering_compatibility(gamma, lam, y, x, tol), check)


def _pairing_level0(rng) -> Case:
    g = (float(rng.uniform(0.0, 0.4)),)
    l = (float(rng.uniform(0.0, 0.3)),)
    t = -1j * float(rng.uniform(0.7, 1.2))
    tol = 1e-9

    def check(out):
        pred = mp_gamma_product([1j * t + 1j * l[0] - 1j * g[0]])
        # criterion 06, level 0: absolute 1e-8 at tol 1e-9
        return Verdict(abs(out.value - pred), 1e-8, pred)

    return Case("rankin_selberg.bump_friedberg_integral_0",
                {"gamma": g, "lam": l, "t": t, "tol": tol},
                lambda: rankin_selberg.bump_friedberg_integral(0, g, l, t, tol), check)


def _baxter_rank1(rng, conv: str) -> Case:
    lam = (float(rng.uniform(0.2, 0.6)),)
    lo, hi = (1.0, 1.4) if conv == "lie" else (2.2, 2.6)
    gamma = -1j * float(rng.uniform(lo, hi))
    y = (float(rng.uniform(-0.4, 0.5)),)
    tol = 1e-8

    def psi(xs):
        return gl_baxter.baxter_eigenfunction_batch(lam, xs, conv)

    def check(out):
        eigen = _eigenvalue(gamma, lam, conv)
        ratio = out.value / cmath.exp(1j * lam[0] * y[0])
        # criterion 03, rank 1: relative 1e-5
        return Verdict(_rel(ratio, eigen), 1e-5, eigen)

    return Case(f"gl_baxter.baxter_apply_{conv}_rank1",
                {"gamma": gamma, "lam": lam, "y": y, "tol": tol},
                lambda: gl_baxter.baxter_apply(psi, y, gamma, conv, tol, psi_spectral=lam),
                check)


def _scalar(rng, which: int, order: float) -> Case:
    """A scalar Macdonald-based value at imaginary order ``order``, checked
    against mpmath at relative 1e-8."""
    y = _log_uniform(rng, 0.1, 10.0)
    if which == 0:
        c = float(rng.uniform(-0.5, 0.5))
        s = float(rng.uniform(-0.5, 0.5))
        d = 2.0 * math.log(y / 2.0)
        lam = (c + 0.5 * order, c - 0.5 * order)
        x = (s + 0.5 * d, s - 0.5 * d)
        return Case("gl_whittaker.closed_form_gl2", {"lam": lam, "x": x, "order": order},
                    lambda: gl_whittaker.closed_form_gl2(lam, x),
                    lambda out: _relative(out, mp_closed_gl2(lam, x), 1e-8),
                    MACDONALD_DEFECT)
    if which == 1:
        lam = 0.5 * order
        x = 2.0 * math.log(y / 2.0)
        return Case("so_toda.closed_form_so3", {"lam": lam, "x": x, "order": order},
                    lambda: so_toda.closed_form_so3(lam, x),
                    lambda out: _relative(out, mp_closed_so3(lam, x), 1e-8),
                    MACDONALD_DEFECT)
    nu = 1j * order
    return Case("numerics.macdonald_k", {"nu": nu, "y": y, "order": order},
                lambda: numerics.macdonald_k(nu, y),
                lambda out: _relative(out, mp_besselk(nu, y), 1e-8),
                MACDONALD_DEFECT)


def _series_inverse(params, order: int) -> list[Fraction]:
    """Coefficients of prod_j 1/(1 - a_j t) through ``order``, by multiplying
    geometric series (independent of the library's recurrence)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for a in params:
        geo = [a**k for k in range(order + 1)]
        coeffs = [sum(coeffs[i] * geo[k - i] for i in range(k + 1)) for k in range(order + 1)]
    return coeffs


def _tq_inverse(rng) -> Case:
    n = int(rng.integers(1, 6))
    params = []
    while len(params) < n:
        num = int(rng.integers(-9, 10))
        if num:
            params.append(Fraction(num, int(rng.integers(1, 10))))
    p = int((2, 3, 5, 7, 11)[int(rng.integers(5))])
    order = 2 * n + 4
    params = tuple(params)

    def call():
        sigma = local_lfactors.SatakeClass(params, p)
        return (local_lfactors.verify_tq_identity(sigma, order),
                local_lfactors.hecke_q_series(sigma, order))

    def check(out):
        identity, series = out
        ref = _series_inverse(params, order)
        wrong = sum(1 for a, b in zip(series.coeffs, ref) if a != b)
        # exact: T*Q == 1 and every Q coefficient equal
        return Verdict(float(wrong + (0 if identity else 1)), 0.0, "exact")

    return Case("local_lfactors.verify_tq_identity", {"params": params, "p": p, "order": order},
                call, check)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line tool in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_value(text: str) -> complex | Fraction:
    value = json.loads(text.strip().splitlines()[-1])["value"]
    if "num" in value:
        return Fraction(int(value["num"]), int(value["den"]))
    return complex(value["re"], value["im"])


def _cli_eval(lam, x, method: str | None, defect: str = "") -> Case:
    argv = ["eval", "--algebra", "gl2", "--lambda=%r,%r" % lam, "--x=%r,%r" % x, "--format", "json"]
    tol = 1e-8
    if method:
        argv += ["--method", method, "--tol", repr(tol)]

    def check(out):
        code, text = out
        record = json.loads(text)
        value = complex(record["value"]["re"], record["value"]["im"])
        ref = mp_closed_gl2(lam, x)
        if code != 0 or record["converged"] is not True:
            return Verdict(math.inf, 0.0, ref, f"exit {code}, converged {record['converged']}")
        if method:
            return Verdict(abs(value - ref), 5.0 * tol, ref)
        return Verdict(_rel(value, ref), 1e-8, ref)

    return Case("cli.eval" + (f"_{method}" if method else ""), {"argv": argv},
                lambda: run_cli(argv), check, defect)


def _cli_cases(rng) -> list[Case]:
    lam = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    lam_g = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    x_g = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    cases = [_cli_eval(lam, x, None), _cli_eval(lam_g, x_g, "givental")]

    alpha = (1j * float(rng.uniform(0.1, 1.0)), -1j * float(rng.uniform(0.1, 1.0)))
    s = float(rng.uniform(1.0, 2.0))
    argv_inf = ["lfactor", "--place", "inf", "--alpha=%r,%r" % alpha, "--s", repr(s),
                "--format", "json"]

    def check_inf(out):
        ref = mp_gamma_product([0.5 * (s - a) for a in alpha], pi_power=True)
        return Verdict(_rel(_json_value(out[1]), ref), 1e-12, ref)

    cases.append(Case("cli.lfactor_inf", {"argv": argv_inf}, lambda: run_cli(argv_inf), check_inf))

    p = int((2, 3, 5, 7)[int(rng.integers(4))])
    s_int = int(rng.integers(2, 5))
    # A parameter equal to p**s is a pole of the factor: skip it.
    satake = tuple(int(v) for v in rng.integers(1, 9, size=int(rng.integers(1, 4)))
                   if v != p**s_int)
    satake = satake or (1,)
    argv_p = ["lfactor", "--place", str(p), "--satake", ",".join(map(str, satake)),
              "--s", str(s_int), "--format", "json"]

    def check_p(out):
        ref = Fraction(1)
        for a in satake:
            ref /= 1 - Fraction(a, p**s_int)
        return Verdict(0.0 if _json_value(out[1]) == ref else 1.0, 0.0, ref)

    cases.append(Case("cli.lfactor_p", {"argv": argv_p}, lambda: run_cli(argv_p), check_p))

    gamma = -1j * float(rng.uniform(0.8, 1.6))
    y = float(rng.uniform(-0.5, 0.5))
    argv_k = ["kernel", "--kind", "baxter", "--gamma=%r" % gamma, "--y", repr(y), "--x", "0.0",
              "--sweep", "0:-1:1:51", "--format", "csv"]

    def check_k(out):
        worst, ref0 = 0.0, None
        for line in out[1].strip().splitlines()[1:]:
            t, re_, im_ = (float(v) for v in line.split(","))
            ref = cmath.exp(1j * gamma * (y - t) - math.exp(y - t))
            ref0 = ref if ref0 is None else ref0
            worst = max(worst, _rel(complex(re_, im_), ref))
        return Verdict(worst, 1e-12, ref0)

    cases.append(Case("cli.kernel_sweep", {"argv": argv_k}, lambda: run_cli(argv_k), check_k))
    return cases


def _strata(rng):
    """Imaginary orders over [0, 40], one per 4-wide stratum per block of 10,
    so every block holds the same mix of accurate and defective orders."""
    while True:
        for k in rng.permutation(10):
            yield 4.0 * (int(k) + float(rng.uniform()))


def _coordinate(rng: np.random.Generator, n: int) -> list[Case]:
    # gl3 references are expensive, so a run cycles through 24 draws.
    pool = []
    for _ in range(24):
        lam = tuple(float(a + d) for a, d in zip(DUALITY_ANCHOR[3], rng.uniform(-0.1, 0.1, size=3)))
        x = tuple(float(v) for v in rng.uniform(-0.5, 0.5, size=3))
        pool.append((lam, x, _Lazy(lambda lam=lam, x=x:
                                   gl_whittaker.givental_eval(lam, x, 1e-7).value)))
    orders = _strata(rng)
    convs = ("lie", "iwasawa", "iwasawa_pi")
    cases: list[Case] = []
    cycle = 0
    while len(cases) < n:
        scalar = [_scalar(rng, k % 3, next(orders)) for k in range(cycle, cycle + 6)]
        cases += [
            _givental_gl2(rng), scalar[0], _givental_gl3(pool, rng), _so_givental(rng),
            scalar[1], _double_step(rng, 1), _double_step(rng, 2), scalar[2],
            _commutation(rng, 1), _lowering(rng), scalar[3], _pairing_level0(rng),
            _lowering(rng),
            _baxter_rank1(rng, convs[cycle % 3]), scalar[4], _tq_inverse(rng), scalar[5],
        ]
        cases += _cli_cases(rng)
        cases.append(_cli_eval((10, -10), (0, 0), None, MACDONALD_DEFECT))
        if cycle % 8 == 0:
            cases.append(_commutation(rng, 2))
        cycle += 1
    return cases[:n]


# ---------------------------------------------------------------------------
# public entry points

_BUILDERS = {"duality": _duality, "operator": _operator, "coordinate": _coordinate}


def build(workload: str, seed: int, n: int) -> list[Case]:
    """The first ``n`` cases of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, n)


def warm_up(workload: str) -> None:
    """Build the quadrature rules, the Gauss-Legendre cache and one small
    case per (function, dimension) the workload uses.

    The recursive coordinate word ``LL`` is left out: it rebuilds its inner
    Gauss-Legendre grid on every call, so warming it caches nothing.
    """
    for d in (1, 2, 3, 4):
        quadrature.integrate_box(lambda p: np.exp(-(p * p).sum(axis=1)) + 0j, [(-1.0, 1.0)] * d, 1e-3)
    numerics.macdonald_k(0.5j, 1.0)
    numerics.log_gamma_array(np.array([1.5 + 0.5j]))
    lam2, x2 = (0.4, -0.3), (0.2, -0.5)
    lam3, x3 = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
    if workload == "duality":
        gl_whittaker.givental_eval(lam2, x2, 1e-2)
        gl_whittaker.givental_eval(lam3, x3, 1e-2)
        gl_whittaker.mellin_barnes_eval(lam2, x2, 1e-2)
        gl_whittaker.mellin_barnes_eval(lam3, x3, 1e-1)
        for word in ("L", "R"):
            gl_whittaker.mixed_eval(word, lam2, x2, 1e-2)
        for word in ("LR", "RL"):
            gl_whittaker.mixed_eval(word, lam3, x3, 1e-1)
    elif workload == "operator":
        lam = (0.5, -0.5)
        gl_baxter.baxter_apply(lambda xs: gl_baxter.baxter_eigenfunction_batch(lam, xs, "iwasawa_pi"),
                               (-0.6, 0.9), -3j, "iwasawa_pi", 1e-1, psi_spectral=lam)
        rankin_selberg.bump_inner_correlation(1, (0.3,), (0.2, -0.2), -0.8j, -0.4, 1e-2)
    else:
        gl_whittaker.givental_eval(lam2, x2, 1e-2)
        gl_whittaker.givental_eval(lam3, x3, 1e-2)
        so_toda.so_givental_eval((0.6,), (0.3,), 1e-3)
        rankin_selberg.double_step_kernel((0.2, -0.3), (), (0.4, -0.5), 1e-3)
        rankin_selberg.bump_friedberg_integral(0, (0.3,), (0.1,), -1.0j, 1e-3)
        run_cli(["lfactor", "--place", "5", "--satake", "2,3", "--s", "2"])
