"""No integral under-reports its error.

Each evaluator is run on seeded draws over the stated ranges, and its
reported ``abs_error`` must cover the distance to an independent reference.

Contour integrals (the trapezoid rule): mpmath's Bessel K for the rank-1
spectral-plane model, the rank-1 mixed words and the dual operator's base
value, the exact multiplier ``exp(-exp(x_last - z))`` of the dual operator,
the fused coordinate model at a hundredth of the tolerance for the rank-2
spectral-plane model and every rank-2 mixed word, and the Gamma-product side
of the Barnes identity.

Coordinate-space integrals (cut to a box by the truncation rule; the
trapezoid rule on the 1-D and 2-D boxes and, as a star contraction or a
product of 1-D sums, on the gl3 and both so5 pattern boxes, the chained step
kernels and the rank-lowering check's two-variable side, the adaptive engine
on the others):
mpmath's Bessel K and Gamma products for the gl2 models, the Baxter operator
in its three conventions, the so operator, the kernel contraction, both
sides of the rank-lowering identity, the pairing integrals and the spherical
transform; for the gl3 coordinate models the spectral-plane model, and for
each so5 model and each commutation ordering the other model or ordering,
at a tighter tolerance.  A seeded sweep covers the 1-4-d boxes once more:
the fused so5 model, the level-2 kernel contraction, the gl3 coordinate model,
the rank-lowering residual, and the Baxter operator at one and two variables
in its three conventions against its eigenvalue times its eigenfunction.
"""

import cmath
import math

import numpy as np
import pytest

from toda_whittaker.gl_baxter import (
    _double_apply_fused,
    baxter_apply,
    baxter_eigenfunction,
    baxter_eigenfunction_batch,
    baxter_eigenvalue,
    dual_baxter_apply,
    lowering_compatibility,
    spherical_transform_rank2,
)
from toda_whittaker.gl_whittaker import (
    givental_eval,
    givental_recursive_eval,
    mb_closed_form_batch,
    mellin_barnes_eval,
    mixed_eval,
)
from toda_whittaker.rankin_selberg import (
    barnes_gustafson_check,
    bump_friedberg_integral,
    double_step_kernel,
    stade_kernel,
)
from toda_whittaker.so_toda import so_baxter_apply, so_givental_eval, so_recursive_eval

mp = pytest.importorskip("mpmath")


def _mp_gl2(lam, x) -> complex:
    """Rank-1 closed form ``2 e^{i (l1 + l2)(x1 + x2)/2} K_{i(l1 - l2)}(2 e^{(x1 - x2)/2})``."""
    (l1, l2), (x1, x2) = lam, x
    k = mp.besselk(1j * (l1 - l2), 2 * mp.exp(0.5 * (x1 - x2)))
    return complex(2 * mp.exp(0.5j * (l1 + l2) * (x1 + x2)) * k)


def _mp_gamma(zs, pi_power: bool = False) -> complex:
    """``prod Gamma(z)``, or ``prod pi**(-z) Gamma(z)`` when ``pi_power``."""
    total = mp.mpc(0)
    for z in zs:
        z = mp.mpc(complex(z))
        total += mp.loggamma(z) - (z * mp.log(mp.pi) if pi_power else 0)
    return complex(mp.exp(total))


def _mp_so3(lam, x) -> complex:
    """so3 closed form ``2 K_{2 i lam}(2 e^{x/2})``."""
    return complex(2 * mp.besselk(2j * lam, 2 * mp.exp(0.5 * x)))


def _mp_stade(top, bot, lam) -> complex:
    """The closed-form Stade kernel with mpmath's Bessel K."""
    ell, order = len(top) - 1, 1j * (lam[0] - lam[1])
    ref = cmath.exp(0.5j * (lam[0] + lam[1]) * (sum(top) - sum(bot)))
    for i in range(ell):
        a_i = math.exp(top[i]) + (math.exp(bot[i - 1]) if i >= 1 else 0.0)
        b_i = math.exp(-top[i + 1]) + (math.exp(-bot[i]) if i <= ell - 2 else 0.0)
        ref *= 2.0 * complex(mp.besselk(order, 2.0 * math.sqrt(a_i * b_i)))
    return ref


def _covers(res, reference) -> None:
    err = abs(res.value - reference)
    assert res.converged
    assert err <= res.abs_error, f"true error {err:.3e} > reported {res.abs_error:.3e}"


def test_rank1_spectral_plane_model():
    rng = np.random.default_rng(71)
    for _ in range(12):
        lam = tuple(rng.uniform(-1.5, 1.5, size=2))
        x = tuple(rng.uniform(-1.5, 1.5, size=2))
        tol = 10.0 ** rng.uniform(-10.0, -3.0)
        _covers(mellin_barnes_eval(lam, x, tol), _mp_gl2(lam, x))


def test_rank1_spectral_plane_model_after_an_accurate_coarse_step():
    # The ninth draw above.  Its T_{1/2} is accidentally accurate, so
    # |T_{1/4} - T_{1/2}| understates the error of T_{1/4}: at these tols
    # the rule stopped there, reporting 1.47e-7 to 2.31e-7 against a true
    # error of 2.43e-7.
    lam, x = (1.3530581250944076, -0.9882765654502303), (0.3391659241898446, 0.8482844495543702)
    for tol in (1.6e-7, 2e-7, 3e-7, 1e-6):
        _covers(mellin_barnes_eval(lam, x, tol), _mp_gl2(lam, x))


@pytest.mark.parametrize("n", [1, 2])
def test_dual_operator(n):
    rng = np.random.default_rng(72 + n)
    for _ in range(4):
        gamma = tuple(rng.uniform(-0.8, 0.8, size=n))
        x = tuple(rng.uniform(-0.6, 0.6, size=n))
        z = float(rng.uniform(0.3, 1.2))
        tol = 10.0 ** rng.uniform(-9.0, -3.0)
        res = dual_baxter_apply(lambda b, x=x: mb_closed_form_batch(b, x), gamma, z, tol)
        base = cmath.exp(-1j * gamma[0] * x[0]) if n == 1 else _mp_gl2((-gamma[0], -gamma[1]), x)
        _covers(res, base * math.exp(-math.exp(x[-1] - z)))


def test_rank2_spectral_plane_model():
    rng = np.random.default_rng(74)
    draws = [((0.6, 0.1, -0.45), (0.3, -0.2, 0.5), 1e-5)]
    for _ in range(3):
        draws.append((tuple(rng.uniform(-0.8, 0.8, size=3)), tuple(rng.uniform(-0.8, 0.8, size=3)),
                      10.0 ** rng.uniform(-7.0, -4.0)))
    for lam, x, tol in draws:
        _covers(mellin_barnes_eval(lam, x, tol), givental_eval(lam, x, tol / 100.0).value)


def test_rank1_mixed_words():
    rng = np.random.default_rng(76)
    for _ in range(6):
        lam = tuple(rng.uniform(-1.5, 1.5, size=2))
        x = tuple(rng.uniform(-1.5, 1.5, size=2))
        tol = 10.0 ** rng.uniform(-9.0, -4.0)
        for word in ("L", "R"):
            _covers(mixed_eval(word, lam, x, tol), _mp_gl2(lam, x))


def test_rank2_mixed_words():
    rng = np.random.default_rng(77)
    draws = [((0.6, 0.1, -0.45), (0.3, -0.2, 0.5), 10.0 ** rng.uniform(-7.0, -4.0))]
    for _ in range(3):
        draws.append((tuple(rng.uniform(-0.8, 0.8, size=3)), tuple(rng.uniform(-0.8, 0.8, size=3)),
                      10.0 ** rng.uniform(-7.0, -4.0)))
    for lam, x, tol in draws:
        reference = givental_eval(lam, x, tol / 100.0).value
        for word in ("LL", "LR", "RL", "RR"):
            _covers(mixed_eval(word, lam, x, tol), reference)
    # The hybrid words at tight tol, where every row of their rank-1 level
    # runs to an absolute 1e-13 or below, or to its rounding floor, 8 eps
    # times its mass.  At the anchor RL's rows have masses up to about 2,200:
    # the word converges down to about 1e-11 and, below that, returns
    # unconverged with an error of about 6e-12.
    anchor = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
    reference = mellin_barnes_eval(*anchor, 1e-14).value
    _covers(mixed_eval("RL", *anchor, 1e-10), reference)
    tight = mixed_eval("RL", *anchor, 1e-12)
    assert abs(tight.value - reference) <= tight.abs_error
    for _ in range(2):
        lam, x = tuple(rng.uniform(-0.8, 0.8, size=3)), tuple(rng.uniform(-0.8, 0.8, size=3))
        tol, reference = 10.0 ** rng.uniform(-11.0, -9.0), mellin_barnes_eval(lam, x, 1e-14).value
        for word in ("LL", "LR", "RL"):
            _covers(mixed_eval(word, lam, x, tol), reference)


def test_barnes_identity():
    rng = np.random.default_rng(75)
    draws = [((0.3 + 0.05j, -0.2 + 0.4j), (0.1 - 0.05j, -0.3 - 0.5j), 1e-6)]  # poles 0.05 off
    for _ in range(4):
        lo = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1.2, -0.3)) for _ in range(2))
        hi = tuple(complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.2)) for _ in range(2))
        draws.append((lo, hi, 10.0 ** rng.uniform(-10.0, -4.0)))
    for lo, hi, tol in draws:
        chk = barnes_gustafson_check(lo, hi, tol)
        assert chk.residual <= chk.abs_error <= tol


def test_gl_coordinate_models():
    # gl2 against mpmath; gl3 against the spectral-plane model at a
    # hundredth of the tolerance.
    rng = np.random.default_rng(81)
    for _ in range(3):
        lam = tuple(rng.uniform(-1.0, 1.0, size=2))
        x = tuple(rng.uniform(-1.0, 1.0, size=2))
        tol = 10.0 ** rng.uniform(-9.0, -4.0)
        for model in (givental_eval, givental_recursive_eval):
            _covers(model(lam, x, tol), _mp_gl2(lam, x))
    for _ in range(2):
        lam = tuple(rng.uniform(-0.8, 0.8, size=3))
        x = tuple(rng.uniform(-0.8, 0.8, size=3))
        tol = 10.0 ** rng.uniform(-6.0, -4.0)
        reference = mellin_barnes_eval(lam, x, tol / 100.0).value
        for model in (givental_eval, givental_recursive_eval):
            _covers(model(lam, x, tol), reference)


def _mp_baxter_eigen(gamma, lam, y, conv) -> complex:
    """Eigenvalue times eigenfunction at ``y``, by mpmath."""
    bases = [1j * gamma - 1j * v for v in lam]
    if conv == "lie":
        eigen = _mp_gamma(bases)
    elif conv == "iwasawa":
        eigen = _mp_gamma([0.5 * b for b in bases])
    else:
        rho = [0.5 * (len(lam) + 1) - j for j in range(1, len(lam) + 1)]
        eigen = _mp_gamma([0.5 * (b + r) for b, r in zip(bases, rho)], pi_power=True)
    if len(lam) == 1:
        return eigen * cmath.exp(1j * lam[0] * y[0])
    (s1, s2), d = lam, y[0] - y[1]
    if conv == "lie":
        return eigen * _mp_gl2(lam, y)
    if conv == "iwasawa":
        return eigen * _mp_gl2((0.5 * s1, 0.5 * s2), (2.0 * y[0], 2.0 * y[1]))
    k = complex(mp.besselk(0.5j * (s1 - s2) - 0.5, 2 * mp.pi * mp.exp(d)))
    return eigen * 2.0 * math.exp(0.5 * d) * cmath.exp(0.5j * (s1 + s2) * (y[0] + y[1])) * k


@pytest.mark.parametrize("conv", ["lie", "iwasawa", "iwasawa_pi"])
def test_baxter_operator(conv):
    rng = np.random.default_rng(["lie", "iwasawa", "iwasawa_pi"].index(conv) + 82)
    lo, hi = (1.0, 1.4) if conv == "lie" else (2.2, 2.6)
    draws = []
    for _ in range(2):
        draws.append(((float(rng.uniform(0.2, 0.6)),), (float(rng.uniform(-0.4, 0.5)),),
                      -1j * float(rng.uniform(lo, hi)), 10.0 ** rng.uniform(-9.0, -5.0)))
    a = float(rng.uniform(0.3, 0.5))
    draws.append(((a, -a), tuple(rng.uniform(-0.2, 0.2, size=2)),
                  -1j * float(rng.uniform(lo + 1.0, hi + 1.0)), 10.0 ** rng.uniform(-5.0, -3.0)))
    for lam, y, gamma, tol in draws:
        res = baxter_apply(lambda xs, lam=lam: baxter_eigenfunction_batch(lam, xs, conv), y, gamma, conv,
                           tol, psi_spectral=lam)
        _covers(res, _mp_baxter_eigen(gamma, lam, y, conv))


def test_so_models():
    # Each so5 model against the other at a tenth of the tolerance.  The
    # first draw is where the fused model once reported 9.85e-7 with a true
    # error of 8.1e-6.
    rng = np.random.default_rng(85)
    draws = [((0.4, 0.1), (0.0, 0.3), 1e-6)]
    draws.append((tuple(rng.uniform(-0.8, 0.8, size=2)), tuple(rng.uniform(-0.6, 0.6, size=2)),
                  10.0 ** rng.uniform(-5.0, -4.0)))
    for i, (lam, x, tol) in enumerate(draws):
        _covers(so_givental_eval(lam, x, tol), so_recursive_eval(lam, x, tol / 10.0).value)
        if i:
            _covers(so_recursive_eval(lam, x, tol), so_givental_eval(lam, x, tol / 10.0).value)
    lam, x = (float(rng.uniform(0.1, 1.0)),), (float(rng.uniform(-1.0, 1.0)),)
    _covers(so_recursive_eval(lam, x, 10.0 ** rng.uniform(-10.0, -6.0)), _mp_so3(lam[0], x[0]))


@pytest.mark.parametrize("seed", [0, 2, 5, 7, 12, 15, 18, 19, 23, 25, 28])
def test_so_recursive_model_at_tight_tolerance(seed):
    # On its adaptive 3-D box the recursive model raised BudgetExceeded at
    # tol 1e-10 on these draws, after 3,993,066 evaluations.  The star
    # contraction with centre b converges in about a thousand factor values.
    rng = np.random.default_rng(seed)
    lam, x = tuple(rng.uniform(-0.8, 0.8, size=2)), tuple(rng.uniform(-0.6, 0.6, size=2))
    res = so_recursive_eval(lam, x, 1e-10)
    _covers(res, so_givental_eval(lam, x, 1e-13).value)


@pytest.mark.parametrize("seed", [9, 14])
def test_so_fused_model_draws_that_under_reported(seed):
    # On the adaptive 4-D box these draws returned converged values whose
    # true errors, 2.2e-5 and 1.9e-5, exceeded the reported 2.1e-5 and
    # 1.4e-5.  The star contraction on the lattice is within 2e-13 of the
    # reference.
    rng = np.random.default_rng(seed)
    lam, x = tuple(rng.uniform(-0.8, 0.8, size=2)), tuple(rng.uniform(-0.6, 0.6, size=2))
    tol = 10.0 ** rng.uniform(-6.0, -4.0)
    _covers(so_givental_eval(lam, x, tol), so_recursive_eval(lam, x, 1e-10).value)


def test_gl3_coordinate_model_against_the_spectral_plane():
    # The fused gl3 model (a star contraction on the lattice) against the
    # spectral-plane model at a hundredth of the tolerance, over a wider
    # range than the sweep below.  The last draw's real spread, 7.5, is past
    # 2 pi, so the step must fall to 1/8 before the rule may stop (h <= pi /
    # (2 frequency)): it takes about twice the values of the same box with
    # the parameters scaled by a tenth, which stops at h = 1/4.
    rng = np.random.default_rng(95)
    draws = [(tuple(rng.uniform(-1.5, 1.5, size=3)), tuple(rng.uniform(-1.0, 1.0, size=3)),
              10.0 ** rng.uniform(-9.0, -4.0)) for _ in range(6)]
    fast = ((4.0, 0.5, -3.5), (0.2, -0.3, 0.4), 1e-5)
    for lam, x, tol in draws + [fast]:
        res = givental_eval(lam, x, tol)
        _covers(res, mellin_barnes_eval(lam, x, tol / 100.0).value)
        assert givental_eval(lam, x, tol) == res
    slow = givental_eval(tuple(0.1 * v for v in fast[0]), *fast[1:])
    assert res.evaluations > 1.8 * slow.evaluations


def test_so_operator():
    # The first draw is where the floor of the second middle variable, cut
    # at twice the slowest rate, left a tail: reported 9.95e-8, true error
    # 1.63e-7.  At the next three the fused 3-D box returned converged at
    # tol 1e-8 with true errors of 9.3e-8, 4.6e-7 and 1.24e-6.
    rng = np.random.default_rng(86)
    draws = [(-0.8j, 0.5, 0.2, 1e-7), (-0.94560j, 0.14209, 0.60255, 1e-8), (-0.99324j, 0.23474, 0.03348, 1e-8),
             (-1.53207j, 0.35208, 0.47568, 1e-8)]
    draws.append((-1j * float(rng.uniform(1.5, 1.7)), float(rng.uniform(0.3, 0.5)), float(rng.uniform(-0.2, 0.2)),
                  10.0 ** rng.uniform(-4.0, -3.0)))
    for gamma, lam, y, tol in draws:
        eigen = _mp_gamma([1j * gamma + 1j * lam, 1j * gamma - 1j * lam])
        _covers(so_baxter_apply(gamma, (lam,), (y,), tol), eigen * _mp_so3(lam, y))


def test_kernel_contraction():
    # Two chained step kernels against the closed-form Stade kernel.
    rng = np.random.default_rng(87)
    for ell in (1, 2, 2):
        lam = tuple(rng.uniform(-1.0, 1.0, size=2))
        top = tuple(rng.uniform(-1.0, 1.0, size=ell + 1))
        bot = tuple(rng.uniform(-1.0, 1.0, size=ell - 1))
        tol = 10.0 ** rng.uniform(-8.0, -5.0)
        _covers(double_step_kernel(top, bot, lam, tol), _mp_stade(top, bot, lam))


@pytest.mark.parametrize("seed", range(12))
def test_kernel_contraction_at_three_to_five_middle_entries(seed):
    # On the adaptive 3-5-d boxes eight of these draws returned converged
    # values whose true errors exceeded the reported ones: at ell = 4 the
    # seeds 0, 7 and 9, at ell = 5 the seeds 3, 6, 8, 9 and 11, by up to
    # 2.25 times (seed 11: 1.14e-9 true, 5.07e-10 reported).  The product
    # of the middle entries' 1-D lattice sums covers each.
    rng = np.random.default_rng(seed)
    for ell in (3, 4, 5):
        top, bot = rng.uniform(-1.0, 1.0, size=ell + 1), rng.uniform(-1.0, 1.0, size=ell - 1)
        lam, tol = rng.uniform(-1.0, 1.0, size=2), 10.0 ** rng.uniform(-9.0, -6.0)
        _covers(double_step_kernel(top, bot, lam, tol), _mp_stade(top, bot, lam))


def test_lowering_identity():
    # Both sides against Gamma(i gamma - i lam) times the one-variable side
    # in closed form: the integral of e^{a u - A e^{-u} - B e^{u}} is
    # 2 (A / B)^{a / 2} K_a(2 sqrt(A B)).
    rng = np.random.default_rng(88)
    for _ in range(3):
        gamma, lam = -1j * float(rng.uniform(1.0, 1.5)), float(rng.uniform(0.1, 0.5))
        y = (float(rng.uniform(0.0, 0.5)), float(rng.uniform(-0.4, 0.0)))
        x, tol = float(rng.uniform(-0.3, 0.2)), 10.0 ** rng.uniform(-9.0, -5.0)
        a, big_a, big_b = 1j * (gamma - lam), math.exp(y[0]), math.exp(-y[1]) + math.exp(-x)
        inner = 2 * mp.power(big_a / big_b, a / 2) * mp.besselk(a, 2 * mp.sqrt(big_a * big_b))
        phase = cmath.exp(1j * lam * (y[0] + y[1]) - 1j * gamma * x)
        ref = _mp_gamma([1j * gamma - 1j * lam]) * phase * complex(inner)
        chk = lowering_compatibility(gamma, lam, y, x, tol)
        assert abs(chk.lhs - ref) + abs(chk.rhs - ref) <= chk.abs_error


def test_pairing_integrals():
    rng = np.random.default_rng(89)
    draws = []
    for _ in range(3):
        draws.append((0, (float(rng.uniform(0.0, 0.4)),), (float(rng.uniform(0.0, 0.3)),),
                      -1j * float(rng.uniform(0.7, 1.2)), 10.0 ** rng.uniform(-10.0, -6.0)))
    a, b = float(rng.uniform(0.3, 0.5)), float(rng.uniform(0.1, 0.3))
    draws.append((1, (a, -a), (b, -b), -1j * float(rng.uniform(1.6, 2.0)), 10.0 ** rng.uniform(-5.0, -3.0)))
    for _ in range(2):
        a, b = float(rng.uniform(0.3, 0.5)), float(rng.uniform(0.1, 0.3))
        draws.append((1, (a, -a), (b, -b), -1j * float(rng.uniform(1.6, 2.0)), 10.0 ** rng.uniform(-7.0, -4.0)))
    for ell, gamma, lam, t, tol in draws:
        ref = _mp_gamma([1j * t + 1j * lk - 1j * complex(gj).conjugate() for lk in lam for gj in gamma])
        _covers(bump_friedberg_integral(ell, gamma, lam, t, tol), ref)


def test_spherical_transform():
    rng = np.random.default_rng(90)
    draws = []
    for _ in range(2):
        draws.append((tuple(rng.uniform(-0.8, 0.8, size=2)), -1j * float(rng.uniform(1.5, 2.0)),
                      10.0 ** rng.uniform(-6.0, -4.0)))
    for _ in range(6):
        gamma = tuple(complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)) for _ in range(2))
        draws.append((gamma, -1j * float(rng.uniform(1.5, 3.0)), 10.0 ** rng.uniform(-7.0, -4.0)))
    for gamma, lam, tol in draws:
        z = [0.5 * (1j * lam - 1j * g + r) for g, r in zip(gamma, (0.5, -0.5))]
        _covers(spherical_transform_rank2(lam, gamma, tol), _mp_gamma(z, pi_power=True))


def test_commutation_orderings():
    # Each fused ordering of two operators against the other ordering at a
    # tenth of the tolerance.  The first draw is where the ordering
    # (-1.4i, -0.9i) once reported 9.7e-7 with a true error of 1.2e-5.
    rng = np.random.default_rng(91)
    draws = [((-1.4j, -0.9j), (0.4, -0.4), (0.2, -0.1), 1e-6)]
    draws.append(((-1j * float(rng.uniform(0.8, 1.0)), -1j * float(rng.uniform(1.3, 1.5))),
                  (float(rng.uniform(0.2, 0.6)),), (float(rng.uniform(-0.3, 0.3)),),
                  10.0 ** rng.uniform(-7.0, -5.0)))
    for (ga, gb), lam, y, tol in draws:
        lam, y = tuple(complex(v) for v in lam), np.asarray(y)
        res = _double_apply_fused(ga, gb, lam, y, tol, 4_000_000)
        _covers(res, _double_apply_fused(gb, ga, lam, y, tol / 10.0, 4_000_000).value)


def _sweep_so5(rng):
    lam, x = tuple(rng.uniform(-0.8, 0.8, size=2)), tuple(rng.uniform(-0.6, 0.6, size=2))
    tol = 10.0 ** rng.uniform(-6.0, -4.0)
    _covers(so_givental_eval(lam, x, tol), so_recursive_eval(lam, x, tol / 10.0).value)


def _sweep_double_step(rng):
    top, bot, lam = rng.uniform(-1.0, 1.0, size=3), rng.uniform(-1.0, 1.0, size=1), rng.uniform(-1.0, 1.0, size=2)
    _covers(double_step_kernel(top, bot, lam, 10.0 ** rng.uniform(-9.0, -5.0)), stade_kernel(top, bot, lam))


def _sweep_gl3(rng):
    lam, x = tuple(rng.uniform(-0.8, 0.8, size=3)), tuple(rng.uniform(-0.8, 0.8, size=3))
    tol = 10.0 ** rng.uniform(-7.0, -4.0)
    _covers(givental_eval(lam, x, tol), mellin_barnes_eval(lam, x, tol / 100.0).value)


def _sweep_lowering(rng):
    gamma, lam = -1j * float(rng.uniform(1.0, 1.5)), float(rng.uniform(0.1, 0.5))
    y, x = (float(rng.uniform(0.0, 0.5)), float(rng.uniform(-0.4, 0.0))), float(rng.uniform(-0.3, 0.2))
    chk = lowering_compatibility(gamma, lam, y, x, 10.0 ** rng.uniform(-9.0, -5.0))
    assert chk.residual <= chk.abs_error


def _sweep_baxter(n):
    def draw(rng):
        lam, y = tuple(rng.uniform(-0.6, 0.6, size=n)), tuple(rng.uniform(-0.5, 0.5, size=n))
        tol = 10.0 ** rng.uniform(-9.0, -4.0)
        for conv in ("lie", "iwasawa", "iwasawa_pi"):
            gamma = -1j * (float(rng.uniform(0.0, 0.4)) + (1.0 if conv == "lie" else 2.2) + n - 1)
            res = baxter_apply(lambda xs: baxter_eigenfunction_batch(lam, xs, conv), y, gamma, conv, tol,
                               psi_spectral=lam)
            _covers(res, baxter_eigenvalue(gamma, lam, conv) * baxter_eigenfunction(lam, y, conv))

    return draw


def _fast_lam(rng, n):
    """Parameters a draw's integrand oscillates fast in: at n = 2 with
    ``|l1 - l2|`` in [10, 30], at n = 1 with ``|l|`` there."""
    spread = float(rng.uniform(10.0, 30.0) * rng.choice([-1.0, 1.0]))
    if n == 1:
        return (spread,)
    c = float(rng.uniform(-1.0, 1.0))
    return (c + 0.5 * spread, c - 0.5 * spread)


def _sweep_fast_gl2(rng):
    lam, x = _fast_lam(rng, 2), tuple(rng.uniform(-0.5, 0.5, size=2))
    _covers(givental_eval(lam, x, 10.0 ** rng.uniform(-8.0, -4.0)), _mp_gl2(lam, x))


def _sweep_fast_baxter(n):
    def draw(rng):
        lam, y = _fast_lam(rng, n), tuple(rng.uniform(-0.5, 0.5, size=n))
        tol = 10.0 ** rng.uniform(-8.0, -4.0)
        for conv in ("lie", "iwasawa", "iwasawa_pi"):
            gamma = -1j * ((1.0 if conv == "lie" else 2.2) + n - 1) + float(rng.uniform(-1.0, 1.0))
            res = baxter_apply(lambda xs: baxter_eigenfunction_batch(lam, xs, conv), y, gamma, conv, tol,
                               psi_spectral=lam)
            _covers(res, baxter_eigenvalue(gamma, lam, conv) * baxter_eigenfunction(lam, y, conv))

    return draw


@pytest.mark.parametrize(
    "draw, count",
    [(_sweep_so5, 4), (_sweep_double_step, 10), (_sweep_gl3, 6), (_sweep_lowering, 10),
     (_sweep_baxter(2), 10), (_sweep_baxter(1), 4),
     (_sweep_fast_gl2, 8), (_sweep_fast_baxter(1), 6), (_sweep_fast_baxter(2), 2)],
    ids=["so5", "double_step", "gl3", "lowering", "baxter_rank2", "baxter_rank1",
         "fast_gl2", "fast_baxter_rank1", "fast_baxter_rank2"],
)
def test_box_sweep(draw, count):
    # The 1-4-d boxes over wider draws than the tests above: the order in
    # which the adaptive engine refines its regions, or the step at which
    # the lattice stops, decides whether their error bars hold.  The fast
    # draws oscillate past pi / h at h = 1/4, where the lattice once stopped
    # on a difference that held none of the aliases near zero.
    rng = np.random.default_rng(92)
    for _ in range(count):
        draw(rng)
