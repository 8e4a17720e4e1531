"""Convolution-type pairing integrals, kernel contraction identities, and the
two-row contour identity."""

import cmath
import math

import numpy as np
import pytest

from toda_whittaker import rankin_selberg
from toda_whittaker.errors import ContourError, RankError, ShiftError
from toda_whittaker.gl_whittaker import closed_form_gl2
from toda_whittaker.numerics import _macdonald_grid, macdonald_k
from toda_whittaker.rankin_selberg import (
    barnes_gustafson_check,
    bump_friedberg_integral,
    bump_friedberg_prediction,
    bump_inner_correlation,
    bump_inner_correlation_prediction,
    double_step_kernel,
    stade_kernel,
)

from _oracles import BARNES_RHS, BF_ELL1_RHS, GAMMA_0P7, GAMMA_1_M02I


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class TestKernelContraction:
    def test_level1_is_rank2_closed_form(self):
        lam = (0.5, -0.5)
        for x in ((0.3, -0.2), (-0.6, 0.4)):
            assert _rel(stade_kernel(x, (), lam), closed_form_gl2(lam, x)) < 1e-13

    def test_double_step_matches_level1(self):
        lam = (0.5, -0.5)
        x = (0.3, -0.2)
        quad = double_step_kernel(x, (), lam, 1e-8)
        assert abs(quad.value - stade_kernel(x, (), lam)) < 1e-7

    def test_double_step_matches_level2(self):
        lam = (0.5, -0.5)
        x_top, x_bot = (0.3, 0.0, -0.3), (0.1,)
        quad = double_step_kernel(x_top, x_bot, lam, 1e-6)
        assert abs(quad.value - stade_kernel(x_top, x_bot, lam)) < 1e-5

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_closed_form_has_the_bits_of_scalar_macdonald_calls(self, ell):
        # Its ell Macdonald factors come from one grid call, and a sweep's
        # rows from one call together: each value is the product, in order,
        # of one scalar call per factor.
        rng = np.random.default_rng(ell)
        lam = tuple(rng.uniform(-2.0, 2.0, size=2) + [0.3j, 0.0])
        bot = [float(v) for v in rng.uniform(-2.0, 2.0, size=ell - 1)]
        tops = [[float(v) for v in rng.uniform(-2.0, 2.0, size=ell + 1)] for _ in range(4)]
        for top, swept in zip(tops, rankin_selberg._stade_rows(tops, bot, lam)):
            value = cmath.exp(0.5j * (lam[0] + lam[1]) * (sum(top) - sum(bot)))
            for i in range(ell):
                a_i = math.exp(top[i]) + (math.exp(bot[i - 1]) if i >= 1 else 0.0)
                b_i = math.exp(-top[i + 1]) + (math.exp(-bot[i]) if i <= ell - 2 else 0.0)
                value *= 2.0 * macdonald_k(1j * (lam[0] - lam[1]), 2.0 * math.sqrt(a_i * b_i))
            assert stade_kernel(top, bot, lam) == swept == value

    def test_rank_validation(self):
        with pytest.raises(RankError):
            stade_kernel((0.3,), (), (0.5, -0.5))  # top too short
        with pytest.raises(RankError):
            stade_kernel((0.3, 0.0, -0.3), (), (0.5, -0.5))  # bottom mismatch


class TestPairingIntegrals:
    def test_level0_gamma_values(self):
        res = bump_friedberg_integral(0, (0.0,), (0.0,), -0.7j, 1e-8)
        assert abs(res.value - GAMMA_0P7) < 1e-7
        res = bump_friedberg_integral(0, (0.3,), (0.1,), -1.0j, 1e-8)
        assert abs(res.value - GAMMA_1_M02I) < 1e-7

    def test_level1_prediction_formula(self):
        pred = bump_friedberg_prediction((0.4, -0.4), (0.2, -0.2), -0.8j)
        assert _rel(pred, BF_ELL1_RHS) < 1e-12

    def test_level1_integral_matches_prediction(self):
        res = bump_friedberg_integral(1, (0.4, -0.4), (0.2, -0.2), -0.8j, 1e-4)
        assert abs(res.value - BF_ELL1_RHS) < 2e-3

    def test_level1_takes_both_macdonald_factors_from_one_call(self, monkeypatch):
        # Both rank-1 functions' Macdonald factors come from one kernel call
        # on the same arguments, with the bits of one grid call per order.
        seen, pairs = [], rankin_selberg._macdonald_pairs
        monkeypatch.setattr(rankin_selberg, "_macdonald_pairs",
                            lambda nu, y, b: seen.append((nu, y, b, pairs(nu, y, b))) or seen[-1][-1])
        bump_friedberg_integral(1, (0.4, -0.4), (0.2, -0.2), -0.8j, 1e-4)
        assert seen
        for nu, y, budget, values in seen:
            half = y.size // 2
            assert (y[1:half] > y[:half - 1]).all() and np.array_equal(y[:half], y[half:])
            separate = [_macdonald_grid(order, y[:half], budget) for order in (nu[0], nu[half])]
            assert np.array_equal(values, np.concatenate(separate))

    def test_shift_gate(self):
        with pytest.raises(ShiftError):
            bump_friedberg_integral(0, (0.0,), (0.0,), -0.1j, 1e-8)

    def test_level_gate(self):
        with pytest.raises(RankError):
            bump_friedberg_integral(2, (0.1, 0.0, -0.1), (0.2, 0.0, -0.2), -0.8j, 1e-4)
        with pytest.raises(RankError):
            bump_friedberg_integral(0, (0.1, 0.2), (0.3,), -0.8j, 1e-8)


class TestInnerCorrelation:
    def test_matches_prediction(self):
        gam, lam, t = (0.3,), (0.2, -0.2), -0.8j
        for x_last in (-0.4, 0.6):
            res = bump_inner_correlation(1, gam, lam, t, x_last, 1e-7)
            pred = bump_inner_correlation_prediction(gam, lam, t, x_last)
            assert abs(res.value - pred) < 1e-6

    def test_modulus_constant_when_slope_real(self):
        # gamma = -0.8i, lam = (0.3, -0.2), t = +0.4i gives a purely real
        # phase slope, so the modulus must not depend on the anchor point.
        gam, lam, t = (-0.8j,), (0.3, -0.2), 0.4j
        mags = []
        for x_last in (-0.5, 0.0, 0.7):
            res = bump_inner_correlation(1, gam, lam, t, x_last, 1e-7)
            mags.append(abs(res.value))
        assert max(mags) - min(mags) < 1e-5

    def test_prediction_phase_slope(self):
        gam, lam, t = (0.3,), (0.2, -0.2), -0.8j
        a = lam[0] + lam[1] + 2 * t - complex(gam[0]).conjugate()
        p0 = bump_inner_correlation_prediction(gam, lam, t, 0.0)
        p1 = bump_inner_correlation_prediction(gam, lam, t, 0.9)
        assert _rel(p1, cmath.exp(1j * a * 0.9) * p0) < 1e-12


class TestTwoRowContour:
    def test_reference_value(self):
        chk = barnes_gustafson_check((-0.5j, -0.7j), (0.5j, 0.6j), 1e-8)
        assert _rel(chk.rhs, BARNES_RHS) < 1e-12
        assert chk.residual < 1e-7

    def test_role_swap_agrees(self):
        a = barnes_gustafson_check((-0.5j, -0.7j), (0.5j, 0.6j), 1e-8)
        b = barnes_gustafson_check((0.5j, 0.6j), (-0.5j, -0.7j), 1e-8)
        assert a.rhs == b.rhs
        assert abs(a.lhs - b.lhs) < 1e-8

    def test_generic_complex_draw(self):
        chk = barnes_gustafson_check(
            (0.3 - 0.6j, -0.2 - 0.5j), (0.1 + 0.4j, -0.3 + 0.55j), 1e-8
        )
        assert chk.residual < 1e-7

    def test_real_for_conjugate_symmetric_input(self):
        chk = barnes_gustafson_check((-0.5j, -0.7j), (0.5j, 0.6j), 1e-8)
        assert abs(chk.lhs.imag) < 1e-8
        assert abs(chk.rhs.imag) < 1e-12

    def test_inadmissible_rows_rejected(self):
        with pytest.raises(ContourError):
            barnes_gustafson_check((0.1j, 0.2j), (0.15j, 0.25j), 1e-8)
