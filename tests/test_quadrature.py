"""Deterministic integration: adaptive over boxes and R^d, trapezoid along contours."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_whittaker.errors import BudgetExceeded
from toda_whittaker.quadrature import (
    ContourSpec,
    DecayProfile,
    DoubleExponential,
    Exponential,
    integrate_box,
    integrate_contour,
    integrate_decaying,
    stable_exp,
)


class TestBox:
    def test_polynomial_1d(self):
        res = integrate_box(lambda p: p[:, 0] ** 2 + 0j, [(0.0, 1.0)], 1e-12)
        assert res.converged
        assert abs(res.value - 1.0 / 3.0) < 1e-12

    def test_polynomial_2d(self):
        res = integrate_box(
            lambda p: p[:, 0] ** 2 + p[:, 1] + 0j, [(0.0, 1.0), (0.0, 1.0)], 1e-12
        )
        assert abs(res.value - (1.0 / 3.0 + 0.5)) < 1e-11

    def test_gaussian_2d(self):
        res = integrate_box(
            lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2) + 0j,
            [(-8.0, 8.0), (-8.0, 8.0)],
            1e-10,
        )
        assert abs(res.value - math.pi) < 1e-9

    def test_oscillatory_complex(self):
        res = integrate_box(lambda p: np.exp(1j * p[:, 0]), [(0.0, math.pi)], 1e-12)
        assert abs(res.value - (0.0 + 2.0j)) < 1e-11

    def test_determinism_bit_identical(self):
        f = lambda p: np.exp(-p[:, 0] ** 2 + 0.3 * p[:, 1]) * np.cos(p[:, 0] * p[:, 1]) + 0j
        box = [(-3.0, 3.0), (0.0, 1.0)]
        a = integrate_box(f, box, 1e-9)
        b = integrate_box(f, box, 1e-9)
        assert a.value == b.value
        assert a.abs_error == b.abs_error
        assert a.evaluations == b.evaluations

    def test_linearity_on_shared_grid(self):
        box = [(0.0, 2.0)]
        f = lambda p: np.sin(p[:, 0]) + 0j
        g = lambda p: p[:, 0] ** 3 + 0j
        combo = integrate_box(lambda p: 2.0 * f(p) + g(p), box, 1e-12).value
        parts = 2.0 * integrate_box(f, box, 1e-12).value + integrate_box(g, box, 1e-12).value
        assert abs(combo - parts) < 1e-11

    def test_budget_exceeded_carries_partial_result(self):
        f = lambda p: np.cos(40.0 * p[:, 0]) * np.exp(np.sin(13.0 * p[:, 0])) + 0j
        with pytest.raises(BudgetExceeded) as info:
            integrate_box(f, [(0.0, 10.0)], 1e-15, max_evals=120)
        assert info.value.result is not None
        assert info.value.result.evaluations <= 200
        assert not info.value.result.converged

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.tuples(
            st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
        )
    )
    def test_cubic_exact(self, coeffs):
        a, b, c = coeffs
        res = integrate_box(
            lambda p: a * p[:, 0] ** 3 + b * p[:, 0] + c + 0j, [(0.0, 1.0)], 1e-12
        )
        exact = a / 4.0 + b / 2.0 + c
        assert abs(res.value - exact) < 1e-10


class TestDecaying:
    def test_gaussian_full_line(self):
        profile = DecayProfile([(DoubleExponential(1.0), DoubleExponential(1.0))])
        res = integrate_decaying(
            lambda p: np.exp(-p[:, 0] ** 2) + 0j, profile, 1e-10
        )
        assert abs(res.value - math.sqrt(math.pi)) < 1e-9

    def test_two_sided_exponential(self):
        profile = DecayProfile([(Exponential(1.0), Exponential(1.0))])
        res = integrate_decaying(lambda p: np.exp(-np.abs(p[:, 0])) + 0j, profile, 1e-9)
        assert abs(res.value - 2.0) < 1e-8

    def test_2d_product_gaussian(self):
        side = (DoubleExponential(1.0), DoubleExponential(1.0))
        profile = DecayProfile([side, side])
        res = integrate_decaying(
            lambda p: np.exp(-p[:, 0] ** 2 - 0.5 * p[:, 1] ** 2) + 0j, profile, 1e-8
        )
        exact = math.sqrt(math.pi) * math.sqrt(2.0 * math.pi)
        assert abs(res.value - exact) < 1e-7


class TestContour:
    def test_shifted_gaussian_line(self):
        # Horizontal line Im(u) = 0.3; entire integrand, so the value matches
        # the real-axis Gaussian integral.
        res = integrate_contour(
            lambda z: np.exp(-z[:, 0] ** 2), ContourSpec([[0.3]]), 2, 1e-9
        )
        assert abs(res.value - math.sqrt(math.pi)) < 1e-8

    def test_offset_independence(self):
        f = lambda z: np.exp(-z[:, 0] ** 2 + 0.2 * z[:, 0])
        a = integrate_contour(f, ContourSpec([[0.1]]), 2, 1e-9).value
        b = integrate_contour(f, ContourSpec([[0.6]]), 2, 1e-9).value
        assert abs(a - b) < 1e-8

    def test_two_dimensional_gaussian(self):
        f = lambda z: np.exp(-z[:, 0] ** 2 - 0.5 * z[:, 1] ** 2 + 0.3j * z[:, 0] * z[:, 1])
        res = integrate_contour(f, ContourSpec([[0.0, 0.0]]), 2, 1e-10)
        exact = 2.0 * math.pi / np.sqrt(4.0 * 0.5 + 0.3**2)
        assert res.converged
        assert abs(res.value - exact) <= res.abs_error <= 1e-10

    def test_each_node_evaluated_once(self):
        # Halving the step reuses every node: the rows handed to the
        # integrand are distinct and together form the final step's full
        # tensor grid, whose node count is ``evaluations``.
        rows = []

        def f(z):
            rows.append(z.copy())
            return np.exp(-z[:, 0] ** 2 - z[:, 1] ** 2)

        res = integrate_contour(f, ContourSpec([[0.2, 0.2]]), 2, 1e-9)
        pts = np.concatenate(rows)
        side = np.unique(pts[:, 0]).size
        assert len(rows) > 1
        assert res.evaluations == pts.shape[0] == np.unique(pts, axis=0).shape[0] == side**2
        assert np.array_equal(np.unique(pts[:, 1]), np.unique(pts[:, 0]) + 0j)

    def test_repeated_calls_are_bit_identical(self):
        f = lambda z: np.exp(-z[:, 0] ** 2 - z[:, 1] ** 2 + 0.4j * z[:, 0] * z[:, 1])
        a = integrate_contour(f, ContourSpec([[0.1], [0.3]]), 2, 1e-8)
        b = integrate_contour(f, ContourSpec([[0.1], [0.3]]), 2, 1e-8)
        assert (a.value, a.abs_error, a.evaluations) == (b.value, b.abs_error, b.evaluations)

    def test_budget_exceeded_carries_the_last_estimate(self):
        f = lambda z: np.exp(-z[:, 0] ** 2)
        with pytest.raises(BudgetExceeded) as info:
            integrate_contour(f, ContourSpec([[0.3]]), 2, 1e-12, max_evals=10)
        res = info.value.result
        assert not res.converged
        assert res.evaluations > 10  # the first step always runs
        assert abs(res.value - math.sqrt(math.pi)) < 1e-3


def test_stable_exp_clamps_overflow():
    big = stable_exp(np.asarray([1000.0 + 0.5j, -1000.0 + 0j, 0.0 + 0j]))
    assert np.all(np.isfinite(big))
    assert big[2] == 1.0 + 0j
