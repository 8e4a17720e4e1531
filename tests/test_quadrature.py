"""Deterministic integration: adaptive over boxes, cut to a box by one
truncation rule on R^d, trapezoid along contours and on the truncated 1-D
and 2-D boxes."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_whittaker import gl_baxter, gl_whittaker, quadrature, rankin_selberg, so_toda
from toda_whittaker.errors import BudgetExceeded
from toda_whittaker.gl_baxter import (
    _LIE,
    CommutationCheck,
    IdentityCheck,
    _double_apply_fused,
    _kernel_exponent_rows,
    baxter_apply,
    baxter_eigenfunction_batch,
    dual_baxter_apply,
    lowering_compatibility,
    spherical_transform_rank2,
)
from toda_whittaker.gl_whittaker import (
    closed_form_gl2_batch,
    default_contour,
    givental_eval,
    givental_recursive_eval,
    mb_closed_form_batch,
    mellin_barnes_eval,
    mixed_eval,
)
from toda_whittaker.numerics import _quadrature_budget, gamma_product, log_gamma_array, macdonald_k
from toda_whittaker.quadrature import (
    ContourSpec,
    QuadratureResult,
    _integrate_truncated,
    _rate_reach,
    _wall_reach,
    integrate_box,
    integrate_contour,
    stable_exp,
)
from toda_whittaker.rankin_selberg import bump_friedberg_integral, bump_inner_correlation, double_step_kernel
from toda_whittaker.so_toda import so_baxter_apply, so_givental_eval, so_recursive_eval


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

    def test_generations_grow_with_the_region_count(self, monkeypatch):
        # About 1.9 million evaluations of the rank-2 commutation box (4-D).
        # Splitting a fixed batch of 12 regions per generation took 2,177
        # integrand calls on the gl3 pattern box, which now goes to the star
        # contraction; splitting the worst eighth of the open regions takes
        # about 240 here, each of at most 8,192 points.
        calls = []
        box = quadrature.integrate_box

        def counted(f, *args):
            def g(points):
                calls.append(points.shape[0])
                return f(points)

            return box(g, *args)

        monkeypatch.setattr(quadrature, "integrate_box", counted)
        res = _double_apply_fused(-1.4j, -0.9j, (0.4, -0.4), np.array([0.2, -0.1]), 3e-9, 4_000_000)
        assert res.converged and res.evaluations > 10**6
        assert sum(calls) == res.evaluations
        assert len(calls) <= 300
        assert max(calls) <= 8192

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


class TestTruncation:
    @pytest.mark.parametrize("tol, sides, params", [(1e-3, 2, ()), (1e-8, 6, (0.3j,)), (1e-12, 8, (2j, -1j))])
    def test_wall_reach_leaves_the_side_budget(self, tol, sides, params):
        # The tail of exp(-e^u + slack u) past a is at most
        # exp(-e^a + slack a) / (e^a - slack).
        a = _wall_reach(tol, sides, params)
        slack = 1.0 + sum(abs(p.imag) for p in params)
        tail = math.exp(-math.exp(a) + slack * a) / (math.exp(a) - slack)
        assert tail <= tol / (10.0 * sides)

    def test_rate_reach_leaves_the_side_budget(self):
        for rate in (0.25, 1.0, 3.0):
            assert math.exp(-rate * _rate_reach(1e-9, 4, rate)) / rate <= 1e-9 / 40.0

    def test_two_walls(self):
        # integral of exp(-e^u - e^{-u}) over R is 2 K_0(2).
        tol = 1e-10
        r = _wall_reach(tol, 2)
        res = _integrate_truncated(lambda p: np.exp(-2.0 * np.cosh(p[:, 0])) + 0j, [(-r, r)], tol, 10**6)
        assert res.converged
        assert abs(res.value - 2.0 * macdonald_k(0.0, 2.0)) <= res.abs_error <= tol

    def test_wall_and_rate(self):
        # integral of exp(a u - e^u) over R is Gamma(a).
        tol, a = 1e-9, 0.7 + 0.4j
        box = [(-_rate_reach(tol, 2, a.real), _wall_reach(tol, 2, (a,)))]
        res = _integrate_truncated(lambda p: np.exp(a * p[:, 0] - np.exp(p[:, 0])), box, tol, 10**6)
        assert res.converged
        assert abs(res.value - gamma_product([a])) <= res.abs_error <= tol

    def test_walls_that_close_the_box(self):
        # Walls at x_1 = 14 and x_2 = 0 cross before their reaches: the
        # function is below the tail bound everywhere (these raised
        # ValueError, "every box side needs lo < hi").
        for res in (givental_eval((0.5, -0.5), (14.0, 0.0), 1e-8), so_givental_eval((0.5,), (14.0,), 1e-8)):
            assert res.converged
            assert abs(res.value) <= res.abs_error


def _gaussian_2d(p):
    return np.exp(-(p[:, 0] - 0.3) ** 2 - 0.5 * (p[:, 1] + 0.2) ** 2 + 0.4j * p[:, 0]) + 0j


def _gaussian_axes(axes):
    """:func:`_gaussian_2d` on the grid of two tensor axes."""
    u, v = axes[0][:, None], axes[1][None, :]
    return np.exp(-(u - 0.3) ** 2 - 0.5 * (v + 0.2) ** 2 + 0.4j * u) + 0j


def _grid_rows(axes):
    """The nodes of the grid of ``axes`` as rows, in C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


class TestLattice:
    """The trapezoid rule on the truncated 1-D and 2-D boxes."""

    BOX = [(-6.7, 7.3), (-8.2, 8.1)]
    PARAMS = (0.0, 0.4)  # the Gaussian's one phase, 0.4 u

    def test_gaussian_2d(self):
        # integral of exp(-(u - 0.3)^2 - (v + 0.2)^2 / 2 + 0.4i u) over R^2.
        exact = math.sqrt(2.0) * math.pi * np.exp(0.12j - 0.04)
        for tol in (1e-4, 1e-8, 1e-12):
            res = _integrate_truncated(_gaussian_2d, self.BOX, tol, 10**6, self.PARAMS)
            assert res.converged
            assert abs(res.value - exact) <= res.abs_error <= tol

    def test_evaluations_are_the_last_steps_nodes_in_the_box(self):
        # Each node is evaluated once; together they are every node of the
        # last step that lies in the box, on multiples of the step anchored
        # at 0 (not at the box corner).
        rows = []

        def f(p):
            rows.append(p.copy())
            return _gaussian_2d(p)

        # At tol 1e-12 the loop halves past the first step that may stop,
        # 1/4, whose nodes are all evaluated in one call.
        res = _integrate_truncated(f, self.BOX, 1e-12, 10**6, self.PARAMS)
        pts = np.concatenate(rows)
        step = min(np.diff(np.unique(pts[:, 0])).min(), np.diff(np.unique(pts[:, 1])).min())
        assert len(rows) > 1 and math.log2(step) == round(math.log2(step)) <= -2
        assert np.array_equal(pts / step, np.round(pts / step))
        count = 1
        for lo, hi in self.BOX:
            count *= math.floor(hi / step) - math.ceil(lo / step) + 1
        assert res.evaluations == pts.shape[0] == np.unique(pts, axis=0).shape[0] == count

    @staticmethod
    def _level_sum(k, new, box=BOX, f=_gaussian_2d):
        """The sum of ``f`` over the nodes ``2**-k j`` in the box, or
        over the nodes step ``2**-k`` adds to step ``2**(1 - k)`` (``new``),
        evaluated on their own as the lattice evaluates a level: the NumPy
        sum of the values of one grid in C order, or of the ``d`` sub-grids
        odd on axis ``a``, even on the axes before it, summed in order of
        ``a``; and the number of nodes."""
        lo, hi = np.asarray(box).T
        index = [np.arange(math.ceil(a * 2.0**k), math.floor(b * 2.0**k) + 1) for a, b in zip(lo, hi)]
        grids = [index]
        if new:
            grids = [[ix[ix % 2 == int(b == a)] if b <= a else ix for b, ix in enumerate(index)]
                     for a in range(len(index))]
        total, count = 0j, 0
        for grid in grids:
            if all(ix.size for ix in grid):
                vals = f(_grid_rows([ix * 2.0**-k for ix in grid]))
                total, count = total + vals.sum(), count + vals.size
        return total, count

    def test_a_stop_at_the_first_step_is_one_call(self):
        # The first step that may stop is 1/4: every node of it is
        # evaluated in one call, and at tol 1e-8 the loop stops there.
        rows = []
        res = _integrate_truncated(lambda p: rows.append(p) or _gaussian_2d(p), self.BOX, 1e-8, 10**6,
                                   self.PARAMS)
        half, n_half = self._level_sum(1, False)
        quarter, n_quarter = self._level_sum(2, True)
        assert len(rows) == 1 and res.evaluations == rows[0].shape[0] == n_half + n_quarter
        assert res.value == (half + quarter) / 16.0

    def _check_level_sums(self, box, k):
        lo, hi = np.asarray(box).T
        f = _gaussian_2d if len(box) == 2 else lambda p: np.exp(-(p[:, 0] - 0.3) ** 2 + 0.4j * p[:, 0])
        sums, count = quadrature._trapezoid_level(quadrature._on_rows(f), k, lo, hi, True)
        expected = [self._level_sum(i, i > 1, box, f)[0] for i in range(-1, k + 1)]
        assert sums == expected
        assert count == self._level_sum(k, False, box, f)[1]
        # A later halving evaluates the nodes it adds as those sub-grids.
        (later,), added = quadrature._trapezoid_level(quadrature._on_rows(f), k + 1, lo, hi, False)
        assert (later, added) == self._level_sum(k + 1, True, box, f)

    def test_level_sums_are_the_per_level_sums(self):
        # The sums read off the first lattice as strided slices are those of
        # each step evaluated on its own, bit for bit: over the nodes of
        # steps 2, 1 and 1/2, then over the nodes steps 1/4 and 1/8 add.
        self._check_level_sums(self.BOX, 3)

    @pytest.mark.parametrize("box, k", [
        ([(-6.8, 7.3), (-8.3, 8.1)], 2),  # first indices -27 and -33: negative and odd
        ([(-6.8, 7.3)], 2),
        ([(-0.1, 0.1), (-3.3, 2.9)], 3),  # one node wide up to step 1/8
    ])
    def test_level_sums_on_odd_corners_and_thin_boxes(self, box, k):
        self._check_level_sums(box, k)

    def test_slabs_of_the_first_axis(self, monkeypatch):
        # Levels larger than a chunk are evaluated in slabs of whole rows of
        # the first axis, in batches of at most a chunk, each node once, to
        # the same sums up to rounding.
        lo, hi = np.asarray(self.BOX).T
        whole, count = quadrature._trapezoid_level(quadrature._on_rows(_gaussian_2d), 3, lo, hi, True)
        (later,), added = quadrature._trapezoid_level(quadrature._on_rows(_gaussian_2d), 4, lo, hi, False)
        batches = []
        g = lambda grids: batches.append(grids) or [_gaussian_axes(axes) for axes in grids]
        monkeypatch.setattr(quadrature, "_TRAPEZOID_CHUNK", 1000)
        sums, slabbed = quadrature._trapezoid_level(g, 3, lo, hi, True)
        firsts = [axes[0] for grids in batches for axes in grids]
        assert len(batches) > 1 and slabbed == count == sum(a.size * b.size for grids in batches for a, b in grids)
        assert all(sum(a.size * b.size for a, b in grids) <= 1000 for grids in batches)
        assert all(np.array_equal(b, batches[0][0][1]) for grids in batches for _, b in grids)
        assert np.array_equal(np.concatenate(firsts), np.unique(np.concatenate(firsts)))
        assert np.allclose(sums, whole, rtol=1e-14, atol=0.0)
        batches.clear()
        (sub,), slabbed = quadrature._trapezoid_level(g, 4, lo, hi, False)
        nodes = np.concatenate([_grid_rows(axes) for grids in batches for axes in grids])
        assert slabbed == added == nodes.shape[0] == np.unique(nodes, axis=0).shape[0]
        assert all(sum(a.size * b.size for a, b in grids) <= 1000 for grids in batches)
        assert abs(sub - later) <= 1e-14 * abs(later)

    def test_halving_past_the_first_level_on_axes(self):
        # An integrand on tensor axes: each halving past the first level
        # evaluates d sub-grids, in one batch while they fit in a chunk, and
        # every node is evaluated once.  The result has the bits of the same
        # Gaussian on rows.
        batches = []
        g = lambda grids: batches.append(grids) or [_gaussian_axes(axes) for axes in grids]
        res = quadrature._integrate_lattice(g, self.BOX, 1e-12, 10**6, self.PARAMS)
        nodes = np.concatenate([_grid_rows(axes) for grids in batches for axes in grids])
        assert [len(grids) for grids in batches] == [1, 2]
        assert res.evaluations == nodes.shape[0] == np.unique(nodes, axis=0).shape[0]
        rows = _integrate_truncated(_gaussian_2d, self.BOX, 1e-12, 10**6, self.PARAMS)
        assert (res.value, res.abs_error, res.evaluations) == (rows.value, rows.abs_error, rows.evaluations)

    def test_a_cap_below_the_first_step_raises_with_step_half(self):
        # A cap between the node counts of steps 1/2 and 1/4: step 1/2 is
        # evaluated, alone, and its estimate is the one raised.
        half, n_half = self._level_sum(1, False)
        ones = self._level_sum(0, False)[0]
        rows = []
        with pytest.raises(BudgetExceeded) as info:
            _integrate_truncated(lambda p: rows.append(p) or _gaussian_2d(p), self.BOX, 1e-8, n_half + 1,
                                 self.PARAMS)
        res = info.value.result
        assert len(rows) == 1 and res.evaluations == n_half < n_half + self._level_sum(2, True)[1]
        assert res.value == half / 4.0
        assert res.abs_error == abs(half / 4.0 - ones) + 1e-9

    def test_repeated_calls_are_bit_identical(self):
        a = _integrate_truncated(_gaussian_2d, self.BOX, 1e-9, 10**6, self.PARAMS)
        b = _integrate_truncated(_gaussian_2d, self.BOX, 1e-9, 10**6, self.PARAMS)
        assert (a.value, a.abs_error, a.evaluations) == (b.value, b.abs_error, b.evaluations)

    def test_budget_exceeded_carries_the_partial_result(self):
        with pytest.raises(BudgetExceeded) as info:
            _integrate_truncated(_gaussian_2d, self.BOX, 1e-12, 500, self.PARAMS)
        res = info.value.result
        assert not res.converged
        assert res.evaluations > 500  # the first step always runs
        assert abs(res.value - math.sqrt(2.0) * math.pi * np.exp(0.12j - 0.04)) < 1e-2

    def test_high_frequency_waits_for_a_fine_enough_step(self):
        # integral of exp(-t^2 + 25i t) over R is sqrt(pi) e^{-156}.  At
        # h = 1/4 the alias 25 - 8 pi of T_h lies near zero while
        # |T_2h - T_h| holds only the alias 25 - 4 pi: stopping there
        # reported converged at tol 1e-8 with a true error of 1.76.
        f = lambda p: np.exp(-p[:, 0] ** 2 + 25j * p[:, 0])
        for tol in (1e-4, 1e-8):
            res = _integrate_truncated(f, [(-7.0, 7.0)], tol, 10**6, (25.0, 0.0))
            assert res.converged
            assert abs(res.value) <= res.abs_error <= tol
            assert res.evaluations >= 14 * 16  # h <= pi / 50 < 1/8

    def test_engine_choice(self, monkeypatch):
        # 1-D and 2-D boxes with a frequency bound go to the lattice; the
        # star-shaped pattern integrals (gl3 and both so5 models) and the
        # separable ones (two chained step kernels from two middle entries
        # on, and the two-variable side of the rank-lowering check, whose
        # one-variable side is a 1-D box) to the lattice contraction; the
        # rank-2 commutation box, the spherical transform's integral over
        # d >= 0, a true edge, and an operator applied to a function of
        # unknown frequency go to the adaptive engine.
        used = []
        for module, name in ((quadrature, "integrate_box"), (quadrature, "_trapezoid"),
                             (gl_whittaker, "_integrate_star"), (so_toda, "_integrate_star"),
                             (rankin_selberg, "_integrate_star"), (gl_baxter, "_integrate_star")):
            engine = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, engine=engine, name=name: used.append(name) or engine(*a))
        expected = {
            ("_integrate_star",): [
                lambda: givental_eval((0.6, 0.1, -0.45), (0.3, -0.2, 0.5), 1e-4),  # 3-D
                lambda: so_givental_eval((0.4, 0.1), (0.0, 0.3), 1e-3),  # 4-D
                lambda: so_recursive_eval((0.4, 0.1), (0.0, 0.3), 1e-3),  # 3-D
                lambda: double_step_kernel((0.1, 0.2, -0.3), (0.4,), (0.3, -0.3), 1e-6),  # 2-D
                lambda: double_step_kernel((0.1, 0.2, -0.3, 0.5), (0.4, -0.2), (0.3, -0.3), 1e-6),  # 3-D
            ],
            ("_integrate_star", "_trapezoid"): [
                lambda: lowering_compatibility(-1.3j, 0.4, (0.25, -0.3), 0.1, 1e-7),  # 2-D, then 1-D
            ],
            ("integrate_box",): [
                lambda: _double_apply_fused(-1.4j, -0.9j, (0.4, -0.4), np.array([0.2, -0.1]), 1e-3, 10**6),
                lambda: spherical_transform_rank2(-1.7j, (0.3, -0.3), 1e-4),
                lambda: baxter_apply(lambda xs: baxter_eigenfunction_batch((0.4,), xs, "lie"), (0.1,), -1.2j,
                                     "lie", 1e-6),  # 1-D, no psi_spectral
            ],
            ("_trapezoid",): [
                lambda: givental_eval((0.5, -0.5), (0.3, -0.2), 1e-8),  # 1-D
                lambda: givental_recursive_eval((0.6, 0.1, -0.45), (0.3, -0.2, 0.5), 1e-4),  # 2-D
                lambda: baxter_apply(lambda xs: baxter_eigenfunction_batch((0.4, -0.4), xs, "lie"), (0.1, -0.1),
                                     -2.2j, "lie", 1e-6, psi_spectral=(0.4, -0.4)),  # 2-D
                lambda: bump_friedberg_integral(0, (0.3,), (0.1,), -0.9j, 1e-8),  # 1-D
                lambda: so_baxter_apply(-1.6j, (0.45,), (0.1,), 1e-2),  # 1-D
                lambda: double_step_kernel((0.1, 0.2), (), (0.3, -0.3), 1e-6),  # 1-D
            ],
        }
        for names, calls in expected.items():
            for call in calls:
                used.clear()
                call()
                assert used == list(names)


class TestStar:
    """The lattice contraction of a star: a centre variable and leaves, each
    coupled to the centre by a wall of their difference, or to nothing."""

    W = 0.8  # the centre's phase

    def _gaussian(self, tol, max_evals):
        # integral of exp(-c^2 + i W c) prod_{l = a, b} exp(-(c - l)^2 - l^2)
        # over R^3, (pi/2)^(3/2) exp(-W^2/8), on [-7, 7] per axis.
        leaf = (lambda d: np.exp(-d * d), lambda u: np.exp(-u * u))
        centre = lambda c: np.exp(-c * c + 1j * self.W * c)
        return quadrature._integrate_star(centre, [leaf, leaf], [(-7.0, 7.0)] * 3, tol, max_evals, (self.W, 0.0))

    @pytest.mark.parametrize("tol", [1e-4, 1e-13])
    def test_gaussian_and_its_count(self, tol):
        res = self._gaussian(tol, 10**6)
        assert res.converged
        assert abs(res.value - (math.pi / 2.0) ** 1.5 * math.exp(-self.W**2 / 8.0)) <= res.abs_error <= tol
        # Per axis 14 * 2^k + 1 nodes at step 2^-k, and per wall 2 n - 1
        # differences: the factor values of the last step, each computed once.
        assert res.evaluations in [7 * (14 * 2**k + 1) - 2 for k in range(2, 8)]
        assert res == self._gaussian(tol, 10**6)

    @pytest.mark.parametrize("tol", [1e-4, 1e-13])
    def test_leaves_without_walls_multiply_in(self, tol):
        # Leaves with no wall couple to nothing, so their sums multiply in
        # and they add only their own nodes to the count.  The product
        # exp(-c^2 + i W c) exp(-a^2) exp(-2 b^2) integrates to
        # pi^(3/2) exp(-W^2/4) / sqrt(2), in 3 n factor values on axes of n
        # nodes; with the last leaf on the wall exp(-(c - b)^2) and
        # exp(-b^2) instead, to pi^(3/2) exp(-W^2/6) / sqrt(3), in 3 n +
        # 2 n - 1.
        centre = lambda c: np.exp(-c * c + 1j * self.W * c)
        free = (None, lambda u: np.exp(-u * u))
        cases = [([free, (None, lambda u: np.exp(-2.0 * u * u))], math.exp(-self.W**2 / 4.0) / math.sqrt(2.0), 0),
                 ([free, (lambda d: np.exp(-d * d), lambda u: np.exp(-u * u))],
                  math.exp(-self.W**2 / 6.0) / math.sqrt(3.0), 1)]
        for leaves, exact, walls in cases:
            res = quadrature._integrate_star(centre, leaves, [(-7.0, 7.0)] * 3, tol, 10**6, (self.W, 0.0))
            assert res.converged
            assert abs(res.value - math.pi**1.5 * exact) <= res.abs_error <= tol
            assert res.evaluations in [3 * n + walls * (2 * n - 1) for n in (14 * 2**k + 1 for k in range(2, 8))]

    def test_budget_exceeded_carries_the_partial_result(self):
        # Step 1/2 holds 201 values and step 1/4 397: under a cap of 300 the
        # rule stops at step 1/2, before the first step that may stop.
        with pytest.raises(BudgetExceeded) as info:
            self._gaussian(1e-13, 300)
        res = info.value.result
        assert not res.converged and res.evaluations == 201 <= 300
        with pytest.raises(BudgetExceeded) as info:
            givental_eval((0.6, 0.1, -0.45), (0.3, -0.2, 0.5), 1e-6, max_evals=300)
        assert not info.value.result.converged and info.value.result.evaluations <= 300


def _spectral_rows(params, z, lower):
    """The spectral step's integrand on ``(m, n)`` parameter rows, every
    factor evaluated at every row: the Gamma factors, the phase, the
    spectral density and ``lower``."""

    def f(betas):
        n = betas.shape[1]
        expo = -1j * z * (sum(params) - betas.sum(axis=1))
        density = np.full(betas.shape[0], 1.0 / ((2.0 * math.pi) ** n * math.factorial(n)), dtype=complex)
        for j in range(n):
            for p in params:
                expo = expo + log_gamma_array(1j * betas[:, j] - 1j * p)
            for k in range(j + 1, n):
                w = 1j * (betas[:, j] - betas[:, k])
                density = density * (-w * np.sin(math.pi * w) / math.pi)
        return stable_exp(expo) * density * lower(betas)

    return f


def _pairing_rows(ell, gamma, lam, t, tol):
    """The damped pairing's integrand on ``(m, ell + 1)`` coordinate rows,
    each eigenfunction evaluated at every row."""
    shifted, budget = tuple(l + t for l in lam), _quadrature_budget(tol)

    def psi(params, p):
        return np.exp(1j * params[0] * p[:, 0]) if ell == 0 else closed_form_gl2_batch(params, p, budget)

    def f(p):
        damping = stable_exp(_kernel_exponent_rows(p[:, -1:], np.zeros((p.shape[0], 1)), 0.0, _LIE))
        return damping * psi(shifted, p) * np.conj(psi(gamma, p))

    return f


def _first_lattice(monkeypatch, call):
    """The integrand on tensor axes of the lattice integral ``call`` makes,
    with real axes (contour offsets added inside), and the axes of its
    step 1/4."""
    seen, engine = [], quadrature._trapezoid
    monkeypatch.setattr(quadrature, "_trapezoid", lambda g, lo, hi, *a: seen.append((g, lo, hi)) or engine(g, lo, hi, *a))
    call()
    g, lo, hi = seen[0]
    return g, tuple(np.arange(math.ceil(4.0 * a), math.floor(4.0 * b) + 1) / 4.0 for a, b in zip(lo, hi))


_GL3 = ((0.6, 0.1, -0.45), (0.3, -0.2, 0.5))
# Each lattice integral, its integrand on rows, and the contour offsets its
# rows carry (None for real coordinate rows).
_LATTICE_INTEGRANDS = {
    "dual n=1": (lambda: dual_baxter_apply(lambda b: mb_closed_form_batch(b, (0.3,)), (0.5,), 0.7, 1e-6),
                 _spectral_rows((0.5,), 0.7, lambda b: mb_closed_form_batch(b, (0.3,))), (-0.5,)),
    "dual n=2": (lambda: dual_baxter_apply(lambda b: mb_closed_form_batch(b, (0.2, -0.4)), (0.5, -0.3), 0.9, 3e-3),
                 _spectral_rows((0.5, -0.3), 0.9, lambda b: mb_closed_form_batch(b, (0.2, -0.4))), (-0.5, -0.5)),
    "mellin_barnes gl2": (lambda: mellin_barnes_eval((0.5, -0.5), (0.3, -0.2), 1e-8),
                          _spectral_rows((-0.5, 0.5), -0.2, lambda b: mb_closed_form_batch(b, (0.3,))),
                          default_contour((0.5, -0.5)).offsets[-1]),
    "mellin_barnes gl3": (lambda: mellin_barnes_eval(*_GL3, 1e-5),
                          _spectral_rows((-0.6, -0.1, 0.45), 0.5, lambda b: mb_closed_form_batch(b, (0.3, -0.2))),
                          default_contour(_GL3[0]).offsets[-1]),
    "pairing ell=0": (lambda: bump_friedberg_integral(0, (0.3,), (0.1,), -0.9j, 1e-8),
                      _pairing_rows(0, (0.3,), (0.1,), -0.9j, 1e-8), None),
    "pairing ell=1": (lambda: bump_friedberg_integral(1, (0.4, -0.4), (0.2, -0.2), -1.8j, 3e-3),
                      _pairing_rows(1, (0.4, -0.4), (0.2, -0.2), -1.8j, 3e-3), None),
}


class TestLatticeIntegrands:
    """The spectral step and the damped pairing on tensor axes: each factor
    once per axis node or per difference of two axes' nodes."""

    @pytest.mark.parametrize("name", sorted(_LATTICE_INTEGRANDS))
    def test_the_factorisation_is_the_row_integrand(self, monkeypatch, name):
        call, rows, offsets = _LATTICE_INTEGRANDS[name]
        g, axes = _first_lattice(monkeypatch, call)
        (on_axes,) = g([axes])
        nodes = _grid_rows(axes)
        on_rows = rows(nodes if offsets is None else nodes + 1j * np.asarray(offsets))
        assert on_axes.shape == tuple(a.size for a in axes)
        assert abs(on_axes.sum() - on_rows.sum()) <= 1e-13 * abs(on_rows.sum())
        assert np.allclose(on_axes.ravel(), on_rows, rtol=1e-12, atol=1e-15 * np.abs(on_rows).max())

    @pytest.mark.parametrize("name", ["dual n=2", "pairing ell=1"])
    def test_a_nodes_value_does_not_depend_on_its_batch(self, monkeypatch, name):
        # The same bits on the whole first level, on a split of the first
        # axis into two slabs (in one batch and in two) and on one-node axes.
        g, axes = _first_lattice(monkeypatch, _LATTICE_INTEGRANDS[name][0])
        (whole,) = g([axes])
        cut = axes[0].size // 2 + 3
        slabs = [(axes[0][:cut], axes[1]), (axes[0][cut:], axes[1])]
        assert np.array_equal(np.concatenate(g(slabs)), whole)
        assert np.array_equal(np.concatenate([g([slab])[0] for slab in slabs]), whole)
        rng = np.random.default_rng(3)
        nodes = list(zip(rng.integers(0, axes[0].size, 40), rng.integers(0, axes[1].size, 40)))
        ones = g([(axes[0][i:i + 1], axes[1][j:j + 1]) for i, j in nodes])
        assert all(one[0, 0] == whole[i, j] for one, (i, j) in zip(ones, nodes))


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

        # At tol 1e-12 the loop halves past step 1/4, the first that may
        # stop, whose nodes are all evaluated in one call.
        res = integrate_contour(f, ContourSpec([[0.2, 0.2]]), 2, 1e-12)
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


GL2, GL3 = ((0.5, -0.5), (0.3, -0.2)), ((0.6, 0.1, -0.45), (0.3, -0.2, 0.5))
EVALUATORS = {
    "integrate_box": lambda: integrate_box(lambda p: p[:, 0] + 0j, [(0.0, 1.0)], 1e-10),
    "integrate_contour": lambda: integrate_contour(lambda z: np.exp(-z[:, 0] ** 2), ContourSpec([[0.3]]), 2, 1e-9),
    "givental_eval": lambda: givental_eval(*GL2, 1e-6),
    "givental_recursive_eval": lambda: givental_recursive_eval(*GL2, 1e-6),
    "mellin_barnes_eval": lambda: mellin_barnes_eval(*GL2, 1e-6),
    # It returned converged=np.True_, so ``converged is False`` never fired.
    "mixed_eval": lambda: mixed_eval("LR", *GL3, 1e-5),
    "baxter_apply": lambda: baxter_apply(lambda xs: baxter_eigenfunction_batch((0.4,), xs, "lie"), (0.1,), -1.2j,
                                         "lie", 1e-6, psi_spectral=(0.4,)),
    "dual_baxter_apply": lambda: dual_baxter_apply(lambda b: mb_closed_form_batch(b, (0.3,)), (0.5,), 0.7, 1e-6),
    "spherical_transform_rank2": lambda: spherical_transform_rank2(-1.7j, (0.3, -0.3), 1e-4),
    "bump_friedberg_integral": lambda: bump_friedberg_integral(0, (0.3,), (0.1,), -0.9j, 1e-8),
    "bump_inner_correlation": lambda: bump_inner_correlation(1, (0.3,), (0.2, -0.2), -0.8j, 0.6, 1e-6),
    "double_step_kernel": lambda: double_step_kernel((0.1, 0.2), (), (0.3, -0.3), 1e-6),
    "so_givental_eval": lambda: so_givental_eval((0.5,), (0.3,), 1e-6),
    "so_recursive_eval": lambda: so_recursive_eval((0.5,), (0.3,), 1e-6),
    "so_baxter_apply": lambda: so_baxter_apply(-0.8j, (0.5,), (0.2,), 1e-4),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_results_hold_python_scalars(name):
    res = EVALUATORS[name]()
    assert type(res.value) is complex
    assert type(res.abs_error) is float
    assert type(res.evaluations) is int
    assert type(res.converged) is bool


@pytest.mark.parametrize("record, text", [
    (QuadratureResult(1.5 - 2j, 1e-9, 12, True),
     "QuadratureResult(value=(1.5-2j), abs_error=1e-09, evaluations=12, converged=True)"),
    (IdentityCheck(1j, 1j + 1e-9, 2e-9), "IdentityCheck(lhs=1j, rhs=(1e-09+1j), abs_error=2e-09)"),
    (CommutationCheck(0.5 + 0j, 0.5 + 1e-8j, 3e-8),
     "CommutationCheck(first_then_second=(0.5+0j), second_then_first=(0.5+1e-08j), abs_error=3e-08)"),
], ids=["QuadratureResult", "IdentityCheck", "CommutationCheck"])
def test_result_records_are_slotted(record, text):
    # Slotted and frozen: no per-instance __dict__, same repr, fields and pickle round trip.
    assert not hasattr(record, "__dict__")
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    assert dataclasses.astuple(record) == tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.abs_error = 0.0


def test_stable_exp_clamps_overflow():
    big = stable_exp(np.asarray([1000.0 + 0.5j, -1000.0 + 0j, 0.0 + 0j]))
    assert np.all(np.isfinite(big))
    assert big[2] == 1.0 + 0j
