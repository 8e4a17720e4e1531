"""Scalar special-function primitives against frozen references."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_whittaker import numerics
from toda_whittaker.errors import ConvergenceError
from toda_whittaker.gl_whittaker import closed_form_gl2, closed_form_gl2_batch
from toda_whittaker.numerics import (
    _BLOCK,
    _DEFAULT_BUDGET,
    AccuracyBudget,
    _macdonald_grid,
    _macdonald_pairs,
    gamma_product,
    log_gamma,
    macdonald_k,
)
from toda_whittaker.so_toda import closed_form_so3

from _oracles import (
    GAMMA_0P7,
    GAMMA_1_M02I,
    GAMMA_HALF_PLUS_I,
    K_0_1,
    K_0_2,
    K_2I_2,
    K_I_2,
    K_I_2SQRT2,
    PI_OVER_SINH_PI,
)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class TestLogGamma:
    def test_reference_values(self):
        assert _rel(cmath.exp(log_gamma(0.5 + 1j)), GAMMA_HALF_PLUS_I) < 1e-13
        assert _rel(cmath.exp(log_gamma(0.7)), GAMMA_0P7) < 1e-13
        assert _rel(cmath.exp(log_gamma(1 - 0.2j)), GAMMA_1_M02I) < 1e-13

    def test_integer_factorials(self):
        for n in range(1, 12):
            assert _rel(cmath.exp(log_gamma(n)), math.factorial(n - 1)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.floats(0.1, 4.0, allow_nan=False),
        im=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_recurrence(self, re, im):
        z = complex(re, im)
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        # Both sides are principal-branch logs apart from a 2*pi*i ambiguity.
        diff = lhs - rhs
        assert abs(diff.real) < 1e-11
        assert abs((diff.imag + math.pi) % (2 * math.pi) - math.pi) < 1e-11

    def test_reflection(self):
        for z in (0.3 + 0.4j, 0.5 - 1.2j, 0.8):
            lhs = cmath.exp(log_gamma(z) + log_gamma(1 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            assert _rel(lhs, rhs) < 1e-12


class TestGammaProduct:
    def test_conjugate_pair(self):
        assert _rel(gamma_product([1 + 1j, 1 - 1j]), PI_OVER_SINH_PI) < 1e-13

    def test_matches_factorwise_product(self):
        zs = [0.5 + 1j, 0.7, 1 - 0.2j]
        direct = 1.0 + 0j
        for z in zs:
            direct *= cmath.exp(log_gamma(z))
        assert _rel(gamma_product(zs), direct) < 1e-12

    def test_empty_product_is_one(self):
        assert gamma_product([]) == 1.0 + 0j

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.2, 3.0), st.floats(-2.0, 2.0)),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_bit_identity(self, pairs, rnd):
        zs = [complex(a, b) for a, b in pairs]
        shuffled = list(zs)
        rnd.shuffle(shuffled)
        assert gamma_product(zs) == gamma_product(shuffled)


_BATCH_ORDERS = (0.4j, 0.5 + 3.0j, -0.5 + 25.0j)


class TestMacdonald:
    def test_reference_values(self):
        assert _rel(macdonald_k(1j, 2.0), K_I_2) < 1e-12
        assert _rel(macdonald_k(2j, 2.0), K_2I_2) < 1e-12
        assert _rel(macdonald_k(0.0, 1.0), K_0_1) < 1e-12
        assert _rel(macdonald_k(0.0, 2.0), K_0_2) < 1e-12
        assert _rel(macdonald_k(1j, 2.0 * math.sqrt(2.0)), K_I_2SQRT2) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        nu_im=st.floats(-2.5, 2.5, allow_nan=False),
        y=st.floats(0.05, 8.0, allow_nan=False),
    )
    def test_even_in_order_and_real_for_imaginary_order(self, nu_im, y):
        v = macdonald_k(1j * nu_im, y)
        assert macdonald_k(-1j * nu_im, y) == v
        assert abs(v.imag) <= 1e-12 * max(abs(v.real), 1e-300)

    def test_positive_decreasing_at_zero_order(self):
        values = [macdonald_k(0.0, y).real for y in (0.5, 1.0, 2.0, 4.0)]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_tight_budget_still_close(self):
        loose = macdonald_k(1j, 2.0, AccuracyBudget(rel_tol=1e-6))
        assert _rel(loose, K_I_2) < 1e-5

    def test_matches_mpmath_up_to_order_50i(self):
        """Seeded sweep over orders i[0, 50] with real part -0.5, 0, 0.5 and
        y in [1e-6, 700]: each value is within 1e-12 of mpmath, or raises.
        Where y < |Im nu| (K oscillates, with real zeros) the error is
        measured against the envelope sqrt(2 pi/|nu|) e^{-pi |Im nu|/2}."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20070622)
        orders = np.concatenate([[0.0, 50.0], rng.uniform(0.0, 50.0, 24)])
        ys = np.concatenate([[1e-6, 700.0], 10.0 ** rng.uniform(-6.0, math.log10(700.0), 12)])
        points = [(complex(r, a), y) for r in (-0.5, 0.0, 0.5) for a in orders for y in ys]
        raised, worst = 0, 0.0
        with mpmath.workdps(30):
            for nu, y in points:
                try:
                    value = macdonald_k(nu, y)
                except ConvergenceError:
                    raised += 1
                    continue
                ref = complex(mpmath.besselk(mpmath.mpc(nu.real, nu.imag), y))
                scale = abs(ref)
                if y < nu.imag:
                    envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * nu.imag / 2)
                    scale = max(scale, envelope)
                worst = max(worst, abs(value - ref) / scale)
        assert worst <= 1e-12
        assert raised <= 0.02 * len(points)

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-7])
    def test_matches_mpmath_on_the_real_axis_band(self, rel_tol):
        """Seeded sweep over orders with |Im nu| in [0, 1] (the real-axis path)
        and real part -0.5, 0, 0.5, y in [1e-6, 700], at the default rel_tol and
        at the 1e-7 that looser quadrature tolerances ask for: no value raises,
        each is within rel_tol of mpmath (of the envelope where y < |Im nu|),
        and imaginary orders give exactly real values."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20070623)
        imags = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 10)])
        ys = np.concatenate([[1e-6, 700.0], 10.0 ** rng.uniform(-6.0, math.log10(700.0), 10)])
        budget = AccuracyBudget(rel_tol=rel_tol)
        worst = 0.0
        with mpmath.workdps(30):
            for re in (-0.5, 0.0, 0.5):
                for a in imags:
                    nu = complex(re, a)
                    values = _macdonald_grid(nu, ys, budget)
                    if re == 0.0:
                        assert not values.imag.any()
                    for y, value in zip(ys, values):
                        ref = complex(mpmath.besselk(mpmath.mpc(re, a), y))
                        scale = abs(ref)
                        if y < a:
                            envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * a / 2)
                            scale = max(scale, envelope)
                        worst = max(worst, abs(value - ref) / scale)
        assert worst <= rel_tol

    def test_converges_near_a_real_zero(self):
        # K_{33.54i}(0.1766) is 30 times below its envelope: the descent piece
        # of its path nearly cancels, and once never met the convergence test.
        # Reference: mpmath at 30 digits.
        nu, y = 33.541850705687764j, 0.17661319568625916
        envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * abs(nu) / 2)
        assert abs(macdonald_k(nu, y) - 1.8989733440549607e-25) <= 1e-12 * envelope

    @pytest.mark.parametrize(
        "nu, lead",
        [pytest.param(nu, 0, id=str(nu)) for nu in _BATCH_ORDERS]
        + [pytest.param(nu, _BLOCK - 150, id=f"{nu}-across-blocks") for nu in _BATCH_ORDERS],
    )
    def test_value_does_not_depend_on_the_batch(self, nu, lead):
        # With lead > 0 the 300 checked points follow `lead` others, so they
        # straddle the boundary of two blocks of points integrated together.
        rng = np.random.default_rng(7)
        ys = 10.0 ** rng.uniform(-6.0, math.log10(700.0), 300)
        batch = np.concatenate([10.0 ** rng.uniform(-6.0, math.log10(700.0), lead), ys])
        grid = _macdonald_grid(nu, batch, _DEFAULT_BUDGET)[lead:]
        assert all(grid[i] == macdonald_k(nu, y) for i, y in enumerate(ys))
        pairs = _macdonald_pairs(np.full(batch.size, nu), batch, _DEFAULT_BUDGET)
        assert np.array_equal(pairs[lead:], grid)

    def test_value_does_not_depend_on_the_other_orders(self):
        # Imaginary orders integrate in real arithmetic, the others in complex;
        # a batch that mixes them gives each point its own value.
        rng = np.random.default_rng(11)
        orders = rng.choice([0.4j, 0.5 + 0.4j, 0.9j, -0.5 + 0.9j, 3.0j, 0.5 + 3.0j], 200)
        ys = 10.0 ** rng.uniform(-6.0, math.log10(700.0), orders.size)
        pairs = _macdonald_pairs(orders, ys, _DEFAULT_BUDGET)
        assert all(pairs[i] == macdonald_k(nu, y) for i, (nu, y) in enumerate(zip(orders, ys)))

    def test_one_value_per_distinct_argument_on_lattice_rows(self, monkeypatch):
        # On lattice rows the relative coordinate x_1 - x_2 takes few
        # values: the kernel runs once per distinct one, with the same bits
        # as row by row.
        t = np.arange(-12, 13) / 8.0
        xs = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        lam = (0.6, -0.35)
        rows = np.concatenate([closed_form_gl2_batch(lam, xs[i:i + 1]) for i in range(len(xs))])
        points, kernel = [], numerics._macdonald
        monkeypatch.setattr(numerics, "_macdonald", lambda nu, y, b: points.append(y.size) or kernel(nu, y, b))
        assert np.array_equal(closed_form_gl2_batch(lam, xs), rows)
        assert points == [np.unique(xs[:, 0] - xs[:, 1]).size] == [49]

    def test_one_integrand_call_on_the_real_axis(self, monkeypatch):
        # Arguments from 1e-6 to 700 take steps from one to many dozen
        # intervals; the real-axis path still evaluates all their nodes in
        # one integrand call, as ragged rows, and each value has the bits of
        # its point alone.
        ys = np.geomspace(1e-6, 700.0, 40)
        calls, values = [], numerics._values
        monkeypatch.setattr(numerics, "_values", lambda s, *args: calls.append(s.size) or values(s, *args))
        grid = _macdonald_grid(0.4j, ys, _DEFAULT_BUDGET)
        assert len(calls) == 1
        monkeypatch.undo()
        assert all(grid[i] == macdonald_k(0.4j, y) for i, y in enumerate(ys))

    def test_real_axis_bound_covers_the_error(self, monkeypatch):
        """Seeded sweep of the real-axis band at real orders +-1 and +-3.5,
        |Im nu| in [0, 1], y in [1e-6, 700] with extra points in [1, 10]
        (where neither aliasing scale alone is tight): at rel_tol 1e-12, 1e-7
        and 1e-3 (where the aliases are large enough to test the bound) each
        value is within rel_tol of mpmath (of the envelope where y < |Im nu|),
        its reported error bound is at least its true error, less a rounding
        allowance of a few eps per unit of the log scale, and at most rel_tol,
        and the value has the bits of its point alone."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20070625)
        orders = [complex(re, a) for re in (-3.5, -1.0, 1.0, 3.5) for a in (0.0, 1.0, *rng.uniform(0.0, 1.0, 2))]
        ys = np.sort(np.concatenate([[1e-6, 700.0], 10.0 ** rng.uniform(-6.0, math.log10(700.0), 6),
                                     rng.uniform(1.0, 10.0, 6)]))
        with mpmath.workdps(25):
            refs = {nu: [complex(mpmath.besselk(mpmath.mpc(nu.real, nu.imag), y)) for y in ys] for nu in orders}
        reported, aliasing = [], numerics._aliasing
        monkeypatch.setattr(numerics, "_aliasing",
                            lambda *args: reported.append((aliasing(*args), args[4])) or reported[-1][0])
        for rel_tol in (1e-12, 1e-7, 1e-3):
            budget = AccuracyBudget(rel_tol=rel_tol)
            for nu in orders:
                values = _macdonald_grid(nu, ys, budget)
                (_, bound), peak = reported[-1]
                bound = bound * np.exp(peak)
                envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * nu.imag / 2)
                scale = np.array([max(abs(ref), envelope if y < nu.imag else 0.0) for y, ref in zip(ys, refs[nu])])
                error = np.abs(values - refs[nu])
                assert (error <= rel_tol * scale).all()
                assert (error <= bound + 8.0 * np.finfo(float).eps * (1.0 + np.abs(peak)) * scale).all()
                assert (bound <= rel_tol * scale).all()
                assert all(values[i] == macdonald_k(nu, y, budget) for i, y in enumerate(ys))

    def test_rows_that_fail_the_certificate_halve_on(self, monkeypatch):
        # With a step four times too coarse and a bound that no sum meets,
        # every real-axis row goes on in the nested rule: it still meets
        # rel_tol, and alone and in its grid it has the same bits.
        mpmath = pytest.importorskip("mpmath")
        ys = np.array([1e-6, 0.03, 1.3, 7.0, 45.0, 700.0])
        aliasing = numerics._aliasing

        def coarse(*args):
            n, bound = aliasing(*args)
            return np.maximum(n // 4, 1), bound + 1.0

        monkeypatch.setattr(numerics, "_aliasing", coarse)
        for nu in (0.7j, 1.0 + 0.3j):
            grid = _macdonald_grid(nu, ys, _DEFAULT_BUDGET)
            assert all(grid[i] == macdonald_k(nu, y) for i, y in enumerate(ys))
            with mpmath.workdps(25):
                refs = [complex(mpmath.besselk(mpmath.mpc(nu.real, nu.imag), y)) for y in ys]
            envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * nu.imag / 2)
            assert all(abs(v - ref) <= 1e-12 * max(abs(ref), envelope if y < nu.imag else 0.0)
                       for v, ref, y in zip(grid, refs, ys))

    @staticmethod
    def _reported(monkeypatch):
        """Spies on the kernel: each path's (est, mass, scale, envelope) and each
        bound it certifies with, in units of its scale (one list per call)."""
        seen = []
        for name, at in (("_aliasing", 1), ("_bernstein", 1), ("_line", None), ("_two_saddles", None)):
            def spy(*args, _fn=getattr(numerics, name), _name=name, _at=at):
                out = _fn(*args)
                seen.append((_name, out if _at is None else out[_at]))
                return out
            monkeypatch.setattr(numerics, name, spy)
        return seen

    def test_saddle_bounds_cover_the_error(self, monkeypatch):
        """Seeded sweep of the saddle band, |Im nu| in (1, 50] at real orders 0,
        +-0.5 and +-3.5, y in [1e-6, 700] with extra points at the borders of the
        paths (|Im nu| = 1.1 y, just on either side, and sigma = |Im nu| / y = 0.9):
        at rel_tol 1e-12 and 1e-7 each value is within rel_tol of mpmath (of the
        envelope where y < |Im nu|), its reported bound is at least its true error,
        less a rounding allowance of a few eps per unit of its log scale and its
        phase, and the value has the bits of its point in a grid."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20070626)
        points = []
        for re in (0.0, 0.5, -0.5, 3.5, -3.5):
            for a in 1.0 + 49.0 * rng.random(3):
                ys = [*10.0 ** rng.uniform(-6.0, math.log10(700.0), 4), a / 1.1 * (1.0 + 1e-9),
                      a / 1.1 * (1.0 - 1e-9), a / 0.9]
                points.append((complex(re, a), np.sort(ys)))
        with mpmath.workdps(25):
            refs = [[complex(mpmath.besselk(mpmath.mpc(nu.real, nu.imag), y)) for y in ys] for nu, ys in points]
        seen = self._reported(monkeypatch)
        eps = np.finfo(float).eps
        for rel_tol in (1e-12, 1e-7):
            budget = AccuracyBudget(rel_tol=rel_tol)
            for (nu, ys), ref_row in zip(points, refs):
                grid = _macdonald_grid(nu, ys, budget)
                for y, value, ref in zip(ys, grid, ref_row):
                    seen.clear()
                    assert macdonald_k(nu, y, budget) == value
                    (_, (_, _, scale, _)), bound = seen[-1], sum(b[0] for _, b in seen[:-1])
                    envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * nu.imag / 2)
                    size = max(abs(ref), envelope if y < nu.imag else 0.0)
                    error, phase = abs(value - ref), nu.imag * math.acosh(max(nu.imag / y, 1.0))
                    assert error <= rel_tol * size
                    assert error <= bound * math.exp(scale[0]) + 8.0 * eps * (1.0 + abs(scale[0]) + phase) * size

    def test_saddle_rows_that_fail_the_certificate_halve_on(self, monkeypatch):
        # With rules four times too coarse and bounds that no sum meets, every
        # row of both saddle paths halves on: it still meets rel_tol, and alone
        # and in its grid it has the same bits.
        mpmath = pytest.importorskip("mpmath")
        ys = np.array([1e-6, 0.03, 1.3, 7.0, 45.0, 700.0])
        aliasing, bernstein, halved = numerics._aliasing, numerics._bernstein, []

        def coarse(fn):
            def rule(*args):
                n, bound = fn(*args)
                return np.maximum(n // 4, 4), bound + 1.0
            return rule

        monkeypatch.setattr(numerics, "_aliasing", coarse(aliasing))
        monkeypatch.setattr(numerics, "_bernstein", coarse(bernstein))
        halve = numerics._halve
        monkeypatch.setattr(numerics, "_halve", lambda f, w, n, *rest: halved.append(n.size) or halve(f, w, n, *rest))
        for nu in (6.0j, 0.5 + 20.0j):
            halved.clear()
            grid = _macdonald_grid(nu, ys, _DEFAULT_BUDGET)
            two = int((nu.imag > 1.1 * ys).sum())  # the rows of the line, then both pieces of the two saddles'
            assert halved == [ys.size - two, two, two]
            assert all(grid[i] == macdonald_k(nu, y) for i, y in enumerate(ys))
            with mpmath.workdps(25):
                refs = [complex(mpmath.besselk(mpmath.mpc(nu.real, nu.imag), y)) for y in ys]
            envelope = math.sqrt(2 * math.pi / abs(nu)) * math.exp(-math.pi * nu.imag / 2)
            assert all(abs(v - ref) <= 1e-12 * max(abs(ref), envelope if y < nu.imag else 0.0)
                       for v, ref, y in zip(grid, refs, ys))

    @pytest.mark.parametrize("nu, ys, calls", [
        (10.0j, np.geomspace(1e-6, 9.0, 30), 2),  # two saddles: the line and the descent
        (-0.5 + 18.0j, np.geomspace(1e-6, 16.0, 30), 2),
        (2.0j, np.geomspace(1.9, 700.0, 30), 1),  # one saddle: a line through it
        (3.5 + 20.0j, np.geomspace(19.0, 700.0, 30), 1),
    ])
    def test_one_integrand_call_per_saddle_piece(self, monkeypatch, nu, ys, calls):
        # Every row certifies at the n of its bound, so each piece of a path
        # evaluates all its rows' nodes in one integrand call, and each value
        # has the bits of its point alone.
        seen, values = [], numerics._values
        monkeypatch.setattr(numerics, "_values", lambda s, *args: seen.append(s.size) or values(s, *args))
        grid = _macdonald_grid(nu, ys, _DEFAULT_BUDGET)
        assert len(seen) == calls
        monkeypatch.undo()
        assert all(grid[i] == macdonald_k(nu, y) for i, y in enumerate(ys))

    def test_saddle_paths_in_batches_match_mpmath(self):
        """Seeded sweep of the batch entries over orders with |Im nu| in (1, 50]
        (the one- and two-saddle paths) and real part -0.5, 0, 0.5, y in
        [1e-6, 700]: each value is within 1e-12 of mpmath (of the envelope
        where y < |Im nu|) or raises, and has the bits of its point alone."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20070624)
        orders = [complex(re, a) for re in (-0.5, 0.0, 0.5) for a in 1.0 + 49.0 * rng.random(10)]
        ys = np.sort(10.0 ** rng.uniform(-6.0, math.log10(700.0), 14))
        batches = [(np.full(ys.size, nu), ys, lambda nu=nu: _macdonald_grid(nu, ys, _DEFAULT_BUDGET))
                   for nu in orders]
        pairs = rng.choice(orders, 200), 10.0 ** rng.uniform(-6.0, math.log10(700.0), 200)
        batches.append((*pairs, lambda: _macdonald_pairs(*pairs, _DEFAULT_BUDGET)))
        worst, raised = 0.0, 0
        with mpmath.workdps(30):
            for nus, y_row, batch in batches:
                try:
                    values = batch()
                except ConvergenceError:  # then some point raises alone too
                    values = [None] * y_row.size
                for nu_i, y, value in zip(nus, y_row, values):
                    try:
                        alone = macdonald_k(nu_i, y)
                    except ConvergenceError:
                        raised += 1
                        assert value is None
                        continue
                    assert value is None or value == alone
                    value = alone
                    ref = complex(mpmath.besselk(mpmath.mpc(nu_i.real, nu_i.imag), y))
                    scale = abs(ref)
                    if y < abs(nu_i.imag):
                        envelope = math.exp(-math.pi * abs(nu_i.imag) / 2)
                        scale = max(scale, math.sqrt(2 * math.pi / abs(nu_i)) * envelope)
                    worst = max(worst, abs(value - ref) / scale)
        assert worst <= 1e-12
        assert raised <= 0.02 * (len(orders) * ys.size + pairs[1].size)

    def test_unreachable_accuracy_raises(self):
        # K_50(1e-6) is about 1e377: no float holds it.
        with pytest.raises(ConvergenceError):
            macdonald_k(50.0, 1e-6)

    @pytest.mark.parametrize("nu, y", [(0.5j, math.nan), (math.nan, 1.0), (complex(0.0, math.inf), 1.0),
                                       (complex(math.inf, 0.5), 1.0), (0.5j, -math.inf), (0.5j, 0.0)])
    def test_non_finite_or_non_positive_input_raises(self, nu, y):
        with pytest.raises(ValueError):
            macdonald_k(nu, y)
        with pytest.raises(ValueError):
            _macdonald_grid(nu, np.array([0.5, y]), _DEFAULT_BUDGET)
        with pytest.raises(ValueError):
            _macdonald_pairs(np.array([0.4j, nu]), np.array([0.5, y]), _DEFAULT_BUDGET)

    def test_zero_at_infinite_argument(self):
        assert macdonald_k(0.5j, math.inf) == 0.0
        assert np.array_equal(_macdonald_grid(0.5 + 3.0j, np.array([1.0, math.inf]), _DEFAULT_BUDGET)[1:], [0.0])
        assert np.array_equal(_macdonald_pairs(np.array([0.4j, 2.0]), math.inf, _DEFAULT_BUDGET), [0.0, 0.0])

    def test_closed_forms_reject_a_nan_coordinate(self):
        # The Macdonald argument 2 exp((x_1 - x_2)/2) (2 exp(x/2) at so3) is
        # NaN or 0 at these coordinates, where K is unbounded: ValueError,
        # naming them.  Where it is infinite, K and the function are 0.
        for x in [(math.nan, 0.2), (0.2, math.inf), (-math.inf, 0.2), (math.inf, math.inf), (-2000.0, 0.2)]:
            with pytest.raises(ValueError, match=re.escape(str([list(x)]))):
                closed_form_gl2((0.5, -0.5), x)
            with pytest.raises(ValueError, match=re.escape(str([list(x)]))):
                closed_form_gl2_batch((0.5, -0.5), np.array([[0.3, 0.1], x]))
        for x in (math.nan, -math.inf, -2000.0):
            with pytest.raises(ValueError, match=re.escape(repr(x))):
                closed_form_so3(0.5, x)
        for x in [(math.inf, 0.2), (0.2, -math.inf), (3000.0, 0.2)]:
            assert closed_form_gl2((0.5, -0.5), x) == 0.0
        rows = np.array([[0.3, 0.1], [math.inf, 0.2], [0.2, -math.inf], [math.inf, -math.inf]])
        batch = closed_form_gl2_batch((0.5, -0.5), rows)
        assert batch[0] == closed_form_gl2((0.5, -0.5), rows[0]) and np.array_equal(batch[1:], [0.0, 0.0, 0.0])
        assert closed_form_so3(0.5, math.inf) == closed_form_so3(0.5, 3000.0) == 0.0


def test_accuracy_budget_fields():
    b = AccuracyBudget(rel_tol=1e-9, abs_floor=1e-200)
    assert b.rel_tol == 1e-9
    assert b.abs_floor == 1e-200
