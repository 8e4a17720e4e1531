"""A-series eigenfunctions: closed forms, recursive/spectral evaluators,
and the differential operators they diagonalize."""

import cmath
import math

import numpy as np
import pytest

from toda_whittaker.errors import ContourError, RankError
from toda_whittaker.gl_whittaker import (
    closed_form_gl2,
    closed_form_gl2_batch,
    givental_eval,
    givental_recursive_eval,
    givental_step_kernel,
    mb_closed_form_batch,
    mellin_barnes_eval,
    mixed_eval,
    plancherel_measure,
    toda_apply,
)
from toda_whittaker.quadrature import ContourSpec

from _oracles import K_2I_2, MB_GL2_REF


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class TestClosedForm:
    def test_reference_values(self):
        assert _rel(closed_form_gl2((1.0, -1.0), (0.0, 0.0)), 2.0 * K_2I_2) < 1e-12
        assert _rel(closed_form_gl2((-0.4, 0.25), (0.35, -0.15)), MB_GL2_REF) < 1e-12

    def test_weyl_symmetry(self):
        lam = (0.7, -0.2)
        x = (0.4, -0.6)
        assert _rel(closed_form_gl2(lam, x), closed_form_gl2(lam[::-1], x)) < 1e-13

    def test_center_of_mass_translation(self):
        lam = (0.5, -0.3)
        x = (0.2, -0.4)
        c = 0.37
        shifted = closed_form_gl2(lam, (x[0] + c, x[1] + c))
        phase = cmath.exp(1j * (lam[0] + lam[1]) * c)
        assert _rel(shifted, phase * closed_form_gl2(lam, x)) < 1e-12

    def test_batch_matches_scalar(self):
        lam = (0.6, -0.1)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.5, 1.5, size=(9, 2))
        batch = closed_form_gl2_batch(lam, xs)
        for row, val in zip(xs, batch):
            assert _rel(val, closed_form_gl2(lam, tuple(row))) < 1e-12


class TestStepKernel:
    def test_empty_bottom_is_plane_wave(self):
        assert _rel(givental_step_kernel((0.4,), (), 0.6), cmath.exp(1j * 0.6 * 0.4)) < 1e-14

    def test_single_wall_pair(self):
        x_top, x_bot, lam = (0.3, -0.2), (0.1,), 0.5
        expected = cmath.exp(
            1j * lam * (0.3 - 0.2 - 0.1)
            - math.exp(0.3 - 0.1)
            - math.exp(0.1 - (-0.2))
        )
        assert _rel(givental_step_kernel(x_top, x_bot, lam), expected) < 1e-13


class TestEvaluators:
    def test_rank1_plane_wave(self):
        res = givental_eval((0.7,), (0.3,), 1e-10)
        assert _rel(res.value, cmath.exp(1j * 0.7 * 0.3)) < 1e-10

    def test_givental_matches_closed_rank2(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            lam = tuple(rng.uniform(-1.0, 1.0, size=2))
            x = tuple(rng.uniform(-1.0, 1.0, size=2))
            ref = closed_form_gl2(lam, x)
            res = givental_eval(lam, x, 1e-10)
            assert _rel(res.value, ref) < 1e-8

    def test_recursive_matches_closed_rank2(self):
        lam, x = (0.45, -0.8), (0.3, -0.55)
        ref = closed_form_gl2(lam, x)
        res = givental_recursive_eval(lam, x, 1e-9)
        assert _rel(res.value, ref) < 1e-8

    def test_mb_matches_closed_rank2(self):
        lam, x = (0.4, -0.3), (0.25, -0.45)
        ref = closed_form_gl2(lam, x)
        res = mellin_barnes_eval(lam, x, 1e-9)
        assert _rel(res.value, ref) < 1e-8

    def test_rank3_models_agree(self):
        lam = (0.6, 0.1, -0.45)
        x = (0.3, 0.0, -0.3)
        giv = givental_recursive_eval(lam, x, 1e-6).value
        mb = mellin_barnes_eval(lam, x, 1e-6).value
        assert abs(giv - mb) < 5e-6

    def test_rank3_error_bar_at_the_default_contour(self):
        # The adaptive engine returned a value 2.21e-4 off, marked converged
        # with abs_error 9.85e-6.
        lam, x = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
        res = mellin_barnes_eval(lam, x, 1e-5)
        ref = givental_eval(lam, x, 1e-9).value
        assert res.converged
        assert abs(res.value - ref) <= res.abs_error <= 1e-5

    def test_rank3_contour_may_move_within_the_pole_free_band(self):
        lam, x = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
        ref = mellin_barnes_eval(lam, x, 1e-7).value
        for rows in ([[-2.0], [-1.5, -1.5]], [[-1.2], [-0.6, -0.9]]):
            res = mellin_barnes_eval(lam, x, 1e-7, contour=ContourSpec(rows))
            assert abs(res.value - ref) < 2e-7

    def test_contour_must_sit_below_the_parameters(self):
        # Level-2 offsets at 0.7 once gave a value 5.6e-3 off at tol 1e-5,
        # marked converged.
        lam, x = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
        with pytest.raises(ContourError):
            mellin_barnes_eval(lam, x, 1e-5, contour=ContourSpec([[0.2], [0.7, 0.7]]))
        with pytest.raises(ContourError):
            mellin_barnes_eval((0.4, -0.3), (0.1, 0.2), 1e-5, contour=ContourSpec([[0.1]]))
        with pytest.raises(ValueError):
            mellin_barnes_eval(lam, x, 1e-5, contour=ContourSpec([[-1.0, -1.0]]))

    def test_mb_closed_form_dedupe_keeps_the_bits(self):
        # One Macdonald value per distinct order, the same bits as row by row.
        t = np.arange(-24, 25) / 4.0
        grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2) - 0.7j
        x = (0.3, -0.2)
        rows = np.concatenate([mb_closed_form_batch(grid[i:i + 1], x) for i in range(len(grid))])
        assert np.array_equal(mb_closed_form_batch(grid, x), rows)

    def test_mixed_words_agree_rank2(self):
        lam, x = (0.5, -0.25), (0.2, -0.3)
        ref = closed_form_gl2(lam, x)
        for word in ("L", "R"):
            res = mixed_eval(word, lam, x, 1e-8)
            assert abs(res.value - ref) < 5e-7

    def test_rank_validation(self):
        with pytest.raises(RankError):
            closed_form_gl2((0.5,), (0.1, 0.2))
        with pytest.raises(RankError):
            givental_eval((0.5, 0.2), (0.1,), 1e-8)


class TestTodaOperators:
    @staticmethod
    def _richardson(h, psi, x, step=1e-3):
        coarse = toda_apply(h, psi, x, step)
        fine = toda_apply(h, psi, x, step / 2.0)
        return (4.0 * fine - coarse) / 3.0

    def test_rank1_momentum_and_energy(self):
        lam = 0.7

        def psi(xs):
            return np.exp(1j * lam * xs[:, 0])

        x = (0.3,)
        base = complex(psi(np.asarray([x]))[0])
        assert abs(self._richardson("H1", psi, x) / base - lam) < 1e-7
        assert abs(self._richardson("H2tilde", psi, x) / base - 0.5 * lam**2) < 1e-7

    def test_rank2_momentum_and_energy(self):
        lam = (0.5, -0.3)

        def psi(xs):
            return closed_form_gl2_batch(lam, xs)

        x = (0.2, -0.1)
        base = complex(psi(np.asarray([x]))[0])
        assert abs(self._richardson("H1", psi, x) / base - (lam[0] + lam[1])) < 1e-7
        energy = 0.5 * (lam[0] ** 2 + lam[1] ** 2)
        assert abs(self._richardson("H2tilde", psi, x) / base - energy) < 1e-7

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            toda_apply("H9", lambda xs: xs[:, 0] + 0j, (0.1,))


def test_plancherel_measure_positive_for_real_parameters():
    val = plancherel_measure((0.8, -0.3))
    assert val.real > 0
    assert abs(val.imag) < 1e-12 * val.real
