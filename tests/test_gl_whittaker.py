"""A-series eigenfunctions: closed forms, recursive/spectral evaluators,
and the differential operators they diagonalize."""

import cmath
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from toda_whittaker import gl_whittaker
from toda_whittaker.errors import ContourError, RankError
from toda_whittaker.gl_whittaker import (
    _coordinate_rank1,
    _spectral_density,
    _spectral_rank1,
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
from toda_whittaker.numerics import _DEFAULT_BUDGET, _fold_orders
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

    def test_mb_closed_form_dedupe_keeps_the_bits(self, monkeypatch):
        # One Macdonald value per distinct order up to sign: on a contour
        # pair the orders i (t_1 - t_2) come in +- pairs, and K_nu = K_-nu.
        # The kernel sees each folded order once, and the values have the
        # same bits as row by row and as the kernel at the unfolded orders.
        t = np.arange(-24, 25) / 4.0
        grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2) - 0.7j
        x = (0.3, -0.2)
        rows = np.concatenate([mb_closed_form_batch(grid[i:i + 1], x) for i in range(len(grid))])
        kernel, seen = gl_whittaker._macdonald_pairs, []
        monkeypatch.setattr(gl_whittaker, "_macdonald_pairs", lambda nu, y, b: seen.append(nu) or kernel(nu, y, b))
        batch = mb_closed_form_batch(grid, x)
        assert np.array_equal(batch, rows)
        (orders,) = seen
        assert orders.size == t.size and np.array_equal(np.sort(orders.imag), t - t[0])
        unfolded = 1j * (grid[:, 0] - grid[:, 1])
        k = kernel(unfolded, np.full(len(grid), 2.0 * math.exp(0.25)), _DEFAULT_BUDGET)
        phase = np.exp(-0.5j * (grid[:, 0] + grid[:, 1]) * (x[0] + x[1]))
        assert np.array_equal(batch, 2.0 * phase * k)
        # Orders with mixed real parts (a contour pair at two offsets) and
        # rows off any contour, some repeated: the same bits as row by row,
        # each distinct folded order once.
        rng = np.random.default_rng(5)
        off = rng.uniform(-2.0, 2.0, size=(40, 3)) + 1j * rng.uniform(-1.5, -0.2, size=(40, 3))
        mixed = np.concatenate([grid + np.array([0.0, 0.3j]), off[:, :2], off[::3, :2]])
        rows = np.concatenate([mb_closed_form_batch(mixed[i:i + 1], x) for i in range(len(mixed))])
        seen.clear()
        assert np.array_equal(mb_closed_form_batch(mixed, x), rows)
        (orders,) = seen
        assert orders.size == np.unique(_fold_orders(1j * (mixed[:, 0] - mixed[:, 1]))).size == 2 * t.size - 1 + 40

    @staticmethod
    def _density_rows(betas):
        """The spectral density's formula at every row, out of place."""
        n = betas.shape[1]
        density = np.full(len(betas), 1.0 / ((2.0 * math.pi) ** n * math.factorial(n)), dtype=complex)
        for j, k in itertools.combinations(range(n), 2):
            w = 1j * (betas[:, j] - betas[:, k])
            density = density * (-w * np.sin(math.pi * w) / math.pi)
        return density

    def test_spectral_density_on_axes_is_its_formula_at_every_node(self):
        # On lattice axes of two and three variables (steps 1/4 and 1/2, at
        # two offsets, as a later halving's sub-grids mix them) the density,
        # computed once per difference of two axes, has the bits of its
        # formula at every node; so do single nodes off any lattice.
        axes = (np.arange(-9, 8, 2) / 4.0 - 0.7j, np.arange(-12, 13) / 4.0 - 0.4j, np.arange(-3, 4) / 2.0 - 0.4j)
        for n in (2, 3):
            grid = np.stack(np.meshgrid(*axes[:n], indexing="ij"), axis=-1).reshape(-1, n)
            assert np.array_equal(_spectral_density(axes[:n]).ravel(), self._density_rows(grid))
        rng = np.random.default_rng(5)
        off = rng.uniform(-2.0, 2.0, size=(40, 3)) + 1j * rng.uniform(-1.5, -0.2, size=(40, 3))
        one = np.array([_spectral_density(tuple(b[j:j + 1] for j in range(3))).item() for b in off])
        assert np.array_equal(one, self._density_rows(off))
        assert all(plancherel_measure(b) == d for b, d in zip(off, one))

    def test_coordinate_rank1_dedupe_keeps_the_bits(self):
        # The rank-1 coordinate level is integrated once per distinct key
        # (p1 - p2, u1 - u2), with the same bits as row by row, and costs
        # the evaluations of its distinct keys alone.  LR's rows are
        # contour-grid parameters at one coordinate row (49 distinct
        # differences), LL's lattice coordinates at one parameter row (49).
        t = np.arange(-12, 13) / 4.0
        grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        p, one = 0.7j - grid, np.ones(grid.shape[0])
        lr = (p[:, 0], p[:, 1], 0.3 * one, -0.2 * one), (np.unique(p[:, 0] - p[:, 1]), 0.0, 0.3, -0.2)
        ll = (0.6 * one, 0.1 * one, grid[:, 0], grid[:, 1]), (0.6, 0.1, np.unique(grid[:, 0] - grid[:, 1]), 0.0)
        for rows, keys in (lr, ll):
            values, _, evals = _coordinate_rank1(*rows, 9.0, 1e-8, 10**7)
            alone = [_coordinate_rank1(*(r[i:i + 1] for r in rows), 9.0, 1e-8, 10**7)[0] for i in range(one.size)]
            assert np.array_equal(values, np.concatenate(alone))
            assert evals == _coordinate_rank1(*keys, 9.0, 1e-8, 10**7)[2]

    def test_rl_rank1_dedupe_keeps_the_bits(self):
        # RL integrates its rank-1 spectral level once per distinct
        # difference of its lattice rows, with the same bits as row by row,
        # and costs the evaluations of the 33 distinct differences alone.
        t = np.arange(-8, 9) / 4.0
        y = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        l1, l2 = 0.6, 0.1
        rows = np.concatenate([_spectral_rank1(l1, l2, q[:1], q[1:], 1e-8, 10**7)[0] for q in y])
        values, _, evals = _spectral_rank1(l1, l2, y[:, 0], y[:, 1], 1e-8, 10**7)
        assert np.array_equal(values, rows)
        assert evals == _spectral_rank1(l1, l2, 0.0, np.unique(y[:, 1] - y[:, 0]), 1e-8, 10**7)[2]

    def test_rl_converges_at_its_default_tol(self):
        # It raised BudgetExceeded here: its rank-1 level was summed afresh
        # at each of the step's adaptive nodes (4,177,636 evaluations
        # against the default 4,000,000).
        lam, x = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
        res = mixed_eval("RL", lam, x)
        assert res.converged and res.evaluations <= 4_000_000
        assert abs(res.value - mellin_barnes_eval(lam, x, 1e-10).value) <= res.abs_error

    def test_gl3_recursive_at_tight_tol_stays_within_its_budget(self):
        # At tol 1e-12 a rank-1 row that did not settle on Gauss-Legendre
        # rules of up to 8,192 nodes went on to build the 16,384-node rule,
        # a dense eigenproblem of about 4 GB, outside max_evals: MemoryError
        # under a 1.5 GB address-space cap.  The call runs in a child
        # process under that cap; it must converge, or stop by its budget.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
            "from toda_whittaker.errors import BudgetExceeded\n"
            "from toda_whittaker.gl_whittaker import givental_recursive_eval\n"
            "try:\n"
            "    res = givental_recursive_eval((0.6, 0.1, -0.45), (0.3, -0.2, 0.5), 1e-12)\n"
            "except BudgetExceeded:\n"
            "    print('budget')\n"
            "else:\n"
            "    print(res.converged, res.evaluations)\n"
        )
        src = os.path.dirname(os.path.dirname(gl_whittaker.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = proc.stdout.split()
        assert out == ["budget"] or (out[0] == "True" and int(out[1]) <= 4_000_000)

    def test_words_of_one_model_are_the_plain_evaluators(self):
        lam, x = (0.6, 0.1, -0.45), (0.3, -0.2, 0.5)
        assert mixed_eval("LL", lam, x, 1e-5) == givental_recursive_eval(lam, x, 1e-5)
        assert mixed_eval("RR", lam, x, 1e-5) == mellin_barnes_eval(lam, x, 1e-5)

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


# mellin_barnes_eval with three coordinates at rank 1 returned the function at
# (x_1, x_3) marked converged; with too few it raised IndexError, and the
# coordinate recursion and the hybrid words a bare unpacking ValueError.
@pytest.mark.parametrize(
    "evaluate, args",
    [
        (givental_eval, ((0.4, -0.3), (0.1, 0.2, 0.3), 1e-6)),
        (givental_recursive_eval, ((0.4, -0.3), (0.1, 0.2, 0.3), 1e-6)),
        (givental_recursive_eval, ((0.6, 0.1, -0.45), (0.3, -0.2), 1e-6)),
        (mellin_barnes_eval, ((0.4, -0.3), (0.1, 0.2, 0.3), 1e-6)),
        (mellin_barnes_eval, ((0.4, -0.3), (0.1,), 1e-6)),
        (mixed_eval, ("R", (0.4, -0.3), (0.1, 0.2, 0.3), 1e-6)),
        (mixed_eval, ("L", (0.4, -0.3), (0.1, 0.2, 0.3), 1e-6)),
        (mixed_eval, ("LR", (0.6, 0.1, -0.45), (0.3, -0.2), 1e-6)),
        (mixed_eval, ("RL", (0.6, 0.1, -0.45), (0.3, -0.2, 0.5, 0.1), 1e-6)),
        (mb_closed_form_batch, (np.asarray([[0.4 + 0j]]), (0.1, 0.2))),
        (mb_closed_form_batch, (np.asarray([[0.4 + 0j, -0.3 + 0j]]), (0.1,))),
    ],
    ids=[
        "givental-too-many", "recursive-too-many", "recursive-too-few", "mb-too-many", "mb-too-few",
        "word-R-too-many", "word-L-too-many", "word-LR-too-few", "word-RL-too-many",
        "mb-closed-form-too-many", "mb-closed-form-too-few",
    ],
)
def test_wrong_coordinate_count_is_a_rank_error(evaluate, args):
    with pytest.raises(RankError):
        evaluate(*args)


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
