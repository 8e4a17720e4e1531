"""Odd-orthogonal chain: closed form, recursive evaluators, integral
operator, and the quadratic Hamiltonian."""

import math

import numpy as np
import pytest

from toda_whittaker.errors import RankError, ShiftError
from toda_whittaker.numerics import _quadrature_budget, log_gamma
from toda_whittaker.quadrature import _integrate_truncated, _rate_reach, _wall_reach, stable_exp
from toda_whittaker import so_toda
from toda_whittaker.so_toda import (
    _closed_form_so3_batch,
    _so_baxter_kernel,
    _so_step_exponent_rows,
    closed_form_so3,
    so_baxter_apply,
    so_baxter_eigenvalue,
    so_givental_eval,
    so_recursive_eval,
    so_toda_apply_h2,
)

from _oracles import K_I_2, SO_EIG


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class TestClosedForm:
    def test_reference_value(self):
        # 2 K_{2 i lam}(2 e^{x/2}) at lam = 1/2, x = 0.
        assert _rel(closed_form_so3(0.5, 0.0), 2.0 * K_I_2) < 1e-12

    def test_even_in_parameter(self):
        assert closed_form_so3(0.7, 0.4) == closed_form_so3(-0.7, 0.4)

    def test_real_for_real_data(self):
        val = closed_form_so3(0.6, -0.3)
        assert val.imag == 0.0
        assert val.real > 0


class TestEvaluators:
    def test_rank1_matches_closed_form(self):
        for lam, x in ((0.6, 0.3), (0.35, -0.5)):
            res = so_givental_eval((lam,), (x,), 1e-10)
            assert _rel(res.value, closed_form_so3(lam, x)) < 1e-8

    def test_rank2_models_agree(self):
        lam = (0.55, 0.2)
        x = (0.4, -0.3)
        a = so_givental_eval(lam, x, 1e-6)
        b = so_recursive_eval(lam, x, 1e-6)
        assert abs(a.value - b.value) < 5e-6

    def test_rank_validation(self):
        with pytest.raises(RankError):
            so_givental_eval((0.5, 0.2), (0.1,), 1e-8)


class TestBaxterOperator:
    def test_eigenvalue_reference(self):
        # Gamma(0.8 + 0.5i) Gamma(0.8 - 0.5i) at gamma = -0.8i, lam = 1/2.
        assert _rel(so_baxter_eigenvalue(-0.8j, (0.5,)), SO_EIG) < 1e-12

    def test_eigenvalue_even_in_lam(self):
        assert so_baxter_eigenvalue(-1.1j, (0.4,)) == so_baxter_eigenvalue(-1.1j, (-0.4,))

    def test_apply_matches_eigenvalue(self):
        gamma, lam, y = -0.8j, (0.5,), (0.2,)
        res = so_baxter_apply(gamma, lam, y, 1e-4)
        base = closed_form_so3(lam[0], y[0])
        ratio = res.value / base
        expected = so_baxter_eigenvalue(gamma, lam)
        assert abs(ratio - expected) <= 1e-3 * max(1.0, 1.0 / abs(base))

    def test_kernel_and_eigenfunction_share_one_macdonald_call(self, monkeypatch):
        # The operator's integrand takes the kernel's K_{2i gamma} and the
        # eigenfunction's K_{2i lam} from one kernel call, with the bits of
        # the two separate grid calls.
        xs, budget = np.linspace(-9.0, 4.0, 61), _quadrature_budget(1e-6)
        calls, pairs = [], so_toda._macdonald_pairs
        monkeypatch.setattr(so_toda, "_macdonald_pairs", lambda *args: calls.append(1) or pairs(*args))
        merged = _so_baxter_kernel(-0.8j, 0.2, xs, budget, 0.5)
        assert calls == [1]
        assert np.array_equal(merged, _so_baxter_kernel(-0.8j, 0.2, xs, budget) * _closed_form_so3_batch(0.5, xs, budget))

    @pytest.mark.parametrize(
        "gamma, y, x",
        # Re(i gamma +/- i lam) = 0.26 at real lam, near MIN_SO_SPECTRAL_GAP.
        [(-0.26j, 0.3, -0.4), (0.2 - 0.9j, -0.5, 0.7), (-0.3 - 1.2j, 1.0, -1.5)],
    )
    def test_kernel_is_the_step_over_its_middle_row(self, gamma, y, x):
        # The closed kernel against its definition: the so step from [y] to
        # [x], integrated over the middle row [z_0, z_1], over Gamma(2 i gamma).
        tol = 1e-12
        closed = complex(_so_baxter_kernel(gamma, y, np.array([x]), _quadrature_budget(tol))[0])
        r = _wall_reach(tol, 4, (gamma, -gamma))
        box = [(max(x, y) - r, r), (min(x, y) - _rate_reach(tol, 4, (2j * gamma).real), min(x, y) + r)]

        def f(p):
            expo = _so_step_exponent_rows([y], [p[:, 0], p[:, 1]], [x], gamma)
            return stable_exp(expo - log_gamma(2j * gamma))

        res = _integrate_truncated(f, box, tol, 10**7, (gamma, -gamma))
        assert res.converged
        assert _rel(closed, res.value) < 1e-8

    def test_shift_gate(self):
        with pytest.raises(ShiftError):
            so_baxter_apply(0.3, (0.5,), (0.2,), 1e-6)

    def test_rank_gate(self):
        with pytest.raises(RankError):
            so_baxter_apply(-0.8j, (0.5, 0.2), (0.2, -0.1), 1e-6)


class TestQuadraticHamiltonian:
    def test_rank1_energy(self):
        lam = 0.6

        def psi(xs):
            return np.array([closed_form_so3(lam, float(r[0])) for r in xs])

        x = (0.25,)
        base = complex(psi(np.asarray([x]))[0])
        coarse = so_toda_apply_h2(psi, x, 1e-3)
        fine = so_toda_apply_h2(psi, x, 5e-4)
        rich = (4.0 * fine - coarse) / 3.0
        assert abs(rich / base - 0.5 * lam**2) < 1e-7
