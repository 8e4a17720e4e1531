"""Integral operator family: eigen-relations, functional identities, the
spectral-side dual, and the rank-2 symmetric-space reduction."""

import cmath
import math

import numpy as np
import pytest

from toda_whittaker.errors import (
    ContourError,
    ConvergenceError,
    RankError,
    ShiftError,
    SingularMatrixError,
)
from toda_whittaker.gl_baxter import (
    baxter_apply,
    baxter_eigenfunction,
    baxter_eigenfunction_batch,
    baxter_eigenvalue,
    baxter_kernel,
    commutation_residual,
    dual_baxter_apply,
    gaussian_zonal_function,
    half_sum_offsets,
    lowering_compatibility,
    mb_closed_form_batch,
    spherical_function_rank2,
    spherical_transform_check_rank2,
    universal_baxter_phi,
)
from toda_whittaker.gl_whittaker import closed_form_gl2
from toda_whittaker.quadrature import ContourSpec

from _oracles import SPHERICAL_RHS


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _zonal_error(mp, gamma, x, value: complex) -> float:
    """Error of a rank-2 zonal value against mpmath's Legendre function,
    relative to the larger of the reference and, near its zeros, the least
    modulus of the averaged plane wave (the accuracy the function claims)."""
    with mp.workdps(40):
        g1, g2 = mp.mpc(gamma[0]), mp.mpc(gamma[1])
        lo, hi = mp.mpf(min(x)), mp.mpf(max(x))
        d = hi - lo
        a = 0.5j * (g2 - g1)
        ref = mp.exp(0.5j * (g1 + g2) * (lo + hi)) * mp.legenp(a, 0, mp.cosh(d), type=3)
        least = abs(mp.exp(1j * (g1 * lo + g2 * hi))) * min(1, mp.exp(-2 * d * a.real))
        return float(abs(value - ref) / max(abs(ref), least))


class TestEigenvalues:
    def test_convention_rescaling_consistency(self):
        # Halving coordinates doubles spectral parameters: the wide-wall
        # eigenvalue at (2*gamma, 2*lam) reproduces the narrow-wall one.
        gamma, lam = -1.1j, (0.45, -0.3)
        a = baxter_eigenvalue(gamma, lam, "lie")
        b = baxter_eigenvalue(2 * gamma, tuple(2 * l for l in lam), "iwasawa")
        assert a == b

    def test_difference_equation(self):
        lam = (0.4, -0.7)
        for gamma in (-1.3j, 0.5 - 1.6j):
            lead = 1.0 + 0j
            for l in lam:
                lead *= 1j * gamma - 1j * l
            shifted = baxter_eigenvalue(gamma - 1j, lam, "lie")
            assert _rel(shifted, lead * baxter_eigenvalue(gamma, lam, "lie")) < 1e-12

    def test_weyl_invariance(self):
        gamma, lam = -1.4j, (0.6, -0.25)
        assert baxter_eigenvalue(gamma, lam, "lie") == baxter_eigenvalue(
            gamma, lam[::-1], "lie"
        )


class TestEigenRelation:
    @pytest.mark.parametrize("convention", ["lie", "iwasawa", "iwasawa_pi"])
    def test_rank1(self, convention):
        gamma, lam, y = -2.4j, (0.8,), (0.4,)

        def psi(xs):
            return baxter_eigenfunction_batch(lam, xs, convention)

        res = baxter_apply(psi, y, gamma, convention, 1e-8, psi_spectral=lam)
        base = baxter_eigenfunction(lam, y, convention)
        ratio = res.value / base
        assert _rel(ratio, baxter_eigenvalue(gamma, lam, convention)) < 1e-7

    def test_rank2_narrow_wall(self):
        gamma, lam, y = -1.5j, (0.5, -0.5), (0.1, -0.3)

        def psi(xs):
            return baxter_eigenfunction_batch(lam, xs, "lie")

        res = baxter_apply(psi, y, gamma, "lie", 1e-5, psi_spectral=lam)
        base = baxter_eigenfunction(lam, y, "lie")
        ratio = res.value / base
        assert _rel(ratio, baxter_eigenvalue(gamma, lam, "lie")) < 1e-4

    def test_shift_gate(self):
        lam = (0.4,)
        with pytest.raises(ShiftError):
            baxter_apply(
                lambda xs: baxter_eigenfunction_batch(lam, xs, "lie"),
                (0.2,),
                0.5,
                "lie",
                1e-6,
                psi_spectral=lam,
            )

    def test_eigenfunction_rank3_rejected(self):
        with pytest.raises(RankError):
            baxter_eigenfunction((0.3, 0.0, -0.3), (0.1, 0.0, -0.1), "lie")


class TestOperatorIdentity:
    def test_shift_lowers_to_first_hamiltonian_rank1(self):
        # Applying at a parameter moved one unit down the imaginary axis
        # equals multiplying by (i*gamma) and subtracting the derivative of
        # the applied function: L(gamma - i) f = i gamma (L f) - (L f)'.
        gamma, y = 0.3 - 0.9j, 0.2

        def psi(xs):
            return np.exp(-2.0 * np.cosh(xs[:, 0] - 0.3))

        def g(point, gam):
            return baxter_apply(psi, (point,), gam, "lie", 1e-10).value

        lhs = g(y, gamma - 1j)
        base = g(y, gamma)
        h = 1e-3

        def deriv(step):
            return (g(y + step, gamma) - g(y - step, gamma)) / (2.0 * step)

        d_rich = (4.0 * deriv(h / 2.0) - deriv(h)) / 3.0
        rhs = 1j * gamma * base - d_rich
        assert abs(lhs - rhs) < 1e-6

    def test_kernel_positive_real_for_imaginary_parameter(self):
        val = baxter_kernel((0.1, -0.2), (0.3, 0.0), -1.2j, "lie")
        assert val.real > 0
        assert val.imag == 0.0


class TestCommutationAndLowering:
    def test_two_parameters_commute_rank1(self):
        chk = commutation_residual((-0.9j, -1.4j), (0.3,), (0.2,), 1e-7)
        assert chk.residual < 1e-6

    def test_lowering_compatibility(self):
        chk = lowering_compatibility(-1.3j, 0.4, (0.25, -0.3), 0.1, 1e-7)
        assert chk.residual < 1e-5


class TestDualOperator:
    def test_rank1_multiplier(self):
        gamma, x, z = (0.4,), (0.1,), 0.7

        def F(betas):
            return mb_closed_form_batch(betas, x)

        res = dual_baxter_apply(F, gamma, z, 1e-8)
        base = complex(mb_closed_form_batch(np.asarray([gamma], dtype=complex), x)[0])
        ratio = res.value / base
        expected = math.exp(-math.exp(x[-1] - z))
        assert abs(ratio - expected) < 1e-7
        # The multiplier is real and strictly inside (0, 1).
        assert abs(ratio.imag) < 1e-7
        assert 0.0 < ratio.real < 1.0

    def test_rank2_multiplier(self):
        gamma, x, z = (0.5, -0.3), (0.2, -0.4), 0.9

        def F(betas):
            return mb_closed_form_batch(betas, x)

        res = dual_baxter_apply(F, gamma, z, 1e-5)
        base = complex(mb_closed_form_batch(np.asarray([gamma], dtype=complex), x)[0])
        ratio = res.value / base
        expected = math.exp(-math.exp(x[-1] - z))
        assert abs(ratio - expected) < 1e-4

    def test_contour_must_sit_below_the_parameters(self):
        # Offsets 0.3 and 1.3 once gave multipliers 1.0 and 0.45 off, marked
        # converged.
        x = (0.1,)

        def F(betas):
            return mb_closed_form_batch(betas, x)

        for c in (0.3, 1.3, 0.0):
            with pytest.raises(ContourError):
                dual_baxter_apply(F, (0.4,), 0.7, 1e-8, contour=ContourSpec([[c]]))
        with pytest.raises(ContourError):
            dual_baxter_apply(F, (0.5, -0.3 + 0.2j), 0.9, 1e-5, contour=ContourSpec([[0.1, 0.1]]))
        res = dual_baxter_apply(F, (0.4,), 0.7, 1e-8, contour=ContourSpec([[-1.0]]))
        ratio = res.value / cmath.exp(-1j * 0.4 * x[0])
        assert abs(ratio - math.exp(-math.exp(x[-1] - 0.7))) < 1e-7

    def test_mb_normalization_rank1_plane_wave(self):
        betas = np.asarray([[0.7 + 0j]], dtype=complex)
        val = complex(mb_closed_form_batch(betas, (0.3,))[0])
        assert _rel(val, cmath.exp(-1j * 0.7 * 0.3)) < 1e-12

    def test_mb_normalization_rank2_matches_closed_form(self):
        lam = (0.45, -0.2)
        x = (0.3, -0.1)
        betas = np.asarray([[-lam[0], -lam[1]]], dtype=complex)
        val = complex(mb_closed_form_batch(betas, x)[0])
        assert _rel(val, closed_form_gl2(lam, x)) < 1e-11


class TestRotationInvariantKernel:
    def test_identity_matrix_value(self):
        val = universal_baxter_phi(np.eye(2), 0.0)
        assert _rel(val, 4.0 * math.exp(-2.0 * math.pi)) < 1e-14

    def test_rotation_biinvariance(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(2, 2))
        lam = 0.6 - 0.2j
        for theta in (0.3, 1.1):
            c, s = math.cos(theta), math.sin(theta)
            k = np.array([[c, -s], [s, c]])
            assert _rel(universal_baxter_phi(k @ g, lam), universal_baxter_phi(g, lam)) < 1e-12
            assert _rel(universal_baxter_phi(g @ k, lam), universal_baxter_phi(g, lam)) < 1e-12

    def test_diagonal_specialization(self):
        # The Gaussian zonal weight is this kernel on the inverse element.
        lam = 0.4 - 0.1j
        for x in ((0.3, -0.2), (-0.5, 0.7)):
            g_inv = np.diag([math.exp(-x[0]), math.exp(-x[1])])
            a = universal_baxter_phi(g_inv, lam)
            b = gaussian_zonal_function(lam, x)
            assert _rel(a, b) < 1e-12

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            universal_baxter_phi([[1.0, 2.0], [2.0, 4.0]], 0.3)
        with pytest.raises(RankError):
            universal_baxter_phi([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]], 0.3)


class TestSphericalRank2:
    def test_position_swap_symmetry(self):
        gamma = (0.7, -0.2)
        a = spherical_function_rank2(gamma, (0.3, -0.4))
        b = spherical_function_rank2(gamma, (-0.4, 0.3))
        assert a == b

    def test_negated_parameters_conjugate(self):
        x = (0.3, -0.4)
        a = spherical_function_rank2((0.7, -0.2), x)
        b = spherical_function_rank2((-0.7, 0.2), x)
        assert _rel(b, a.conjugate()) < 1e-12

    def test_zero_parameter_is_constant_one(self):
        for x in ((0.0, 0.0), (0.4, -0.3), (-1.0, 0.6)):
            assert _rel(spherical_function_rank2((0.0, 0.0), x), 1.0) < 1e-10

    def test_closed_form_matches_legendre_function(self):
        # phi = exp(i (g1 + g2) s / 2) P_a(cosh d), a = i (g2 - g1) / 2; the
        # 2048-point circle average this replaced was off by 6e-6 at d = 6.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(41)
        points = [
            ((20.0, -20.0), (0.0, 0.5 * math.log(2.0))),
            ((20.0 - 0.4j, -20.0 + 0.4j), (-0.1, 0.18)),
            ((-20.0, 20.0), (1.0, -39.0)),
            ((0.8, -0.8), (0.0, 6.0)),
        ]
        for i in range(160):
            gamma = rng.uniform(-20.0, 20.0, 2)
            if i % 3 == 0:
                gamma = gamma + 1j * rng.uniform(-0.4, 0.4, 2)
            d = rng.uniform(0.0, 40.0) if i % 2 else rng.uniform(0.0, 1.0)
            x1 = rng.uniform(-2.0, 2.0)
            x = (x1, x1 + d) if i % 4 < 2 else (x1 + d, x1)
            points.append((tuple(complex(g) for g in gamma), x))
        worst = max(
            _zonal_error(mp, gamma, x, spherical_function_rank2(gamma, x))
            for gamma, x in points
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "gamma, x",
        [
            ((0.0, 1j), (0.0, 2.0)),  # 1/2 + a = 0: the connection formula degenerates
            ((0.0, 0.99999j), (0.0, 8.0)),
            ((0.0, 2.9999999j), (0.0, 2.0)),
            ((2000.0, -2000.0), (0.0, 0.0013)),
            ((600.0, -600.0), (0.0, 0.0042)),
            ((-6000.0 + 0.8j, 0.0), (0.0, 10.0)),  # Gamma ratio at |Im z| = 3000
            ((0.2, 2.5j), (0.0, 3.0)),
        ],
    )
    def test_closed_form_raises_or_is_accurate(self, gamma, x):
        mp = pytest.importorskip("mpmath")
        try:
            value = spherical_function_rank2(gamma, x)
        except ConvergenceError:
            return
        assert _zonal_error(mp, gamma, x, value) <= 1e-12

    def test_transform_matches_gamma_product(self):
        chk = spherical_transform_check_rank2((0.8, -0.8), -1.5j, 1e-5)
        assert _rel(chk.rhs, SPHERICAL_RHS) < 1e-12
        assert chk.residual < 1e-4

    def test_transform_constant_zonal_case(self):
        chk = spherical_transform_check_rank2((0.0, 0.0), -1.5j, 1e-5)
        assert chk.residual < 1e-4

    def test_transform_shift_gate(self):
        # Im(lam) >= 0.3 erases the center-of-mass decay entirely.
        with pytest.raises(ShiftError):
            spherical_transform_check_rank2((0.8, -0.8), 0.5j, 1e-5)

    @pytest.mark.parametrize("lam", [-0.4j, -0.7j])
    def test_transform_shift_gate_counts_the_measure(self, lam):
        # The measure sinh d grows like e^s up to the weight's wall, so the
        # pairing decays at Re(i lam) - 1/2 only.  These once returned
        # residuals of 86 and 8.9e-3 with abs_error 1e-5, marked converged.
        with pytest.raises(ShiftError):
            spherical_transform_check_rank2((0.3, -0.6), lam, 1e-5)


def test_half_sum_offsets_rank2():
    assert half_sum_offsets(2) == (0.5, -0.5)
