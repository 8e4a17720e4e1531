"""No contour integral under-reports its error.

Each caller of the trapezoid rule is run on seeded draws, and its reported
``abs_error`` must cover the distance to an independent reference: mpmath's
Bessel K for the rank-1 spectral-plane model and the dual operator's base
value, the exact multiplier ``exp(-exp(x_last - z))`` of the dual operator,
the fused coordinate model at a hundredth of the tolerance for the rank-2
spectral-plane model, and the Gamma-product side of the Barnes identity.
"""

import cmath
import math

import numpy as np
import pytest

from toda_whittaker.gl_baxter import dual_baxter_apply
from toda_whittaker.gl_whittaker import givental_eval, mb_closed_form_batch, mellin_barnes_eval
from toda_whittaker.rankin_selberg import barnes_gustafson_check

mp = pytest.importorskip("mpmath")


def _mp_gl2(lam, x) -> complex:
    """Rank-1 closed form ``2 e^{i (l1 + l2)(x1 + x2)/2} K_{i(l1 - l2)}(2 e^{(x1 - x2)/2})``."""
    (l1, l2), (x1, x2) = lam, x
    k = mp.besselk(1j * (l1 - l2), 2 * mp.exp(0.5 * (x1 - x2)))
    return complex(2 * mp.exp(0.5j * (l1 + l2) * (x1 + x2)) * k)


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
