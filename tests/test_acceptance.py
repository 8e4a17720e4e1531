"""Acceptance gate: twelve numbered end-to-end checks.

Each test prints (and records for the terminal summary) a single
``criterion NN [PASS|FAIL]`` line with the measured figure of merit, then
asserts the documented bound.  All random draws use fixed seeds so reruns
are bit-for-bit reproducible.  Where an identity has a ``verify`` suite, the
criterion evaluates it through the same :mod:`toda_whittaker.checks`
function and applies its own bound to the returned sides and residual.
"""

import functools
import time
from fractions import Fraction

import numpy as np

from toda_whittaker import checks
from toda_whittaker.gl_baxter import half_sum_offsets, lowering_compatibility
from toda_whittaker.gl_whittaker import (
    closed_form_gl2,
    givental_eval,
    mellin_barnes_eval,
    mixed_eval,
)
from toda_whittaker.local_lfactors import (
    SatakeClass,
    archimedean_lfactor,
    complete_symm,
    hecke_q_series,
    local_lfactor_p,
)
from toda_whittaker.rankin_selberg import bump_inner_correlation
from toda_whittaker.so_toda import (
    closed_form_so3,
    so_baxter_apply,
    so_baxter_eigenvalue,
    so_givental_eval,
)

from _oracles import BF_ELL1_RHS, SO_EIG, SPHERICAL_RHS

RESULTS = []


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _run_suite(name):
    """Every case of a ``verify`` suite at its default options."""
    return [run() for _, run in checks.SUITES[name]()]


# The expensive rank-2 pi-convention operator application is shared between
# criteria 03 and 12; computed once.
@functools.lru_cache(maxsize=None)
def _pi_rank2_case():
    """Rank-2 pi-convention operator ratio, and the relative distance of its
    eigenvalue from the archimedean local factor."""
    gamma, lam = -3.0j, (0.5, -0.5)
    case = checks.baxter_eigen("rank2-iwasawa-pi", gamma, lam, (-0.6, 0.9), "iwasawa_pi", 2e-5)
    rho = half_sum_offsets(2)
    alpha = tuple(1j * l - r for l, r in zip(lam, rho))
    return case, _rel(case.rhs, archimedean_lfactor(alpha, 1j * gamma))


def test_criterion_01_rank2_closed_form():
    rng = np.random.default_rng(20260801)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        lam = tuple(rng.uniform(-1.0, 1.0, size=2))
        x = tuple(rng.uniform(-1.0, 1.0, size=2))
        res = givental_eval(lam, x, 1e-9)
        worst = max(worst, _rel(res.value, closed_form_gl2(lam, x)))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    _report(1, "rank-2 closed form", ok,
            f"worst rel {worst:.3e} (bound 1e-8), 20 draws in {elapsed:.1f}s")


def test_criterion_02_model_duality():
    tol = 1e-6
    rng = np.random.default_rng(20260802)
    t0 = time.time()
    worst = 0.0
    evals = 0
    for lam, words in (
        ((0.4, -0.3), ("L", "R")),
        ((0.6, 0.1, -0.45), ("LL", "LR", "RL", "RR")),
    ):
        n = len(lam)
        for _ in range(5):
            x = tuple(rng.uniform(-1.0, 1.0, size=n))
            ref = givental_eval(lam, x, tol)
            results = [mellin_barnes_eval(lam, x, tol)]
            results += [mixed_eval(w, lam, x, tol) for w in words]
            worst = max(worst, max(abs(r.value - ref.value) for r in results))
            evals += ref.evaluations + sum(r.evaluations for r in results)
    elapsed = time.time() - t0
    ok = worst < 5.0 * tol
    _report(2, "evaluation-model duality", ok,
            f"worst disagreement {worst:.3e} (bound {5.0 * tol:.0e}), "
            f"ranks 2-3, 5 draws each, {evals} evaluations in {elapsed:.1f}s")


def test_criterion_03_baxter_eigenvalue():
    failures = []
    # Rank 1, all three kernel conventions: the applied/pointwise ratio must
    # be independent of the evaluation point and equal the Gamma product.
    rank1 = (
        ("lie", -1.2j, (0.4,), (0.2, -0.3, 0.5)),
        ("iwasawa", -2.4j, (0.8,), (0.4, -0.2)),
        ("iwasawa_pi", -2.4j, (0.8,), (0.4, -0.2)),
    )
    worst_spread = 0.0
    worst_rel = 0.0
    for conv, gamma, lam, ys in rank1:
        cases = [checks.baxter_eigen(conv, gamma, lam, (yv,), conv, 1e-8) for yv in ys]
        spread = max(abs(a.lhs - b.lhs) for a in cases for b in cases)
        rel = max(_rel(c.lhs, c.rhs) for c in cases)
        worst_spread = max(worst_spread, spread)
        worst_rel = max(worst_rel, rel)
        if spread >= 1e-5 or rel >= 1e-5:
            failures.append(f"rank1 {conv}")

    # Rank 2, plain-wall convention.
    cases = [checks.baxter_eigen("lie", -1.5j, (0.5, -0.5), y, "lie", 1e-6)
             for y in ((0.1, -0.3), (0.35, 0.0))]
    spread2 = max(abs(a.lhs - b.lhs) for a in cases for b in cases)
    rel2 = max(_rel(c.lhs, c.rhs) for c in cases)
    if spread2 >= 1e-5 or rel2 >= 1e-5:
        failures.append("rank2 lie")

    # Rank 2, pi convention: the eigenvalue IS the archimedean local factor.
    pi, lfactor_rel = _pi_rank2_case()
    if not pi.ok or lfactor_rel > 1e-12:
        failures.append("rank2 iwasawa_pi")

    ok = not failures
    _report(3, "integral-operator eigenvalues", ok,
            f"rank1 spread {worst_spread:.1e} rel {worst_rel:.1e}; "
            f"rank2 spread {spread2:.1e} rel {rel2:.1e}; "
            f"pi-convention resid {pi.residual:.1e} (limit {pi.tol:.1e}), "
            f"eigenvalue vs local factor {lfactor_rel:.1e}"
            + (f"; FAILED {failures}" if failures else ""))


def test_criterion_04_commutation_and_intertwining():
    worst_comm = 0.0
    for lam, ys in (
        ((0.3,), ((0.2,), (-0.35,))),
        ((0.4, -0.4), ((0.2, -0.1), (-0.3, 0.25))),
    ):
        for y in ys:
            chk = checks.commute("", (-0.9j, -1.4j), lam, y, 1e-7)
            worst_comm = max(worst_comm, chk.residual)
    worst_low = 0.0
    for gamma, lam, y, x in (
        (-1.3j, 0.4, (0.25, -0.3), 0.1),
        (-1.1j, 0.25, (0.4, -0.1), -0.2),
    ):
        chk = lowering_compatibility(gamma, lam, y, x, 1e-7)
        worst_low = max(worst_low, chk.residual)
    ok = worst_comm < 1e-5 and worst_low < 1e-5
    _report(4, "operator commutation and rank-lowering", ok,
            f"commutation worst {worst_comm:.3e}, intertwining worst "
            f"{worst_low:.3e} (bound 1e-5)")


def test_criterion_05_dual_baxter():
    t0 = time.time()
    rank1, rank2 = _run_suite("dual-baxter")
    elapsed = time.time() - t0
    rel1 = abs(rank1.lhs - rank1.rhs) / rank1.rhs
    err2 = rank2.residual

    ok = rel1 < 1e-8 and err2 < 1e-4
    _report(5, "spectral-side operator multiplier", ok,
            f"rank1 rel {rel1:.3e} (bound 1e-8), rank2 err {err2:.3e} "
            f"(bound 1e-4), {rank1.evaluations + rank2.evaluations} evaluations "
            f"in {elapsed:.2f}s")


def test_criterion_06_pairing_integrals():
    worst0 = 0.0
    for g, l, t in (((0.0,), (0.0,), -0.7j), ((0.3,), (0.1,), -1.0j)):
        worst0 = max(worst0, checks.bump_friedberg("", 0, g, l, t, 1e-9).residual)

    res1 = checks.bump_friedberg("", 1, (0.4, -0.4), (0.2, -0.2), -0.8j, 1e-4)
    err1 = abs(res1.lhs - BF_ELL1_RHS)

    # Reduced inner correlation: value matches the phase-times-Gamma
    # prediction, and the modulus is anchor-independent when the phase
    # slope is purely real.
    gam, lam, t = (0.3,), (0.2, -0.2), -0.8j
    worst_corr = 0.0
    for x_last in (-0.4, 0.6):
        res = checks.inner_correlation("", gam, lam, t, x_last, 1e-7)
        worst_corr = max(worst_corr, res.residual)
    gam, lam, t = (-0.8j,), (0.3, -0.2), 0.4j
    mags = [abs(bump_inner_correlation(1, gam, lam, t, xl, 1e-7).value)
            for xl in (-0.5, 0.0, 0.7)]
    mag_spread = max(mags) - min(mags)

    ok = worst0 < 1e-8 and err1 < 1e-4 and worst_corr < 1e-4 and mag_spread < 1e-4
    _report(6, "Gamma-product pairing integrals", ok,
            f"level-0 worst {worst0:.3e} (bound 1e-8), level-1 err {err1:.3e} "
            f"(bound 1e-4), correlation err {worst_corr:.3e}, modulus spread "
            f"{mag_spread:.3e} (bound 1e-4)")


def test_criterion_07_kernel_contraction():
    rng = np.random.default_rng(20260807)
    worst1 = 0.0
    for _ in range(5):
        lam = tuple(rng.uniform(-1.0, 1.0, size=2))
        xt = tuple(rng.uniform(-1.0, 1.0, size=2))
        worst1 = max(worst1, checks.stade("", xt, (), lam, 1e-8).residual)
    worst2 = 0.0
    for _ in range(5):
        lam = tuple(rng.uniform(-1.0, 1.0, size=2))
        xt = tuple(rng.uniform(-1.0, 1.0, size=3))
        xb = tuple(rng.uniform(-1.0, 1.0, size=1))
        worst2 = max(worst2, checks.stade("", xt, xb, lam, 1e-6).residual)
    ok = worst1 < 1e-5 and worst2 < 1e-5
    _report(7, "kernel contraction identity", ok,
            f"level-1 worst {worst1:.3e}, level-2 worst {worst2:.3e} "
            f"(bound 1e-5, 5 draws each)")


def test_criterion_08_two_row_contour_identity():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(10):
        lo = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1.2, -0.5))
                   for _ in range(2))
        hi = tuple(complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.2))
                   for _ in range(2))
        worst = max(worst, checks.barnes("", lo, hi, 1e-10).residual)
    ok = worst < 1e-8
    _report(8, "two-row contour identity", ok,
            f"worst residual {worst:.3e} (bound 1e-8, 10 admissible draws)")


def test_criterion_09_odd_orthogonal_operator():
    gamma, lam, y = -0.8j, (0.5,), (0.2,)
    res = so_baxter_apply(gamma, lam, y, 2e-5)
    base = closed_form_so3(lam[0], y[0])
    eigen = so_baxter_eigenvalue(gamma, lam)
    rel_eigen = _rel(res.value / base, eigen)
    rel_ref = _rel(eigen, SO_EIG)

    worst_closed = 0.0
    for l, x in ((0.6, 0.3), (0.35, -0.5)):
        giv = so_givental_eval((l,), (x,), 1e-10)
        worst_closed = max(worst_closed, _rel(giv.value, closed_form_so3(l, x)))

    ok = rel_eigen < 1e-4 and rel_ref < 1e-12 and worst_closed < 1e-8
    _report(9, "odd-orthogonal integral operator", ok,
            f"operator rel {rel_eigen:.3e} (bound 1e-4), eigenvalue vs "
            f"reference {rel_ref:.1e}, closed form rel {worst_closed:.3e} "
            f"(bound 1e-8)")


def test_criterion_10_toda_eigenfunctions():
    worst = max(c.residual for c in _run_suite("toda"))

    ok = worst < 1e-7
    _report(10, "difference-operator eigenfunctions", ok,
            f"worst extrapolated residual {worst:.3e} (bound 1e-7; "
            f"momentum + quadratic flows, three chain types)")


def test_criterion_11_finite_place_inverse():
    rng = np.random.default_rng(20260811)
    primes = (2, 3, 5, 7, 11)
    t0 = time.time()
    checked = 0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        params = []
        while len(params) < n:
            num = int(rng.integers(-9, 10))
            if num == 0:
                continue
            params.append(Fraction(num, int(rng.integers(1, 10))))
        p = int(primes[rng.integers(0, len(primes))])
        assert checks.tq_padic("", tuple(params), p).ok
        sigma = SatakeClass(tuple(params), p)
        order = 2 * n + 4
        q = hecke_q_series(sigma, order)
        for m in range(order + 1):
            assert q.coeffs[m] == complete_symm(sigma, m)
        checked += 1
    elapsed = time.time() - t0

    sigma = SatakeClass((Fraction(1, 2), Fraction(-2, 3)), 3)
    series = sum(complex(complete_symm(sigma, m)) * 3.0 ** (-2.0 * m)
                 for m in range(60))
    num_err = abs(local_lfactor_p(sigma, 2.0) - series)

    ok = checked == 50 and elapsed < 5.0 and num_err < 1e-12
    _report(11, "finite-place operator inverse", ok,
            f"{checked}/50 exact inverses in {elapsed:.2f}s (limit 5s), "
            f"numeric vs series {num_err:.1e}")


def test_criterion_12_rank2_spherical_transform():
    cases = _run_suite("spherical-rank2")
    worst = max(c.residual for c in cases)
    ref_rel = _rel(cases[0].rhs, SPHERICAL_RHS)

    pi, lfactor_rel = _pi_rank2_case()
    reduction_ok = pi.ok and lfactor_rel < 1e-12

    ok = worst < 1e-4 and ref_rel < 1e-12 and reduction_ok
    _report(12, "rank-2 spherical transform", ok,
            f"worst residual {worst:.3e} (bound 1e-4, 3 draws), reference rel "
            f"{ref_rel:.1e}; universal-kernel reduction to the archimedean "
            f"local factor verified via criterion 03's pi-convention case "
            f"(resid {pi.residual:.1e})")
