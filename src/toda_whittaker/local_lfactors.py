"""Exact generating functions over spectral parameter multisets, and the
matching numeric completed Gamma-factor products.

The non-archimedean side works in exact rational (or exact complex)
arithmetic: elementary and complete homogeneous symmetric functions of a
parameter multiset, their two generating series truncated at a fixed order,
and the exact reciprocal identity between those series.  The archimedean
side evaluates the product of half-argument Gamma factors dressed with
powers of pi -- numerically identical to the ``"iwasawa_pi"`` operator
eigenvalue of :mod:`toda_whittaker.gl_baxter` under the parameter
dictionary ``s = i*gamma``, ``alpha_j = i*lam_j - rho_j``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import PoleError
from .numerics import _exp_sorted_sum, log_gamma

__all__ = [
    "SatakeClass",
    "TruncatedSeries",
    "elementary_symm",
    "complete_symm",
    "hecke_t_series",
    "hecke_q_series",
    "verify_tq_identity",
    "local_lfactor_p",
    "local_lfactor_p_exact",
    "archimedean_lfactor",
]

Scalar = Union[Fraction, int, complex]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _coerce_param(v) -> Scalar:
    """Keep exact types exact; everything else becomes a complex number."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float) and v == int(v):
        return Fraction(int(v))
    return complex(v)


@dataclass(frozen=True)
class SatakeClass:
    """A multiset of nonzero spectral parameters attached to a prime.

    Exact mode holds rational parameters; numeric mode holds complex ones.
    """

    params: tuple
    p: int

    def __init__(self, params: Sequence, p: int) -> None:
        object.__setattr__(self, "params", tuple(_coerce_param(v) for v in params))
        object.__setattr__(self, "p", int(p))
        if len(self.params) < 1:
            raise ValueError("at least one parameter is required")
        if any(v == 0 for v in self.params):
            raise ValueError("parameters must be nonzero")
        if not _is_prime(self.p):
            raise ValueError(f"p must be a prime integer, got {p}")

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.params)


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed order; arithmetic stays truncated.

    ``coeffs[k]`` multiplies the ``k``-th power of the expansion variable;
    the order is ``len(coeffs) - 1``.
    """

    coeffs: tuple

    def __init__(self, coeffs: Sequence) -> None:
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((Fraction(1),) + (Fraction(0),) * order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = []
        for k in range(order + 1):
            acc = None
            for i in range(k + 1):
                term = self.coeffs[i] * other.coeffs[k - i]
                acc = term if acc is None else acc + term
            out.append(acc)
        return TruncatedSeries(out)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def evaluate(self, t: complex) -> complex:
        """Horner evaluation with every coefficient coerced to complex."""
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * t + complex(c)
        return acc


def elementary_symm(sigma: SatakeClass, j: int) -> Scalar:
    """Elementary symmetric function ``e_j`` of the class parameters."""
    j = int(j)
    if j < 0 or j > sigma.n:
        raise IndexError(f"j must lie in [0, {sigma.n}], got {j}")
    zero = Fraction(0) if sigma.exact else 0j
    coeffs: list = [Fraction(1) if sigma.exact else 1 + 0j] + [zero] * sigma.n
    top = 0
    for a in sigma.params:
        top += 1
        for k in range(top, 0, -1):
            coeffs[k] = coeffs[k] + a * coeffs[k - 1]
    return coeffs[j]


def complete_symm(sigma: SatakeClass, m: int) -> Scalar:
    """Complete homogeneous symmetric function ``h_m`` of the parameters."""
    m = int(m)
    if m < 0:
        raise ValueError("m must be >= 0")
    one = Fraction(1) if sigma.exact else 1 + 0j
    zero = Fraction(0) if sigma.exact else 0j
    # h over an increasing variable set: H_new(m) = H_old(m) + a * H_new(m-1).
    h: list = [one] + [zero] * m
    for a in sigma.params:
        for k in range(1, m + 1):
            h[k] = h[k] + a * h[k - 1]
    return h[m]


def hecke_t_series(sigma: SatakeClass, N: int) -> TruncatedSeries:
    """Alternating elementary-symmetric polynomial, padded to order ``N``:
    the expansion of ``prod_j (1 - alpha_j t)``."""
    N = int(N)
    if N < sigma.n:
        raise ValueError(f"N must be at least n = {sigma.n}")
    zero = Fraction(0) if sigma.exact else 0j
    coeffs = []
    for j in range(N + 1):
        if j <= sigma.n:
            sign = 1 if j % 2 == 0 else -1
            coeffs.append(sign * elementary_symm(sigma, j))
        else:
            coeffs.append(zero)
    return TruncatedSeries(coeffs)


def hecke_q_series(sigma: SatakeClass, N: int) -> TruncatedSeries:
    """Complete-homogeneous generating series through order ``N``: the
    expansion of ``prod_j (1 - alpha_j t)^{-1}``."""
    N = int(N)
    if N < 0:
        raise ValueError("N must be >= 0")
    one = Fraction(1) if sigma.exact else 1 + 0j
    zero = Fraction(0) if sigma.exact else 0j
    h: list = [one] + [zero] * N
    for a in sigma.params:
        for k in range(1, N + 1):
            h[k] = h[k] + a * h[k - 1]
    return TruncatedSeries(h)


def verify_tq_identity(sigma: SatakeClass, N: int) -> bool:
    """Exact check that the two generating series are reciprocal through
    order ``N`` (no tolerance involved)."""
    N = int(N)
    if N < sigma.n:
        raise ValueError(f"N must be at least n = {sigma.n}")
    product = hecke_t_series(sigma, N) * hecke_q_series(sigma, N)
    return product.is_one()


def local_lfactor_p(sigma: SatakeClass, s: complex) -> complex:
    """Euler-type factor ``prod_j (1 - alpha_j p^{-s})^{-1}`` evaluated
    numerically."""
    s = complex(s)
    t = cmath.exp(-s * math.log(sigma.p))
    value = 1.0 + 0.0j
    for idx, a in enumerate(sigma.params):
        factor = 1.0 - complex(a) * t
        if abs(factor) <= 1e-15 * (1.0 + abs(complex(a) * t)):
            raise PoleError(
                f"factor {idx} vanishes at this point", index=idx
            )
        value /= factor
    return value


def local_lfactor_p_exact(sigma: SatakeClass, s: int) -> Fraction:
    """Exact rational Euler-type factor at integer ``s``.

    Requires an exact (all-rational) parameter multiset; raises
    ``PoleError`` when a factor ``1 - alpha_j p^{-s}`` vanishes.
    """
    if not sigma.exact:
        raise ValueError("exact evaluation needs rational parameters")
    s = int(s)
    p_pow = Fraction(sigma.p) ** (-s)
    value = Fraction(1)
    for idx, a in enumerate(sigma.params):
        factor = 1 - Fraction(a) * p_pow
        if factor == 0:
            raise PoleError(f"factor {idx} vanishes at this point", index=idx)
        value /= factor
    return value


def archimedean_lfactor(alpha: Sequence[complex], s: complex) -> complex:
    """Product of completed half-argument Gamma factors:
    ``prod_j pi^{-(s-alpha_j)/2} Gamma((s-alpha_j)/2)``.

    Log terms are accumulated in sorted order, so the value is bit-for-bit
    invariant under permutations of ``alpha``.  Raises ``PoleError`` from
    the underlying log-Gamma at non-positive even integer offsets.
    """
    s = complex(s)
    log_pi = math.log(math.pi)
    terms = []
    for a in alpha:
        z = 0.5 * (s - complex(a))
        terms.append(log_gamma(z) - z * log_pi)
    return _exp_sorted_sum(terms)
