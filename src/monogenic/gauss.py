"""Exact Gaussian integration of Clifford-valued polynomials.

Two probability measures appear:

* RHO on R^n, density (2*pi)^(-n/2) exp(-|x|^2 / 2): per-axis variance 1.
* MU_TILDE on R^{n+1}, density pi^(-(n+1)/2) exp(-x0^2 - |x|^2): per-axis
  variance 1/2.

Integration is purely symbolic: a monomial integrates to the product of
its 1-D moments, so a polynomial pairing is a finite exact sum.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .clifford import CliffordNumber, DimensionMismatchError, GaussianRational
from .poly import CliffordPolynomial


class Measure(enum.Enum):
    RHO = "rho"
    MU_TILDE = "mu"


@lru_cache(maxsize=None)
def _moment_1d(k: int, unit_variance: bool) -> Fraction:
    """E[t^k] for a centered 1-D Gaussian of variance 1 or 1/2.

    Odd moments vanish; even ones follow E t^k = (k-1) * var * E t^(k-2),
    giving (k-1)!! for variance 1 and (k-1)!!/2^(k/2) for variance 1/2.
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k % 2:
        return Fraction(0)
    df = 1
    for m in range(k - 1, 0, -2):
        df *= m
    return Fraction(df) if unit_variance else Fraction(df, 2 ** (k // 2))


def moment(measure: Measure, k0: int, beta: Sequence[int]) -> Fraction:
    """Exact moment of x0^k0 * x^beta under the given measure."""
    if measure is Measure.RHO:
        if k0 != 0:
            raise ValueError("the R^n measure has no x0 axis")
        total = Fraction(1)
        for b in beta:
            total *= _moment_1d(b, unit_variance=True)
            if not total:
                return total
        return total
    total = _moment_1d(k0, unit_variance=False)
    for b in beta:
        if not total:
            return total
        total *= _moment_1d(b, unit_variance=False)
    return total


def _check_args(f: CliffordPolynomial, g: CliffordPolynomial, measure: Measure) -> None:
    if f.n != g.n:
        raise DimensionMismatchError(f"polynomials over C_{f.n} vs C_{g.n}")
    if measure is Measure.RHO and not (f.is_x0_free() and g.is_x0_free()):
        raise ValueError("the R^n measure requires x0-free polynomials")


def clifford_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                     measure: Measure) -> CliffordNumber:
    """Full Clifford-valued pairing: integral of conj(f) * g.

    The product is never materialized as a polynomial; term pairs whose
    combined exponents contain an odd entry are skipped outright.
    """
    _check_args(f, g, measure)
    n = f.n
    total = CliffordNumber.zero(n)
    fconj = f.hermitian_conj()
    for k0a, ba, ca in fconj.terms():
        for k0b, bb, cb in g.terms():
            k0 = k0a + k0b
            if k0 % 2:
                continue
            combined = tuple(x + y for x, y in zip(ba, bb))
            if any(b % 2 for b in combined):
                continue
            total = total + (ca * cb) * moment(measure, k0, combined)
    return total


def inner_rho(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<f, g> over R^n: scalar part of the RHO pairing."""
    return clifford_pairing(f, g, Measure.RHO).scalar_part()


def inner_mu(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<F, G> over R^{n+1}: scalar part of the MU_TILDE pairing."""
    return clifford_pairing(f, g, Measure.MU_TILDE).scalar_part()

