"""Clifford-valued covariant Fock space on the polynomial sector.

A symmetric k-tensor functional is stored only through its values on
the basis tensors indexed by multi-indices of weight k; that is all the
norm and both isomorphism directions ever touch.  Elements have finite
support, the dense sector on which every identity holds exactly.  They
are the sparse beta -> C_n map of `poly`, the container Hermite
expansions share; the inverse Taylor map C-K extends the one polynomial
sum_beta x^beta alpha(e^beta) / beta!.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .clifford import (
    CliffordNumber,
    DimensionMismatchError,
    _gaussian_over,
    _over_common_denominator,
)
from .poly import CliffordPolynomial, MultiIndex, _MultiIndexMap, _reduced
from .transform import NotMonogenicError, ck_extend


class FockElement(_MultiIndexMap):
    """Graded functional alpha with alpha(e^beta) stored per multi-index."""

    __slots__ = ()
    _noun = ("value", "Fock element")

    entries = _MultiIndexMap._items

    def entry(self, beta: Sequence[int]) -> CliffordNumber:
        return self._data.get(MultiIndex(beta), CliffordNumber.zero(self.n))

    def grade(self, k: int) -> "FockElement":
        """The weight-k part: entries with |beta| = k."""
        out = FockElement(self.n)
        out._data = {b: v for b, v in self._data.items() if b.degree == k}
        return out

    def grades(self) -> list[int]:
        return sorted({b.degree for b in self._data})

    def __add__(self, other) -> "FockElement":
        if not isinstance(other, FockElement):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(f"Fock elements over C_{self.n} vs C_{other.n}")
        data = dict(self._data)
        for beta, value in other._data.items():
            acc = data.get(beta)
            data[beta] = value if acc is None else acc + value
        out = FockElement(self.n)
        out._data = {b: v for b, v in data.items() if v}
        return out


def fock_norm_sq(alpha: FockElement) -> Fraction:
    """Squared Fock norm: sum over beta of |alpha(e^beta)|^2 / beta!."""
    total = Fraction(0)
    for beta, value in alpha._data.items():
        total += value.norm_sq() / beta.factorial
    return total


def taylor_map(F: CliffordPolynomial) -> FockElement:
    """Collect all derivative functionals of a monogenic polynomial at
    the origin: entry(beta) = d^beta F(0, 0).

    x-derivatives at x0 = 0 factor through restriction, so the entry is
    beta! times the monomial coefficient of x^beta in F(0, x), read off
    the x0-free numerators of F.  The precondition is not re-checked on
    a result of `ck_extend`, which is monogenic by construction.
    """
    if not F._monogenic and not F.is_monogenic():
        raise NotMonogenicError("the Taylor map is defined on monogenic polynomials")
    n, den = F.n, F._den
    entries = {}
    for (k0, beta), blades in F._num.items():
        if k0:
            continue
        beta = tuple.__new__(MultiIndex, beta)
        w = beta.factorial
        entries[beta] = CliffordNumber._from_nonzero(
            n, {m: _gaussian_over(re * w, im * w, den) for m, (re, im) in blades.items()})
    out = FockElement(n)
    out._data = entries
    return out


def fock_to_function(alpha: FockElement) -> CliffordPolynomial:
    """Evaluate alpha against the exponential tensors:
    f(x) = sum_beta x^beta * alpha(e^beta) / beta!, put over one
    denominator: that of the values times lcm(beta!)."""
    betas = list(alpha._data)
    den, blades = _over_common_denominator([alpha._data[beta]._coeffs for beta in betas])
    common = lcm(*(beta.factorial for beta in betas))
    data = {}
    for beta, values in zip(betas, blades):
        w = common // beta.factorial
        data[(0, beta)] = {m: (re * w, im * w) for m, (re, im) in values.items()}
    return _reduced(alpha.n, den * common, data)


def fock_to_monogenic(alpha: FockElement) -> CliffordPolynomial:
    """Inverse Taylor map: C-K extend the generating function of alpha."""
    return ck_extend(fock_to_function(alpha))
