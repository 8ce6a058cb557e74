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
from typing import Sequence

from .clifford import CliffordNumber, DimensionMismatchError
from .poly import CliffordPolynomial, MultiIndex, _MultiIndexMap
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
    beta! times the monomial coefficient of x^beta in F(0, x).
    """
    if not F.is_monogenic():
        raise NotMonogenicError("the Taylor map is defined on monogenic polynomials")
    entries = {}
    for _, beta, coeff in F.restrict().terms():
        entries[beta] = coeff * beta.factorial
    return FockElement(F.n, entries)


def fock_to_function(alpha: FockElement) -> CliffordPolynomial:
    """Evaluate alpha against the exponential tensors:
    f(x) = sum_beta x^beta * alpha(e^beta) / beta!."""
    return CliffordPolynomial(alpha.n, {(0, beta): value * Fraction(1, beta.factorial)
                                        for beta, value in alpha._data.items()})


def fock_to_monogenic(alpha: FockElement) -> CliffordPolynomial:
    """Inverse Taylor map: C-K extend the generating function of alpha."""
    return ck_extend(fock_to_function(alpha))
