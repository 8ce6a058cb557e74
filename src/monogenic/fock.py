"""Clifford-valued covariant Fock space on the polynomial sector.

A symmetric k-tensor functional is stored only through its values on
the basis tensors indexed by multi-indices of weight k; that is all the
norm and both isomorphism directions ever touch.  Elements have finite
support, the dense sector on which every identity holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .clifford import CliffordNumber, DimensionMismatchError, _check_dimension
from .poly import CliffordPolynomial, MultiIndex
from .transform import NotMonogenicError, ck_extend


class FockElement:
    """Graded functional alpha with alpha(e^beta) stored per multi-index."""

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries: Mapping[Sequence[int], CliffordNumber] | None = None):
        _check_dimension(n)
        self.n = n
        data: dict[MultiIndex, CliffordNumber] = {}
        if entries:
            for beta, value in entries.items():
                beta = MultiIndex(beta)
                if len(beta) != n:
                    raise ValueError(f"multi-index length {len(beta)} != dimension {n}")
                if value.n != n:
                    raise DimensionMismatchError(f"C_{value.n} value in C_{n} Fock element")
                if beta in data:
                    raise ValueError(f"duplicate multi-index {tuple(beta)}")
                if value:
                    data[beta] = value
        self._entries = data

    def entries(self) -> Iterator[tuple[MultiIndex, CliffordNumber]]:
        for beta in sorted(self._entries, key=lambda b: (b.degree, b)):
            yield beta, self._entries[beta]

    def entry(self, beta: Sequence[int]) -> CliffordNumber:
        return self._entries.get(MultiIndex(beta), CliffordNumber.zero(self.n))

    def grade(self, k: int) -> "FockElement":
        """The weight-k part: entries with |beta| = k."""
        out = FockElement(self.n)
        out._entries = {b: v for b, v in self._entries.items() if b.degree == k}
        return out

    def grades(self) -> list[int]:
        return sorted({b.degree for b in self._entries})

    def is_zero(self) -> bool:
        return not self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __add__(self, other) -> "FockElement":
        if not isinstance(other, FockElement):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(f"Fock elements over C_{self.n} vs C_{other.n}")
        data = dict(self._entries)
        for beta, value in other._entries.items():
            acc = data.get(beta)
            data[beta] = value if acc is None else acc + value
        out = FockElement(self.n)
        out._entries = {b: v for b, v in data.items() if v}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockElement):
            return NotImplemented
        return self.n == other.n and self._entries == other._entries

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{tuple(b)}: {v!r}" for b, v in self.entries())
        return f"FockElement(n={self.n}, {{{inner}}})"


def fock_norm_sq(alpha: FockElement) -> Fraction:
    """Squared Fock norm: sum over beta of |alpha(e^beta)|^2 / beta!."""
    total = Fraction(0)
    for beta, value in alpha._entries.items():
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
    total = CliffordPolynomial.zero(alpha.n)
    for beta, value in alpha._entries.items():
        mono = CliffordPolynomial.monomial(alpha.n, 0, beta, value * Fraction(1, beta.factorial))
        total = total + mono
    return total


def fock_to_monogenic(alpha: FockElement) -> CliffordPolynomial:
    """Inverse Taylor map: C-K extend the generating function of alpha."""
    return ck_extend(fock_to_function(alpha))
