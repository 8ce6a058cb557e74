"""Clifford-valued polynomials on R^{n+1} and their exact calculus.

A polynomial is a sparse map (x0-power, multi-index) -> CliffordNumber.
Scalar variables commute with Clifford coefficients, and coefficients
sit on the RIGHT of their monomial: f = sum x0^k0 * x^beta * c.  The
Dirac operator multiplies by generators on the left, so D(x^beta c)
has coefficient e_j * c.

Polynomials with no x0 dependence model functions on R^n.

The Dirac operator, the Laplacian and the Cauchy-Riemann operator
d0 + D run on integer numerators.  The input is put over the lcm of all
its part denominators once; derivatives only multiply by integers, so a
whole chain of them keeps that one denominator, and each output part
becomes a `Fraction` once at the end.  Numerators are keyed by
(x0-power, multi-index) and then by blade mask.  Left multiplication by
a generator is a signed blade permutation, not a product:
e_j e_B = (-1)^popcount(B & low_j) e_{B xor bit_j}, where bit_j is the
mask of e_j and low_j the mask of e_1, ..., e_j (one swap for each
generator of B below j, and e_j^2 = -1 when j is in B).

The total-degree cap lives in a context variable, so a cap set in one
thread is not seen by another.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .clifford import (
    CliffordNumber,
    DimensionMismatchError,
    GaussianRational,
    _check_dimension,
    _gaussian_over,
    _over_common_denominator,
)

_degree_cap: ContextVar[int] = ContextVar("degree_cap", default=12)


class DegreeCapError(ValueError):
    """A construction exceeded the configured total-degree cap."""


def get_degree_cap() -> int:
    return _degree_cap.get()


def set_degree_cap(cap: int) -> None:
    """Raise or lower the total-degree bound (default 12) in the current
    context; other threads keep their own.

    The cap exists to keep exact sweeps from exploding; exceeding it is
    always an explicit error, never a silent truncation.
    """
    if cap < 0:
        raise ValueError("degree cap must be nonnegative")
    _degree_cap.set(cap)


class MultiIndex(tuple):
    """Multi-index beta in N_0^n with |beta| and beta! accessors."""

    def __new__(cls, entries: Sequence[int]):
        entries = tuple(entries)
        for b in entries:
            if isinstance(b, bool) or not isinstance(b, int) or b < 0:
                raise ValueError(f"multi-index entries must be nonnegative ints, got {entries}")
        return super().__new__(cls, entries)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def factorial(self) -> int:
        return math.prod(math.factorial(b) for b in self)


class _MultiIndexMap:
    """Finite sparse map beta -> CliffordNumber over C_n, zeros pruned.

    The container shared by Hermite expansions and Fock elements; each
    subclass sets `_noun` = (member, kind) for its dimension errors.
    """

    __slots__ = ("n", "_data")
    _noun: tuple[str, str]

    def __init__(self, n: int, data: Mapping[Sequence[int], CliffordNumber] | None = None):
        _check_dimension(n)
        self.n = n
        out: dict[MultiIndex, CliffordNumber] = {}
        if data:
            for beta, value in data.items():
                beta = MultiIndex(beta)
                if len(beta) != n:
                    raise ValueError(f"multi-index length {len(beta)} != dimension {n}")
                if value.n != n:
                    member, kind = self._noun
                    raise DimensionMismatchError(f"C_{value.n} {member} in C_{n} {kind}")
                if beta in out:
                    raise ValueError(f"duplicate multi-index {tuple(beta)}")
                if value:
                    out[beta] = value
        self._data = out

    def _items(self) -> Iterator[tuple[MultiIndex, CliffordNumber]]:
        """(beta, value) pairs sorted by (degree, beta)."""
        for beta in sorted(self._data, key=lambda b: (b.degree, b)):
            yield beta, self._data[beta]

    def is_zero(self) -> bool:
        return not self._data

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self._data == other._data

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{tuple(b)}: {v!r}" for b, v in self._items())
        return f"{type(self).__name__}(n={self.n}, {{{inner}}})"


def _add_indices(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    return MultiIndex(tuple(x + y for x, y in zip(a, b)))


TermKey = tuple[int, MultiIndex]


class CliffordPolynomial:
    """Sparse C_n-valued polynomial in x0, x1, ..., xn."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, Sequence[int]], CliffordNumber] | None = None):
        _check_dimension(n)
        self.n = n
        cap = _degree_cap.get()
        data: dict[TermKey, CliffordNumber] = {}
        if terms:
            for (k0, beta), coeff in terms.items():
                if not isinstance(k0, int) or k0 < 0:
                    raise ValueError(f"x0 exponent must be a nonnegative int, got {k0}")
                beta = MultiIndex(beta)
                if len(beta) != n:
                    raise ValueError(f"multi-index {tuple(beta)} has length {len(beta)}, expected {n}")
                if coeff.n != n:
                    raise DimensionMismatchError(f"coefficient in C_{coeff.n} inside C_{n} polynomial")
                if k0 + beta.degree > cap:
                    raise DegreeCapError(f"total degree {k0 + beta.degree} exceeds cap {cap}")
                key = (k0, beta)
                if key in data:
                    raise ValueError(f"duplicate term {key}")
                if coeff:
                    data[key] = coeff
        self._terms = data

    @classmethod
    def _raw(cls, n: int, data: dict[TermKey, CliffordNumber]) -> "CliffordPolynomial":
        # internal: keys already canonical; prune zeros, re-check the cap
        cap = _degree_cap.get()
        for (k0, beta) in data:
            if k0 + beta.degree > cap:
                raise DegreeCapError(f"total degree {k0 + beta.degree} exceeds cap {cap}")
        out = cls.__new__(cls)
        out.n = n
        out._terms = {k: v for k, v in data.items() if v}
        return out

    @classmethod
    def zero(cls, n: int) -> "CliffordPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, value: CliffordNumber) -> "CliffordPolynomial":
        n = value.n
        return cls(n, {(0, (0,) * n): value})

    @classmethod
    def monomial(cls, n: int, k0: int, beta: Sequence[int], coeff=None) -> "CliffordPolynomial":
        """x0^k0 * x^beta * coeff (coeff defaults to 1)."""
        if coeff is None:
            coeff = CliffordNumber.one(n)
        elif not isinstance(coeff, CliffordNumber):
            coeff = CliffordNumber.scalar(n, coeff)
        return cls(n, {(k0, tuple(beta)): coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "CliffordPolynomial":
        """The coordinate polynomial x_i, with x_0 allowed."""
        if not 0 <= i <= n:
            raise ValueError(f"axis {i} out of range [0, {n}]")
        if i == 0:
            return cls.monomial(n, 1, (0,) * n)
        beta = [0] * n
        beta[i - 1] = 1
        return cls.monomial(n, 0, beta)

    # -- structure -----------------------------------------------------

    def terms(self) -> Iterator[tuple[int, MultiIndex, CliffordNumber]]:
        """Terms sorted by (total degree, k0, beta lexicographic)."""
        for k0, beta in sorted(self._terms, key=lambda t: (t[0] + t[1].degree, t[0], t[1])):
            yield k0, beta, self._terms[(k0, beta)]

    def coefficient(self, k0: int, beta: Sequence[int]) -> CliffordNumber:
        return self._terms.get((k0, MultiIndex(beta)), CliffordNumber.zero(self.n))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_x0_free(self) -> bool:
        return all(k0 == 0 for k0, _ in self._terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self._terms:
            return -1
        return max(k0 + beta.degree for k0, beta in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k0, beta, coeff in self.terms():
            mono = "".join(
                [f"x0^{k0}" if k0 > 1 else "x0" for _ in (0,) if k0] +
                [f"x{i + 1}^{b}" if b > 1 else f"x{i + 1}" for i, b in enumerate(beta) if b])
            parts.append(f"{mono or '1'}*({coeff!r})")
        return " + ".join(parts)

    # -- ring / module operations ---------------------------------------

    def _check_dim(self, other: "CliffordPolynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"polynomials over C_{self.n} vs C_{other.n}")

    def __add__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        self._check_dim(other)
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = data.get(key)
            data[key] = coeff if acc is None else acc + coeff
        return CliffordPolynomial._raw(self.n, data)

    def __sub__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CliffordPolynomial":
        return CliffordPolynomial._raw(self.n, {k: -v for k, v in self._terms.items()})

    def __mul__(self, other) -> "CliffordPolynomial":
        if isinstance(other, CliffordPolynomial):
            self._check_dim(other)
            data: dict[TermKey, CliffordNumber] = {}
            for (k0a, ba), ca in self._terms.items():
                for (k0b, bb), cb in other._terms.items():
                    key = (k0a + k0b, _add_indices(ba, bb))
                    coeff = ca * cb
                    acc = data.get(key)
                    data[key] = coeff if acc is None else acc + coeff
            return CliffordPolynomial._raw(self.n, data)
        if isinstance(other, CliffordNumber):
            # right module action: every coefficient picks up `other` on the right
            if other.n != self.n:
                raise DimensionMismatchError(f"C_{other.n} constant on C_{self.n} polynomial")
            return CliffordPolynomial._raw(
                self.n, {k: v * other for k, v in self._terms.items()})
        if isinstance(other, (int, Fraction, GaussianRational)):
            return CliffordPolynomial._raw(
                self.n, {k: v * other for k, v in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other  # scalars are central
        return NotImplemented

    def hermitian_conj(self) -> "CliffordPolynomial":
        """Termwise Hermitian conjugation (monomials are real scalars)."""
        return CliffordPolynomial._raw(
            self.n, {k: v.hermitian_conj() for k, v in self._terms.items()})

    # -- calculus --------------------------------------------------------

    def partial(self, i: int) -> "CliffordPolynomial":
        """Formal partial derivative along axis i (0 means x0)."""
        if not 0 <= i <= self.n:
            raise ValueError(f"axis {i} out of range [0, {self.n}]")
        data: dict[TermKey, CliffordNumber] = {}
        for (k0, beta), coeff in self._terms.items():
            if i == 0:
                if k0 == 0:
                    continue
                data[(k0 - 1, beta)] = coeff * k0
            else:
                b = beta[i - 1]
                if b == 0:
                    continue
                new_beta = list(beta)
                new_beta[i - 1] = b - 1
                data[(k0, MultiIndex(new_beta))] = coeff * b
        return CliffordPolynomial._raw(self.n, data)

    def dirac(self) -> "CliffordPolynomial":
        """D f = sum_j e_j * d_j f, with e_j acting on the left of coefficients."""
        den, data = _numerators(self)
        out: _Numerators = {}
        _dirac_into(out, data)
        return _from_numerators(self.n, out, den)

    def laplacian(self) -> "CliffordPolynomial":
        """Laplacian over x1..xn only; x0 is excluded."""
        den, data = _numerators(self)
        out: _Numerators = {}
        _laplacian_into(out, data)
        return _from_numerators(self.n, out, den)

    def cauchy_riemann(self) -> "CliffordPolynomial":
        den, data = _numerators(self)
        return _from_numerators(self.n, _cauchy_riemann(data), den)

    def is_monogenic(self) -> bool:
        _, data = _numerators(self)
        return not any(re or im for blades in _cauchy_riemann(data).values()
                       for re, im in blades.values())

    def restrict(self) -> "CliffordPolynomial":
        """Substitute x0 = 0."""
        return CliffordPolynomial._raw(
            self.n, {k: v for k, v in self._terms.items() if k[0] == 0})

    def evaluate(self, x0, xs: Sequence) -> CliffordNumber:
        """Exact evaluation at a rational point (x0, x1, ..., xn)."""
        if len(xs) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(xs)}")
        x0 = Fraction(x0)
        xs = [Fraction(x) for x in xs]
        total = CliffordNumber.zero(self.n)
        for (k0, beta), coeff in self._terms.items():
            scale = x0 ** k0
            for x, b in zip(xs, beta):
                scale *= x ** b
            total = total + coeff * scale
        return total


# -- integer-numerator kernel ------------------------------------------------
#
# Numerators: {(k0, beta): {blade mask: (re, im)}} with integer re, im over
# a denominator carried next to the map.  Accumulators may hold zero pairs
# and empty blade maps until `_pruned` or `_from_numerators` drops them.

_Numerators = dict[tuple[int, tuple[int, ...]], dict[int, tuple[int, int]]]


def _numerators(f: CliffordPolynomial) -> tuple[int, _Numerators]:
    """(den, numerators of f) with den the lcm of every part denominator."""
    den, blades = _over_common_denominator([coeff._coeffs for coeff in f._terms.values()])
    return den, dict(zip(f._terms, blades))


def _add_scaled(acc: dict[int, tuple[int, int]], blades: dict[int, tuple[int, int]],
                c: int) -> None:
    """acc += c * blades."""
    for mask, (re, im) in blades.items():
        prev = acc.get(mask)
        if prev is None:
            acc[mask] = (c * re, c * im)
        else:
            acc[mask] = (prev[0] + c * re, prev[1] + c * im)


def _dirac_into(out: _Numerators, data: _Numerators) -> None:
    """out += sum_j e_j d_j data, e_j applied as a signed blade permutation."""
    for (k0, beta), blades in data.items():
        for j, b in enumerate(beta):
            if not b:
                continue
            key = (k0, beta[:j] + (b - 1,) + beta[j + 1:])
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            bit = 1 << j
            low = (bit << 1) - 1
            for mask, (re, im) in blades.items():
                c = -b if (mask & low).bit_count() & 1 else b
                target = mask ^ bit
                prev = acc.get(target)
                if prev is None:
                    acc[target] = (c * re, c * im)
                else:
                    acc[target] = (prev[0] + c * re, prev[1] + c * im)


def _laplacian_into(out: _Numerators, data: _Numerators) -> None:
    """out += sum_j d_j^2 data."""
    for (k0, beta), blades in data.items():
        for j, b in enumerate(beta):
            if b < 2:
                continue
            key = (k0, beta[:j] + (b - 2,) + beta[j + 1:])
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            _add_scaled(acc, blades, b * (b - 1))


def _cauchy_riemann(data: _Numerators) -> _Numerators:
    """d0 data + D data, unpruned."""
    out: _Numerators = {}
    for (k0, beta), blades in data.items():
        if k0:
            _add_scaled(out.setdefault((k0 - 1, beta), {}), blades, k0)
    _dirac_into(out, data)
    return out


def _pruned(data: _Numerators) -> _Numerators:
    """Drop zero pairs, then keys left without a blade."""
    out = {}
    for key, blades in data.items():
        kept = {m: v for m, v in blades.items() if v[0] or v[1]}
        if kept:
            out[key] = kept
    return out


def _from_numerators(n: int, data: _Numerators, den: int) -> CliffordPolynomial:
    """The polynomial data / den: one Fraction per nonzero part, and the
    degree cap checked by `_raw`."""
    terms: dict[TermKey, CliffordNumber] = {}
    for (k0, beta), blades in data.items():
        coeffs = {m: _gaussian_over(re, im, den) for m, (re, im) in blades.items() if re or im}
        if coeffs:
            # entries come from a valid MultiIndex, so skip re-validation
            terms[(k0, tuple.__new__(MultiIndex, beta))] = CliffordNumber._from_nonzero(n, coeffs)
    return CliffordPolynomial._raw(n, terms)
