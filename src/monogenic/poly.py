"""Clifford-valued polynomials on R^{n+1} and their exact calculus.

A polynomial is a sparse sum f = sum x0^k0 * x^beta * c with C_n
coefficients c.  Scalar variables commute with Clifford coefficients,
and coefficients sit on the RIGHT of their monomial.  The Dirac operator
multiplies by generators on the left, so D(x^beta c) has coefficient
e_j * c.

Polynomials with no x0 dependence model functions on R^n.

Storage.  A polynomial is stored only as integer numerators over one
denominator: `_den` and `_num` = {(k0, beta): {blade mask: (re, im)}}.
The pair is always reduced: den > 0, gcd(den, every numerator) = 1, no
zero pair and no key without a blade.  That form is unique, so `==`
compares integers.  Each term is kept in the form a `CliffordNumber`
takes, so the constructor scales the numerators its coefficients hold to
the lcm of their denominators (which keeps them reduced), and `terms()`
and `coefficient()` reduce the one term they return.  Every operation
(`+`, `-`, the module actions, `hermitian_conj`, `restrict`, `partial`,
the Dirac operator, the Laplacian, the Cauchy-Riemann operator d0 + D,
and in `transform` the heat and C-K maps) works on the numerators and
reduces its result once: `_reduced` adopts what the one reducer of
`clifford`, `_reduce`, returns.  Derivatives only multiply by integers,
so a whole chain of them keeps one denominator.  One kernel,
`_partial_into`, takes every derivative: `partial`, the Laplacian over
x1..xn (the heat operator), the Laplacian over x0..xn (the heat image of
the MU_TILDE pairing) and d0 in d0 + D pass it the axes they sum over.
On each axis it moves a term with exponent b >= k to the key with b - k
there and scales it by b!/(b - k)!.  The Dirac operator has its own loop, because
left multiplication by a generator is a signed blade permutation, not a
product: e_j e_B = (-1)^popcount(B & low_j) e_{B xor bit_j}, where
bit_j is the mask of e_j and low_j the mask of e_1, ..., e_j (one swap
for each generator of B below j, and e_j^2 = -1 when j is in B).

Containers.  Hermite expansions and Fock elements share
`_MultiIndexMap`, which stores one x0-free polynomial sum_beta x^beta
v_beta in this form (v_beta = w_beta for an expansion, alpha(e^beta)
for a Fock element, unscaled).  Their maps and norms read its
numerators in place, and so do their JSON and text printers; their
entries and repr read its `terms()` and `coefficient()`.  Building one
checks the degree cap like any polynomial.

The mark.  `ck_extend` and `p_basis` build monogenic polynomials by
construction and set the private `_monogenic` slot on their results
before returning them; every other constructor, `_raw` and `_adopt`
included, leaves it False, and nothing changes it later.  `taylor_map`
and `sb_inverse` skip their monogenicity precondition only on a marked
value.  `is_monogenic()` never reads the mark: it always runs the
Cauchy-Riemann kernel.

The Fischer cache.  `gauss` keeps the prepared pairing form of a value,
one per measure, in the private `_fischer` slot: the pair (RHO form,
MU_TILDE form).  `__init__` and `_adopt` set it to (None, None).  `gauss`
replaces the pair with a finished tuple in one store when it builds a
form's right role (heat image, key set and weights), and again when it
adds the left role that only `clifford_pairing` reads, so a value shared
between threads never shows a half-built form.  `==`, `repr` and the
codec never read it.

The total-degree cap lives in a context variable, so a cap set in one
thread is not seen by another.  `__init__` and `_raw` check it; `_adopt`
does not, for results that cannot exceed the degree of a value their
caller has checked (the operators of `transform`, the parser).
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .clifford import (
    CliffordNumber,
    DimensionMismatchError,
    GaussianRational,
    _add_scaled,
    _check_dimension,
    _conjugated,
    _is_int,
    _product_numerators,
    _rational,
    _reduce,
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
    if not _is_int(cap, 0):
        raise ValueError(f"degree cap must be a nonnegative int, got {cap!r}")
    _degree_cap.set(cap)


class MultiIndex(tuple):
    """Multi-index beta in N_0^n with |beta| and beta! accessors."""

    def __new__(cls, entries: Sequence[int]):
        entries = tuple(entries)
        for b in entries:
            if not _is_int(b, 0):
                raise ValueError(f"multi-index entries must be nonnegative ints, got {entries}")
        return super().__new__(cls, entries)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def factorial(self) -> int:
        return math.prod(math.factorial(b) for b in self)


class _MultiIndexMap:
    """Finite sparse map beta -> C_n, the container shared by Hermite
    expansions and Fock elements.

    It stores one x0-free polynomial sum_beta x^beta v_beta built by the
    `CliffordPolynomial` constructor, which validates the entries, prunes
    zeros and checks the degree cap; entries are read back through its
    `terms()` and `coefficient()`.
    """

    __slots__ = ("_poly",)

    def __init__(self, n: int, data: Mapping[Sequence[int], CliffordNumber] | None = None):
        self._poly = CliffordPolynomial(n, {(0, beta): value for beta, value in data.items()}
                                        if data else None)

    @classmethod
    def _of(cls, f: "CliffordPolynomial"):
        """The container storing the x0-free polynomial f as it is."""
        out = cls.__new__(cls)
        out._poly = f
        return out

    @property
    def n(self) -> int:
        return self._poly.n

    def _items(self) -> Iterator[tuple[MultiIndex, CliffordNumber]]:
        """(beta, value) pairs sorted by (degree, beta)."""
        for _, beta, value in self._poly.terms():
            yield beta, value

    def is_zero(self) -> bool:
        return not self._poly

    def __bool__(self) -> bool:
        return bool(self._poly)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._poly == other._poly

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{tuple(b)}: {v!r}" for b, v in self._items())
        return f"{type(self).__name__}(n={self.n}, {{{inner}}})"


TermKey = tuple[int, tuple[int, ...]]


def _term_key(n: int, k0: int, beta: Sequence[int]) -> tuple[int, MultiIndex]:
    """(k0, MultiIndex(beta)), or ValueError for a bad x0 exponent or a
    multi-index that is malformed or not of length n."""
    if not _is_int(k0, 0):
        raise ValueError(f"x0 exponent must be a nonnegative int, got {k0!r}")
    beta = MultiIndex(beta)
    if len(beta) != n:
        raise ValueError(f"multi-index {tuple(beta)} has length {len(beta)}, expected {n}")
    return k0, beta


def _check_degree_cap(keys: Iterable[TermKey]) -> None:
    """DegreeCapError for the first (k0, beta) whose total degree exceeds
    the cap of the current context."""
    cap = _degree_cap.get()
    for k0, beta in keys:
        if k0 + sum(beta) > cap:
            raise DegreeCapError(f"total degree {k0 + sum(beta)} exceeds cap {cap}")


# Numerators: {(k0, beta): {blade mask: (re, im)}} with integer re, im over
# a denominator carried next to the map.  Accumulators may hold zero pairs
# and empty blade maps until `_reduced` (or `clifford._reduce`) drops them.
_Numerators = dict[TermKey, dict[int, tuple[int, int]]]


class CliffordPolynomial:
    """Sparse C_n-valued polynomial in x0, x1, ..., xn, stored as reduced
    integer numerators `_num` over one denominator `_den`."""

    __slots__ = ("n", "_den", "_num", "_monogenic", "_fischer")

    def __init__(self, n: int, terms: Mapping[tuple[int, Sequence[int]], CliffordNumber] | None = None):
        _check_dimension(n)
        cap = _degree_cap.get()
        data: dict[TermKey, CliffordNumber] = {}
        if terms:
            for (k0, beta), coeff in terms.items():
                k0, beta = key = _term_key(n, k0, beta)
                if not isinstance(coeff, CliffordNumber):
                    raise TypeError(f"bad coefficient {coeff!r}")
                if coeff.n != n:
                    raise DimensionMismatchError(f"coefficient in C_{coeff.n} inside C_{n} polynomial")
                if k0 + beta.degree > cap:
                    raise DegreeCapError(f"total degree {k0 + beta.degree} exceeds cap {cap}")
                if key in data:
                    raise ValueError(f"duplicate term {key}")
                if coeff:
                    data[key] = coeff
        # scaled to the lcm of reduced denominators, the numerators stay reduced
        den = math.lcm(*(coeff._den for coeff in data.values()))
        self.n = n
        self._den = den
        self._num = {}
        for key, coeff in data.items():
            _add_scaled(self._num.setdefault(key, {}), coeff._blades, den // coeff._den)
        self._monogenic = False
        self._fischer = (None, None)

    @classmethod
    def _raw(cls, n: int, den: int, num: _Numerators) -> "CliffordPolynomial":
        """Adopt num / den, which must be reduced; re-check the degree cap."""
        _check_degree_cap(num)
        return cls._adopt(n, den, num)

    @classmethod
    def _adopt(cls, n: int, den: int, num: _Numerators) -> "CliffordPolynomial":
        """Adopt num / den, which must be reduced, with no cap check: for
        results whose caller has checked a value of no lower degree."""
        out = cls.__new__(cls)
        out.n = n
        out._den = den
        out._num = num
        out._monogenic = False
        out._fischer = (None, None)
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
        if not _is_int(i, 0, n):
            raise ValueError(f"axis {i} out of range [0, {n}]")
        if i == 0:
            return cls.monomial(n, 1, (0,) * n)
        beta = [0] * n
        beta[i - 1] = 1
        return cls.monomial(n, 0, beta)

    # -- structure -----------------------------------------------------

    def terms(self) -> Iterator[tuple[int, MultiIndex, CliffordNumber]]:
        """Terms sorted by (total degree, k0, beta lexicographic)."""
        n, den = self.n, self._den
        for (k0, beta), blades in _sorted_terms(self._num):
            # entries come from a valid MultiIndex, so skip re-validation
            yield k0, tuple.__new__(MultiIndex, beta), CliffordNumber._reduced(n, den, blades)

    def coefficient(self, k0: int, beta: Sequence[int]) -> CliffordNumber:
        """The coefficient of x0^k0 x^beta; a key the constructor would
        reject raises its ValueError."""
        blades = self._num.get(_term_key(self.n, k0, beta))
        if blades is None:
            return CliffordNumber.zero(self.n)
        return CliffordNumber._reduced(self.n, self._den, blades)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_x0_free(self) -> bool:
        return all(k0 == 0 for k0, _ in self._num)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self._num:
            return -1
        return max(k0 + sum(beta) for k0, beta in self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._num == other._num

    __hash__ = None

    def __repr__(self) -> str:
        if not self._num:
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

    def _combine(self, other: "CliffordPolynomial", sign: int) -> "CliffordPolynomial":
        """self + sign * other over lcm of the two denominators."""
        self._check_dim(other)
        den = math.lcm(self._den, other._den)
        data: _Numerators = {}
        for poly, c in ((self, den // self._den), (other, sign * (den // other._den))):
            for key, blades in poly._num.items():
                _add_scaled(data.setdefault(key, {}), blades, c)
        return _reduced(self.n, den, data)

    def __add__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "CliffordPolynomial":
        return CliffordPolynomial._raw(self.n, self._den, {
            key: {m: (-re, -im) for m, (re, im) in blades.items()}
            for key, blades in self._num.items()})

    def __mul__(self, other) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = CliffordNumber.scalar(self.n, other)
        if isinstance(other, CliffordNumber):
            # right module action: every coefficient picks up `other` on the right
            if other.n != self.n:
                raise DimensionMismatchError(f"C_{other.n} constant on C_{self.n} polynomial")
            other = CliffordPolynomial.constant(other)
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        self._check_dim(other)
        data: _Numerators = {}
        for (k0a, ba), a in self._num.items():
            for (k0b, bb), b in other._num.items():
                key = (k0a + k0b, tuple(x + y for x, y in zip(ba, bb)))
                _product_numerators(data.setdefault(key, {}), a, b)
        return _reduced(self.n, self._den * other._den, data)

    def __rmul__(self, other) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other  # scalars are central
        return NotImplemented

    def hermitian_conj(self) -> "CliffordPolynomial":
        """Termwise Hermitian conjugation (monomials are real scalars), the
        rule `CliffordNumber.hermitian_conj` applies."""
        return CliffordPolynomial._raw(self.n, self._den, {
            key: _conjugated(blades) for key, blades in self._num.items()})

    # -- calculus --------------------------------------------------------

    def partial(self, i: int) -> "CliffordPolynomial":
        """Formal partial derivative along axis i (0 means x0)."""
        if not _is_int(i, 0, self.n):
            raise ValueError(f"axis {i} out of range [0, {self.n}]")
        out: _Numerators = {}
        _partial_into(out, self._num, (i,), 1)
        return _reduced(self.n, self._den, out)

    def dirac(self) -> "CliffordPolynomial":
        """D f = sum_j e_j * d_j f, with e_j acting on the left of coefficients."""
        out: _Numerators = {}
        _dirac_into(out, self._num)
        return _reduced(self.n, self._den, out)

    def laplacian(self) -> "CliffordPolynomial":
        """Laplacian over x1..xn only; x0 is excluded."""
        out: _Numerators = {}
        _laplacian_into(out, self._num)
        return _reduced(self.n, self._den, out)

    def cauchy_riemann(self) -> "CliffordPolynomial":
        return _reduced(self.n, self._den, _cauchy_riemann(self._num))

    def is_monogenic(self) -> bool:
        """Whether d0 f + D f = 0, always computed (never read off the mark
        that `ck_extend` leaves)."""
        return not any(re or im for blades in _cauchy_riemann(self._num).values()
                       for re, im in blades.values())

    def restrict(self) -> "CliffordPolynomial":
        """Substitute x0 = 0."""
        return _reduced(self.n, self._den,
                        {key: blades for key, blades in self._num.items() if key[0] == 0})

    def evaluate(self, x0, xs: Sequence) -> CliffordNumber:
        """Exact evaluation at a rational point (x0, x1, ..., xn): each
        coordinate an int or a Fraction, anything else (a float, a str) a
        TypeError."""
        if len(xs) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(xs)}")
        x0 = _rational(x0)
        xs = [_rational(x) for x in xs]
        total = CliffordNumber.zero(self.n)
        for (k0, beta), blades in self._num.items():
            scale = x0 ** k0
            for x, b in zip(xs, beta):
                scale *= x ** b
            total = total + CliffordNumber._reduced(self.n, self._den, blades) * scale
        return total


# -- integer-numerator kernel ------------------------------------------------

def _partial_into(out: _Numerators, data: _Numerators, axes: Iterable[int], order: int) -> None:
    """out += sum over axis in axes of d^order data / dx_axis^order, axis 0
    being x0: a term whose exponent b on the axis is at least order moves to
    the key with b - order there, scaled by b! / (b - order)!."""
    for (k0, beta), blades in data.items():
        for axis in axes:
            b = beta[axis - 1] if axis else k0
            if b < order:
                continue
            key = (k0, beta[:axis - 1] + (b - order,) + beta[axis:]) if axis else (k0 - order, beta)
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            _add_scaled(acc, blades, math.perm(b, order))


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
    """out += sum_j d_j^2 data over x1..xn (the terms of data share n)."""
    _partial_into(out, data, range(1, next((len(beta) for _, beta in data), 0) + 1), 2)


def _full_laplacian_into(out: _Numerators, data: _Numerators) -> None:
    """out += d0^2 data + sum_j d_j^2 data, the Laplacian over x0..xn."""
    _partial_into(out, data, (0,), 2)
    _laplacian_into(out, data)


def _cauchy_riemann(data: _Numerators) -> _Numerators:
    """d0 data + D data, unpruned."""
    out: _Numerators = {}
    _partial_into(out, data, (0,), 1)
    _dirac_into(out, data)
    return out


def _sorted_terms(num: _Numerators) -> list[tuple[TermKey, dict[int, tuple[int, int]]]]:
    """(key, blades) pairs in the canonical term order: total degree, then
    k0, then beta lexicographically."""
    keys = sorted(num, key=lambda key: (key[0] + sum(key[1]), key[0], key[1]))
    return [(key, num[key]) for key in keys]


def _reduced(n: int, den: int, data: _Numerators) -> CliffordPolynomial:
    """The polynomial data / den in reduced form (`clifford._reduce`), the
    degree cap checked by `_raw`."""
    return CliffordPolynomial._raw(n, *_reduce(den, data))
