"""Exact arithmetic in the complex Clifford algebra C_n.

Elements are sparse sums of basis blades e_A, where A is a strictly
increasing subset of {1, ..., n}, with Gaussian-rational coefficients.
The generators satisfy e_i e_j + e_j e_i = -2 delta_ij, so each e_i
squares to -1.  Blades are stored internally as bitmasks over at most
16 generator slots.

Product sign: e_A e_B = (-1)^s e_{A xor B}, where s counts one swap for
each generator of A above each generator of B, plus one factor
e_j^2 = -1 for each generator in both.  Bit j of the sign mask q_A is
the parity of A's generators above j, xor A's own bit j, so
s = popcount(q_A & B) mod 2: O(1) per blade pair once q_A is known.

Products of multivectors accumulate integer numerators: each operand is
put over the lcm of its coefficient denominators, the real and imaginary
numerators of every blade pair are added into their output blade, and
each output coefficient is reduced once at the end.  The two ends of
that codec serve more than the product.  `_over_common_denominator`
also converts coefficients once where they enter integer storage: the
`CliffordPolynomial` constructor, which also builds Hermite expansions
and Fock elements.  `_gaussian_over` builds the Fractions where
numerators leave it: polynomial `terms()` and `coefficient()`, and the
pairings of `gauss`.

Everything here is immutable after construction and every operation is
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Union

MAX_DIMENSION = 16

RationalLike = Union[int, Fraction]


class DimensionMismatchError(ValueError):
    """Operands live in Clifford algebras of different dimension."""


class BoundsError(ValueError):
    """A parameter lies outside its documented range."""


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise BoundsError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")


class GaussianRational:
    """Exact complex number re + im*i with rational parts.

    Both parts are `fractions.Fraction`, hence always reduced with a
    positive denominator; structural equality is semantic equality.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        re, im, ore, oim = self.re, self.im, other.re, other.im
        if not im:  # real factors are the common case: skip the zero products
            return _gaussian(re * ore, re * oim if oim else _ZERO)
        if not oim:
            return _gaussian(re * ore, im * ore)
        return _gaussian(re * ore - im * oim, re * oim + im * ore)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """GaussianRational from parts that are already Fractions, which
    `__init__` would wrap again."""
    out = object.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


_ZERO = Fraction(0)


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Blades
# ---------------------------------------------------------------------------

def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Bitmask for a blade given its strictly increasing index tuple."""
    _check_dimension(n)
    mask = 0
    prev = 0
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= n:
            raise ValueError(f"generator index {i!r} must be an int in [1, {n}]")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _sign_mask(a: int) -> int:
    """q_A with e_A e_B = (-1)^popcount(q_A & B) e_{A xor B}.

    Bit j is the parity of A's bits above j (suffix xor of a >> 1 over
    the 16 slots), xor A's own bit j.
    """
    q = a >> 1
    q ^= q >> 1
    q ^= q >> 2
    q ^= q >> 4
    q ^= q >> 8
    return q ^ a


def blade_product(a: Iterable[int], b: Iterable[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Product of two basis blades: e_a * e_b = sign * e_c."""
    ma, mb = mask_from_indices(a, n), mask_from_indices(b, n)
    sign = -1 if (_sign_mask(ma) & mb).bit_count() & 1 else 1
    return sign, indices_from_mask(ma ^ mb)


def _over_common_denominator(
        maps: list[Mapping[int, GaussianRational]]) -> tuple[int, list[dict[int, tuple[int, int]]]]:
    """(d, [{mask: (re*d, im*d)} per map]) with d the lcm of every part's
    denominator in all the maps, so the numerators are integers."""
    parts = [v for coeffs in maps for v in coeffs.values()]
    den = lcm(*{v.re.denominator for v in parts}, *{v.im.denominator for v in parts})
    return den, [{m: (v.re.numerator * (den // v.re.denominator),
                      v.im.numerator * (den // v.im.denominator)) for m, v in coeffs.items()}
                 for coeffs in maps]


def _gaussian_over(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den from integer numerators: one Fraction per nonzero part."""
    return _gaussian(Fraction(re, den) if re else _ZERO, Fraction(im, den) if im else _ZERO)


def _product_numerators(left: Mapping[int, tuple[int, int]], right: Mapping[int, tuple[int, int]]
                        ) -> tuple[defaultdict[int, int], defaultdict[int, int]]:
    """Integer multiply-accumulate over all blade pairs of two numerator
    maps: (re, im) numerators per output blade, cancelled ones included."""
    re_acc: defaultdict[int, int] = defaultdict(int)
    im_acc: defaultdict[int, int] = defaultdict(int)
    for ma, (ar, ai) in left.items():
        q = _sign_mask(ma)
        for mb, (br, bi) in right.items():
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            mask = ma ^ mb
            if (q & mb).bit_count() & 1:
                re_acc[mask] -= re
                im_acc[mask] -= im
            else:
                re_acc[mask] += re
                im_acc[mask] += im
    return re_acc, im_acc


def _accumulated_product(a: dict[int, GaussianRational],
                         b: dict[int, GaussianRational]) -> dict[int, GaussianRational]:
    """The product of two blade maps over integers, one reduction per
    output part; blades whose sum cancels are left out."""
    da, (left,) = _over_common_denominator([a])
    db, (right,) = _over_common_denominator([b])
    re_acc, im_acc = _product_numerators(left, right)
    den = da * db
    data: dict[int, GaussianRational] = {}
    for mask, re in re_acc.items():
        im = im_acc[mask]
        if re or im:
            data[mask] = _gaussian_over(re, im, den)
    return data


# ---------------------------------------------------------------------------
# Clifford numbers
# ---------------------------------------------------------------------------

class CliffordNumber:
    """Element of C_n as a sparse blade -> GaussianRational map.

    Zero coefficients are never stored; the empty map is the canonical
    zero, so `==` on the coefficient maps is semantic equality.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, ...], object] | None = None):
        _check_dimension(n)
        self.n = n
        data: dict[int, GaussianRational] = {}
        if coeffs:
            for indices, value in coeffs.items():
                mask = mask_from_indices(indices, n)
                gr = _coerce(value)
                if gr is NotImplemented:
                    raise TypeError(f"bad coefficient {value!r}")
                if mask in data:
                    raise ValueError(f"duplicate blade {indices}")
                if gr:
                    data[mask] = gr
        self._coeffs = data

    @classmethod
    def _from_masks(cls, n: int, data: dict[int, GaussianRational]) -> "CliffordNumber":
        return cls._from_nonzero(n, {m: v for m, v in data.items() if v})

    @classmethod
    def _from_nonzero(cls, n: int, data: dict[int, GaussianRational]) -> "CliffordNumber":
        """Adopt `data` as is: every value must be nonzero."""
        out = cls.__new__(cls)
        out.n = n
        out._coeffs = data
        return out

    @classmethod
    def zero(cls, n: int) -> "CliffordNumber":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "CliffordNumber":
        return cls(n, {(): 1})

    @classmethod
    def scalar(cls, n: int, value) -> "CliffordNumber":
        return cls(n, {(): value})

    @classmethod
    def blade(cls, n: int, indices: Iterable[int], coeff=1) -> "CliffordNumber":
        return cls(n, {tuple(indices): coeff})

    @classmethod
    def basis(cls, n: int, i: int) -> "CliffordNumber":
        """The generator e_i."""
        return cls(n, {(i,): 1})

    def terms(self) -> Iterator[tuple[tuple[int, ...], GaussianRational]]:
        """Canonically ordered (indices, coefficient) pairs: by grade, then lex."""
        items = [(indices_from_mask(m), v) for m, v in self._coeffs.items()]
        items.sort(key=lambda item: (len(item[0]), item[0]))
        yield from items

    def coefficient(self, indices: Iterable[int]) -> GaussianRational:
        return self._coeffs.get(mask_from_indices(indices, self.n), GaussianRational())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def _check_dim(self, other: "CliffordNumber") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"C_{self.n} vs C_{other.n}")

    def __add__(self, other) -> "CliffordNumber":
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        self._check_dim(other)
        data = dict(self._coeffs)
        for mask, value in other._coeffs.items():
            acc = data.get(mask)
            data[mask] = value if acc is None else acc + value
        return CliffordNumber._from_masks(self.n, data)

    def __sub__(self, other) -> "CliffordNumber":
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CliffordNumber":
        return CliffordNumber._from_masks(self.n, {m: -v for m, v in self._coeffs.items()})

    def __mul__(self, other) -> "CliffordNumber":
        if isinstance(other, CliffordNumber):
            self._check_dim(other)
            return CliffordNumber._from_nonzero(
                self.n, _accumulated_product(self._coeffs, other._coeffs))
        scalar = _coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return CliffordNumber._from_masks(
            self.n, {m: v * scalar for m, v in self._coeffs.items()})

    def __rmul__(self, other) -> "CliffordNumber":
        # scalars are central, so left and right scaling agree
        scalar = _coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self * scalar

    def grade(self, k: int) -> "CliffordNumber":
        """The k-vector part: keep blades with exactly k generators."""
        if k < 0:
            raise ValueError("grade must be nonnegative")
        return CliffordNumber._from_masks(
            self.n, {m: v for m, v in self._coeffs.items() if m.bit_count() == k})

    def scalar_part(self) -> GaussianRational:
        return self._coeffs.get(0, GaussianRational())

    def hermitian_conj(self) -> "CliffordNumber":
        """Antilinear antiautomorphism with e_i -> -e_i.

        On a grade-k blade the reversal and the per-generator minus
        signs combine to (-1)^(k(k+1)/2); scalars are complex-conjugated.
        """
        data = {}
        for mask, value in self._coeffs.items():
            k = mask.bit_count()
            value = value.conjugate()
            if (k * (k + 1) // 2) & 1:
                value = -value
            data[mask] = value
        return CliffordNumber._from_masks(self.n, data)

    def inner(self, other: "CliffordNumber") -> GaussianRational:
        """Hermitian inner product (self, other) = [conj(self) * other]_0.

        conj(e_A) e_B has a scalar part only when A = B, and there it is
        1, so this is the sum of conj(a_A) * b_A over the shared blades.
        """
        self._check_dim(other)
        re = im = _ZERO
        b = other._coeffs
        for mask, va in self._coeffs.items():
            vb = b.get(mask)
            if vb is not None:
                re += va.re * vb.re + va.im * vb.im
                im += va.re * vb.im - va.im * vb.re
        return _gaussian(re, im)

    def norm_sq(self) -> Fraction:
        """(self, self) = sum of |coefficient|^2; exact and nonnegative."""
        total = Fraction(0)
        for value in self._coeffs.values():
            total += value.abs_sq()
        return total

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = CliffordNumber.scalar(self.n, other)
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for indices, value in self.terms():
            blade = "e{" + ",".join(map(str, indices)) + "}" if indices else ""
            parts.append(f"({value!r}){blade}" if blade else repr(value))
        return " + ".join(parts)
