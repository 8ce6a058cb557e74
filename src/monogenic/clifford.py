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

A product takes one of two paths in `_product_numerators`, chosen from
the operands' sizes and mask widths alone.  Products of dense operands
send many blade pairs to each output blade: 64 x 64 blades at n = 8 make
4096 pairs into at most 256 blades.  There each Gaussian-integer
numerator re + im*i is packed into one int, re + (im << k), with k
chosen from the operands' largest parts so that every output part lies
strictly inside +-2^(k-1); each pair is then one integer multiply-add,
and each output blade one exact decode modulo 2^(2k) + 1, where
2^(2k) = -1 plays i^2 = -1 (`_packed_product`).  It packs only when the
pairs number at least 64 and at least 4 per reachable output blade (2^w
of them, for w the bit length of the widest mask); below that the
decodes cost more than the multiplications they save.  Every other
product, from a 1 x 1 product of two Clifford numbers to 64 x 64 blades
at n = 12, where about 2,600 output blades take the 4096 pairs, runs one
pair loop that adds each pair's (re, im), its sign chosen between two
expressions rather than applied after.

A CliffordNumber is stored as integer numerators over one denominator:
`_den` and `_blades` = {blade mask: (re, im)}, reduced (den > 0,
gcd(den, every numerator) = 1, no zero pair).  That is exactly the form
one term of a `CliffordPolynomial` takes, and it is unique, so `==`
compares integers.  Every operation works on the numerators, and each
rule of that form is written once, in a module-level helper here that
the polynomial, series and pairing kernels call too: `_scaled` returns
a map times an integer as a new map (negation, the Fock weights, the
polynomial constructor, the weighted conjugates of the pairings), `+`
scales both operands to the lcm of their denominators and accumulates
them (`_add_scaled`), the product
multiplies the denominators and accumulates the real and imaginary
numerators of every blade pair into their output blade
(`_product_numerators`), `hermitian_conj` applies `_conjugated`, and
`inner` and `norm_sq` sum conj(a_A) b_A over shared blades
(`_shared_blade_sum`, which weights each blade map once and also holds
the squared norms of the Hermite and Fock containers).
No blade map ever holds a zero pair (0, 0): each kernel that adds into
a blade already present (the accumulate branches of `_add_scaled`,
`_product_numerators`, `_plan_product`, `_plan_pairing` and
`_generator_product`, and the decode of `_packed_product`) deletes a
blade whose sum cancels, where the sum is made.  So the reducers only
divide.  Results that can share a factor with the denominator are
reduced once, by one rule in two helpers: `_numerator_gcd` takes the gcd
of the denominator and the numerators of some blade maps pair by pair,
and stops at the first numerator that makes it 1, so a result with a
unit gcd is not read to its end; `_divided` rebuilds a map divided by a
gcd above 1 in a plain loop, which costs less than a comprehension on
the one- and two-blade results that most Clifford pairings reduce.
`CliffordNumber._reduced` reduces a number over its own blade map, with
no wrapper map around it.  `_reduce` takes a map {key: blade map} and
reduces a polynomial (`poly._reduced`) or prunes the operator series of
`transform`, with one gcd call over all its maps.  At gcd 1 both adopt
their input as it is (`_reduce` drops the keys a kernel left without a
blade), so a reduced value can share maps with the value it was read
from (`restrict`, `terms()`): kernels write only into maps they made.  The
full Gaussian pairing of `gauss` caches the left role of a value as
sign plans, the weighted conjugate of each key's map with its sign
masks (`_conjugate_plan`), and `_plan_pairing` adds the plans times the
right role's maps over all shared keys in one call, with no sign mask
and no dispatch per key.  The operators of `transform` multiply by the
real images of monomials: `_sign_plan` lists an image's blades with
their sign masks once, and `_plan_product` adds a whole plan times one
coefficient in one call.  The Dirac operator of `poly` applies each
generator e_j with `_generator_product`, from the sign mask of e_j
taken once at import.  So the product sign (`_sign_mask`) and the
conjugation sign are stated only in this module.
Coefficients become `Fraction`s only where they are read back
(`terms()`, `coefficient()`, `scalar_part()`, `inner()`), one per
nonzero part (`_gaussian_over`).

Construction.  A `GaussianRational` part is an int or a Fraction
(`_rational`): a Fraction is adopted as it is, since it is immutable,
the default parts share one zero, and a float, a str or a Decimal
raises TypeError instead of entering the exact path as the binary
fraction it denotes.  `CliffordNumber(n, coeffs)` checks n once and then
reads each entry in one pass: its indices become a mask (`_mask`, the
per-index rule `_is_int`), its value is coerced and a repeated mask is
refused, whatever the values, and its parts are kept as (numerator,
denominator) pairs.  `_over_lcm` turns such parts into the stored form,
for the constructor and for the parser of `serialize` alike: one lcm of
every part denominator, each part scaled to it, the zero pairs dropped
as they are scaled.  Parts in lowest terms over that lcm are already
reduced, so no reducer runs after it.
A scalar factor of `*` (an int, a Fraction or a GaussianRational) enters
through `CliffordNumber.scalar`, as it does in `==`, so the constructor
is the one way from a scalar into C_n.
`indices_from_mask` reads the indices of a mask of C_16 byte by byte,
from a 256-entry tuple built at import (`_BYTE_INDICES`) and a bounded
cache of the high byte's, and scans the bits of a wider mask; it
refuses anything but a nonnegative int, a bool included, as
`mask_from_indices` refuses a bad index.  The generators of `verify`
skip the public constructors and build stored numerators directly.  Two
argument rules live here for the whole library: `_is_int`, the test
behind every integer argument, and `_checked`, the container check at
the entry of every operator and Fock map, and (through `_items`) of the
mapping that each constructor of a value reads, whose TypeError reads
"<name> takes a <class>, got <type>".
`CliffordNumber.blade` checks its indices before they key a dict.  The
grade argument of `CliffordNumber.grade` and `FockElement.grade` is
checked by `_check_grade`.

Printing has two primitives, and every printer (JSON and text, of
numbers, polynomials and containers) is built on them: `_blade_order`
gives the canonical order of blades (by grade, then lexicographically
by index; `_blade_masks` applies it to a numerator map) and the indices
of each blade, and `_part_text` prints one part from its numerator and a
denominator with one gcd: the only place where a numerator becomes text
(the printers of `serialize` keep one memo of it per call).

Everything here is immutable after construction and every operation is
pure, so values can be shared freely between threads.  So are the
canonical zeros `_ZEROS`, a tuple built once at import: 0 + 0i at index
0 and the zero of C_n (no blade over 1) at index n, which the pairings of
`gauss` return for operands that share no monomial.  Sharing them, as
sharing blade maps, is safe because no operation changes a value and
kernels write only into maps they made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from sys import get_int_max_str_digits
from collections.abc import Iterable, Iterator, Mapping

MAX_DIMENSION = 16

RationalLike = int | Fraction


class DimensionMismatchError(ValueError):
    """Operands live in Clifford algebras of different dimension."""


class BoundsError(ValueError):
    """A parameter lies outside its documented range."""


def _is_int(value, lo: int | None = None, hi: int | None = None) -> bool:
    """Whether value is an int, not a bool, in [lo, hi] (a bound left None
    is open): the one test behind every integer argument of the library."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (lo is None or lo <= value) and (hi is None or value <= hi))


def _checked(name: str, value, *classes: type):
    """value, or TypeError "<name> takes a <A>[ or a <B>], got <type>"
    unless it is an instance of one of classes: the one container check
    at the entry of every operator and Fock map, named in its message."""
    if not isinstance(value, classes):
        raise TypeError(f"{name} takes a {' or a '.join(c.__name__ for c in classes)}, "
                        f"got {type(value).__name__}")
    return value


def _items(name: str, data) -> Iterable:
    """The (key, value) pairs of the mapping argument data of the
    constructor name: none for None, its default, and for anything but a
    dict or another Mapping the TypeError of `_checked`."""
    return () if data is None else (data if type(data) is dict else _checked(name, data, Mapping)).items()


def _check_grade(k) -> None:
    """ValueError unless k is a nonnegative int: the grade argument of
    `CliffordNumber.grade` and `FockElement.grade`."""
    if not _is_int(k, 0):
        raise ValueError("grade must be nonnegative")


def _check_dimension(n: int) -> None:
    if not _is_int(n, 1, MAX_DIMENSION):
        raise BoundsError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")


_ZERO = Fraction(0)


def _rational(value) -> Fraction:
    """value as a Fraction: a Fraction is adopted as it is (it is
    immutable), an int is converted, a bool read as 0 or 1; anything else,
    a float, a str or a Decimal included, raises TypeError, so that no
    inexact or parsed value enters the exact path."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an int or a Fraction, got {value!r}")


class GaussianRational:
    """Exact complex number re + im*i with rational parts.

    Both parts are `fractions.Fraction`, hence always reduced with a
    positive denominator; structural equality is semantic equality.  A
    part is an int or a Fraction (`_rational`); a Fraction part is stored
    as it is, not copied.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = _ZERO, im: RationalLike = _ZERO):
        self.re = _rational(re)
        self.im = _rational(im)

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

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
        return _gaussian(re * ore - im * oim, re * oim + im * ore)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # equal to a real rational, so hashed like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

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
    return _mask(indices, n)


def _mask(indices: Iterable[int], n: int) -> int:
    """`mask_from_indices` for a dimension n already checked."""
    mask = 0
    prev = 0
    for i in indices:
        if not _is_int(i, 1, n):
            raise ValueError(f"generator index {i!r} must be an int in [1, {n}]")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def _byte_indices() -> tuple[tuple[int, ...], ...]:
    """The indices of each mask in [0, 256), by doubling: the masks with
    bit i - 1 set are those below it with index i appended."""
    table = ((),)
    for i in range(1, 9):
        table += tuple([indices + (i,) for indices in table])
    return table


_BYTE_INDICES = _byte_indices()


@lru_cache(maxsize=256)
def _high_byte_indices(byte: int) -> tuple[int, ...]:
    """The indices of the mask byte << 8, built on first use."""
    return tuple(i + 8 for i in _BYTE_INDICES[byte])


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """The increasing generator indices of a blade mask: a lookup per
    byte for the masks of C_16, a scan of the bits beyond.  Anything but
    a nonnegative int, a bool included, is not a mask (ValueError)."""
    if not _is_int(mask, 0):
        raise ValueError(f"blade mask {mask!r} must be a nonnegative int")
    if mask <= 0xFFFF:
        return _BYTE_INDICES[mask & 0xFF] + _high_byte_indices(mask >> 8)
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=4096)
def _blade_order(mask: int) -> tuple[int, tuple[int, ...]]:
    """(grade, indices) of a blade: its canonical sort key, by grade, then
    lexicographically.  Cached for the 4096 masks used last, every blade
    of C_12 (about 1 MB; all of C_16 would take about 18 MB)."""
    indices = indices_from_mask(mask)
    return len(indices), indices


def _blade_masks(blades: _Blades) -> Iterable[int]:
    """The masks of a numerator map in the canonical blade order; a map of
    one blade is not sorted."""
    return sorted(blades, key=_blade_order) if len(blades) > 1 else blades


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


# ---------------------------------------------------------------------------
# Integer numerators
# ---------------------------------------------------------------------------

# {blade mask: (re, im)} with integer parts over a denominator kept beside
# the map.  No map holds a zero pair: the kernels delete a blade whose sum
# cancels, and the entries drop zero parts (`_over_lcm`).
_Blades = dict[int, tuple[int, int]]


def _gaussian_over(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den from integer numerators: one Fraction per nonzero part."""
    return _gaussian(Fraction(re, den) if re else _ZERO, Fraction(im, den) if im else _ZERO)


def _part_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with one gcd and no Fraction.

    A reduced numerator or denominator longer than the interpreter's
    int-to-str digit limit (`sys.get_int_max_str_digits()`) cannot be
    printed: BoundsError.
    """
    if not num:
        return "0"
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:
        raise BoundsError(f"coefficient exceeds the {get_int_max_str_digits()}-digit limit "
                          "of int conversion") from None


def _scaled(blades: _Blades, c: int) -> _Blades:
    """c * blades, a new map."""
    return {m: (c * re, c * im) for m, (re, im) in blades.items()}


def _add_scaled(acc: _Blades, blades: _Blades, c: int) -> None:
    """acc += c * blades for c != 0, into a map that may already hold the
    masks; a blade whose sum cancels is deleted."""
    for mask, (re, im) in blades.items():
        prev = acc.get(mask)
        if prev is None:
            acc[mask] = (c * re, c * im)
        else:
            re = prev[0] + c * re
            im = prev[1] + c * im
            if re or im:
                acc[mask] = (re, im)
            else:
                del acc[mask]


def _conjugated(blades: _Blades) -> _Blades:
    """Hermitian conjugate of a numerator map: imaginary part negated, then
    blade e_A signed by (-1)^(k(k+1)/2) for k generators, which is -1
    exactly when bit 1 of k + 1 is set."""
    return {m: (-re, im) if (m.bit_count() + 1) & 2 else (re, -im)
            for m, (re, im) in blades.items()}


def _shared_blade_sum(triples: Iterable[tuple[int, Mapping, Mapping]]) -> tuple[int, int]:
    """(re, im) numerators of the sum of w * conj(a_A) * b_A over the
    blades shared by the maps of each (w, left, right) triple, the weight
    applied once per triple: conj(e_A) e_B has a scalar part only when
    A = B, and there it is 1.  With left = right the sum is the weighted
    squared norm, re = sum w |a_A|^2 and im = 0."""
    re = im = 0
    for w, left, right in triples:
        tr = ti = 0
        for mask, (ar, ai) in left.items():
            br, bi = right.get(mask, (0, 0))
            tr += ar * br + ai * bi
            ti += ar * bi - ai * br
        re += w * tr
        im += w * ti
    return re, im


def _numerator_gcd(g: int, maps: Iterable[_Blades]) -> int:
    """gcd(g, every numerator of the blade maps of maps), taken pair by
    pair, the maps in order: it stops at the first pair that leaves it 1,
    so the rest is not read.  The one reduction gcd of the library.  It
    takes all the maps of a polynomial, so that `_reduce` makes one call
    and not one per map of a result that divides."""
    for blades in maps:
        for re, im in blades.values():
            g = gcd(g, re, im)
            if g == 1:
                return 1
    return g


def _divided(blades: _Blades, g: int) -> _Blades:
    """A new map of the pairs of blades, each part divided by g > 1.  A
    plain loop divides: on CPython 3.11 a dict comprehension is a function
    call, which costs more than the division itself on the one- and
    two-blade maps of most Gram entries."""
    out = {}
    for m, (re, im) in blades.items():
        out[m] = (re // g, im // g)
    return out


def _over_lcm(values: Mapping) -> tuple[int, dict]:
    """(den, {key: numerator map}) of the parts {key: {mask: (p_re, q_re,
    p_im, q_im)}}, every p/q in lowest terms: den is the lcm of every q,
    each part is scaled to it as the zero pairs are dropped, and then the
    keys left without a blade.  The one way from parts to the stored form,
    which the constructor and the parser take, and no reducer runs after
    it: the highest power of a prime that divides den divides some q, and
    not that part's p, so gcd(den, every numerator) = 1.  A plain loop
    scales, as in `_divided`: a comprehension per key costs more on the
    one- to three-blade values that most inputs hold."""
    den = lcm(*{q for parts in values.values() for _, qr, _, qi in parts.values() for q in (qr, qi)})
    out = {}
    for key, parts in values.items():
        blades = {}
        for mask, (pr, qr, pi, qi) in parts.items():
            if pr or pi:
                blades[mask] = (pr * (den // qr), pi * (den // qi))
        if blades:
            out[key] = blades
    return den, out


def _reduce(den: int, maps: dict) -> tuple[int, dict]:
    """(den, maps) reduced: den and every numerator of {key: {mask: (re, im)}}
    divided by their gcd, and keys left without a blade dropped.  The maps
    hold no zero pair (the kernels delete a cancelled blade), so only the
    division is left.  One `_numerator_gcd` call reads the maps in order
    up to the first numerator that makes the gcd 1; then maps itself is
    adopted, shared with the input, unless a key is left empty, and at
    g > 1 each blade map is rebuilt divided (`_divided`).  A map with no
    blade reduces to (1, {})."""
    g = _numerator_gcd(den, maps.values())
    if g == 1:
        if all(maps.values()):
            return den, maps
        return den, {key: blades for key, blades in maps.items() if blades}
    out = {}
    for key, blades in maps.items():
        if blades:
            out[key] = _divided(blades, g)
    return den // g, out


# the rule of `_product_numerators`: below either threshold the pair loop
# measured faster than the packed product on dense products at n <= 10
_PACK_PAIRS_PER_BLADE = 4
_PACK_MIN_PAIRS = 64


def _product_numerators(acc: _Blades, left: _Blades, right: _Blades) -> None:
    """acc += left * right: integer multiply-accumulate over all blade
    pairs of two numerator maps, by one of two paths.

    The products e_A e_B of w generator slots reach at most 2^w output
    blades.  When the pairs number at least _PACK_MIN_PAIRS and
    _PACK_PAIRS_PER_BLADE * 2^w, they are summed as packed Gaussian
    integers (`_packed_product`); the choice reads only the sizes and mask
    widths of the operands.  Otherwise each pair adds its (re, im) in the
    pair loop below: the real part of each left blade is negated once, so
    that the parity of a pair picks one of two expressions for its signed
    (re, im) with no negation after it, and a blade already in acc is
    unpacked rather than indexed.  A blade whose sum cancels is deleted."""
    pairs = len(left) * len(right)
    if pairs >= _PACK_MIN_PAIRS:
        width = max(max(left), max(right)).bit_length()
        if pairs >= _PACK_PAIRS_PER_BLADE << width:
            _packed_product(acc, left, right, width)
            return
    for ma, (ar, ai) in left.items():
        q = _sign_mask(ma)
        nr = -ar
        for mb, (br, bi) in right.items():
            if (q & mb).bit_count() & 1:
                re = nr * br + ai * bi
                im = nr * bi - ai * br
            else:
                re = ar * br - ai * bi
                im = ar * bi + ai * br
            mask = ma ^ mb
            prev = acc.get(mask)
            if prev is None:
                acc[mask] = (re, im)
            else:
                pr, pi = prev
                re += pr
                im += pi
                if re or im:
                    acc[mask] = (re, im)
                else:
                    del acc[mask]


def _packed_product(acc: _Blades, left: _Blades, right: _Blades, width: int) -> None:
    """acc += left * right for masks below 2^width, one integer
    multiply-add per blade pair: Z[i] = Z[x]/(x^2 + 1) evaluated at x = 2^k.

    Each numerator re + im*i is packed as re + (im << k).  Modulo
    M = 2^(2k) + 1, 2^(2k) = -1, so the product of two packed numerators
    is congruent to the packed product (ar br - ai bi) + (ar bi + ai br) 2^k,
    and a signed sum of them to the packed sum.  The output blade e_C
    takes one pair per left blade (e_A times e_{A xor C}), so each part of
    its sum is at most 2 t_L t_R min(|L|, |R|) in magnitude, for t the
    largest part of each operand; k exceeds that bound's bit length by
    one, so each part lies strictly inside +-h, h = 2^(k-1).  The residue
    of v + h + (h << k) is then (re + h) + ((im + h) << k) itself, a
    number in [0, 2^(2k)), and divmod by 2^k recovers both parts exactly.
    The sign of a pair picks pa or -pa from a pair built once per left
    blade, so each pair is one indexed multiply-add with no branch.
    The sums live in a list indexed by output mask, which the caller's
    rule keeps at most a quarter as long as the pair count.  A zero sum
    (one no pair reaches) is not decoded, a sum that decodes to zero (a
    nonzero multiple of M) is not added, and an entry of acc that the
    decoded sum cancels is deleted."""
    top = max(map(abs, chain.from_iterable(left.values())))
    top *= max(map(abs, chain.from_iterable(right.values())))
    k = (2 * top * min(len(left), len(right))).bit_length() + 1
    packed = [(mb, br + (bi << k)) for mb, (br, bi) in right.items()]
    sums = [0] * (1 << width)
    for ma, (ar, ai) in left.items():
        q = _sign_mask(ma)
        pa = ar + (ai << k)
        signed = (pa, -pa)
        for mb, pb in packed:
            sums[ma ^ mb] += signed[(q & mb).bit_count() & 1] * pb
    h = 1 << (k - 1)
    offset = h + (h << k)
    modulus = (1 << 2 * k) + 1
    for mask, v in enumerate(sums):
        if v:
            im, re = divmod((v + offset) % modulus, 1 << k)
            re -= h
            im -= h
            prev = acc.get(mask)
            if prev is not None:
                re += prev[0]
                im += prev[1]
            if re or im:
                acc[mask] = (re, im)
            elif prev is not None:
                del acc[mask]


def _sign_plan(terms: Iterable[tuple[object, _Blades]]) -> tuple:
    """((key, mask, q, r), ...) of the real blades r e_A of ((key, blades), ...),
    q = q_A its sign mask: the form in which `_plan_product` applies them.
    The imaginary parts must be zero."""
    return tuple((key, mask, _sign_mask(mask), re)
                 for key, blades in terms for mask, (re, _) in blades.items())


def _plan_product(total: dict, plan: tuple, right: _Blades, c: int) -> None:
    """total[key] += c * r e_A * right for every (key, A, q_A, r) of a
    `_sign_plan`: a real blade times a complex numerator map, two
    multiplications per blade pair; a blade whose sum cancels is deleted."""
    items = right.items()
    for key, ma, q, r in plan:
        r *= c
        acc = total.get(key)
        if acc is None:
            total[key] = acc = {}
        for mb, (br, bi) in items:
            s = -r if (q & mb).bit_count() & 1 else r
            mask = ma ^ mb
            prev = acc.get(mask)
            if prev is None:
                acc[mask] = (s * br, s * bi)
            else:
                re = prev[0] + s * br
                im = prev[1] + s * bi
                if re or im:
                    acc[mask] = (re, im)
                else:
                    del acc[mask]


def _conjugate_plan(blades: _Blades, w: int) -> tuple:
    """((A, q_A, re, im), ...) of w * conj(blades), q_A the sign mask of
    e_A: the left role of a pairing in the form `_plan_pairing` multiplies."""
    return tuple((m, _sign_mask(m), re, im) for m, (re, im) in _scaled(_conjugated(blades), w).items())


def _plan_pairing(plans: Mapping, rights: Mapping, keys: Iterable) -> _Blades:
    """The numerators of sum over keys of plans[key] * rights[key], the
    plans from `_conjugate_plan`, in one new map: the plain pair loop
    with no sign mask per call; a blade whose sum cancels is deleted."""
    acc: _Blades = {}
    for key in keys:
        items = rights[key].items()
        for ma, q, ar, ai in plans[key]:
            for mb, (br, bi) in items:
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                if (q & mb).bit_count() & 1:
                    re, im = -re, -im
                mask = ma ^ mb
                prev = acc.get(mask)
                if prev is None:
                    acc[mask] = (re, im)
                else:
                    re += prev[0]
                    im += prev[1]
                    if re or im:
                        acc[mask] = (re, im)
                    else:
                        del acc[mask]
    return acc


# (mask, sign mask) of each generator slot: `_generator_product` runs once
# per term and axis of the Dirac operator, mostly on one-blade maps, where a
# `_sign_mask` call per run would cost about a tenth of `is_monogenic`
_GENERATORS = tuple((1 << j, _sign_mask(1 << j)) for j in range(MAX_DIMENSION))


def _generator_product(acc: _Blades, j: int, blades: _Blades, c: int) -> None:
    """acc += c * e_{j+1} * blades for c != 0: a signed permutation of the
    blades; a blade whose sum cancels is deleted."""
    bit, q = _GENERATORS[j]
    for mask, (re, im) in blades.items():
        s = -c if (q & mask).bit_count() & 1 else c
        target = mask ^ bit
        prev = acc.get(target)
        if prev is None:
            acc[target] = (s * re, s * im)
        else:
            re = prev[0] + s * re
            im = prev[1] + s * im
            if re or im:
                acc[target] = (re, im)
            else:
                del acc[target]


# ---------------------------------------------------------------------------
# Clifford numbers
# ---------------------------------------------------------------------------

class CliffordNumber:
    """Element of C_n, stored as reduced integer numerators `_blades` =
    {blade mask: (re, im)} over one denominator `_den`.

    Zero pairs are never stored and gcd(den, every numerator) = 1, so
    the form is unique: the empty map over 1 is the canonical zero, and
    `==` compares integers.
    """

    __slots__ = ("n", "_den", "_blades")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, ...], object] | None = None):
        _check_dimension(n)
        parts = {}
        for indices, value in _items("CliffordNumber", coeffs):
            mask = _mask(indices, n)
            gr = _coerce(value)
            if gr is NotImplemented:
                raise TypeError(f"bad coefficient {value!r}")
            # zero values are kept until `_over_lcm`, so that a repeated
            # blade is refused whatever its values
            if mask in parts:
                raise ValueError(f"duplicate blade {indices}")
            parts[mask] = (gr.re.numerator, gr.re.denominator, gr.im.numerator, gr.im.denominator)
        self.n = n
        self._den, num = _over_lcm({0: parts})
        self._blades = num.get(0, {})

    @classmethod
    def _raw(cls, n: int, den: int, blades: _Blades) -> "CliffordNumber":
        """Adopt blades / den, which must already be reduced."""
        out = cls.__new__(cls)
        out.n = n
        out._den = den
        out._blades = blades
        return out

    @classmethod
    def _reduced(cls, n: int, den: int, blades: _Blades) -> "CliffordNumber":
        """blades / den in reduced form, by the rule of `_reduce` on one
        map with no zero pair: blades itself when its gcd with den is 1
        (a zero then has den 1), else a new map divided by the gcd."""
        g = _numerator_gcd(den, (blades,))
        if g != 1:
            den, blades = den // g, _divided(blades, g)
        out = cls.__new__(cls)
        out.n = n
        out._den = den
        out._blades = blades
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
        """coeff e_A; the indices are checked before they key a dict, so that
        an unhashable one raises the ValueError of any other bad index."""
        return cls(n, {indices_from_mask(mask_from_indices(tuple(indices), n)): coeff})

    @classmethod
    def basis(cls, n: int, i: int) -> "CliffordNumber":
        """The generator e_i."""
        return cls.blade(n, (i,))

    def terms(self) -> Iterator[tuple[tuple[int, ...], GaussianRational]]:
        """Canonically ordered (indices, coefficient) pairs: by grade, then lex."""
        den, blades = self._den, self._blades
        for mask in _blade_masks(blades):
            yield _blade_order(mask)[1], _gaussian_over(*blades[mask], den)

    def coefficient(self, indices: Iterable[int]) -> GaussianRational:
        slot = self._blades.get(mask_from_indices(indices, self.n))
        return GaussianRational() if slot is None else _gaussian_over(*slot, self._den)

    def is_zero(self) -> bool:
        return not self._blades

    def __bool__(self) -> bool:
        return bool(self._blades)

    def _check_dim(self, other: "CliffordNumber") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"C_{self.n} vs C_{other.n}")

    def __add__(self, other) -> "CliffordNumber":
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        self._check_dim(other)
        den = lcm(self._den, other._den)
        acc: _Blades = {}
        _add_scaled(acc, self._blades, den // self._den)
        _add_scaled(acc, other._blades, den // other._den)
        return CliffordNumber._reduced(self.n, den, acc)

    def __sub__(self, other) -> "CliffordNumber":
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CliffordNumber":
        return CliffordNumber._raw(self.n, self._den, _scaled(self._blades, -1))

    def __mul__(self, other) -> "CliffordNumber":
        if not isinstance(other, CliffordNumber):
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return NotImplemented
            other = CliffordNumber.scalar(self.n, other)
        self._check_dim(other)
        acc: _Blades = {}
        _product_numerators(acc, self._blades, other._blades)
        return CliffordNumber._reduced(self.n, self._den * other._den, acc)

    def __rmul__(self, other) -> "CliffordNumber":
        # scalars are central, so left and right scaling agree
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def grade(self, k: int) -> "CliffordNumber":
        """The k-vector part: keep blades with exactly k generators."""
        _check_grade(k)
        return CliffordNumber._reduced(
            self.n, self._den, {m: v for m, v in self._blades.items() if m.bit_count() == k})

    def scalar_part(self) -> GaussianRational:
        return self.coefficient(())

    def hermitian_conj(self) -> "CliffordNumber":
        """Antilinear antiautomorphism with e_i -> -e_i.

        On a grade-k blade the reversal and the per-generator minus
        signs combine to (-1)^(k(k+1)/2); scalars are complex-conjugated.
        """
        return CliffordNumber._raw(self.n, self._den, _conjugated(self._blades))

    def inner(self, other: "CliffordNumber") -> GaussianRational:
        """Hermitian inner product (self, other) = [conj(self) * other]_0,
        the sum of conj(a_A) * b_A over the shared blades."""
        self._check_dim(_checked("inner", other, CliffordNumber))
        return _gaussian_over(*_shared_blade_sum([(1, self._blades, other._blades)]),
                              self._den * other._den)

    def norm_sq(self) -> Fraction:
        """(self, self) = sum of |coefficient|^2; exact and nonnegative."""
        return self.inner(self).re

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = CliffordNumber.scalar(self.n, other)
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._blades == other._blades

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        if not self._blades:
            return "0"
        parts = []
        for indices, value in self.terms():
            blade = "e{" + ",".join(map(str, indices)) + "}" if indices else ""
            parts.append(f"({value!r}){blade}" if blade else repr(value))
        return " + ".join(parts)


# the canonical zeros (see the module docstring): 0 + 0i, then C_1 .. C_16
_ZEROS = (_gaussian(_ZERO, _ZERO),
          *(CliffordNumber._raw(n, 1, {}) for n in range(1, MAX_DIMENSION + 1)))
