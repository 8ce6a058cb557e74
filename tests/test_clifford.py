"""Clifford algebra core: blade products, ring axioms, conjugation, inner product."""

import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (CliffordNumber, CliffordPolynomial, DimensionMismatchError, GaussianRational,
                       blade_product, clifford)
from monogenic.clifford import BoundsError, I, _part_text, indices_from_mask, mask_from_indices

from oracles import PRIMES_TO_97, bit_scan_indices, naive_blade_product


def blades_st(n):
    return st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s)))


def rationals_st():
    return st.fractions(min_value=-4, max_value=4, max_denominator=4)


def gaussian_st():
    return st.builds(GaussianRational, rationals_st(), rationals_st())


def clifford_st(n):
    return st.builds(
        lambda d: CliffordNumber(n, d),
        st.dictionaries(blades_st(n), gaussian_st(), max_size=4))


# -- Gaussian rationals ------------------------------------------------------

@pytest.mark.parametrize("value, plain", [
    (GaussianRational(1), 1), (GaussianRational(0), 0), (GaussianRational(-7), -7),
    (GaussianRational(Fraction(1, 2)), Fraction(1, 2)),
    (GaussianRational(Fraction(-3, 97)), Fraction(-3, 97))])
def test_real_gaussian_hashes_like_the_equal_rational(value, plain):
    assert value == plain
    assert hash(value) == hash(plain)
    assert len({value, plain}) == 1


def test_gaussian_is_zero_only_when_both_parts_are():
    assert GaussianRational().is_zero() and GaussianRational(Fraction(0), 0).is_zero()
    assert not GaussianRational(0, Fraction(-1, 3)).is_zero()
    assert not GaussianRational(2).is_zero()


def test_clifford_number_equals_a_scalar_operand():
    # an int, a Fraction or a GaussianRational compares as the scalar it is
    assert CliffordNumber.scalar(2, 3) == 3
    assert CliffordNumber.scalar(2, Fraction(1, 2)) == Fraction(1, 2)
    assert CliffordNumber.scalar(2, GaussianRational(1, -1)) == GaussianRational(1, -1)
    assert CliffordNumber.zero(3) == 0
    assert CliffordNumber.basis(2, 1) != 1
    assert CliffordNumber(2, {(): 1, (1,): 1}) != 1
    assert CliffordNumber.scalar(2, 3) != GaussianRational(3, 1)


def test_gaussian_hash_separates_conjugates():
    z = GaussianRational(1, 2)
    assert hash(z) == hash(GaussianRational(Fraction(2, 2), Fraction(4, 2)))
    assert len({z, z.conjugate(), z}) == 2


# -- blade products ----------------------------------------------------------

def test_generator_squares_to_minus_one():
    assert blade_product((1,), (1,), 2) == (-1, ())


def test_disjoint_ascending_no_sign():
    assert blade_product((1,), (2,), 2) == (1, (1, 2))


def test_chain_reduction():
    # e1 e2 * e2 = -e1
    assert blade_product((1, 2), (2,), 2) == (-1, (1,))


def test_blade_index_out_of_range():
    with pytest.raises(ValueError):
        blade_product((3,), (1,), 2)
    with pytest.raises(ValueError):
        blade_product((0,), (1,), 2)


def test_bool_generator_index_rejected():
    # True == 1 as an int, but a boolean is not a generator index
    with pytest.raises(ValueError):
        CliffordNumber(2, {(True,): 1})
    with pytest.raises(ValueError):
        blade_product((False, 1), (1,), 2)


def test_indices_from_mask_is_the_bit_scan():
    # the byte lookup covers the masks of C_16; wider masks are scanned
    for mask in range(1 << 16):
        indices = indices_from_mask(mask)
        assert indices == bit_scan_indices(mask)
        assert mask_from_indices(indices, 16) == mask
    for mask in (1 << 16, (1 << 16) | 0x8001, (1 << 17) - 1, (1 << 40) | 6, (1 << 100) - 1):
        assert indices_from_mask(mask) == bit_scan_indices(mask)
    assert type(indices_from_mask(0xFFFF)) is tuple and indices_from_mask(0xFFFF) == tuple(range(1, 17))


# a negative int or a bool would read as a blade, and a float is no mask either
@pytest.mark.parametrize("mask", [-1, -5, -(1 << 16), -(1 << 40) | 6, True, False, 1.0])
def test_indices_from_mask_refuses_a_non_mask(mask):
    with pytest.raises(ValueError, match=f"^blade mask {mask!r} must be a nonnegative int$"):
        indices_from_mask(mask)


@pytest.mark.parametrize("coeffs, error, message", [
    ({(2, 1): 1}, ValueError, "blade indices must be strictly increasing, got (2, 1)"),
    ({(1, 1): 1}, ValueError, "blade indices must be strictly increasing, got (1, 1)"),
    ({(3,): 1}, ValueError, "generator index 3 must be an int in [1, 2]"),
    ({(0,): 1}, ValueError, "generator index 0 must be an int in [1, 2]"),
    ({(True,): 1}, ValueError, "generator index True must be an int in [1, 2]"),
    ({(1, 2.0): 1}, ValueError, "generator index 2.0 must be an int in [1, 2]"),
    # per blade the indices in order, then the coefficient, then the duplicate
    ({(2, 1, 3): "x"}, ValueError, "blade indices must be strictly increasing, got (2, 1, 3)"),
    ({(3, 1): "x"}, ValueError, "generator index 3 must be an int in [1, 2]"),
    ({(1,): 1, frozenset({1}): "x"}, TypeError, "bad coefficient 'x'"),
    ({(1,): 1, frozenset({1}): 2}, ValueError, "duplicate blade frozenset({1})"),
    ({(1,): "x", (3,): 1}, TypeError, "bad coefficient 'x'"),
    ({(1,): 0.5}, TypeError, "bad coefficient 0.5"),
    # a repeated blade is refused whatever its values: with the zero first
    # the pair used to read as 2e1
    ({(1,): 0, frozenset({1}): 2}, ValueError, "duplicate blade frozenset({1})"),
    ({(1,): 2, frozenset({1}): 0}, ValueError, "duplicate blade frozenset({1})"),
    ({(1,): 0, frozenset({1}): 0}, ValueError, "duplicate blade frozenset({1})"),
    # zeros are dropped only inside `_over_lcm`, after every entry is read:
    # a repeat of a partly zero value, or of a zero after other zeros, is refused
    ({(1,): GaussianRational(0, 3), frozenset({1}): GaussianRational(Fraction(1, 2))}, ValueError,
     "duplicate blade frozenset({1})"),
    ({(1,): GaussianRational(Fraction(-1, 3), 0), frozenset({1}): GaussianRational(0, 0)}, ValueError,
     "duplicate blade frozenset({1})"),
    ({(): 0, (2,): GaussianRational(), (1, 2): 5, frozenset({2}): 0}, ValueError,
     "duplicate blade frozenset({2})"),
])
def test_constructor_errors_keep_class_message_and_order(coeffs, error, message):
    with pytest.raises(error) as info:
        CliffordNumber(2, coeffs)
    assert str(info.value) == message
    # the dimension is checked first, once
    with pytest.raises(BoundsError, match="dimension must be in"):
        CliffordNumber(17, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blade_product_matches_naive_reduction(n):
    all_blades = [indices_from_mask(m) for m in range(2 ** n)]
    for a, b in itertools.product(all_blades, repeat=2):
        assert blade_product(a, b, n) == naive_blade_product(a, b)


def test_blade_product_matches_naive_reduction_n16_random():
    rng = random.Random(16)
    for _ in range(2000):
        a, b = (indices_from_mask(rng.randrange(2 ** 16)) for _ in range(2))
        assert blade_product(a, b, 16) == naive_blade_product(a, b)


# -- ring operations ---------------------------------------------------------

def test_linear_combinations():
    n = 2
    e1 = CliffordNumber.basis(n, 1)
    assert (e1 - e1).is_zero()
    one = CliffordNumber.one(n)
    assert one + e1 * I == CliffordNumber(n, {(): 1, (1,): I})
    e2 = CliffordNumber.basis(n, 2)
    assert (e1 * 2 + e2) - e2 == e1 * 2


def test_products():
    n = 2
    e1, e2 = CliffordNumber.basis(n, 1), CliffordNumber.basis(n, 2)
    e12 = e1 * e2
    assert e12 * e12 == CliffordNumber.scalar(n, -1)
    lam = CliffordNumber(n, {(): GaussianRational(1, 2), (1, 2): 3})
    assert CliffordNumber.one(n) * lam == lam
    one = CliffordNumber.one(n)
    assert (one + e1) * (one - e1) == CliffordNumber.scalar(n, 2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        CliffordNumber.basis(2, 1) * CliffordNumber.basis(3, 1)
    with pytest.raises(DimensionMismatchError):
        CliffordNumber.basis(2, 1) + CliffordNumber.basis(3, 1)


def test_grade_projection():
    n = 2
    lam = CliffordNumber(n, {(): 1, (1,): 2, (1, 2): 3})
    assert lam.grade(0) == CliffordNumber.scalar(n, 1)
    assert lam.grade(2) == CliffordNumber.blade(n, (1, 2), 3)
    assert CliffordNumber.zero(n).grade(1).is_zero()
    assert lam.grade(0) + lam.grade(1) + lam.grade(2) == lam
    for k in (-1, True, 1.0):
        with pytest.raises(ValueError, match="grade must be nonnegative"):
            lam.grade(k)


def test_hermitian_conj_on_blades():
    n = 2
    e1, e2 = CliffordNumber.basis(n, 1), CliffordNumber.basis(n, 2)
    assert e1.hermitian_conj() == -e1
    assert (CliffordNumber.one(n) * I).hermitian_conj() == CliffordNumber.one(n) * (-I)
    # conj(e2) conj(e1) = e2 e1 = -e1 e2
    assert (e1 * e2).hermitian_conj() == -(e1 * e2)


def test_inner_product_values():
    n = 2
    e1, e2 = CliffordNumber.basis(n, 1), CliffordNumber.basis(n, 2)
    e12 = e1 * e2
    assert e12.inner(e12) == GaussianRational(1)
    assert e1.inner(e2) == GaussianRational(0)
    assert CliffordNumber.one(n).inner(CliffordNumber.one(n)) == GaussianRational(1)


# -- algebra laws ------------------------------------------------------------

@given(clifford_st(3), clifford_st(3), clifford_st(3))
@settings(max_examples=50)
def test_associativity_random(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(clifford_st(3), clifford_st(3))
def test_conj_is_antiautomorphism(a, b):
    assert (a * b).hermitian_conj() == b.hermitian_conj() * a.hermitian_conj()


@given(clifford_st(3))
def test_conj_is_involution(a):
    assert a.hermitian_conj().hermitian_conj() == a


@given(clifford_st(3))
def test_norm_is_coefficient_sum_of_squares(a):
    expected = Fraction(0)
    for _, coeff in a.terms():
        expected += coeff.abs_sq()
    assert a.inner(a) == GaussianRational(expected)
    assert a.norm_sq() == expected
    assert expected >= 0


@given(clifford_st(3), clifford_st(3))
def test_inner_conjugate_symmetry(a, b):
    assert a.inner(b) == b.inner(a).conjugate()


def test_canonical_zero_pruning():
    n = 2
    lam = CliffordNumber(n, {(1,): 1}) - CliffordNumber(n, {(1,): 1})
    assert lam == CliffordNumber.zero(n)
    assert list(lam.terms()) == []
    # the constructor drops zero values as it scales the parts: all zero is
    # the canonical zero over 1, and a zero among nonzero values is not stored
    for coeffs in ({(): 0}, {(): GaussianRational(), (1,): Fraction(0), (1, 2): GaussianRational(0, 0)}):
        zero = CliffordNumber(n, coeffs)
        assert (zero._den, zero._blades) == (1, {}) and zero == CliffordNumber.zero(n)
    mixed = CliffordNumber(n, {(): 0, (1,): Fraction(1, 6), (2,): GaussianRational(0, Fraction(-1, 4)),
                               (1, 2): GaussianRational()})
    assert (mixed._den, mixed._blades) == (12, {1: (2, 0), 2: (0, -3)})
    assert mixed == CliffordNumber(n, {(1,): Fraction(1, 6), (2,): GaussianRational(0, Fraction(-1, 4))})


def test_dimension_bound():
    with pytest.raises(ValueError):
        CliffordNumber.zero(17)
    with pytest.raises(ValueError):
        CliffordNumber.zero(0)
    # True and 2.0 compare like 1 and 2, yet are no dimension; and each
    # constructor checks n before its mapping
    from monogenic import FockElement, HermiteExpansion, p_basis
    for build, n in ((lambda n: p_basis(n, (1,)), True), (HermiteExpansion, True),
                     (lambda n: CliffordNumber(n, {(1,): 1}), 2.0), (CliffordNumber.zero, True),
                     *((lambda n, cls=cls: cls(n, []), 17) for cls in (
                         CliffordNumber, CliffordPolynomial, HermiteExpansion, FockElement))):
        with pytest.raises(BoundsError, match=fr"dimension must be in \[1, 16\], got {n}$"):
            build(n)


# -- dense products against a per-pair oracle --------------------------------

def _dense(rng, n, blades, complex_parts=True):
    """Seeded multivector whose part denominators are primes up to 97, so
    a common denominator of all its coefficients is a large lcm."""
    def part():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.choice(PRIMES_TO_97))
    coeffs = {}
    for mask in rng.sample(range(2 ** n), blades):
        coeffs[indices_from_mask(mask)] = GaussianRational(
            part(), part() if complex_parts and rng.random() < 0.8 else 0)
    return CliffordNumber(n, coeffs)


def _oracle_product(x, y):
    """{blade: (re, im)} of x*y as plain Fraction sums over every blade
    pair, signs from the naive generator-word reduction."""
    acc = {}
    for a, va in x.terms():
        for b, vb in y.terms():
            sign, c = naive_blade_product(a, b)
            re, im = acc.get(c, (Fraction(0), Fraction(0)))
            acc[c] = (re + sign * (va.re * vb.re - va.im * vb.im),
                      im + sign * (va.re * vb.im + va.im * vb.re))
    return {c: v for c, v in acc.items() if v != (0, 0)}


@pytest.mark.parametrize("n,blades", [(8, 64), (12, 40), (12, 64), (16, 32)])
def test_dense_products_match_per_pair_oracle(n, blades):
    rng = random.Random(1000 + n)
    x, y = _dense(rng, n, blades), _dense(rng, n, blades)
    real = _dense(rng, n, blades, complex_parts=False)
    single, other = _dense(rng, n, 1), _dense(rng, n, 1)
    for lhs, rhs in [(x, y), (y, x), (x, real), (real, y), (real, real),
                     (single, x), (x, single), (single, other)]:
        got = {c: (v.re, v.im) for c, v in (lhs * rhs).terms()}
        assert got == _oracle_product(lhs, rhs)


def test_dense_product_cancellation_is_pruned(monkeypatch):
    # (a + b)(a - b) = a^2 - b^2 + ba - ab; both sides must come out with
    # no zero coefficients stored, and a*b - a*b must be the canonical zero.
    # e_123 squares to +1, so a(1 + e_123) times (1 - e_123)b cancels in
    # every blade.  These products pack at n = 8 and take the pair loop,
    # not the packed path, at n = 12
    calls = _calls(monkeypatch, "_packed_product")

    def packs(product):
        calls.clear()
        out = product()
        return out, bool(calls)

    rng = random.Random(3)
    for n, packed in [(8, True), (12, False)]:
        a, b = _dense(rng, n, 40), _dense(rng, n, 40)
        lhs, taken = packs(lambda: (a + b) * (a - b))
        assert taken is packed
        assert lhs == a * a - b * b + b * a - a * b
        assert all(v for _, v in lhs.terms())
        assert (a * b - a * b).is_zero()
        plus, minus = CliffordNumber(n, {(): 1, (1, 2, 3): 1}), CliffordNumber(n, {(): 1, (1, 2, 3): -1})
        u, v = a * plus, minus * b
        uv, taken = packs(lambda: u * v)
        assert taken is packed
        assert uv._den == 1 and uv._blades == {}


# -- packed products: the path of many blade pairs per output blade -----------

def _calls(monkeypatch, path):
    """(|left|, |right|, *rest) of every call of `clifford.<path>` from now
    on: rest is the mask width of a `_packed_product`."""
    calls = []
    kernel = getattr(clifford, path)

    def spy(acc, left, right, *rest):
        calls.append((len(left), len(right), *rest))
        kernel(acc, left, right, *rest)

    monkeypatch.setattr(clifford, path, spy)
    return calls


def _prime_part(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.choice(PRIMES_TO_97))


def _spanning(rng, n, blades, re=_prime_part, im=_prime_part):
    """Seeded C_n element of `blades` blades, e_n among them so that its
    widest mask has n bits, each coefficient re(rng) + im(rng) i."""
    top = 1 << (n - 1)
    masks = [top, *rng.sample([m for m in range(2 ** n) if m != top], blades - 1)]
    return CliffordNumber(n, {indices_from_mask(m): GaussianRational(re(rng), im(rng))
                              for m in masks})


def _oracle_sum(*pairs):
    """`_oracle_product` summed over (x, y) pairs, zero blades dropped."""
    acc = {}
    for x, y in pairs:
        for c, (re, im) in _oracle_product(x, y).items():
            old = acc.get(c, (0, 0))
            acc[c] = (old[0] + re, old[1] + im)
    return {c: v for c, v in acc.items() if v != (0, 0)}


def _as_oracle(x):
    return {c: (v.re, v.im) for c, v in x.terms()}


# pairs against both thresholds: at least 64, and at least 4 per reachable
# output blade, 2^n of them for operands whose widest mask has n bits
@pytest.mark.parametrize("n, left, right, packed", [
    (3, 1, 1, False), (4, 3, 3, False),     # 1 and 9 pairs
    (3, 8, 7, False), (3, 8, 8, True),      # 56 and 64 pairs, 8 blades reachable
    (4, 9, 7, False), (4, 8, 8, True),      # 63 and 64 pairs, 16 reachable
    (5, 9, 14, False), (5, 8, 16, True),    # 126 and 128 pairs, 32 reachable
    (6, 15, 17, False), (6, 16, 16, True),  # 255 and 256 pairs, 64 reachable
    (8, 31, 33, False), (8, 32, 32, True)])  # 1023 and 1024 pairs, 256 reachable
def test_packing_starts_at_the_selection_rule(monkeypatch, n, left, right, packed):
    packed_calls = _calls(monkeypatch, "_packed_product")
    rng = random.Random(50 + n)
    x, y = _spanning(rng, n, left), _spanning(rng, n, right)
    for lhs, rhs in [(x, y), (y, x)]:
        got = lhs * rhs
        _assert_reduced(got)
        assert _as_oracle(got) == _oracle_product(lhs, rhs)
    assert packed_calls == ([(left, right, n), (right, left, n)] if packed else [])


def test_dense_c4_products_are_packed(monkeypatch):
    calls = _calls(monkeypatch, "_packed_product")
    rng = random.Random(54)
    x, y = _spanning(rng, 4, 16), _spanning(rng, 4, 16)
    for lhs, rhs in [(x, y), (y, x), (x, x), (x.hermitian_conj(), x)]:
        assert _as_oracle(lhs * rhs) == _oracle_product(lhs, rhs)
    assert calls == [(16, 16, 4)] * 4


def test_packed_products_of_numerators_past_64_bits(monkeypatch):
    # mixed signs in both parts, numerators up to 2^90, over prime denominators
    def big(rng):
        return Fraction(rng.choice([-1, 1]) * rng.randrange(2 ** 64, 2 ** 90), rng.choice(PRIMES_TO_97))

    calls = _calls(monkeypatch, "_packed_product")
    rng = random.Random(55)
    for n, blades in [(3, 8), (4, 16), (6, 40)]:
        x, y = _spanning(rng, n, blades, big, big), _spanning(rng, n, blades, big, big)
        small = _spanning(rng, n, blades)
        assert max(abs(part) for pair in x._blades.values() for part in pair) >= 2 ** 64
        for lhs, rhs in [(x, y), (y, x), (x, small), (small, y)]:
            assert _as_oracle(lhs * rhs) == _oracle_product(lhs, rhs)
    assert len(calls) == 12


def test_packed_sums_reach_the_bound(monkeypatch):
    # every part is +-t, and b_A carries the sign of e_A e_A, so each of the
    # eight pairs into the scalar blade adds the same 2t^2 or 2t^2 i: its
    # part reaches the packing bound 2 t^2 min(|L|, |R|) itself
    calls = _calls(monkeypatch, "_packed_product")
    t = 2 ** 70 + 1
    blades = [indices_from_mask(m) for m in range(8)]
    for wa, wb, scalar in [((1, -1), (1, 1), (2, 0)), ((1, 1), (1, 1), (0, 2)),
                           ((-1, 1), (1, 1), (-2, 0)), ((1, 1), (-1, -1), (0, -2))]:
        x = CliffordNumber(3, {b: GaussianRational(wa[0] * t, wa[1] * t) for b in blades})
        y = CliffordNumber(3, {b: blade_product(b, b, 3)[0] * GaussianRational(wb[0] * t, wb[1] * t)
                               for b in blades})
        got = x * y
        assert got.scalar_part() == GaussianRational(8 * scalar[0] * t * t, 8 * scalar[1] * t * t)
        assert _as_oracle(got) == _oracle_product(x, y)
    assert calls == [(8, 8, 3)] * 4


def test_packed_products_of_real_and_imaginary_operands(monkeypatch):
    def zero(rng):
        return 0

    calls = _calls(monkeypatch, "_packed_product")
    rng = random.Random(56)
    real = _spanning(rng, 4, 16, im=zero)
    imag = _spanning(rng, 4, 16, re=zero)
    mixed = _spanning(rng, 4, 16)
    for lhs in (real, imag, mixed):
        for rhs in (real, imag, mixed):
            got = lhs * rhs
            assert _as_oracle(got) == _oracle_product(lhs, rhs)
            # i^2 = -1 and real parts stay real: no part appears from nothing
            if lhs is not mixed and rhs is not mixed:
                parts = [v.im if (lhs is imag) is (rhs is imag) else v.re for _, v in got.terms()]
                assert not any(parts)
    assert len(calls) == 9


def test_packed_cancellation_comes_out_reduced(monkeypatch):
    # e_123 is central in C_3 and squares to +1, so (1 + e_123)(1 - e_123)
    # = 0: every output blade of u*v cancels, eight pairs into each
    calls = _calls(monkeypatch, "_packed_product")
    rng = random.Random(57)
    plus = CliffordNumber(3, {(): 1, (1, 2, 3): 1})
    minus = CliffordNumber(3, {(): 1, (1, 2, 3): -1})
    u, v = _spanning(rng, 3, 8) * plus, minus * _spanning(rng, 3, 8)
    assert len(u._blades) == len(v._blades) == 8
    uv, vu = u * v, v * u
    assert uv._den == 1 and uv._blades == {}
    assert vu.is_zero()
    # u(v + 1/7) = u/7: every blade survives, over a reduced denominator
    w = v + CliffordNumber.scalar(3, Fraction(1, 7))
    uw = u * w
    _assert_reduced(uw)
    assert uw == u * Fraction(1, 7)
    assert _as_oracle(uw) == _oracle_product(u, w)
    assert calls == [(8, 8, 3)] * 3


def _wide_square(rng):
    """(f, f*f's oracle per key) for f = x1 a + x2 b, a and b dense in C_8."""
    a, b = _spanning(rng, 8, 64), _spanning(rng, 8, 64)
    zero = (0,) * 8
    x1, x2 = (1, *zero[1:]), (0, 1, *zero[2:])
    f = CliffordPolynomial(8, {(0, x1): a, (0, x2): b})
    expected = {(2, *zero[1:]): _oracle_product(a, a), (0, 2, *zero[2:]): _oracle_product(b, b),
                (1, 1, *zero[2:]): _oracle_sum((a, b), (b, a))}
    return f, expected


def test_packed_polynomial_products_accumulate_per_key(monkeypatch):
    # the x1 x2 coefficient of (x1 a + x2 b)^2 is a b + b a: the second
    # term pair is added to a key whose accumulator already holds the first
    calls = _calls(monkeypatch, "_packed_product")
    f, expected = _wide_square(random.Random(58))
    square = f * f
    assert {beta: _as_oracle(coeff) for _, beta, coeff in square.terms()} == expected
    for _, _, coeff in square.terms():
        _assert_reduced(coeff)
    assert calls == [(64, 64, 8)] * 4


def test_packed_products_agree_across_threads():
    # the packed path keeps no state between calls: four threads computing
    # the same wide products get the single-threaded results
    rng = random.Random(59)
    x, y = _spanning(rng, 8, 64), _spanning(rng, 8, 64)
    f, _ = _wide_square(rng)

    def products():
        return [x * y, y * x, x * x.hermitian_conj(), f * f, (f * x) * f]

    expected = products()
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [pool.submit(products) for _ in range(8)]
        assert all(run.result(timeout=120) == expected for run in runs)


@pytest.mark.parametrize("n,blades", [(8, 64), (16, 32)])
def test_inner_matches_conj_product_scalar_part(n, blades):
    rng = random.Random(2000 + n)
    x, y = _dense(rng, n, blades), _dense(rng, n, blades)
    for lhs, rhs in [(x, y), (y, x), (x, x), (x, x * y)]:
        assert lhs.inner(rhs) == (lhs.hermitian_conj() * rhs).scalar_part()


@given(clifford_st(3), clifford_st(3))
def test_inner_matches_conj_product_random(a, b):
    assert a.inner(b) == (a.hermitian_conj() * b).scalar_part()


def test_dimension_bound_is_a_bounds_error():
    with pytest.raises(BoundsError):
        CliffordNumber.zero(17)
    with pytest.raises(BoundsError):
        blade_product((1,), (1,), 17)


# -- the stored form: reduced integer numerators ------------------------------

def _assert_reduced(x):
    """den > 0, integer parts, no zero pair, gcd(den, every numerator) = 1."""
    assert isinstance(x, CliffordNumber)
    assert type(x._den) is int and x._den > 0
    for mask, pair in x._blades.items():
        assert type(mask) is int and 0 <= mask < 2 ** x.n
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(part) is int for part in pair)
        assert pair != (0, 0)
    assert math.gcd(x._den, *itertools.chain.from_iterable(x._blades.values())) == 1


def _seeded_values(seed):
    """Seeded Clifford numbers at n = 1..8 over primes to 97, with the
    results of every ring operation on them, cancellations included."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 9):
        a = _dense(rng, n, min(2 ** n, 12))
        b = _dense(rng, n, min(2 ** n, 6), complex_parts=False)
        c = CliffordNumber.blade(n, (n,), Fraction(-7, 97))
        s = Fraction(rng.randint(-99, 99), rng.choice(PRIMES_TO_97))
        z = GaussianRational(0, Fraction(1, rng.choice(PRIMES_TO_97)))
        out += [a, b, c, a + b, a - b, b - a, a - a, (a + b) - b, -a, -(a - a),
                a * b, b * a, a * c, a * b - a * b, a * s, s * a, a * z, z * a, a * 0,
                a * GaussianRational(0), a.hermitian_conj(), (a * b).hermitian_conj(),
                *(a.grade(k) for k in range(n + 2)), *((a * b).grade(k) for k in range(n + 1))]
    return out


def test_every_operation_returns_the_reduced_form():
    for x in _seeded_values(10):
        _assert_reduced(x)


def test_zero_is_stored_canonically():
    for zero in (CliffordNumber.zero(3), CliffordNumber(3, {(1,): 0}),
                 CliffordNumber(3, {(): Fraction(1, 97)}) * 0,
                 CliffordNumber(3, {(2,): Fraction(5, 7)}).grade(0)):
        assert zero._den == 1 and zero._blades == {}


def test_pairings_and_polynomial_terms_are_reduced():
    from monogenic import gauss, transform, verify
    from monogenic.gauss import Measure
    rng = random.Random(11)
    ps = [transform.p_basis(2, beta) for beta in verify.multi_indices(2, 3)]
    fs = [verify.rand_poly(rng, 3, 4, max_terms=4) for _ in range(8)]
    for f in ps + fs:
        for k0, beta, coeff in f.terms():
            _assert_reduced(coeff)
            _assert_reduced(f.coefficient(k0, beta))
            assert f.coefficient(k0, beta) == coeff
    for group in (ps, fs):
        for f in group:
            for g in group:
                for measure in Measure:
                    if measure is Measure.RHO and not (f.is_x0_free() and g.is_x0_free()):
                        continue
                    _assert_reduced(gauss.clifford_pairing(f, g, measure))


def test_equality_agrees_with_the_terms():
    values = _seeded_values(12)
    seen = [(x.n, list(x.terms())) for x in values]
    for x, x_seen in zip(values, seen):
        for y, y_seen in zip(values, seen):
            assert (x == y) is (x_seen == y_seen)


def test_hermitian_conj_against_the_reversed_generator_word():
    # conj(e_A) is the reversed word of -e_i; its sign comes from the naive
    # reduction, and every coefficient is complex-conjugated
    for x in _seeded_values(13):
        conj = x.hermitian_conj()
        for indices, value in x.terms():
            sign, blade = naive_blade_product(tuple(reversed(indices)), ())
            assert blade == indices
            expected = value.conjugate() * (sign * (-1) ** len(indices))
            assert conj.coefficient(indices) == expected
        assert len(list(conj.terms())) == len(list(x.terms()))


@pytest.mark.parametrize("num", [0, 1, -1, 97, -97, 194, -291, 12345, -99991, 2 ** 70 + 1])
@pytest.mark.parametrize("den", [1, 2, 97, 89 * 97, 3 * 97, 2 ** 20, math.prod(PRIMES_TO_97)])
def test_part_text_matches_fraction_str(num, den):
    assert _part_text(num, den) == str(Fraction(num, den))
    assert _part_text(num * den, den) == str(num)
