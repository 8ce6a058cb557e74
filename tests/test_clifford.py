"""Clifford algebra core: blade products, ring axioms, conjugation, inner product."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import CliffordNumber, DimensionMismatchError, GaussianRational, blade_product
from monogenic.clifford import BoundsError, I, indices_from_mask

from oracles import PRIMES_TO_97, naive_blade_product


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

@pytest.mark.parametrize("n", [1, 2, 3])
def test_anticommutation_relations(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e_i, e_j = CliffordNumber.basis(n, i), CliffordNumber.basis(n, j)
            anti = e_i * e_j + e_j * e_i
            if i == j:
                assert anti == CliffordNumber.scalar(n, -2)
            else:
                assert anti.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blade_associativity_exhaustive(n):
    blades = [CliffordNumber.blade(n, indices_from_mask(m)) for m in range(2 ** n)]
    for a, b, c in itertools.product(blades, repeat=3):
        assert (a * b) * c == a * (b * c)


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


def test_dimension_bound():
    with pytest.raises(ValueError):
        CliffordNumber.zero(17)
    with pytest.raises(ValueError):
        CliffordNumber.zero(0)


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


@pytest.mark.parametrize("n,blades", [(8, 64), (12, 40), (16, 32)])
def test_dense_products_match_per_pair_oracle(n, blades):
    rng = random.Random(1000 + n)
    x, y = _dense(rng, n, blades), _dense(rng, n, blades)
    real = _dense(rng, n, blades, complex_parts=False)
    single = _dense(rng, n, 1)
    for lhs, rhs in [(x, y), (y, x), (x, real), (real, y), (real, real),
                     (single, x), (x, single)]:
        got = {c: (v.re, v.im) for c, v in (lhs * rhs).terms()}
        assert got == _oracle_product(lhs, rhs)


def test_dense_product_cancellation_is_pruned():
    # (a + b)(a - b) = a^2 - b^2 + ba - ab; both sides must come out with
    # no zero coefficients stored, and a*b - a*b must be the canonical zero
    rng = random.Random(3)
    a, b = _dense(rng, 8, 40), _dense(rng, 8, 40)
    lhs = (a + b) * (a - b)
    assert lhs == a * a - b * b + b * a - a * b
    assert all(v for _, v in lhs.terms())
    assert (a * b - a * b).is_zero()


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
