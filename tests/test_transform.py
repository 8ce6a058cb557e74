"""Heat operator, Hermite basis, C-K extension and the transform pipeline."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    GaussianRational,
    HermiteExpansion,
    NotMonogenicError,
    ck_extend,
    heat,
    hermite,
    inner_mu,
    inner_rho,
    p_basis,
    restrict,
    sb_inverse,
    sb_transform,
)
from monogenic.verify import multi_indices, rand_hermite_expansion, rand_poly

from oracles import fueter_basis, hermite_recurrence


def var(n, i):
    return CliffordPolynomial.variable(n, i)


def one(n):
    return CliffordPolynomial.monomial(n, 0, (0,) * n)


def x0_free_st(n, max_degree=5):
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    blades = st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s)))
    coeff = st.builds(
        lambda d: CliffordNumber(n, d),
        st.dictionaries(blades, st.builds(GaussianRational, rationals, rationals), max_size=3))
    beta = st.lists(st.integers(0, max_degree), min_size=n, max_size=n).filter(
        lambda b: sum(b) <= max_degree).map(lambda b: (0, tuple(b)))
    return st.builds(lambda d: CliffordPolynomial(n, d), st.dictionaries(beta, coeff, max_size=4))


# -- heat operator -------------------------------------------------------------

def test_heat_examples():
    n = 1
    x1 = var(n, 1)
    h2 = x1 * x1 - one(n)
    assert heat(h2) == x1 * x1
    assert heat(x1 * x1, inverse=True) == h2
    n = 2
    harmonic = var(n, 1) * var(n, 2)
    assert heat(harmonic) == harmonic


def test_heat_rejects_x0():
    with pytest.raises(ValueError):
        heat(var(2, 0))


@given(x0_free_st(2))
@settings(max_examples=50)
def test_heat_is_invertible(f):
    assert heat(heat(f), inverse=True) == f
    assert heat(heat(f, inverse=True)) == f


# -- hermite polynomials ---------------------------------------------------------

def test_hermite_examples():
    assert hermite(2, (0, 0)) == one(2)
    x = var(1, 1)
    assert hermite(1, (2,)) == x * x - one(1)
    assert hermite(2, (1, 1)) == var(2, 1) * var(2, 2)


def test_hermite_length_check():
    with pytest.raises(ValueError):
        hermite(2, (1,))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermite_matches_recurrence_oracle(n):
    for beta in multi_indices(n, 6):
        assert hermite(n, beta) == hermite_recurrence(n, beta)


@pytest.mark.parametrize("n", [1, 2])
def test_hermite_norms(n):
    for beta in multi_indices(n, 4):
        h = hermite(n, beta)
        assert inner_rho(h, h) == GaussianRational(beta.factorial)
        assert heat(h) == CliffordPolynomial.monomial(n, 0, beta)


# -- cauchy-kowalevski extension --------------------------------------------------

def test_ck_examples():
    n = 2
    lam = CliffordNumber(n, {(1, 2): 3})
    assert ck_extend(CliffordPolynomial.constant(lam)) == CliffordPolynomial.constant(lam)
    e1 = CliffordNumber.basis(n, 1)
    x0, x1 = var(n, 0), var(n, 1)
    assert ck_extend(x1) == x1 - x0 * e1
    assert ck_extend(x1 * x1) == x1 * x1 - x0 * x1 * (e1 * 2) - x0 * x0


def test_ck_rejects_x0_input():
    with pytest.raises(ValueError):
        ck_extend(var(2, 0))


@given(x0_free_st(3))
@settings(max_examples=50)
def test_ck_is_monogenic_and_restricts_back(f):
    F = ck_extend(f)
    assert F.is_monogenic()
    assert restrict(F) == f


def test_p_basis_examples():
    n = 2
    assert p_basis(n, (0, 0)) == one(n)
    e1 = CliffordNumber.basis(n, 1)
    x0, x1 = var(n, 0), var(n, 1)
    assert p_basis(n, (1, 0)) == x1 - x0 * e1
    assert p_basis(n, (2, 0)) == x1 * x1 - x0 * x1 * (e1 * 2) - x0 * x0
    assert restrict(p_basis(n, (2, 0))) == x1 * x1


# -- hermite expansions -----------------------------------------------------------

def test_expansion_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        f = rand_hermite_expansion(rng, 2, 4)
        assert HermiteExpansion.from_polynomial(f.to_polynomial()) == f


def test_expansion_norm_matches_integral():
    rng = random.Random(8)
    for _ in range(20):
        f = rand_hermite_expansion(rng, 2, 4)
        g = f.to_polynomial()
        assert f.norm_sq() == inner_rho(g, g).re


def test_expansion_validation():
    with pytest.raises(ValueError):
        HermiteExpansion(2, {(1,): CliffordNumber.one(2)})
    from monogenic import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        HermiteExpansion(2, {(1, 0): CliffordNumber.one(3)})


# -- the transform -----------------------------------------------------------------

def test_sb_transform_examples():
    n1 = 1
    assert sb_transform(hermite(n1, (1,))) == var(n1, 1) - var(n1, 0) * CliffordNumber.basis(n1, 1)
    assert sb_transform(one(2)) == one(2)
    n = 2
    e12 = CliffordNumber.blade(n, (1, 2))
    f = HermiteExpansion(n, {(2, 0): e12})
    assert sb_transform(f) == p_basis(n, (2, 0)) * e12


@pytest.mark.parametrize("n, max_degree", [(2, 6), (3, 5), (4, 4)])
def test_p_basis_matches_fueter_recursion(n, max_degree):
    basis = fueter_basis(n, max_degree)
    assert len(basis) == len(list(multi_indices(n, max_degree)))
    for beta, expected in basis.items():
        assert p_basis(n, beta) == expected


def test_sb_transform_sends_hermite_to_p_basis():
    for n in (1, 2):
        for beta in multi_indices(n, 4):
            assert sb_transform(hermite(n, beta)) == p_basis(n, beta)
            assert sb_inverse(p_basis(n, beta)) == hermite(n, beta)


def test_sb_inverse_examples():
    n = 2
    assert sb_inverse(one(n)) == one(n)
    F = var(n, 1) - var(n, 0) * CliffordNumber.basis(n, 1)
    assert sb_inverse(F) == var(n, 1)


def test_sb_inverse_rejects_non_monogenic():
    with pytest.raises(NotMonogenicError):
        sb_inverse(var(2, 1))


def test_sb_round_trip_random():
    rng = random.Random(11)
    for _ in range(30):
        f = rand_poly(rng, 2, 5)
        assert sb_inverse(sb_transform(f)) == f


def test_sb_isometry_holds_at_n1():
    # In one dimension the algebra is commutative and the transform is a
    # genuine isometry between the two Gaussian inner products.
    rng = random.Random(12)
    for _ in range(40):
        f = rand_hermite_expansion(rng, 1, 4)
        h = rand_hermite_expansion(rng, 1, 4)
        lhs = inner_mu(sb_transform(f), sb_transform(h))
        assert lhs == inner_rho(f.to_polynomial(), h.to_polynomial())


def test_sb_isometry_known_failure_above_n1():
    # With two or more generators the exponential factors in the transform
    # kernel no longer commute and the isometry breaks; this pins the
    # smallest witness so the behavior is tracked, not hidden.
    n = 2
    e12 = CliffordNumber.blade(n, (1, 2))
    f = HermiteExpansion(n, {(1, 0): CliffordNumber.one(n)})
    h = HermiteExpansion(n, {(0, 1): e12})
    assert inner_rho(f.to_polynomial(), h.to_polynomial()) == GaussianRational(0)
    lhs = inner_mu(sb_transform(f), sb_transform(h))
    assert lhs == GaussianRational(Fraction(1, 2))
