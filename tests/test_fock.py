"""Fock-space elements, the Taylor map and its inverse."""

import random
from fractions import Fraction

import pytest

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DegreeCapError,
    DimensionMismatchError,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    NotMonogenicError,
    ck_extend,
    fock_norm_sq,
    fock_to_function,
    fock_to_monogenic,
    inner_mu,
    p_basis,
    restrict,
    taylor_map,
)
from monogenic.verify import multi_indices, rand_fock_element, rand_poly


def var(n, i):
    return CliffordPolynomial.variable(n, i)


def sc(n, v):
    return CliffordNumber.scalar(n, v)


# -- the element type ------------------------------------------------------------

def test_construction_and_grades():
    n = 2
    alpha = FockElement(n, {(0, 0): sc(n, 1), (1, 0): sc(n, 2), (1, 1): CliffordNumber.blade(n, (1, 2))})
    assert alpha.grades() == [0, 1, 2]
    assert alpha.grade(1).entry((1, 0)) == CliffordNumber.scalar(n, 2)
    assert alpha.grade(1).entry((0, 1)).is_zero()
    assert alpha.entry((5, 5)).is_zero()
    for k in (-1, True, 1.0):
        with pytest.raises(ValueError, match="grade must be nonnegative"):
            alpha.grade(k)


@pytest.mark.parametrize("cls", [FockElement, HermiteExpansion])
def test_zero_map_is_falsy(cls):
    # both share the multi-index container, so both get its zero test
    n = 2
    for zero in (cls(n), cls(n, {(1, 0): CliffordNumber.zero(n)})):
        assert not zero
        assert zero.is_zero()
    one = cls(n, {(1, 0): sc(n, 1)})
    assert one
    assert not one.is_zero()


def test_entry_rejects_malformed_multi_indices():
    # entry reads the stored polynomial's coefficient, with its key checks
    alpha = taylor_map(p_basis(2, (1, 0)))
    assert alpha.entry((1, 0)) == CliffordNumber.one(2)
    with pytest.raises(ValueError, match=r"multi-index \(1,\) has length 1, expected 2"):
        alpha.entry((1,))
    with pytest.raises(ValueError, match="multi-index entries must be nonnegative ints"):
        alpha.entry((-1, 0))
    with pytest.raises(ValueError, match="multi-index entries must be nonnegative ints"):
        alpha.entry((True, 0))


def test_validation():
    with pytest.raises(ValueError):
        FockElement(2, {(1,): CliffordNumber.one(2)})
    with pytest.raises(DimensionMismatchError):
        FockElement(2, {(1, 0): CliffordNumber.one(3)})
    with pytest.raises(DimensionMismatchError):
        FockElement(2) + FockElement(3)
    # the degree cap is checked when a container is built
    with pytest.raises(DegreeCapError):
        FockElement(2, {(13, 0): CliffordNumber.one(2)})


def test_addition_prunes_zeros():
    n = 2
    a = FockElement(n, {(1, 0): sc(n, 1)})
    b = FockElement(n, {(1, 0): sc(n, -1), (0, 1): sc(n, 2)})
    assert a + b == FockElement(n, {(0, 1): sc(n, 2)})


# -- the norm ---------------------------------------------------------------------

def test_norm_examples():
    n = 2
    alpha = FockElement(n, {(2, 0): sc(n, 2)})
    assert fock_norm_sq(alpha) == 2  # 4 / 2!
    assert fock_norm_sq(FockElement(n)) == 0
    beta = FockElement(n, {(1, 0): CliffordNumber.blade(n, (1, 2))})
    assert fock_norm_sq(beta) == 1


def test_norm_is_pythagorean_across_grades():
    rng = random.Random(3)
    for _ in range(25):
        alpha = rand_fock_element(rng, 2, 4)
        total = sum((fock_norm_sq(alpha.grade(k)) for k in alpha.grades()), Fraction(0))
        assert fock_norm_sq(alpha) == total


# -- taylor map --------------------------------------------------------------------

def test_taylor_examples():
    n = 2
    assert taylor_map(p_basis(n, (2, 0))) == FockElement(n, {(2, 0): sc(n, 2)})
    lam = CliffordNumber(n, {(1,): 3})
    assert taylor_map(CliffordPolynomial.constant(lam)) == FockElement(n, {(0, 0): lam})
    F = var(n, 1) - var(n, 0) * CliffordNumber.basis(n, 1)
    assert taylor_map(F) == FockElement(n, {(1, 0): sc(n, 1)})


def test_taylor_rejects_non_monogenic():
    with pytest.raises(NotMonogenicError):
        taylor_map(var(2, 1))


def test_fock_maps_take_only_their_own_containers():
    # a HermiteExpansion shares the stored form of a FockElement but not its
    # meaning: read as one it gave 1/2 for a squared norm of 2! = 2
    n = 1
    expansion = HermiteExpansion(n, {(2,): sc(n, 1)})
    poly = var(n, 1)
    for call in (fock_norm_sq, fock_to_function, fock_to_monogenic):
        for wrong in (expansion, poly, 3):
            with pytest.raises(TypeError, match="expected a FockElement"):
                call(wrong)
    for wrong in (HermiteExpansion(2), FockElement(2), sc(2, 1), 3):
        with pytest.raises(TypeError, match="the Taylor map takes a CliffordPolynomial"):
            taylor_map(wrong)
        # restrict raised AttributeError from inside the library
        with pytest.raises(TypeError, match="restrict takes a CliffordPolynomial"):
            restrict(wrong)
    # the containers themselves still map as before
    alpha = FockElement(n, {(2,): sc(n, 1)})
    assert fock_norm_sq(alpha) == Fraction(1, 2)
    assert fock_to_function(alpha) == var(n, 1) * var(n, 1) * sc(n, Fraction(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_taylor_basis_diagonal(n):
    for beta in multi_indices(n, 4):
        alpha = taylor_map(p_basis(n, beta))
        assert alpha == FockElement(n, {beta: sc(n, beta.factorial)})


# -- inverse direction -----------------------------------------------------------

def test_fock_to_function_examples():
    n = 2
    assert fock_to_function(FockElement(n, {(2, 0): sc(n, 2)})) == var(n, 1) * var(n, 1)
    lam = CliffordNumber.blade(n, (1, 2), 5)
    assert fock_to_function(FockElement(n, {(0, 0): lam})) == CliffordPolynomial.constant(lam)
    assert fock_to_function(FockElement(n, {(1, 1): sc(n, 1)})) == var(n, 1) * var(n, 2)


def test_fock_to_monogenic_examples():
    n = 2
    assert fock_to_monogenic(FockElement(n, {(2, 0): sc(n, 2)})) == p_basis(n, (2, 0))
    assert fock_to_monogenic(FockElement(n)).is_zero()
    e2 = CliffordNumber.basis(n, 2)
    expected = (var(n, 1) - var(n, 0) * CliffordNumber.basis(n, 1)) * e2
    assert fock_to_monogenic(FockElement(n, {(1, 0): e2})) == expected


def test_bijection_round_trips():
    rng = random.Random(4)
    for _ in range(25):
        alpha = rand_fock_element(rng, 2, 4)
        assert taylor_map(fock_to_monogenic(alpha)) == alpha
        F = ck_extend(rand_poly(rng, 2, 4))
        assert fock_to_monogenic(taylor_map(F)) == F


def test_taylor_isometry_holds_at_n1():
    rng = random.Random(5)
    for _ in range(25):
        F = ck_extend(rand_poly(rng, 1, 4))
        assert fock_norm_sq(taylor_map(F)) == inner_mu(F, F).re


def test_taylor_isometry_known_failure_above_n1():
    # Smallest witness of the n >= 2 breakdown: the Fock norm of the
    # Taylor coefficients disagrees with the Gaussian norm on R^{n+1}.
    n = 2
    e12 = CliffordNumber.blade(n, (1, 2))
    F = p_basis(n, (1, 0)) + p_basis(n, (0, 1)) * e12
    assert F.is_monogenic()
    assert fock_norm_sq(taylor_map(F)) == 2
    assert inner_mu(F, F) == GaussianRational(3)
