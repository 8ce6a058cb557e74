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
    HermiteExpansion,
    NotMonogenicError,
    ck_extend,
    fock_norm_sq,
    fock_to_function,
    fock_to_monogenic,
    p_basis,
    taylor_map,
)
from monogenic.serialize import fock_from_json, fock_to_json
from monogenic.verify import (_fock_round_trips, _taylor_isometry, multi_indices, rand_clifford,
                              rand_fock_element, rand_poly)


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
        assert _fock_round_trips((rand_fock_element(rng, 2, 4), rand_poly(rng, 2, 4))) is None


def test_taylor_isometry_holds_at_n1():
    rng = random.Random(5)
    for _ in range(25):
        assert _taylor_isometry(HermiteExpansion._of(rand_poly(rng, 1, 4))) is None


# -- the weights beta!, against the definitions ---------------------------------------

def _derivative_at_origin(F, beta):
    """d^beta F(0, 0), by `partial` and `evaluate`."""
    for i, b in enumerate(beta, start=1):
        for _ in range(b):
            F = F.partial(i)
    return F.evaluate(0, [0] * F.n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factorial_weights_match_the_definitions(n):
    # a Fock element stores alpha(e^beta) / beta!; its public entries, its
    # norm, its codec and its constructor read alpha(e^beta) itself
    rng = random.Random(50 + n)
    tall = (3,) + (0,) * (n - 1)
    # entries that beta! does not divide: 1 at beta! = 6, 1/5 e1 at 2 and 1
    odd = FockElement(n, {tall: CliffordNumber.one(n), (0,) * n: CliffordNumber.basis(n, 1),
                          (2,) + (0,) * (n - 1): CliffordNumber.blade(n, (1,), Fraction(1, 5))})
    assert odd._poly.coefficient(0, tall) == sc(n, Fraction(1, 6))
    values = [odd]
    for _ in range(6):
        F = ck_extend(rand_poly(rng, n, 4))
        alpha = taylor_map(F)
        for beta in multi_indices(n, 4):
            assert alpha.entry(beta) == _derivative_at_origin(F, beta), beta
        drawn = {beta: rand_clifford(rng, n) for beta in rng.sample(list(multi_indices(n, 4)), 3)}
        values += [alpha, rand_fock_element(rng, n, 4), FockElement(n, drawn)]
        assert dict(values[-1].entries()) == {b: v for b, v in drawn.items() if v}
    for alpha in values:
        entries = dict(alpha.entries())
        assert entries == {beta: alpha.entry(beta) for beta in entries}
        assert fock_norm_sq(alpha) == sum((v.norm_sq() / beta.factorial for beta, v in entries.items()),
                                          Fraction(0))
        assert fock_to_function(alpha) == CliffordPolynomial(n, {
            (0, beta): v * Fraction(1, beta.factorial) for beta, v in entries.items()})
        assert fock_from_json(fock_to_json(alpha)) == alpha
        assert FockElement(n, entries) == alpha
