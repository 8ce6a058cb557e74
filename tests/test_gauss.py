"""Exact Gaussian moments and inner products for both measures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DimensionMismatchError,
    GaussianRational,
    Measure,
    clifford_pairing,
    hermite,
    inner_mu,
    inner_rho,
    moment,
    p_basis,
)

from oracles import moment_recurrence


def var(n, i):
    return CliffordPolynomial.variable(n, i)


def rationals_st():
    return st.fractions(min_value=-4, max_value=4, max_denominator=4)


def clifford_st(n):
    blades = st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s)))
    coeff = st.builds(GaussianRational, rationals_st(), rationals_st())
    return st.builds(lambda d: CliffordNumber(n, d), st.dictionaries(blades, coeff, max_size=3))


def x0_free_poly_st(n, max_degree=4):
    beta = st.lists(st.integers(0, max_degree), min_size=n, max_size=n).filter(
        lambda b: sum(b) <= max_degree).map(lambda b: (0, tuple(b)))
    return st.builds(
        lambda d: CliffordPolynomial(n, d),
        st.dictionaries(beta, clifford_st(n), max_size=4))


# -- moments -------------------------------------------------------------------

def test_moment_examples():
    assert moment(Measure.RHO, 0, (2,)) == 1
    assert moment(Measure.RHO, 0, (1,)) == 0
    assert moment(Measure.MU_TILDE, 4, ()) == Fraction(3, 4)


def test_moment_normalization():
    assert moment(Measure.RHO, 0, (0, 0)) == 1
    assert moment(Measure.MU_TILDE, 0, (0, 0)) == 1


def test_rho_rejects_x0():
    with pytest.raises(ValueError):
        moment(Measure.RHO, 2, (0,))


@given(st.integers(0, 10))
def test_moment_matches_recurrence_oracle(k):
    assert moment(Measure.RHO, 0, (k,)) == moment_recurrence(k, Fraction(1))
    assert moment(Measure.MU_TILDE, k, ()) == moment_recurrence(k, Fraction(1, 2))


@given(st.integers(0, 6), st.lists(st.integers(0, 6), min_size=1, max_size=3))
def test_moment_factorizes(k0, beta):
    expected = moment_recurrence(k0, Fraction(1, 2))
    for b in beta:
        expected *= moment_recurrence(b, Fraction(1, 2))
    assert moment(Measure.MU_TILDE, k0, tuple(beta)) == expected


# -- pairings -----------------------------------------------------------------

def test_pairing_examples():
    n = 2
    e1 = CliffordPolynomial.constant(CliffordNumber.basis(n, 1))
    e2 = CliffordPolynomial.constant(CliffordNumber.basis(n, 2))
    e12 = CliffordNumber.blade(n, (1, 2))
    assert clifford_pairing(e1, e2, Measure.RHO) == -e12
    one = CliffordPolynomial.monomial(n, 0, (0, 0))
    assert clifford_pairing(one, one, Measure.MU_TILDE) == CliffordNumber.one(n)


def test_pairing_of_offdiagonal_p_basis():
    # conj(P_(1,0)) P_(0,1) = (x1 + x0 e1)(x2 - x0 e2); the surviving
    # x0^2-bivector term integrates to -(1/2) e1 e2 under the R^3 measure.
    n = 2
    value = clifford_pairing(p_basis(n, (1, 0)), p_basis(n, (0, 1)), Measure.MU_TILDE)
    assert value == CliffordNumber.blade(n, (1, 2), Fraction(-1, 2))
    # ... and its grade-0 part vanishes, so the scalar products still agree.
    assert inner_mu(p_basis(n, (1, 0)), p_basis(n, (0, 1))) == GaussianRational(0)


def test_inner_examples():
    n1 = 1
    h2 = hermite(n1, (2,))
    assert inner_rho(h2, h2) == GaussianRational(2)
    n = 2
    p20 = p_basis(n, (2, 0))
    assert inner_mu(p20, p20) == GaussianRational(2)
    one = CliffordPolynomial.monomial(n, 0, (0, 0))
    assert inner_rho(one, one) == GaussianRational(1)


def test_diagonal_p_norms_single_coordinate():
    # beta supported on one coordinate: the norm really is beta!.
    from monogenic import MultiIndex
    for n in (1, 2, 3):
        for k in range(5):
            beta = (k,) + (0,) * (n - 1)
            p = p_basis(n, beta)
            assert inner_mu(p, p) == GaussianRational(MultiIndex(beta).factorial)


def test_mixed_diagonal_p_norm_true_value():
    # beta = (1,1): pointwise |P|^2 integrates to 3/4, not beta! = 1.
    n = 2
    p11 = p_basis(n, (1, 1))
    assert inner_mu(p11, p11) == GaussianRational(Fraction(3, 4))


def test_rho_rejects_x0_terms():
    n = 2
    with pytest.raises(ValueError):
        inner_rho(var(n, 0), var(n, 1))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_rho(var(2, 1), var(3, 1))


# -- invariants ----------------------------------------------------------------

@given(x0_free_poly_st(2))
@settings(max_examples=60)
def test_positive_definiteness(f):
    value = inner_rho(f, f)
    assert value.im == 0
    assert value.re >= 0
    assert (value.re == 0) == f.is_zero()


@given(x0_free_poly_st(2), x0_free_poly_st(2), x0_free_poly_st(2))
@settings(max_examples=40)
def test_additivity(f, g, h):
    assert inner_rho(f + g, h) == inner_rho(f, h) + inner_rho(g, h)


@given(x0_free_poly_st(2), x0_free_poly_st(2), rationals_st(), rationals_st())
@settings(max_examples=40)
def test_sesquilinearity_in_scalars(f, g, a, b):
    lam = GaussianRational(a, b)
    assert inner_rho(f, g * lam) == inner_rho(f, g) * lam
    assert inner_rho(f * lam, g) == lam.conjugate() * inner_rho(f, g)


@given(x0_free_poly_st(2), x0_free_poly_st(2))
@settings(max_examples=40)
def test_conjugate_symmetry(f, g):
    assert inner_rho(f, g) == inner_rho(g, f).conjugate()

