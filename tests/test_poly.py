"""Polynomial ring and calculus: partials, Dirac, Laplacian, monogenicity."""

import re
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DegreeCapError,
    DimensionMismatchError,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    MultiIndex,
    get_degree_cap,
    set_degree_cap,
)

from oracles import expand_eval


def var(n, i):
    return CliffordPolynomial.variable(n, i)


def rationals_st():
    return st.fractions(min_value=-4, max_value=4, max_denominator=4)


def clifford_st(n):
    blades = st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s)))
    coeff = st.builds(GaussianRational, rationals_st(), rationals_st())
    return st.builds(lambda d: CliffordNumber(n, d), st.dictionaries(blades, coeff, max_size=3))


def poly_st(n, max_degree=4, x0=True):
    def beta_st():
        return st.lists(st.integers(0, max_degree), min_size=n, max_size=n).filter(
            lambda b: sum(b) <= max_degree)

    def key_st():
        if x0:
            return st.tuples(st.integers(0, 2), beta_st()).filter(
                lambda t: t[0] + sum(t[1]) <= max_degree).map(lambda t: (t[0], tuple(t[1])))
        return beta_st().map(lambda b: (0, tuple(b)))

    return st.builds(
        lambda d: CliffordPolynomial(n, d),
        st.dictionaries(key_st(), clifford_st(n), max_size=4))


# -- multi-index ------------------------------------------------------------

def test_multi_index_accessors():
    beta = MultiIndex((2, 1, 3))
    assert beta.degree == 6
    assert beta.factorial == 2 * 1 * 6
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_multi_index_rejects_bool():
    # True == 1 as an int; the JSON parser rejects it, so the type does too
    with pytest.raises(ValueError):
        MultiIndex([True, 0])


def test_x0_exponent_rejects_bool():
    # True == 1, but its canonical JSON would read "x0": true, which the parser rejects
    with pytest.raises(ValueError):
        CliffordPolynomial(1, {(True, (0,)): CliffordNumber.one(1)})
    with pytest.raises(ValueError):
        CliffordPolynomial.monomial(1, True, (2,))


def test_coefficient_rejects_keys_the_constructor_rejects():
    # a malformed key names no term, so reading it as zero would hide the
    # mistake; True == 1 would even read the x0^1 coefficient
    f = CliffordPolynomial(2, {(0, (1, 0)): CliffordNumber.one(2),
                               (1, (0, 0)): CliffordNumber.one(2)})
    bad = [(0, (1,), r"multi-index \(1,\) has length 1, expected 2"),
           (0, (1, 0, 0), r"multi-index \(1, 0, 0\) has length 3, expected 2"),
           (-1, (1, 0), "x0 exponent must be a nonnegative int, got -1"),
           (True, (0, 0), "x0 exponent must be a nonnegative int, got True"),
           (1.0, (0, 0), "x0 exponent must be a nonnegative int, got 1.0"),
           (0, (True, 0), "multi-index entries must be nonnegative ints"),
           (0, (1.0, 0), "multi-index entries must be nonnegative ints")]
    for k0, beta, message in bad:
        with pytest.raises(ValueError, match=message):
            f.coefficient(k0, beta)
        with pytest.raises(ValueError, match=message):
            CliffordPolynomial(2, {(k0, beta): CliffordNumber.one(2)})
    assert f.coefficient(1, (0, 0)) == CliffordNumber.one(2)
    assert f.coefficient(0, [1, 0]) == CliffordNumber.one(2)
    assert f.coefficient(2, (3, 0)).is_zero()


def test_non_clifford_coefficient_is_a_type_error():
    # the error CliffordNumber raises for the same mistake, for both
    # polynomials and the containers built on them
    for build in (lambda: CliffordPolynomial(2, {(0, (1, 0)): 3}),
                  lambda: HermiteExpansion(2, {(1, 0): 3}),
                  lambda: FockElement(2, {(1, 0): GaussianRational(1)})):
        with pytest.raises(TypeError, match="bad coefficient"):
            build()
    with pytest.raises(TypeError, match="bad coefficient"):
        CliffordNumber(2, {(1,): "3"})


@pytest.mark.parametrize("part", [0.1, 1.0, "1/2", Decimal("0.5"), None, 1j])
def test_gaussian_parts_are_ints_or_fractions(part):
    # a float part was read exactly: GaussianRational(0.1) was
    # 3602879701896397/36028797018963968, and a str or a Decimal was parsed
    for build in (lambda: GaussianRational(part), lambda: GaussianRational(1, part),
                  lambda: GaussianRational(part, 1)):
        with pytest.raises(TypeError, match=f"expected an int or a Fraction, got {re.escape(repr(part))}"):
            build()


def test_gaussian_parts_keep_their_reading():
    # a Fraction part is adopted as it is, a bool is read as 0 or 1 as the
    # arithmetic reads it, and a Fraction subclass is stored as a Fraction
    half = Fraction(1, 2)
    z = GaussianRational(half, -half)
    assert z.re is half and z.im == Fraction(-1, 2)
    assert GaussianRational(True, False) == GaussianRational(1) == GaussianRational(1) * True

    class Half(Fraction):
        pass

    w = GaussianRational(Half(1, 2))
    assert type(w.re) is Fraction and w == half
    assert GaussianRational().re is GaussianRational().im


# -- evaluation --------------------------------------------------------------

def test_eval_examples():
    n = 2
    e1 = CliffordNumber.basis(n, 1)
    f = var(n, 1) - var(n, 0) * e1
    assert f.evaluate(1, (2, 0)) == CliffordNumber.scalar(n, 2) - e1

    lam = CliffordNumber(n, {(1, 2): GaussianRational(Fraction(1, 3))})
    const = CliffordPolynomial.constant(lam)
    assert const.evaluate(Fraction(7, 2), (Fraction(-1), Fraction(5))) == lam

    # x1^2 - 2 x0 x1 e1 - x0^2 at (1, (1, 0))
    g = var(n, 1) * var(n, 1) - var(n, 0) * var(n, 1) * (e1 * 2) \
        - var(n, 0) * var(n, 0)
    assert g.evaluate(1, (1, 0)) == e1 * (-2)


def test_eval_arity_mismatch():
    f = var(2, 1)
    with pytest.raises(ValueError):
        f.evaluate(0, (1,))


@pytest.mark.parametrize("x0, xs", [(0.1, (1, 2)), (1, (Fraction(1, 2), 0.5)), ("1/2", (1, 2)),
                                    (1, (Decimal(1), 2))])
def test_eval_takes_rational_coordinates_only(x0, xs):
    # 0.1 was evaluated as the exact binary fraction 3602879701896397/2^55
    with pytest.raises(TypeError, match="expected an int or a Fraction"):
        var(2, 1).evaluate(x0, xs)
    assert var(2, 1).evaluate(True, (Fraction(1, 2), 0)) == CliffordNumber.scalar(2, Fraction(1, 2))


@given(poly_st(2), rationals_st(), rationals_st(), rationals_st())
@settings(max_examples=60)
def test_eval_matches_expansion_oracle(f, x0, x1, x2):
    assert f.evaluate(x0, (x1, x2)) == expand_eval(f, x0, [x1, x2])


# -- partial derivatives ------------------------------------------------------

def test_partial_examples():
    n = 2
    x0, x1 = var(n, 0), var(n, 1)
    assert (x1 * x1).partial(1) == x1 * 2
    assert x1.partial(0).is_zero()
    e1 = CliffordNumber.basis(n, 1)
    g = x1 * x1 - x0 * x1 * (e1 * 2) - x0 * x0
    assert g.partial(1) == x1 * 2 - x0 * (e1 * 2)
    with pytest.raises(ValueError):
        x1.partial(3)
    # an axis is an int: True is no x1, and 1.0 indexed beta
    for axis in (3, -1, True, 1.0):
        with pytest.raises(ValueError, match=fr"axis {axis} out of range \[0, 2\]"):
            x1.partial(axis)
        with pytest.raises(ValueError, match=fr"axis {axis} out of range \[0, 2\]"):
            CliffordPolynomial.variable(n, axis)


@given(poly_st(3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40)
def test_partials_commute(f, i, j):
    assert f.partial(i).partial(j) == f.partial(j).partial(i)


@given(poly_st(2), st.integers(0, 2))
@settings(max_examples=40)
def test_partial_drops_degree(f, i):
    assert f.partial(i).total_degree() <= max(f.total_degree() - 1, -1)


# -- dirac and laplacian -------------------------------------------------------

def test_dirac_examples():
    n = 2
    x1, x2 = var(n, 1), var(n, 2)
    e1, e2 = CliffordNumber.basis(n, 1), CliffordNumber.basis(n, 2)
    assert x1.dirac() == CliffordPolynomial.constant(e1)
    assert (x1 * e2).dirac() == CliffordPolynomial.constant(e1 * e2)
    assert (x1 * x1 + x2 * x2).dirac() == x1 * (e1 * 2) + x2 * (e2 * 2)


def test_laplacian_examples():
    n = 2
    x1, x2 = var(n, 1), var(n, 2)
    assert (x1 * x1).laplacian() == CliffordPolynomial.monomial(n, 0, (0, 0), 2)
    assert (x1 * x2).laplacian().is_zero()
    x1_4 = x1 * x1 * x1 * x1
    assert x1_4.laplacian() == x1 * x1 * 12
    # x0 is excluded from the Laplacian
    assert (var(n, 0) * var(n, 0)).laplacian().is_zero()


@given(poly_st(3, max_degree=5))
@settings(max_examples=60)
def test_dirac_squared_is_minus_laplacian(f):
    assert f.dirac().dirac() == -f.laplacian()


@given(poly_st(2), clifford_st(2))
@settings(max_examples=40)
def test_dirac_is_right_linear(f, lam):
    assert (f * lam).dirac() == f.dirac() * lam


@given(poly_st(2, x0=False))
@settings(max_examples=40)
def test_dirac_preserves_x0_freeness(f):
    assert f.dirac().is_x0_free()


# -- monogenicity --------------------------------------------------------------

def test_cauchy_riemann_examples():
    n = 2
    lam = CliffordNumber(n, {(1,): 2, (1, 2): GaussianRational(0, 1)})
    assert CliffordPolynomial.constant(lam).is_monogenic()
    e1 = CliffordNumber.basis(n, 1)
    f = var(n, 1) - var(n, 0) * e1
    assert f.cauchy_riemann().is_zero()
    assert f.is_monogenic()
    g = var(n, 1)
    assert g.cauchy_riemann() == CliffordPolynomial.constant(e1)
    assert not g.is_monogenic()


# -- structure -----------------------------------------------------------------

def test_terms_sorted_canonically():
    n = 2
    f = var(n, 2) + var(n, 0) + var(n, 1) * var(n, 1) + CliffordPolynomial.monomial(n, 0, (0, 0), 5)
    keys = [(k0, tuple(beta)) for k0, beta, _ in f.terms()]
    assert keys == [(0, (0, 0)), (0, (0, 1)), (1, (0, 0)), (0, (2, 0))]


def test_restrict():
    n = 2
    e1 = CliffordNumber.basis(n, 1)
    f = var(n, 1) - var(n, 0) * e1
    assert f.restrict() == var(n, 1)
    assert (var(n, 0) * var(n, 0)).restrict().is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        var(2, 1) + var(3, 1)
    with pytest.raises(DimensionMismatchError):
        var(2, 1) * CliffordNumber.basis(3, 1)


def test_degree_cap_enforced():
    assert get_degree_cap() == 12
    n = 1
    with pytest.raises(DegreeCapError):
        CliffordPolynomial.monomial(n, 0, (13,))
    set_degree_cap(20)
    try:
        f = CliffordPolynomial.monomial(n, 0, (13,))
        assert f.total_degree() == 13
        set_degree_cap(10)
        with pytest.raises(DegreeCapError):
            f * var(n, 1)  # product would have degree 14
    finally:
        set_degree_cap(12)


@pytest.mark.parametrize("cap", [True, False, 2.5, 3.0, Fraction(3), "3", -1])
def test_degree_cap_rejects_non_int(cap):
    # a bool or a non-integer cap would be stored and then printed as "cap 2.5"
    with pytest.raises(ValueError):
        set_degree_cap(cap)
    assert get_degree_cap() == 12


def test_degree_cap_is_per_thread():
    seen = []

    def set_and_read():
        set_degree_cap(3)
        seen.append(get_degree_cap())

    def read():
        seen.append(get_degree_cap())

    thread = threading.Thread(target=set_and_read)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert get_degree_cap() == 12
    set_degree_cap(20)
    try:
        thread = threading.Thread(target=read)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        set_degree_cap(12)
    assert seen == [3, 12]


def test_zero_degree_convention():
    assert CliffordPolynomial.zero(2).total_degree() == -1
