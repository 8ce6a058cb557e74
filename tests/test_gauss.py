"""Exact Gaussian moments and inner products for both measures."""

import copy
import json
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DimensionMismatchError,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    Measure,
    MultiIndex,
    ck_extend,
    clifford_pairing,
    gram,
    hermite,
    inner_mu,
    inner_rho,
    moment,
    p_basis,
    set_degree_cap,
)

from monogenic.clifford import _ZEROS, indices_from_mask
from monogenic.gauss import _form
from monogenic.serialize import clifford_to_json, poly_from_json, poly_to_json
from monogenic.transform import _image
from monogenic.verify import multi_indices

from oracles import (
    PRIMES_TO_97,
    fischer_pairing,
    gram_table,
    moment_recurrence,
    naive_clifford_pairing,
)


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


def test_moment_rejects_bool_exponents():
    # True would count as the odd exponent 1 and give 0
    with pytest.raises(ValueError, match="nonnegative ints"):
        moment(Measure.RHO, 0, (True, 2))


def test_moment_rejects_non_int_exponents():
    with pytest.raises(ValueError, match="nonnegative ints"):
        moment(Measure.MU_TILDE, 1.5, (2,))
    with pytest.raises(ValueError, match="nonnegative ints"):
        moment(Measure.RHO, 0, (2.0,))


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


# -- the operand contract of every pairing ------------------------------------

# values that are not polynomials over C_2: without a dimension at all, of
# the same n but another class, or of another n.  The argument-contract
# table of `test_transform` passes each of them to every public argument
BAD_VALUES = {
    "int": lambda: 3,
    "none": lambda: None,
    "bool": lambda: True,
    "float": lambda: 1.0,
    "str": lambda: "mu",
    "iterator": lambda: iter((1, 2)),
    "hermite_expansion": lambda: HermiteExpansion(2, {(1, 0): CliffordNumber.one(2)}),
    "fock_element": lambda: FockElement(2, {(1, 0): CliffordNumber.one(2)}),
    "number_same_n": lambda: CliffordNumber.one(2),
    "number_other_n": lambda: CliffordNumber.one(3),
    "poly_other_n": lambda: hermite(3, (1, 0, 0)),
}
NOT_POLYNOMIALS = (TypeError, "pairings take CliffordPolynomial operands")
# a value of another n fails the dimension check before its class is read,
# with the message of the left operand's class
OTHER_N = {("number_other_n", "left"): (DimensionMismatchError, "C_3 vs C_2"),
           ("number_other_n", "right"): (DimensionMismatchError, "polynomials over C_2 vs C_3"),
           ("poly_other_n", "left"): (DimensionMismatchError, "polynomials over C_3 vs C_2"),
           ("poly_other_n", "right"): (DimensionMismatchError, "polynomials over C_2 vs C_3")}


def _f():
    return hermite(2, (1, 0))


# each pairing as a function of its two operands; the MU_TILDE rows of gram
# reach the bad value in the second row or the second column
PAIRINGS = {
    "inner_rho": inner_rho,
    "inner_mu": inner_mu,
    "clifford_pairing_rho": lambda a, b: clifford_pairing(a, b, Measure.RHO),
    "clifford_pairing_mu": lambda a, b: clifford_pairing(a, b, Measure.MU_TILDE),
    "gram_rho": lambda a, b: next(gram([a], [b], Measure.RHO)),
    "gram_mu": lambda a, b: list(gram([_f(), a], [_f(), b], Measure.MU_TILDE)),
}


def _raises(expected, call, *args):
    cls, message = expected
    with pytest.raises(cls) as info:
        call(*args)
    assert type(info.value) is cls and str(info.value) == message


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("slot", ["left", "right"])
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_pairings_reject_operands_that_are_not_polynomials(pairing, slot, bad):
    # these raised AttributeError from inside gauss ("'int' object has no attribute 'n'")
    f, wrong = _f(), BAD_VALUES[bad]()
    a, b = (wrong, f) if slot == "left" else (f, wrong)
    _raises(OTHER_N.get((bad, slot), NOT_POLYNOMIALS), PAIRINGS[pairing], a, b)


@pytest.mark.parametrize("bad", ["int", "none", "bool", "str", "number_other_n", "poly_other_n"])
@pytest.mark.parametrize("slot", ["left", "right"])
def test_gram_checks_each_row_before_the_measure(slot, bad):
    # gram checks its measure once, before any row, so a bad measure wins
    # over any operand, and over no columns at all (it gave [[], []]); with
    # a good measure a row still checks its dimensions before it pairs
    f, wrong = _f(), BAD_VALUES[bad]()
    fs, gs = ([wrong], [f]) if slot == "left" else ([f], [f, wrong])
    bad_measure = (TypeError, "measure must be a Measure, got 'rho'")
    _raises(bad_measure, lambda: next(gram(fs, gs, "rho")))
    _raises(bad_measure, lambda: list(gram([f, f], [], "rho")))
    _raises(OTHER_N.get((bad, slot), NOT_POLYNOMIALS), lambda: next(gram(fs, gs, Measure.RHO)))


@pytest.mark.parametrize("bad", [b for b in BAD_VALUES if b != "int"])
@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
def test_moment_exponents_contract(measure, bad):
    # an x0 exponent that is not an int is a ValueError; beta is read as
    # every multi-index is (the "sequence" rows of the argument table of
    # `test_transform`)
    wrong = BAD_VALUES[bad]()
    with pytest.raises(ValueError, match=r"^moment exponents must be nonnegative ints, got \("):
        moment(measure, wrong, (2, 0))
    # a MultiIndex is a tuple
    expected = moment(measure, 0, (2, 0))
    assert moment(measure, 0, MultiIndex((2, 0))) == moment(measure, 0, [2, 0]) == expected


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



# -- the integer kernel against the Fraction oracle ---------------------------

INNER = {Measure.RHO: inner_rho, Measure.MU_TILDE: inner_mu}


def rand_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(PRIMES_TO_97[:10]))


def rand_pairing_poly(rng, n, max_degree, max_terms, x0):
    """Up to max_terms terms, x0-powers up to 2 when x0 is set, coefficients
    with up to three blades and complex parts over small prime denominators."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k0 = rng.randint(0, 2) if x0 else 0
        beta = [0] * n
        for _ in range(rng.randint(0, max_degree - k0)):
            beta[rng.randrange(n)] += 1
        terms[k0, tuple(beta)] = rand_pairing_coeff(rng, n)
    return CliffordPolynomial(n, terms)


def rand_pairing_coeff(rng, n):
    """One to three blades with complex parts over small prime denominators."""
    return CliffordNumber(n, {indices_from_mask(rng.randrange(2 ** n)):
                              GaussianRational(rand_rational(rng), rand_rational(rng))
                              for _ in range(rng.randint(1, 3))})


def assert_matches_oracle(polys, measure):
    table = [[naive_clifford_pairing(f, g, measure) for g in polys] for f in polys]
    for f, row in zip(polys, table):
        for g, expected in zip(polys, row):
            assert clifford_pairing(f, g, measure) == expected
            assert INNER[measure](f, g) == expected.scalar_part()
    assert list(gram(polys, polys, measure)) == table
    return table


@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairings_match_naive_oracle(n, measure):
    rng = random.Random(10 * n + (measure is Measure.MU_TILDE))
    x0 = measure is Measure.MU_TILDE
    polys = [rand_pairing_poly(rng, n, 4, 5, x0) for _ in range(6)]
    polys.append(CliffordPolynomial.zero(n))
    table = assert_matches_oracle(polys, measure)
    # the draws exercise what they are meant to
    coeffs = [c for f in polys for _, _, c in f.terms()]
    assert any(len(list(c.terms())) > 1 for c in coeffs)
    assert any(v.im for c in coeffs for _, v in c.terms())
    assert any(not f.is_x0_free() for f in polys) == x0
    assert any(v for row in table for v in row)
    assert all(not v for v in table[-1]) and all(not row[-1] for row in table)


@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
def test_sparse_pairings_at_n8_match_naive_oracle(measure):
    rng = random.Random(8)
    polys = [rand_pairing_poly(rng, 8, 3, 3, measure is Measure.MU_TILDE) for _ in range(5)]
    assert_matches_oracle(polys, measure)


def _cold(f):
    """A copy of f that has never been paired: no cached form."""
    return poly_from_json(poly_to_json(f))


def _complex_plans(f, g, mu):
    """The keys that f and g share whose left plan of f, cached by a full
    pairing (none if their key sets are disjoint), holds two or more
    blades and a nonzero imaginary part."""
    left, right = f._fischer[mu][5] or {}, g._fischer[mu][1]
    return [key for key in left.keys() & right.keys()
            if len(left[key]) > 1 and any(im for _, _, _, im in left[key])]


@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plan_kernel_pairs_complex_multi_blade_left_roles(n, measure):
    # the Gram tables of the benchmark give the plan kernel one real blade
    # per key; here the left roles are complex, with up to three blades a
    # key, and every pair is paired cold (the plan built inside the call)
    # and again from the cached plan
    mu = measure is Measure.MU_TILDE
    rng = random.Random(200 + 10 * n + mu)
    polys = [rand_pairing_poly(rng, n, 3, 4, mu) for _ in range(5)]
    complex_pairs = 0
    for f in polys:
        for g in polys:
            expected = naive_clifford_pairing(f, g, measure)
            a = _cold(f)
            b = a if g is f else _cold(g)
            assert a._fischer == (None, None) and b._fischer == (None, None)
            assert clifford_pairing(a, b, measure) == expected
            assert clifford_pairing(a, b, measure) == expected
            complex_pairs += bool(_complex_plans(a, b, mu))
    assert complex_pairs
    # a Gram row is the full pairing of its row value with each column
    for f, row in zip(polys, gram(polys, polys, measure)):
        assert row == [clifford_pairing(f, g, measure) for g in polys]


@pytest.mark.parametrize("n", range(9, 17))
def test_pairings_at_n9_to_16_match_moment_oracle(n):
    # sign masks 9 to 16 bits wide; indices_from_mask reads the high byte
    rng = random.Random(900 + n)
    for measure in (Measure.RHO, Measure.MU_TILDE):
        polys = [rand_pairing_poly(rng, n, 2, 3, measure is Measure.MU_TILDE) for _ in range(3)]
        for f in polys:
            for g in polys:
                expected = naive_clifford_pairing(f, g, measure)
                for _ in range(2):  # cold, then from the cached forms
                    assert clifford_pairing(f, g, measure) == expected
                    assert INNER[measure](f, g) == expected.scalar_part()
        assert any(mask >> 8 for f in polys for blades in f._num.values() for mask in blades)


def test_zero_operands():
    n = 3
    zero = CliffordPolynomial.zero(n)
    p = p_basis(n, (1, 1, 0))
    for measure in Measure:
        assert clifford_pairing(zero, zero, measure) == CliffordNumber.zero(n)
    assert clifford_pairing(zero, p, Measure.MU_TILDE) == CliffordNumber.zero(n)
    assert clifford_pairing(p, zero, Measure.MU_TILDE) == CliffordNumber.zero(n)
    assert inner_mu(p, zero) == GaussianRational(0)
    assert inner_rho(zero, hermite(n, (2, 0, 0))) == GaussianRational(0)
    assert list(gram([zero], [p, zero], Measure.MU_TILDE)) == [[CliffordNumber.zero(n)] * 2]


def test_gram_rows_are_lazy():
    def rows_requested():
        yield p_basis(2, (1, 0))
        raise AssertionError("second row computed before it was asked for")

    rows = gram(rows_requested(), [p_basis(2, (0, 1)), p_basis(2, (1, 0))], Measure.MU_TILDE)
    assert next(rows) == [CliffordNumber.blade(2, (1, 2), Fraction(-1, 2)), CliffordNumber.one(2)]


def test_gram_reads_any_iterable_of_columns():
    # the columns are read once, so a generator or an iterator pairs like a list
    polys = [hermite(2, (1, 0)), hermite(2, (0, 1)), p_basis(2, (1, 1))]
    for measure, fs in ((Measure.RHO, polys[:2]), (Measure.MU_TILDE, polys)):
        expected = list(gram(fs, fs, measure))
        assert expected and all(len(row) == len(fs) for row in expected)
        assert list(gram(fs, iter(fs), measure)) == expected
        assert list(gram(fs, (g for g in fs), measure)) == expected
        assert list(gram(iter(fs), iter(fs), measure)) == expected


class _Impostor:
    """Equal to everything, with the hash of Measure.RHO: a dict keyed by
    the members, or an == test, would read it as a measure."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return hash(Measure.RHO)


@pytest.mark.parametrize("measure", ["rho", "mu", None, *(
    pytest.param(make, id=name) for name, make in BAD_VALUES.items() if name not in ("none", "str")),
    pytest.param(_Impostor, id="impostor"), pytest.param(lambda: Measure, id="measure_class")])
def test_measure_must_be_a_measure_member(measure):
    # a string or None names no measure: it is not read as RHO or MU_TILDE;
    # the members are tested by identity, so neither is an object equal to
    # one, nor the class
    wrong = measure() if callable(measure) else measure
    expected = (TypeError, f"measure must be a Measure, got {wrong!r}")
    f = hermite(2, (1, 0))
    _raises(expected, moment, wrong, 0, (2, 0))
    _raises(expected, clifford_pairing, f, f, wrong)
    _raises(expected, lambda: next(gram([f], [f], wrong)))
    # clifford_pairing reads the measure before either operand, and moment
    # before the exponents
    _raises(expected, clifford_pairing, f, wrong, wrong)
    _raises(expected, clifford_pairing, wrong, f, wrong)
    _raises(expected, moment, wrong, wrong, (2, 0))


@pytest.mark.parametrize("measure", Measure, ids=["rho", "mu"])
def test_copied_and_unpickled_members_are_the_measure(measure):
    # copy and pickle give back the member itself, so the identity test
    # accepts them
    f = hermite(2, (1, 0))
    for same in (copy.copy(measure), copy.deepcopy(measure), pickle.loads(pickle.dumps(measure))):
        assert clifford_pairing(f, f, same) == clifford_pairing(f, f, measure)
        assert list(gram([f], [f], same)) == list(gram([f], [f], measure))
        assert moment(same, 0, (2, 0)) == moment(measure, 0, (2, 0))


def test_gram_edges_and_errors():
    p = p_basis(2, (1, 0))
    assert list(gram([], [p], Measure.MU_TILDE)) == []
    assert list(gram([p], [], Measure.MU_TILDE)) == [[]]
    with pytest.raises(DimensionMismatchError):
        next(gram([p], [p_basis(3, (1, 0, 0))], Measure.MU_TILDE))
    with pytest.raises(ValueError):
        next(gram([var(2, 1)], [p], Measure.RHO))
    # every dimension of a row is checked before any operand is prepared,
    # so a wrong dimension wins over an x0 term that RHO would reject
    x0 = CliffordPolynomial.monomial(2, 1, (0, 0))
    with pytest.raises(DimensionMismatchError):
        next(gram([var(2, 1)], [x0, var(3, 1)], Measure.RHO))
    rows = gram([var(2, 1), var(3, 1)], [var(2, 1)], Measure.RHO)
    assert next(rows) == [CliffordNumber.one(2)]
    with pytest.raises(DimensionMismatchError):
        next(rows)


def test_gram_of_p_basis_matches_gram_table_oracle():
    # the moment oracle integrates the materialised product conj(P_a) P_b
    for n, max_degree in ((1, 4), (2, 3), (3, 3), (4, 2)):
        betas = list(multi_indices(n, max_degree))
        polys = [p_basis(n, beta) for beta in betas]
        table = gram_table(n, betas)
        assert list(gram(polys, polys, Measure.MU_TILDE)) == [[table[a, b] for b in betas] for a in betas]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monogenic_and_plain_operands_match_naive_oracle(n):
    # C-K extensions (heat step zero under MU_TILDE) mixed with values that
    # have x0 terms and are not monogenic
    rng = random.Random(40 + n)
    plain = [rand_pairing_poly(rng, n, 4, 4, True) for _ in range(3)]
    extended = [ck_extend(rand_pairing_poly(rng, n, 4, 4, False)) for _ in range(3)]
    assert not all(f.is_monogenic() for f in plain)
    assert all(F.is_monogenic() for F in extended)
    assert_matches_oracle(plain + extended, Measure.MU_TILDE)


def rand_parity_poly(rng, n, parity, x0):
    """Up to three terms whose exponents (k0, beta) have the parities of the
    entries of parity: each Laplacian lowers one exponent by 2, so every
    key of the heat image keeps them."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k0, *beta = (p + 2 * rng.randint(0, 1) for p in parity)
        terms[k0 if x0 else 0, tuple(beta)] = rand_pairing_coeff(rng, n)
    return CliffordPolynomial(n, terms)


@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
@pytest.mark.parametrize("n", [2, 3])
def test_disjoint_overlapping_and_equal_key_sets_match_naive_oracle(n, measure):
    mu = measure is Measure.MU_TILDE
    rng = random.Random(50 + 10 * n + mu)
    kinds, polys = [], []
    for _ in range(5):
        p, q = rng.sample([(0, *bits) for bits in product((0, 1), repeat=n)], 2)
        if mu:
            p, q = (rng.randint(0, 1), *p[1:]), (rng.randint(0, 1), *q[1:])
        f, h = rand_parity_poly(rng, n, p, mu), rand_parity_poly(rng, n, q, mu)
        polys += [f, h]
        for a, b in ((f, h), (h, f), (f, f + h), (f + h, h), (f, f * GaussianRational(2, -1))):
            keys_a, keys_b = ((x._fischer[mu] or _form(x, mu))[2] for x in (a, b))
            kinds.append("disjoint" if keys_a.isdisjoint(keys_b) else
                         "equal" if keys_a == keys_b else "overlapping")
            expected = naive_clifford_pairing(a, b, measure)
            full = clifford_pairing(a, b, measure)
            assert full == expected
            assert INNER[measure](a, b) == expected.scalar_part()
            if kinds[-1] == "disjoint":
                assert (full._den, full._blades) == (1, {}) and full == CliffordNumber.zero(n)
                assert INNER[measure](a, b) == GaussianRational(0)
    # every pair is of the kind it is built to be, and x0 terms appear under MU_TILDE
    assert kinds == ["disjoint", "disjoint", "overlapping", "overlapping", "equal"] * 5
    assert any(not f.is_x0_free() for f in polys) == mu


def _homogeneous(n, mu, d):
    """A value whose heat image has the one total degree d: P_beta under
    MU_TILDE, its own image, or H_beta under RHO, whose image is x^beta,
    with beta spreading d over the axes."""
    beta = [d // n + (i < d % n) for i in range(n)]
    return p_basis(n, beta) if mu else hermite(n, beta)


def _meeting(a, b):
    """How the heat images of two forms meet: in no total degree, in one
    degree at the end of both ranges, or with overlapping ranges and no
    key or some key in common."""
    if a[7] < b[6] or b[7] < a[6]:
        return "disjoint"
    if a[7] == b[6] or b[7] == a[6]:
        return "touching"
    return "no shared key" if a[2].isdisjoint(b[2]) else "shared key"


def _keyless(f, mu):
    """Replace the key set of f's cached form by None, so that a pairing
    that reads it raises."""
    forms = list(f._fischer)
    forms[mu] = forms[mu][:2] + (None,) + forms[mu][3:]
    f._fischer = tuple(forms)


# the two operands as sums of parts (k, d), each t^k times a value whose
# heat image has the one total degree d, times a coefficient of its own;
# t is x0 under MU_TILDE and x1 under RHO, which has no x0 axis.  Then how
# their heat images meet, the same at every n and under both measures
RANGE_ROWS = {
    "disjoint": (((0, 0), (0, 1)), ((0, 2), (0, 3)), "disjoint"),
    "touching": (((0, 1), (0, 2)), ((0, 2), (0, 3)), "touching"),
    "overlapping": (((0, 0), (0, 2)), ((0, 1),), "no shared key"),
    "inhomogeneous": (((0, 1), (0, 3)), ((0, 1), (0, 2)), "shared key"),
    "zero": ((), ((0, 1), (0, 2)), "disjoint"),
    "x0 terms": (((2, 0), (0, 3)), ((1, 1),), "shared key"),
}


@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("row", RANGE_ROWS)
def test_degree_ranges_pair_like_the_naive_oracle(row, n, measure):
    # operands whose heat images share no total degree pair to the shared
    # zero before their key sets are read; every other pair is paired
    # through the key sets, even when the ranges only touch
    mu = measure is Measure.MU_TILDE
    rng = random.Random(f"{row} {n} {mu}")

    def t(k):
        return CliffordPolynomial.monomial(n, k, [0] * n) if mu else (
            CliffordPolynomial.monomial(n, 0, [k] + [0] * (n - 1)))

    f, g = (sum((t(k) * _homogeneous(n, mu, d) * rand_pairing_coeff(rng, n) for k, d in parts),
                CliffordPolynomial.zero(n)) for parts in RANGE_ROWS[row][:2])
    assert any(not x.is_x0_free() for x in (f, g)) == mu
    meeting = RANGE_ROWS[row][2]
    for a, b in ((f, g), (g, f)):
        expected = naive_clifford_pairing(a, b, measure)
        full, scalar = clifford_pairing(a, b, measure), INNER[measure](a, b)
        assert full == expected and scalar == expected.scalar_part()
        assert _meeting(a._fischer[mu], b._fischer[mu]) == meeting
        assert bool(expected) == (meeting in ("touching", "shared key"))
        if meeting == "disjoint":
            assert full is _ZEROS[n] and scalar is _ZEROS[0]
            assert a._fischer[mu][5] is None
    if meeting == "disjoint":
        # the degree ranges alone decide: the key sets are not read
        for x in (f, g):
            _keyless(x, mu)
        for a, b in ((f, g), (g, f)):
            assert clifford_pairing(a, b, measure) is _ZEROS[n]
            assert INNER[measure](a, b) is _ZEROS[0]


# -- the Fischer identity on the oracle side ----------------------------------

@pytest.mark.parametrize("measure", [Measure.RHO, Measure.MU_TILDE], ids=["rho", "mu"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fischer_sum_of_heat_images_equals_moment_oracle(n, measure):
    rng = random.Random(70 + 10 * n + (measure is Measure.MU_TILDE))
    polys = [rand_pairing_poly(rng, n, 4, 4, measure is Measure.MU_TILDE) for _ in range(4)]
    for f in polys:
        for g in polys:
            assert fischer_pairing(f, g, measure) == naive_clifford_pairing(f, g, measure)


def test_fischer_sum_needs_the_heat_step_off_the_monogenic_basis():
    h = hermite(2, (2, 0))
    f = CliffordPolynomial.monomial(2, 2, (0, 1), CliffordNumber.basis(2, 1))
    assert fischer_pairing(h, h, Measure.RHO) == naive_clifford_pairing(h, h, Measure.RHO)
    assert fischer_pairing(h, h, Measure.RHO, heat=False) != naive_clifford_pairing(h, h, Measure.RHO)
    assert fischer_pairing(f, f, Measure.MU_TILDE, heat=False) != naive_clifford_pairing(
        f, f, Measure.MU_TILDE)
    # on monogenic values the Laplacian over x0..xn vanishes, so the step is empty
    p, q = p_basis(2, (1, 1)), p_basis(2, (2, 0))
    for a, b in ((p, p), (p, q), (q, q)):
        assert fischer_pairing(a, b, Measure.MU_TILDE, heat=False) == naive_clifford_pairing(
            a, b, Measure.MU_TILDE)


# -- the prepared form cached on each value -----------------------------------

def _fresh_values(n, seed):
    """Polynomials never paired before: x0-free draws (both measures) and
    their C-K extensions (MU_TILDE only)."""
    rng = random.Random(seed)
    x0_free = [rand_pairing_poly(rng, n, 4, 4, False) for _ in range(3)]
    return x0_free, x0_free + [ck_extend(f) for f in x0_free]


def test_cached_value_pairs_alike_in_every_role():
    n = 3
    x0_free, values = _fresh_values(n, 90)
    texts = [json.dumps(poly_to_json(f)) for f in values]
    copies = [poly_from_json(json.loads(text)) for text in texts]
    # the parsed copies carry no mark, so under MU_TILDE a copy of a C-K
    # extension goes through the full heat map where its original is its own image
    assert [g._monogenic for g in values] == [False] * 3 + [True] * 3
    assert not any(g._monogenic for g in copies)
    for measure, polys in ((Measure.RHO, x0_free), (Measure.MU_TILDE, values)):
        f = polys[0]
        expected = {id(g): (naive_clifford_pairing(f, g, measure), naive_clifford_pairing(g, f, measure))
                    for g in polys}
        for _ in range(2):  # the second round reads the cache
            for g in polys:
                as_left, as_right = expected[id(g)]
                assert clifford_pairing(f, g, measure) == as_left
                assert clifford_pairing(g, f, measure) == as_right
                assert INNER[measure](f, g) == as_left.scalar_part()
                assert INNER[measure](g, f) == as_right.scalar_part()
        for g, g_copy in zip(polys, copies):
            for h, h_copy in zip(polys, copies):
                full, scalar = clifford_pairing(g, h, measure), INNER[measure](g, h)
                for a, b in ((g_copy, h), (g, h_copy), (g_copy, h_copy)):
                    assert clifford_pairing(a, b, measure) == full
                    assert INNER[measure](a, b) == scalar
    # pairing changes neither equality nor the bytes of an operand
    assert values == copies
    assert [json.dumps(poly_to_json(f)) for f in values] == texts
    assert [repr(f) for f in values] == [repr(f) for f in copies]


def test_shared_values_pair_alike_from_four_threads():
    n = 3
    x0_free, values = _fresh_values(n, 91)
    cases = ((Measure.RHO, x0_free), (Measure.MU_TILDE, values))
    expected = {measure: [[naive_clifford_pairing(f, g, measure) for g in polys] for f in polys]
                for measure, polys in cases}
    scalars = {measure: [[v.scalar_part() for v in row] for row in table]
               for measure, table in expected.items()}
    texts = [json.dumps(poly_to_json(f)) for f in values]

    def full():
        return {measure: list(gram(polys, polys, measure)) for measure, polys in cases}

    def scalar():
        return {measure: [[INNER[measure](f, g) for g in polys] for f in polys]
                for measure, polys in cases}

    def tables(i):
        # odd tasks start with the scalar pairings, which build right roles
        # only, while even ones build left roles of the same values at once
        if i % 2:
            first = scalar()
            return full(), first
        return full(), scalar()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside a form being built
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(tables, i) for i in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == (expected, scalars) for result in results)
    assert [json.dumps(poly_to_json(f)) for f in values] == texts


def _zero_entries(n, degree):
    """The zero entries of the full gram tables of hermite(n, beta) under RHO
    and p_basis(n, beta) under MU_TILDE, |beta| <= degree, and of the
    matching scalar pairings, each with whether its heat images share no key."""
    betas = [beta for d in range(degree + 1) for beta in multi_indices(n, d)]
    cases = ((Measure.RHO, [hermite(n, beta) for beta in betas]),
             (Measure.MU_TILDE, [p_basis(n, beta) for beta in betas]))
    full, scalar = [], []
    for measure, polys in cases:
        mu = measure is Measure.MU_TILDE
        for f, row in zip(polys, gram(polys, polys, measure)):
            for g, v in zip(polys, row):
                # the forms `gram` cached, read as they are: no rebuild drops a left role
                disjoint = (f._fischer[mu] or _form(f, mu))[2].isdisjoint((g._fischer[mu] or _form(g, mu))[2])
                s = INNER[measure](f, g)
                full += [(v, disjoint)] if not v else []
                scalar += [(s, disjoint)] if not s else []
    return full, scalar


def _assert_canonical_where_disjoint(entries, n):
    for zeros, canonical in zip(entries, (_ZEROS[n], _ZEROS[0])):
        assert sum(disjoint for _, disjoint in zeros) > 100
        # a zero of cancelling terms is an equal value of its own
        assert all((z is canonical) == disjoint and z == canonical for z, disjoint in zeros)


def test_shared_zeros_stay_zero():
    # a disjoint pair returns the canonical zero of its dimension, one object
    # built at import; no arithmetic on it, from any thread, changes it
    n = 3
    entries = _zero_entries(n, 3)
    _assert_canonical_where_disjoint(entries, n)
    p0, p1 = p_basis(n, (1, 0, 0)), p_basis(n, (0, 2, 0))
    h0, h1 = hermite(n, (1, 0, 0)), hermite(n, (0, 1, 0))
    assert clifford_pairing(p0, p1, Measure.MU_TILDE) is clifford_pairing(h0, h1, Measure.RHO) is _ZEROS[n]
    assert inner_mu(p0, p1) is inner_rho(h0, h1) is inner_mu(h1, p0) is _ZEROS[0]

    x = CliffordNumber(n, {(): GaussianRational(1, -2), (1, 3): Fraction(3, 4)})
    f, h, i = p_basis(n, (1, 0, 1)), hermite(n, (1, 0, 1)), GaussianRational(0, 1)
    zero, scalar_zero = CliffordNumber.zero(n), GaussianRational(0)
    number_ops = [  # (operation on a zero of C_n, its value)
        (lambda z: z + x, x), (lambda z: x + z, x), (lambda z: z - x, -x), (lambda z: x - z, x),
        (lambda z: -z, zero), (lambda z: z * x, zero), (lambda z: x * z, zero), (lambda z: z * 2, zero),
        (lambda z: i * z, zero), (lambda z: z.hermitian_conj(), zero),
        (lambda z: z.inner(x), scalar_zero), (lambda z: x.inner(z), scalar_zero),
        (lambda z: z.norm_sq(), 0), (lambda z: z.grade(0), zero), (lambda z: z.grade(2), zero),
        (lambda z: list(z.terms()), []), (lambda z: clifford_to_json(z), []),
        (lambda z: clifford_pairing(f * z, f, Measure.MU_TILDE), zero),
        (lambda z: clifford_pairing(h, h * z, Measure.RHO), zero)]
    scalar_ops = [  # (operation on 0 + 0i, its value)
        (lambda w: w + 1, 1), (lambda w: 1 - w, 1), (lambda w: w - i, -i), (lambda w: -w, 0),
        (lambda w: w * i, 0), (lambda w: w.conjugate(), 0), (lambda w: w.abs_sq(), 0),
        (lambda w: complex(w), 0j), (lambda w: x * w, zero), (lambda w: w * x, zero),
        (lambda w: CliffordNumber.scalar(n, w), zero)]
    full, scalar = ([z for z, _ in zeros] for zeros in entries)

    def work(k):
        return ([op(z) for z in full[k::4] for op, _ in number_ops]
                + [op(w) for w in scalar[k::4] for op, _ in scalar_ops])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4)))
    finally:
        sys.setswitchinterval(interval)
    for k, out in enumerate(results):
        assert out == ([value for _ in full[k::4] for _, value in number_ops]
                       + [value for _ in scalar[k::4] for _, value in scalar_ops])
    # the zeros themselves are unchanged: no blade over 1, and 0 + 0i
    assert type(_ZEROS) is tuple and len(_ZEROS) == 17
    assert all(type(z) is CliffordNumber and (z.n, z._den, z._blades) == (k, 1, {})
               for k, z in enumerate(_ZEROS[1:], 1))
    assert type(_ZEROS[0]) is GaussianRational
    assert (type(_ZEROS[0].re), type(_ZEROS[0].im)) == (Fraction, Fraction)
    assert (_ZEROS[0].re, _ZEROS[0].im) == (0, 0)
    # and the pairings still return them
    _assert_canonical_where_disjoint(_zero_entries(n, 3), n)


def test_scalar_pairings_build_no_left_role():
    # inner_rho and inner_mu read right roles only; clifford_pairing builds
    # the left role of its left operand, once, and only when keys are shared
    n = 3
    x0_free, values = _fresh_values(n, 92)
    for measure, polys in ((Measure.RHO, x0_free), (Measure.MU_TILDE, values)):
        mu = measure is Measure.MU_TILDE
        for f in polys:
            for g in polys:
                INNER[measure](f, g)
        assert all(f._fischer[mu] is not None and f._fischer[mu][5] is None for f in polys)
        f, g = polys[:2]
        assert clifford_pairing(f, g, measure) == naive_clifford_pairing(f, g, measure)
        assert clifford_pairing(f, f, measure) == naive_clifford_pairing(f, f, measure)
        left = f._fischer[mu][5]
        assert left and g._fischer[mu][5] is None
        clifford_pairing(f, g, measure)
        assert f._fischer[mu][5] is left
    # storing the MU_TILDE roles kept the RHO ones
    assert x0_free[0]._fischer[0][5] is not None and x0_free[1]._fischer[0][5] is None


def test_pairing_never_checks_the_degree_cap():
    # values built under cap 14 pair under cap 12, from a cold image cache,
    # exactly as under cap 14: the cap bounds what is built, not what is paired
    n = 2

    def pairings(cap):
        set_degree_cap(14)  # in this worker thread's own context
        e1 = CliffordNumber.basis(n, 1)
        f = CliffordPolynomial(n, {(0, (13, 1)): e1, (0, (2, 3)): CliffordNumber.one(n)})
        x0_free = [hermite(n, (13, 0)), hermite(n, (6, 7)) * e1, f]
        values = x0_free + [p_basis(n, (7, 5)), ck_extend(f)]
        set_degree_cap(cap)
        _image.cache_clear()
        return [(clifford_pairing(a, b, measure), INNER[measure](a, b))
                for measure, polys in ((Measure.RHO, x0_free), (Measure.MU_TILDE, values))
                for a in polys for b in polys]

    with ThreadPoolExecutor(max_workers=1) as pool:
        low = pool.submit(pairings, 12).result(timeout=120)
        high = pool.submit(pairings, 14).result(timeout=120)
    assert low == high
    assert len(low) == 3 * 3 + 5 * 5 and any(full for full, _ in low)
