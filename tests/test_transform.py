"""Heat operator, Hermite basis, C-K extension and the transform pipeline."""

import copy
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monogenic
from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DegreeCapError,
    DimensionMismatchError,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    Measure,
    MultiIndex,
    NotMonogenicError,
    blade_product,
    ck_extend,
    fock_norm_sq,
    fock_to_function,
    fock_to_monogenic,
    heat,
    hermite,
    inner_rho,
    moment,
    p_basis,
    restrict,
    sb_inverse,
    sb_transform,
    set_degree_cap,
    taylor_map,
)
from monogenic.clifford import BoundsError
from monogenic.transform import _CK, _HEAT, _INVERSE_HEAT, _image
from monogenic.verify import (_ck_extension, _dirac_squared, _fock_round_trips, _sb_inputs,
                              _sb_isometry, multi_indices, rand_fock_element,
                              rand_hermite_expansion, rand_poly)

from oracles import fueter_basis, hermite_recurrence, series_ck_extend, series_heat
from test_gauss import BAD_VALUES


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


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_heat_inverse_must_be_a_bool(flag):
    # any truthy value used to select the inverse heat: "no" gave x1^2 - 1
    with pytest.raises(TypeError, match=f"inverse must be True or False, got {flag!r}"):
        heat(var(1, 1) * var(1, 1), inverse=flag)


# every entry that checks its container, with the classes it takes as its
# message names them
CONTAINERS = {
    "heat": (heat, "CliffordPolynomial"),
    "ck_extend": (ck_extend, "CliffordPolynomial"),
    "restrict": (restrict, "CliffordPolynomial"),
    "sb_inverse": (sb_inverse, "CliffordPolynomial"),
    "sb_transform": (sb_transform, "HermiteExpansion or a CliffordPolynomial"),
    "taylor_map": (taylor_map, "CliffordPolynomial"),
    "fock_norm_sq": (fock_norm_sq, "FockElement"),
    "fock_to_function": (fock_to_function, "FockElement"),
    "fock_to_monogenic": (fock_to_monogenic, "FockElement"),
    "inner": (CliffordNumber.basis(2, 1).inner, "CliffordNumber"),
}
# the bad operands of the pairing table, and a polynomial over C_2: the wrong
# container of the Fock maps
WRONG = {**BAD_VALUES, "polynomial": lambda: hermite(2, (1, 0))}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name, (_, takes) in CONTAINERS.items() for bad, value in WRONG.items()
    if type(value()).__name__ not in takes.split(" or a ")])
def test_operators_take_only_their_own_containers(name, bad):
    # each raised AttributeError from inside the library, and a Fock map read
    # a HermiteExpansion, which shares its stored form but not its meaning,
    # as a FockElement: it gave 1/2 for a squared norm of 2! = 2
    call, takes = CONTAINERS[name]
    wrong = WRONG[bad]()
    message = f"^{name} takes a {takes}, got {type(wrong).__name__}$"
    with pytest.raises(TypeError, match=message):
        call(wrong)
    # the container is checked before the inverse flag
    if name == "heat":
        with pytest.raises(TypeError, match=message):
            heat(wrong, inverse="no")
    # the accepted containers map as before
    e = HermiteExpansion(1, {(2,): CliffordNumber.scalar(1, 1)})
    assert sb_transform(e) == sb_transform(e.to_polynomial()) == p_basis(1, (2,))
    alpha = FockElement(1, {(2,): CliffordNumber.scalar(1, 1)})
    assert fock_norm_sq(alpha) == Fraction(1, 2)
    assert fock_to_function(alpha) == var(1, 1) * var(1, 1) * CliffordNumber.scalar(1, Fraction(1, 2))


# the argument contract of every public name and constructor: for each kind
# of argument, the documented class that each bad value of WRONG raises.  A
# value that the kind accepts has no entry, except an iterator where a
# sequence is read: it is read once, as its tuple, and must give the same value
READ_AS_TUPLE = "read as its tuple"


def _kind(cls, *accepted, **other):
    return {**{bad: cls for bad in WRONG if bad not in accepted}, **other}


KINDS = {
    # an int, never a bool or a float: out of its range a dimension raises
    # BoundsError, every other integer argument ValueError
    "dimension": _kind(BoundsError, "int"),
    "int": _kind(ValueError, "int"),
    # an int or a Fraction; a bool part reads as 0 or 1
    "rational": _kind(TypeError, "int", "bool"),
    "flag": _kind(TypeError, "bool"),
    # a mapping; None is the default, no entries
    "mapping": _kind(TypeError, "none"),
    # a CliffordNumber of the n of the value it enters, and for a monomial
    # also a scalar (None, the default, is 1)
    "coefficient": _kind(TypeError, "number_same_n", number_other_n=DimensionMismatchError),
    "scalar": _kind(TypeError, "int", "bool", "none", "number_same_n",
                    number_other_n=DimensionMismatchError),
    # a CliffordNumber of any n
    "number": _kind(TypeError, "number_same_n", "number_other_n"),
    # the ints of a multi-index or of a blade: a str reads as its characters,
    # which are no ints
    "sequence": _kind(TypeError, str=ValueError, iterator=READ_AS_TUPLE),
    # the coordinates of `evaluate`, which are counted before they are read
    "coordinates": _kind(TypeError),
}

# label: (the call with the bad value in the labelled argument, its kind)
ARGUMENTS = {
    "CliffordNumber(n)": (lambda v: CliffordNumber(v, {(1,): 1}), "dimension"),
    "CliffordNumber(coeffs)": (lambda v: CliffordNumber(2, v), "mapping"),
    "CliffordNumber(value)": (lambda v: CliffordNumber(2, {(1,): v}), "rational"),
    "CliffordNumber.zero(n)": (lambda v: CliffordNumber.zero(v), "dimension"),
    "CliffordNumber.one(n)": (lambda v: CliffordNumber.one(v), "dimension"),
    "CliffordNumber.scalar(n)": (lambda v: CliffordNumber.scalar(v, 1), "dimension"),
    "CliffordNumber.scalar(value)": (lambda v: CliffordNumber.scalar(2, v), "rational"),
    "CliffordNumber.blade(n)": (lambda v: CliffordNumber.blade(v, (1,)), "dimension"),
    "CliffordNumber.blade(indices)": (lambda v: CliffordNumber.blade(2, v), "sequence"),
    "CliffordNumber.blade(index)": (lambda v: CliffordNumber.blade(2, (v,)), "int"),
    "CliffordNumber.blade(coeff)": (lambda v: CliffordNumber.blade(2, (1,), v), "rational"),
    "CliffordNumber.basis(n)": (lambda v: CliffordNumber.basis(v, 1), "dimension"),
    "CliffordNumber.basis(i)": (lambda v: CliffordNumber.basis(2, v), "int"),
    "CliffordNumber.coefficient(indices)": (lambda v: CliffordNumber.one(2).coefficient(v), "sequence"),
    "CliffordNumber.grade(k)": (lambda v: CliffordNumber.one(2).grade(v), "int"),
    "GaussianRational(re)": (lambda v: GaussianRational(v), "rational"),
    "GaussianRational(im)": (lambda v: GaussianRational(0, v), "rational"),
    "blade_product(a)": (lambda v: blade_product(v, (1,), 2), "sequence"),
    "blade_product(b)": (lambda v: blade_product((1,), v, 2), "sequence"),
    "blade_product(n)": (lambda v: blade_product((1,), (1,), v), "dimension"),
    "MultiIndex(entries)": (lambda v: MultiIndex(v), "sequence"),
    "MultiIndex(entry)": (lambda v: MultiIndex((v, 0)), "int"),
    "CliffordPolynomial(n)": (lambda v: CliffordPolynomial(v, {(0, (1,)): CliffordNumber.one(1)}),
                              "dimension"),
    "CliffordPolynomial(terms)": (lambda v: CliffordPolynomial(2, v), "mapping"),
    "CliffordPolynomial(coeff)": (lambda v: CliffordPolynomial(2, {(0, (1, 0)): v}), "coefficient"),
    "CliffordPolynomial.zero(n)": (lambda v: CliffordPolynomial.zero(v), "dimension"),
    "CliffordPolynomial.constant(value)": (lambda v: CliffordPolynomial.constant(v), "number"),
    "CliffordPolynomial.monomial(n)": (lambda v: CliffordPolynomial.monomial(v, 0, (1, 0)), "dimension"),
    "CliffordPolynomial.monomial(k0)": (lambda v: CliffordPolynomial.monomial(2, v, (1, 0)), "int"),
    "CliffordPolynomial.monomial(beta)": (lambda v: CliffordPolynomial.monomial(2, 0, v), "sequence"),
    "CliffordPolynomial.monomial(entry)": (lambda v: CliffordPolynomial.monomial(2, 0, (v, 0)), "int"),
    "CliffordPolynomial.monomial(coeff)": (lambda v: CliffordPolynomial.monomial(2, 0, (1, 0), v),
                                           "scalar"),
    "CliffordPolynomial.variable(n)": (lambda v: CliffordPolynomial.variable(v, 1), "dimension"),
    "CliffordPolynomial.variable(i)": (lambda v: CliffordPolynomial.variable(2, v), "int"),
    "CliffordPolynomial.coefficient(k0)": (lambda v: hermite(2, (1, 0)).coefficient(v, (1, 0)), "int"),
    "CliffordPolynomial.coefficient(beta)": (lambda v: hermite(2, (1, 0)).coefficient(0, v), "sequence"),
    "CliffordPolynomial.partial(i)": (lambda v: hermite(2, (1, 0)).partial(v), "int"),
    "CliffordPolynomial.evaluate(x0)": (lambda v: hermite(2, (1, 0)).evaluate(v, (1, 0)), "rational"),
    "CliffordPolynomial.evaluate(xs)": (lambda v: hermite(2, (1, 0)).evaluate(0, v), "coordinates"),
    "CliffordPolynomial.evaluate(x)": (lambda v: hermite(2, (1, 0)).evaluate(0, (v, 0)), "rational"),
    "HermiteExpansion(n)": (lambda v: HermiteExpansion(v, {(1,): CliffordNumber.one(1)}), "dimension"),
    "HermiteExpansion(coeffs)": (lambda v: HermiteExpansion(2, v), "mapping"),
    "HermiteExpansion(value)": (lambda v: HermiteExpansion(2, {(1, 0): v}), "coefficient"),
    "FockElement(n)": (lambda v: FockElement(v, {(1,): CliffordNumber.one(1)}), "dimension"),
    "FockElement(entries)": (lambda v: FockElement(2, v), "mapping"),
    "FockElement(value)": (lambda v: FockElement(2, {(1, 0): v}), "coefficient"),
    "FockElement.entry(beta)": (lambda v: FockElement(2).entry(v), "sequence"),
    "FockElement.grade(k)": (lambda v: FockElement(2).grade(v), "int"),
    "hermite(n)": (lambda v: hermite(v, (1,)), "dimension"),
    "hermite(beta)": (lambda v: hermite(2, v), "sequence"),
    "p_basis(n)": (lambda v: p_basis(v, (1,)), "dimension"),
    "p_basis(beta)": (lambda v: p_basis(2, v), "sequence"),
    "heat(inverse)": (lambda v: heat(hermite(2, (1, 0)), v), "flag"),
    "set_degree_cap(cap)": (lambda v: set_degree_cap(v), "int"),
    "moment(beta)": (lambda v: moment(Measure.RHO, 0, v), "sequence"),
}


@pytest.mark.parametrize("label, bad", [
    (label, bad) for label, (_, kind) in ARGUMENTS.items() for bad in KINDS[kind]])
def test_every_argument_raises_its_documented_class(label, bad):
    # a constructor handed a list or an iterator for its mapping, and
    # `CliffordPolynomial.constant` handed a non-number, raised
    # AttributeError; `variable` of a float or str n raised TypeError; and
    # an unhashable index, exponent or axis of `blade`, `basis` or
    # `monomial` raised TypeError from the dict that it keyed
    call, kind = ARGUMENTS[label]
    expected = KINDS[kind][bad]
    if expected is READ_AS_TUPLE:
        assert call(WRONG[bad]()) == call(tuple(WRONG[bad]()))
        return
    with pytest.raises(expected) as info:
        call(WRONG[bad]())
    assert type(info.value) is expected


def test_the_contract_tables_cover_every_public_name():
    # every public name that takes an argument has rows in the table above,
    # in the container table, or in the operand and measure tables of the
    # pairings (`test_gauss`)
    tabled = {label.split("(")[0].split(".")[0] for label in ARGUMENTS} | CONTAINERS.keys()
    pairings = {"clifford_pairing", "gram", "inner_mu", "inner_rho"}
    no_arguments = {"DegreeCapError", "DimensionMismatchError", "Measure", "NotMonogenicError",
                    "get_degree_cap"}
    assert set(monogenic.__all__) - no_arguments - pairings - tabled == set()


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
    assert _ck_extension(f) is None


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


@pytest.mark.parametrize("n", range(9, 17))
def test_operators_at_n9_to_16(n):
    # C-K, the transform and the Fock maps on masks 9 to 16 bits wide, where
    # indices_from_mask reads the high byte: seeded draws of degree <= 3
    # with <= 3 terms
    rng = random.Random(1600 + n)
    polys = [rand_poly(rng, n, 3, 3) for _ in range(4)]
    elements = [rand_fock_element(rng, n, 3, 3) for _ in range(4)]
    for f, alpha in zip(polys, elements):
        assert _ck_extension(f) is None and _fock_round_trips((alpha, f)) is None
        assert sb_inverse(sb_transform(f)) == f
        assert _dirac_squared(f) is None and _dirac_squared(ck_extend(f)) is None
    assert any(mask >> 8 for f in polys + [a._poly for a in elements]
               for blades in f._num.values() for mask in blades)


def test_sb_isometry_holds_at_n1():
    # In one dimension the algebra is commutative and the transform is a
    # genuine isometry between the two Gaussian inner products.
    rng = random.Random(12)
    for _ in range(40):
        drawn = _sb_inputs(rand_hermite_expansion(rng, 1, 4), rand_hermite_expansion(rng, 1, 4))
        assert _sb_isometry(drawn) is None


# -- the operators as linear maps over cached monomial images ----------------------

def special_polys(n):
    """The zero polynomial, a scalar, heat images of two monomials that land
    on the same key, and images that cancel."""
    x1, e1 = var(n, 1), CliffordNumber.basis(n, 1)
    polys = [CliffordPolynomial.zero(n),
             one(n) * Fraction(-3, 4),
             x1 * x1 * 2 + x1 * x1 * x1 * x1 * (e1 * Fraction(1, 3)),  # both reach x1^2 and 1
             x1 * x1 - one(n),  # heat cancels the constant
             x1 * x1 + one(n)]  # so does the inverse heat
    if n >= 2:
        x2, e2 = var(n, 2), CliffordNumber.basis(n, 2)
        polys += [x1 * x1 + x2 * x2,  # both reach the constant
                  x1 * e1 - x2 * e2]  # the x0 terms of the C-K images cancel
    return polys


def check_against_series(polys, expansions, betas):
    n = polys[0].n
    for f in polys:
        assert heat(f) == series_heat(f)
        assert heat(f, inverse=True) == series_heat(f, inverse=True)
        F = ck_extend(f)
        assert F == series_ck_extend(f) and F._monogenic
        assert sb_transform(f) == series_ck_extend(series_heat(f))
        assert sb_inverse(F) == series_heat(f, inverse=True)
        assert HermiteExpansion.from_polynomial(f)._poly == series_heat(f)
    for h in expansions:
        assert h.to_polynomial() == series_heat(h._poly, inverse=True)
        assert sb_transform(h) == series_ck_extend(h._poly)
    for beta in betas:
        x = CliffordPolynomial.monomial(n, 0, beta)
        assert hermite(n, beta) == series_heat(x, inverse=True)
        P = p_basis(n, beta)
        assert P == series_ck_extend(x) and P._monogenic


@pytest.mark.parametrize("n, max_degree", [(1, 7), (2, 6), (3, 5), (4, 4), (8, 3)])
def test_operators_equal_the_whole_polynomial_series(n, max_degree):
    rng = random.Random(150 + n)
    polys = special_polys(n) + [rand_poly(rng, n, max_degree) for _ in range(12)]
    expansions = [rand_hermite_expansion(rng, n, max_degree) for _ in range(12)]
    expansions += [HermiteExpansion.from_polynomial(f) for f in special_polys(n)]
    betas = list(multi_indices(n, max_degree if n <= 4 else 2))
    _image.cache_clear()
    check_against_series(polys, expansions, betas)  # from a cold cache
    assert _image.cache_info().currsize
    check_against_series(polys, expansions, betas)  # and a warm one


def test_apply_never_mutates_a_cached_image():
    # `_apply` accumulates every term of a value into one total; the cached
    # images (their terms and plans) are shared with every later call and with
    # the values `hermite` and `p_basis` return, so none may change
    n = 3
    rng = random.Random(165)
    betas = list(multi_indices(n, 4))
    # images that cancel (see special_polys), the H_beta whose heat images
    # cancel down to x^beta, and values built on the shared maps themselves
    inputs = special_polys(n) + [hermite(n, beta) for beta in betas] + [
        p_basis(n, beta).restrict() * CliffordNumber.basis(n, 2) for beta in betas] + [
        rand_poly(rng, n, 4) for _ in range(6)]
    used = {(op, key) for f in inputs for key in f._num for op in (_HEAT, _INVERSE_HEAT, _CK)}
    used |= {(op, (0, tuple(beta))) for beta in betas for op in (_INVERSE_HEAT, _CK)}

    def run():
        for f in inputs:
            heat(f), heat(f, inverse=True), ck_extend(f)
        for beta in betas:
            heat(hermite(n, beta)), sb_inverse(p_basis(n, beta)), ck_extend(hermite(n, beta))

    _image.cache_clear()
    run()  # from a cold cache: each image derived while it is applied
    misses = _image.cache_info().misses
    cached = {(op, key): _image(n, op, key) for op, key in used}
    assert _image.cache_info().misses == misses  # every image looked at was used above
    assert cached == {(op, key): _image.__wrapped__(n, op, key) for op, key in used}
    for _, terms, plan in cached.values():
        # the plan is the terms' real blades, in order
        assert all(im == 0 for _, blades in terms for _, im in blades.values())
        assert [(key, m, r) for key, m, _, r in plan] == [
            (key, m, re) for key, blades in terms for m, (re, _) in blades.items()]
    snapshot = copy.deepcopy(cached)
    run()  # and from a warm one
    assert all(_image(n, op, key) is image for (op, key), image in cached.items())
    assert cached == snapshot


def test_threads_sharing_inputs_from_a_cold_cache_agree():
    rng = random.Random(160)
    polys = special_polys(3) + [rand_poly(rng, 3, 6) for _ in range(10)]
    betas = list(multi_indices(3, 4))

    def results(shift):
        out = []
        for f in polys[shift:] + polys[:shift]:  # each thread starts on other images
            out += [heat(f), heat(f, inverse=True), ck_extend(f), sb_transform(f)]
        return out + [(hermite(3, beta), p_basis(3, beta)) for beta in betas[shift:]]

    expected = [[series_heat(f), series_heat(f, inverse=True), series_ck_extend(f),
                 series_ck_extend(series_heat(f))] for f in polys]
    _image.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside an image being built
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(results, i) for i in range(8)]
            outs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for shift, out in enumerate(outs):
        rotated = expected[shift:] + expected[:shift]
        assert out[:4 * len(polys)] == [g for row in rotated for g in row]
        assert out[4 * len(polys):] == [
            (series_heat(x, inverse=True), series_ck_extend(x))
            for x in (CliffordPolynomial.monomial(3, 0, beta) for beta in betas[shift:])]


def _basis_and_operator_calls(f):
    """hermite and p_basis of the first beta of f, then heat, the inverse
    heat, ck_extend and sb_transform of f."""
    n, (_, beta) = f.n, next(iter(f._num))
    return (lambda: hermite(n, beta), lambda: p_basis(n, beta), lambda: heat(f),
            lambda: heat(f, inverse=True), lambda: ck_extend(f), lambda: sb_transform(f))


def cap_errors(n, terms, cap, calls=_basis_and_operator_calls):
    """The DegreeCapError message (None if nothing is raised) of each call
    of calls(f), f = sum x^beta e_1 c over terms {beta: c}, where f and the
    calls are built under cap 20 in a thread whose cap is then lowered to
    cap."""

    def run():
        set_degree_cap(20)
        e1 = CliffordNumber.basis(n, 1)
        f = CliffordPolynomial(n, {(0, b): e1 * c for b, c in terms.items()})
        thunks = calls(f)
        set_degree_cap(cap)
        errors = []
        for call in thunks:
            try:
                call()
            except DegreeCapError as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        return errors

    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(run).result(timeout=60)


@pytest.mark.parametrize("terms, cap", [
    ({(13, 0): 1}, 12),
    ({(5, 0): 1}, 3),
    # heat(x1^15) has 105 x1^13, so heat(f) has no x1^13 term to name
    ({(13, 0): -105, (15, 0): 1}, 12)])
def test_degree_cap_holds_with_a_cold_and_a_warm_cache(terms, cap):
    _image.cache_clear()
    cold = cap_errors(2, terms, cap)
    assert cap_errors(2, terms, 20) == [None] * 6  # caches every image used
    warm = cap_errors(2, terms, cap)
    degree = sum(next(iter(terms)))
    assert cold == warm == [f"total degree {degree} exceeds cap {cap}"] * 6


def _operator_calls(f):
    """-f, hermitian_conj, dirac, heat, the inverse heat, ck_extend and
    sb_transform of f, then restrict and sb_inverse of F = ck_extend(f)."""
    F = ck_extend(f)
    return (lambda: -f, f.hermitian_conj, f.dirac, lambda: heat(f), lambda: heat(f, inverse=True),
            lambda: ck_extend(f), lambda: sb_transform(f), lambda: restrict(F), lambda: sb_inverse(F))


# (terms, degree named by every operator but dirac, degree named by dirac),
# None where nothing is raised: heat and ck_extend check their input once
# and adopt their result, which leaves every message as it was
@pytest.mark.parametrize("terms, named, dirac_named", [
    ({(12, 0): 1}, None, None),
    ({(6, 6): 3, (0, 1): 1}, None, None),
    ({(13, 0): 1}, 13, None),
    ({(0, 1): 2, (7, 6): 1}, 13, None),
    ({(13, 0): -105, (15, 0): 1}, 13, 14),
    ({(14, 0): 1, (0, 2): 5}, 14, 13)])
def test_cap_errors_of_every_operator_are_pinned(terms, named, dirac_named):
    message = "total degree {} exceeds cap 12".format
    expected = [None if named is None else message(named)] * 9
    expected[2] = None if dirac_named is None else message(dirac_named)
    _image.cache_clear()
    # the second run finds every image cached
    assert cap_errors(2, terms, 12, _operator_calls) == expected
    assert cap_errors(2, terms, 12, _operator_calls) == expected


def _precondition_errors():
    """The exception type (None if nothing is raised) of sb_transform and
    sb_inverse on an x0-bearing input, a non-monogenic one, and inputs of
    degree 13 built under cap 20 and run under cap 12, in a worker thread."""

    def run():
        set_degree_cap(20)
        x0, x1 = CliffordPolynomial.variable(2, 0), CliffordPolynomial.variable(2, 1)
        over = CliffordPolynomial.monomial(2, 0, (13, 0))
        F = ck_extend(over)
        calls = (lambda: sb_transform(x0 * x1), lambda: sb_inverse(x1),
                 lambda: sb_transform(over), lambda: sb_inverse(F))
        set_degree_cap(12)
        errors = []
        for call in calls:
            try:
                call()
            except ValueError as exc:
                errors.append(type(exc))
            else:
                errors.append(None)
        return errors

    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(run).result(timeout=60)


def test_two_step_maps_keep_every_precondition():
    # sb_transform checks its input in heat only, and sb_inverse the cap of
    # F.restrict() in restrict only; each bad input still raises its type,
    # with every image cold and then cached
    _image.cache_clear()
    expected = [ValueError, NotMonogenicError, DegreeCapError, DegreeCapError]
    assert _precondition_errors() == expected
    assert _precondition_errors() == expected
