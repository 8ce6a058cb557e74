"""The integer-numerator kernel (Dirac, Laplacian, Cauchy-Riemann, heat and
C-K extension) against the Fraction-per-step compositions in `oracles`,
and the stored form of polynomials: reduced numerators over one
denominator, blade maps that the reducer adopts and values then share,
the sign-plan kernel of the operators, and the "monogenic by
construction" mark of `ck_extend`.

Inputs are seeded: n = 1..16, x0 terms, total degree up to the cap, part
denominators drawn from the primes up to 97, complex coefficients, and in
every coefficient the full blade, which holds generators above and below
each j (at n = 9..16 a mask above bit 8, whose indices
`indices_from_mask` reads from the high byte; there the draws keep the
lowest degrees of each test only, so that the eight more dimensions cost
little).  The same inputs, read as Hermite expansions and Fock elements,
check both squared norms, `taylor_map` and `fock_to_function` against
their one-`Fraction`-per-entry oracles.  Each seeded polynomial also reaches the oracles through
`restrict`, `partial`, `hermitian_conj`, `+`, `-` and scalar `*`, so
operands built by every numerator operation are covered.
"""

import copy
import functools
import math
import random
from fractions import Fraction

import pytest

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DegreeCapError,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    NotMonogenicError,
    ck_extend,
    fock_norm_sq,
    fock_to_function,
    fock_to_monogenic,
    get_degree_cap,
    heat,
    hermite,
    p_basis,
    sb_inverse,
    sb_transform,
    set_degree_cap,
    taylor_map,
)
from monogenic import clifford, gauss, poly, serialize
from monogenic.clifford import (
    _plan_product,
    _product_numerators,
    _sign_plan,
    indices_from_mask,
)

from oracles import (
    PRIMES_TO_97,
    naive_cauchy_riemann,
    naive_ck_extend,
    naive_dirac,
    naive_expansion_norm_sq,
    naive_fock_norm_sq,
    naive_fock_to_function,
    naive_heat,
    naive_laplacian,
    naive_reduce,
    naive_taylor_map,
)


# the dimensions of the oracle tests: every n the library accepts
DIMENSIONS = range(1, 17)


def _degrees(n, degrees):
    """The degrees a test draws at n: all of them up to n = 8, and the
    last two, its lowest, above."""
    return degrees if n <= 8 else degrees[-2:]


def _part(rng):
    return Fraction(rng.randint(-200, 200), rng.choice(PRIMES_TO_97))


def _coeff(rng, n):
    masks = {(1 << n) - 1, *(rng.randrange(1 << n) for _ in range(rng.randint(0, 3)))}
    return CliffordNumber(n, {indices_from_mask(m): GaussianRational(_part(rng), _part(rng))
                              for m in masks})


def _poly(rng, n, degree, terms, x0=True):
    """Seeded polynomial whose first term has total degree `degree`; each
    term spreads its x-degree over a random set of axes, so high powers
    of one axis (long Laplacian chains) occur too."""
    data = {}
    for t in range(terms):
        d = degree if t == 0 else rng.randint(0, degree)
        k0 = rng.randint(0, d) if x0 else 0
        axes = rng.sample(range(n), rng.randint(1, n))
        beta = [0] * n
        for _ in range(d - k0):
            beta[rng.choice(axes)] += 1
        data[(k0, tuple(beta))] = _coeff(rng, n)
    return CliffordPolynomial(n, data)


def _scalar(rng):
    return rng.choice([rng.randint(-9, 9), _part(rng), GaussianRational(_part(rng), _part(rng))])


def _derived(rng, f, g, x0=True):
    """f, and f through each numerator operation; g is a second operand.
    With x0 unset every input is x0-free, and so is every output."""
    n = f.n
    axis = rng.randint(0 if x0 else 1, n)
    return [f, f.restrict(), f.partial(axis), f.hermitian_conj(),
            f + g, f - g, f * _scalar(rng), _scalar(rng) * g]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_derivatives_match_oracles(n):
    rng = random.Random(100 + n)
    for degree in _degrees(n, (get_degree_cap(), 9, 7, 5, 3, 1)):
        for f in _derived(rng, _poly(rng, n, degree, terms=4), _poly(rng, n, degree, terms=2)):
            assert f.dirac() == naive_dirac(f)
            assert f.laplacian() == naive_laplacian(f)
            cr = naive_cauchy_riemann(f)
            assert f.cauchy_riemann() == cr
            assert f.is_monogenic() == cr.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacians_are_sums_of_second_partials(n):
    # both Laplacians run the one partial-derivative kernel per axis; the
    # full one adds x0, which only the heat image of the MU_TILDE pairing reaches
    rng = random.Random(150 + n)
    with_x0 = 0
    for degree in (get_degree_cap(), 8, 5, 2):
        for f in _derived(rng, _poly(rng, n, degree, terms=4), _poly(rng, n, degree, terms=2)):
            with_x0 += not f.is_x0_free()
            second = [f.partial(j).partial(j) for j in range(n + 1)]
            for into, axes in ((poly._full_laplacian_into, second),
                               (poly._laplacian_into, second[1:])):
                out = {}
                into(out, f._num)
                assert poly._reduced(n, f._den, out) == sum(axes, CliffordPolynomial.zero(n))
    assert with_x0


@pytest.mark.parametrize("n", DIMENSIONS)
def test_heat_and_ck_extend_match_oracles(n):
    rng = random.Random(200 + n)
    for degree in _degrees(n, (get_degree_cap(), 10, 8, 5, 2, 0)):
        f = _poly(rng, n, degree, terms=3, x0=False)
        g = _poly(rng, n, degree, terms=2, x0=False)
        for f in _derived(rng, f, g, x0=False):
            assert heat(f) == naive_heat(f)
            assert heat(f, inverse=True) == naive_heat(f, inverse=True)
            F = ck_extend(f)
            assert F == naive_ck_extend(f)
            assert F.is_monogenic()


def _coefficients(f):
    return {(k0, tuple(beta)): c for k0, beta, c in f.terms()}


def _from_coefficients(n, data):
    return CliffordPolynomial(n, {key: c for key, c in data.items() if c})


@pytest.mark.parametrize("n", DIMENSIONS)
def test_ring_operations_match_coefficientwise_arithmetic(n):
    # each numerator operation against the same operation on the CliffordNumber
    # coefficients that terms() returns
    rng = random.Random(300 + n)
    for degree in _degrees(n, (6, 3, 0)):
        f, g = _poly(rng, n, degree, terms=4), _poly(rng, n, degree, terms=3)
        cf, cg = _coefficients(f), _coefficients(g)
        zero = CliffordNumber.zero(n)
        for sign, result in ((1, f + g), (-1, f - g)):
            expected = {key: cf.get(key, zero) + sign * cg.get(key, zero) for key in cf.keys() | cg}
            assert result == _from_coefficients(n, expected)
        s = _scalar(rng)
        assert f * s == s * f == _from_coefficients(n, {k: c * s for k, c in cf.items()})
        c = _coeff(rng, n)
        assert f * c == _from_coefficients(n, {k: v * c for k, v in cf.items()})
        assert -f == _from_coefficients(n, {k: -v for k, v in cf.items()})
        assert f.hermitian_conj() == _from_coefficients(
            n, {k: v.hermitian_conj() for k, v in cf.items()})
        assert f.restrict() == _from_coefficients(n, {k: v for k, v in cf.items() if k[0] == 0})
        product = {}
        for (ka, ba), va in cf.items():
            for (kb, bb), vb in cg.items():
                key = (ka + kb, tuple(x + y for x, y in zip(ba, bb)))
                product[key] = product.get(key, zero) + va * vb
        assert f * g == _from_coefficients(n, product)
        for axis in range(n + 1):
            expected = {}
            for (k0, beta), v in cf.items():
                e = k0 if axis == 0 else beta[axis - 1]
                if e:
                    key = (k0 - 1, beta) if axis == 0 else (
                        k0, beta[:axis - 1] + (e - 1,) + beta[axis:])
                    expected[key] = v * e
            assert f.partial(axis) == _from_coefficients(n, expected)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_container_maps_match_oracles(n):
    rng = random.Random(300 + n)
    for degree in _degrees(n, (get_degree_cap(), 9, 6, 3, 0)):
        data = {beta: c for _, beta, c in _poly(rng, n, degree, terms=4, x0=False).terms()}
        other = {beta: c for _, beta, c in _poly(rng, n, degree, terms=2, x0=False).terms()}
        alpha, h = FockElement(n, data), HermiteExpansion(n, data)
        assert h.norm_sq() == naive_expansion_norm_sq(h)
        for a in (alpha, alpha + FockElement(n, other), *map(alpha.grade, alpha.grades())):
            assert fock_norm_sq(a) == naive_fock_norm_sq(a)
            assert _coefficients(fock_to_function(a)) == naive_fock_to_function(a)
        f, g = ck_extend(h.to_polynomial()), sb_transform(HermiteExpansion(n, other))
        for F in (f, f + g):
            assert dict(taylor_map(F).entries()) == naive_taylor_map(F)


def _is_reduced(f):
    """den > 0, gcd(den, every numerator) = 1, no zero pair, no empty key."""
    parts = [x for blades in f._num.values() for pair in blades.values() for x in pair]
    return (type(f._den) is int and f._den > 0 and all(type(x) is int for x in parts)
            and math.gcd(f._den, *parts) == 1 and all(f._num.values())
            and all(re or im for blades in f._num.values() for re, im in blades.values()))


def _results(rng, f, g, h):
    """A polynomial from every operation on f, g and the x0-free h."""
    n = f.n
    s = _scalar(rng)
    alpha = FockElement(n, {beta: c for (_, beta), c in _coefficients(h).items()})
    return [
        f, g, h, CliffordPolynomial.zero(n), f + g, f - g, f + g - g, g - g, -f, f * g,
        f * _coeff(rng, n), f * s, f * 6 * Fraction(1, 6), f * 0, 3 * f, f * Fraction(1, 6),
        f.hermitian_conj(), f.hermitian_conj().hermitian_conj(), f.restrict(),
        f.partial(0), f.partial(n), f.dirac(), f.laplacian(), f.cauchy_riemann(),
        f.dirac().dirac(), -f.laplacian(), heat(h), heat(heat(h), inverse=True),
        heat(h, inverse=True), ck_extend(h), ck_extend(h).restrict(),
        hermite(n, [2 if j < 3 else 0 for j in range(n)]),
        p_basis(n, [1 if j < 5 else 0 for j in range(n)]), sb_transform(h),
        sb_inverse(sb_transform(h)), fock_to_monogenic(alpha),
        fock_to_monogenic(taylor_map(ck_extend(h))),
    ]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_every_result_is_reduced_and_equality_is_termwise(n):
    rng = random.Random(400 + n)
    f, g = _poly(rng, n, 5, terms=4), _poly(rng, n, 4, terms=3)
    h = _poly(rng, n, 5, terms=3, x0=False)
    results = _results(rng, f, g, h)
    for r in results:
        assert _is_reduced(r), r
    for a in results:
        for b in results:
            assert (a == b) == (list(a.terms()) == list(b.terms()))
    # identities make some of those pairs equal, so both outcomes of == occur
    assert f + g - g == f == f.hermitian_conj().hermitian_conj() == f * 6 * Fraction(1, 6)
    assert f.dirac().dirac() == -f.laplacian()
    assert heat(heat(h), inverse=True) == h == ck_extend(h).restrict()


def _seeded_maps(seed):
    """(den, blades) drawn from seed: up to 40 blades of C_6, a fifth of
    them zero pairs, all numerators scaled by a factor that den shares
    in part, or not at all."""
    rng = random.Random(seed)
    den = rng.choice([1, 2, 6, 12, 60, 360])
    scale = rng.choice([1, 2, 3, 6, 10, 12])
    return den, {rng.randrange(64): (0, 0) if rng.random() < 0.2 else
                 (scale * rng.randint(-20, 20), scale * rng.randint(-20, 20))
                 for _ in range(rng.randint(0, 40))}


_SEEDED = [_seeded_maps(seed) + (None,) for seed in range(12)]


def _with_zero_pair(row):
    return (0, 0) in row[1].values()


# (den, blades, expected reduced form), expected None for the seeded rows,
# which are checked against the oracle alone.  The maps of REDUCER_ROWS
# hold no zero pair and go to a reducer as they are; each (0, 0) pair of
# CANCELLED_ROWS is a blade whose pairs a kernel cancels
# (`test_kernels_delete_the_blades_they_cancel`)
REDUCER_ROWS = [
    # an empty map is the canonical zero, whatever its denominator
    (1, {}, (1, {})),
    (6, {}, (1, {})),
    # gcd 1 at the first pair: the map itself is adopted
    (6, {0: (5, 0), 1: (0, 7), 3: (2, -3)}, (6, {0: (5, 0), 1: (0, 7), 3: (2, -3)})),
    # the gcd reaches 1 only at the last numerator: nothing divided, the map adopted
    (6, {0: (2, 4), 1: (0, 6), 3: (4, 3)}, (6, {0: (2, 4), 1: (0, 6), 3: (4, 3)})),
    # the division path, gcd > 1: one scalar blade, the shape of most Gram entries
    (24, {0: (18, 0)}, (4, {0: (3, 0)})),
    # negative numerators divide exactly
    (10, {0: (-4, -6), 2: (-8, 2)}, (5, {0: (-2, -3), 2: (-4, 1)})),
    # a 4,096-blade map, every pair divided
    (12, {m: (3 * (m % 7 + 1), -3 * m) for m in range(4096)},
     (4, {m: (m % 7 + 1, -m) for m in range(4096)})),
    *(row for row in _SEEDED if not _with_zero_pair(row)),
]
CANCELLED_ROWS = [
    # every blade cancelled: the canonical zero, whatever the denominator
    (6, {0: (0, 0), 3: (0, 0)}, (1, {})),
    # gcd 1: the other pairs are kept as they are
    (6, {0: (5, 0), 1: (0, 0), 3: (2, -3)}, (6, {0: (5, 0), 3: (2, -3)})),
    # gcd > 1: the denominator and every numerator divided
    (12, {0: (4, 0), 1: (0, 0), 2: (0, -8), 3: (20, 12)}, (3, {0: (1, 0), 2: (0, -2), 3: (5, 3)})),
    # a gcd > 1 over the first pairs that a later pair breaks: nothing is
    # divided, and the blade cancelled after the break is still gone
    (12, {0: (4, 8), 1: (6, 0), 2: (0, 9), 3: (0, 0), 5: (8, 4)},
     (12, {0: (4, 8), 1: (6, 0), 2: (0, 9), 5: (8, 4)})),
    # a cancelled blade first or last, while the rest is divided
    (12, {0: (0, 0), 1: (4, 8), 3: (0, -6)}, (6, {1: (2, 4), 3: (0, -3)})),
    (12, {1: (4, 8), 3: (0, -6), 5: (0, 0)}, (6, {1: (2, 4), 3: (0, -3)})),
    # two cancelled blades over den 1
    (1, {0: (3, 0), 2: (0, 0), 5: (-2, 7), 6: (0, 0)}, (1, {0: (3, 0), 5: (-2, 7)})),
    # a 2,630-blade map, the size of a large C-K result, whose gcd reaches 1
    # at its last pair, with one cancelled blade
    (30, {**{m: (6 * m + 6, -3 * (m % 5)) if m != 1000 else (0, 0) for m in range(2629)},
          2629: (5, 0)},
     (30, {**{m: (6 * m + 6, -3 * (m % 5)) for m in range(2629) if m != 1000}, 2629: (5, 0)})),
    *(row for row in _SEEDED if _with_zero_pair(row)),
]


def _oracle_pair(den, blades, expected):
    """naive_reduce of the one map blades over den, as (den, map), and
    expected equal to it where a row gives it."""
    oracle_den, oracle_maps = naive_reduce(den, {0: blades})
    oracle = (oracle_den, oracle_maps.get(0, {}))
    assert expected is None or expected == oracle
    return oracle


@pytest.mark.parametrize("den, blades, expected", REDUCER_ROWS)
def test_reducer_through_both_classes(den, blades, expected):
    # both reducers give the reduced form that one Fraction per part gives
    expected = _oracle_pair(den, blades, expected)
    given = dict(blades)
    x = CliffordNumber._reduced(2, den, given)
    assert (x._den, x._blades) == expected
    key = (0, (1, 0))
    # keys left without a blade are dropped
    given_f = dict(blades)
    maps = {key: given_f, (1, (0, 0)): {}, (0, (0, 1)): {}}
    f = poly._reduced(2, den, maps)
    assert (f._den, f._num) == (expected[0], {key: expected[1]} if expected[1] else {})
    divided = expected[0] != den
    if not divided:
        # nothing is divided at gcd 1: the stored pairs are the input's
        for stored in (x._blades, f._num.get(key, {})):
            assert all(stored[m] is blades[m] for m in stored)
    # at gcd 1 a number adopts its map, and a polynomial each blade map it
    # keeps; only an empty key makes a new top-level map, and a map with
    # no empty key is adopted whole.  A divided map leaves its input as it was
    assert (x._blades is given) == (not divided)
    assert (f._num.get(key) is given_f) == (not divided and bool(blades))
    assert f._num is not maps
    whole = {key: given_f}
    assert (poly._reduced(2, den, whole)._num is whole) == (not divided and bool(blades))
    assert given == given_f == blades
    # the gcd spans every key of a polynomial, and an empty key is dropped
    # on the division path too
    g = poly._reduced(2, 4, {(0, (1, 0)): {0: (2, 4)}, (0, (0, 1)): {1: (6, 0)}, (0, (2, 0)): {}})
    assert (g._den, g._num) == (2, {(0, (1, 0)): {0: (1, 2)}, (0, (0, 1)): {1: (3, 0)}})
    # and it stops where it reaches 1: at the last numerator of the last
    # key, or in the first key with every later key divisible; then nothing
    # is divided and the map of maps is adopted
    for den, maps in ((6, {(0, (1, 0)): {0: (2, 4)}, (0, (0, 1)): {1: (6, 0), 2: (0, 3)}}),
                      (4, {(0, (1, 0)): {0: (1, 0)}, (0, (0, 1)): {1: (2, 4)}})):
        given_maps = dict(maps)
        g = poly._reduced(2, den, given_maps)
        assert g._den == den and all(g._num[key] is maps[key] for key in maps)
        assert g._num is given_maps and len(g._num) == len(maps)


def _times(left, right):
    """left * right as a new numerator map, one blade pair at a time and
    the zero sums dropped: the set-up of the kernel rows, outside the
    kernels under test."""
    out = {}
    for a, (ar, ai) in left.items():
        q = clifford._sign_mask(a)
        for b, (br, bi) in right.items():
            s = -1 if (q & b).bit_count() & 1 else 1
            re, im = out.get(a ^ b, (0, 0))
            out[a ^ b] = (re + s * (ar * br - ai * bi), im + s * (ar * bi + ai * br))
    return {m: v for m, v in out.items() if v != (0, 0)}


# (a, c), a > |c|, of a paravector a + c e_j, whose product with a - c e_j
# is a^2 + c^2, or of a + i c e_j, whose product with a - i c e_j is a^2 - c^2
_PARAVECTORS = ((2, 1), (3, -1), (3, 2), (4, 1), (3, -2), (5, 2))


def _unit_pair(g, imaginary):
    """(X, Y, N) with X Y = N, a positive integer: X the product of the
    first g paravectors on e_1 .. e_g, with a blade on every mask below
    2^g, and Y the product of their conjugates in reverse order.  With
    imaginary set, c e_j is i c e_j, so that X holds real parts on the
    even grades and imaginary parts on the odd ones, and a packed sum of
    its pairs can cancel to a nonzero multiple of the packing modulus."""
    x = y = {0: (1, 0)}
    norm = 1
    for j, (a, c) in enumerate(_PARAVECTORS[:g]):
        x = _times(x, {0: (a, 0), 1 << j: (0, c) if imaginary else (c, 0)})
        y = _times({0: (a, 0), 1 << j: (0, -c) if imaginary else (-c, 0)}, y)
        norm *= a * a - c * c if imaginary else a * a + c * c
    return x, y, norm


def _packs(left, right):
    """Whether `_product_numerators` sends left * right to `_packed_product`."""
    width = max(max(left), max(right)).bit_length()
    return len(left) * len(right) >= max(clifford._PACK_MIN_PAIRS,
                                         clifford._PACK_PAIRS_PER_BLADE << width)


# Each kernel takes (prefill, rest), two maps with no zero pair whose sum
# is the target map without its zero pairs, every mask of a zero pair in
# both, with parts that cancel.  It returns (scale, run): run() makes the
# one kernel call, whose pairs sum to scale * (prefill + rest), and
# returns the map it accumulated into.  So each zero pair of the target
# is a blade that the kernel reaches and cancels; the product kernels
# also cancel, within their one call, every mask they reach outside the
# target.

def _by_add_scaled(prefill, rest):
    # prefill - (-1) * rest
    acc, negated = dict(prefill), clifford._scaled(rest, -1)
    return 1, lambda: clifford._add_scaled(acc, negated, -1) or acc


def _by_generator_product(prefill, rest):
    # prefill + e_3 (-e_3 rest)
    acc, shifted = dict(prefill), {}
    clifford._generator_product(shifted, 2, rest, -1)
    return 1, lambda: clifford._generator_product(acc, 2, shifted, 1) or acc


def _product_inputs(prefill, rest, g, imaginary=True):
    """(N, X, Y rest, N prefill) for X Y = N over g generators."""
    x, y, norm = _unit_pair(g, imaginary)
    return norm, x, _times(y, rest), clifford._scaled(prefill, norm)


def _by_pair_loop(prefill, rest):
    norm, x, right, acc = _product_inputs(prefill, rest, 1)
    assert not _packs(x, right)
    return norm, lambda: _product_numerators(acc, x, right) or acc


def _by_packed_product(prefill, rest):
    # X on three generators has all 8 blades of C_3, so every row packs
    norm, x, right, acc = _product_inputs(prefill, rest, 3)
    assert _packs(x, right)
    return norm, lambda: _product_numerators(acc, x, right) or acc


def _by_plan_product(prefill, rest):
    # total[0] += 2 X (Y rest), from a prefill of 2 N prefill
    norm, x, right, acc = _product_inputs(prefill, rest, 2, imaginary=False)
    total = {0: clifford._scaled(acc, 2)}
    plan = _sign_plan([(0, x)])
    return 2 * norm, lambda: _plan_product(total, plan, right, 2) or total[0]


def _by_plan_pairing(prefill, rest):
    # X (Y rest) + N prefill, in one new map
    norm, x, right, _ = _product_inputs(prefill, rest, 2)
    plans = {0: tuple((m, clifford._sign_mask(m), re, im) for m, (re, im) in x.items()),
             1: ((0, 0, norm, 0),)}
    return norm, lambda: clifford._plan_pairing(plans, {0: right, 1: prefill}, (0, 1))


KERNELS = {"add_scaled": _by_add_scaled, "generator_product": _by_generator_product,
           "pair_loop": _by_pair_loop, "packed_product": _by_packed_product,
           "plan_product": _by_plan_product, "plan_pairing": _by_plan_pairing}


def _split(target):
    """(prefill, rest) of a target map: a nonzero prefill pair at each
    zero pair of the target and at every other of its other masks, rest
    the target minus prefill; neither holds a zero pair."""
    prefill = {}
    for i, (m, pair) in enumerate(target.items()):
        if pair == (0, 0) or i % 2 and pair != (i, 1):
            prefill[m] = (i + 1, -i - 2) if pair == (0, 0) else (i, 1)
    rest = {m: (re - prefill.get(m, (0, 0))[0], im - prefill.get(m, (0, 0))[1])
            for m, (re, im) in target.items()}
    return prefill, rest


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("den, blades, expected", CANCELLED_ROWS)
def test_kernels_delete_the_blades_they_cancel(monkeypatch, kernel, den, blades, expected):
    # a zero pair of each row is a blade whose pairs cancel in the kernel
    # call that makes them: the kernel deletes it where the sum is made, so
    # no zero pair and, after either reducer, no empty key is left, and the
    # reduced form is the one that one Fraction per part gives
    expected = _oracle_pair(den, blades, expected)
    prefill, rest = _split(blades)
    assert all(re or im for part in (prefill, rest) for re, im in part.values())
    scale, run = KERNELS[kernel](prefill, rest)
    packed, original = [], clifford._packed_product
    monkeypatch.setattr(clifford, "_packed_product",
                        lambda *args: packed.append(args) or original(*args))
    acc = run()
    assert len(packed) == (kernel == "packed_product")
    # the kernel left the blades of the nonzero pairs, and only those
    assert (0, 0) not in acc.values() and set(acc) == set(expected[1])
    x = CliffordNumber._reduced(2, den * scale, dict(acc))
    assert (x._den, x._blades) == expected
    key = (0, (1, 0))
    f = poly._reduced(2, den * scale, {key: dict(acc), (0, (0, 1)): {}})
    assert (f._den, f._num) == (expected[0], {key: expected[1]} if expected[1] else {})
    assert _is_reduced(f)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_constructor_and_parser_store_the_oracle_reduced_form(n):
    # both take parts in lowest terms to the stored form through
    # `clifford._over_lcm` alone, with no reducer after it: the result is
    # the one that one Fraction per part gives, zero pairs and keys left
    # without a blade dropped, and gcd(den, every numerator) = 1
    rng = random.Random(600 + n)
    values = {}
    for j in range(4):
        beta = tuple(j * (i == j % n) for i in range(n))
        masks = [(1 << n) - 1, *(rng.randrange(1 << n) for _ in range(3))]
        values[j % 2, beta] = {m: GaussianRational(_part(rng), _part(rng) if rng.random() < 0.7 else 0)
                               for m in masks}
    # a zero pair, a pair with one zero part, and a key whose every value is zero
    first, last = list(values)[0], list(values)[-1]
    values[first][1] = GaussianRational()
    values[first][2 % (1 << n)] = GaussianRational(0, Fraction(-3, 97))
    values[last] = {m: GaussianRational() for m in values[last]}
    common = math.prod(part.denominator for coeffs in values.values()
                       for v in coeffs.values() for part in (v.re, v.im))

    def oracle(maps):
        return naive_reduce(common, {key: {m: (int(v.re * common), int(v.im * common))
                                           for m, v in coeffs.items()}
                                     for key, coeffs in maps.items()})

    def wire(coeffs):
        return [{"blade": list(indices_from_mask(m)), "re": str(v.re), "im": str(v.im)}
                for m, v in coeffs.items()]

    for coeffs in values.values():
        den, maps = oracle({0: coeffs})
        x = CliffordNumber(n, {indices_from_mask(m): v for m, v in coeffs.items()})
        for value in (x, serialize.clifford_from_json(wire(coeffs), n)):
            assert (value._den, value._blades) == (den, maps.get(0, {}))
            pairs = value._blades.values()
            assert math.gcd(value._den, *(part for pair in pairs for part in pair)) == 1
            assert all(re or im for re, im in pairs)
    f = serialize.poly_from_json({"n": n, "terms": [
        {"x0": k0, "beta": list(beta), "coeff": wire(coeffs)} for (k0, beta), coeffs in values.items()]})
    assert (f._den, f._num) == oracle(values)
    assert last not in f._num and _is_reduced(f)
    assert n <= 8 or any(mask >> 8 for blades in f._num.values() for mask in blades)


def test_reducer_stops_at_the_first_unit_gcd(monkeypatch):
    # a 4,096-blade map whose first pair is coprime to den takes one gcd
    # call, not one over every numerator, and gives the value that the gcd
    # over every numerator gives
    den = 6
    blades = {0: (5, 0), **{m: (6 * m, -6) for m in range(1, 4096)}}
    whole = math.gcd(den, *(part for pair in blades.values() for part in pair))
    calls = []

    def counted(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(clifford, "gcd", counted)
    x = CliffordNumber._reduced(12, den, blades)
    assert calls == [(6, 5, 0)]
    assert whole == 1 and x._den == den // whole and x._blades is blades
    # over the keys of a polynomial too: the second map is not read
    calls.clear()
    f = poly._reduced(12, den, {(0, (1,) + (0,) * 11): blades, (0, (0,) * 12): {0: (6, 0)}})
    assert calls == [(6, 5, 0)] and f._den == den


def test_reducers_call_their_helpers_only_where_needed(monkeypatch):
    # both reducers take the gcd in one `_numerator_gcd` call and rebuild a
    # map through `_divided` only when it divides, so a polynomial with
    # nothing to divide pays no call per key, not even for a blade that its
    # kernel cancelled or a key it left empty; a number reduces over its
    # own map, not through `_reduce`
    calls = []

    def counted(helper):
        def wrapper(*args):
            calls.append(helper.__name__)
            return helper(*args)
        return wrapper

    def unused(*args):
        raise AssertionError("CliffordNumber._reduced called _reduce")

    monkeypatch.setattr(clifford, "_numerator_gcd", counted(clifford._numerator_gcd))
    monkeypatch.setattr(clifford, "_divided", counted(clifford._divided))
    monkeypatch.setattr(clifford, "_reduce", unused)
    keys = [(0, (a, b)) for a in range(8) for b in range(8 - a)]

    def reduced_poly(den, maps):
        calls.clear()
        return poly._reduced(2, den, maps)

    maps = {key: {0: (5, 1), 3: (2, 2)} for key in keys}
    f = reduced_poly(6, maps)
    assert calls == ["_numerator_gcd"] and f._num is maps
    f = reduced_poly(1, maps)
    assert calls == ["_numerator_gcd"] and f._num is maps
    # a blade cancelled where `_add_scaled` made its sum, then a key left empty
    maps[keys[7]] = {0: (5, 1), 1: (2, 3)}
    clifford._add_scaled(maps[keys[7]], {1: (2, 3)}, -1)
    f = reduced_poly(6, maps)
    assert calls == ["_numerator_gcd"] and f._num is maps and f._num[keys[7]] == {0: (5, 1)}
    clifford._add_scaled(maps[keys[7]], {0: (5, 1)}, -1)
    f = reduced_poly(6, maps)
    assert calls == ["_numerator_gcd"] and keys[7] not in f._num
    assert all(f._num[key] is maps[key] for key in keys if key != keys[7])
    # a gcd above 1 reads every map in the one call, and divides each
    f = reduced_poly(4, {key: {0: (2, 6)} for key in keys[:3]})
    assert calls == ["_numerator_gcd"] + ["_divided"] * 3 and f._den == 2
    for den, blades, expected in ((6, {0: (5, 0)}, ["_numerator_gcd"]),
                                  (1, {}, ["_numerator_gcd"]),
                                  (24, {0: (18, 0)}, ["_numerator_gcd", "_divided"])):
        calls.clear()
        CliffordNumber._reduced(2, den, blades)
        assert calls == expected


@pytest.mark.parametrize("n", [1, 3, 8])
def test_plan_product_is_the_real_blade_product(n):
    # one kernel call over a plan equals one product per term, the scale folded in
    rng = random.Random(500 + n)
    for _ in range(20):
        terms = [((k, (k,)), {rng.randrange(1 << n): (rng.randint(-9, 9) or 1, 0)})
                 for k in range(rng.randint(1, 4))]
        right = _coeff(rng, n)._blades
        c = rng.choice([1, 1, 2, -3, 10 ** 20])
        total = {terms[0][0]: {rng.randrange(1 << n): (1, -1)}}
        expected = copy.deepcopy(total)
        _plan_product(total, _sign_plan(terms), right, c)
        for key, left in terms:
            _product_numerators(expected.setdefault(key, {}),
                                {m: (c * re, im) for m, (re, im) in left.items()}, right)
        assert total == expected


def test_values_sharing_maps_leave_their_source_unchanged():
    # restrict, FockElement.grade, terms() and coefficient() may share blade
    # maps with their source; nothing done to either may change the other
    rng = random.Random(9)
    n = 3
    h = _poly(rng, n, 6, terms=4, x0=False)
    F = ck_extend(h)
    G = h + CliffordPolynomial.monomial(n, 2, (1, 0, 0), 5)  # restricts to h
    r = G.restrict()
    # over the denominator 6, its weight-1 part and the entry at (0, 0, 2)
    # have coprime numerators, so their grades and that entry share maps
    alpha = FockElement(n, {(1, 0, 0): CliffordNumber.blade(n, (1,), Fraction(1, 2)),
                            (0, 0, 2): CliffordNumber.blade(
                                n, (2,), GaussianRational(Fraction(1, 2), Fraction(1, 3))),
                            (0, 1, 0): CliffordNumber.scalar(n, GaussianRational(0, Fraction(1, 3))),
                            (2, 0, 1): CliffordNumber(n, {(1, 2): 7, (3,): GaussianRational(0, 1)})})
    grades = [alpha.grade(k) for k in alpha.grades()]
    coeffs = ([c for _, _, c in F.terms()] + [r.coefficient(k0, beta) for k0, beta in r._num]
              + [c for _, c in alpha.entries()] + [alpha.entry((0, 0, 2))])
    # the sharing this test is about happens
    assert any(r._num[key] is G._num[key] for key in r._num)
    assert any(g._poly._num[key] is alpha._poly._num[key] for g in grades for key in g._poly._num)
    assert alpha.entry((0, 0, 2))._blades is alpha._poly._num[0, (0, 0, 2)]
    values = [F, G, r, alpha._poly, *(g._poly for g in grades)]
    before = [copy.deepcopy((f._den, f._num)) for f in values], copy.deepcopy(
        [(c._den, c._blades) for c in coeffs])
    for f in (r, F.restrict()):
        heat(f), heat(f, inverse=True), ck_extend(f), sb_transform(f), sb_inverse(ck_extend(f))
        serialize.poly_to_json(f), serialize.poly_to_text(f), repr(f), f.hermitian_conj()
        gauss.inner_rho(f, f), gauss.inner_mu(f, F)
    for g in grades:
        ck_extend(g._poly), fock_to_monogenic(g), fock_norm_sq(g), g + alpha
        serialize.fock_to_json(g), serialize.fock_to_text(g), repr(g)
    taylor_map(F), sb_inverse(F), serialize.fock_to_json(alpha), serialize.fock_to_text(alpha)
    for c in coeffs:
        c * c, c + c, -c, c.hermitian_conj(), c.grade(1), c.inner(c), c * Fraction(1, 3)
        serialize.clifford_to_json(c), serialize.clifford_to_text(c), repr(c)
        CliffordPolynomial.constant(c) * F
    assert ([(f._den, f._num) for f in values], [(c._den, c._blades) for c in coeffs]) == before


def test_the_monogenic_mark_does_not_leak():
    rng = random.Random(7)
    n = 3
    F = ck_extend(_poly(rng, n, 5, terms=3, x0=False))
    assert F._monogenic
    G = ck_extend(_poly(rng, n, 4, terms=2, x0=False))
    for derived in (F + G, F - G, -F, F.restrict(), F * 2, 2 * F, F * Fraction(1, 3),
                    F * CliffordNumber.basis(n, 1), F * G, F.hermitian_conj(),
                    F.partial(1), F.dirac(), heat(F.restrict()), CliffordPolynomial(n, dict(
                        ((k0, beta), c) for k0, beta, c in F.terms()))):
        assert not derived._monogenic
    assert F._monogenic and G._monogenic
    bump = CliffordPolynomial.monomial(n, 0, (1, 0, 0), CliffordNumber.basis(n, 2))
    for broken in (F + bump, F - bump, bump + F):
        assert not broken.is_monogenic()
        with pytest.raises(NotMonogenicError):
            taylor_map(broken)
        with pytest.raises(NotMonogenicError):
            sb_inverse(broken)


def test_is_monogenic_computes_on_marked_values(monkeypatch):
    calls = []
    kernel = poly._cauchy_riemann

    def counting(data):
        calls.append(1)
        return kernel(data)

    monkeypatch.setattr(poly, "_cauchy_riemann", counting)
    F = ck_extend(_poly(random.Random(8), 3, 5, terms=3, x0=False))
    assert F._monogenic
    assert F.is_monogenic()
    assert len(calls) == 1
    # the preconditions of the Taylor map and the inverse transform read the mark
    taylor_map(F)
    sb_inverse(F)
    assert len(calls) == 1


def test_zero_polynomial():
    zero = CliffordPolynomial.zero(3)
    for op in (CliffordPolynomial.dirac, CliffordPolynomial.laplacian,
               CliffordPolynomial.cauchy_riemann, heat, ck_extend):
        assert op(zero).is_zero()
    assert zero.is_monogenic()


@pytest.mark.parametrize("n, beta", [(1, (4,)), (2, (2, 1)), (3, (1, 1, 1)), (3, (0, 2, 1))])
def test_perturbed_p_basis_is_not_monogenic(n, beta):
    # every blade of every monomial of P_beta, present or not, in either part
    P = p_basis(n, beta)
    assert P.is_monogenic()
    for k0, gamma, _ in P.terms():
        for mask in range(1 << n):
            for delta in (GaussianRational(Fraction(1, 97)), GaussianRational(0, -1)):
                bump = CliffordNumber.blade(n, indices_from_mask(mask), delta)
                assert not (P + CliffordPolynomial.monomial(n, k0, gamma, bump)).is_monogenic()


def test_cap_errors_where_the_oracles_raise():
    # polynomials built under a higher cap, then operated on under the default
    cap = get_degree_cap()
    set_degree_cap(cap + 2)
    try:
        rng = random.Random(11)
        above = _poly(rng, 2, cap + 1, terms=3, x0=False)
        far_above = _poly(rng, 2, cap + 2, terms=3)
    finally:
        set_degree_cap(cap)
    for op in (heat, naive_heat, functools.partial(heat, inverse=True),
               functools.partial(naive_heat, inverse=True), ck_extend, naive_ck_extend):
        with pytest.raises(DegreeCapError):
            op(above)
    # one derivative of a degree cap + 1 polynomial is within the cap
    assert above.dirac() == naive_dirac(above)
    assert above.laplacian() == naive_laplacian(above)
    for op in (CliffordPolynomial.dirac, naive_dirac,
               CliffordPolynomial.cauchy_riemann, naive_cauchy_riemann):
        with pytest.raises(DegreeCapError):
            op(far_above)
