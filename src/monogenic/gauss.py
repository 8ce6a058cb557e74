"""Exact Gaussian integration of Clifford-valued polynomials.

Two probability measures appear:

* RHO on R^n, density (2*pi)^(-n/2) exp(-|x|^2 / 2): per-axis variance 1.
* MU_TILDE on R^{n+1}, density pi^(-(n+1)/2) exp(-x0^2 - |x|^2): per-axis
  variance 1/2.

A monomial x0^k0 x^beta integrates to the product of its 1-D moments
(`moment`): under RHO the moment of exponents e is the integer
prod (e_i - 1)!!; under MU_TILDE it is that product over 2^(|e|/2).
Either vanishes as soon as one exponent is odd.

Pairings do not sum moments.  They use the real Segal-Bargmann isometry
onto the Fock space with the Fischer product (Bargmann 1961, Fischer
1917): with s the per-axis variance over the axes X of the measure,

    integral of conj(f) g = sum_key s^|key| key! conj(A_key) B_key,

where A = exp(s Lap_X / 2) f and B = exp(s Lap_X / 2) g are heat images,
key = (k0, beta), key! = k0! beta!, and the product is the Clifford
product of the two coefficients at the same monomial.  The heat images
come from the cached monomial maps of `transform` (`_apply`): under RHO
A = heat(f), the series of the Laplacian over x1..xn with scale 2
(`transform._HEAT`); under MU_TILDE the series of the Laplacian over
x0..xn with scale 4 (`transform._FULL_HEAT`).  On a monogenic value the
Laplacian over x0..xn is zero, so that image is the value itself: a
value with the `_monogenic` mark (a result of `ck_extend` or `p_basis`)
is its own MU_TILDE image, and any other value goes through `_apply`.

Each polynomial is prepared at most once per measure, and the prepared
form is cached on the immutable value (`CliffordPolynomial._fischer`,
one entry per measure, replaced by one store of a finished pair).  The
form has two roles, both integer numerators over one denominator.  The
right role, built on first use, is the heat image A over its denominator
den, the frozenset of its keys, and per key the weight key! (times
2^(T - |key|) under MU_TILDE, T the top degree) over den (times 2^T),
key! from `poly._key_factorial`, the one home of that Fischer weight,
and the lowest and the highest total degree k0 + |beta| of A.
The left role, each conj(A_key) times its weight as a sign plan
((A, q_A, re, im), ...) with the sign mask q_A of each blade
(`clifford._conjugate_plan`), is built from the right role only when
`clifford_pairing` first needs it, and is published by storing the
whole form again.  Preparing a value costs more than
pairing it once term by term with moments would; the form pays off when
a value is paired again, as in `gram`.

One kernel, `_pairing`, serves `clifford_pairing`, `inner_rho` and
`inner_mu`, one call each, and `gram`, one call per entry.  It checks
the dimensions, reads both cached forms, and tests first the two degree
ranges, then the two key sets (a frozenset keeps each key's hash, so the
test hashes no key tuple again).  Entries whose heat images share no
total degree, such as homogeneous parts of different degree and most
entries of a Gram table, or failing that no key, are then the shared
zero of their dimension, built once in `clifford` (`_ZEROS`): the same
object for every such entry, allocated by no pairing.  Equal keys have
equal degree, so the range test is exact for every input, homogeneous
or not; the key-set test stays for the ranges that overlap.  Otherwise
`clifford_pairing` is one call of `clifford._plan_pairing`, which adds
the left plans times the right role's maps over all shared keys into
one map, and the result is reduced once.  The scalar products `inner_rho` and `inner_mu` need only
the grade-0 part.  conj(e_A) e_B has a scalar part only when A = B, and
there it is 1, so they sum conj(a_A) b_A over the shared blades of the
shared keys of the two right roles, each key with the left operand's
weight (`clifford._shared_blade_sum`, the one weighted blade sum that
`CliffordNumber.inner` and both container norms use too); they never
build a left role.  `gram` yields the pairings of every f of one list
with every g of another, row by row.

`moment`, `clifford_pairing` and `gram` take the measure as a `Measure`
member and raise TypeError for anything else, such as the strings "rho"
and "mu", instead of reading it as one of the two.  `_check_measure`
tests it by identity against the two members, bound once at import, and
returns the MU_TILDE flag, so no call reads a member through the Enum
class; the identity tests accept exactly what an isinstance test did,
with the same message.  `clifford_pairing`, once per Gram entry, tests
MU_TILDE itself and calls `_check_measure` for any other measure.
`gram` checks it once per table, before any row, so a bad measure
raises whatever the operands, even with no columns.  `moment` takes
beta as a tuple or a list, and raises TypeError naming beta for
anything else before it unpacks it, so a str is not read character by
character.  Every pairing raises TypeError
for an operand that is not a `CliffordPolynomial`, such as a
`HermiteExpansion` or a number, after the dimension check: an operand
of another dimension raises DimensionMismatchError first.  The kernel and `gram`'s row check turn
the AttributeError of a value without the polynomial's slots into it,
so the pairing loop pays no isinstance test; every other container
check of the library is `clifford._checked`.  Pairing results may be
shared objects, and like every value they are not to be mutated.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Sequence

from .clifford import (
    CliffordNumber,
    GaussianRational,
    _ZEROS,
    _conjugate_plan,
    _gaussian_over,
    _is_int,
    _plan_pairing,
    _shared_blade_sum,
)
from .poly import CliffordPolynomial, _key_factorial
from .transform import _FULL_HEAT, _HEAT, _apply


class Measure(enum.Enum):
    RHO = "rho"
    MU_TILDE = "mu"


# the members, read once: on CPython 3.11 each read of `Measure.RHO` goes
# through EnumType.__getattr__, about five times a plain attribute's cost
_RHO, _MU_TILDE = Measure.RHO, Measure.MU_TILDE

_NOT_POLYNOMIALS = "pairings take CliffordPolynomial operands"


def _check_measure(measure: Measure) -> bool:
    """True under MU_TILDE, False under RHO, and TypeError for anything
    else.  An Enum with members has no subclass, so the two identity tests
    accept exactly the Measures."""
    if measure is _MU_TILDE:
        return True
    if measure is not _RHO:
        raise TypeError(f"measure must be a Measure, got {measure!r}")
    return False


def moment(measure: Measure, k0: int, beta: Sequence[int]) -> Fraction:
    """Exact moment of x0^k0 * x^beta under the given measure."""
    mu = _check_measure(measure)
    exponents = (k0, *beta)
    for e in exponents:
        if not _is_int(e, 0):
            raise ValueError(f"moment exponents must be nonnegative ints, got {exponents}")
    if not mu and k0 != 0:
        raise ValueError("the R^n measure has no x0 axis")
    total = 1
    for e in exponents:
        if e % 2:
            return Fraction(0)
        total *= prod(range(e - 1, 0, -2))
    if not mu:
        return Fraction(total)
    return Fraction(total, 2 ** (sum(exponents) // 2))


def _store(f: CliffordPolynomial, mu: bool, form: tuple) -> tuple:
    """Cache form on f under MU_TILDE if mu, else RHO, by one store of a
    finished pair, and return it.  A concurrent store may drop the other
    measure's form, which is then built again; none is seen half-built."""
    rho, mu_tilde = f._fischer
    f._fischer = (rho, form) if mu else (form, mu_tilde)
    return form


def _form(f: CliffordPolynomial, mu: bool) -> tuple:
    """(den, A, keys, weights, wden, None, low, top): the right role of f
    under MU_TILDE if mu, else RHO.  A is the heat image of f over den,
    keys the frozenset of its keys, and weights gives each key its weight
    over wden: key! 2^(T - |key|) over den 2^T under MU_TILDE (T = top,
    the highest total degree k0 + |beta| of A), key! over den under RHO.
    Slot 5 is the left role.  low and top bound the total degrees of A
    (both 0 when A is zero): `_pairing` tests them before the key sets,
    since equal keys have equal degree."""
    if not mu and not f.is_x0_free():
        raise ValueError("the R^n measure requires x0-free polynomials")
    # a monogenic value is its own MU_TILDE heat image: its full Laplacian is zero
    den, image = ((f._den, f._num) if mu and f._monogenic
                  else _apply(f, _FULL_HEAT if mu else _HEAT))
    degrees = [k0 + sum(beta) for k0, beta in image]
    low, top = min(degrees, default=0), max(degrees, default=0)
    weights = {key: _key_factorial(key) << mu * (top - d) for key, d in zip(image, degrees)}
    return _store(f, mu, (den, image, frozenset(image), weights, den << mu * top, None, low, top))


def _with_left(f: CliffordPolynomial, form: tuple, mu: bool) -> tuple:
    """form with its left role, the sign plan of weight * conj(A_key) over
    wden per key (`clifford._conjugate_plan`), in slot 5, cached on f:
    built the first time `clifford_pairing` needs it."""
    left = {key: _conjugate_plan(blades, form[3][key]) for key, blades in form[1].items()}
    return _store(f, mu, form[:5] + (left,) + form[6:])


def _pairing(f: CliffordPolynomial, g: CliffordPolynomial, mu: bool,
             full: bool) -> CliffordNumber | GaussianRational:
    """Integral of conj(f) * g under MU_TILDE if mu, else RHO: the Clifford
    number if full, else its scalar part.  The one pairing kernel: after the
    dimension check it reads both cached forms (TypeError unless both are
    polynomials), and operands whose heat images share no total degree,
    or failing that no key, pair to the shared zero of their dimension."""
    try:
        if f.n != g.n:
            f._check_dim(g)
        a = f._fischer[mu] or _form(f, mu)
        b = g._fischer[mu] or _form(g, mu)
    except AttributeError:
        raise TypeError(_NOT_POLYNOMIALS) from None
    if a[7] < b[6] or b[7] < a[6] or a[2].isdisjoint(b[2]):
        return _ZEROS[f.n if full else 0]
    if full:
        left = a[5] or _with_left(f, a, mu)[5]
        return CliffordNumber._reduced(f.n, a[4] * b[0], _plan_pairing(left, b[1], a[2] & b[2]))
    # conj(e_A) e_A = 1: the scalar part sums the shared blades, f's weights
    image, weights, right = a[1], a[3], b[1]
    re, im = _shared_blade_sum((weights[key], image[key], right[key]) for key in a[2] & b[2])
    return _gaussian_over(re, im, a[4] * b[0])


def clifford_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                     measure: Measure) -> CliffordNumber:
    """Full Clifford-valued pairing: integral of conj(f) * g, the Clifford
    products over the keys the heat images share."""
    return _pairing(f, g, measure is _MU_TILDE or _check_measure(measure), True)


def gram(fs: Iterable[CliffordPolynomial], gs: Iterable[CliffordPolynomial],
         measure: Measure) -> Iterator[list[CliffordNumber]]:
    """Rows [clifford_pairing(f, g, measure) for g in gs], one per f in fs,
    computed as they are consumed.  Each row checks f against the
    dimension of every g before it prepares any operand.  gs is read
    once, into a list, when the first row is requested, after the measure
    is checked, once per table."""
    mu = _check_measure(measure)
    gs = list(gs)
    for f in fs:
        try:
            for g in gs:
                f._check_dim(g)
        except AttributeError:
            raise TypeError(_NOT_POLYNOMIALS) from None
        yield [_pairing(f, g, mu, True) for g in gs]


def inner_rho(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<f, g> over R^n: scalar part of the RHO pairing."""
    return _pairing(f, g, False, False)


def inner_mu(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<F, G> over R^{n+1}: scalar part of the MU_TILDE pairing."""
    return _pairing(f, g, True, False)
