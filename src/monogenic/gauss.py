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
one entry per measure, filled by one store of a finished tuple).  It has
two roles, both integer numerators over one denominator: as right
operand, the heat image A over its denominator den; as left operand,
each conj(A_key) weighted by key! (times 2^(T - |key|) under MU_TILDE,
T the top degree) over den (times 2^T).  A pairing is then one loop over the keys the two operands
share, with the numerator helpers of the Clifford product
(`clifford._conjugated`, `_product_numerators`), and the result is
reduced once.  Entries whose operands share no key, such as homogeneous
parts of different degree, are the canonical zero at once.  Preparing a
value costs more than pairing it once term by term with moments would;
the form pays off when a value is paired again, as in `gram`.

The scalar products `inner_rho` and `inner_mu` need only the grade-0
part.  conj(e_A) e_B has a scalar part only when A = B, and there it is
1, so they sum conj(a_A) b_A over the shared blades of the shared keys,
each key with weight 1 (`clifford._shared_blade_sum`, the one weighted
blade sum that `CliffordNumber.inner` and both container norms use too).
`gram` yields the pairings of every f of one list with every g of
another, row by row.

`moment` and `clifford_pairing` (and so `gram`) take the measure as a
`Measure` member and raise TypeError for anything else, such as the
strings "rho" and "mu", instead of reading it as one of the two.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .clifford import (
    CliffordNumber,
    GaussianRational,
    _add_scaled,
    _conjugated,
    _gaussian_over,
    _is_int,
    _product_numerators,
    _shared_blade_sum,
)
from .poly import CliffordPolynomial
from .transform import _FULL_HEAT, _HEAT, _apply


class Measure(enum.Enum):
    RHO = "rho"
    MU_TILDE = "mu"


def _check_measure(measure: Measure) -> None:
    if not isinstance(measure, Measure):
        raise TypeError(f"measure must be a Measure, got {measure!r}")


def moment(measure: Measure, k0: int, beta: Sequence[int]) -> Fraction:
    """Exact moment of x0^k0 * x^beta under the given measure."""
    _check_measure(measure)
    exponents = (k0, *beta)
    for e in exponents:
        if not _is_int(e, 0):
            raise ValueError(f"moment exponents must be nonnegative ints, got {exponents}")
    if measure is Measure.RHO and k0 != 0:
        raise ValueError("the R^n measure has no x0 axis")
    total = 1
    for e in exponents:
        if e % 2:
            return Fraction(0)
        total *= prod(range(e - 1, 0, -2))
    if measure is Measure.RHO:
        return Fraction(total)
    return Fraction(total, 2 ** (sum(exponents) // 2))


def _form(f: CliffordPolynomial, mu: bool) -> tuple[tuple, tuple]:
    """((den, A), (left den, left)) for f under MU_TILDE if mu, else RHO:
    the heat image A of f as right operand, and as left operand each
    conj(A_key) times key! 2^(T - |key|) over den 2^T under MU_TILDE, or
    times key! over den under RHO.  Built once per value and measure, and
    cached on f by one store of a finished pair."""
    cache = f._fischer or (None, None)
    if cache[mu] is not None:
        return cache[mu]
    if not mu and not f.is_x0_free():
        raise ValueError("the R^n measure requires x0-free polynomials")
    # a monogenic value is its own MU_TILDE heat image: its full Laplacian is zero
    den, image = ((f._den, f._num) if mu and f._monogenic
                  else _apply(f, _FULL_HEAT if mu else _HEAT))
    top = max((k0 + sum(beta) for k0, beta in image), default=0)
    left = {}
    for (k0, beta), blades in image.items():
        weight = factorial(k0) * prod(map(factorial, beta)) << mu * (top - k0 - sum(beta))
        left[k0, beta] = acc = {}
        _add_scaled(acc, _conjugated(blades), weight)
    form = ((den, image), (den << mu * top, left))
    f._fischer = (cache[0], form) if mu else (form, cache[1])
    return form


def _operands(f: CliffordPolynomial, g: CliffordPolynomial, mu: bool) -> tuple:
    """(left den, left, right den, right): f in its left role and g in its
    right role under MU_TILDE if mu, else RHO, after the dimension check."""
    f._check_dim(g)
    return (*_form(f, mu)[1], *_form(g, mu)[0])


def clifford_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                     measure: Measure) -> CliffordNumber:
    """Full Clifford-valued pairing: integral of conj(f) * g, one Clifford
    product per key the prepared operands share."""
    _check_measure(measure)
    lden, left, rden, right = _operands(f, g, measure is Measure.MU_TILDE)
    acc: dict[int, tuple[int, int]] = {}
    for key, blades in left.items():
        other = right.get(key)
        if other is not None:
            _product_numerators(acc, blades, other)
    if not acc:
        return CliffordNumber._raw(f.n, 1, {})
    return CliffordNumber._reduced(f.n, lden * rden, acc)


def _scalar_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                    mu: bool) -> GaussianRational:
    """Scalar part of the integral of conj(f) * g under MU_TILDE if mu,
    else RHO: sum of conj(a_A) b_A over the shared blades of shared keys,
    since conj(e_A) e_A = 1.  The left role stores conj(A_key), so it is
    conjugated back per shared key."""
    lden, left, rden, right = _operands(f, g, mu)
    re, im = _shared_blade_sum((1, _conjugated(blades), right[key])
                               for key, blades in left.items() if key in right)
    return _gaussian_over(re, im, lden * rden)


def gram(fs: Iterable[CliffordPolynomial], gs: Iterable[CliffordPolynomial],
         measure: Measure) -> Iterator[list[CliffordNumber]]:
    """Rows [clifford_pairing(f, g, measure) for g in gs], one per f in fs,
    computed as they are consumed.  Each row checks f against the
    dimension of every g before it prepares any operand.  gs is read
    once, into a list, when the first row is requested."""
    gs = list(gs)
    for f in fs:
        for g in gs:
            f._check_dim(g)
        yield [clifford_pairing(f, g, measure) for g in gs]


def inner_rho(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<f, g> over R^n: scalar part of the RHO pairing."""
    return _scalar_pairing(f, g, False)


def inner_mu(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<F, G> over R^{n+1}: scalar part of the MU_TILDE pairing."""
    return _scalar_pairing(f, g, True)
