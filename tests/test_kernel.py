"""The integer-numerator kernel (Dirac, Laplacian, Cauchy-Riemann, heat and
C-K extension) against the Fraction-per-step compositions in `oracles`.

Inputs are seeded: n = 1..8, x0 terms, total degree up to the cap, part
denominators drawn from the primes up to 97, complex coefficients, and in
every coefficient the full blade, which holds generators above and below
each j.
"""

import functools
import random
from fractions import Fraction

import pytest

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    DegreeCapError,
    GaussianRational,
    ck_extend,
    get_degree_cap,
    heat,
    p_basis,
    set_degree_cap,
)
from monogenic.clifford import indices_from_mask

from oracles import (
    PRIMES_TO_97,
    naive_cauchy_riemann,
    naive_ck_extend,
    naive_dirac,
    naive_heat,
    naive_laplacian,
)


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


@pytest.mark.parametrize("n", range(1, 9))
def test_derivatives_match_oracles(n):
    rng = random.Random(100 + n)
    for degree in (get_degree_cap(), 9, 7, 5, 3, 1):
        f = _poly(rng, n, degree, terms=4)
        assert f.dirac() == naive_dirac(f)
        assert f.laplacian() == naive_laplacian(f)
        cr = naive_cauchy_riemann(f)
        assert f.cauchy_riemann() == cr
        assert f.is_monogenic() == cr.is_zero()


@pytest.mark.parametrize("n", range(1, 9))
def test_heat_and_ck_extend_match_oracles(n):
    rng = random.Random(200 + n)
    for degree in (get_degree_cap(), 10, 8, 5, 2, 0):
        f = _poly(rng, n, degree, terms=3, x0=False)
        assert heat(f) == naive_heat(f)
        assert heat(f, inverse=True) == naive_heat(f, inverse=True)
        F = ck_extend(f)
        assert F == naive_ck_extend(f)
        assert F.is_monogenic()


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
