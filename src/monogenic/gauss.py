"""Exact Gaussian integration of Clifford-valued polynomials.

Two probability measures appear:

* RHO on R^n, density (2*pi)^(-n/2) exp(-|x|^2 / 2): per-axis variance 1.
* MU_TILDE on R^{n+1}, density pi^(-(n+1)/2) exp(-x0^2 - |x|^2): per-axis
  variance 1/2.

Integration is purely symbolic: a monomial x0^k0 x^beta integrates to
the product of its 1-D moments, so a polynomial pairing is a finite
exact sum.  Under RHO the moment of exponents e is the integer
prod (e_i - 1)!!; under MU_TILDE it is that product over 2^(|e|/2).
Either vanishes as soon as one exponent is odd.

Pairings run on integer numerators, like the Clifford product and the
polynomial calculus.  Terms are bucketed by parity signature, the
bitmask of odd entries in (k0, beta): two monomials multiply to one with
only even exponents exactly when their signatures are equal, so only
terms of one bucket ever meet.  Each operand is grouped into buckets
once, by reference: the blade dicts are the stored numerators of
`poly`, read in place over the operand's one stored denominator and
never copied or written.  In a Gram table most term pairs, and most
whole entries, share no bucket at all; such an entry is the canonical
zero at once.  Each left term meets the sum of the right terms in its
bucket, each weighted by the integer moment of the pair, which under
MU_TILDE is scaled by 2^(D - |e|/2) so that one 2^D (2D the top
combined degree) is the common denominator.  Each left term is
conjugated and multiplied into its weighted sum by the helpers of the
Clifford product (`clifford._conjugated`, `_product_numerators`), which
state both sign rules, and the accumulated numerators over the one
denominator become the `CliffordNumber` result through its reducing
constructor: one gcd, and no `Fraction`.

The scalar products `inner_rho` and `inner_mu` need only the grade-0
part.  conj(e_A) e_B has a scalar part only when A = B, and there it is
1, so they sum conj(a_A) b_A over shared blades
(`clifford._shared_blade_sum`, which `CliffordNumber.inner` uses too),
form no other blade pair and conjugate no blade.  `gram` yields the
pairings of every f of one list with every g of another, row by row,
and groups each operand once.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .clifford import (
    CliffordNumber,
    GaussianRational,
    _conjugated,
    _gaussian_over,
    _product_numerators,
    _shared_blade_sum,
)
from .poly import CliffordPolynomial


class Measure(enum.Enum):
    RHO = "rho"
    MU_TILDE = "mu"


@lru_cache(maxsize=None)
def _unit_moments(top: int) -> tuple[int, ...]:
    """E[t^k] for k = 0..top under the variance-1 Gaussian: (k-1)!! for
    even k, 0 for odd k.  The variance-1/2 moment is E[t^k] / 2^(k/2)."""
    out = [1]
    for k in range(1, top + 1):
        out.append(0 if k % 2 else (k - 1) * out[k - 2])
    return tuple(out)


def moment(measure: Measure, k0: int, beta: Sequence[int]) -> Fraction:
    """Exact moment of x0^k0 * x^beta under the given measure."""
    exponents = (k0, *beta)
    if min(exponents) < 0:
        raise ValueError("moment order must be nonnegative")
    if measure is Measure.RHO and k0 != 0:
        raise ValueError("the R^n measure has no x0 axis")
    table = _unit_moments(max(exponents))
    total = 1
    for e in exponents:
        total *= table[e]
    if measure is Measure.RHO or not total:
        return Fraction(total)
    return Fraction(total, 2 ** (sum(exponents) // 2))


def _operand(f: CliffordPolynomial, measure: Measure) -> tuple[int, int, dict]:
    """(den, top, {signature: [(exponents, degree, blades)]}): the terms of f
    grouped by parity signature, one bit per entry of exponents = (k0, *beta)
    set when that entry is odd, with top the largest total degree of f.
    `blades` is the stored numerator dict of the term, shared between
    threads with f, so it is read and never written."""
    rho = measure is Measure.RHO
    buckets: dict = {}
    top = 0
    for (k0, beta), blades in f._num.items():
        if k0 and rho:
            raise ValueError("the R^n measure requires x0-free polynomials")
        exponents = (k0, *beta)
        signature = 0
        for e in exponents:
            signature = signature << 1 | e & 1
        degree = k0 + sum(beta)
        if degree > top:
            top = degree
        term = (exponents, degree, blades)
        bucket = buckets.get(signature)
        if bucket is None:
            buckets[signature] = [term]
        else:
            bucket.append(term)
    return f._den, top, buckets


def _weighted_sums(left: tuple, right: tuple, measure: Measure):
    """Yield (left blades, {mask: [re, im]}) per left term: the sum of
    the right operand's terms in its bucket, each weighted by the integer
    moment of the pair (times 2^D under MU_TILDE, see `_denominator`)."""
    _, top_a, buckets_a = left
    _, top_b, buckets_b = right
    half = top_a + top_b >> 1
    table = _unit_moments(2 * half)
    for signature, terms in buckets_a.items():
        partners = buckets_b.get(signature)
        if partners is None:
            continue
        for ea, da, blades_a in terms:
            acc: dict[int, list[int]] = {}
            for eb, db, blades_b in partners:
                w = 1
                for x, y in zip(ea, eb):
                    w *= table[x + y]
                if measure is Measure.MU_TILDE:
                    w <<= half - (da + db >> 1)
                for mb, (br, bi) in blades_b.items():
                    slot = acc.get(mb)
                    if slot is None:
                        acc[mb] = [w * br, w * bi]
                    else:
                        slot[0] += w * br
                        slot[1] += w * bi
            yield blades_a, acc


def _denominator(left: tuple, right: tuple, measure: Measure) -> int:
    """den(left) * den(right), times 2^D under MU_TILDE with 2D the top
    combined degree rounded down to even."""
    den = left[0] * right[0]
    if measure is Measure.MU_TILDE:
        den <<= left[1] + right[1] >> 1
    return den


def _pairing(n: int, left: tuple, right: tuple, measure: Measure) -> CliffordNumber:
    """Integral of conj(left) * right: the canonical zero when no parity
    bucket is shared, else each left term conjugated and multiplied into
    its weighted sum (`_conjugated`, `_product_numerators`)."""
    if left[2].keys().isdisjoint(right[2]):
        return CliffordNumber._raw(n, 1, {})
    acc: dict[int, tuple[int, int]] = {}
    for blades_a, sums in _weighted_sums(left, right, measure):
        _product_numerators(acc, _conjugated(blades_a), sums)
    return CliffordNumber._reduced(n, _denominator(left, right, measure), acc)


def _scalar_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                    measure: Measure) -> GaussianRational:
    """Scalar part of the integral of conj(f) * g: sum of conj(a_A) b_A
    over shared blades, since conj(e_A) e_A = 1."""
    f._check_dim(g)
    left, right = _operand(f, measure), _operand(g, measure)
    if left[2].keys().isdisjoint(right[2]):
        return _gaussian_over(0, 0, 1)
    re, im = _shared_blade_sum(_weighted_sums(left, right, measure))
    return _gaussian_over(re, im, _denominator(left, right, measure))


def clifford_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                     measure: Measure) -> CliffordNumber:
    """Full Clifford-valued pairing: integral of conj(f) * g.

    The product is never materialized as a polynomial, and only terms
    of shared parity buckets meet.
    """
    f._check_dim(g)
    return _pairing(f.n, _operand(f, measure), _operand(g, measure), measure)


def gram(fs: Iterable[CliffordPolynomial], gs: Sequence[CliffordPolynomial],
         measure: Measure) -> Iterator[list[CliffordNumber]]:
    """Rows [clifford_pairing(f, g, measure) for g in gs], one per f in fs.

    Rows are computed as they are consumed.  Each operand is grouped
    once: every g before the first row, each f for its own row.
    """
    right = None
    for f in fs:
        for g in gs:
            f._check_dim(g)
        if right is None:
            right = [_operand(g, measure) for g in gs]
        left = _operand(f, measure)
        yield [_pairing(f.n, left, r, measure) for r in right]


def inner_rho(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<f, g> over R^n: scalar part of the RHO pairing."""
    return _scalar_pairing(f, g, Measure.RHO)


def inner_mu(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<F, G> over R^{n+1}: scalar part of the MU_TILDE pairing."""
    return _scalar_pairing(f, g, Measure.MU_TILDE)
