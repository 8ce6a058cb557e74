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
terms of one bucket ever meet.  A single pairing buckets the term keys
of both operands first and reads only the terms of shared buckets off
the stored numerators of `poly`, each operand over its one stored
denominator; no operand is converted.  In a Gram table most term pairs,
and most whole entries, share no bucket at all.  The
left operand is conjugated in numerators: imaginary part negated, blade
e_A signed by (-1)^(k(k+1)/2) for k generators.  Each left term meets
the sum of the right terms in its bucket, each weighted by the integer
moment of the pair, which under MU_TILDE is scaled by 2^(D - |e|/2) so
that one 2^D (2D the top combined degree) is the common denominator.
Blade products take the sign (-1)^popcount(q_A & B) of
`clifford._sign_mask`, real and imaginary numerators are accumulated per
output blade, and each output part becomes one `Fraction` at the end
(`clifford._gaussian_over`).

The scalar products `inner_rho` and `inner_mu` need only the grade-0
part.  conj(e_A) e_B has a scalar part only when A = B, and there it is
1, so they sum conj(a_A) b_A over shared blades and form no other blade
pair.  `gram` yields the pairings of every f of one list with every g
of another, row by row, and prepares each operand once, whole.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .clifford import (
    CliffordNumber,
    DimensionMismatchError,
    GaussianRational,
    _gaussian_over,
    _sign_mask,
)
from .poly import CliffordPolynomial, MultiIndex


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


# Terms of an operand by parity signature, before any arithmetic:
# {signature: [(term key, exponents (k0, *beta), total degree)]}
_Shapes = dict[int, list[tuple[tuple[int, MultiIndex], tuple[int, ...], int]]]


class _Operand:
    """Terms of a polynomial as integer numerators over `den`, bucketed by
    signature: {signature: [(exponents, degree, [(mask, re, im)])]}, with
    `top` the largest total degree among them."""

    __slots__ = ("n", "den", "top", "buckets")

    def __init__(self, n: int, den: int, top: int,
                 buckets: dict[int, list[tuple[tuple[int, ...], int, list[tuple[int, int, int]]]]]):
        self.n = n
        self.den = den
        self.top = top
        self.buckets = buckets


def _shapes(f: CliffordPolynomial, measure: Measure) -> _Shapes:
    """The terms of f bucketed by parity signature: one bit per entry of
    (k0, *beta), set when that entry is odd."""
    rho = measure is Measure.RHO
    out: _Shapes = {}
    for key in f._num:
        k0, beta = key
        if k0 and rho:
            raise ValueError("the R^n measure requires x0-free polynomials")
        exponents = (k0, *beta)
        signature = 0
        for e in exponents:
            signature = signature << 1 | e & 1
        shape = (key, exponents, k0 + sum(beta))
        bucket = out.get(signature)
        if bucket is None:
            out[signature] = [shape]
        else:
            bucket.append(shape)
    return out


def _prepare(f: CliffordPolynomial, shapes: _Shapes, conj: bool) -> _Operand:
    """The terms of f listed in `shapes`, read off its stored numerators;
    with `conj` their Hermitian conjugates instead."""
    num = f._num
    buckets = {}
    top = 0
    for signature, bucket in shapes.items():
        prepared = []
        for key, exponents, degree in bucket:
            if degree > top:
                top = degree
            if conj:
                # (-1)^(k(k+1)/2) is -1 exactly when bit 1 of k + 1 is set
                blades = [(mask, -re, im) if (mask.bit_count() + 1) & 2 else (mask, re, -im)
                          for mask, (re, im) in num[key].items()]
            else:
                blades = [(mask, re, im) for mask, (re, im) in num[key].items()]
            prepared.append((exponents, degree, blades))
        buckets[signature] = prepared
    return _Operand(f.n, f._den, top, buckets)


def _check_dimensions(f: CliffordPolynomial, g: CliffordPolynomial) -> None:
    if f.n != g.n:
        raise DimensionMismatchError(f"polynomials over C_{f.n} vs C_{g.n}")


def _prepare_pair(f: CliffordPolynomial, g: CliffordPolynomial, measure: Measure,
                  conj: bool) -> tuple[_Operand, _Operand]:
    """Both operands of one pairing, keeping only the terms that meet a
    term of the other operand (same signature)."""
    _check_dimensions(f, g)
    sf, sg = _shapes(f, measure), _shapes(g, measure)
    shared = sf.keys() & sg.keys()
    return (_prepare(f, {s: sf[s] for s in shared}, conj),
            _prepare(g, {s: sg[s] for s in shared}, False))


def _weighted_sums(left: _Operand, right: _Operand, measure: Measure):
    """Yield (left blades, {mask: [re, im]}) per left term: the sum of
    the right operand's terms in its bucket, each weighted by the integer
    moment of the pair (times 2^D under MU_TILDE, see `_denominator`)."""
    half = left.top + right.top >> 1
    table = _unit_moments(2 * half)
    for signature, terms in left.buckets.items():
        partners = right.buckets.get(signature)
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
                for mb, br, bi in blades_b:
                    slot = acc.get(mb)
                    if slot is None:
                        acc[mb] = [w * br, w * bi]
                    else:
                        slot[0] += w * br
                        slot[1] += w * bi
            yield blades_a, acc


def _denominator(left: _Operand, right: _Operand, measure: Measure) -> int:
    """den(left) * den(right), times 2^D under MU_TILDE with 2D the top
    combined degree rounded down to even."""
    den = left.den * right.den
    if measure is Measure.MU_TILDE:
        den <<= left.top + right.top >> 1
    return den


def _pairing(left: _Operand, right: _Operand, measure: Measure) -> CliffordNumber:
    """Integral of left * right, the left operand prepared conjugated."""
    re_acc: dict[int, int] = {}
    im_acc: dict[int, int] = {}
    for blades_a, sums in _weighted_sums(left, right, measure):
        for ma, ar, ai in blades_a:
            q = _sign_mask(ma)
            for mb, (sr, si) in sums.items():
                re = ar * sr - ai * si
                im = ar * si + ai * sr
                if (q & mb).bit_count() & 1:
                    re, im = -re, -im
                mask = ma ^ mb
                re_acc[mask] = re_acc.get(mask, 0) + re
                im_acc[mask] = im_acc.get(mask, 0) + im
    den = _denominator(left, right, measure)
    data = {}
    for mask, re in re_acc.items():
        im = im_acc[mask]
        if re or im:
            data[mask] = _gaussian_over(re, im, den)
    return CliffordNumber._from_nonzero(left.n, data)


def _scalar_pairing(left: _Operand, right: _Operand, measure: Measure) -> GaussianRational:
    """Scalar part of the integral of conj(left) * right, the left operand
    prepared as is: sum of conj(a_A) b_A over shared blades."""
    re = im = 0
    for blades_a, sums in _weighted_sums(left, right, measure):
        for ma, ar, ai in blades_a:
            slot = sums.get(ma)
            if slot is not None:
                sr, si = slot
                re += ar * sr + ai * si
                im += ar * si - ai * sr
    return _gaussian_over(re, im, _denominator(left, right, measure))


def clifford_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                     measure: Measure) -> CliffordNumber:
    """Full Clifford-valued pairing: integral of conj(f) * g.

    The product is never materialized as a polynomial, and only terms
    that meet a term of the other operand are put over integers.
    """
    return _pairing(*_prepare_pair(f, g, measure, True), measure)


def gram(fs: Iterable[CliffordPolynomial], gs: Sequence[CliffordPolynomial],
         measure: Measure) -> Iterator[list[CliffordNumber]]:
    """Rows [clifford_pairing(f, g, measure) for g in gs], one per f in fs.

    Rows are computed as they are consumed.  Each operand is prepared
    once, whole: every g before the first row, each f for its own row.
    """
    right = None
    for f in fs:
        for g in gs:
            _check_dimensions(f, g)
        if right is None:
            right = [_prepare(g, _shapes(g, measure), False) for g in gs]
        left = _prepare(f, _shapes(f, measure), True)
        yield [_pairing(left, r, measure) for r in right]


def inner_rho(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<f, g> over R^n: scalar part of the RHO pairing."""
    return _scalar_pairing(*_prepare_pair(f, g, Measure.RHO, False), Measure.RHO)


def inner_mu(f: CliffordPolynomial, g: CliffordPolynomial) -> GaussianRational:
    """<F, G> over R^{n+1}: scalar part of the MU_TILDE pairing."""
    return _scalar_pairing(*_prepare_pair(f, g, Measure.MU_TILDE, False), Measure.MU_TILDE)
