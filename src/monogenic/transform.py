"""Heat operator, Hermite polynomials, Cauchy-Kowalevski extension and
the factorized Segal-Bargmann transform.

The transform is the composition (C-K extension) o (heat operator):
first smooth an x0-free polynomial with exp(Laplacian/2), then extend
the result to the unique monogenic polynomial on R^{n+1} restricting to
it.  Both factors are finite sums on polynomials (the Laplacian and the
Dirac operator are nilpotent there), so everything is exact.

The operator series, `_series`, works on the stored integer numerators
of `poly`, over the input's denominator den: the chain step^k f is
derived on integers, and the result is reduced once.  With K the last k
whose term is nonzero, the series sum_k sign^k x0^(k x0_step) step^k f /
(scale^k k!) is summed over den * scale^K * K!, term k weighted by
sign^k scale^(K-k) K!/k!.  The heat series takes step = Lap, sign = +-1,
scale = 2, x0_step = 0; the C-K series takes step = D, sign = -1,
scale = 1, x0_step = 1, which places term k at x0-power k (the input is
x0-free, so no two terms meet).

Both operators are right-linear: they send x^beta c to op(x^beta) c, and
the C-K image of x^beta is the basis element P_beta.  So the series runs
once per monomial: `_image` keeps op(x^beta), reduced, in a bounded
cache, and `_apply` sends f = sum_beta x^beta c_beta to sum_beta
op(x^beta) c_beta.  It scales each c_beta to the lcm of its images'
denominators, multiplies the image's real blades on its left through
`clifford._product_numerators`, and reduces the sum once.  `heat` and
`ck_extend` are `_apply`; `hermite` and `p_basis` adopt the cached image
itself.  `gauss` still runs `_series` on the whole value for the heat
images of its pairings, on inputs with x0 terms too: the full heat image
of a monogenic P_beta is P_beta itself, whose chain stops at k = 0,
where per-monomial images would be derived only to cancel.
The C-K results carry the "monogenic by construction" mark of `poly`,
so `sb_inverse` does not check them again.

Probabilists' Hermite polynomials are the preimages of the monomials
under the heat operator; their monogenic images are the basis
P_beta = ck_extend(x^beta).  For n = 1 that basis is orthogonal with
squared norms beta!; for n >= 2 it is not, under any measure (see the
README section "Status of the isometry identities").

A Hermite expansion sum_beta H_beta w_beta is the sparse beta -> C_n map
of `poly` that Fock elements share.  It stores its heat image, the
polynomial sum_beta x^beta w_beta: `sb_transform` only C-K extends the
stored polynomial, `to_polynomial` applies the inverse heat to it once,
`from_polynomial` stores heat(f), and `norm_sq` is one integer sum over
its numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Callable, Sequence, Union

from .clifford import _product_numerators, _reduce
from .poly import (
    CliffordPolynomial,
    _check_degree_cap,
    _MultiIndexMap,
    _Numerators,
    _add_scaled,
    _dirac_into,
    _laplacian_into,
)


class NotMonogenicError(ValueError):
    """Input must satisfy the generalized Cauchy-Riemann equation."""


def _series(f: CliffordPolynomial, step: Callable[[_Numerators, _Numerators], None],
            sign: int, scale: int, x0_step: int) -> tuple[int, _Numerators]:
    """(den, numerators) of sum_k sign^k x0^(k x0_step) step^k f / (scale^k k!),
    reduced by `_reduce`; with x0_step = 0 each term keeps its own x0-power.

    The chain step^k f is derived on integers up to its last nonzero
    term K, pruned by `_reduce` over 1, and summed over den * scale^K * K!
    with term k weighted by sign^k scale^(K-k) K!/k!."""
    chain = []
    data = f._num
    while data:
        chain.append(data)
        nxt: _Numerators = {}
        step(nxt, data)
        data = _reduce(1, nxt)[1]
    top = max(len(chain) - 1, 0)
    total: _Numerators = {}
    for k, term in enumerate(chain):
        weight = sign ** k * scale ** (top - k) * (factorial(top) // factorial(k))
        for (k0, beta), blades in term.items():
            _add_scaled(total.setdefault((k0 + k * x0_step, beta), {}), blades, weight)
    return _reduce(f._den * scale ** top * factorial(top), total)


# (step, sign, scale, x0_step) of the `_series` of each operator
_HEAT = (_laplacian_into, 1, 2, 0)
_INVERSE_HEAT = (_laplacian_into, -1, 2, 0)
_CK = (_dirac_into, -1, 1, 1)


@lru_cache(maxsize=512)
def _image(n: int, op: tuple, beta: tuple[int, ...]) -> tuple[int, tuple]:
    """(den, ((key, blades), ...)): the reduced `_series` of op on the
    monomial x^beta in C_n, for op one of _HEAT, _INVERSE_HEAT and _CK.
    Its blades are real integers: scalars for heat, a scalar or one e_j
    per key for C-K.

    Every caller shares the tuple and its blade maps, and none mutates
    them.  Cached for the 512 images used last.  The largest image under
    the default degree cap 12 is P_beta for beta = (2,2,2,2,2,2) at
    n = 16: 256 terms, about 0.15 MB, so the cache holds at most about
    80 MB."""
    den, num = _series(CliffordPolynomial._raw(n, 1, {(0, beta): {0: (1, 0)}}), *op)
    return den, tuple(num.items())


def _apply(f: CliffordPolynomial, op: tuple) -> CliffordPolynomial:
    """op on f as a right-linear map, sum_beta op(x^beta) c_beta: each
    coefficient c_beta scaled to the lcm of its images' denominators,
    each image's blades multiplied on its left, and the sum reduced once."""
    # checked first, so that a warm cache raises as a cold one does: a
    # cached image skips the cap check of its monomial
    _check_degree_cap(f._num)
    n = f.n
    images = [(_image(n, op, beta), blades) for (_, beta), blades in f._num.items()]
    top = lcm(*(den for (den, _), _ in images))
    total: _Numerators = {}
    for (den, terms), blades in images:
        c = top // den
        if c != 1:
            blades = {m: (c * re, c * im) for m, (re, im) in blades.items()}
        for key, image_blades in terms:
            acc = total.get(key)
            if acc is None:
                acc = total[key] = {}
            _product_numerators(acc, image_blades, blades)
    return CliffordPolynomial._raw(n, *_reduce(f._den * top, total))


def _basis(n: int, beta: Sequence[int], op: tuple) -> CliffordPolynomial:
    """op(x^beta), the cached image adopted by one `_raw`, its blade maps
    shared with the cache.  The monomial is built first, so that a bad
    beta, or one over the degree cap, raises as it would uncached."""
    (_, beta), = CliffordPolynomial.monomial(n, 0, beta)._num
    den, terms = _image(n, op, beta)
    return CliffordPolynomial._raw(n, den, dict(terms))


def heat(f: CliffordPolynomial, inverse: bool = False) -> CliffordPolynomial:
    """Apply exp(+Laplacian/2), or exp(-Laplacian/2) when inverse is set.

    The series sum_k (+-1)^k Lap^k f / (2^k k!) terminates because the
    Laplacian strictly drops total degree.
    """
    if not f.is_x0_free():
        raise ValueError("heat operator acts on x0-free polynomials")
    return _apply(f, _INVERSE_HEAT if inverse else _HEAT)


def hermite(n: int, beta: Sequence[int]) -> CliffordPolynomial:
    """Product of monic probabilists' Hermite polynomials, H_beta.

    Defined as the inverse heat image of the monomial x^beta; this is
    the normalization under which the heat operator sends H_beta back
    to x^beta and the Gaussian squared norm is beta!.
    """
    return _basis(n, beta, _INVERSE_HEAT)


def ck_extend(f: CliffordPolynomial) -> CliffordPolynomial:
    """Cauchy-Kowalevski extension: the monogenic polynomial on R^{n+1}
    restricting to f at x0 = 0, via sum_k (-x0)^k D^k f / k!."""
    if not f.is_x0_free():
        raise ValueError("C-K extension starts from an x0-free polynomial")
    F = _apply(f, _CK)
    F._monogenic = True  # read by the preconditions of `sb_inverse` and `taylor_map`
    return F


def restrict(F: CliffordPolynomial) -> CliffordPolynomial:
    """Substitute x0 = 0."""
    return F.restrict()


def p_basis(n: int, beta: Sequence[int]) -> CliffordPolynomial:
    """Monogenic basis element: the C-K extension of the monomial x^beta."""
    F = _basis(n, beta, _CK)
    F._monogenic = True
    return F


class HermiteExpansion(_MultiIndexMap):
    """Finite expansion f = sum_beta H_beta * w_beta with right
    Clifford coefficients w_beta."""

    __slots__ = ()

    coefficients = _MultiIndexMap._items

    def to_polynomial(self) -> CliffordPolynomial:
        return heat(self._poly, inverse=True)

    @classmethod
    def from_polynomial(cls, f: CliffordPolynomial) -> "HermiteExpansion":
        """Expand an x0-free polynomial over the Hermite basis.

        The heat operator carries H_beta to x^beta, so the expansion
        coefficients are just the monomial coefficients of heat(f).
        """
        return cls._of(heat(f))

    def norm_sq(self) -> Fraction:
        """sum_beta beta! * |w_beta|^2, the Gaussian squared norm: one
        integer sum over the squared stored denominator."""
        f = self._poly
        total = sum(prod(map(factorial, beta)) * sum(re * re + im * im for re, im in blades.values())
                    for (_, beta), blades in f._num.items())
        return Fraction(total, f._den * f._den)


def sb_transform(f: Union[HermiteExpansion, CliffordPolynomial]) -> CliffordPolynomial:
    """The Segal-Bargmann transform in factorized form, ck_extend(heat(f)).

    A Hermite expansion needs no heat series: heat(H_beta) = x^beta, so
    its stored polynomial sum_beta x^beta * w_beta is extended as it is,
    which sends each H_beta * w to the monogenic basis element times w.
    """
    if isinstance(f, HermiteExpansion):
        return ck_extend(f._poly)
    return ck_extend(heat(f))


def sb_inverse(F: CliffordPolynomial) -> CliffordPolynomial:
    """Inverse transform: restrict to x0 = 0, then apply inverse heat."""
    if not F._monogenic and not F.is_monogenic():
        raise NotMonogenicError("inverse transform is defined on monogenic polynomials")
    return heat(F.restrict(), inverse=True)
