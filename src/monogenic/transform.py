"""Heat operator, Hermite polynomials, Cauchy-Kowalevski extension and
the factorized Segal-Bargmann transform.

The transform is the composition (C-K extension) o (heat operator):
first smooth an x0-free polynomial with exp(Laplacian/2), then extend
the result to the unique monogenic polynomial on R^{n+1} restricting to
it.  Both factors are finite sums on polynomials (the Laplacian and the
Dirac operator are nilpotent there), so everything is exact.

The operator series, `_series`, works on integer numerators in the
stored form of `poly`, over their denominator den: the chain step^k f is
derived on integers, and the result is reduced once.  With K the last k
whose term is nonzero, the series sum_k sign^k x0^(k x0_step) step^k f /
(scale^k k!) is summed over den * scale^K * K!, term k weighted by
sign^k scale^(K-k) K!/k!.  The heat series takes step = Lap, sign = +-1,
scale = 2, x0_step = 0; the C-K series takes step = D, sign = -1,
scale = 1, x0_step = 1, which places term k at x0-power k (the input is
x0-free, so no two terms meet).

Both operators are right-linear: they send x^beta c to op(x^beta) c, and
the C-K image of x^beta is the basis element P_beta.  So the series runs
once per monomial, and only there: `_image` keeps op(x0^k0 x^beta),
reduced, in a bounded cache, and `_apply` sends f = sum_key x0^k0 x^beta
c_key to the reduced numerators of sum_key op(x0^k0 x^beta) c_key.  The
image's blades are real, so `_image` also keeps them as a flat sign plan
(`clifford._sign_plan`), and `_apply` adds each c_key, scaled to the lcm
of the images' denominators, times its whole image on the left in one
`clifford._plan_product` call, then reduces the sum once.  `heat` and
`ck_extend` check their input and adopt `_apply` without a second cap
check, since neither operator raises the total degree; `hermite` and
`p_basis` check n, beta and the cap as the monomial constructor would,
without building the monomial, and adopt the cached image itself.
Every public operator first checks its container (`clifford._checked`;
`sb_transform` takes a `HermiteExpansion` too) and raises TypeError
"<operator> takes a <class>, got <type>" for anything else, not an
AttributeError from inside the library.  The
two-step maps are compositions of the public operators, and each step
checks its own input: `sb_transform` is ck_extend(heat(f)), and
`sb_inverse` is the inverse heat of F.restrict().  The second check of
each sees an input-sized value that the first check has already passed,
so it costs a few microseconds, and every operator call goes through
the operator's one entry.  The heat
images of the Gaussian pairings of `gauss` are `_apply` too, with _HEAT
under RHO and _FULL_HEAT, exp(Laplacian over x0..xn / 4), under
MU_TILDE.  The C-K results carry the "monogenic by construction" mark
of `poly`.  The monogenicity precondition of `sb_inverse` and of
`fock.taylor_map` is one helper, `_check_monogenic`, which reads that
mark before it runs the Cauchy-Riemann kernel and formats the one
message of that precondition, naming its caller's map.

Probabilists' Hermite polynomials are the preimages of the monomials
under the heat operator; their monogenic images are the basis
P_beta = ck_extend(x^beta).  For n = 1 that basis is orthogonal with
squared norms beta!; for n >= 2 it is not, under any measure (see the
README section "Status of the isometry identities").

A Hermite expansion sum_beta H_beta w_beta is the sparse beta -> C_n map
of `poly` that Fock elements share.  It stores its heat image, the
polynomial sum_beta x^beta w_beta: `sb_transform` only C-K extends the
stored polynomial, `to_polynomial` applies the inverse heat to it once,
`from_polynomial` stores heat(f), and `norm_sq` is one weighted blade
sum over its numerators (`clifford._shared_blade_sum`), each weighted by
beta! (`poly._key_factorial`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable, Sequence, Union

from .clifford import _check_dimension, _checked, _plan_product, _reduce, _shared_blade_sum, _sign_plan
from .poly import (
    CliffordPolynomial,
    _check_degree_cap,
    _MultiIndexMap,
    _Numerators,
    _add_scaled,
    _dirac_into,
    _full_laplacian_into,
    _key_factorial,
    _laplacian_into,
    _term_key,
)


class NotMonogenicError(ValueError):
    """Input must satisfy the generalized Cauchy-Riemann equation."""


def _check_monogenic(F: CliffordPolynomial, what: str) -> None:
    """NotMonogenicError "<what> is defined on monogenic polynomials"
    unless F is monogenic: the precondition of `sb_inverse` and
    `fock.taylor_map`, read off the mark of `ck_extend` and `p_basis`
    when F carries it, else computed."""
    if not F._monogenic and not F.is_monogenic():
        raise NotMonogenicError(f"{what} is defined on monogenic polynomials")


def _series(den: int, num: _Numerators, step: Callable[[_Numerators, _Numerators], None],
            sign: int, scale: int, x0_step: int) -> tuple[int, _Numerators]:
    """(den, numerators) of sum_k sign^k x0^(k x0_step) step^k f / (scale^k k!)
    for f = num / den, reduced by `_reduce`; with x0_step = 0 each term
    keeps its own x0-power.

    The chain step^k f is derived on integers up to its last nonzero
    term K, pruned by `_reduce` over 1, and summed over den * scale^K * K!
    with term k weighted by sign^k scale^(K-k) K!/k!."""
    chain = []
    while num:
        chain.append(num)
        nxt: _Numerators = {}
        step(nxt, num)
        num = _reduce(1, nxt)[1]
    top = max(len(chain) - 1, 0)
    total: _Numerators = {}
    for k, term in enumerate(chain):
        weight = sign ** k * scale ** (top - k) * (factorial(top) // factorial(k))
        for (k0, beta), blades in term.items():
            _add_scaled(total.setdefault((k0 + k * x0_step, beta), {}), blades, weight)
    return _reduce(den * scale ** top * factorial(top), total)


# (step, sign, scale, x0_step) of the `_series` of each operator; _FULL_HEAT
# is exp(Laplacian over x0..xn / 4), the heat image of the MU_TILDE pairing
_HEAT = (_laplacian_into, 1, 2, 0)
_INVERSE_HEAT = (_laplacian_into, -1, 2, 0)
_FULL_HEAT = (_full_laplacian_into, 1, 4, 0)
_CK = (_dirac_into, -1, 1, 1)


@lru_cache(maxsize=512)
def _image(n: int, op: tuple, key: tuple) -> tuple[int, tuple, tuple]:
    """(den, ((key, blades), ...), plan): the reduced `_series` of op on the
    monomial x0^k0 x^beta in C_n, key = (k0, beta), for op one of _HEAT,
    _INVERSE_HEAT, _FULL_HEAT and _CK, and the same terms as the
    `clifford._sign_plan` that `_apply` applies.  Its blades are real
    integers: scalars for the heats, a scalar or one e_j per key for C-K.

    Every caller shares the tuple and its blade maps, and none mutates
    them.  Cached for the 512 images used last, keyed by (n, op, key).
    Under the default degree cap 12 the largest image is P_beta for
    beta = (2,2,2,2,2,2) at n = 16: 256 terms, about 0.17 MB with its
    key tuples, integers and plan (the plan shares the keys and
    coefficients, and adds 21 KB).  A heat image, of any of the three
    heats (x0 is one more axis to _FULL_HEAT), has at most 64 scalar
    terms, about 42 KB.  So the cache holds at most about 88 MB."""
    den, num = _series(1, {key: {0: (1, 0)}}, *op)
    terms = tuple(num.items())
    return den, terms, _sign_plan(terms)


def _apply(f: CliffordPolynomial, op: tuple) -> tuple[int, _Numerators]:
    """(den, numerators) of op on f as a right-linear map, sum_key
    op(x0^k0 x^beta) c_key: one `_plan_product` per key adds c_key, scaled
    to the lcm of the images' denominators, times its image's plan, and
    the sum is reduced once.  No cap check: a cached image skips the check
    of its monomial, so the callers that must check do so first."""
    images = [(_image(f.n, op, key), blades) for key, blades in f._num.items()]
    top = lcm(*(image[0] for image, _ in images))
    total: _Numerators = {}
    for (den, _, plan), blades in images:
        _plan_product(total, plan, blades, top // den)
    return _reduce(f._den * top, total)


def _basis(n: int, beta: Sequence[int], op: tuple) -> CliffordPolynomial:
    """op(x^beta), the cached image adopted as it is, its blade maps
    shared with the cache.  n, beta and the degree cap are checked first,
    in the order and with the errors of the monomial constructor."""
    _check_dimension(n)
    key = _term_key(n, 0, beta)
    _check_degree_cap([key])
    den, terms, _ = _image(n, op, key)
    return CliffordPolynomial._adopt(n, den, dict(terms))


def heat(f: CliffordPolynomial, inverse: bool = False) -> CliffordPolynomial:
    """Apply exp(+Laplacian/2), or exp(-Laplacian/2) when inverse is set.

    The series sum_k (+-1)^k Lap^k f / (2^k k!) terminates because the
    Laplacian strictly drops total degree.  `inverse` is True or False:
    any other value, truthy or not, raises TypeError.
    """
    _checked("heat", f, CliffordPolynomial)
    if inverse is not True and inverse is not False:
        raise TypeError(f"inverse must be True or False, got {inverse!r}")
    if not f.is_x0_free():
        raise ValueError("heat operator acts on x0-free polynomials")
    _check_degree_cap(f._num)  # the series never raises the degree: its result is adopted
    return CliffordPolynomial._adopt(f.n, *_apply(f, _INVERSE_HEAT if inverse else _HEAT))


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
    _checked("ck_extend", f, CliffordPolynomial)
    if not f.is_x0_free():
        raise ValueError("C-K extension starts from an x0-free polynomial")
    _check_degree_cap(f._num)  # each term keeps its total degree: the result is adopted
    F = CliffordPolynomial._adopt(f.n, *_apply(f, _CK))
    F._monogenic = True  # read by `_check_monogenic` and by the MU_TILDE form of `gauss`
    return F


def restrict(F: CliffordPolynomial) -> CliffordPolynomial:
    """Substitute x0 = 0; TypeError unless F is a CliffordPolynomial."""
    return _checked("restrict", F, CliffordPolynomial).restrict()


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
        blade sum weighted by beta! over the squared stored denominator."""
        f = self._poly
        total, _ = _shared_blade_sum((_key_factorial(key), b, b) for key, b in f._num.items())
        return Fraction(total, f._den * f._den)


def sb_transform(f: Union[HermiteExpansion, CliffordPolynomial]) -> CliffordPolynomial:
    """The Segal-Bargmann transform in factorized form, ck_extend(heat(f)).

    A Hermite expansion needs no heat series: heat(H_beta) = x^beta, so
    its stored polynomial sum_beta x^beta * w_beta is extended as it is,
    which sends each H_beta * w to the monogenic basis element times w.
    """
    _checked("sb_transform", f, HermiteExpansion, CliffordPolynomial)
    if isinstance(f, HermiteExpansion):
        return ck_extend(f._poly)
    return ck_extend(heat(f))


def sb_inverse(F: CliffordPolynomial) -> CliffordPolynomial:
    """Inverse transform: restrict to x0 = 0, then apply inverse heat."""
    _check_monogenic(_checked("sb_inverse", F, CliffordPolynomial), "inverse transform")
    return heat(F.restrict(), inverse=True)
