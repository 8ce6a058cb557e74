"""Heat operator, Hermite polynomials, Cauchy-Kowalevski extension and
the factorized Segal-Bargmann transform.

The transform is the composition (C-K extension) o (heat operator):
first smooth an x0-free polynomial with exp(Laplacian/2), then extend
the result to the unique monogenic polynomial on R^{n+1} restricting to
it.  Both factors are finite sums on polynomials (the Laplacian and the
Dirac operator are nilpotent there), so everything is exact.

Both are one operator series, `_series`, on the stored integer
numerators of `poly`, over the input's denominator den: the chain
step^k f is derived on integers, and the result is reduced once.  With
K the last k whose term is nonzero, the series sum_k sign^k
x0^(k x0_step) step^k f / (scale^k k!) is summed over den * scale^K * K!,
term k weighted by sign^k scale^(K-k) K!/k!.  The heat series takes
step = Lap, sign = +-1, scale = 2, x0_step = 0; the C-K series takes
step = D, sign = -1, scale = 1, x0_step = 1, which places term k at
x0-power k (the input is x0-free, so no two terms meet).  `gauss`
runs the same series for the heat images of its pairings, on inputs
with x0 terms too.
The C-K result carries the "monogenic by construction" mark of `poly`,
so `sb_inverse` does not check it again.

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
from math import factorial, prod
from typing import Callable, Sequence, Union

from .clifford import _reduce
from .poly import (
    CliffordPolynomial,
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


def heat(f: CliffordPolynomial, inverse: bool = False) -> CliffordPolynomial:
    """Apply exp(+Laplacian/2), or exp(-Laplacian/2) when inverse is set.

    The series sum_k (+-1)^k Lap^k f / (2^k k!) terminates because the
    Laplacian strictly drops total degree.
    """
    if not f.is_x0_free():
        raise ValueError("heat operator acts on x0-free polynomials")
    return CliffordPolynomial._raw(f.n, *_series(f, _laplacian_into, -1 if inverse else 1, 2, 0))


def hermite(n: int, beta: Sequence[int]) -> CliffordPolynomial:
    """Product of monic probabilists' Hermite polynomials, H_beta.

    Defined as the inverse heat image of the monomial x^beta; this is
    the normalization under which the heat operator sends H_beta back
    to x^beta and the Gaussian squared norm is beta!.
    """
    return heat(CliffordPolynomial.monomial(n, 0, beta), inverse=True)


def ck_extend(f: CliffordPolynomial) -> CliffordPolynomial:
    """Cauchy-Kowalevski extension: the monogenic polynomial on R^{n+1}
    restricting to f at x0 = 0, via sum_k (-x0)^k D^k f / k!."""
    if not f.is_x0_free():
        raise ValueError("C-K extension starts from an x0-free polynomial")
    F = CliffordPolynomial._raw(f.n, *_series(f, _dirac_into, -1, 1, 1))
    F._monogenic = True  # read by the preconditions of `sb_inverse` and `taylor_map`
    return F


def restrict(F: CliffordPolynomial) -> CliffordPolynomial:
    """Substitute x0 = 0."""
    return F.restrict()


def p_basis(n: int, beta: Sequence[int]) -> CliffordPolynomial:
    """Monogenic basis element: the C-K extension of the monomial x^beta."""
    return ck_extend(CliffordPolynomial.monomial(n, 0, beta))


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
