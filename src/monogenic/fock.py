"""Clifford-valued covariant Fock space on the polynomial sector.

A symmetric k-tensor functional is stored only through its values on
the basis tensors indexed by multi-indices of weight k; that is all the
norm and both isomorphism directions ever touch.  Elements have finite
support, the dense sector on which every identity holds exactly.  They
are the sparse beta -> C_n map of `poly`, the container Hermite
expansions share: one x0-free polynomial sum_beta x^beta alpha(e^beta),
unscaled, stored as reduced integer numerators over one denominator.
The maps and the norm work on those numerators.  The Taylor map writes
beta! times the x0-free numerators of F; the inverse Taylor map C-K
extends sum_beta x^beta alpha(e^beta) / beta!, the stored numerators
scaled to one denominator times lcm(beta!).

The maps check their container through `clifford._checked`, each under
its own name: `fock_norm_sq`, `fock_to_function` and `fock_to_monogenic`
raise TypeError "<map> takes a FockElement, got <type>" for anything
else (a `HermiteExpansion` shares its stored form, not its meaning), and
`taylor_map` "taylor_map takes a CliffordPolynomial, got <type>".  The
weight beta! of every map and of the norm is `poly._key_factorial`, and
both maps scale each stored map by it through `clifford._scaled`.
`taylor_map` checks its precondition through `transform._check_monogenic`,
as `sb_inverse` does, and `grade` its argument through
`clifford._check_grade`, as `CliffordNumber.grade` does.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .clifford import CliffordNumber, _check_grade, _checked, _scaled, _shared_blade_sum
from .poly import CliffordPolynomial, _MultiIndexMap, _key_factorial, _reduced
from .transform import _check_monogenic, ck_extend


class FockElement(_MultiIndexMap):
    """Graded functional alpha with alpha(e^beta) stored per multi-index."""

    __slots__ = ()

    entries = _MultiIndexMap._items

    def entry(self, beta: Sequence[int]) -> CliffordNumber:
        return self._poly.coefficient(0, beta)

    def grade(self, k: int) -> "FockElement":
        """The weight-k part: entries with |beta| = k."""
        _check_grade(k)
        f = self._poly
        return FockElement._of(_reduced(f.n, f._den, {
            key: blades for key, blades in f._num.items() if sum(key[1]) == k}))

    def grades(self) -> list[int]:
        return sorted({sum(beta) for _, beta in self._poly._num})

    def __add__(self, other) -> "FockElement":
        if not isinstance(other, FockElement):
            return NotImplemented
        return FockElement._of(self._poly + other._poly)


def _factorial_weights(f: CliffordPolynomial) -> tuple[int, dict]:
    """(lcm of beta! over the support of f, {key: lcm / beta!})."""
    weights = {key: _key_factorial(key) for key in f._num}
    common = lcm(*weights.values())
    return common, {key: common // w for key, w in weights.items()}


def fock_norm_sq(alpha: FockElement) -> Fraction:
    """Squared Fock norm: sum over beta of |alpha(e^beta)|^2 / beta!, one
    integer sum over den^2 * lcm(beta!)."""
    f = _checked("fock_norm_sq", alpha, FockElement)._poly
    common, weights = _factorial_weights(f)
    total, _ = _shared_blade_sum((weights[key], b, b) for key, b in f._num.items())
    return Fraction(total, f._den * f._den * common)


def taylor_map(F: CliffordPolynomial) -> FockElement:
    """Collect all derivative functionals of a monogenic polynomial at
    the origin: entry(beta) = d^beta F(0, 0).

    x-derivatives at x0 = 0 factor through restriction, so the entry is
    beta! times the monomial coefficient of x^beta in F(0, x): the x0-free
    numerators of F, each scaled by beta!.  The precondition
    (`transform._check_monogenic`) is not re-checked on a result of
    `ck_extend`, which is monogenic by construction.
    """
    _check_monogenic(_checked("taylor_map", F, CliffordPolynomial), "the Taylor map")
    return FockElement._of(_reduced(F.n, F._den, {
        key: _scaled(blades, _key_factorial(key)) for key, blades in F._num.items() if not key[0]}))


def fock_to_function(alpha: FockElement) -> CliffordPolynomial:
    """Evaluate alpha against the exponential tensors:
    f(x) = sum_beta x^beta * alpha(e^beta) / beta!, put over one
    denominator: the stored one times lcm(beta!)."""
    f = _checked("fock_to_function", alpha, FockElement)._poly
    common, weights = _factorial_weights(f)
    return _reduced(f.n, f._den * common,
                    {key: _scaled(blades, weights[key]) for key, blades in f._num.items()})


def fock_to_monogenic(alpha: FockElement) -> CliffordPolynomial:
    """Inverse Taylor map: C-K extend the generating function of alpha."""
    return ck_extend(fock_to_function(_checked("fock_to_monogenic", alpha, FockElement)))
