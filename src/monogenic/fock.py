"""Clifford-valued covariant Fock space on the polynomial sector.

A symmetric k-tensor functional is stored only through its values on
the basis tensors indexed by multi-indices of weight k; that is all the
norm and both isomorphism directions ever touch.  Elements have finite
support, the dense sector on which every identity holds exactly.  They
are the sparse beta -> C_n map of `poly`, the container Hermite
expansions share, and store what an expansion stores: the generating
function sum_beta x^beta alpha(e^beta) / beta!, which for corresponding
elements is the x0-free polynomial sum_beta x^beta w_beta of the Hermite
expansion (alpha(e^beta) = beta! w_beta), as reduced integer numerators
over one denominator.  So no map rescales: the Taylor map stores F(0, x),
the inverse Taylor map C-K extends the stored polynomial, and the Fock
norm sum_beta |alpha(e^beta)|^2 / beta! is the Gaussian norm
sum_beta beta! |w_beta|^2 of `HermiteExpansion.norm_sq`, one formula for
both containers.

The weight beta! sits at the element's boundary only.  The constructor,
`serialize.fock_from_json` and `verify.rand_fock_element` divide the
entries they read by it (`poly._over_factorials`); `entries()`, `entry()`
and repr multiply the stored values by it, and so do the printers of
`serialize`, part by part (the `_weighted` flag of `poly._MultiIndexMap`).

The maps check their container through `clifford._checked`, each under
its own name: `fock_norm_sq`, `fock_to_function` and `fock_to_monogenic`
raise TypeError "<map> takes a FockElement, got <type>" for anything
else (a `HermiteExpansion` shares its stored form, not its meaning), and
`taylor_map` "taylor_map takes a CliffordPolynomial, got <type>".
`taylor_map` checks its precondition through `transform._check_monogenic`,
as `sb_inverse` does, and `grade` its argument through
`clifford._check_grade`, as `CliffordNumber.grade` does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .clifford import CliffordNumber, _check_grade, _checked
from .poly import CliffordPolynomial, MultiIndex, _MultiIndexMap, _reduced
from .transform import HermiteExpansion, _check_monogenic, ck_extend


class FockElement(_MultiIndexMap):
    """Graded functional alpha, stored as sum_beta x^beta alpha(e^beta) / beta!."""

    __slots__ = ()
    _weighted = True

    entries = _MultiIndexMap._items

    def entry(self, beta: Sequence[int]) -> CliffordNumber:
        """alpha(e^beta): the stored value times beta!; a multi-index the
        constructor would reject raises its ValueError."""
        beta = MultiIndex(beta)
        return self._poly.coefficient(0, beta) * beta.factorial

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


def fock_norm_sq(alpha: FockElement) -> Fraction:
    """Squared Fock norm sum_beta |alpha(e^beta)|^2 / beta!: with the stored
    v_beta = alpha(e^beta) / beta!, the norm sum_beta beta! |v_beta|^2 of a
    Hermite expansion, one weighted blade sum."""
    return HermiteExpansion.norm_sq(_checked("fock_norm_sq", alpha, FockElement))


def taylor_map(F: CliffordPolynomial) -> FockElement:
    """Collect all derivative functionals of a monogenic polynomial at
    the origin: entry(beta) = d^beta F(0, 0).

    x-derivatives at x0 = 0 factor through restriction, so the entry is
    beta! times the coefficient of x^beta in F(0, x), and the element
    stores F(0, x) itself.  The precondition (`transform._check_monogenic`)
    is not re-checked on a result of `ck_extend`, which is monogenic by
    construction.
    """
    _check_monogenic(_checked("taylor_map", F, CliffordPolynomial), "the Taylor map")
    return FockElement._of(F.restrict())


def fock_to_function(alpha: FockElement) -> CliffordPolynomial:
    """Evaluate alpha against the exponential tensors:
    f(x) = sum_beta x^beta * alpha(e^beta) / beta!, the stored polynomial."""
    return _checked("fock_to_function", alpha, FockElement)._poly


def fock_to_monogenic(alpha: FockElement) -> CliffordPolynomial:
    """Inverse Taylor map: C-K extend the generating function of alpha."""
    return ck_extend(_checked("fock_to_monogenic", alpha, FockElement)._poly)
