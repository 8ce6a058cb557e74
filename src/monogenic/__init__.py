"""Exact Clifford-valued Segal-Bargmann transform and Taylor isomorphism."""

from .clifford import (
    CliffordNumber,
    DimensionMismatchError,
    GaussianRational,
    blade_product,
)
from .fock import FockElement, fock_norm_sq, fock_to_function, fock_to_monogenic, taylor_map
from .gauss import Measure, clifford_pairing, gram, inner_mu, inner_rho, moment
from .poly import CliffordPolynomial, DegreeCapError, MultiIndex, get_degree_cap, set_degree_cap
from .transform import (
    HermiteExpansion,
    NotMonogenicError,
    ck_extend,
    heat,
    hermite,
    p_basis,
    restrict,
    sb_inverse,
    sb_transform,
)

__all__ = [
    "CliffordNumber",
    "CliffordPolynomial",
    "DegreeCapError",
    "DimensionMismatchError",
    "FockElement",
    "GaussianRational",
    "HermiteExpansion",
    "Measure",
    "MultiIndex",
    "NotMonogenicError",
    "blade_product",
    "ck_extend",
    "clifford_pairing",
    "fock_norm_sq",
    "fock_to_function",
    "fock_to_monogenic",
    "get_degree_cap",
    "gram",
    "heat",
    "hermite",
    "inner_mu",
    "inner_rho",
    "moment",
    "p_basis",
    "restrict",
    "sb_inverse",
    "sb_transform",
    "set_degree_cap",
    "taylor_map",
]

__version__ = "0.1.0"
