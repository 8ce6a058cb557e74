"""Canonical JSON wire format for all value types.

Rationals travel as reduced "p/q" strings (bare "p" when q = 1, "-"
only in front).  Serialization is canonical: terms are emitted in a
fixed sort order, so parse(serialize(x)) == x bit-exactly and equal
values serialize to identical bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .clifford import CliffordNumber, GaussianRational, _part_text
from .fock import FockElement
from .poly import CliffordPolynomial, MultiIndex, _MultiIndexMap
from .transform import HermiteExpansion


class SchemaError(ValueError):
    """Input JSON violates the wire schema."""


_RATIONAL_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


def parse_fraction(text: Any) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SchemaError(f"malformed rational {text!r}")
    value = Fraction(text)
    if str(value) != text:
        raise SchemaError(f"rational {text!r} is not in lowest terms")
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _parse_blade(data: Any, n: int) -> tuple[int, ...]:
    _require(isinstance(data, list), f"blade must be a list, got {data!r}")
    prev = 0
    for i in data:
        _require(isinstance(i, int) and not isinstance(i, bool), f"blade index {i!r} not an int")
        _require(1 <= i <= n, f"blade index {i} out of range [1, {n}]")
        _require(i > prev, f"blade indices must be strictly increasing, got {data}")
        prev = i
    return tuple(data)


def _parse_beta(data: Any, n: int) -> MultiIndex:
    _require(isinstance(data, list) and len(data) == n,
             f"multi-index must be a list of {n} ints, got {data!r}")
    for b in data:
        _require(isinstance(b, int) and not isinstance(b, bool) and b >= 0,
                 f"multi-index entry {b!r} must be a nonnegative int")
    return MultiIndex(data)


# -- CliffordNumber ---------------------------------------------------------

def clifford_to_json(value: CliffordNumber) -> list[dict]:
    """Each part printed from its stored numerator: one gcd, no Fraction."""
    den = value._den
    return [
        {"blade": list(indices), "re": _part_text(re, den), "im": _part_text(im, den)}
        for indices, (re, im) in value._sorted()
    ]


def clifford_from_json(data: Any, n: int) -> CliffordNumber:
    _require(isinstance(data, list), f"Clifford value must be a list of terms, got {data!r}")
    coeffs: dict[tuple[int, ...], GaussianRational] = {}
    for item in data:
        _require(isinstance(item, dict) and set(item) == {"blade", "re", "im"},
                 f"Clifford term must have keys blade/re/im, got {item!r}")
        blade = _parse_blade(item["blade"], n)
        _require(blade not in coeffs, f"duplicate blade {list(blade)}")
        coeffs[blade] = GaussianRational(parse_fraction(item["re"]), parse_fraction(item["im"]))
    return CliffordNumber(n, coeffs)


# -- CliffordPolynomial -----------------------------------------------------

def poly_to_json(f: CliffordPolynomial) -> dict:
    return {
        "n": f.n,
        "terms": [
            {"x0": k0, "beta": list(beta), "coeff": clifford_to_json(coeff)}
            for k0, beta, coeff in f.terms()
        ],
    }


def _parse_dimension(data: Any) -> int:
    _require(isinstance(data, dict) and "n" in data, "object must carry an 'n' field")
    n = data["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, f"bad dimension {n!r}")
    return n


def poly_from_json(data: Any) -> CliffordPolynomial:
    n = _parse_dimension(data)
    _require(set(data) == {"n", "terms"} and isinstance(data["terms"], list),
             "polynomial must have exactly the fields n and terms")
    terms: dict[tuple[int, MultiIndex], CliffordNumber] = {}
    for item in data["terms"]:
        _require(isinstance(item, dict) and set(item) == {"x0", "beta", "coeff"},
                 f"polynomial term must have keys x0/beta/coeff, got {item!r}")
        k0 = item["x0"]
        _require(isinstance(k0, int) and not isinstance(k0, bool) and k0 >= 0,
                 f"x0 exponent {k0!r} must be a nonnegative int")
        beta = _parse_beta(item["beta"], n)
        _require((k0, beta) not in terms, f"duplicate term x0^{k0} * x^{tuple(beta)}")
        terms[(k0, beta)] = clifford_from_json(item["coeff"], n)
    return CliffordPolynomial(n, terms)


# -- HermiteExpansion and FockElement ---------------------------------------

# field name -> (class, object noun, entry noun) for the {"n", field} wire shape
_INDEX_MAPS = {
    "coeffs": (HermiteExpansion, "expansion", "expansion entry"),
    "entries": (FockElement, "Fock element", "Fock entry"),
}


def _index_map_to_json(container: _MultiIndexMap, field: str) -> dict:
    return {
        "n": container.n,
        field: [
            {"beta": list(beta), "value": clifford_to_json(value)}
            for beta, value in container._items()
        ],
    }


def _index_map_from_json(data: Any, field: str) -> _MultiIndexMap:
    cls, noun, entry_noun = _INDEX_MAPS[field]
    n = _parse_dimension(data)
    _require(set(data) == {"n", field} and isinstance(data[field], list),
             f"{noun} must have exactly the fields n and {field}")
    entries: dict[MultiIndex, CliffordNumber] = {}
    for item in data[field]:
        _require(isinstance(item, dict) and set(item) == {"beta", "value"},
                 f"{entry_noun} must have keys beta/value, got {item!r}")
        beta = _parse_beta(item["beta"], n)
        _require(beta not in entries, f"duplicate multi-index {tuple(beta)}")
        entries[beta] = clifford_from_json(item["value"], n)
    return cls(n, entries)


def expansion_to_json(f: HermiteExpansion) -> dict:
    return _index_map_to_json(f, "coeffs")


def expansion_from_json(data: Any) -> HermiteExpansion:
    return _index_map_from_json(data, "coeffs")


def fock_to_json(alpha: FockElement) -> dict:
    return _index_map_to_json(alpha, "entries")


def fock_from_json(data: Any) -> FockElement:
    return _index_map_from_json(data, "entries")


# -- plain text -------------------------------------------------------------

def scalar_to_text(value: GaussianRational) -> str:
    re_part = f"{value.re.numerator}/{value.re.denominator}"
    if not value.im:
        return re_part
    sign = "+" if value.im > 0 else "-"
    im = abs(value.im)
    return f"{re_part} {sign} {im.numerator}/{im.denominator} i"


def clifford_to_text(value: CliffordNumber) -> str:
    if value.is_zero():
        return "0"
    parts = []
    for indices, coeff in value.terms():
        blade = "e" + "".join(str(i) for i in indices) if indices else "1"
        parts.append(f"({scalar_to_text(coeff)}) {blade}")
    return " + ".join(parts)


def _table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns under a header row; no body reads as zero."""
    if len(rows) == 1:
        rows.append(("-",) * (len(rows[0]) - 1) + ("0",))
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def poly_to_text(f: CliffordPolynomial) -> str:
    """Aligned term table: one row per monomial."""
    return _table([("x0", "beta", "coeff")] + [
        (str(k0), ",".join(map(str, beta)), clifford_to_text(coeff))
        for k0, beta, coeff in f.terms()])


def fock_to_text(alpha: FockElement) -> str:
    return _table([("beta", "value")] + [
        (",".join(map(str, beta)), clifford_to_text(value)) for beta, value in alpha.entries()])
