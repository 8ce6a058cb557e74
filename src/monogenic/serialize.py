"""Canonical JSON wire format for all value types, and the text tables.

Rationals travel as reduced "p/q" strings (bare "p" when q = 1, "-"
only in front).  Serialization is canonical: terms are emitted in a
fixed sort order, so parse(serialize(x)) == x bit-exactly and equal
values serialize to identical bytes.

Both directions work on the stored form, integer numerators over one
denominator, and build no object per term.  A printer prints a value in
one pass: it sorts the keys of a polynomial or container once (total
degree, k0, beta) and the blades of each term of more than one blade by
`clifford._blade_order`, and prints every part from its numerator and
the value's shared denominator (a scalar's JSON, `scalar_to_json`, each
part over its own).  A Fock element stores alpha(e^beta) / beta!, so its
printers print beta! times each stored numerator, multiplied part by
part as it is printed, not in a scaled copy of the value.  Numerators
repeat across blades and terms, so each printer call keeps one memo
{numerator: text} over that denominator (`_Texts`), and
`clifford._part_text`, which reduces a part with one gcd, runs once per
distinct (weighted) numerator of the value.  The memo lives for one call
and stores only texts that printed.  A parser splits each "p/q" into two
ints, rejects exactly the texts that `str(Fraction(text))` would not
print back, turns blade lists into masks, and hands the parts of the
whole value to `clifford._over_lcm`, the constructor's rule: one lcm per
polynomial, container or Clifford number, every part scaled to it and
the zero pairs and empty terms dropped.  Parts in lowest terms over that
lcm are already reduced, so the result is adopted as it is
(`CliffordNumber._raw`, `CliffordPolynomial._adopt`) and no reducer
runs; a Fock element's entries are then divided by beta!
(`poly._over_factorials`), which reduces.  The dimension is refused only
once a value has been read, so that a fault inside it is reported first;
until then a dimension past `MAX_DIMENSION` keys each blade by its index
tuple instead of a mask of up to n bits, so it costs no more memory than
its input.  The degree cap is checked once, on every term read, zero
terms included, before `_over_lcm` runs.  Error messages are formatted
only when a check fails.

Integers and text convert only up to the interpreter's digit limit,
`sys.get_int_max_str_digits()` (4300 digits by default; this module
never changes it).  Reading a longer part is a SchemaError; a result
with a longer part cannot be printed, a BoundsError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from sys import get_int_max_str_digits
from typing import Any

from .clifford import (MAX_DIMENSION, CliffordNumber, GaussianRational, _Blades, _blade_masks,
                       _blade_order, _check_dimension, _is_int, _over_lcm, _part_text)
from .fock import FockElement
from .poly import (CliffordPolynomial, MultiIndex, _check_degree_cap, _key_factorial, _over_factorials,
                   _sorted_terms)
from .transform import HermiteExpansion


class SchemaError(ValueError):
    """Input JSON violates the wire schema."""


_RATIONAL_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")

# the parts of one Clifford value, as `clifford._over_lcm` reads them:
# {blade mask: (p_re, q_re, p_im, q_im)}, keyed by index tuples instead
# while n is past MAX_DIMENSION (the value is then refused)
_Parts = dict[int, tuple[int, int, int, int]]


def _parse_part(text: Any) -> tuple[int, int]:
    """(p, q) of a rational written the way str(Fraction(p, q)) writes it."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SchemaError(f"malformed rational {text!r}")
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:
        raise SchemaError(f"rational exceeds the {get_int_max_str_digits()}-digit int limit") from None
    # "3/1", "4/2", "0/7", "-0", and a trailing newline, which `$` matches before
    if slash and (q == 1 or gcd(p, q) != 1) or not p and num[0] == "-" or text[-1] == "\n":
        raise SchemaError(f"rational {text!r} is not in lowest terms")
    return p, q


def parse_fraction(text: Any) -> Fraction:
    return Fraction(*_parse_part(text))


def _require(cond: bool, message: str, *args: Any) -> None:
    if not cond:
        raise SchemaError(message.format(*args))


def _parse_blade(data: Any, n: int) -> int | tuple[int, ...]:
    """The mask of a strictly increasing list of generator indices.  For an
    n past MAX_DIMENSION, which `_parse_parts` refuses once the value has
    been read, the index tuple keys the blade instead, so no mask wider
    than the largest algebra is built."""
    _require(isinstance(data, list), "blade must be a list, got {!r}", data)
    mask = prev = 0
    for i in data:
        _require(_is_int(i), "blade index {!r} not an int", i)
        _require(1 <= i <= n, "blade index {} out of range [1, {}]", i, n)
        _require(i > prev, "blade indices must be strictly increasing, got {}", data)
        prev = i
        # an index past the largest algebra stays out of the mask, which the tuple replaces
        mask |= (1 << (i - 1)) if i <= MAX_DIMENSION else 0
    return mask if n <= MAX_DIMENSION else tuple(data)


def _parse_beta(data: Any, n: int) -> MultiIndex:
    _require(isinstance(data, list) and len(data) == n,
             "multi-index must be a list of {} ints, got {!r}", n, data)
    for b in data:
        _require(_is_int(b, 0), "multi-index entry {!r} must be a nonnegative int", b)
    return tuple.__new__(MultiIndex, data)  # entries checked above


def _parse_parts(data: Any, n: int) -> _Parts:
    """The parts of one Clifford value; n is bounds-checked once the value
    has been read, and until then a blade of an n past MAX_DIMENSION is
    keyed by its index tuple (`_parse_blade`)."""
    _require(isinstance(data, list), "Clifford value must be a list of terms, got {!r}", data)
    parts: _Parts = {}
    for item in data:
        _require(isinstance(item, dict) and item.keys() == {"blade", "re", "im"},
                 "Clifford term must have keys blade/re/im, got {!r}", item)
        mask = _parse_blade(item["blade"], n)
        _require(mask not in parts, "duplicate blade {}", item["blade"])
        parts[mask] = (*_parse_part(item["re"]), *_parse_part(item["im"]))
    _check_dimension(n)
    return parts


class _Texts(dict):
    """{numerator: its part text over den}, filled by `_part_text` on a
    miss.  A printer keeps one per call, over the shared denominator of the
    value it prints, so each distinct numerator is printed once; a part
    that cannot be printed raises before anything is stored."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> str:
        text = self[num] = _part_text(num, self.den)
        return text


def _blades_json(blades: _Blades, texts: _Texts, w: int = 1) -> list[dict]:
    """The terms of w * blades over texts.den; w = beta! prints a Fock entry."""
    out = []
    for mask in _blade_masks(blades):
        re, im = blades[mask]
        if w > 1:
            re, im = w * re, w * im
        out.append({"blade": list(_blade_order(mask)[1]), "re": texts[re], "im": texts[im]})
    return out


# -- CliffordNumber ---------------------------------------------------------

def clifford_to_json(value: CliffordNumber) -> list[dict]:
    return _blades_json(value._blades, _Texts(value._den))


def clifford_from_json(data: Any, n: int) -> CliffordNumber:
    den, num = _over_lcm({0: _parse_parts(data, n)})
    return CliffordNumber._raw(n, den, num.get(0, {}))


# -- polynomials and the multi-index containers -----------------------------

# field name -> (object noun, entry noun, entry keys, duplicate-key message,
# container class or None for a polynomial) for the {"n", field} wire shape
_INDEX_ENTRY = ("beta", "value"), "duplicate multi-index {1}"
_SHAPES = {
    "terms": ("polynomial", "polynomial term", ("x0", "beta", "coeff"),
              "duplicate term x0^{} * x^{}", None),
    "coeffs": ("expansion", "expansion entry", *_INDEX_ENTRY, HermiteExpansion),
    "entries": ("Fock element", "Fock entry", *_INDEX_ENTRY, FockElement),
}


def _from_json(data: Any, field: str) -> CliffordPolynomial | HermiteExpansion | FockElement:
    """The value of a {"n", field} object, over the lcm of every part
    denominator; the dimension, then the degree cap (on zero terms too),
    are checked after every entry has been read."""
    noun, entry_noun, keys, duplicate, cls = _SHAPES[field]
    _require(isinstance(data, dict) and "n" in data, "object must carry an 'n' field")
    n = data["n"]
    _require(_is_int(n, 1), "bad dimension {!r}", n)
    _require(data.keys() == {"n", field} and isinstance(data[field], list),
             "{} must have exactly the fields n and {}", noun, field)
    terms: dict[tuple[int, MultiIndex], _Parts] = {}
    for item in data[field]:
        _require(isinstance(item, dict) and item.keys() == set(keys),
                 "{} must have keys {}, got {!r}", entry_noun, "/".join(keys), item)
        k0 = item.get("x0", 0)
        _require(_is_int(k0, 0), "x0 exponent {!r} must be a nonnegative int", k0)
        beta = _parse_beta(item["beta"], n)
        _require((k0, beta) not in terms, duplicate, k0, tuple(beta))
        terms[k0, beta] = _parse_parts(item[keys[-1]], n)
    _check_dimension(n)
    _check_degree_cap(terms)  # zero terms too; `_over_lcm` only drops terms, so its result is adopted
    f = CliffordPolynomial._adopt(n, *_over_lcm(terms))
    return f if cls is None else cls._of(_over_factorials(f) if cls._weighted else f)


def poly_to_json(f: CliffordPolynomial) -> dict:
    texts = _Texts(f._den)
    return {"n": f.n, "terms": [{"x0": k0, "beta": list(beta), "coeff": _blades_json(blades, texts)}
                                for (k0, beta), blades in _sorted_terms(f._num)]}


def poly_from_json(data: Any) -> CliffordPolynomial:
    return _from_json(data, "terms")


def _index_map_to_json(container: HermiteExpansion | FockElement, field: str) -> dict:
    f, weighted = container._poly, container._weighted
    texts = _Texts(f._den)
    return {"n": f.n, field: [{"beta": list(key[1]), "value": _blades_json(
        blades, texts, _key_factorial(key) if weighted else 1)} for key, blades in _sorted_terms(f._num)]}


def expansion_to_json(f: HermiteExpansion) -> dict:
    return _index_map_to_json(f, "coeffs")


def expansion_from_json(data: Any) -> HermiteExpansion:
    return _from_json(data, "coeffs")


def fock_to_json(alpha: FockElement) -> dict:
    return _index_map_to_json(alpha, "entries")


def fock_from_json(data: Any) -> FockElement:
    return _from_json(data, "entries")


# -- plain text -------------------------------------------------------------

def _complex_text(re: int, im: int, texts: _Texts) -> str:
    """(re + im*i) / texts.den as "p/q", or "p/q + r/s i" with the sign of im;
    every part written with its denominator, "/1" too."""
    re_text, im_text = (text if "/" in text else text + "/1" for text in (texts[re], texts[abs(im)]))
    return f"{re_text} {'+' if im > 0 else '-'} {im_text} i" if im else re_text


def scalar_to_json(value: GaussianRational) -> dict:
    """{"re", "im"}, each part printed like every part of the wire format."""
    re, im = value.re, value.im
    return {"re": _Texts(re.denominator)[re.numerator], "im": _Texts(im.denominator)[im.numerator]}


def scalar_to_text(value: GaussianRational) -> str:
    den = lcm(value.re.denominator, value.im.denominator)
    return _complex_text(int(value.re * den), int(value.im * den), _Texts(den))


def _blades_text(blades: _Blades, texts: _Texts, w: int = 1) -> str:
    return " + ".join(f"({_complex_text(w * blades[mask][0], w * blades[mask][1], texts)}) "
                      + ("e" + "".join(map(str, _blade_order(mask)[1])) if mask else "1")
                      for mask in _blade_masks(blades)) or "0"


def clifford_to_text(value: CliffordNumber) -> str:
    return _blades_text(value._blades, _Texts(value._den))


def _table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns under a header row; no body reads as zero."""
    if len(rows) == 1:
        rows.append(("-",) * (len(rows[0]) - 1) + ("0",))
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def _text_rows(f: CliffordPolynomial, weighted: bool = False) -> list[tuple[str, str, str]]:
    """One row per term of f, its value times key! when weighted (a Fock
    element's entries)."""
    texts = _Texts(f._den)
    return [(str(k0), ",".join(map(str, beta)), _blades_text(blades, texts, _key_factorial(
        (k0, beta)) if weighted else 1)) for (k0, beta), blades in _sorted_terms(f._num)]


def poly_to_text(f: CliffordPolynomial) -> str:
    """Aligned term table: one row per monomial."""
    return _table([("x0", "beta", "coeff")] + _text_rows(f))


def fock_to_text(alpha: FockElement) -> str:
    return _table([("beta", "value")] + [row[1:] for row in _text_rows(alpha._poly, True)])
