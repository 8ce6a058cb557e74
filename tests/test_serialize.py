"""Canonical JSON wire format: round trips, sort order, strict rejection,
and the numerator codec against the per-term codec of `oracles`."""

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from oracles import (
    PRIMES_TO_97,
    oracle_clifford_from_json,
    oracle_clifford_to_json,
    oracle_clifford_to_text,
    oracle_fock_to_text,
    oracle_index_map_from_json,
    oracle_index_map_to_json,
    oracle_parse_fraction,
    oracle_poly_from_json,
    oracle_poly_to_json,
    oracle_poly_to_text,
    oracle_scalar_to_text,
)
from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    ck_extend,
    p_basis,
)
from monogenic.serialize import (
    SchemaError,
    clifford_from_json,
    clifford_to_json,
    clifford_to_text,
    expansion_from_json,
    expansion_to_json,
    fock_from_json,
    fock_to_json,
    fock_to_text,
    parse_fraction,
    poly_from_json,
    poly_to_json,
    poly_to_text,
    scalar_to_text,
)
from monogenic.verify import (
    rand_clifford,
    rand_fock_element,
    rand_hermite_expansion,
    rand_multi_index,
    rand_poly,
)


# -- rationals ----------------------------------------------------------------

def test_parse_fraction_accepts_canonical():
    assert parse_fraction("0") == 0
    assert parse_fraction("-3/4") == Fraction(-3, 4)
    assert parse_fraction("17") == 17


@pytest.mark.parametrize("bad", ["2/4", "1/-2", "+1", "01", "1/0", "0/2", "1.5", "", 3, None, "-0"])
def test_parse_fraction_rejects_noncanonical(bad):
    with pytest.raises(SchemaError):
        parse_fraction(bad)


# -- clifford numbers -----------------------------------------------------------

def test_clifford_schema_instance():
    n = 2
    value = CliffordNumber(n, {(1,): 1, (1, 2): GaussianRational(0, Fraction(-1, 2))})
    assert clifford_to_json(value) == [
        {"blade": [1], "re": "1", "im": "0"},
        {"blade": [1, 2], "re": "0", "im": "-1/2"},
    ]


def test_clifford_terms_sorted_by_grade_then_indices():
    n = 3
    value = CliffordNumber(n, {(1, 2, 3): 1, (3,): 1, (1,): 1, (2, 3): 1, (): 1})
    blades = [item["blade"] for item in clifford_to_json(value)]
    assert blades == [[], [1], [3], [2, 3], [1, 2, 3]]


def test_clifford_round_trip_random():
    rng = random.Random(21)
    for _ in range(50):
        value = rand_clifford(rng, 3)
        assert clifford_from_json(clifford_to_json(value), 3) == value


@pytest.mark.parametrize("bad", [
    {"blade": [1], "re": "1", "im": "0"},                       # not a list
    [{"blade": [2, 1], "re": "1", "im": "0"}],                  # unsorted blade
    [{"blade": [1, 1], "re": "1", "im": "0"}],                  # repeated index
    [{"blade": [0], "re": "1", "im": "0"}],                     # index < 1
    [{"blade": [3], "re": "1", "im": "0"}],                     # index > n
    [{"blade": [1], "re": "2/4", "im": "0"}],                   # non-reduced
    [{"blade": [1], "re": "1"}],                                # missing key
    [{"blade": [1], "re": "1", "im": "0", "x": 1}],             # extra key
    [{"blade": [1], "re": "1", "im": "0"},
     {"blade": [1], "re": "2", "im": "0"}],                     # duplicate blade
])
def test_clifford_strict_rejection(bad):
    with pytest.raises(SchemaError):
        clifford_from_json(bad, 2)


# -- polynomials -----------------------------------------------------------------

def test_poly_round_trip_random():
    rng = random.Random(22)
    for _ in range(40):
        f = rand_poly(rng, 2, 4)
        blob = json.dumps(poly_to_json(f))
        assert poly_from_json(json.loads(blob)) == f


def test_poly_serialization_is_canonical():
    n = 2
    f = p_basis(n, (2, 0))
    blob = poly_to_json(f)
    assert blob["n"] == 2
    keys = [(t["x0"], tuple(t["beta"])) for t in blob["terms"]]
    assert keys == sorted(keys, key=lambda t: (t[0] + sum(t[1]), t[0], t[1]))
    assert json.dumps(poly_to_json(poly_from_json(blob))) == json.dumps(blob)


@pytest.mark.parametrize("bad", [
    {"terms": []},                                               # missing n
    {"n": 0, "terms": []},                                       # bad dimension
    {"n": 2, "terms": [], "extra": 1},                           # extra field
    {"n": 2, "terms": [{"x0": -1, "beta": [0, 0], "coeff": []}]},
    {"n": 2, "terms": [{"x0": 0, "beta": [0], "coeff": []}]},    # arity
    {"n": 2, "terms": [{"x0": 0, "beta": [0, -1], "coeff": []}]},
    {"n": 2, "terms": [{"x0": 0, "beta": [0, 0], "coeff": []},
                       {"x0": 0, "beta": [0, 0], "coeff": []}]},  # duplicate
])
def test_poly_strict_rejection(bad):
    with pytest.raises(SchemaError):
        poly_from_json(bad)


# -- expansions and fock elements ---------------------------------------------------

def test_expansion_round_trip_random():
    rng = random.Random(23)
    for _ in range(40):
        f = rand_hermite_expansion(rng, 2, 4)
        assert expansion_from_json(expansion_to_json(f)) == f


def test_fock_round_trip_random():
    rng = random.Random(24)
    for _ in range(40):
        alpha = rand_fock_element(rng, 2, 4)
        assert fock_from_json(fock_to_json(alpha)) == alpha


def test_fock_strict_rejection():
    with pytest.raises(SchemaError):
        fock_from_json({"n": 2, "entries": [{"beta": [1, 0], "value": [], "x": 0}]})
    with pytest.raises(SchemaError):
        expansion_from_json({"n": 2, "coeffs": [{"beta": [1, 0], "value": []},
                                                {"beta": [1, 0], "value": []}]})


# -- text format ---------------------------------------------------------------------

def test_scalar_to_text():
    assert scalar_to_text(GaussianRational(2)) == "2/1"
    assert scalar_to_text(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2 - 3/4 i"


def test_poly_to_text_is_aligned_table():
    n = 2
    text = poly_to_text(p_basis(n, (1, 0)))
    lines = text.splitlines()
    assert lines[0].split() == ["x0", "beta", "coeff"]
    assert len(lines) == 3
    assert poly_to_text(CliffordPolynomial.zero(n)).splitlines()[1].split() == ["-", "-", "0"]


# -- the numerator codec against the per-term oracle ----------------------------------

def _codec_values():
    """Seeded values of every wire type: Clifford numbers, polynomials with
    and without x0 terms (over large prime denominators too) at n = 1..4 and
    sparse at n = 8 and 16, Hermite expansions, Fock elements, and the zero
    of each type."""
    rng = random.Random(31)
    for n in (1, 2, 3, 4, 8, 16):
        yield from (CliffordNumber.zero(n), CliffordPolynomial.zero(n), HermiteExpansion(n),
                    FockElement(n))
        for _ in range(8 if n <= 4 else 3):
            f = rand_poly(rng, n, 4 if n <= 4 else 2)
            scale = Fraction(rng.choice(PRIMES_TO_97), rng.choice(PRIMES_TO_97))
            x0_term = CliffordPolynomial.monomial(n, rng.randint(1, 3), rand_multi_index(rng, n, 2),
                                                  rand_clifford(rng, n) * scale)
            yield from (rand_clifford(rng, n), f, f + x0_term, rand_hermite_expansion(rng, n, 3),
                        rand_fock_element(rng, n, 3))
            if n <= 4:
                yield ck_extend(f)


def _codecs(value):
    """(JSON printer, oracle printer, parser, oracle parser) for the type of value."""
    if isinstance(value, CliffordNumber):
        n = value.n
        return (clifford_to_json, oracle_clifford_to_json,
                lambda data: clifford_from_json(data, n),
                lambda data: oracle_clifford_from_json(data, n))
    if isinstance(value, CliffordPolynomial):
        return (poly_to_json, oracle_poly_to_json, poly_from_json,
                oracle_poly_from_json)
    if isinstance(value, HermiteExpansion):
        return (expansion_to_json, lambda f: oracle_index_map_to_json(f, "coeffs"),
                expansion_from_json, lambda data: oracle_index_map_from_json(data, "coeffs"))
    return (fock_to_json, lambda f: oracle_index_map_to_json(f, "entries"),
            fock_from_json, lambda data: oracle_index_map_from_json(data, "entries"))


def _outcome(parse, data):
    """The parsed value, or the type and message of the error raised."""
    try:
        return parse(data)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_codec_prints_the_oracle_bytes_and_parses_its_values():
    count = 0
    for value in _codec_values():
        to_json, oracle_to_json, from_json, oracle_from_json = _codecs(value)
        blob = json.dumps(to_json(value))
        assert blob == json.dumps(oracle_to_json(value))
        data = json.loads(blob)
        parsed = from_json(data)
        assert parsed == value == oracle_from_json(data)
        assert type(parsed) is type(value)
        count += 1
    assert count == 246


def test_text_printers_print_the_oracle_bytes():
    for value in _codec_values():
        if isinstance(value, CliffordNumber):
            assert clifford_to_text(value) == oracle_clifford_to_text(value)
        elif isinstance(value, CliffordPolynomial):
            assert poly_to_text(value) == oracle_poly_to_text(value)
        elif isinstance(value, FockElement):
            assert fock_to_text(value) == oracle_fock_to_text(value)
            for _, entry in value.entries():
                for _, coeff in entry.terms():
                    assert scalar_to_text(coeff) == oracle_scalar_to_text(coeff)


_JUNK = [None, True, -1, 0, 2, 13, 17, 1.5, "1", "2/4", "-0", "x", [], [1], [0, 1], [2, 1], {},
         {"blade": [1], "re": "1", "im": "0"}]


def _mutants(doc):
    """Copies of doc with one node replaced by each junk value, or dropped."""
    def nodes(node, path):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield path + (key,)
            if isinstance(node[key], (dict, list)):
                yield from nodes(node[key], path + (key,))

    for path in nodes(doc, ()):
        for junk in _JUNK + ["drop"]:
            copy = json.loads(json.dumps(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            if junk == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = junk
            yield copy


def test_codec_rejects_what_the_oracle_rejects_with_the_same_error():
    # one fault (or, where the junk breaks two checks, two) anywhere in a
    # document: the same value or the same error type and message
    rng = random.Random(32)
    values = [rand_poly(rng, 2, 3, max_terms=2) + CliffordPolynomial.monomial(2, 1, (0, 1)),
              rand_hermite_expansion(rng, 2, 3, max_terms=2), rand_fock_element(rng, 2, 3, 2),
              rand_clifford(rng, 2)]
    checked = 0
    for value in values:
        to_json, _, from_json, oracle_from_json = _codecs(value)
        for doc in _mutants(to_json(value)):
            assert _outcome(from_json, doc) == _outcome(oracle_from_json, doc), doc
            checked += 1
    assert checked == 1653


@pytest.mark.parametrize("text, expected", [
    ("0", Fraction(0)), ("-3/4", Fraction(-3, 4)), ("17", Fraction(17)),
    ("-0", "rational '-0' is not in lowest terms"),
    ("0/1", "rational '0/1' is not in lowest terms"),
    ("0/7", "rational '0/7' is not in lowest terms"),
    ("-0/3", "rational '-0/3' is not in lowest terms"),
    ("4/2", "rational '4/2' is not in lowest terms"),
    ("-4/2", "rational '-4/2' is not in lowest terms"),
    ("3/1", "rational '3/1' is not in lowest terms"),
    ("1\n", "rational '1\\n' is not in lowest terms"),
    ("007", "malformed rational '007'"),
    ("+1", "malformed rational '+1'"),
    ("1/0", "malformed rational '1/0'"),
    (" 1", "malformed rational ' 1'"),
    ("1_0", "malformed rational '1_0'"),
    ("٣", "malformed rational '٣'"),
    (3, "malformed rational 3"),
])
def test_lowest_terms_rule_matches_the_fraction_oracle(text, expected):
    got = _outcome(parse_fraction, text)
    assert got == _outcome(oracle_parse_fraction, text)
    assert got == (expected if isinstance(expected, Fraction) else (SchemaError, expected))


def test_lowest_terms_rule_matches_the_oracle_on_every_short_text():
    alphabet = "-/0129\n"
    for length in range(1, 5):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert _outcome(parse_fraction, text) == _outcome(oracle_parse_fraction, text)


def test_parts_longer_than_the_digit_limit_are_schema_errors():
    limit = sys.get_int_max_str_digits()
    for text in ("1" * (limit + 1), "1/" + "3" * (limit + 1), "-" + "7" * (limit + 1)):
        with pytest.raises(SchemaError, match=f"exceeds the {limit}-digit int limit"):
            parse_fraction(text)
    assert parse_fraction("9" * limit) == 10 ** limit - 1
