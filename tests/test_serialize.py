"""Canonical JSON wire format: round trips, sort order, strict rejection,
and the numerator codec against the per-term codec of `oracles`."""

import itertools
import json
import random
import sys
import tracemalloc
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
from monogenic import serialize
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
    scalar_to_json,
    scalar_to_text,
)
from monogenic.clifford import BoundsError, _part_text
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
    # the JSON printer of the same scalars writes each part reduced on its own
    assert scalar_to_json(GaussianRational(2)) == {"re": "2", "im": "0"}
    assert scalar_to_json(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == {"re": "1/2", "im": "-3/4"}


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
    # "0" parts, a zero pair and a term of zero pairs only: the zero pair
    # and the empty term are dropped as the parts are scaled, and the value
    # is the one the oracle parses
    zeros = [{"blade": [1], "re": "0", "im": "0"}, {"blade": [], "re": "0", "im": "0"}]
    coeff = [zeros[0], {"blade": [2], "re": "1/2", "im": "0"}, {"blade": [1, 2], "re": "0", "im": "-1/3"}]
    stored = (6, {2: (3, 0), 3: (0, -2)})
    number = clifford_from_json(coeff, 2)
    assert (number._den, number._blades) == stored and number == oracle_clifford_from_json(coeff, 2)
    number = clifford_from_json(zeros, 2)
    assert (number._den, number._blades) == (1, {}) and number == CliffordNumber.zero(2)
    for field, parse, oracle in (
            ("terms", poly_from_json, oracle_poly_from_json),
            ("coeffs", expansion_from_json, lambda data: oracle_index_map_from_json(data, "coeffs")),
            ("entries", fock_from_json, lambda data: oracle_index_map_from_json(data, "entries"))):
        def entry(beta, value):
            return {"x0": 0, "beta": beta, "coeff": value} if field == "terms" else {"beta": beta, "value": value}

        data = {"n": 2, field: [entry([1, 0], coeff), entry([0, 2], zeros)]}
        value = parse(data)
        f = value if field == "terms" else value._poly
        assert (f._den, f._num) == (stored[0], {(0, (1, 0)): stored[1]}) and value == oracle(data)


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


def test_an_out_of_range_dimension_costs_no_more_memory_than_an_in_range_one():
    # 6,000 one-index blades with indices near n = 200,000 in a 0.86 MB
    # document: a mask per blade would hold 25 KB each (160 MB in all)
    # before the dimension is refused
    n = 200_000
    blades = [{"blade": [n - j], "re": "1", "im": "0"} for j in range(6000)]
    document = {"n": n, "terms": [{"x0": 0, "beta": [0] * n, "coeff": blades}]}
    for parse, data in ((poly_from_json, document), (lambda d: clifford_from_json(d, n), blades)):
        tracemalloc.start()
        try:
            with pytest.raises(BoundsError, match=r"^dimension must be in \[1, 16\], got 200000$"):
                parse(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


def test_parts_longer_than_the_digit_limit_are_schema_errors():
    limit = sys.get_int_max_str_digits()
    for text in ("1" * (limit + 1), "1/" + "3" * (limit + 1), "-" + "7" * (limit + 1)):
        with pytest.raises(SchemaError, match=f"exceeds the {limit}-digit int limit"):
            parse_fraction(text)
    assert parse_fraction("9" * limit) == 10 ** limit - 1


# -- the printers' per-call memo against the oracles ---------------------------------

def _memo_values():
    """Values whose numerators repeat across blades and terms (also as re
    of one blade and -im of another), with zero real or imaginary parts,
    over den = 1 with negative numerators, and values that share blade
    maps with the value they were read from through restrict and terms()."""
    n = 3
    g = GaussianRational
    third = Fraction(1, 3)
    repeated = CliffordNumber(n, {(): g(third, third), (1,): g(third), (2, 3): g(0, -third),
                                  (1, 2, 3): g(2 * third, -third), (1, 3): g(-third, 2 * third)})
    integral = CliffordNumber(n, {(): g(-2), (1,): g(3, -2), (2,): g(0, -2), (3,): g(0, 5),
                                  (1, 2): g(-3, 3)})
    yield repeated, integral
    betas = [(0, 0, 0), (1, 0, 0), (0, 2, 1), (2, 1, 0), (1, 1, 1)]
    for coeffs in ((repeated,) * 5, (integral,) * 5, (repeated, integral, repeated * 3,
                                                        integral * third, -repeated)):
        f = CliffordPolynomial(n, {(0, b): c for b, c in zip(betas, coeffs)})
        F = ck_extend(f)
        yield (f, F, F + CliffordPolynomial.monomial(n, 3, (0, 1, 0), integral),
               HermiteExpansion(n, dict(zip(betas, coeffs))),
               FockElement(n, dict(zip(betas, coeffs))))


def _numerators(value, text=False):
    """The distinct numerators that a printer of value turns into text."""
    if isinstance(value, CliffordNumber):
        maps = [value._blades]
    else:
        maps = getattr(value, "_poly", value)._num.values()
    return {part for blades in maps for re, im in blades.values() for part in (re, abs(im) if text else im)}


def _counting_part_text(monkeypatch):
    calls = []

    def part_text(num, den):
        calls.append(num)
        return _part_text(num, den)

    monkeypatch.setattr(serialize, "_part_text", part_text)
    return calls


def test_printers_print_each_distinct_numerator_once(monkeypatch):
    calls = _counting_part_text(monkeypatch)
    checked = 0
    for group in _memo_values():
        for value in group:
            to_json, oracle_to_json, _, _ = _codecs(value)
            if isinstance(value, CliffordNumber):
                to_text, oracle_to_text = clifford_to_text, oracle_clifford_to_text
            elif isinstance(value, CliffordPolynomial):
                to_text, oracle_to_text = poly_to_text, oracle_poly_to_text
            elif isinstance(value, FockElement):
                to_text, oracle_to_text = fock_to_text, oracle_fock_to_text
            else:
                to_text = None
            calls.clear()
            assert json.dumps(to_json(value)) == json.dumps(oracle_to_json(value))
            assert sorted(calls) == sorted(_numerators(value))
            if to_text is not None:
                calls.clear()
                assert to_text(value) == oracle_to_text(value)
                assert sorted(calls) == sorted(_numerators(value, text=True))
            checked += 1
    assert checked == 17
    # the repeats are there to be memoised: the 152 parts of the last F
    # have 23 distinct numerators
    F = list(_memo_values())[3][1]
    assert (sum(2 * len(blades) for blades in F._num.values()), len(_numerators(F))) == (152, 23)


def test_printers_of_values_that_share_blade_maps():
    shared_by_restrict = shared_by_terms = 0
    for group in list(_memo_values())[1:]:
        for F in group[:3]:
            before = (json.dumps(poly_to_json(F)), poly_to_text(F))
            restricted = F.restrict()
            shared_by_restrict += sum(blades is F._num[key] for key, blades in restricted._num.items())
            assert json.dumps(poly_to_json(restricted)) == json.dumps(oracle_poly_to_json(restricted))
            assert poly_to_text(restricted) == oracle_poly_to_text(restricted)
            for k0, beta, coeff in F.terms():
                shared_by_terms += coeff._blades is F._num[k0, beta]
                assert clifford_to_json(coeff) == oracle_clifford_to_json(coeff)
                assert clifford_to_text(coeff) == oracle_clifford_to_text(coeff)
                for _, part in coeff.terms():
                    assert scalar_to_text(part) == oracle_scalar_to_text(part)
            # printing reads the shared maps and never writes them
            assert (json.dumps(poly_to_json(F)), poly_to_text(F)) == before
            assert F == oracle_poly_from_json(json.loads(before[0]))
    # restrict and terms() adopt the blade maps they keep unchanged
    assert (shared_by_restrict, shared_by_terms) == (15, 19)


def test_unprintable_parts_raise_on_every_print():
    # a part past the int-string digit limit, after parts that print and
    # repeated: every call raises, also after a printable value has been
    # printed in between, so no call reuses a text or a failure of another
    limit = sys.get_int_max_str_digits()
    n, big = 2, 10 ** limit
    g = GaussianRational
    number = CliffordNumber(n, {(): g(Fraction(1, 2), 3), (1,): g(big, big), (2,): g(-big)})
    entries = {(0, 0): CliffordNumber(n, {(1,): g(Fraction(1, 2))}), (1, 1): number,
               (0, 2): number}
    poly = CliffordPolynomial(n, {(0, b): c for b, c in entries.items()})
    printable = CliffordNumber(n, {(1,): g(Fraction(1, 2), -3)})
    printers = [(clifford_to_json, number), (clifford_to_text, number),
                (scalar_to_text, g(big, Fraction(1, 2))), (scalar_to_json, g(Fraction(1, 2), big)),
                (poly_to_json, poly), (poly_to_text, poly),
                (expansion_to_json, HermiteExpansion(n, entries)),
                (fock_to_json, FockElement(n, entries)), (fock_to_text, FockElement(n, entries))]
    for printer, value in printers:
        for _ in range(2):
            with pytest.raises(BoundsError, match=f"exceeds the {limit}-digit limit"):
                printer(value)
            assert clifford_to_json(printable) == [{"blade": [1], "re": "1/2", "im": "-3"}]
