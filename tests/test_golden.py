"""Byte-identity guards for the transform pipeline and the containers.

`tests/data/transform_stream_n3_seed0.jsonl` holds one line per seeded
n = 3 request: the canonical JSON of `sb_transform`, `taylor_map`,
`fock_norm_sq` and `sb_inverse`.  A quarter of the requests are Hermite
expansions.  The file was recorded before polynomials were stored as
integer numerators and pins every output byte of the pipeline; any
change in representation must reproduce it exactly.

`tests/data/containers_seed0.jsonl` holds one line per seeded Hermite
expansion and pair of Fock elements at n = 1..3: their JSON, text and
repr, both squared norms, `to_polynomial`, `fock_to_function`,
`fock_to_monogenic`, every grade and the sum.  It was recorded while
both containers still stored one CliffordNumber per multi-index.

`tests/data/clifford_seed0.jsonl` holds one line per seeded pair of
Clifford numbers: dense ones at n = 1..4 and sparse ones (at most 8
blades) at n = 8 and 16, with complex parts over prime denominators up
to 97.  It pins the JSON, text and repr of a*b, b*a, a + b, a - b, -a,
a - a and a scaled by a Fraction and by a GaussianRational, every grade
of a, its Hermitian conjugate, scalar part and squared norm, and the
inner product both ways.  It was recorded while `CliffordNumber` still
stored one GaussianRational per blade.

The seeded generators of `verify` feed all three files and the benchmark's
inputs.  They build stored numerators directly; each must draw the same
random stream and return the same values as the generators they replaced,
which `oracles` keeps.
"""

import contextvars
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from monogenic import (CliffordNumber, DegreeCapError, GaussianRational, fock, serialize,
                       set_degree_cap, transform, verify)
from monogenic.clifford import indices_from_mask, mask_from_indices

from oracles import PRIMES_TO_97

DATA = Path(__file__).resolve().parent / "data" / "transform_stream_n3_seed0.jsonl"
REQUESTS = 25
CONTAINERS = Path(__file__).resolve().parent / "data" / "containers_seed0.jsonl"
CONTAINERS_PER_N = 8
CLIFFORD = Path(__file__).resolve().parent / "data" / "clifford_seed0.jsonl"
# (n, most blades per operand, pairs drawn)
CLIFFORD_SHAPES = [(1, 2, 4), (2, 4, 4), (3, 6, 3), (4, 7, 3), (8, 6, 3), (16, 5, 3)]


def pipeline_lines(seed: int = 0, count: int = REQUESTS) -> list[str]:
    """One canonical JSON line per request."""
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        if i % 4 == 3:
            f = verify.rand_hermite_expansion(rng, 3, 6, max_terms=4)
        else:
            f = verify.rand_poly(rng, 3, 7, max_terms=6)
        F = transform.sb_transform(f)
        alpha = fock.taylor_map(F)
        lines.append(json.dumps({
            "transform": serialize.poly_to_json(F),
            "taylor": serialize.fock_to_json(alpha),
            "fock_norm_sq": str(fock.fock_norm_sq(alpha)),
            "inverse": serialize.poly_to_json(transform.sb_inverse(F)),
        }))
    return lines


def test_pipeline_bytes_are_pinned():
    expected = DATA.read_text().splitlines()
    assert len(expected) == REQUESTS
    for i, (got, want) in enumerate(zip(pipeline_lines(), expected)):
        assert got == want, f"request {i} changed"


def container_lines(seed: int = 0, per_n: int = CONTAINERS_PER_N) -> list[str]:
    """One canonical JSON line per (expansion, Fock pair) draw."""
    rng = random.Random(seed)
    lines = []
    for n in (1, 2, 3):
        for _ in range(per_n):
            f = verify.rand_hermite_expansion(rng, n, 6, max_terms=4)
            a = verify.rand_fock_element(rng, n, 6, max_terms=4)
            b = verify.rand_fock_element(rng, n, 6, max_terms=4)
            lines.append(json.dumps({
                "expansion": serialize.expansion_to_json(f),
                "expansion_repr": repr(f),
                "norm_sq": str(f.norm_sq()),
                "to_polynomial": serialize.poly_to_json(f.to_polynomial()),
                "fock": serialize.fock_to_json(a),
                "fock_text": serialize.fock_to_text(a),
                "fock_repr": repr(a),
                "fock_norm_sq": str(fock.fock_norm_sq(a)),
                "function": serialize.poly_to_json(fock.fock_to_function(a)),
                "monogenic": serialize.poly_to_json(fock.fock_to_monogenic(a)),
                "grades": a.grades(),
                "grade": [serialize.fock_to_json(a.grade(k)) for k in range(8)],
                "sum": serialize.fock_to_json(a + b),
            }))
    return lines


def test_container_bytes_are_pinned():
    expected = CONTAINERS.read_text().splitlines()
    assert len(expected) == 3 * CONTAINERS_PER_N
    for i, (got, want) in enumerate(zip(container_lines(), expected)):
        assert got == want, f"draw {i} changed"


def _seeded_part(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.choice(PRIMES_TO_97))


def _seeded_gaussian(rng: random.Random) -> GaussianRational:
    """Complex, real or imaginary, one part in five each way."""
    kind = rng.randrange(5)
    return GaussianRational(0 if kind == 0 else _seeded_part(rng),
                            0 if kind == 1 else _seeded_part(rng))


def _seeded_clifford(rng: random.Random, n: int, most: int) -> CliffordNumber:
    masks = rng.sample(range(2 ** n), rng.randint(1, most))
    return CliffordNumber(n, {indices_from_mask(m): _seeded_gaussian(rng) for m in masks})


def _formats(value: CliffordNumber) -> list:
    return [serialize.clifford_to_json(value), serialize.clifford_to_text(value), repr(value)]


def clifford_lines(seed: int = 0) -> list[str]:
    """One canonical JSON line per seeded pair (a, b)."""
    rng = random.Random(seed)
    lines = []
    for n, most, pairs in CLIFFORD_SHAPES:
        for _ in range(pairs):
            a, b = _seeded_clifford(rng, n, most), _seeded_clifford(rng, n, most)
            s, z = _seeded_part(rng), _seeded_gaussian(rng)
            conj = a.hermitian_conj()
            lines.append(json.dumps({
                "n": n,
                "a": _formats(a),
                "b": _formats(b),
                "ab": _formats(a * b),
                "ba": _formats(b * a),
                "sum": _formats(a + b),
                "difference": _formats(a - b),
                "negation": _formats(-a),
                "zero": _formats(a - a),
                "fraction_scaled": [str(s)] + _formats(a * s),
                "gaussian_scaled": [repr(z)] + _formats(a * z),
                "grades": [serialize.clifford_to_json(a.grade(k)) for k in range(n + 2)],
                "hermitian_conj": _formats(conj),
                "scalar_part": [repr(a.scalar_part()), serialize.scalar_to_text(a.scalar_part())],
                "inner": [repr(a.inner(b)), repr(b.inner(a))],
                "norm_sq": str(a.norm_sq()),
            }))
    return lines


def test_clifford_bytes_are_pinned():
    expected = CLIFFORD.read_text().splitlines()
    assert len(expected) == sum(pairs for _, _, pairs in CLIFFORD_SHAPES)
    for i, (got, want) in enumerate(zip(clifford_lines(), expected)):
        assert got == want, f"pair {i} changed"


# -- the seeded generators: the same random stream and the same values ------

# name -> the arguments after rng at dimension n
GENERATOR_ARGS = {
    "rand_fraction": lambda n: (),
    "rand_gaussian_rational": lambda n: (),
    "rand_multi_index": lambda n: (n, 4),
    "rand_clifford": lambda n: (n,),
    "rand_poly": lambda n: (n, 4),
    "rand_hermite_expansion": lambda n: (n, 4),
    "rand_fock_element": lambda n: (n, 4),
}


def _same(got, want) -> bool:
    """Equal values of one type, printing the same repr."""
    return type(got) is type(want) and got == want and repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(GENERATOR_ARGS))
def test_generators_draw_the_stream_and_values_they_drew(name):
    # the generators build stored numerators directly; the oracles are the
    # generators as they were, one Fraction per draw and the public
    # constructors, and each pair must leave its generator in one state
    draw, reference = getattr(verify, name), getattr(oracles, f"oracle_{name}")
    for seed in range(20):
        for n in (1, 2, 3):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            args = GENERATOR_ARGS[name](n)
            for _ in range(4):
                got, want = draw(got_rng, *args), reference(want_rng, *args)
                assert _same(got, want), (seed, n)
            assert got_rng.getstate() == want_rng.getstate(), (seed, n)


@pytest.mark.parametrize("name", ["rand_poly", "rand_hermite_expansion", "rand_fock_element"])
def test_generators_check_the_degree_cap_on_every_drawn_term(name):
    # with the cap below the drawn degrees, the same draws raise the error of
    # the first term above it, zero-valued terms included, or return the
    # same value
    draw, reference = getattr(verify, name), getattr(oracles, f"oracle_{name}")

    def outcome(generator, seed, n):
        try:
            return generator(random.Random(seed), n, 6, 4)
        except DegreeCapError as exc:
            return str(exc)

    def outcomes():
        set_degree_cap(3)
        return [(outcome(draw, seed, n), outcome(reference, seed, n))
                for seed in range(20) for n in (1, 2, 3)]

    pairs = contextvars.copy_context().run(outcomes)
    assert all(type(got) is type(want) and got == want for got, want in pairs)
    assert 10 < sum(isinstance(got, str) for got, _ in pairs) < len(pairs)


def _dense_draw(rng: random.Random, n: int, blades: int, gaussian, indices) -> dict:
    """The coefficients of one dense multivector drawn the way the wide
    algebra workload of the benchmark draws them: distinct masks, nonzero
    values."""
    coeffs = {}
    for mask in rng.sample(range(2 ** n), blades):
        value = GaussianRational()
        while not value:
            value = gaussian(rng)
        coeffs[indices(mask)] = value
    return coeffs


def test_dense_draw_at_n16_keeps_stream_values_and_stored_form():
    got_rng, want_rng = random.Random(0), random.Random(0)
    got = _dense_draw(got_rng, 16, 32, verify.rand_gaussian_rational, indices_from_mask)
    want = _dense_draw(want_rng, 16, 32, oracles.oracle_rand_gaussian_rational,
                       oracles.bit_scan_indices)
    assert got_rng.getstate() == want_rng.getstate()
    assert list(got) == list(want)
    assert all(_same(got[b], want[b]) and type(got[b].re) is Fraction for b in got)
    # the constructor stores the numerators over the lcm of the part denominators
    x = CliffordNumber(16, got)
    den = math.lcm(*(p.denominator for v in got.values() for p in (v.re, v.im)))
    assert x._den == den
    assert x._blades == {mask_from_indices(b, 16): (int(v.re * den), int(v.im * den))
                         for b, v in got.items()}
    assert list(x.terms()) == sorted(got.items(), key=lambda item: (len(item[0]), item[0]))
