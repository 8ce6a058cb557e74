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
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from monogenic import CliffordNumber, GaussianRational, fock, serialize, transform, verify
from monogenic.clifford import indices_from_mask

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
