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
"""

import json
import random
from pathlib import Path

from monogenic import fock, serialize, transform, verify

DATA = Path(__file__).resolve().parent / "data" / "transform_stream_n3_seed0.jsonl"
REQUESTS = 25
CONTAINERS = Path(__file__).resolve().parent / "data" / "containers_seed0.jsonl"
CONTAINERS_PER_N = 8


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
