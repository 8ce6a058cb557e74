"""Byte-identity guard for the transform pipeline.

`tests/data/transform_stream_n3_seed0.jsonl` holds one line per seeded
n = 3 request: the canonical JSON of `sb_transform`, `taylor_map`,
`fock_norm_sq` and `sb_inverse`.  A quarter of the requests are Hermite
expansions.  The file was recorded before polynomials were stored as
integer numerators and pins every output byte of the pipeline; any
change in representation must reproduce it exactly.
"""

import json
import random
from pathlib import Path

from monogenic import fock, serialize, transform, verify

DATA = Path(__file__).resolve().parent / "data" / "transform_stream_n3_seed0.jsonl"
REQUESTS = 25


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
