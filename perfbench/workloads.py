"""The four seeded workloads, each a closed loop with one client.

Every workload draws its inputs from `random.Random(seed)` through the
library's own generators in `monogenic.verify`, during set-up (the
request stream tops itself up between ops); the library sees only the
generated inputs.  A workload runs in steps: a
step times its op(s), checks them outside the timed interval (cheap
`==` tests and spot checks), and returns a `Step`.  Checks that need
several ops run in `finish`, after the timed loop.

The first `trace_ops` ops of every run are its fixed prefix: the
traced run reads its per-layer numbers there, and the output digest
pinned in `digests.json` covers it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
from monogenic import clifford, fock, gauss, serialize, transform, verify
from monogenic.clifford import CliffordNumber, GaussianRational
from monogenic.gauss import Measure
from monogenic.poly import CliffordPolynomial, MultiIndex
from monogenic.transform import HermiteExpansion

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SPAWN_ENV = "PERFBENCH_SPAWN_T"
TRACE_FILE_ENV = "PERFBENCH_TRACE_FILE"


@dataclass
class Step:
    ops: int
    wall: float                      # timed seconds, the sum of the op intervals
    latencies: list[float]           # seconds per op
    failed: int = 0
    output: bytes = b""              # canonical output bytes, for the digest
    trace: dict | None = None        # per-layer aggregates from a child process
    scaled: tuple[float, list[float]] | None = None  # wall, latencies scaled by `refs`
    refs: list[float] = field(default_factory=list)  # reference samples of a child process


def _activate(tracer, op) -> None:
    if tracer is not None:
        tracer.op = op
        tracer.active = True


def _deactivate(tracer) -> None:
    if tracer is not None:
        tracer.active = False


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# gram_tables
# ---------------------------------------------------------------------------

def gram_inputs(seed: int, smoke: bool) -> list[tuple[int, list]]:
    """Per dimension, every multi-index up to the degree bound, in seeded order."""
    rng = random.Random(seed)
    shapes = ((3, 2), (4, 1)) if smoke else ((3, 5), (4, 4))
    out = []
    for n, degree in shapes:
        betas = list(verify.multi_indices(n, degree))
        rng.shuffle(betas)
        out.append((n, betas))
    return out


def check_gram(betas: list, p_table: list, h_table: list) -> int:
    """Failed entries: H must be diag(beta!) exactly, P must be Hermitian."""
    failed = 0
    for i, a in enumerate(betas):
        for j, b in enumerate(betas):
            expected = GaussianRational(b.factorial if i == j else 0)
            failed += h_table[i][j] != expected
            failed += p_table[i][j] != p_table[j][i].hermitian_conj()
    return failed


def gram_pass(seed: int, smoke: bool, tracer, spawn: float) -> dict:
    """One pass in a fresh interpreter: build P_beta and H_beta, pair them all.

    The pass is timed from its spawn (set by the parent) to the last
    pairing, so start-up, import and basis construction are included.
    The reference loop of speed.py is sampled here, between table rows,
    as often as the worker samples it, and the parent scales the pass
    with these samples; they are not part of the pass's time.
    """
    inputs = gram_inputs(seed, smoke)
    latencies: list[float] = []
    segments: list[tuple[float, int]] = []
    refs: list[float] = []
    tables = []
    seg_start = spawn

    def cut(warm: bool = False) -> None:
        nonlocal seg_start
        segments.append((perf_counter() - seg_start, len(latencies)))
        refs.append(speed.sample(warm=warm))
        seg_start = perf_counter()

    cut(warm=True)          # start-up and import, before the first sample
    refs.insert(0, refs[0])
    _activate(tracer, 0)
    for n, betas in inputs:
        ps = [transform.p_basis(n, b) for b in betas]
        hs = [transform.hermite(n, b) for b in betas]
        p_table, h_table = [], []
        for a in range(len(betas)):
            p_row, h_row = [], []
            for b in range(len(betas)):
                t0 = perf_counter()
                p_row.append(gauss.clifford_pairing(ps[a], ps[b], Measure.MU_TILDE))
                t1 = perf_counter()
                h_row.append(gauss.inner_rho(hs[a], hs[b]))
                t2 = perf_counter()
                latencies += (t1 - t0, t2 - t1)
            p_table.append(p_row)
            h_table.append(h_row)
            if perf_counter() - seg_start >= speed.LOOP.segment_s:
                cut()
        tables.append((betas, p_table, h_table, ps, hs))
    _deactivate(tracer)
    cut()
    failed = 0
    digest = hashlib.sha256()
    terms = 0
    for betas, p_table, h_table, ps, hs in tables:
        failed += check_gram(betas, p_table, h_table)
        terms += sum(sum(1 for _ in f.terms()) for f in ps + hs)
        digest.update(json.dumps({
            "betas": [list(b) for b in betas],
            "P": [[serialize.clifford_to_json(v) for v in row] for row in p_table],
            "H": [[[str(v.re), str(v.im)] for v in row] for row in h_table],
        }).encode())
    return {
        "entries": len(latencies),
        "lat_ns": [round(x * 1e9) for x in latencies],
        "segments": segments,       # (wall, entries so far) between two samples
        "refs": refs,
        "failed": failed,
        "digest": digest.hexdigest(),
        "basis_terms": terms,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


class GramTables:
    """Exact Gram tables: pairing of P_beta under mu~ and inner_rho of H_beta."""

    name = "gram_tables"
    rss_from_children = True

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed, self.smoke = seed, smoke
        self.inputs_ = gram_inputs(seed, smoke)
        self.trace_ops = sum(2 * len(b) ** 2 for _, b in self.inputs_)
        self.basis_terms = None

    def step(self, i: int, tracer) -> Step:
        cmd = [sys.executable, str(CHILD), "gram", str(self.seed),
               "1" if tracer is not None else "0", "1" if self.smoke else "0"]
        env = dict(os.environ)
        env[SPAWN_ENV] = repr(perf_counter())
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"gram pass failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.splitlines()[-1])
        self.basis_terms = res["basis_terms"]
        latencies = [x / 1e9 for x in res["lat_ns"]]
        segments, first = [], 0
        for wall, end in res["segments"]:
            segments.append([(wall, latencies[first:end])])
            first = end
        return Step(ops=res["entries"], wall=sum(wall for wall, _ in res["segments"]),
                    latencies=latencies, failed=res["failed"],
                    output=res["digest"].encode(), trace=res["trace"],
                    scaled=speed.scaled(segments, res["refs"]), refs=res["refs"])

    def finish(self) -> int:
        return 0

    def inputs(self) -> dict:
        return {
            "dimensions": {str(n): len(b) for n, b in self.inputs_},
            "max_degree": {"3": 2 if self.smoke else 5, "4": 1 if self.smoke else 4},
            "entries_per_pass": self.trace_ops,
            "basis_terms": self.basis_terms,
        }

    def fingerprint(self) -> str:
        return _sha(*(repr(b) for _, bs in self.inputs_ for b in bs))


# ---------------------------------------------------------------------------
# transform_stream
# ---------------------------------------------------------------------------

def check_stream(f, F, G, g) -> bool:
    """The round trip returns the input, and fock_to_monogenic(taylor_map(F)) == F."""
    return g == f and G == F


class TransformStream:
    """One library session of distinct JSON requests through the whole pipeline."""

    name = "transform_stream"
    rss_from_children = False
    CHUNK = 200
    SHAPES = "transform_stream shapes"
    SHAPE_PERIOD = 25

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.degree = 3 if smoke else 7
        self.trace_ops = 5 if smoke else 150
        self.requests: list[tuple[str, str]] = []
        self.seen: set[str] = set()
        self.stats = {"hermite": 0, "terms": 0, "hermite_betas": 0}
        self.hermite_distinct: set = set()
        self._generate()

    def _generate(self) -> None:
        """Append CHUNK distinct requests; a fifth are Hermite expansions.

        The shape of request i (kind, the multi-index of each term, the
        number of blades of each coefficient) is the same for every seed,
        drawn with the library's generators from a generator seeded by
        i mod SHAPE_PERIOD; the seed draws the content: a permutation of
        the variables, the blades and the coefficients.  Shapes set most
        of a request's cost, so runs on different seeds do nearly the same
        work, and a run that is cut anywhere after a few periods has the
        same mix of shapes as a longer one: the spread is the machine's,
        not the inputs'.
        """
        rng, n = self.rng, 3
        target = len(self.requests) + self.CHUNK
        while len(self.requests) < target:
            shapes = random.Random(f"{self.SHAPES} {len(self.requests) % self.SHAPE_PERIOD}")
            hermite = shapes.random() < 0.25
            perm = rng.sample(range(n), n)
            terms: dict = {}
            for _ in range(shapes.randint(1, 6)):
                beta = verify.rand_multi_index(shapes, n, self.degree)
                beta = MultiIndex([beta[k] for k in perm])
                coeffs = {}
                for _ in range(shapes.randint(1, 3)):
                    blade = clifford.indices_from_mask(rng.randrange(2 ** n))
                    coeffs[blade] = verify.rand_gaussian_rational(rng)
                value = CliffordNumber(n, coeffs)
                terms[beta] = terms[beta] + value if beta in terms else value
            if hermite:
                data = serialize.expansion_to_json(HermiteExpansion(n, terms))
            else:
                data = serialize.poly_to_json(
                    CliffordPolynomial(n, {(0, b): v for b, v in terms.items()}))
            text = json.dumps(data)
            if text in self.seen:
                continue
            self.seen.add(text)
            self.requests.append(("hermite" if hermite else "poly", text))
            self.stats["terms"] += len(terms)
            if hermite:
                self.stats["hermite"] += 1
                self.stats["hermite_betas"] += len(terms)
                self.hermite_distinct.update(terms)

    def step(self, i: int, tracer) -> Step:
        while i >= len(self.requests):
            self._generate()
        kind, text = self.requests[i]
        _activate(tracer, i)
        t0 = perf_counter()
        data = json.loads(text)
        if kind == "hermite":
            f = serialize.expansion_from_json(data).to_polynomial()
        else:
            f = serialize.poly_from_json(data)
        F = transform.sb_transform(f)
        alpha = fock.taylor_map(F)
        norm = fock.fock_norm_sq(alpha)
        G = fock.fock_to_monogenic(alpha)
        g = transform.sb_inverse(G)
        out = json.dumps({"transform": serialize.poly_to_json(F),
                          "taylor": serialize.fock_to_json(alpha),
                          "fock_norm_sq": str(norm)})
        t1 = perf_counter()
        _deactivate(tracer)
        if tracer is not None:
            tracer.counts["serialize.bytes_out"] += len(out)
        return Step(ops=1, wall=t1 - t0, latencies=[t1 - t0],
                    failed=not check_stream(f, F, G, g), output=out.encode() + b"\n")

    def finish(self) -> int:
        return 0

    def inputs(self) -> dict:
        return {
            "n": 3, "max_degree": self.degree, "max_terms": 6, "max_blades": 3,
            "requests_generated": len(self.requests),
            "hermite_requests": self.stats["hermite"],
            "input_terms": self.stats["terms"],
            "hermite_betas": self.stats["hermite_betas"],
            "hermite_distinct_betas": len(self.hermite_distinct),
        }

    def fingerprint(self) -> str:
        return _sha(*(text for _, text in self.requests[:self.trace_ops]))


# ---------------------------------------------------------------------------
# cli_requests
# ---------------------------------------------------------------------------

@dataclass
class CliRequest:
    args: list[str]
    expect: object                   # () -> expected stdout text
    input_bytes: int = 0


def _poly_text(f) -> str:
    return json.dumps(serialize.poly_to_json(f)) + "\n"


class CliRequests:
    """One `monogenic` subprocess per request, run one at a time."""

    name = "cli_requests"
    rss_from_children = True
    # an op is mostly interpreter start-up and import, which slow less
    # than the reference loop on a slow host: scale by the start-up reference
    start_reference = True
    KINDS = ("pbasis", "hermite", "transform", "transform-hermite", "taylor",
             "fock-inverse", "inner")

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        rounds = 1 if smoke else 4
        self.requests = [self._make(rng, kind, f"r{k}-{kind}")
                         for k in range(rounds) for kind in self.KINDS]
        self.trace_ops = len(self.requests)
        self.env = dict(os.environ)
        self.results: list[tuple[int, int, str]] = []

    def _write(self, stem: str, data) -> tuple[str, int]:
        path = self.workdir / f"{stem}.json"
        text = json.dumps(data)
        path.write_text(text)
        return str(path), len(text)

    def _make(self, rng: random.Random, kind: str, stem: str) -> CliRequest:
        n = rng.choice((2, 3))
        if kind in ("pbasis", "hermite"):
            beta = verify.rand_multi_index(rng, n, 4)
            fn = transform.p_basis if kind == "pbasis" else transform.hermite
            return CliRequest([kind, "--n", str(n), "--beta", ",".join(map(str, beta))],
                              lambda: _poly_text(fn(n, beta)))
        if kind == "transform":
            f = verify.rand_poly(rng, n, 4, max_terms=4)
            path, size = self._write(stem, serialize.poly_to_json(f))
            return CliRequest(["transform", "--input", path],
                              lambda: _poly_text(transform.sb_transform(f)), size)
        if kind == "transform-hermite":
            e = verify.rand_hermite_expansion(rng, n, 4)
            path, size = self._write(stem, serialize.expansion_to_json(e))
            return CliRequest(["transform", "--hermite", "--input", path],
                              lambda: _poly_text(transform.sb_transform(e)), size)
        if kind == "taylor":
            F = transform.ck_extend(verify.rand_poly(rng, n, 3, max_terms=3))
            path, size = self._write(stem, serialize.poly_to_json(F))
            return CliRequest(["taylor", "--input", path],
                              lambda: json.dumps(serialize.fock_to_json(fock.taylor_map(F))) + "\n",
                              size)
        if kind == "fock-inverse":
            alpha = verify.rand_fock_element(rng, n, 4)
            path, size = self._write(stem, serialize.fock_to_json(alpha))
            return CliRequest(["fock-inverse", "--input", path],
                              lambda: _poly_text(fock.fock_to_monogenic(alpha)), size)
        measure = rng.choice(("rho", "mu"))
        lhs, rhs = (verify.rand_poly(rng, n, 3, max_terms=3) for _ in range(2))
        lpath, lsize = self._write(stem + "-lhs", serialize.poly_to_json(lhs))
        rpath, rsize = self._write(stem + "-rhs", serialize.poly_to_json(rhs))
        inner = gauss.inner_rho if measure == "rho" else gauss.inner_mu

        def expect():
            v = inner(lhs, rhs)
            return json.dumps({"re": str(v.re), "im": str(v.im)}) + "\n"

        return CliRequest(["inner", "--measure", measure, "--lhs", lpath, "--rhs", rpath],
                          expect, lsize + rsize)

    def step(self, i: int, tracer) -> Step:
        k = i % len(self.requests)
        env = self.env
        trace_file = None
        if tracer is not None:
            trace_file = self.workdir / f"trace-{i}.json"
            env = dict(env)
            env[TRACE_FILE_ENV] = str(trace_file)
            env[SPAWN_ENV] = repr(perf_counter())
        t0 = perf_counter()
        code, stdout = speed.run_child([sys.executable, str(CHILD), "cli", *self.requests[k].args],
                                       60, env=env)
        t1 = perf_counter()
        self.results.append((k, code, hashlib.sha256(stdout).hexdigest()))
        trace = None
        if trace_file is not None:
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
            trace["counts"]["serialize.bytes_out"] = len(stdout)
        return Step(ops=1, wall=t1 - t0, latencies=[t1 - t0], failed=code != 0,
                    output=stdout, trace=trace)

    def finish(self) -> int:
        """Each exit-0 op's stdout must match the library's bytes for that request."""
        expected: dict[int, str] = {}
        failed = 0
        for k, code, digest in self.results:
            if code != 0:
                continue  # already counted in its step
            if k not in expected:
                expected[k] = hashlib.sha256(self.requests[k].expect().encode()).hexdigest()
            failed += digest != expected[k]
        return failed

    def inputs(self) -> dict:
        return {
            "requests": len(self.requests),
            "kinds": list(self.KINDS),
            "input_file_bytes": sum(r.input_bytes for r in self.requests),
        }

    def fingerprint(self) -> str:
        files = sorted(self.workdir.glob("*.json"))
        return _sha(*(" ".join(r.args).replace(str(self.workdir), "") for r in self.requests),
                    *(p.read_text() for p in files))


# ---------------------------------------------------------------------------
# wide_algebra
# ---------------------------------------------------------------------------

def _blade_sign(a: tuple, b: tuple) -> int:
    """Sign of e_a e_b: one swap per inverted pair, one -1 per shared generator."""
    swaps = sum(1 for i in a for j in b if i > j) + len(set(a) & set(b))
    return -1 if swaps % 2 else 1


def product_coefficient(x: CliffordNumber, y: CliffordNumber, target: tuple) -> GaussianRational:
    """Coefficient of e_target in x*y, summed independently of `__mul__`."""
    ys = dict(y.terms())
    total = GaussianRational(0)
    for a, va in x.terms():
        b = tuple(sorted(set(a) ^ set(target)))
        vb = ys.get(b)
        if vb is not None:
            term = va * vb
            total = total + (term if _blade_sign(a, b) > 0 else -term)
    return total


def spot_check(x: CliffordNumber, y: CliffordNumber, out: CliffordNumber,
               rng: random.Random) -> bool:
    """Compare `out` with x*y on the scalar blade, three blades of its support
    and one random blade."""
    support = [b for b, _ in out.terms()]
    n = x.n
    targets = [(), *rng.sample(support, min(3, len(support))),
               clifford.indices_from_mask(rng.randrange(2 ** n))]
    return all(out.coefficient(t) == product_coefficient(x, y, t) for t in targets)


def _count(x: CliffordNumber) -> int:
    return sum(1 for _ in x.terms())


def _dense(rng: random.Random, n: int, blades: int) -> CliffordNumber:
    coeffs = {}
    for mask in rng.sample(range(2 ** n), blades):
        value = GaussianRational()
        while not value:
            value = verify.rand_gaussian_rational(rng)
        coeffs[clifford.indices_from_mask(mask)] = value
    return CliffordNumber(n, coeffs)


class WideAlgebra:
    """Dense multivectors: products and Hermitian inner products, 3:1."""

    name = "wide_algebra"
    rss_from_children = False
    # op j of a group on the triple (a, b, c); indices into the triple
    GROUP = (("mul", 0, 1), ("mul", 1, 2), ("mul", 1, 0), ("mul", 2, 1),
             ("mul", 0, 2), ("mul", 2, 0), ("inner", 0, 1), ("inner", 1, 0))
    # shape of each group in a cycle.  By cost the ops rank n=16, then
    # n=12, then n=8 (about 10% dearer than n=12), products and inner
    # products alike.  With each shape once, p50 and p90 would sit near
    # the edges of these classes and jump from run to run; with n=8 and
    # n=12 twice, p50 falls inside the n=12 class and p90 inside the n=8
    CYCLE = (0, 1, 2, 0, 1)
    ASSOC_MAX_PAIRS = 40_000

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.shapes = ((4, 8), (5, 8), (6, 4)) if smoke else ((8, 64), (12, 64), (16, 32))
        per_shape = 1 if smoke else 16
        self.triples = [[tuple(_dense(rng, n, k) for _ in range(3)) for _ in range(per_shape)]
                        for n, k in self.shapes]
        self.trace_ops = len(self.GROUP) * (len(self.shapes) if smoke else len(self.CYCLE))
        self.inners: dict[int, GaussianRational] = {}
        self.kept: dict[int, dict] = {}

    def _triple(self, group: int) -> tuple:
        pool = self.triples[self.CYCLE[group % len(self.CYCLE)]]
        return pool[group % len(pool)]

    def step(self, i: int, tracer) -> Step:
        group, j = divmod(i, len(self.GROUP))
        kind, ia, ib = self.GROUP[j]
        triple = self._triple(group)
        x, y = triple[ia], triple[ib]
        _activate(tracer, i)
        t0 = perf_counter()
        out = x * y if kind == "mul" else x.inner(y)
        t1 = perf_counter()
        _deactivate(tracer)
        failed = 0
        if kind == "mul":
            failed = not spot_check(x, y, out, random.Random(self.seed * 1_000_003 + i))
            if group < len(self.shapes) and j < 2:
                self.kept.setdefault(group, {})[j] = out    # ab, bc of the first triples
        elif j == len(self.GROUP) - 1:
            failed = 2 * (out != self.inners.pop(group).conjugate())
        else:
            self.inners[group] = out
        output = b""
        if i < self.trace_ops:
            data = serialize.clifford_to_json(out) if kind == "mul" else [str(out.re), str(out.im)]
            output = json.dumps(data).encode() + b"\n"
        return Step(ops=1, wall=t1 - t0, latencies=[t1 - t0], failed=failed, output=output)

    def finish(self) -> int:
        """Norm identity and associativity on the first triple of each shape.

        Associativity is checked only where (ab)c costs at most
        ASSOC_MAX_PAIRS blade pairs; at n=12, |ab|*|c| is ~160k pairs, or
        seconds per check.
        """
        failed = 0
        for group, kept in self.kept.items():
            a, b, c = self._triple(group)
            aa = a.inner(a)
            failed += aa.re != a.norm_sq() or aa.im != 0
            if len(kept) == 2 and _count(kept[0]) * _count(c) <= self.ASSOC_MAX_PAIRS:
                failed += kept[0] * c != a * kept[1]
        return failed

    def inputs(self) -> dict:
        return {
            "shapes": [{"n": n, "blades": k, "triples": len(p)}
                       for (n, k), p in zip(self.shapes, self.triples)],
            "ops_per_group": len(self.GROUP),
            "group_shapes_per_cycle": [list(self.shapes[k]) for k in self.CYCLE],
            "blade_pairs_per_group": {str(n): len(self.GROUP) * k * k for n, k in self.shapes},
        }

    def fingerprint(self) -> str:
        return _sha(*(repr(x) for pool in self.triples for t in pool for x in t))


WORKLOADS = {w.name: w for w in (GramTables, TransformStream, CliRequests, WideAlgebra)}
