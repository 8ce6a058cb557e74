"""Per-layer tracing by wrapping the library's public functions.

The wrappers are installed from the benchmark's own files; the library
is not modified.  Every namespace of the `monogenic` package that binds
a traced function gets the wrapper (``fock`` does ``from .transform
import ck_extend``, for example), and methods are replaced on their
class, so calls made inside the library are traced too.

A span is the interval of one traced call.  Nested spans are folded into
per-name aggregates as they close (calls, self time, counts), because a
single request makes tens of thousands of Clifford-number calls; spans
at the layer boundary (called from the benchmark itself) are kept raw,
tagged with the op that caused them.  Everything stays in memory until
the run writes it out.

Self time is a span's inner duration minus the outer durations of its
child spans; the outer duration includes the wrapper's own bookkeeping
(counting terms through the public ``terms()``), so that bookkeeping is
charged to nobody.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (layer, attribute path in the module, metric prefix); counters below
TARGETS = [
    ("clifford", "CliffordNumber.__mul__", "clifford.mul"),
    ("clifford", "CliffordNumber.__add__", "clifford.add"),
    ("clifford", "CliffordNumber.hermitian_conj", "clifford.hermitian_conj"),
    ("poly", "CliffordPolynomial.partial", "poly.partial"),
    ("poly", "CliffordPolynomial.dirac", "poly.dirac"),
    ("poly", "CliffordPolynomial.laplacian", "poly.laplacian"),
    ("poly", "CliffordPolynomial.__mul__", "poly.mul"),
    ("poly", "CliffordPolynomial.__add__", "poly.add"),
    ("poly", "CliffordPolynomial.is_monogenic", "poly.is_monogenic"),
    ("gauss", "clifford_pairing", "gauss.clifford_pairing"),
    ("gauss", "moment", "gauss.moment"),
    ("transform", "heat", "transform.heat"),
    ("transform", "ck_extend", "transform.ck_extend"),
    ("transform", "hermite", "transform.hermite"),
    ("transform", "p_basis", "transform.p_basis"),
    ("transform", "HermiteExpansion.to_polynomial", "transform.to_polynomial"),
    ("transform", "sb_transform", "transform.sb_transform"),
    ("transform", "sb_inverse", "transform.sb_inverse"),
    ("fock", "taylor_map", "fock.taylor_map"),
    ("fock", "fock_to_monogenic", "fock.fock_to_monogenic"),
    ("fock", "fock_norm_sq", "fock.fock_norm_sq"),
    ("serialize", "poly_to_json", "serialize.poly_to_json"),
    ("serialize", "poly_from_json", "serialize.poly_from_json"),
    ("serialize", "fock_to_json", "serialize.fock_to_json"),
    ("serialize", "expansion_from_json", "serialize.expansion_from_json"),
    ("cli", "main", "cli.main"),
]


def _count_terms(obj) -> int:
    return sum(1 for _ in obj.terms())


def _blade_pairs(tracer, args, result):
    a, b = args
    if type(b) is type(a):
        tracer.counts["clifford.mul.blade_pairs"] += _count_terms(a) * _count_terms(b)


def _poly_terms_out(tracer, args, result):
    if hasattr(result, "terms"):
        tracer.counts["poly.terms_out"] += _count_terms(result)


def _pairing_parity(tracer, args, result):
    f, g = args[0], args[1]
    fk = [(k0, beta) for k0, beta, _ in f.terms()]
    gk = [(k0, beta) for k0, beta, _ in g.terms()]
    even = sum(1 for ka, ba in fk for kb, bb in gk
               if not (ka + kb) % 2 and not any((x + y) % 2 for x, y in zip(ba, bb)))
    tracer.counts["gauss.term_pairs"] += len(fk) * len(gk)
    tracer.counts["gauss.even_pairs"] += even


COUNTERS = {
    "clifford.mul": _blade_pairs,
    "poly.partial": _poly_terms_out,
    "poly.dirac": _poly_terms_out,
    "poly.laplacian": _poly_terms_out,
    "poly.mul": _poly_terms_out,
    "poly.add": _poly_terms_out,
    "gauss.clifford_pairing": _pairing_parity,
}


class Tracer:
    """Collects calls, self time and counts while `active` is set."""

    def __init__(self):
        self.active = False
        self.op = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.boundary: list[tuple[str, float, float, object]] = []
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = perf_counter()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - child
            if counter is not None:
                counter(tracer, args, result)
            if stack:
                stack[-1] += perf_counter() - outer
            else:
                tracer.boundary.append((name, start, end, tracer.op))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded `monogenic` namespace."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "monogenic" or name.startswith("monogenic.")}
        for layer, path, name in TARGETS:
            owner = mods.get(f"monogenic.{layer}")
            if owner is None:
                continue  # a layer this process never imported cannot be called
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            if not cls_path:
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        """Aggregates so far, in the shape `merge` and `layer_metrics` read."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge(total: dict, part: dict) -> dict:
    for key in ("calls", "self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    return total


def layer_metrics(agg: dict, per_layer: list[dict]) -> dict:
    """Fill every per-layer metric named in BENCHMARK.json from aggregates.

    Layers the workload never calls read 0.
    """
    calls, self_s, counts = agg.get("calls", {}), agg.get("self_s", {}), agg.get("counts", {})
    pairs = counts.get("gauss.term_pairs", 0)
    out = {}
    for spec in per_layer:
        name = spec["name"]
        if name == "gauss.even_pair_ratio":
            value = counts.get("gauss.even_pairs", 0) / pairs if pairs else 0.0
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out
