"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files or directories of them, as written by
`perfbench/run.py`.  Per workload and metric it prints each side's
median, quartiles and sample count, and the ratio CHANGE/BASE of the
medians.  For an end-to-end metric the verdict applies the bound of
BENCHMARK.json: "unresolved" when either side's quartile spread, as a
share of its median, is wider than the bound (unless every CHANGE run is
better than every BASE run, or worse than every one), "regression" when
the CHANGE median is worse by more than the bound, otherwise "within".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} from result files."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("smoke"):
            continue
        bucket = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            bucket.setdefault(name, []).append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    (bq1, bmed, bq3), (cq1, cmed, cq3) = summary(base), summary(change)
    spread = max((bq3 - bq1) / bmed if bmed else 0, (cq3 - cq1) / cmed if cmed else 0)
    all_better = all(sign * c < sign * b for c in change for b in base)
    all_worse = all(sign * c > sign * b for c in change for b in base)
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    return "regression" if worse_by > bound else "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'untraced'})")
        print(f"{'metric':40s} {'base median [q1, q3] n':>36s} {'change median [q1, q3] n':>36s}"
              f" {'ratio':>7s}  verdict")
        for name in base[key]:
            if name not in change[key]:
                continue
            b, c = base[key][name], change[key][name]
            (bq1, bmed, bq3), (cq1, cmed, cq3) = summary(b), summary(c)
            ratio = f"{cmed / bmed:7.3f}" if bmed else "      -"
            spec_m = bounds.get(name)
            v = verdict(b, c, spec_m["bound"], spec_m["better"]) if spec_m and not trace else ""
            print(f"{name:40s} {bmed:10.4g} [{bq1:.4g}, {bq3:.4g}] {len(b):3d}"
                  f" {cmed:10.4g} [{cq1:.4g}, {cq3:.4g}] {len(c):3d} {ratio}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
