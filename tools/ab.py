"""Alternating A/B runs of the repository benchmark in two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload W [--seed 7] [--seconds 10]
                        [--pairs 10] [--out DIR]

PARENT and CHANGE are source checkouts (each with `perfbench/run.py`).
Each pair runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0 --results DIR/<side>

once in each checkout, one run after the other: the parent first in even
pairs and the change first in odd ones, so that a drift of the host's
speed does not always favour the same side.  Every run must exit 0 and
read `correct: true`, or the script stops with exit code 1.  Then it runs
`perfbench/compare.py DIR/parent DIR/change` and prints, per end-to-end
metric of BENCHMARK.json, the median over pairs of the change/parent
ratio, in how many pairs the change was better, each side's median, the
parent's quartiles and whether the claim rule holds: the change is
better in at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's interquartile range.  It
also prints the order effect of each side: its median when it ran
second over its median when it ran first.  On a host that slows the
later run of a pair, both sides read above 1 for a time metric,
whichever side is the change.
Stdlib only; DIR defaults to a new temporary directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, args: argparse.Namespace, results: Path) -> dict:
    """{metric: value} of one untraced run of the benchmark in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--results", str(results)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        raise RuntimeError(f"{checkout}: correct is false ({out['failed']} failed)")
    return {name: m["value"] for name, m in out["metrics"].items()}


def claim_holds(parent: list[float], change: list[float], wins: int, direction: str) -> bool:
    """The claim rule on the runs of len(parent) pairs: the change won at
    least nine tenths of them, and its median beats the parent's, in
    direction ("lower" or "higher" is better), by more than the distance
    between the parent's quartiles."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = statistics.median(parent) - statistics.median(change)
    return 10 * wins >= 9 * len(parent) and (gain if direction == "lower" else -gain) > q3 - q1


def order_effect(pairs: list[dict], name: str, side: str) -> float:
    """The median of metric name on side over the pairs where that side
    ran second, divided by its median where it ran first (nan if that
    median is 0)."""
    first = statistics.median(p[side][name] for p in pairs if p["first"] == side)
    second = statistics.median(p[side][name] for p in pairs if p["first"] != side)
    return second / first if first else float("nan")


def summary(pairs: list[dict], better: dict) -> list[tuple]:
    """(metric, median change/parent ratio, pairs the change won, parent
    median, change median, parent quartiles, claim holds, the order effect
    of the parent and of the change) for each metric of better, {metric:
    "lower" or "higher"}, over pairs of {"parent": {metric: value},
    "change": {metric: value}, "first": the side that ran first}, at least
    two, each side first in at least one."""
    rows = []
    for name, direction in better.items():
        ratios = [p["change"][name] / p["parent"][name] for p in pairs if p["parent"][name]]
        if not ratios:
            continue
        wins = sum(r < 1 if direction == "lower" else r > 1 for r in ratios)
        parent, change = ([p[side][name] for p in pairs] for side in SIDES)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        rows.append((name, statistics.median(ratios), wins, statistics.median(parent),
                     statistics.median(change), (q1, q3), claim_holds(parent, change, wins, direction),
                     tuple(order_effect(pairs, name, side) for side in SIDES)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the result files (default: a new temporary one)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the claim rule reads the parent's quartiles")
    out = args.out or Path(tempfile.mkdtemp(prefix="ab-"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(checkouts[side], args, out / side) for side in order}
            pair["first"] = order[0]
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
                  + ", ".join(f"{name} {pair['change'][name] / pair['parent'][name]:.3f}"
                              for name in better if pair["parent"][name]), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"),
                    str(out / "parent"), str(out / "change")], check=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s runs, "
          f"{len(pairs)} alternating pairs; results in {out}")
    print(f"{'metric':16s} {'median ratio':>12s} {'change better':>14s} {'parent median':>14s} "
          f"{'change median':>14s} {'parent quartiles':>23s}  {'claim':7s}  second/first run: "
          f"parent, change")
    for name, ratio, wins, parent, change, (q1, q3), holds, order in summary(pairs, better):
        print(f"{name:16s} {ratio:12.3f} {wins:>8d} of {len(pairs)} {parent:14.6g} {change:14.6g} "
              f"{q1:11.6g}-{q3:<11.6g}  {'holds' if holds else 'not met':7s}  "
              f"{order[0]:.3f}, {order[1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
