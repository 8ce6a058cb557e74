"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/` and nothing is installed.  With `--trace 0` the last line of
stdout is one JSON object holding every end-to-end metric of
BENCHMARK.json; with `--trace 1`, every per-layer metric.  The lines
before it are a readable table.  The full result, with run metadata, is
written under `perfbench/results/` for `perfbench/compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gram_tables", "transform_stream", "cli_requests", "wide_algebra")
DEFAULT_SEED = 0
SETUP_REPEATS = 9       # setup_s is the median of this many fresh set-ups
WORKER_TIMEOUT = 170


def spawn_worker(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PERFBENCH_SPAWN_T"] = repr(time.perf_counter())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops"] / res["wall_s"],
        "op_ms_p50": res["op_ms_p50"],
        "op_ms_p90": res["op_ms_p90"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "ops_per_s": res["ops"],
               "op_ms_p50": res["latency_samples"], "op_ms_p90": res["latency_samples"],
               "peak_rss_mb": 1}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass over the fixed prefix (self-tests)")
    parser.add_argument("--results", default=str(HERE / "results"),
                        help="directory for the result file")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "monogenic" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a monogenic source checkout (no src/monogenic or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    smoke = "1" if args.smoke else "0"
    common = [args.workload, str(args.seed), repr(seconds), str(args.trace), smoke]

    cpu = speed.pin_to_one_cpu()
    # extra set-ups, half before and half after the run, so one burst of
    # machine noise does not move them all
    extra = 0 if args.trace else SETUP_REPEATS - 1
    try:
        setup_runs = [spawn_worker(common + ["setup-only"]) for _ in range(extra // 2)]
        res = spawn_worker(common)
        setup_runs.append(res)
        setup_runs += [spawn_worker(common + ["setup-only"]) for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in setup_runs]

    digests = json.loads((HERE / "digests.json").read_text())
    digest_ok = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        digest_ok = digests.get(args.workload) == res["digest"]

    if args.trace:
        agg = res["trace"]
        agg.setdefault("counts", {})["trace.ops_per_s"] = res["ops"] / res["wall_s"]
        metrics = tracer.layer_metrics(agg, spec["per_layer"])
        samples = {name: res["trace_ops"] for name in metrics}
        samples["trace.ops_per_s"] = res["ops"]
    else:
        values, samples = end_to_end(res, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    correct = res["failed"] == 0 and digest_ok is not False
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "commit": git_commit(), "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": correct, "attempted": res["ops"], "failed": res["failed"],
        "failed_ratio": res["failed"] / res["ops"],
        "digest": {"actual": res["digest"], "pinned": digests.get(args.workload),
                   "checked": digest_ok is not None, "ok": digest_ok},
        "metrics": metrics, "samples": samples, "inputs": res["inputs"],
        "setup_samples_s": setups, "elapsed_s": res["elapsed_s"], "timed_wall_s": res["wall_s"],
        "raw": {
            "setup_samples_s": [r["raw_setup_s"] for r in setup_runs],
            "setup_start_samples_s": [r["setup_start_s"] for r in setup_runs],
            "setup_ref_samples_s": [r["setup_ref_s"] for r in setup_runs],
            "setup_start_ref_samples_s": [r["setup_start_ref_s"] for r in setup_runs],
            "ops_per_s": res["ops"] / res["raw_wall_s"], "timed_wall_s": res["raw_wall_s"],
            "op_ms_p50": res["raw_op_ms_p50"], "op_ms_p90": res["raw_op_ms_p90"],
            "ref_samples_s": res["ref_samples_s"], "ref_nominal_s": speed.REF_S,
            "start_ref_nominal_s": speed.START_REF_S,
        },
        "spans": res["spans"],
    }
    out_dir = Path(args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={res['ops']} failed={res['failed']} -> {out_file}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["ops"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
