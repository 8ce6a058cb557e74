"""Run one workload in a fresh interpreter and print its raw result as JSON.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <smoke 0|1> [setup-only]

`perfbench/run.py` spawns this and turns the result into metrics.  The
set-up time runs from the spawn (PERFBENCH_SPAWN_T, set by the parent)
to the first timed op, so it covers interpreter start, the import of
`monogenic`, seeded input generation and request files.  The start of
the interpreter, up to the first line of this file, is scaled to the
start-up reference of `speed.py`, and the rest to its reference loop.
The times of the ops are scaled too, and the raw times are in the result.
"""

from time import perf_counter

ENTERED = perf_counter()     # interpreter started; the imports of this file begin

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import monogenic  # noqa: E402

if not os.path.abspath(monogenic.__file__).startswith(SRC + os.sep):
    sys.exit(f"monogenic was imported from {monogenic.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100   # p90 needs at least ten samples beyond it
SETUP_REF_REPS = 8   # reference loops timed after a set-up


def timed_loop(wl, seconds: float, smoke: bool, tracer) -> dict:
    """Closed loop: the next op starts when the previous one returned.

    Runs for `seconds`, and at least until the fixed prefix (and, outside
    smoke runs, MIN_OPS ops) is done.  Every `segment_s` a reference of
    speed.py is sampled, outside the op intervals, and the ops are scaled
    by it: the reference loop, or the start-up reference for a workload
    whose ops are mostly interpreter start-up.  A step that runs in a
    child process (a gram_tables pass) samples the loop itself, between
    its ops, and comes scaled.
    """
    min_ops = wl.trace_ops if smoke else max(wl.trace_ops, MIN_OPS)
    ref = speed.START if getattr(wl, "start_reference", False) else speed.LOOP
    ops = failed = i = 0
    refs = [ref.sample()]
    child_refs: list[float] = []
    segments: list[list] = [[]]
    wall = raw_wall = 0.0
    # compact, so that the worker stays smaller than the children it forks
    latencies = array("d")
    raw_latencies = array("d")
    digest = hashlib.sha256()
    child_agg: dict = {}
    prefix_trace = None
    start = seg_start = perf_counter()
    while ops < min_ops or perf_counter() - start < seconds:
        in_prefix = ops < wl.trace_ops
        step = wl.step(i, tracer)
        i += 1
        ops += step.ops
        failed += step.failed
        raw_wall += step.wall
        raw_latencies.extend(step.latencies)
        if step.scaled is None:
            segments[-1].append((step.wall, array("d", step.latencies)))
        else:
            wall += step.scaled[0]
            latencies.extend(step.scaled[1])
            child_refs += step.refs
        if in_prefix:
            digest.update(step.output)
            if step.trace:
                tracing.merge(child_agg, step.trace)
            if tracer is not None and ops >= wl.trace_ops:
                prefix_trace = tracing.merge(tracer.snapshot(), child_agg)
        if perf_counter() - seg_start >= ref.segment_s:
            refs.append(ref.sample())
            segments.append([])
            seg_start = perf_counter()
    elapsed = perf_counter() - start
    refs.append(ref.sample())
    seg_wall, seg_latencies = speed.scaled(segments, refs, ref)
    wall += seg_wall
    latencies.extend(seg_latencies)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_from_children
                               else resource.RUSAGE_SELF)
    return {
        "ops": ops, "failed": failed, "wall_s": wall, "raw_wall_s": raw_wall,
        "elapsed_s": elapsed,
        "latencies": latencies, "raw_latencies": raw_latencies,
        "ref_samples_s": refs + child_refs,
        "digest": digest.hexdigest(),
        "peak_rss_mb": usage.ru_maxrss / 1024, "trace": prefix_trace,
        "spans": [s for s in tracer.boundary if s[3] is not None and s[3] < wl.trace_ops]
        if tracer is not None else [],
    }


def quantile_ms(values: list[float], q: int) -> float:
    """The q-th percentile, in milliseconds."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100)[q - 1] * 1e3


def main(argv: list[str]) -> None:
    name, seed, seconds, trace, smoke = argv[:5]
    setup_only = argv[5:] == ["setup-only"]
    spawn = float(os.environ.get("PERFBENCH_SPAWN_T", perf_counter()))
    smoke = smoke == "1"
    wl = WORKLOADS[name]()
    workdir = Path(HERE, ".work", f"{name}-{os.getpid()}")
    try:
        wl.setup(int(seed), smoke, workdir)
        done = perf_counter()
        start_s, python_s = ENTERED - spawn, done - ENTERED
        ref_s = speed.sample(SETUP_REF_REPS, warm=True)
        start_ref_s = speed.start_sample()
        setup = {"setup_s": start_s * speed.scale(start_ref_s, speed.START_REF_S)
                 + python_s * speed.scale(ref_s),
                 "raw_setup_s": done - spawn, "setup_start_s": start_s,
                 "setup_ref_s": ref_s, "setup_start_ref_s": start_ref_s}
        if setup_only:
            print(json.dumps(setup))
            return
        tracer = None
        if trace == "1":
            tracer = tracing.Tracer()
            tracer.install()
        res = timed_loop(wl, float(seconds), smoke, tracer)
        res["failed"] += wl.finish()
        res["inputs"] = wl.inputs()
        res["trace_ops"] = wl.trace_ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lat, raw = res.pop("latencies"), res.pop("raw_latencies")
    res.update(setup, latency_samples=len(lat),
               op_ms_p50=statistics.median(lat) * 1e3, op_ms_p90=quantile_ms(lat, 90),
               raw_op_ms_p50=statistics.median(raw) * 1e3, raw_op_ms_p90=quantile_ms(raw, 90))
    print(json.dumps(res))


if __name__ == "__main__":
    main(sys.argv[1:])
