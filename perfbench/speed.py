"""Machine-speed references, timed next to the ops and used to scale them.

The host of this benchmark is shared.  Python code on it runs in a fast
and a slow state; the slow one takes up to twice as long, and a state can
last a whole run.  Timed in the same process, between the ops, a fixed
reference slows down with them.  In five 20-second runs of wide_algebra
the raw throughput ranged from 12.9 to 19.2 ops/s and the mean time of
the reference loop from 2.1 to 3.4 ms; their product only from 0.041 to
0.044.

So every time the benchmark reports is scaled by (nominal reference
time) / (reference time measured around it): it reads as the time on a
machine on which the reference takes its nominal time.  There are two
references, and both use only the standard library, so a change to
`monogenic` cannot change their time:

- the reference loop, Fraction arithmetic into a dict keyed by small
  bitmasks, the same kind of work as the library's exact products.  It
  runs with the garbage collector paused, so a larger library heap
  cannot slow it either;
- the start-up reference: start an interpreter that imports part of the
  standard library and wait for its exit.  Interpreter start-up and
  import slow down only about half as much as the loop in the slow
  state, so work that is mostly start-up is scaled by this one.

The raw times are kept in the result file.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

REF_S = 0.003    # nominal seconds of one reference loop; the unit of scaled times
LOOP_N = 500
REPS = 4         # loops per sample
START_REF_S = 0.07  # nominal seconds of one start-up reference
START_CMD = [sys.executable, "-c",
             "import argparse, dataclasses, fractions, hashlib, json, random, statistics"]


def reference_loop() -> int:
    acc: dict[int, Fraction] = {}
    x = Fraction(3, 7)
    for i in range(LOOP_N):
        mask = (i * 2654435761) & 255
        v = Fraction(i % 13 + 1, i % 11 + 2) * x
        if bin(mask & i).count("1") & 1:
            v = -v
        acc[mask] = acc.get(mask, 0) + v
    return len(acc)


def sample(reps: int = REPS, warm: bool = False) -> float:
    """Mean seconds of one reference loop over `reps` loops.

    `warm` runs one untimed loop first: the first loop of a fresh
    interpreter is slower than the rest.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if warm:
            reference_loop()
        t0 = perf_counter()
        for _ in range(reps):
            reference_loop()
        return (perf_counter() - t0) / reps
    finally:
        if enabled:
            gc.enable()


def run_child(cmd: list[str], timeout: float, **popen_args) -> tuple[int, bytes]:
    """Run `cmd` to its exit and return its exit code and stdout.

    A timer kills it after `timeout` seconds.  `subprocess.run(timeout=)`
    would poll for the exit in sleeps of up to 50 ms, which rounds the
    time of a short child up to a step; this waits for the exit itself.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen_args)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out


def start_sample() -> float:
    """Seconds to start an interpreter that imports part of the standard
    library, and to see it exit: the start-up reference."""
    t0 = perf_counter()
    code, _ = run_child(START_CMD, 60)
    if code != 0:
        raise RuntimeError(f"start-up reference exited {code}")
    return perf_counter() - t0


def scale(ref_s: float, nominal: float = REF_S) -> float:
    """Factor that turns a time measured at reference time `ref_s` into `nominal` units."""
    return nominal / ref_s


@dataclass(frozen=True)
class Reference:
    sample: Callable[[], float]
    nominal_s: float
    segment_s: float     # seconds of ops between two samples
    smooth: int          # segments on either side whose samples scale a segment


# the loop is cheap, so it is sampled often and its samples are not smoothed
# far; a start-up sample costs about one CLI op, so it is sampled less often
LOOP = Reference(sample, REF_S, 0.25, 2)
START = Reference(start_sample, START_REF_S, 0.5, 5)


def scaled(segments: list[list[tuple[float, list[float]]]], refs: list[float],
           ref: Reference = LOOP) -> tuple[float, list[float]]:
    """Scale timed ops by the reference sampled between them.

    `segments[k]` holds (wall, latencies) of the steps timed between the
    samples `refs[k]` and `refs[k + 1]`.  Each segment is scaled by the
    mean of the samples within `ref.smooth` segments of it, which follows
    the host's drift but not all the noise of a single sample.  It is the
    mean, not the median: the host switches between a fast and a slow
    state, and the mean follows the share of time spent in each, as the
    ops do.  Returns the scaled wall and latencies.
    """
    wall = 0.0
    latencies: list[float] = []
    for k, segment in enumerate(segments):
        window = refs[max(0, k - ref.smooth):k + ref.smooth + 2]
        factor = scale(statistics.fmean(window), ref.nominal_s)
        for step_wall, step_latencies in segment:
            wall += step_wall * factor
            latencies += (x * factor for x in step_latencies)
    return wall, latencies


def pin_to_one_cpu() -> int | None:
    """Keep this process and every process it starts on one CPU.

    The fast and slow states of the host are those of a CPU: unpinned,
    the reference did not follow children that ran on the other CPU.
    The benchmark has one busy process at a time, so one CPU costs it
    nothing.
    Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
