"""Child processes that the benchmark spawns, one interpreter each.

    python3 perfbench/child.py cli <monogenic arguments...>
    python3 perfbench/child.py gram <seed> <trace 0|1> <smoke 0|1>

`cli` stands in for the `monogenic` console script: untraced it imports
`monogenic.cli` and calls `run()`, nothing more.  When the parent sets
PERFBENCH_TRACE_FILE it also records `cli.startup_s` (spawn, taken from
PERFBENCH_SPAWN_T, until `main` can be entered) and the per-layer
aggregates of the request, and writes them to that file on exit.

`gram` runs one gram_tables pass and prints its result as one JSON line.
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def cli(argv: list[str]) -> None:
    sys.argv = ["monogenic", *argv]
    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    if trace_file is None:
        from monogenic.cli import run
        run()
        return
    from monogenic import cli as module
    entered = perf_counter()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.counts["cli.startup_s"] = entered - float(os.environ["PERFBENCH_SPAWN_T"])
    tracer.active = True
    try:
        module.run()
    finally:
        tracer.active = False
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)


def gram(seed: str, trace: str, smoke: str) -> None:
    import workloads
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    spawn = float(os.environ["PERFBENCH_SPAWN_T"])
    print(json.dumps(workloads.gram_pass(int(seed), smoke == "1", tracer, spawn)))


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        cli(sys.argv[2:])
    else:
        gram(*sys.argv[2:])
