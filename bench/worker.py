"""One pass of a benchmark workload, in the interpreter that runs this file.

The runner (``run.py``) starts a fresh interpreter for every pass, so every
``functools.cache`` table starts empty, as it does for a user of the CLI.
The pass first imports ``peakforge.cli``, which imports every module of
the package, as the ``peakforge`` command does; the monotonic clock reading
right after that import is the ready mark (the runner subtracts its spawn
time to get the set-up time).  Only then does it import the benchmark's own
modules and build the workload's steps, so their cost is not set-up time.
It runs the steps in order and prints one JSON line: the ready mark, the
per-step records, the wall and CPU time of the steps, and the peak resident
memory of the process.  With ``--trace 1`` the layers are wrapped first,
the line also carries the per-layer metrics, and the spans are written
under ``.bench_build/trace``; ``--setup-only`` stops after the ready mark.

An untraced pass also samples the speed of its core while the steps run
(:class:`SpeedProbe`).  On a shared machine that speed drifts by a quarter
or more, over seconds to minutes, with the load of other tenants.  The
steps' wall time divided by the median probe time (``wall_ref``) measures
the program with that drift divided out.

    python3 bench/worker.py --workload scan --seed 1 --trace 0
"""

from __future__ import annotations

import sys
import time
from os import path

ROOT = path.dirname(path.dirname(path.abspath(__file__)))
sys.path[:0] = [path.join(ROOT, "src"), path.join(ROOT, "bench")]

import peakforge.cli  # noqa: E402,F401

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

TRACE_DIR = path.join(ROOT, ".bench_build", "trace")


PROBE_INTERVAL_S = 0.1
PROBE_SIZE = 5000


def reference(n: int) -> int:
    """A fixed mix of the interpreter work the package does: tuple keys,
    dict updates, small-integer and Fraction arithmetic."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = ((i * 7919) % 509, i & 3)
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    total = Fraction(0)
    for i in range(1, n // 100):
        total += Fraction(1, i)
    return acc + len(table) + total.denominator % 7


class SpeedProbe:
    """Times ``reference(PROBE_SIZE)`` every ``interval`` seconds of wall
    time, from a timer signal, while the steps run.

    The samples show how fast the core runs plain interpreter work at that
    moment.  ``spent`` is the wall time the probe itself took, which the
    pass takes out of the steps' times.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        enter = time.perf_counter()
        # no collection inside: a full collection would walk the package's heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference(PROBE_SIZE)
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - enter

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0
    steps = workloads.build(args.workload, args.seed)

    tracing = None
    run = workloads.check
    if args.trace:
        tracing = tracer.Tracer()
        tracing.install()

        def run(step):
            return tracing.run_step(step.name, lambda: workloads.check(step))

    records = []
    probe = SpeedProbe()
    # traced passes run without the probe, so that it adds no time to spans
    with probe if tracing is None else contextlib.nullcontext():
        for step in steps:
            cpu_start = time.process_time()
            spent_start = probe.spent
            record = run(step)
            spent = probe.spent - spent_start
            record["seconds"] -= spent
            record["cpu_s"] = time.process_time() - cpu_start - spent
            records.append(record)
    wall_s = sum(r["seconds"] for r in records)
    result = {
        "ready": READY,
        "steps": records,
        "wall_s": wall_s,
        "cpu_s": sum(r["cpu_s"] for r in records),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracing is not None:
        tracing.uninstall()
        result["layers"] = tracing.layers()
        result["trace_file"] = path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}-{time.time_ns()}.json"
        )
        tracing.write(result["trace_file"])
    else:
        if not probe.samples:  # steps shorter than one interval
            probe._sample(None, None)
        # the work the probe could have done in the steps' time: every
        # sample stands for one interval at the speed it measured
        result["probe_s"] = probe.samples
        result["wall_ref"] = wall_s * statistics.fmean(1 / t for t in probe.samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
