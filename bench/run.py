"""Benchmark runner for peakforge.

    python3 bench/run.py --workload scan --seed 1 --seconds 40 --trace 0

A closed loop with one client: the runner runs one pass of the workload at
a time, each in a fresh interpreter (``worker.py``), and starts the next
pass only after the previous one has ended.  It keeps starting passes while
the next one is expected to end within ``--seconds``; at least one pass
always runs.  Before each pass it starts interpreters that only import the
package, to sample the set-up time, each right after a reference start
that it is scaled by.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``, each the median
over the passes.  With ``--trace 1`` every untraced pass is followed by a
traced one, and the metrics are the per-layer metrics of ``BENCHMARK.json``
(medians over the traced passes) plus ``trace_overhead_x``.  Every step is
checked against its known answer in every pass; ``attempted`` and
``failed`` count those checks, and ``correct`` is false if any failed.

The full result (environment, seed, per-step times, every pass) is written
under ``.bench_build/results``; traced passes write their spans under
``.bench_build/trace``.  Without the package sources next to the benchmark
the runner exits with status 2 and prints no result.
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

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKER = ROOT / "bench" / "worker.py"
# -S: the host's site-packages and its .pth hooks are not the program's
# set-up; peakforge needs only the standard library
INTERPRETER = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={BUILD / 'pycache'}"]
SETUP_PROBES_PER_PASS = 8
# A fixed interpreter start plus imports that touch nothing of peakforge,
# timed to its own ready mark like the worker.  Each set-up sample is divided
# by the time of one run just before it, which takes out the drift of the
# machine, and reported at this nominal time (see bench/README.md).
REFERENCE_START = [
    *INTERPRETER,
    "-c",
    "import calendar, csv, email.parser, http.client, time; print(time.monotonic())",
]
REFERENCE_START_S = 0.07
RUN_LIMIT_S = 170  # a run, however slow its passes, ends within this


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker once in a fresh interpreter and return its result,
    with ``setup_s`` measured from the spawn to the worker's ready mark."""
    command = [*INTERPRETER, str(WORKER), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {args} printed no result:\n{proc.stderr[-2000:]}")
    result["setup_s"] = result["ready"] - spawned
    return result


def setup_sample(args: list[str], deadline: float) -> dict:
    """One set-up time, with the time of the reference start measured just
    before it."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            REFERENCE_START,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=max(deadline - spawned, 1.0),
        )
        reference_s = float(proc.stdout) - spawned
    except (subprocess.SubprocessError, ValueError) as exc:
        raise BenchError(f"reference start failed: {exc}") from None
    setup_s = spawn(args + ["--setup-only"], deadline)["setup_s"]
    return {"setup_s": setup_s, "reference_s": reference_s}


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def step_times(passes: list[dict]) -> list[dict]:
    """Median seconds of each step over the passes, with its route."""
    out = []
    for i, first in enumerate(passes[0]["steps"]):
        out.append(
            {
                "step": first["step"],
                "via": first["via"],
                "cap": first["cap"],
                "degree": first["degree"],
                "seconds": summary([p["steps"][i]["seconds"] for p in passes]),
            }
        )
    return out


def measure(args) -> dict:
    env = environment()
    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # the first sample compiles the bytecode cache; it is not counted
    setup_sample(common, hard_deadline)
    setups, passes, traced = [], [], []
    loop_start = time.monotonic()
    while True:
        # set-up probes are spread over the run, like the passes
        for _ in range(SETUP_PROBES_PER_PASS):
            setups.append(setup_sample(common, hard_deadline))
        passes.append(spawn(common + ["--trace", "0"], hard_deadline))
        if args.trace:
            traced.append(spawn(common + ["--trace", "1"], hard_deadline))
        now = time.monotonic()
        if now + (now - loop_start) / len(passes) > deadline:
            break
    return {
        "environment": env,
        "setups": setups,
        "passes": passes,
        "traced": traced,
        "elapsed_s": time.monotonic() - start,
    }


def end_to_end(data: dict) -> dict:
    """Every end-to-end figure; BENCHMARK.json names the gated ones."""
    passes, setups = data["passes"], data["setups"]
    return {
        "wall_ref": summary([p["wall_ref"] for p in passes]),
        "wall_s": summary([p["wall_s"] for p in passes]),
        "cpu_s": summary([p["cpu_s"] for p in passes]),
        "setup_s": summary(
            [s["setup_s"] / s["reference_s"] * REFERENCE_START_S for s in setups]
        ),
        "setup_raw_s": summary([s["setup_s"] for s in setups]),
        "reference_start_s": summary([s["reference_s"] for s in setups]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(data: dict, names: list[str]) -> dict:
    traced = data["traced"]
    out = {}
    for name in names:
        if name == "trace_overhead_x":
            values = [t["wall_s"] / p["wall_s"] for t, p in zip(traced, data["passes"])]
        else:
            values = [t["layers"][name] for t in traced]
        out[name] = summary(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="peakforge benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "peakforge" / "__init__.py").is_file():
        print(f"error: no peakforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    (BUILD / "trace").mkdir(parents=True, exist_ok=True)

    try:
        data = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    all_passes = data["passes"] + data["traced"]
    records = [s for p in all_passes for s in p["steps"]]
    failures = [s for s in records if not s["ok"]]
    units = {m["name"]: m["unit"] for m in metrics_spec}
    if args.trace:
        table = per_layer(data, list(units))
    else:
        table = end_to_end(data)
        # printed and recorded, not gated: see bench/README.md
        units.update(wall_s="s", cpu_s="s", setup_raw_s="s", reference_start_s="s")
    metrics = {
        m["name"]: {"value": table[m["name"]]["median"], "unit": m["unit"]}
        for m in metrics_spec
    }

    env = data["environment"]
    result_file = BUILD / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "elapsed_s": data["elapsed_s"],
        "metrics": {name: {**table[name], "unit": unit} for name, unit in units.items()},
        "checks": {"attempted": len(records), "failed": len(failures)},
        "failures": failures,
        "steps": step_times(data["passes"]),
        "setups": data["setups"],
        "passes": data["passes"],
        "traced": data["traced"],
    }
    result_file.write_text(json.dumps(detail, indent=1) + "\n")

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(data['passes'])} traced={len(data['traced'])} "
        f"setup_samples={len(data['setups'])} elapsed={data['elapsed_s']:.1f}s"
    )
    print(
        f"python {env['python']}, nproc {env['nproc']}, {env['platform']}, "
        f"commit {env['git_commit']}, loadavg {env['loadavg_at_start']}"
    )
    for step in detail["steps"]:
        print(
            f"  {step['seconds']['median']:8.3f} s  {step['via']:7s} "
            f"{step['cap'] or 'degree'}={step['degree']}  {step['step']}"
        )
    for name, row in detail["metrics"].items():
        print(
            f"{name:40s} {row['median']:.6g} {row['unit']} "
            f"(q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']})"
        )
    share = len(failures) / len(records)
    print(f"checks_failed {share:.6g} ({len(failures)} of {len(records)} checks)")
    for failure in failures[:10]:
        print(f"  FAILED {failure['step']}: {failure.get('error') or failure['observed']}")
    print(f"full result: {result_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
