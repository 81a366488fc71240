"""Tests of the benchmark itself: the correctness gate, the inputs, the
tracer and the refusal to run without the package.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from peakforge import cli, mr, peak, sym  # noqa: E402
from peakforge.scalars import QQ  # noqa: E402


def test_wrong_expected_value_is_counted():
    step = workloads.hilbert_step("peak", 2, 4)
    assert workloads.check(step)["ok"]
    status, ok, dims = step.expected
    wrong = dataclasses.replace(step, expected=(status, ok, dims[:-1] + [dims[-1] + 1]))
    record = workloads.check(wrong)
    assert not record["ok"]
    assert record["error"] is None
    assert record["observed"] == repr(step.expected)


def test_errors_and_cap_refusals_are_counted():
    def boom():
        raise ArithmeticError("deliberate")

    step = workloads.Step("raises", "library", None, 0, boom, True)
    record = workloads.check(step)
    assert not record["ok"] and record["error"] == "ArithmeticError: deliberate"
    past_cap = workloads.hilbert_step("peak", 2, cli.CAPS["hilbert/peak"] + 1)
    record = workloads.check(past_cap)
    assert not record["ok"] and record["error"].startswith("SystemExit")


def test_steps_route_through_the_cli_up_to_the_cap():
    for name in workloads.WORKLOADS:
        for step in workloads.build(name, 1):
            if step.via == "cli":
                assert step.degree <= cli.CAPS[step.cap], step.name
            elif step.cap is not None:
                assert step.degree > cli.CAPS[step.cap], step.name


def test_known_dimensions_agree_with_the_package():
    for algebra in peak.ALGEBRAS:
        for r in range(2, 7):
            _, predicted = peak.predicted_dimensions(algebra, r, 8)
            assert workloads.predicted_dims(algebra, r, 8) == predicted


def test_only_products_depends_on_the_seed():
    assert workloads.oracle_pairs(1) == workloads.oracle_pairs(1)
    assert workloads.oracle_pairs(1) != workloads.oracle_pairs(2)
    for pair in workloads.oracle_pairs(3):
        for terms in pair:
            assert len(terms) == workloads.ORACLE_SUPPORT
            assert all(sum(key) == workloads.ORACLE_DEGREE for key in terms)
    for name in ("scan", "symbolic"):
        first = [(s.name, s.expected) for s in workloads.build(name, 1)]
        assert first == [(s.name, s.expected) for s in workloads.build(name, 2)]


def test_seeded_cross_route_detects_a_wrong_product():
    pairs = workloads.oracle_pairs(5)[:2]
    assert workloads.oracle_cross_route(pairs) == 2
    original = sym.internal_product
    try:
        sym.internal_product = lambda a, b: original(b, a)  # the opposite product
        assert workloads.oracle_cross_route(pairs) < 2
    finally:
        sym.internal_product = original


def test_tracer_sees_names_imported_elsewhere():
    original_word_product = mr.word_product
    tracing = tracer.Tracer()
    tracing.install()
    try:
        assert mr.word_product is not original_word_product
        a = mr.monomial(QQ, ((1, 0), (1, 1)))
        b = mr.monomial(QQ, ((2, 1),))
        tracing.run_step("products", lambda: (mr.product(a, b), mr.internal_product(a, a)))
    finally:
        tracing.uninstall()
    assert mr.word_product is original_word_product
    layers = tracing.layers()
    # mr.product reaches word_product through mr's own import of it
    assert layers["algebra.word_product.calls"] >= 1
    # MrElement.key_degree and mr.internal_product look colored_weight up
    # under their own names
    assert layers["combinatorics.colored_weight.calls"] >= 2
    assert layers["mr.internal_product.calls"] == 1
    # cached structure lookups are counted, not spanned
    assert layers["mr.internal_structure.calls"] >= 1
    assert "mr.internal_structure.self_s" not in layers
    self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
    assert all(v >= 0 for v in self_times)
    (step,) = tracing.steps
    assert sum(self_times) + step["unattributed_s"] <= step["end"] - step["start"] + 1e-9


def test_wrapper_bookkeeping_is_charged_to_no_span(monkeypatch):
    # a clock that advances one tick per read
    ticks = itertools.count()
    monkeypatch.setattr(tracer, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    tracing = tracer.Tracer()
    leaf = tracing.timed("leaf", lambda: None)
    parent = tracing.timed("parent", lambda: [leaf() for _ in range(100)])
    tracing.run_step("step", parent)
    # each leaf reads the clock four times; one tick of each falls between
    # its start and end reads
    assert tracing.stats["leaf"] == [100, 100]
    # the parent keeps one tick between its own reads, plus one per child:
    # the gap from a child's last read to the next one's first, and none of
    # the children's own reads
    assert tracing.stats["parent"] == [1, 1 + 100]
    # the step's two reads bracket the parent's first and last
    (step,) = tracing.steps
    assert step["unattributed_s"] == 2


def test_set_up_imports_every_module():
    # the set-up the worker measures: a bare interpreter importing the CLI
    code = "import sys; sys.path.insert(0, 'src'); import peakforge.cli; print(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = eval(proc.stdout)
    assert {f"peakforge.{name}" for name in tracer.MODULES} <= set(loaded)


def test_set_up_sample_times_both_starts():
    sample = run.setup_sample(["--workload", "scan", "--seed", "1"], time.monotonic() + 60)
    assert 0 < sample["setup_s"] < 30
    assert 0 < sample["reference_s"] < 30


def test_speed_probe_samples_and_accounts_for_its_time():
    probe = worker.SpeedProbe(interval=0.02)
    with probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert 0 < sum(probe.samples) <= probe.spent
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
