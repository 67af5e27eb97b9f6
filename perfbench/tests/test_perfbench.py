"""Tests of the benchmark itself: seeded inputs, self time, the answer gate.

    python3 -m pytest perfbench/tests -q
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, load_modules  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]()

    def draw(seed):
        rng = random.Random(seed)
        return [wl.round(rng) for _ in range(3)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0, tracing.VALUE, None)


def test_self_time_on_synthetic_tree():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("b", 30, 60, 0),  # overlaps a: the union 10..60 is covered once
        span("a1", 15, 20, 1),
        span("late", 95, 120, 0),  # clipped to the parent's end
        span("other", 200, 210, -1),
    ]
    assert tracing.self_times_ns(spans) == [100 - 50 - 5, 30 - 5, 30, 5, 25, 10]


def test_layer_metrics_sum_self_time_and_failures():
    spans = [
        span("pell.solve", 0, 1_000_000, -1),
        tracing.Span("pell.solve", 2_000_000, 2_500_000, -1, 1, tracing.RAISED, None),
        span("surface.is_ample", 100_000, 300_000, 0),
    ]
    got = tracing.layer_metrics(spans)
    assert got["pell.solve.calls"] == 2
    assert got["pell.solve.failures"] == 1
    assert got["pell.solve.self_ms"] == pytest.approx(0.8 + 0.5)
    assert got["surface.is_ample.self_ms"] == pytest.approx(0.2)
    assert got["cli.main.calls"] == 0


def test_removed_name_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install(("pell.solve", "pell.no_such_function", "no_such_module.f"))
    try:
        assert tracer.absent == ["pell.no_such_function", "no_such_module.f"]
        m = load_modules()
        tracer.enabled = True
        m.pell.solve(17, -8)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["pell.solve"]
    got = tracing.layer_metrics(tracer.spans, ("pell.solve", "pell.no_such_function"))
    assert got["pell.solve.calls"] == 1
    assert {k: v for k, v in got.items() if "no_such" in k} == {
        "pell.no_such_function.calls": 0,
        "pell.no_such_function.self_ms": 0.0,
        "pell.no_such_function.failures": 0,
    }


def test_tail_percentile_counts_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert timing.percentile(values, 50) == (100.0, 100)
    assert timing.percentile(values, 90) == (180.0, 20)
    assert timing.percentile(values, 99.9) == (200.0, 0)


def wrong_tags(m):
    return "classify_aut", lambda L: m.surface.AutKind("Trivial")


def broken_generators(m):
    real = m.isometry.generators_for

    def fake(L, tag, axes):
        return [((g[0][0] + 1, g[0][1]), g[1]) for g in real(L, tag, axes)]
    return "generators_for", fake


def bad_witness(m):
    return "solve", lambda r, n, nonzero_y=False: (1, 1)


CORRUPTIONS = {
    "paper": ("surface", wrong_tags),
    "sweep": ("isometry", broken_generators),
    "pell": ("pell", bad_witness),
    "cli": ("surface", wrong_tags),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_trips_on_corrupted_answer(name, monkeypatch):
    """A short run with the program's answers corrupted is marked wrong.
    The cli workload is run in process here, through its traced mode."""
    wl = WORKLOADS[name]()
    m = load_modules()
    module, corrupt = CORRUPTIONS[name]
    attr, fake = corrupt(m)
    monkeypatch.setattr(getattr(m, module), attr, fake)
    gate = run.Gate(wl, m)
    args = SimpleNamespace(seed=3, seconds=0.01, trace=0)
    if name == "cli":
        run.traced(wl, m, gate, args)
    else:
        run.measure(wl, m, gate, args)
    assert gate.wrong is not None
    assert gate.attempted >= 1


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_paper_smoke_run_prints_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
