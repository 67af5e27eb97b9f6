"""quartaut benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root (any directory works; paths resolve from this
file). The package is imported from ``src/`` with bytecode writing off, as
``PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1`` would; child processes get
exactly those two variables.

--trace 0 loops over seeded rounds until the measured time reaches
--seconds (the round in progress is finished) and prints the end-to-end
metrics. --trace 1 runs a fixed number of rounds twice, untraced and then
traced, so its per-layer counts repeat exactly, and prints the per-layer
metrics. The last line of standard output is the JSON result; the exit
code is 0 only when every answer checked was right. Records, including the
spans of a traced run, are written under ``.bench_out/``.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import timing  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Context, load_modules  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 120

PROBES = {"exclusion.antiflip_report": lambda rep: rep.configurations}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")


def commit() -> str:
    """HEAD of a git checkout at the root, read without running git (which
    would search parent directories); "unknown" outside a checkout."""
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


def environment(wl, args) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONPATH": "src",
        "PYTHONDONTWRITEBYTECODE": "1",
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def setup_child(name: str) -> int:
    """Import the package and run the workload's warm-up pass; print the
    seconds this took. Runs in a fresh interpreter for every sample."""
    t0 = time.perf_counter()
    m = load_modules()
    wl = WORKLOADS[name]()
    ctx = Context(str(ROOT), child_env(), in_process=True)
    for op in wl.warmup():
        wl.run(op, m, ctx)
    print(time.perf_counter() - t0)
    return 0


def setup_seconds(name: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, scaled and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        k0 = timing.kernel_seconds()
        proc = run_child([sys.executable, str(Path(__file__)), "--setup-child", name])
        k1 = timing.kernel_seconds()
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * timing.KERNEL_NOMINAL_S / ((k0 + k1) / 2))
    return statistics.median(scaled), statistics.median(raw)


def subprocess_ms(code: str) -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", code])
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


class Gate:
    """Counts attempted and failed operations and stops at the first wrong
    answer; a failed operation is counted, never retried or skipped."""

    def __init__(self, wl, m):
        self.wl, self.m = wl, m
        self.attempted = self.failed = 0
        self.wrong: str | None = None
        self.failures: list[str] = []

    def timed(self, op, ctx) -> tuple[float, object, bool]:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wl.run(op, self.m, ctx)
            ok = True
        except Exception as e:  # any exception is a failed operation
            result, ok = e, False
        dt = time.perf_counter() - t0
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op}: {type(result).__name__}: {result}")
        return dt, result, ok

    def check(self, op, result) -> bool:
        try:
            self.wl.check(op, result, self.m)
        except Exception as e:  # an answer that cannot be checked is wrong
            self.wrong = f"{op}: {type(e).__name__}: {e}"
            return False
        return True

    def finish(self) -> dict:
        if self.wrong is not None:
            return {}
        try:
            return self.wl.finish(self.m)
        except Exception as e:
            self.wrong = f"deferred check: {type(e).__name__}: {e}"
            return {}


def measure(wl, m, gate: Gate, args) -> tuple[dict, dict]:
    """Untraced closed loop; end-to-end metrics and notes to record."""
    ctx = Context(str(ROOT), child_env(), in_process=False)
    rng = random.Random(args.seed)
    scaler = timing.Scaler()
    raw: list[float] = []  # unscaled times of completed ops, for the record
    scaled: list[float] = []
    round_rates: list[float] = []
    busy = 0.0
    while busy < args.seconds and gate.wrong is None:
        round_times: list[tuple[float, bool]] = []
        for op in wl.round(rng):
            dt, result, ok = gate.timed(op, ctx)
            busy += dt
            if ok:
                raw.append(dt)
            if scaler.add(dt, ok):
                round_times += scaler.flush()
            if ok and not gate.check(op, result):
                break
        round_times += scaler.flush()
        round_rates.append(len(round_times) / sum(t for t, _ in round_times))
        scaled += [t for t, ok in round_times if ok]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s, setup_raw_s = setup_seconds(wl.name)
    scaled.sort()
    raw.sort()
    # Latency is that of completed ops; failed ops count in completed_ratio
    # and in ops_per_s.
    tail, beyond = timing.percentile(scaled, wl.tail_percentile)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(round_rates), "1/s"),
        "latency_p50_ms": (timing.percentile(scaled, 50)[0] * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "completed_ratio": (1 - gate.failed / gate.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    kernel_ms = [k * 1e3 for k in scaler.kernel_samples]
    notes = {
        "latency_tail": {"percentile": wl.tail_percentile, "samples_beyond": beyond,
                         "samples": len(scaled)},
        "rounds": len(round_rates),
        "measured_s": busy,
        "raw": {
            "setup_s": setup_raw_s,
            "ops_per_s": gate.attempted / busy,
            "latency_p50_ms": timing.percentile(raw, 50)[0] * 1e3,
            "latency_tail_ms": timing.percentile(raw, wl.tail_percentile)[0] * 1e3,
        },
        "kernel_ms": {"nominal": timing.KERNEL_NOMINAL_S * 1e3, "samples": len(kernel_ms),
                      "min": min(kernel_ms), "median": statistics.median(kernel_ms),
                      "max": max(kernel_ms)},
    }
    if beyond < 10:
        notes["latency_tail"]["warning"] = "fewer than 10 samples beyond the percentile"
    return metrics, notes


def one_pass(ops, gate: Gate, ctx, tracer=None) -> tuple[int, float]:
    """Run ops in order until the first wrong answer; (ops run, seconds)."""
    done, busy = 0, 0.0
    for i, op in enumerate(ops):
        if gate.wrong is not None:
            break
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        try:
            dt, result, ok = gate.timed(op, ctx)
        finally:
            if tracer is not None:
                tracer.enabled = False
        done, busy = done + 1, busy + dt
        if ok:
            gate.check(op, result)
    return done, busy


def traced(wl, m, gate: Gate, args) -> tuple[dict, dict, list]:
    """Fixed rounds, untraced then traced; per-layer metrics, notes, spans."""
    ctx = Context(str(ROOT), child_env(), in_process=True)
    rng = random.Random(args.seed)
    ops = [op for _ in range(wl.trace_rounds) for op in wl.round(rng)]
    untraced_n, untraced_s = one_pass(ops, gate, ctx)
    counts = gate.attempted, gate.failed  # the result reports this pass
    tracer = tracing.Tracer(PROBES)
    tracer.install()
    try:
        traced_n, traced_s = one_pass(ops, gate, ctx, tracer)
    finally:
        tracer.uninstall()
    gate.attempted, gate.failed = counts
    spans = tracer.spans
    metrics = {k: (v, "ms" if k.endswith("_ms") else "count")
               for k, v in tracing.layer_metrics(spans).items()}
    interpreter_ms = subprocess_ms("pass")
    metrics.update({
        "surface.find_curve_class.found_ratio":
            (tracing.found_ratio(spans, "surface.find_curve_class"), "ratio"),
        "links.realize_generator.word_found_ratio":
            (tracing.found_ratio(spans, "links.realize_generator"), "ratio"),
        "exclusion.antiflip_report.configurations":
            (tracing.last_value(spans, "exclusion.antiflip_report"), "count"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (subprocess_ms("import quartaut.cli") - interpreter_ms, "ms"),
        "trace.untraced_ops_per_s": (untraced_n / untraced_s if untraced_s else 0.0, "1/s"),
        "trace.traced_ops_per_s": (traced_n / traced_s if traced_s else 0.0, "1/s"),
    })
    notes = {"ops": len(ops), "spans": len(spans), "absent": tracer.absent}
    return metrics, notes, spans


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]()
    m = load_modules()
    gate = Gate(wl, m)
    warm = Context(str(ROOT), child_env(), in_process=True)
    for op in wl.warmup():
        wl.run(op, m, warm)
    spans: list = []
    if args.trace:
        metrics, notes, spans = traced(wl, m, gate, args)
    else:
        metrics, notes = measure(wl, m, gate, args)
    notes.update(gate.finish())
    if gate.failures:
        notes["first_failures"] = gate.failures
    record = {"environment": environment(wl, args), "notes": notes}
    result = {
        "correct": gate.wrong is None,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": result,
                               "spans": [list(s) for s in spans]}))
    if gate.wrong is not None:
        print(f"WRONG ANSWER: {gate.wrong}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if gate.wrong is None else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each metric
    by name with its unit and fails if any answer was wrong."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:48s} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for the benchmark and its children, so that the timing kernel
    # measures the CPU the operations run on.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    if not (ROOT / "src" / "quartaut" / "__init__.py").is_file():
        print(f"no quartaut sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_child:
        return setup_child(args.setup_child)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
