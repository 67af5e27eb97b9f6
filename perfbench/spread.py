"""Run-to-run spread of the end-to-end metrics against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --seeds 10 --workloads paper sweep pell cli

Runs the benchmark once per seed and workload, untraced, and prints for
each metric the median and the quartile spread (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives them, next to its bound.
A spread above a third of the bound is marked; setup_s is exempt from the
spread rule, because only its median is compared between commits.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        walls: list[float] = []
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, correct={result['correct']}")
                status = 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        print(f"{name} ({args.seeds} seeds, wall per run {min(walls):.1f}-{max(walls):.1f} s)")
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[key]
            mark = "" if key == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {key:18s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{mark}")
            print("    " + " ".join(f"{v:.5g}" for v in vals), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
