"""Run the benchmark over ten seeds and record a baseline file.

Usage (from the repository root; about 25 minutes)::

    python3 bench/baseline.py --label 5e8978c --out bench/BENCH_1.json

For every workload it makes one untraced run per seed (1 to 10) and two
traced runs on seed 1, all at the ``run_seconds`` of ``BENCHMARK.json``.
It prints and records, per end-to-end metric, the median, the quartiles
and the spread (quartile distance over median) of the seeds' values, as
``statistics.quantiles(values, n=4)`` gives them; the raw seconds and
speed factors behind each run's times; the per-layer metrics of the
first traced run; and whether the two traced runs gave the same counts.
Performance changes quote their before and after numbers from such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark run: (its JSON result, its workload descriptors, its raw line)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("descriptors", "raw"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged["descriptors"], tagged["raw"]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    report = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "seconds": RUN_SECONDS,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs, raws = [], []
        for seed in SEEDS:
            result, descriptors, raw = run_once(workload, seed, 0)
            runs.append(result)
            raws.append(raw)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced = [run_once(workload, SEEDS[0], 1) for _ in range(2)]
        counts_repeat = counts(traced[0][0]) == counts(traced[1][0])
        print(f"  traced runs: correct={[t[0]['correct'] for t in traced]} "
              f"counts repeat: {counts_repeat}")
        end_to_end = {}
        for name, first in runs[0]["metrics"].items():
            end_to_end[name] = summarise([r["metrics"][name]["value"] for r in runs])
            end_to_end[name]["unit"] = first["unit"]
            print(f"  {name:16s} median {end_to_end[name]['median']:<12.5g} "
                  f"spread {end_to_end[name]['spread']:.4f}")
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [t[0] for t in traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "descriptors": descriptors,
            "end_to_end": end_to_end,
            "raw": raws,
            "per_layer": {k: v["value"] for k, v in traced[0][0]["metrics"].items()},
            "traced_counts_repeat": counts_repeat,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
