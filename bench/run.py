"""End-to-end benchmark of ``facetcx complexity``.

Usage (from the repository root)::

    python3 bench/run.py --workload facet_dense --seed 1 --seconds 20 --trace 0

One process issues one query at a time in a closed loop: a single
caller, no threads.  Each query is an in-process
``facetcx.cli.run(["complexity", src.scx, tgt.scx, ..., "--json"])`` with
stdout captured, on `.scx` files the benchmark wrote for this seed.  A
pass runs every query of the workload once; passes repeat until
``--seconds`` have elapsed.  Every answer goes through the correctness
gate in ``gate.py`` after the timed passes.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes (``tracing.py``),
making at least two traced ones, reports the per-layer metrics of the
traced ones, and fails the run unless traced and untraced passes print
byte-identical answers and the traced passes repeat their counts.

Human-readable lines come first, among them a ``raw`` JSON line with
the raw seconds and speed factors behind every reported time; the last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when
that object says ``"correct": false``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_PROBES = 20  # speed probes before each set-up

# Layers reported with both a call count and a self time.
COUNTED_LAYERS = (
    "scx.parse_scx",
    "complexity.bounds",
    "complexity.compute",
    "complexity.check_cover",
    "homsearch.find_map",
    "complexes.closure",
    "complexes.metrics",
    "coloring.chromatic_number",
    "maps.classify",
)


def _purge_facetcx() -> None:
    for name in [n for n in sys.modules if n == "facetcx" or n.startswith("facetcx.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, directory: Path):
    """Import facetcx afresh, build the instances and render their `.scx` text.

    The files are written after the clock stops: on an ext4 VM disk,
    writing `random_mix`'s 608 small files took from 0.14 to 0.43 s from
    one repetition to the next, which would drown the import and build
    time this measures.
    """
    _purge_facetcx()
    start = perf_counter()
    facetcx = importlib.import_module("facetcx")
    importlib.import_module("facetcx.cli")
    pairs = workloads.pairs_for(workload, facetcx)
    queries, files = workloads.render_queries(pairs, seed, directory)
    elapsed = perf_counter() - start
    directory.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text)
    return elapsed, facetcx, pairs, queries


def timed_set_up(workload: str, seed: int, run_dir: Path):
    """SETUP_REPEATS set-ups, and the last one's results.

    Returns (median raw seconds without probes, speed factor, facetcx,
    pairs, queries); the median times the factor is ``setup_s``.
    """
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        samples += [speed.timed_probe() for _ in range(SETUP_PROBES)]
        with speed.SpeedSampler() as sampler:
            elapsed, facetcx, pairs, queries = set_up(workload, seed, run_dir)
        times.append(elapsed - sampler.spent)
        samples += sampler.samples
    factor = speed.PROBE_REF_S / statistics.median(samples)
    return statistics.median(times), factor, facetcx, pairs, queries


def check_fixtures(facetcx) -> str | None:
    """Confirm the README fixture values with the exhaustive oracle."""
    src = facetcx.samples.load("shaded_bowtie")
    tgt = facetcx.samples.load("tailed_triangle")
    for (kind, inj), value in workloads.FIXTURE_VALUES.items():
        got = facetcx.brute_force_cover_complexity(src, tgt, kind, inj)
        if got != value:
            return f"oracle gives {got} for the {kind} fixture (injective={inj}), not {value}"
    return None


@dataclass
class Pass:
    """One pass over the workload; times are in reference seconds."""

    wall: float
    raw_wall: float  # raw seconds, probes included
    probe_s: float  # raw seconds spent in speed probes
    factor: float  # wall = (raw_wall - probe_s) * factor
    results: list  # (exit code or exception text, stdout, seconds) per query
    layers: dict | None = None
    spans: list | None = None


def run_pass(cli, queries, tracer=None) -> Pass:
    """Run every query once, one at a time, under a speed sampler."""
    results, spans = [], []
    with speed.SpeedSampler() as sampler:
        start = perf_counter()
        for i, q in enumerate(queries):
            argv = q.argv
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.query_id = i
            probed = sampler.spent
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.run(argv)
            except Exception as exc:  # a crash is a failed query, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            results.append((rc, out.getvalue(), t1 - t0 - (sampler.spent - probed)))
            spans.append((t0, t1))
        raw_wall = perf_counter() - start
    factor = sampler.factor()
    return Pass(
        wall=(raw_wall - sampler.spent) * factor,
        raw_wall=raw_wall,
        probe_s=sampler.spent,
        factor=factor,
        results=[(rc, out, took * sampler.factor_near(t0, t1))
                 for (rc, out, took), (t0, t1) in zip(results, spans)],
    )


def tally(facetcx, queries, passes) -> tuple[int, int, list[str]]:
    """Gate every answer of every pass: (attempted, failed, problems).

    Each pass must print byte-identical answers to the first, which is
    untraced; a bounds-only bracket is checked against the first pass's
    full answer for the same pair.
    """
    reference = passes[0]
    attempted = failed = 0
    verdicts: dict[tuple[int, str], str | None] = {}
    changed = set()
    for results in passes:
        for i, (rc, out, _) in enumerate(results):
            attempted += 1
            if (rc, out) != reference[i][:2]:
                changed.add(i)
            if (i, out) not in verdicts:
                full = gate.full_value(reference[i + 1][1]) if queries[i].bounds_only else None
                verdicts[i, out] = gate.check(facetcx, queries[i], rc, out, full)
            if verdicts[i, out] is not None:
                failed += 1
    problems = [f"query {i} answered differently across passes" for i in sorted(changed)]
    for (i, _), why in sorted(verdicts.items(), key=lambda kv: kv[0][0]):
        if why is not None:
            mode = "bounds-only" if queries[i].bounds_only else "full"
            problems.append(f"query {i} ({queries[i].pair.name}, {mode}): {why}")
    return attempted, failed, problems


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tr: tracing.Tracer) -> dict[str, float]:
    m: dict[str, float] = {"cli.run.self_s": tr.self_s("cli.run")}
    for layer in COUNTED_LAYERS:
        m[f"{layer}.calls"] = tr.calls(layer)
        m[f"{layer}.self_s"] = tr.self_s(layer)
    m["complexity.bounds.graph_lower_s"] = tr.edge("complexity.compute", "complexity.bounds")[1]
    probes = tr.calls(tracing.FEASIBLE)
    searched = tr.edge("homsearch.find_map", tracing.FEASIBLE)[0]
    m["homsearch.probes"] = probes
    m["homsearch.feasible.self_s"] = tr.self_s(tracing.FEASIBLE)
    m["homsearch.probe_hit_ratio"] = 1 - searched / probes if probes else 0.0
    m["homsearch.find_map.nodes"] = tr.find_map_nodes
    calls = m["homsearch.find_map.calls"]
    m["homsearch.find_map.found_ratio"] = tr.find_map_found / calls if calls else 0.0
    return m


UNITS = {"calls": "count", "probes": "count", "nodes": "count"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return UNITS.get(last, "ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "facetcx" / "__init__.py").is_file():
        print(f"bench: no facetcx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    setup_raw, setup_factor, facetcx, pairs, queries = timed_set_up(
        args.workload, args.seed, run_dir)
    setup_s = setup_raw * setup_factor
    if not Path(facetcx.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported facetcx from {facetcx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cli = facetcx.cli
    problems = []
    if args.workload == "random_mix":
        problem = check_fixtures(facetcx)
        if problem:
            problems.append(problem)

    run_pass(cli, queries[:1])  # warm-up, not counted
    tracer = tracing.Tracer() if args.trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    deadline = perf_counter() + args.seconds
    # Untraced: at least two passes.  Traced: untraced and traced passes
    # alternate until the deadline, then traced ones follow until there
    # are two, so that their counts can be compared.
    def enough() -> bool:
        if tracer is None:
            return len(untraced) >= 2
        return len(untraced) >= 1 and len(traced) >= 2

    while not (perf_counter() >= deadline and enough()):
        if tracer is None or not untraced or (
                len(untraced) == len(traced) and perf_counter() < deadline):
            untraced.append(run_pass(cli, queries))
            continue
        tracer.reset()
        with tracer.installed(facetcx):
            p = run_pass(cli, queries, tracer)
        # Probes landed inside traced calls in proportion to their time.
        scale = p.wall / p.raw_wall
        p.layers = {k: v * scale if unit_of(k) == "s" else v
                    for k, v in layer_metrics(tracer).items()}
        p.spans = list(tracer.spans)
        traced.append(p)

    attempted, failed, found = tally(facetcx, queries, [p.results for p in untraced + traced])
    problems += found
    reference = untraced[0].results
    full_idx = [i for i, q in enumerate(queries) if not q.bounds_only]
    infinite = sum(1 for i in full_idx if gate.finite(reference[i][1]) is False)
    descriptors = workloads.describe(pairs)
    descriptors["queries.infinite_share"] = infinite / len(full_idx)

    walls = [p.wall for p in untraced]
    notes, p50_line = {}, None
    if tracer is None:
        # An invocation's time is its median over the passes.
        took = [statistics.median(p.results[i][2] for p in untraced)
                for i in range(len(queries))]
        latencies = sorted(took[i] for i in full_idx)
        bounds_only = sum(t for q, t in zip(queries, took) if q.bounds_only)
        metrics = {
            "wall_s": statistics.median(walls),
            "bounds_only_s": bounds_only,
            "latency_ms.p95": 1000 * percentile(latencies, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "bounds_only_s": "s", "latency_ms.p95": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        beyond = len(latencies) - math.ceil(0.95 * len(latencies))
        notes = {
            "wall_s": f"median of {len(walls)} passes of {len(queries)} invocations",
            "bounds_only_s": f"the --bounds-only invocations of a pass: "
                             f"{bounds_only / statistics.median(walls):.1%} of wall_s",
            "latency_ms.p95": f"over {len(latencies)} full invocations, {beyond} beyond",
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
        }
        # Printed, not a metric: on facet_dense and strict_skeleta it is one
        # ~100 ms invocation, which spread 21% over ten runs.
        p50_line = (f"  {'latency_ms.p50':34s} {1000 * statistics.median(latencies):>14.6g} ms"
                    f"  (printed only: one instance on the small workloads)")
    else:
        metrics = {}
        for name in traced[0].layers:
            values = [p.layers[name] for p in traced]
            if unit_of(name) == "count":
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["queries.infinite_share"] = descriptors["queries.infinite_share"]
        metrics["trace.overhead_share"] = (
            statistics.median(p.wall for p in traced) / statistics.median(walls) - 1
        )
        units = {name: unit_of(name) for name in metrics}
        notes["trace.overhead_share"] = f"{len(traced)} traced vs {len(walls)} untraced passes"

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced  "
          f"invocations/pass {len(queries)}")
    # Times are in reference seconds; this line keeps the raw seconds and
    # speed factors they were corrected from.
    print("raw " + json.dumps({
        "setup": {"median_s": setup_raw, "factor": setup_factor},
        "passes": [{"traced": is_traced, "raw_wall_s": p.raw_wall,
                    "probe_s": p.probe_s, "factor": p.factor}
                   for is_traced, group in ((False, untraced), (True, traced))
                   for p in group],
    }))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:>14.6g} {units[name]}{note}")
    if p50_line:
        print(p50_line)
    print(f"  {'failed_share':34s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    print("descriptors " + json.dumps(descriptors, sort_keys=True))
    for why in problems:
        print(f"problem: {why}")
    if traced:
        write_spans(args, traced[0].spans)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if problems else 0


def write_spans(args, spans) -> None:
    """Keep one traced pass's query, bounds and compute spans on disk."""
    t0 = min((s[3] for s in spans), default=0.0)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps([
        {"query": q, "layer": layer, "parent": parent,
         "start_s": start - t0, "end_s": end - t0}
        for q, layer, parent, start, end in sorted(spans, key=lambda s: s[3])
    ]))
    print(f"spans: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
