"""Per-layer tracing of facetcx from outside the library.

Each traced layer is a public facetcx function.  ``Tracer.installed``
replaces every module-level name bound to that function in the facetcx
modules -- the names its callers look up, such as
``facetcx.homsearch.find_map`` and ``facetcx.complexity.find_map`` -- and
``FeasibilityCache.feasible`` on its class, then puts the originals back.

A `facet_dense` pass makes about 4.8 M feasibility probes, too many to
keep one span each.  So every call only adds its count, total time and
self time to an aggregate keyed by (layer, parent layer); full spans are
kept for queries, ``bounds`` and ``compute`` alone.  Self time is a
call's duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (defining module, function name) -> layer name.
LAYERS = {
    ("facetcx.cli", "run"): "cli.run",
    ("facetcx.scx", "parse_scx"): "scx.parse_scx",
    ("facetcx.complexity", "bounds"): "complexity.bounds",
    ("facetcx.complexity", "compute"): "complexity.compute",
    ("facetcx.complexity", "check_cover"): "complexity.check_cover",
    ("facetcx.homsearch", "find_map"): "homsearch.find_map",
    ("facetcx.complexes", "closure"): "complexes.closure",
    ("facetcx.complexes", "metrics"): "complexes.metrics",
    ("facetcx.coloring", "chromatic_number"): "coloring.chromatic_number",
    ("facetcx.maps", "classify"): "maps.classify",
}
FEASIBLE = "homsearch.feasible"
SPAN_LAYERS = frozenset({"cli.run", "complexity.bounds", "complexity.compute"})
ROOT = "bench"


class Tracer:
    """Aggregated call counts and times per (layer, parent layer)."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]
        self.agg: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.find_map_nodes = 0
        self.find_map_found = 0
        self.query_id = 0

    def reset(self) -> None:
        """Start a new pass; wrappers keep the same containers."""
        self.stack[:] = [[ROOT, 0.0]]
        self.agg.clear()
        self.spans.clear()
        self.find_map_nodes = self.find_map_found = self.query_id = 0

    def wrap(self, layer: str, fn):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, perf_counter
        keep_span = layer in SPAN_LAYERS
        count_search = layer == "homsearch.find_map"
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                key = (layer, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if keep_span:
                    spans.append((tracer.query_id, layer, parent[0], start, end))
            if count_search:
                tracer.find_map_nodes += result.nodes
                tracer.find_map_found += result.found
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, facetcx):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for (home, name), layer in LAYERS.items():
                original = getattr(sys.modules[home], name)
                wrapper = self.wrap(layer, original)
                for module in facetcx_modules():
                    if module.__dict__.get(name) is original:
                        saved.append((module, name, original))
                        setattr(module, name, wrapper)
            cache = facetcx.homsearch.FeasibilityCache
            original = cache.__dict__["feasible"]
            saved.append((cache, "feasible", original))
            cache.feasible = self.wrap(FEASIBLE, original)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- reading the aggregate -------------------------------------------

    def calls(self, layer: str) -> int:
        return sum(rec[0] for (lay, _), rec in self.agg.items() if lay == layer)

    def self_s(self, layer: str) -> float:
        return sum(rec[2] for (lay, _), rec in self.agg.items() if lay == layer)

    def edge(self, layer: str, parent: str) -> list:
        return self.agg.get((layer, parent), [0, 0.0, 0.0])


def facetcx_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "facetcx" or k.startswith("facetcx.")) and m is not None]


def snapshot(facetcx) -> dict:
    """Every traced name's current binding, to prove they were restored."""
    names = {name for _, name in LAYERS}
    out = {(m.__name__, n): m.__dict__[n]
           for m in facetcx_modules() for n in names if n in m.__dict__}
    out[("FeasibilityCache", "feasible")] = facetcx.homsearch.FeasibilityCache.__dict__["feasible"]
    return out
