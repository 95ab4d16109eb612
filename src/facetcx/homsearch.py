"""Backtracking search for facet and strict simplicial maps.

The search branches per source facet rather than per vertex:

* kind ``facet``: every facet of size >= 2 picks a target facet of size
  >= 2 with |G| <= |F| (equal under injectivity) and must map onto it
  exactly; vertices in no such facet are placed afterwards.  Satisfying
  all facet constraints already forces simpliciality, because every
  face is a subset of a facet.
* kind ``strict``: every facet (singletons included) maps injectively
  into some target facet at least as large, so dimensions are
  preserved.

Injective searches add a global all-different constraint plus a degree
filter: an injective simplicial image can only lose neighbours, so a
candidate must dominate the source vertex's degree and every d-degree.

Stage order is static (fewest candidate target facets first, canonical
order breaking ties; vertices inside a stage by descending degree) and
candidates are tried in canonical order, so the first map found is the
canonical certificate and re-runs are deterministic.  ``found=False``
is only ever returned on an exhausted search tree and is therefore a
proof of non-existence; running out of node or time budget raises
``UndecidedError`` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .complexes import Complex, _bits, _degree_tables, _key, closure
from .maps import VertexMap, classify


class UndecidedError(Exception):
    """Search budget exhausted before the tree was."""

    def __init__(self, nodes: int, reason: str = "node budget exhausted"):
        super().__init__(f"{reason} after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class SearchLimits:
    max_nodes: int = 50_000_000
    max_seconds: float = float("inf")

    def __post_init__(self) -> None:
        if self.max_nodes <= 0 or self.max_seconds <= 0:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class SearchProblem:
    source: Complex
    target: Complex
    kind: str = "facet"
    injective: bool = False
    limits: SearchLimits = field(default_factory=SearchLimits)

    def __post_init__(self) -> None:
        if self.kind not in ("facet", "strict"):
            raise ValueError(f"kind must be 'facet' or 'strict', not {self.kind!r}")


@dataclass(frozen=True)
class SearchResult:
    found: bool
    map: Optional[VertexMap]
    nodes: int


def _degree_compat(src: Complex, tgt: Complex) -> list[int]:
    """Per source vertex, the mask of degree-dominating target vertices."""
    sdeg, s_by_d = _degree_tables(src)
    tdeg, t_by_d = _degree_tables(tgt)
    out = []
    for v in range(src.n):
        mask = 0
        for u in range(tgt.n):
            if tdeg[u] < sdeg[v]:
                continue
            if any(
                t_by_d.get(d, [0] * tgt.n)[u] < row[v] for d, row in s_by_d.items()
            ):
                continue
            mask |= 1 << u
        out.append(mask)
    return out


def find_map(problem: SearchProblem) -> SearchResult:
    src, tgt = problem.source, problem.target
    kind, inj = problem.kind, problem.injective
    ns, nt = src.n, tgt.n
    if ns == 0:
        return SearchResult(True, VertexMap(src, tgt, ()), 0)
    if nt == 0 or (inj and ns > nt):
        return SearchResult(False, None, 0)

    full_t = (1 << nt) - 1
    compat = _degree_compat(src, tgt) if inj else [full_t] * ns
    sdeg, _ = _degree_tables(src)

    if kind == "facet":
        stage_facets = [f for f in src.facets if f.bit_count() >= 2]
    else:
        stage_facets = list(src.facets)
    stages = []
    for f in stage_facets:
        size = f.bit_count()
        if kind == "facet":
            cands = [
                g
                for g in tgt.facets
                if g.bit_count() >= 2
                and (g.bit_count() == size if inj else g.bit_count() <= size)
            ]
        else:
            cands = [g for g in tgt.facets if g.bit_count() >= size]
        order = sorted(_bits(f), key=lambda v: (-sdeg[v], v))
        stages.append((f, tuple(order), tuple(cands)))
    stages.sort(key=lambda s: (len(s[2]), _key(s[0])))

    staged = 0
    for f, _, _ in stages:
        staged |= f
    free = [v for v in range(ns) if not staged >> v & 1]

    assign = [-1] * ns
    used = 0
    nodes = 0
    deadline = (
        time.monotonic() + problem.limits.max_seconds
        if problem.limits.max_seconds != float("inf")
        else None
    )
    max_nodes = problem.limits.max_nodes
    solution: list[tuple[int, ...]] = []

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise UndecidedError(nodes)
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            raise UndecidedError(nodes, "time budget exhausted")

    def run_stage(si: int) -> bool:
        if si == len(stages):
            return place_free(0)
        f, order, cands = stages[si]
        pre = 0
        remaining = []
        for v in order:
            if assign[v] >= 0:
                pre |= 1 << assign[v]
            else:
                remaining.append(v)
        if kind == "facet":
            for g in cands:
                if pre & ~g:
                    continue
                uncovered = g & ~pre
                if len(remaining) < uncovered.bit_count():
                    continue
                if extend_onto(si, g, remaining, 0, uncovered):
                    return True
            return False
        # strict: assigned facet vertices must already be pairwise distinct
        assigned = len(order) - len(remaining)
        if pre.bit_count() != assigned:
            return False
        viable = tuple(g for g in cands if not pre & ~g)
        return extend_into(si, viable, remaining, 0, pre)

    def extend_onto(si, g, remaining, ri, uncovered) -> bool:
        nonlocal used
        if ri == len(remaining):
            return run_stage(si + 1)
        v = remaining[ri]
        left = len(remaining) - ri
        pool = g & compat[v]
        if inj:
            pool &= ~used
        for u in _bits(pool):
            rest = uncovered & ~(1 << u)
            if left - 1 < rest.bit_count():
                continue
            tick()
            assign[v] = u
            if inj:
                used |= 1 << u
            if extend_onto(si, g, remaining, ri + 1, rest):
                return True
            assign[v] = -1
            if inj:
                used &= ~(1 << u)
        return False

    def extend_into(si, viable, remaining, ri, fimg) -> bool:
        nonlocal used
        if not viable:
            return False
        if ri == len(remaining):
            return run_stage(si + 1)
        v = remaining[ri]
        pool = 0
        for g in viable:
            pool |= g
        pool &= compat[v] & ~fimg
        if inj:
            pool &= ~used
        for u in _bits(pool):
            narrowed = tuple(g for g in viable if g >> u & 1)
            if not narrowed:
                continue
            tick()
            assign[v] = u
            if inj:
                used |= 1 << u
            if extend_into(si, narrowed, remaining, ri + 1, fimg | 1 << u):
                return True
            assign[v] = -1
            if inj:
                used &= ~(1 << u)
        return False

    def place_free(fi: int) -> bool:
        nonlocal used
        if fi == len(free):
            solution.append(tuple(assign))
            return True
        v = free[fi]
        pool = compat[v]
        if inj:
            pool &= ~used
            for u in _bits(pool):
                tick()
                assign[v] = u
                used |= 1 << u
                if place_free(fi + 1):
                    return True
                assign[v] = -1
                used &= ~(1 << u)
            return False
        if not pool:
            return False
        u = (pool & -pool).bit_length() - 1
        tick()
        assign[v] = u
        if place_free(fi + 1):
            return True
        assign[v] = -1
        return False

    if run_stage(0):
        m = VertexMap(src, tgt, solution[0])
        cls = classify(m)
        ok = (cls.facet if kind == "facet" else cls.strict) and (
            cls.injective or not inj
        )
        if not ok:  # pragma: no cover - guards the search itself
            raise RuntimeError("search produced a map failing its own constraints")
        return SearchResult(True, m, nodes)
    return SearchResult(False, None, nodes)


class FeasibilityCache:
    """Memoized group feasibility for one complexity computation.

    Keys are bitmasks over ``facets`` (default: the source's facets).
    Feasibility is hereditary, so masks below a known-feasible mask are
    feasible and masks above a known-infeasible mask are not; the cache
    exploits both before falling back to a search.
    """

    def __init__(
        self,
        source: Complex,
        target: Complex,
        kind: str = "facet",
        injective: bool = False,
        facets: tuple[int, ...] | None = None,
        limits: SearchLimits | None = None,
    ):
        self.source = source
        self.target = target
        self.kind = kind
        self.injective = injective
        self.facets = source.facets if facets is None else tuple(facets)
        self.limits = limits or SearchLimits()
        self._results: dict[int, SearchResult] = {}
        self._feasible_max: list[int] = []
        self._infeasible_min: list[int] = []

    def _check(self, source, target, kind, injective, facets) -> None:
        """Reject use of this cache for a query it was not built for."""
        if (self.source, self.target, self.kind, self.injective, self.facets) != (
            source, target, kind, injective, tuple(facets)
        ):
            raise ValueError("the cache was built for a different query")

    def _sub(self, mask: int) -> Complex:
        chosen = [self.source.members(self.facets[i]) for i in _bits(mask)]
        return closure(self.source, chosen)

    def result(self, mask: int) -> SearchResult:
        hit = self._results.get(mask)
        if hit is None:
            hit = find_map(
                SearchProblem(
                    self._sub(mask), self.target, self.kind, self.injective, self.limits
                )
            )
            self._results[mask] = hit
            if hit.found:
                self._feasible_max = [
                    m for m in self._feasible_max if m & ~mask
                ] + [mask]
            else:
                self._infeasible_min = [
                    m for m in self._infeasible_min if mask & ~m
                ] + [mask]
        return hit

    def feasible(self, mask: int) -> bool:
        if mask == 0:
            return True
        cached = self._results.get(mask)
        if cached is not None:
            return cached.found
        for m in self._feasible_max:
            if mask & ~m == 0:
                return True
        for m in self._infeasible_min:
            if m & ~mask == 0:
                return False
        return self.result(mask).found

    def certificate(self, mask: int) -> VertexMap:
        res = self.result(mask)
        if not res.found:
            raise ValueError("no certificate for an infeasible group")
        return res.map


def group_feasible(
    c: Complex,
    group: Iterable[Iterable[str]],
    target: Complex,
    kind: str = "facet",
    injective: bool = False,
    cache: FeasibilityCache | None = None,
    limits: SearchLimits | None = None,
) -> bool:
    """Can the subcomplex generated by ``group`` map to ``target``?

    ``group`` must consist of facets of ``c``; the empty group is
    trivially feasible.  A ``cache`` must have been built for ``c``'s
    facets, ``target``, ``kind`` and ``injective`` (anything else is
    rejected with ``ValueError``); repeated queries then cost one lookup.
    """
    facet_index = {f: i for i, f in enumerate(c.facets)}
    mask = 0
    for g in group:
        m = c.mask_of(g)
        if m not in facet_index:
            raise ValueError(f"{sorted(g)!r} is not a facet of the complex")
        mask |= 1 << facet_index[m]
    if cache is None:
        cache = FeasibilityCache(c, target, kind, injective, limits=limits)
    cache._check(c, target, kind, injective, c.facets)
    return cache.feasible(mask)
