"""Minimum-cover solvers and provable bounds for map complexity.

The central quantity is the least number of subcomplexes covering the
source such that each part admits a map of the requested kind into the
target (``math.inf`` when no such finite cover exists).  Covers by
arbitrary subcomplexes reduce to covers by groups of source facets:
every part is contained in the closure of the source facets it
contains, restriction never breaks any of the map kinds, and facets of
a closure of source facets are exactly those facets, so inflating each
part to such a closure keeps it mappable while covering at least as
much.  The solver therefore optimizes over facet groups only.

Group feasibility is hereditary (subsets of a mappable group are
mappable), so a branch-and-memo set-cover over facet bitmasks with a
least-uncovered-facet pivot is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .complexes import Complex, _bits, _key, closure, facet_graph, graph_as_complex
from .coloring import chromatic_number
from .homsearch import FeasibilityCache, SearchLimits, UndecidedError
from .maps import VertexMap, classify

INFINITY = math.inf


class FacetCapError(ValueError):
    """Raised when a query has more constrained facets than the cap allows."""


@dataclass(frozen=True)
class ComplexityQuery:
    """A source/target pair plus the map kind the cover parts must admit."""

    source: Complex
    target: Complex
    kind: str = "facet"
    injective: bool = False
    limits: SearchLimits = field(default_factory=SearchLimits)

    def __post_init__(self):
        if self.kind not in ("facet", "strict"):
            raise ValueError(f"kind must be 'facet' or 'strict', not {self.kind!r}")


@dataclass(frozen=True)
class CoverGroup:
    """One cover part: the source facets it keeps and a witness map."""

    facets: tuple[frozenset[str], ...]
    map: VertexMap


@dataclass(frozen=True)
class Cover:
    groups: tuple[CoverGroup, ...]

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class ComplexityResult:
    value: float
    cover: Cover | None
    nodes: int = 0

    @property
    def finite(self) -> bool:
        return self.value != INFINITY


def required_facet_indices(q: ComplexityQuery) -> tuple[int, ...]:
    """Facets that genuinely constrain the cover.

    Without injectivity a singleton facet (isolated vertex) can join
    any part: extending a witness map by one vertex with any image
    stays simplicial, and both facet-ontoness and per-facet dimension
    preservation are vacuous on singletons.  Injectivity breaks that —
    the extension needs an unused target vertex — so every facet
    counts.
    """
    if q.injective:
        return tuple(range(len(q.source.facets)))
    return tuple(
        i for i, f in enumerate(q.source.facets) if f.bit_count() >= 2
    )


def _group_labels(source: Complex, masks: tuple[int, ...]) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(source.members(m)) for m in masks)


def compute(
    q: ComplexityQuery,
    facet_cap: int = 20,
    cache: FeasibilityCache | None = None,
) -> ComplexityResult:
    """Exact minimum cover size with a canonical optimal cover.

    The reported cover is canonical: groups are listed in the order
    found by repeatedly covering the least-indexed uncovered facet, and
    each group is the lexicographically least (as a sorted tuple of
    facet indices) among the optimal choices at its step.  Passing a
    ``cache`` shares feasibility results across related queries; it
    must have been built for the same source, target, kind, injective
    flag, and the facets picked by :func:`required_facet_indices`;
    any other cache is rejected with ``ValueError``.
    """
    if facet_cap < 1:
        raise ValueError("facet_cap must be at least 1")
    source, target = q.source, q.target
    if source.n == 0:
        empty_map = VertexMap(source, target, ())
        return ComplexityResult(1, Cover((CoverGroup((), empty_map),)))
    if target.n == 0:
        return ComplexityResult(INFINITY, None)

    required = required_facet_indices(q)
    if len(required) > facet_cap:
        raise FacetCapError(
            f"{len(required)} constrained facets exceed the cap of {facet_cap}"
        )
    req_masks = tuple(source.facets[i] for i in required)
    if cache is None:
        cache = FeasibilityCache(source, target, q.kind, q.injective, req_masks, q.limits)
    cache._check(source, target, q.kind, q.injective, req_masks)

    n_req = len(required)
    full = (1 << n_req) - 1
    for bit in range(n_req):
        if not cache.feasible(1 << bit):
            return ComplexityResult(INFINITY, None, _cache_nodes(cache))

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        if cache.feasible(mask):
            return 1
        pivot = mask & -mask
        rest = mask ^ pivot
        out = n_req  # singletons are feasible, so this many always works
        sub = rest
        while True:
            group = sub | pivot
            if cache.feasible(group):
                out = min(out, 1 + best(mask & ~group))
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return out

    # Reconstruct the canonical optimal cover.
    chosen: list[int] = []
    uncovered = full
    while uncovered:
        pivot = uncovered & -uncovered
        rest = uncovered ^ pivot
        target_cost = best(uncovered)
        options: list[int] = []
        sub = rest
        while True:
            group = sub | pivot
            if cache.feasible(group) and 1 + best(uncovered & ~group) == target_cost:
                options.append(group)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        pick = min(options, key=lambda g: tuple(_bits(g)))
        chosen.append(pick)
        uncovered &= ~pick

    # Without injectivity the isolated vertices join the first group (an
    # empty one when no facet is required) and go to target vertex 0; a
    # lone vertex constrains no map kind.
    extra = () if q.injective else tuple(
        f for i, f in enumerate(source.facets) if i not in required
    )
    groups = []
    for pos, mask in enumerate(chosen or [0]):
        masks = tuple(req_masks[i] for i in _bits(mask))
        witness = cache.certificate(mask)
        if pos == 0 and extra:
            masks = tuple(sorted(masks + extra, key=_key))
            sub = closure(source, [source.members(m) for m in masks])
            image = dict(zip(witness.source.labels, witness.assignment))
            witness = VertexMap(sub, target, tuple(image.get(lab, 0) for lab in sub.labels))
        groups.append(CoverGroup(_group_labels(source, masks), witness))

    result = ComplexityResult(len(groups), Cover(tuple(groups)), _cache_nodes(cache))
    check_cover(q, result.cover)
    return result


def _cache_nodes(cache: FeasibilityCache) -> int:
    return sum(r.nodes for r in cache._results.values())


def check_cover(q: ComplexityQuery, cover: Cover) -> None:
    """Raise if ``cover`` is not a valid certificate for the query."""
    if not cover.groups:
        raise ValueError("a cover needs at least one group")
    seen: set[frozenset[str]] = set()
    facet_sets = {frozenset(f) for f in q.source.facet_sets()}
    for g in cover.groups:
        for f in g.facets:
            if f not in facet_sets:
                raise ValueError(f"group member {sorted(f)} is not a source facet")
        seen.update(g.facets)
        expected = (
            closure(q.source, [sorted(f) for f in g.facets])
            if g.facets
            else Complex()
        )
        if g.map.source != expected:
            raise ValueError("witness map is not defined on the group's closure")
        if g.map.target != q.target:
            raise ValueError("witness map has the wrong target")
        cls = classify(g.map)
        ok = cls.facet if q.kind == "facet" else cls.strict
        if not ok or (q.injective and not cls.injective):
            raise ValueError("witness map does not have the required kind")
    if q.source.n > 0 and seen != facet_sets:
        missing = sorted(sorted(f) for f in facet_sets - seen)
        raise ValueError(f"cover misses source facets: {missing}")


@dataclass(frozen=True)
class BoundReport:
    """Provable bracket around a query's value, cheaper than solving it.

    ``chromatic_lower`` and ``graph_lower`` apply to the facet kind
    only (parts of a dimension-preserving cover need not be few-
    colorable, so those bounds are unsound there and reported as
    ``None``).  ``eta_upper`` is the constrained-facet count when a
    finite cover exists.  ``complete_target_ic`` is a lower bound
    available when the target is complete and the query is injective;
    ``exact`` carries the value when a theorem pins it down.
    ``graph_lower`` is also ``None`` when its derived cover problem has
    more constrained facets than the cap or runs out of search budget.
    """

    finite: bool
    eta_upper: float
    chromatic_lower: float | None = None
    graph_lower: float | None = None
    complete_target_ic: int | None = None
    exact: int | None = None

    @property
    def lower(self) -> float:
        candidates = [1.0]
        for b in (self.chromatic_lower, self.graph_lower, self.complete_target_ic):
            if b is not None:
                candidates.append(b)
        if not self.finite:
            candidates.append(INFINITY)
        if self.exact is not None:
            candidates.append(self.exact)
        return max(candidates)

    @property
    def upper(self) -> float:
        if self.exact is not None:
            return self.exact
        return self.eta_upper


def _is_finite_query(q: ComplexityQuery) -> bool:
    source, target = q.source, q.target
    if source.n == 0:
        return True
    if target.n == 0:
        return False
    if q.kind == "strict":
        return source.dim <= target.dim
    s_sizes = {f.bit_count() for f in source.facets if f.bit_count() >= 2}
    t_sizes = {f.bit_count() for f in target.facets if f.bit_count() >= 2}
    if q.injective:
        return s_sizes <= t_sizes
    return not s_sizes or bool(t_sizes) and min(t_sizes) <= min(s_sizes)


def _chromatic_floor(chi_source: int, chi_target: int) -> float:
    """Least m with chi_target ** m >= chi_source."""
    if chi_source <= 1:
        return 1
    if chi_target <= 1:
        return INFINITY
    m, power = 1, chi_target
    while power < chi_source:
        m += 1
        power *= chi_target
    return m


def bounds(
    q: ComplexityQuery, facet_cap: int = 20, solved: ComplexityResult | None = None
) -> BoundReport:
    """Theorem-backed bounds without running the exact cover search.

    The one exception is ``graph_lower``, which solves the smaller
    derived cover problem between the two edge-facet graphs; it is
    reported only when the target has no isolated vertices, where a
    part's witness map restricts to a graph homomorphism between them,
    and only when that problem stays within ``facet_cap`` and the
    query's search limits; otherwise it is skipped, never raised.
    ``solved``, a result of ``compute(q)``, answers that problem
    without a second solve when it is the query itself.
    """
    finite = _is_finite_query(q)
    required = required_facet_indices(q)
    eta_upper = max(1, len(required)) if finite else INFINITY

    chromatic_lower = None
    graph_lower = None
    if q.kind == "facet":
        chromatic_lower = _chromatic_floor(
            chromatic_number(q.source).value, chromatic_number(q.target).value
        )
        no_isolated = all(f.bit_count() >= 2 for f in q.target.facets)
        if q.source.n > 0 and no_isolated:
            gq = ComplexityQuery(
                graph_as_complex(facet_graph(q.source)),
                graph_as_complex(facet_graph(q.target)),
                "facet",
                False,
                q.limits,
            )
            try:
                res = solved if solved is not None and gq == q else compute(gq, facet_cap)
                graph_lower = res.value
            except (FacetCapError, UndecidedError):
                pass  # a bound, not an answer: skip it rather than fail

    complete_target_ic = None
    exact = None
    n = q.target.n
    if q.kind == "facet" and q.injective and n >= 2 and q.target.facets == ((1 << n) - 1,):
        sizes = [f.bit_count() for f in q.source.facets]
        complete_target_ic = max(1, sum(1 for s in sizes if s >= 2))
        if sizes and all(s == n for s in sizes):  # pure, full dimension
            exact = complete_target_ic

    return BoundReport(
        finite=finite,
        eta_upper=eta_upper,
        chromatic_lower=chromatic_lower,
        graph_lower=graph_lower,
        complete_target_ic=complete_target_ic,
        exact=exact,
    )


@dataclass(frozen=True)
class DisjointDecomposition:
    """Per-component results whose maximum is the whole query's value."""

    value: float
    components: tuple[tuple[Complex, ComplexityResult], ...]


def disjoint_decompose(
    q: ComplexityQuery, facet_cap: int = 20
) -> DisjointDecomposition:
    """Solve a query componentwise.

    Valid for the plain facet kind only: parts for components sharing
    no vertices combine into parts for the union, so the union's value
    is the maximum of the components'.  Injectivity breaks the
    combination step (a merged part may need more target vertices than
    either piece), so injective queries are rejected.
    """
    if q.kind != "facet" or q.injective:
        raise ValueError("componentwise solving applies to plain facet queries only")
    source = q.source
    if source.n == 0:
        raise ValueError("componentwise solving needs a nonempty source")

    parent = list(range(len(source.facets)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(source.facets)):
        for j in range(i + 1, len(source.facets)):
            if source.facets[i] & source.facets[j]:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(len(source.facets)):
        groups.setdefault(find(i), []).append(i)

    components = []
    value = 1.0
    for root in sorted(groups, key=lambda r: min(groups[r])):
        sub = closure(source, [source.members(source.facets[i]) for i in groups[root]])
        res = compute(
            ComplexityQuery(sub, q.target, q.kind, q.injective, q.limits), facet_cap
        )
        components.append((sub, res))
        value = max(value, res.value)
    return DisjointDecomposition(value, tuple(components))
