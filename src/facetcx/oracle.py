"""Exhaustive reference implementations for desk-scale cross-checking.

Everything here enumerates the full space instead of searching it, and
deliberately shares no search code with the solvers (only the map
classifier).  ``brute_force_cover_complexity`` evaluates the covering
definition directly: when the source has at most ``MAX_SIMPLICES``
simplices it enumerates arbitrary downward-closed subcomplex covers,
not just covers by facet groups, which independently validates the
solvers' canonical-cover reduction.

The enumerations are exponential, so each function refuses an input
past the vertex and facet limits below with a ``ValueError`` naming
the limit.
"""

from __future__ import annotations

from itertools import product

from .complexes import Complex, _bits, _subcomplex, build_complex
from .maps import VertexMap, check_kind, classify

INFINITY = float("inf")

MAX_SOURCE_VERTICES = 5
MAX_TARGET_VERTICES = 4
MAX_FACETS = 5  # source facets of a cover problem
MAX_SIMPLICES = 12
MAX_CHROMATIC_VERTICES = 8


def _check_sizes(source: Complex, target: Complex) -> None:
    if source.n > MAX_SOURCE_VERTICES:
        raise ValueError(
            f"oracle limit: source has {source.n} vertices (max {MAX_SOURCE_VERTICES})"
        )
    if target.n > MAX_TARGET_VERTICES:
        raise ValueError(
            f"oracle limit: target has {target.n} vertices (max {MAX_TARGET_VERTICES})"
        )


def brute_force_map_search(
    source: Complex, target: Complex, kind: str = "facet", injective: bool = False
):
    """First matching assignment in lexicographic order, or None.

    Enumerates all |V(target)|^|V(source)| total maps, within the
    source and target vertex limits.
    """
    check_kind(kind)
    _check_sizes(source, target)
    for assignment in product(range(target.n), repeat=source.n):
        m = VertexMap(source, target, assignment)
        if classify(m).meets(kind, injective):
            return m
    return None


def brute_force_chromatic(c: Complex) -> int:
    """Least k with an assignment leaving no facet of size >= 2
    monochromatic, for at most ``MAX_CHROMATIC_VERTICES`` vertices."""
    if c.n > MAX_CHROMATIC_VERTICES:
        raise ValueError(f"oracle limit: {c.n} vertices (max {MAX_CHROMATIC_VERTICES})")
    if c.n == 0:
        return 0
    big = [list(_bits(f)) for f in c.facets if f.bit_count() >= 2]
    for k in range(1, c.n + 1):
        for colors in product(range(k), repeat=c.n):
            if all(len({colors[i] for i in f}) >= 2 for f in big):
                return k
    raise AssertionError("n colors always suffice")  # pragma: no cover


def _required_facet_indices(source: Complex, kind: str, injective: bool) -> list[int]:
    if kind == "facet" and not injective:
        return [i for i, f in enumerate(source.facets) if f.bit_count() >= 2]
    return list(range(len(source.facets)))


def brute_force_cover_complexity(
    source: Complex, target: Complex, kind: str = "facet", injective: bool = False
):
    """Least cover size by mappable subcomplexes, or infinity.

    Sources of at most ``MAX_SIMPLICES`` simplices are solved over
    arbitrary downward-closed covers; all sources within the vertex and
    facet limits are also solved over facet-group covers.  When both run
    their answers are compared, so a discrepancy in the canonical-cover
    reduction would surface here.
    """
    _check_sizes(source, target)
    if len(source.facets) > MAX_FACETS:
        raise ValueError(
            f"oracle limit: source has {len(source.facets)} facets (max {MAX_FACETS})"
        )
    if source.n == 0:
        return 1
    if target.n == 0:
        return INFINITY

    canonical = _canonical_cover_min(source, target, kind, injective)
    simplices = source.simplex_masks()
    if len(simplices) <= MAX_SIMPLICES:
        arbitrary = _arbitrary_cover_min(
            source, target, kind, injective, sorted(simplices, key=lambda m: (m.bit_count(), m))
        )
        if arbitrary != canonical:  # pragma: no cover - reduction guard
            raise AssertionError(
                f"cover reduction mismatch: canonical {canonical}, "
                f"arbitrary {arbitrary}"
            )
    return canonical


def _canonical_cover_min(source, target, kind, injective):
    required = _required_facet_indices(source, kind, injective)
    if not required:
        return 1
    memo: dict[tuple[int, ...], bool] = {}

    def feasible(group: tuple[int, ...]) -> bool:
        if group not in memo:
            sub = _subcomplex(source, [source.facets[i] for i in group])
            memo[group] = brute_force_map_search(sub, target, kind, injective) is not None
        return memo[group]

    for k in range(1, len(required) + 1):
        for labels in product(range(k), repeat=len(required)):
            groups = [
                tuple(f for f, lab in zip(required, labels) if lab == g)
                for g in range(k)
            ]
            if all(feasible(g) for g in groups if g):
                return k
    return INFINITY


def _arbitrary_cover_min(source, target, kind, injective, simplices):
    """Minimum over covers by arbitrary subcomplexes.

    A subcomplex is a downward-closed subset of the simplex poset; its
    maximal members are its facets, which need not be facets of the
    source.  A family of subcomplexes covers the source exactly when
    every source facet belongs to some member, and each member must
    admit its own map, checked on the member complex itself.
    """
    n_s = len(simplices)
    index = {m: i for i, m in enumerate(simplices)}
    below = []
    for m in simplices:
        sub = 0
        for other in simplices:
            if other != m and other & ~m == 0:
                sub |= 1 << index[other]
        below.append(sub)

    closed_parts = []
    for part in range(1, 1 << n_s):
        ok = True
        for i in _bits(part):
            if below[i] & ~part:
                ok = False
                break
        if ok:
            closed_parts.append(part)

    facet_bit = {}
    for j, f in enumerate(source.facets):
        facet_bit[index[f]] = j
    full_cover = (1 << len(source.facets)) - 1

    coverage_options: set[int] = set()
    part_feasible: dict[frozenset[int], bool] = {}
    for part in closed_parts:
        members = [simplices[i] for i in _bits(part)]
        maximal = [
            m for m in members if not any(m != o and m & ~o == 0 for o in members)
        ]
        key = frozenset(maximal)
        if key not in part_feasible:
            sub = build_complex([source.members(m) for m in maximal])
            part_feasible[key] = brute_force_map_search(sub, target, kind, injective) is not None
        if not part_feasible[key]:
            continue
        cov = 0
        for i in _bits(part):
            if i in facet_bit:
                cov |= 1 << facet_bit[i]
        coverage_options.add(cov)

    # breadth-first minimum cover over coverage masks
    frontier = {0}
    seen = {0}
    steps = 0
    while frontier:
        steps += 1
        nxt = set()
        for have in frontier:
            for cov in coverage_options:
                merged = have | cov
                if merged == full_cover:
                    return steps
                if merged not in seen:
                    seen.add(merged)
                    nxt.add(merged)
        frontier = nxt
    return INFINITY
