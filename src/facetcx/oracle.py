"""Exhaustive reference implementations for desk-scale cross-checking.

Everything here enumerates the full space instead of searching it, and
deliberately shares no search code with the solvers (only the map
classifier).  ``brute_force_cover_complexity`` evaluates the covering
definition directly: when the source has at most ``max_simplices``
simplices it enumerates arbitrary downward-closed subcomplex covers,
not just covers by facet groups, which independently validates the
solvers' canonical-cover reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .complexes import Complex, _bits, _subcomplex
from .maps import VertexMap, check_kind, classify

INFINITY = float("inf")


@dataclass(frozen=True)
class OracleLimits:
    max_source_vertices: int = 5
    max_target_vertices: int = 4
    max_facets: int = 5
    max_simplices: int = 12
    max_chromatic_vertices: int = 8


def brute_force_map_search(
    source: Complex,
    target: Complex,
    kind: str = "facet",
    injective: bool = False,
    limits: OracleLimits = OracleLimits(),
):
    """First matching assignment in lexicographic order, or None.

    Enumerates all |V(target)|^|V(source)| total maps.
    """
    check_kind(kind)
    if source.n > limits.max_source_vertices:
        raise ValueError(
            f"oracle limit: source has {source.n} vertices "
            f"(max {limits.max_source_vertices})"
        )
    if target.n > limits.max_target_vertices:
        raise ValueError(
            f"oracle limit: target has {target.n} vertices "
            f"(max {limits.max_target_vertices})"
        )
    for assignment in product(range(target.n), repeat=source.n):
        m = VertexMap(source, target, assignment)
        if classify(m).meets(kind, injective):
            return m
    return None


def brute_force_chromatic(c: Complex, limits: OracleLimits = OracleLimits()) -> int:
    """Least k with an assignment leaving no facet of size >= 2 monochromatic."""
    if c.n > limits.max_chromatic_vertices:
        raise ValueError(
            f"oracle limit: {c.n} vertices (max {limits.max_chromatic_vertices})"
        )
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
    source: Complex,
    target: Complex,
    kind: str = "facet",
    injective: bool = False,
    limits: OracleLimits = OracleLimits(),
):
    """Least cover size by mappable subcomplexes, or infinity.

    Small sources (by simplex count) are solved over arbitrary
    downward-closed covers; all sources within the facet limit are also
    solved over facet-group covers.  When both run their answers are
    compared, so a discrepancy in the canonical-cover reduction would
    surface here.
    """
    if source.n > limits.max_source_vertices:
        raise ValueError(
            f"oracle limit: source has {source.n} vertices "
            f"(max {limits.max_source_vertices})"
        )
    if target.n > limits.max_target_vertices:
        raise ValueError(
            f"oracle limit: target has {target.n} vertices "
            f"(max {limits.max_target_vertices})"
        )
    if len(source.facets) > limits.max_facets:
        raise ValueError(
            f"oracle limit: source has {len(source.facets)} facets "
            f"(max {limits.max_facets})"
        )
    if source.n == 0:
        return 1
    if target.n == 0:
        return INFINITY

    canonical = _canonical_cover_min(source, target, kind, injective, limits)
    simplices = source.simplex_masks()
    if len(simplices) <= limits.max_simplices:
        arbitrary = _arbitrary_cover_min(
            source, target, kind, injective, sorted(simplices, key=lambda m: (m.bit_count(), m)), limits
        )
        if arbitrary != canonical:  # pragma: no cover - reduction guard
            raise AssertionError(
                f"cover reduction mismatch: canonical {canonical}, "
                f"arbitrary {arbitrary}"
            )
    return canonical


def _canonical_cover_min(source, target, kind, injective, limits):
    required = _required_facet_indices(source, kind, injective)
    if not required:
        return 1
    memo: dict[tuple[int, ...], bool] = {}

    def feasible(group: tuple[int, ...]) -> bool:
        if group not in memo:
            sub = _subcomplex(source, [source.facets[i] for i in group])
            memo[group] = (
                brute_force_map_search(sub, target, kind, injective, limits)
                is not None
            )
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


def _arbitrary_cover_min(source, target, kind, injective, simplices, limits):
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
            from .complexes import build_complex

            sub = build_complex([source.members(m) for m in maximal])
            part_feasible[key] = (
                brute_force_map_search(sub, target, kind, injective, limits)
                is not None
            )
        if not part_feasible[key]:
            continue
        cov = 0
        for i in _bits(part):
            if i in facet_bit:
                cov |= 1 << facet_bit[i]
        coverage_options.add(cov)

    # breadth-first minimum cover over coverage masks
    if full_cover == 0:
        return 1
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
