"""A map-enumeration referee for non-injective queries.

Without injectivity a group of constrained facets maps exactly when one
vertex map makes every facet of the group good: for kind ``facet`` its
image is a target facet of at least two vertices, for ``strict`` the map
is injective on it and its image is a simplex of the target (the
definitions of ``maps``).  So the referee enumerates every map of the
constrained facets' vertices into the target, records the set of facets
each one makes good, and keeps the maximal sets.  A group is feasible
exactly when it lies inside one of them, and an uncovered set needs as
many groups as the fewest maximal sets that cover it, so ``k`` groups
cover it exactly when that count is at most ``k``.  Those answers
drive the solver's own canonical pick, ``_canonical_cover``, so the
referee checks the cover DP's value and cover while it calls no search
code: no ``find_map``, ``FeasibilityCache`` or ``_CoverDP``.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from facetcx import (
    INFINITY, ComplexityQuery, compute, complete_complex, required_facet_indices, skeleton,
)
from facetcx.complexes import _bits
from facetcx.complexity import _canonical_cover, _Run
from facetcx.homsearch import SearchLimits, _Budget
from facetcx.scx import parse_scx

MAX_MAPS = 65_536
FAMILY_PAIRS = (2, 3, 5, 6, 9, 10)


def maximal_good_sets(q: ComplexityQuery) -> list[int]:
    """The maximal sets of constrained facets (bit ``j`` for the ``j``-th
    of ``required_facet_indices(q)``) that one vertex map makes good.

    Maps are enumerated vertex by vertex, and each facet is checked once
    its last vertex has an image."""
    source, target = q.source, q.target
    facets = [source.facets[i] for i in required_facet_indices(q)]
    vertices = sorted({v for f in facets for v in _bits(f)})
    assert target.n ** len(vertices) <= MAX_MAPS
    ending = {v: [] for v in vertices}  # the facets each vertex completes
    for j, f in enumerate(facets):
        ending[f.bit_length() - 1].append((j, f))
    target_facets = frozenset(target.facets)
    place = {v: i for i, v in enumerate(vertices)}

    def good(f, images):
        img = 0
        for v in _bits(f):
            img |= 1 << images[place[v]]
        if q.kind == "facet":
            return img.bit_count() >= 2 and img in target_facets
        return img.bit_count() == f.bit_count() and target.is_simplex_mask(img)

    made = set()
    stack = [((), 0)]  # (images of the first vertices, the facets they make good)
    while stack:
        images, sofar = stack.pop()
        if len(images) == len(vertices):
            made.add(sofar)
            continue
        v = vertices[len(images)]
        for t in range(target.n):
            grown = images + (t,)
            now = sofar
            for j, f in ending[v]:
                if good(f, grown):
                    now |= 1 << j
            stack.append((grown, now))
    tops = []
    for s in sorted(made, key=int.bit_count, reverse=True):
        if all(s & ~t for t in tops):
            tops.append(s)
    return tops


def referee(q: ComplexityQuery) -> tuple[float, list[int]]:
    """The query's value and canonical cover masks, from the maximal good
    sets alone."""
    tops = maximal_good_sets(q)
    full = (1 << len(required_facet_indices(q))) - 1

    def feasible(group):
        return any(not group & ~t for t in tops)

    @lru_cache(maxsize=None)
    def optimum(mask):
        if feasible(mask):
            return 0 if mask == 0 else 1
        pivot = mask & -mask
        return 1 + min(optimum(mask & ~t) for t in tops if t & pivot)

    if not all(feasible(1 << j) for j in range(full.bit_length())):
        return INFINITY, []
    value = optimum(full)
    cover = _canonical_cover(full, feasible, lambda mask, j: optimum(mask) <= j, value,
                             _Budget(SearchLimits()))
    return value, cover


def _instances():
    edge, triangle = complete_complex(2), complete_complex(3)
    for n in (4, 5, 6, 7):
        query = ComplexityQuery(skeleton(complete_complex(n), 1), edge, facet_cap=21)
        yield pytest.param(query, id=f"K{n}-edges")
    for n in (5, 6):
        for d in (1, 2):
            query = ComplexityQuery(skeleton(complete_complex(n), d), triangle, "strict")
            yield pytest.param(query, id=f"K{n}-{d}skel")
    pins = json.loads(Path(__file__).with_name("cover_pins.json").read_text())
    for pair in FAMILY_PAIRS:
        (row,) = (row for key, row in pins.items() if key.startswith(f"family2d/pair-{pair}/"))
        query = ComplexityQuery(parse_scx(row["source"]), parse_scx(row["target"]), row["kind"])
        yield pytest.param(query, id=f"family2d-pair-{pair}")


@pytest.mark.parametrize("query", _instances())
def test_referee_agrees_with_the_solver(query):
    value, masks = referee(query)
    assert value == compute(query).value
    assert masks == _Run(query).optimum(True)[2]


def test_referee_reads_kinds_as_maps_does():
    """The triangle's three edges into one edge, either kind: a map makes
    two edges good at most, as the triangle has no 2-colouring, so the
    pick takes the first edge alone and then the other two.  The filled
    triangle maps into an edge only by a map that is not injective on it,
    so strictly it has no cover."""
    edges, edge = skeleton(complete_complex(3), 1), complete_complex(2)
    for kind in ("facet", "strict"):
        assert sorted(maximal_good_sets(ComplexityQuery(edges, edge, kind))) == [3, 5, 6]
        assert referee(ComplexityQuery(edges, edge, kind)) == (2, [0b001, 0b110])
    assert referee(ComplexityQuery(complete_complex(3), edge, "strict")) == (INFINITY, [])
