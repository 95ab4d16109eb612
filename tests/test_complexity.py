import math

import pytest

from facetcx import (
    INFINITY,
    ComplexityQuery,
    FacetCapError,
    FeasibilityCache,
    bounds,
    boundary_complex,
    build_complex,
    check_cover,
    complete_complex,
    compute,
    disjoint_decompose,
    relabel,
    required_facet_indices,
    samples,
    union,
)
from facetcx.verify import KINDS, VerifyConfig, _instances


def q(source, target, kind="facet", injective=False):
    return ComplexityQuery(source, target, kind, injective)


def test_fixture_values(bowtie, tailed):
    assert compute(q(bowtie, tailed)).value == 2
    assert compute(q(bowtie, tailed, injective=True)).value == 3
    assert compute(q(bowtie, tailed, "strict")).value == 1
    assert compute(q(bowtie, tailed, "strict", True)).value == 2


def test_fixture_covers_verify(bowtie, tailed):
    for kind in ("facet", "strict"):
        for inj in (False, True):
            query = q(bowtie, tailed, kind, inj)
            res = compute(query)
            assert res.finite
            assert len(res.cover) == res.value
            check_cover(query, res.cover)  # raises on any defect


def test_cover_groups_partition_facets(bowtie, tailed):
    res = compute(q(bowtie, tailed))
    seen = [f for g in res.cover.groups for f in g.facets]
    assert sorted(map(sorted, seen)) == sorted(map(sorted, bowtie.facet_sets()))


def test_check_cover_rejects_bad_cover(bowtie, tailed):
    query = q(bowtie, tailed)
    res = compute(q(bowtie, tailed, "strict"))  # strict cover: one group
    with pytest.raises(ValueError):
        check_cover(query, res.cover)  # its map is not a facet map


def test_hollow_triangle_values():
    k3 = boundary_complex(3)
    assert compute(q(k3, complete_complex(2))).value == 2
    assert compute(q(k3, complete_complex(2), injective=True)).value == 3
    assert compute(q(k3, complete_complex(3))).value == INFINITY
    assert compute(q(k3, complete_complex(3), "strict")).value == 1
    assert compute(q(k3, k3)).value == 1
    assert compute(q(k3, k3, injective=True)).value == 1


def test_isolated_vertex_sensitivity():
    k3 = boundary_complex(3)
    plus = build_complex(k3.facet_lists(), explicit_vertices=("*",))
    assert compute(q(plus, k3, injective=True)).value == 2
    assert compute(q(k3, k3, injective=True)).value == 1
    assert compute(q(plus, k3)).value == compute(q(k3, k3)).value == 1


HOLLOW_PLUS_POINT = samples.load("hollow_triangle_plus_point")
LONE_VERTICES = build_complex([("a",), ("b",), ("c",)])


def _cover(res):
    return [
        (["".join(sorted(f)) for f in g.facets], g.map.as_dict())
        for g in res.cover.groups
    ]


@pytest.mark.parametrize("kind", ["facet", "strict"])
@pytest.mark.parametrize(
    "source, target, expected",
    [
        (HOLLOW_PLUS_POINT, complete_complex(2), [
            (["*", "12"], {"*": "1", "1": "1", "2": "2"}),
            (["13", "23"], {"1": "2", "2": "2", "3": "1"}),
        ]),
        (HOLLOW_PLUS_POINT, boundary_complex(3), [
            (["*", "12", "13", "23"], {"*": "1", "1": "1", "2": "2", "3": "3"}),
        ]),
        (LONE_VERTICES, complete_complex(2), [
            (["a", "b", "c"], {"a": "1", "b": "1", "c": "1"}),
        ]),
    ],
    ids=["plus-point-to-edge", "plus-point-to-hollow", "lone-vertices"],
)
def test_isolated_vertices_canonical_cover(source, target, expected, kind):
    """Isolated vertices join the first group and go to target vertex 0."""
    query = q(source, target, kind)
    res = compute(query)
    assert res.value == len(expected)
    assert _cover(res) == expected
    check_cover(query, res.cover)


@pytest.mark.parametrize("kind", ["facet", "strict"])
def test_lone_vertices_need_no_search(kind):
    assert compute(q(LONE_VERTICES, complete_complex(2), kind)).nodes == 0


def test_two_isolated_points_into_one_vertex():
    two = build_complex([("a",), ("b",)])
    point = complete_complex(1)
    assert compute(q(two, point)).value == 1
    # injectivity forces the points into separate parts, not infinity
    assert compute(q(two, point, injective=True)).value == 2


def test_empty_source_is_one(tailed):
    res = compute(q(build_complex([]), tailed))
    assert res.value == 1
    res2 = compute(q(build_complex([]), build_complex([])))
    assert res2.value == 1


def test_empty_target_is_infinite(bowtie):
    res = compute(q(bowtie, build_complex([])))
    assert res.value == INFINITY
    assert res.cover is None
    assert not res.finite


def test_infinite_dichotomies(bowtie):
    edge = complete_complex(2)
    tri = complete_complex(3)
    # facet kind: smallest non-unitary target facet too large
    assert compute(q(edge, tri)).value == INFINITY
    # strict kind: source dimension exceeds target dimension
    assert compute(q(tri, edge, "strict")).value == INFINITY
    assert compute(q(tri, edge, "strict", True)).value == INFINITY
    assert math.isinf(compute(q(bowtie, edge, "strict")).value)


def test_required_facets_rule(bowtie):
    plus = build_complex([("a", "b")], explicit_vertices=("z",))
    noninj = required_facet_indices(q(plus, complete_complex(2)))
    inj = required_facet_indices(q(plus, complete_complex(2), injective=True))
    assert len(noninj) == 1  # only the edge constrains plain covers
    assert len(inj) == 2  # injectivity makes the isolated vertex count


def test_facet_cap(tailed):
    big = build_complex(
        [(f"u{i}", f"v{i}") for i in range(21)]
    )
    with pytest.raises(FacetCapError):
        compute(q(big, tailed))
    # bounds still work above the cap
    b = bounds(q(big, tailed), facet_cap=25)
    assert b.finite
    # at the default cap the graph_lower sub-solve is skipped, not fatal
    b = bounds(q(big, tailed))
    assert b.finite and b.graph_lower is None and b.upper == 21


def test_explicit_cache_is_honored(bowtie, tailed):
    query = q(bowtie, tailed)
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    first = compute(query, cache=cache)
    warm = len(cache._results)
    second = compute(query, cache=cache)
    assert first.value == second.value == 2
    assert len(cache._results) == warm  # nothing new searched on reuse


def test_cache_for_another_target_is_rejected():
    query = q(HOLLOW_PLUS_POINT, complete_complex(2))
    masks = tuple(HOLLOW_PLUS_POINT.facets[i] for i in required_facet_indices(query))
    wrong = FeasibilityCache(HOLLOW_PLUS_POINT, complete_complex(3), "facet", False, masks)
    with pytest.raises(ValueError, match="cache"):
        compute(query, cache=wrong)
    right = FeasibilityCache(HOLLOW_PLUS_POINT, complete_complex(2), "facet", False, masks)
    assert compute(query, cache=right).value == 2


@pytest.mark.parametrize(
    "kind, injective, drop_first",
    [("strict", False, False), ("facet", True, False), ("facet", False, True)],
    ids=["kind", "injective", "facet-list"],
)
def test_cache_for_another_query_is_rejected(bowtie, tailed, kind, injective, drop_first):
    masks = bowtie.facets[1:] if drop_first else None
    with pytest.raises(ValueError, match="cache"):
        compute(q(bowtie, tailed), cache=FeasibilityCache(bowtie, tailed, kind, injective, masks))


def test_results_independent_across_calls(bowtie, tailed):
    # no hidden cross-call state: same value from fresh computations
    a = compute(q(bowtie, tailed)).value
    b = compute(q(bowtie, tailed)).value
    assert a == b == 2


def test_bounds_fixture(bowtie, tailed):
    b = bounds(q(bowtie, tailed))
    assert b.finite
    assert b.chromatic_lower == 2
    assert b.graph_lower == 2
    assert b.eta_upper == 4
    assert b.lower == 2 and b.upper == 4


@pytest.mark.parametrize("kind, injective", KINDS)
def test_bounds_reuse_solved_result(kind, injective):
    """Passing the query's own result never changes the bound report."""
    cfg = VerifyConfig()
    for trial in range(cfg.trials):
        inst = _instances(cfg, trial)
        for a, b in (("L", "H"), ("L", "K"), ("H", "K")):
            query = q(inst[a], inst[b], kind, injective)
            assert bounds(query, solved=compute(query)) == bounds(query)


def test_bounds_strict_suppresses_chromatic():
    k3 = boundary_complex(3)
    g3 = complete_complex(3)
    b = bounds(q(k3, g3, "strict"))
    assert b.chromatic_lower is None
    assert b.graph_lower is None
    assert b.finite


def test_bounds_infinite(bowtie):
    b = bounds(q(bowtie, complete_complex(2), "strict"))
    assert not b.finite
    assert b.upper == INFINITY


def test_complete_target_ic_exact():
    k4 = boundary_complex(4)  # pure, 2-dimensional, no isolated vertices
    b = bounds(q(k4, complete_complex(3), injective=True))
    assert b.complete_target_ic == 4
    assert b.exact == 4
    assert compute(q(k4, complete_complex(3), injective=True)).value == 4


def test_complete_target_ic_with_isolated_vertex():
    c = build_complex([("a", "b", "c")], explicit_vertices=("z",))
    bq = q(c, complete_complex(3), injective=True)
    b = bounds(bq)
    assert b.complete_target_ic == 1  # lower bound only counts non-unitary
    assert b.exact is None  # equality claim withdrawn once isolated appear
    assert compute(bq).value == 2  # z needs a part of its own


def test_disjoint_union_equality():
    a = boundary_complex(3)
    b = relabel(boundary_complex(3), {"1": "x", "2": "y", "3": "z"})
    both = union([a, b], disjoint=True)
    target = complete_complex(2)
    dd = disjoint_decompose(q(both, target))
    expected = max(
        compute(q(a, target)).value, compute(q(b, target)).value
    )
    assert dd.value == expected == compute(q(both, target)).value
    assert len(dd.components) == 2


def test_disjoint_decompose_rejects_injective(bowtie, tailed):
    with pytest.raises(ValueError):
        disjoint_decompose(q(bowtie, tailed, injective=True))


def test_jump_under_union():
    vee = build_complex([("1", "2"), ("1", "3")])
    base = build_complex([("2", "3")])
    target = complete_complex(2)
    assert compute(q(vee, target)).value == 1
    assert compute(q(base, target)).value == 1
    assert compute(q(union([vee, base]), target)).value == 2
