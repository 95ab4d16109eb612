import pytest

from facetcx import (
    FeasibilityCache,
    SearchLimits,
    SearchProblem,
    UndecidedError,
    boundary_complex,
    build_complex,
    classify,
    complete_complex,
    find_map,
    group_feasible,
)


def test_whole_bowtie_has_no_facet_map(bowtie, tailed):
    res = find_map(SearchProblem(bowtie, tailed, "facet"))
    assert not res.found
    assert res.map is None


def test_whole_bowtie_has_strict_map(bowtie, tailed):
    res = find_map(SearchProblem(bowtie, tailed, "strict"))
    assert res.found
    cls = classify(res.map)
    assert cls.strict and cls.simplicial


def test_found_map_matches_requested_kind(bowtie, tailed):
    for kind in ("facet", "strict"):
        for inj in (False, True):
            res = find_map(SearchProblem(bowtie, tailed, kind, inj))
            if not res.found:
                continue
            cls = classify(res.map)
            assert cls.facet if kind == "facet" else cls.strict
            assert cls.injective or not inj


def test_injective_needs_room(bowtie, tailed):
    # 5 source vertices cannot inject into 4 target vertices
    res = find_map(SearchProblem(bowtie, tailed, "strict", injective=True))
    assert not res.found


def test_budget_exhaustion_raises():
    big = complete_complex(7)
    hollow = boundary_complex(6)
    with pytest.raises(UndecidedError) as exc:
        find_map(SearchProblem(big, hollow, "facet", False, SearchLimits(max_nodes=2)))
    assert exc.value.nodes <= 3


def test_empty_source_maps_anywhere(tailed):
    res = find_map(SearchProblem(build_complex([]), tailed, "facet"))
    assert res.found
    assert res.map.as_dict() == {}


def test_nonempty_source_empty_target():
    res = find_map(SearchProblem(complete_complex(2), build_complex([]), "facet"))
    assert not res.found


def test_edge_to_triangle_strict_but_not_facet():
    edge = complete_complex(2)
    tri = complete_complex(3)
    assert find_map(SearchProblem(edge, tri, "strict")).found
    assert not find_map(SearchProblem(edge, tri, "facet")).found


def test_group_feasibility(bowtie, tailed):
    # {abc, cd} admits a facet map; all four facets together do not
    assert group_feasible(bowtie, [("a", "b", "c"), ("c", "d")], tailed)
    assert not group_feasible(bowtie, bowtie.facet_lists(), tailed)


def test_group_feasible_rejects_cache_of_another_kind(bowtie, tailed):
    wheel = [("c", "d"), ("c", "e"), ("d", "e")]
    strict = FeasibilityCache(bowtie, tailed, "strict", False)
    assert not group_feasible(bowtie, wheel, tailed)
    with pytest.raises(ValueError, match="cache"):
        group_feasible(bowtie, wheel, tailed, cache=strict)
    assert group_feasible(bowtie, wheel, tailed, "strict", cache=strict)


def test_feasibility_cache_hereditary(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    sub = 1 | (1 << 1)  # facets abc and cd in canonical order
    assert cache.feasible(sub)
    searched = len(cache._results)
    # any subset of a feasible group is answered without a new search
    assert cache.feasible(1)
    assert len(cache._results) == searched
    assert cache.certificate(sub) is not None


def test_cache_infeasible_superset_shortcut(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    # facets cd, ce, de: the triangle-free wheel around c and the edge de
    bad = (1 << 1) | (1 << 2) | (1 << 3)
    if cache.feasible(bad):
        pytest.skip("expected infeasible group")
    searched = len(cache._results)
    assert not cache.feasible(bad | 1)  # superset decided by shortcut
    assert len(cache._results) == searched
