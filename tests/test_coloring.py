import random
import time

import pytest

from facetcx import (
    Coloring,
    SearchLimits,
    UndecidedError,
    block_coloring,
    boundary_complex,
    brute_force_chromatic,
    build_complex,
    chromatic_number,
    closure,
    complete_complex,
    facet_graph,
    generate,
    metrics,
    product_coloring,
    pullback_coloring,
    samples,
    skeleton,
    strict_chromatic_number,
)


def test_fixture_chromatic_numbers(bowtie, tailed):
    assert chromatic_number(bowtie).value == 3
    assert chromatic_number(tailed).value == 2
    assert strict_chromatic_number(bowtie).value == 3
    assert chromatic_number(skeleton(bowtie, 1)).value == 3


def test_witness_is_valid(bowtie):
    res = chromatic_number(bowtie)
    w = res.witness
    assert w.k == res.value
    assert w.surjective
    for facet in bowtie.facet_sets():
        if len(facet) >= 2:
            assert len({w.color_of(v) for v in facet}) >= 2


def test_complete_complex_needs_two_colors():
    for n in range(2, 6):
        assert chromatic_number(complete_complex(n)).value == 2
    assert chromatic_number(complete_complex(1)).value == 1


def test_boundary_complex_values():
    # the hollow triangle's facets are its edges: proper graph coloring
    assert chromatic_number(boundary_complex(3)).value == 3
    # the hollow tetrahedron's facets are triangles: two colors suffice
    assert chromatic_number(boundary_complex(4)).value == 2


def test_empty_and_point():
    assert chromatic_number(build_complex([])).value == 0
    assert chromatic_number(build_complex([("a",)])).value == 1


def test_strict_equals_underlying_graph(bowtie, tailed):
    for c in (bowtie, tailed, boundary_complex(4)):
        assert (
            strict_chromatic_number(c).value
            == chromatic_number(skeleton(c, 1)).value
        )


def test_sample_colorings_are_valid():
    w = samples.bowtie_coloring()
    assert w.k == 3
    w2 = samples.tailed_triangle_coloring()
    assert w2.k == 2


def test_from_dict_validation(bowtie):
    with pytest.raises(ValueError):
        Coloring.from_dict(bowtie, {"a": 1})  # missing labels
    with pytest.raises(ValueError):
        Coloring.from_dict(
            bowtie, {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "zz": 2}
        )
    with pytest.raises(ValueError):
        Coloring.from_dict(
            bowtie, {"a": 0, "b": 1, "c": 1, "d": 1, "e": 1}
        )  # colors are 1-based


def test_graph_colorings_match_exhaustive_search():
    """Graphs are complexes of dimension <= 1; their colorings agree with the
    exhaustive oracle.  At most 8 vertices and 7 small faces keep it quick."""
    for seed in range(100):
        rng = random.Random(seed)
        labels = "abcdefgh"[: rng.randint(0, 8)]
        faces = [
            rng.sample(labels, min(len(labels), rng.choice([1, 2, 2, 2, 3, 3, 4])))
            for _ in range(rng.randint(0, 7) if labels else 0)
        ]
        c = build_complex(faces, explicit_vertices=[v for v in labels if rng.random() < 0.2])
        one_skeleton, edges = skeleton(c, 1), facet_graph(c)
        assert edges == closure(c, [f for f in c.facet_lists() if len(f) == 2])
        chi = chromatic_number(one_skeleton).value
        assert chi == brute_force_chromatic(one_skeleton)
        assert chromatic_number(edges).value == brute_force_chromatic(edges)
        assert strict_chromatic_number(c).value == chi


def test_block_coloring(bowtie):
    graph_w = chromatic_number(skeleton(bowtie, 1)).witness
    blocked = block_coloring(bowtie, graph_w)
    # d = min facet size - 1 = 1, so blocks cannot merge colors here
    assert blocked.k == 3
    for facet in bowtie.facet_sets():
        if len(facet) >= 2:
            assert len({blocked.color_of(v) for v in facet}) >= 2


def test_block_coloring_merges_with_large_facets():
    c = boundary_complex(4)  # min facet size 3, d = 2
    graph_w = chromatic_number(skeleton(c, 1)).witness
    assert graph_w.k == 4
    blocked = block_coloring(c, graph_w)
    assert blocked.k == 2  # ceil(4 / 2)
    for facet in c.facet_sets():
        assert len({blocked.color_of(v) for v in facet}) >= 2


def test_product_coloring(bowtie):
    a = build_complex([("a", "b", "c"), ("c", "d"), ("d", "e")])
    b = build_complex([("c", "e")])
    wa = chromatic_number(a).witness
    wb = chromatic_number(b).witness
    combined = product_coloring(bowtie, [(a, wa), (b, wb)])
    assert combined.k <= wa.k * wb.k
    for facet in bowtie.facet_sets():
        if len(facet) >= 2:
            assert len({combined.color_of(v) for v in facet}) >= 2


def test_product_coloring_requires_cover(bowtie):
    a = build_complex([("a", "b", "c")])
    wa = chromatic_number(a).witness
    with pytest.raises(ValueError):
        product_coloring(bowtie, [(a, wa)])


def test_pullback_coloring():
    m = samples.main_part_map()
    target_w = samples.tailed_triangle_coloring()
    pulled = pullback_coloring(m, target_w)
    assert pulled.k == target_w.k
    for facet in m.source.facet_sets():
        if len(facet) >= 2:
            assert len({pulled.color_of(v) for v in facet}) >= 2


def test_pullback_requires_facet_map():
    m = samples.fold_map()  # strict but not facet
    with pytest.raises(ValueError):
        pullback_coloring(m, samples.tailed_triangle_coloring())


def test_isolated_vertices_color_freely():
    c = build_complex([("a", "b")], explicit_vertices=("z",))
    res = chromatic_number(c)
    assert res.value == 2
    m = metrics(c)
    assert m.isolated == ("z",)


def test_chromatic_search_works_at_any_depth(deep_path):
    """The colouring search is a loop, so a path past the recursion limit
    takes its two colours in turn."""
    res = chromatic_number(deep_path)
    assert res.value == 2
    assert res.witness.assignment == (1, 2) * 750


def test_chromatic_search_keeps_to_its_limits():
    """K6 needs a colour per vertex; its search places 2 + 3 + ... + 6
    colours, k from 2 to 6, so 19 nodes run out and 20 do not."""
    k6 = skeleton(complete_complex(6), 1)
    with pytest.raises(UndecidedError):
        chromatic_number(k6, SearchLimits(max_nodes=19))
    assert chromatic_number(k6, SearchLimits(max_nodes=20)) == chromatic_number(k6)
    dense = generate("random", 40, {"seed": 5, "density": 0.5, "max_facet_size": 2})
    start = time.monotonic()
    with pytest.raises(UndecidedError, match="time budget"):
        chromatic_number(dense, SearchLimits(max_seconds=0.1))
    assert time.monotonic() - start < 5
