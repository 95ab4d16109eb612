import gc
import json
import math
import random
import time
from pathlib import Path

import pytest

from facetcx import (
    INFINITY,
    ComplexityQuery,
    Cover,
    CoverGroup,
    FacetCapError,
    FeasibilityCache,
    SearchLimits,
    UndecidedError,
    bounds,
    boundary_complex,
    brute_force_cover_complexity,
    build_complex,
    check_cover,
    complete_complex,
    chromatic_number,
    complexity,
    compute,
    facet_graph,
    relabel,
    required_facet_indices,
    samples,
    union,
    VertexMap,
)
from facetcx.complexes import _bits, _precedes, _subcomplex, facet_automorphisms, generate, skeleton
from facetcx.complexity import _CoverDP, _canonical_cover
from facetcx.homsearch import TIME_EXHAUSTED, _Budget
from facetcx.oracle import MAX_FACETS, MAX_SOURCE_VERTICES, MAX_TARGET_VERTICES
from facetcx.scx import parse_scx
from facetcx.verify import KINDS, VerifyConfig, _instances
from test_complexes import _brute_force_twin_swaps


def q(source, target, kind="facet", injective=False, **kw):
    return ComplexityQuery(source, target, kind, injective, **kw)


def _cycle(n):
    """The n-cycle as a graph on vertices c0 … c{n-1}."""
    return build_complex([(f"c{i}", f"c{(i + 1) % n}") for i in range(n)])


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
    """Every rejection of ``check_cover``: a valid two-group cover broken
    one way at a time, and the one-group strict cover, whose map is not a
    facet map."""
    query = q(bowtie, tailed)
    first, second = compute(query).cover.groups
    elsewhere = VertexMap(first.map.source, complete_complex(4), first.map.assignment)
    strict = compute(q(bowtie, tailed, "strict")).cover.groups  # one group, not a facet map
    for groups, reason in [
        ((), "at least one group"),
        ((CoverGroup((frozenset("ab"),), first.map), second), "not a source facet"),
        ((CoverGroup(first.facets, second.map), second), "group's closure"),
        ((CoverGroup(first.facets, elsewhere), second), "wrong target"),
        (strict, "required kind"),
        ((first,), "misses source facets"),
    ]:
        with pytest.raises(ValueError, match=reason):
            check_cover(query, Cover(groups))
    check_cover(query, Cover((first, second)))


def test_facet_cap_below_one_is_rejected(bowtie, tailed):
    for call in (compute, bounds):
        with pytest.raises(ValueError, match="facet_cap must be at least 1"):
            call(q(bowtie, tailed, facet_cap=0))


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
    b = bounds(q(big, tailed, facet_cap=25))
    assert b.finite
    # the target's edge graph is one edge (a clique as large as its
    # chromatic number), so graph_lower comes from two colourings, which
    # the cap does not bound
    b = bounds(q(big, tailed))
    assert b.finite and b.graph_lower == 1 and b.upper == 21
    # onto the 5-cycle it needs the cover search: skipped past the cap, not fatal
    b = bounds(q(big, _cycle(5)))
    assert b.finite and b.graph_lower is None and b.upper == 21


def test_feasible_full_group_skips_the_cover_search():
    """The cover DP's 2**40-byte verdict table is never allocated here."""
    edges = build_complex([(f"u{i}", f"v{i}") for i in range(40)])
    res = compute(q(edges, complete_complex(2), facet_cap=40))
    assert res.value == 1
    assert len(res.cover.groups[0].facets) == 40


def test_cover_tables_past_any_memory_raise_facet_cap_error():
    """K12's 66 edges onto an edge need a 2**66-byte verdict table;
    graph_lower reads ⌈log2 χ(K12)⌉ = 4 without it, but onto the 5-cycle
    it needs the table and is left out."""
    k12 = skeleton(complete_complex(12), 1)
    query = q(k12, complete_complex(2), facet_cap=100)
    with pytest.raises(FacetCapError, match="66 constrained facets"):
        compute(query)
    b = bounds(query)
    assert b.finite and b.graph_lower == 4 and b.chromatic_lower == 4
    b = bounds(q(k12, _cycle(5), facet_cap=100))
    assert b.finite and b.graph_lower is None


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
            run = complexity._Run(query)
            run.result()
            assert run.bounds() == bounds(query)


def _is_finite_query(q: ComplexityQuery) -> bool:
    """The size rule ``bounds`` used before it read the target's candidate rows."""
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


def test_finiteness_matches_the_size_rule_and_the_solver():
    """Differential over the verify stream: the candidate-row verdict of
    ``bounds`` against the size rule it replaced and against ``compute``."""
    for seed in (1, 2, 3):
        cfg = VerifyConfig(seed=seed)
        for trial in range(cfg.trials):
            inst = _instances(cfg, trial)
            for a, b in ("LH", "LK", "HK", "HL", "KL"):
                for kind, injective in KINDS:
                    query = q(inst[a], inst[b], kind, injective)
                    want = _is_finite_query(query)
                    assert bounds(query).finite == want, (seed, trial, a + b, kind, injective)
                    assert (compute(query).value != INFINITY) == want


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
    expected = max(
        compute(q(a, target)).value, compute(q(b, target)).value
    )
    assert expected == compute(q(both, target)).value


def test_jump_under_union():
    vee = build_complex([("1", "2"), ("1", "3")])
    base = build_complex([("2", "3")])
    target = complete_complex(2)
    assert compute(q(vee, target)).value == 1
    assert compute(q(base, target)).value == 1
    assert compute(q(union([vee, base]), target)).value == 2


# -- symmetry in the cover search -------------------------------------


def _core(query):
    """The constrained subcomplex, the one the cover search runs on."""
    masks = [query.source.facets[i] for i in required_facet_indices(query)]
    return _subcomplex(query.source, masks)


def _fresh_probe(query):
    """``feasible`` of a new cache on the query's constrained subcomplex."""
    return FeasibilityCache(_core(query), query.target, query.kind, query.injective).feasible


def _permute(p, mask):
    out = 0
    for i in _bits(mask):
        out |= 1 << p[i]
    return out


def test_feasibility_is_constant_on_facet_orbits():
    """The real map search, not the tables, agrees on g and sigma(g)."""
    targets = [
        samples.load("tailed_triangle"),
        skeleton(complete_complex(3), 1),
        complete_complex(3),
        build_complex([("x", "y"), ("y", "z"), ("z",)]),
    ]
    rng = random.Random(6)
    checked = 0
    for seed in range(40):
        source = generate("random", rng.randint(3, 6), {"seed": seed, "density": 0.4})
        for kind, injective in KINDS:
            for target in targets:
                query = q(source, target, kind, injective)
                masks = _core(query).facets
                gens = facet_automorphisms(masks)
                for _ in range(3 if gens else 0):
                    group = rng.randrange(1, 1 << len(masks))
                    verdict = _fresh_probe(query)(group)
                    for p in gens:
                        assert _fresh_probe(query)(_permute(p, group)) == verdict
                        checked += 1
    assert checked >= 500


def _stream_cover_queries():
    """The verify stream's queries (seeds 1-3) that reach the cover DP:
    the full constrained group fails and every facet maps on its own."""
    for seed in (1, 2, 3):
        cfg = VerifyConfig(seed=seed)
        for trial in range(cfg.trials):
            inst = _instances(cfg, trial)
            for a, b in ("LH", "LK", "HK", "HL", "KL"):
                if inst[a].n == 0 or inst[b].n == 0:
                    continue
                for kind, injective in KINDS:
                    query = q(inst[a], inst[b], kind, injective)
                    if _reaches_cover_dp(query):
                        yield (seed, trial, a + b), query


def _reaches_cover_dp(query):
    m = len(_core(query).facets)
    probe = _fresh_probe(query)
    return m and not probe((1 << m) - 1) and all(probe(1 << i) for i in range(m))


def test_orbit_sharing_keeps_canonical_covers():
    """Differential over the verify stream: same cover with and without generators."""
    compared = symmetric = 0
    for where, query in _stream_cover_queries():
        masks = _core(query).facets
        m = len(masks)
        gens = facet_automorphisms(masks)
        shared = _dp_cover(m, _fresh_probe(query), gens)[1]
        alone = _dp_cover(m, _fresh_probe(query), ())[1]
        assert shared == alone, where
        compared += 1
        symmetric += bool(gens)
    assert compared >= 250 and symmetric >= 150


def _dp_value(dp, m):
    """The fewest groups covering all ``m`` facets, deepened from 2 as
    ``_Run.optimum`` does."""
    return next(k for k in range(2, m + 1) if dp.covers((1 << m) - 1, k))


def _dp_cover(m, probe, gens, budget=None):
    """The value and canonical cover masks of ``m`` facets that the cover
    DP over ``probe`` gives, as ``_Run.optimum`` with ``pick`` asks."""
    budget = budget or _fresh_budget()
    dp, full = _CoverDP(m, probe, gens, budget), (1 << m) - 1
    value = _dp_value(dp, m)
    return value, _canonical_cover(full, dp.feasible, dp.covers, value, budget)


def _recorded_cover(query, gens):
    """The value and cover of the query's cover DP with ``gens``, and
    every group it probed, in order."""
    probe, probed = _fresh_probe(query), []

    def recording(group):
        probed.append(group)
        return probe(group)

    m = len(_core(query).facets)
    return _dp_cover(m, recording, gens), probed


def test_two_generators_per_twin_class_walk_like_every_twin_swap():
    """A swap and a cycle per class of twins generate the group that all
    twin transpositions generate, so the orbit walks write the same
    masks: the DP probes the same groups in the same order and returns
    the same value and cover."""
    complete = [q(skeleton(complete_complex(n), 1), complete_complex(2)) for n in (4, 5, 6)] + [
        q(skeleton(complete_complex(n), d), complete_complex(3), "strict")
        for n in (4, 5, 6) for d in (1, 2)
    ]
    assert all(map(_reaches_cover_dp, complete))
    queries = [*(query for _, query in _stream_cover_queries()), *complete]
    assert len(queries) >= 250 + 9
    for query in queries:
        masks = _core(query).facets
        assert _recorded_cover(query, facet_automorphisms(masks)) == _recorded_cover(
            query, _brute_force_twin_swaps(masks)
        ), query


@pytest.mark.parametrize(
    "source, target, kind, value, cover, searches, nodes",
    [
        (
            skeleton(complete_complex(6), 1), complete_complex(2), "facet", 3,
            ["12 13 14 15 26", "16 23 24 35 36 45", "25 34 46 56"],
            45, 325,  # 255 searches without symmetry
        ),
        (
            skeleton(complete_complex(6), 1), skeleton(complete_complex(3), 1), "strict", 2,
            ["12 13 14 15 16 23 24 25 36", "26 34 35 45 46 56"],
            23, 592,  # 32 searches without symmetry
        ),
        (
            skeleton(complete_complex(5), 1), complete_complex(2), "facet", 3,
            ["12", "13 14 23 24 35", "15 25 34 45"],
            21, 134,
        ),
        (
            skeleton(complete_complex(5), 2), complete_complex(3), "strict", 3,
            ["123 124 125", "134 135 234 235", "145 245 345"],
            12, 189,
        ),
        (
            skeleton(complete_complex(7), 1), complete_complex(2), "facet", 3,
            ["12 13 14 15 26 27 36", "16 17 24 25 34 35 46 47 56", "23 37 45 57 67"],
            111, 993,
        ),
        (
            skeleton(complete_complex(6), 2), complete_complex(3), "strict", 3,
            [
                "123 124 135 145 236 246 356", "125 136 156 234 245 346",
                "126 134 146 235 256 345 456",
            ],
            72, 1715,  # 18 077 nodes without symmetry
        ),
    ],
    ids=[
        "k6-edges-to-edge", "k6-edges-to-triangle-strict",
        "k5-edges-to-edge", "k5-triangles-to-triangle-strict",
        "k7-edges-to-edge", "k6-triangles-to-triangle-strict",
    ],
)
def test_symmetry_cuts_map_searches(
    monkeypatch, source, target, kind, value, cover, searches, nodes
):
    """Exact counts: the cover search makes the same probes in the same order."""
    caches = []

    class Recorded(FeasibilityCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(complexity, "FeasibilityCache", Recorded)
    # K7 has 21 edges, one past the default cap
    res = compute(q(source, target, kind, facet_cap=max(20, len(source.facets))))
    [cache] = caches
    assert res.value == value
    assert [
        " ".join(sorted("".join(sorted(f)) for f in g.facets)) for g in res.cover.groups
    ] == cover
    assert (cache.searches, cache.nodes, res.nodes) == (searches, nodes, nodes)


def test_two_group_cover_ends_the_value_scan():
    """Nineteen triangles on vertices 1-9 into the boundary of the
    tetrahedron (pair 7 of ROADMAP's 2-dimensional family): the value
    scan stops at the first two-group cover, so the solve fits in a node
    budget that a scan of every group (7.57 M nodes) would exhaust.  The
    cover and its witness maps are those such a scan picks."""
    triangles = (
        "123 126 128 129 147 148 149 168 189 268 278 289 346 349 356 378 467 469 569"
    ).split()
    query = q(build_complex(triangles), boundary_complex(4),
              limits=SearchLimits(max_nodes=500_000))
    res = compute(query)
    check_cover(query, res.cover)
    assert res.value == 2
    assert _cover(res) == [
        (
            triangles[:6],
            {"1": "1", "2": "2", "3": "3", "4": "2", "6": "3", "7": "3", "8": "3", "9": "3"},
        ),
        (
            triangles[6:],
            {"1": "3", "2": "3", "3": "3", "4": "2", "5": "2", "6": "4", "7": "1", "8": "2",
             "9": "1"},
        ),
    ]


def test_value_scan_walks_feasible_groups():
    """Pair 4 of ROADMAP's 2-dimensional family, kind strict: the value
    scan walks only the feasible groups that hold the pivot, so the
    solve fits in a node budget that a scan of every group that holds it
    (2.04 M nodes) would exhaust.  The cover and its witness maps are
    those such a scan picks."""
    source = build_complex(
        "125 135 136 138 146 148 157 158 234 235 237 246 247 248 258 267 45 478 568".split()
    )
    target = build_complex("125 135 145 156 234 246 256 456".split())
    query = q(source, target, "strict", limits=SearchLimits(max_nodes=100_000))
    res = compute(query)
    check_cover(query, res.cover)
    assert res.value == 2
    assert _cover(res) == [
        (
            "125 135 136 138 146 148 157 158 234 235 246".split(),
            {"1": "6", "2": "1", "3": "2", "4": "5", "5": "5", "6": "4", "7": "1", "8": "4"},
        ),
        (
            "237 247 248 258 267 45 478 568".split(),
            {"2": "2", "3": "5", "4": "5", "5": "4", "6": "5", "7": "1", "8": "6"},
        ),
    ]


def test_yes_no_questions_shorten_the_value_scan(monkeypatch):
    """Pair 3 of ROADMAP's 2-dimensional family (19 facets, kind
    ``facet``, value 3; its ``family2d/pair-3/facet`` row of
    ``cover_pins.json``): the DP asks whether k groups cover a set and
    stops a walk at its first yes, so the solve asks ``covers`` 1 578
    times, where the exact optimum of every remainder it met took 74 492
    ``optimum`` calls.  The value and the cover are the pinned ones."""
    row = json.loads(Path(__file__).with_name("cover_pins.json").read_text())[
        "family2d/pair-3/facet"]
    source, target = parse_scx(row["source"]), parse_scx(row["target"])
    real, calls = _CoverDP.covers, []

    def counting(dp, mask, k):
        calls.append((mask, k))
        return real(dp, mask, k)

    monkeypatch.setattr(_CoverDP, "covers", counting)
    res = compute(q(source, target))
    index = {f: i for i, f in enumerate(source.facet_sets())}
    assert res.value == 3
    assert [sorted(index[f] for f in g.facets) for g in res.cover.groups] == [
        [0, 1, 2, 3], [4, 5, 6, 8, 9, 11, 12, 13, 15, 18], [7, 10, 14, 16, 17],
    ]
    assert len(calls) == 1578


def _hereditary_family(rng, m, perm=None):
    """Masks below a few random proper groups, closed under ``perm`` when
    given: every singleton is in it, the full set is not."""
    full = (1 << m) - 1
    tops = {rng.randrange(1, full) for _ in range(rng.randint(1, 4))}
    todo = list(tops) if perm else []
    while todo:
        image = _permute(perm, todo.pop())
        if image not in tops:
            tops.add(image)
            todo.append(image)
    tops |= {1 << i for i in range(m)}
    return {g for g in range(1, full + 1) if any(g & ~t == 0 for t in tops)}


def _fewest(m, family):
    """The fewest groups of the hereditary ``family`` that cover each mask.

    A mask takes k groups exactly when it lies below a union of k
    maximal groups: the unions are enumerated k = 1, 2, ... and each
    count is pushed down to the masks below."""
    full = (1 << m) - 1
    tops = [g for g in family if all(g | 1 << i not in family for i in range(m) if not g >> i & 1)]
    unions = {0: 0}
    frontier = [0]
    while full not in unions:
        step = []
        for a in frontier:
            for t in tops:
                if a | t not in unions:
                    unions[a | t] = unions[a] + 1
                    step.append(a | t)
        frontier = step
    fewest = [m + 1] * (1 << m)
    for a, k in unions.items():
        fewest[a] = k
    for i in range(m):
        for a in range(1 << m):
            if a >> i & 1 and fewest[a] < fewest[a ^ 1 << i]:
                fewest[a ^ 1 << i] = fewest[a]
    return fewest


def _brute_cover(m, family):
    """Canonical optimal cover: at each step the lexicographically least
    group, among all of ``family``, that holds the least uncovered facet
    and leaves a remainder of one group fewer."""
    fewest = _fewest(m, family)
    chosen, uncovered = [], (1 << m) - 1
    while uncovered:
        pivot = uncovered & -uncovered
        pick = min(
            (g for g in family if g & pivot and not g & ~uncovered
             and 1 + fewest[uncovered & ~g] == fewest[uncovered]),
            key=lambda g: tuple(_bits(g)),
        )
        chosen.append(pick)
        uncovered &= ~pick
    return chosen


def test_cover_dp_decides_prefixes_first():
    """Seeded hereditary families of up to 12 facets, some closed under a
    known facet permutation: the DP's value matches brute force, and so
    does the canonical cover picked over it, so deep picks are checked
    too.  With and without the pick, which ``graph_lower`` skips, no group
    is probed twice, nor once its prefix (the group less its highest
    facet) is known to fail."""
    rng = random.Random(10)
    for trial in range(240):
        m = rng.randint(2, 12)
        perm = tuple(rng.sample(range(m), m)) if trial % 2 else None
        family = _hereditary_family(rng, m, perm)
        gens = (perm,) if perm else ()
        expected = _brute_cover(m, family)
        for pick in (True, False):
            probed = set()

            def probe(group):
                assert group not in probed
                probed.add(group)
                if group.bit_count() >= 2:
                    assert group ^ (1 << group.bit_length() - 1) in family, (trial, group)
                return group in family

            budget = _fresh_budget()
            dp, full = _CoverDP(m, probe, gens, budget), (1 << m) - 1
            assert _dp_value(dp, m) == len(expected), (trial, pick)
            if pick:
                cover = _canonical_cover(full, dp.feasible, dp.covers, len(expected), budget)
                assert cover == expected, trial


def test_covers_matches_the_fewest_groups():
    """Differential against the exact optimum the DP used to store: on the
    same 240 families, with and without their generator, ``covers(mask,
    k)`` holds exactly when ``_fewest`` needs at most ``k`` groups, for
    every mask and every k from 0 to m, asked in a seeded random order so
    that the stored brackets answer some of the questions."""
    rng = random.Random(10)
    order = random.Random(11)
    for trial in range(240):
        m = rng.randint(2, 12)
        perm = tuple(rng.sample(range(m), m)) if trial % 2 else None
        family = _hereditary_family(rng, m, perm)
        fewest = _fewest(m, family)
        for gens in ((perm,), ()) if perm else ((),):
            dp = _CoverDP(m, family.__contains__, gens, _fresh_budget())
            questions = [(mask, k) for mask in range(1 << m) for k in range(m + 1)]
            order.shuffle(questions)
            for mask, k in questions:
                assert dp.covers(mask, k) == (fewest[mask] <= k), (trial, gens, mask, k)


def test_canonical_cover_matches_brute_force():
    """The pick on its own, over a brute-force ``feasible`` and
    coverability of the same 240 families: the first optimal group in
    lexicographic order at every step, as ``_brute_cover`` scans for it."""
    rng = random.Random(10)
    for trial in range(240):
        m = rng.randint(2, 12)
        perm = tuple(rng.sample(range(m), m)) if trial % 2 else None
        family = _hereditary_family(rng, m, perm)
        fewest = _fewest(m, family)
        full = (1 << m) - 1
        cover = _canonical_cover(full, family.__contains__, lambda mask, j: fewest[mask] <= j,
                                 fewest[full], _fresh_budget())
        assert cover == _brute_cover(m, family), trial


def _fresh_budget():
    return _Budget(SearchLimits())


def test_canonical_cover_reads_the_deadline():
    """A deadline that has passed stops the pick before it asks its first
    coverability question."""
    budget = _fresh_budget()
    budget.deadline = time.monotonic() - 1

    def covers(mask, k):
        raise AssertionError("covers asked after the deadline")

    with pytest.raises(UndecidedError) as exc:
        _canonical_cover(0b111, lambda g: True, covers, 1, budget)
    assert (exc.value.reason, exc.value.nodes) == (TIME_EXHAUSTED, 0)


def test_cover_dp_reads_the_deadline():
    """Every verdict comes from the probe's table, so no map search reads
    the budget; the DP itself stops at a deadline that has passed, and so
    does the pick at a deadline that passes as the value is found.

    For the pick every proper group maps, so the value is 2.  The value
    scan first tries the pivot alone, and asking whether one group covers
    its remainder ``full ^ 1``, all facets but the pivot, probes that group
    after its prefixes, last of all.  The probe expires the deadline there,
    the scan stops at that first two-group cover, and the pick reads the
    deadline before its first step."""
    budget = _fresh_budget()
    budget.deadline = time.monotonic() - 1
    with pytest.raises(UndecidedError) as exc:
        _CoverDP(8, lambda g: g.bit_count() <= 2, (), budget).covers(255, 2)
    assert (exc.value.reason, exc.value.nodes) == (TIME_EXHAUSTED, 0)

    for m in (3, 8, 12):
        full = (1 << m) - 1
        assert _dp_cover(m, lambda g: g != full, ()) == (2, [1, full ^ 1])
        budget = _fresh_budget()
        probed = []

        def probe(group):
            assert not probed or probed[-1] != full ^ 1, "a probe after the last one"
            probed.append(group)
            if group == full ^ 1:
                budget.deadline = time.monotonic() - 1
            return group != full

        with pytest.raises(UndecidedError) as exc:
            _dp_cover(m, probe, (), budget)
        assert (exc.value.reason, exc.value.nodes, probed[-1]) == (TIME_EXHAUSTED, 0, full ^ 1)


def _lex_least(options):
    pick = options[0]
    for g in options[1:]:
        if _precedes(g, pick):
            pick = g
    return pick


def test_precedes_is_lexicographic_order_on_bit_indices():
    """Every pair of distinct subsets of 8 bits, then seeded option lists."""
    for a in range(1 << 8):
        for b in range(1 << 8):
            if a != b:
                assert _precedes(a, b) == (tuple(_bits(a)) < tuple(_bits(b))), (a, b)
    prefixes = [
        [0b11, 0b100011], [0b100011, 0b11], [0b101, 0b100011], [0b100011, 0b101],
    ]
    rng = random.Random(9)
    lists = prefixes + [
        rng.sample(range(1, 1 << 20), rng.randint(1, 40)) for _ in range(500)
    ] + [  # all holding the pivot, as in the cover search
        [g << 1 | 1 for g in rng.sample(range(1 << 7), rng.randint(1, 40))]
        for _ in range(500)
    ]
    for options in lists:
        assert _lex_least(options) == min(options, key=lambda g: tuple(_bits(g)))


def test_solver_leaves_no_cyclic_garbage():
    """The map search empties its recursive helpers' closure cells on
    return, and the cover DP and the colouring loop hold no closures, so a
    solve, its bounds and a chromatic number leave nothing for the cyclic
    collector."""
    k6 = skeleton(complete_complex(6), 1)
    query = q(k6, complete_complex(2))
    gc.collect()
    gc.disable()
    try:
        for call in (lambda: compute(query), lambda: bounds(query), lambda: chromatic_number(k6)):
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def _count_optimum(monkeypatch):
    """Runs that reach the optimum entry, which ``compute`` and the
    ``graph_lower`` sub-solve both go through."""
    real, calls = complexity._Run.optimum, []

    def counting(run, *args, **kwargs):
        calls.append(run)
        return real(run, *args, **kwargs)

    monkeypatch.setattr(complexity._Run, "optimum", counting)
    return calls


def test_bounds_reuses_the_solve_for_the_same_edge_problem(monkeypatch):
    """A lone source vertex and a target triangle change the edge-graph
    query but not its cover problem, so the solve's value is reused."""
    source = build_complex(skeleton(complete_complex(4), 1).facet_lists(), ["z"])
    query = q(source, samples.load("tailed_triangle"))
    run = complexity._Run(query)
    solved = run.result()
    calls = _count_optimum(monkeypatch)
    assert run.bounds().graph_lower == solved.value == 2
    assert calls == []
    assert bounds(query).graph_lower == 2 and len(calls) == 1


def test_bounds_colours_each_complex_once(monkeypatch):
    """K6's edges onto an edge, bounds alone: ``chromatic_lower`` colours
    the source and the target, and the ``graph_lower`` sub-run, whose
    edge graphs are those same complexes, reads both colourings from the
    run instead of colouring each a second time."""
    real, coloured = complexity.chromatic_number, []

    def counting(c, *args):
        coloured.append(c)
        return real(c, *args)

    monkeypatch.setattr(complexity, "chromatic_number", counting)
    k6, edge = skeleton(complete_complex(6), 1), complete_complex(2)
    report = bounds(q(k6, edge))
    assert (report.chromatic_lower, report.graph_lower) == (3, 3)
    assert coloured == [k6, edge]


def test_bounds_solves_the_edge_problem_of_an_empty_target(monkeypatch):
    """Onto the empty complex no vertex maps, but the edge graph of an
    edgeless source is empty and maps: the two problems differ."""
    query = q(build_complex([], ["a", "b"]), build_complex([]))
    run = complexity._Run(query)
    solved = run.result()
    calls = _count_optimum(monkeypatch)
    assert solved.value == INFINITY
    assert run.bounds().graph_lower == 1
    assert len(calls) == 1


def test_same_edge_problem_has_the_same_value():
    """The reuse rule's claim, checked by solving both problems: a plain
    query from a source of dimension <= 1 onto a non-empty target without
    isolated vertices has the value of its edge-graph query."""
    rng = random.Random("same edge problem")
    checked = 0
    while checked < 150:
        source = generate("random", rng.randint(1, 7), {
            "seed": rng.randrange(10**6), "density": rng.uniform(0.1, 0.6),
            "max_facet_size": 2})
        target = generate("random", rng.randint(2, 5), {
            "seed": rng.randrange(10**6), "density": rng.uniform(0.3, 0.9),
            "max_facet_size": rng.choice((2, 3))})
        if any(f.bit_count() < 2 for f in target.facets):
            continue
        edges = q(facet_graph(source), facet_graph(target))
        assert compute(q(source, target)).value == compute(edges).value
        checked += 1


def test_graph_value_matches_the_cover_search(monkeypatch):
    """Seeded graph sources, both kinds, without injectivity: the value-only
    run, which reads ⌈log_c χ(G)⌉ from colourings when the target's graph
    has a clique as large as its chromatic number c, gives ``compute``'s
    value, and the oracle's within its limits.  Targets whose graph has
    no such clique reach the cover search; the others never do."""
    c5 = _cycle(5)
    filled = (("t1", "t2", "t3"),)
    # (target, kinds whose target graph has ω = χ); an edgeless target
    # graph makes the query infinite, so neither path runs for it
    targets = [
        (complete_complex(2), {"facet", "strict"}),
        (skeleton(complete_complex(3), 1), {"facet", "strict"}),
        (samples.load("tailed_triangle"), {"facet", "strict"}),
        (complete_complex(3), {"strict"}),
        (build_complex(skeleton(complete_complex(4), 1).facet_lists(), ["z"]), {"facet", "strict"}),
        (c5, set()),
        (build_complex(c5.facet_lists(), ["z"]), set()),
        (build_complex(c5.facet_lists() + filled), {"strict"}),
        (_cycle(7), set()),
        (build_complex([], ["a", "b"]), set()),
    ]
    searched = []
    real = complexity._CoverDP
    monkeypatch.setattr(complexity, "_CoverDP", lambda *a: searched.append(a) or real(*a))
    rng = random.Random("graph value")
    declined = oracle = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        density = rng.uniform(0.2, 0.9)
        edges = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        source = build_complex(edges, [f"v{i}" for i in range(n)])
        for target, closed in targets:
            for kind in ("facet", "strict"):
                query = q(source, target, kind)
                searched.clear()
                value = complexity._Run(query).optimum(False)[0]
                reached = bool(searched)
                want = compute(query).value
                assert value == want, (edges, target, kind)
                if source.dim == 1 and kind in closed:
                    assert not reached, (edges, target, kind)
                elif source.dim == 1 and 2 <= want < INFINITY:
                    assert reached, (edges, target, kind)
                    declined += 1
                if (source.n <= MAX_SOURCE_VERTICES and target.n <= MAX_TARGET_VERTICES
                        and len(source.facets) <= MAX_FACETS):
                    assert value == brute_force_cover_complexity(source, target, kind)
                    oracle += 1
    assert declined > 20 and oracle > 50
