"""Acceptance suite: every headline requirement as one pass/fail test.

Each test prints a single ``PASS [n]`` line (visible with ``pytest -s``
or ``-rA``) and enforces its wall-clock budget, so ``pytest -v`` on this
file yields one line per criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager

from facetcx import (
    Coloring,
    ComplexityQuery,
    SearchProblem,
    block_coloring,
    boundary_complex,
    brute_force_chromatic,
    brute_force_cover_complexity,
    brute_force_map_search,
    build_complex,
    check_cover,
    chromatic_number,
    classify,
    complete_complex,
    compute,
    find_map,
    generate,
    metrics,
    samples,
    skeleton,
    union,
)
from facetcx.maps import VertexMap
from facetcx.verify import VerifyConfig, run_verify

L = samples.load("shaded_bowtie")
K = samples.load("tailed_triangle")


@contextmanager
def budget(num: int, description: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        f"criterion {num} exceeded its {seconds}s budget: {elapsed:.2f}s"
    )
    print(f"PASS [{num}] {description} ({elapsed:.2f}s)")


def test_criterion_01_fixture_chromatic_numbers():
    with budget(1, "fixture chromatic numbers 3 and 2", 1.0):
        assert chromatic_number(L).value == 3
        assert chromatic_number(K).value == 2


def test_criterion_02_fixture_two_part_cover():
    with budget(2, "two-part facet cover with certificate, no single map", 1.0):
        query = ComplexityQuery(L, K)
        res = compute(query)
        assert res.value == 2
        assert len(res.cover) == 2
        check_cover(query, res.cover)  # raises on any certificate defect
        assert not find_map(SearchProblem(L, K, "facet")).found


def test_criterion_03_fixture_injective_value_with_oracle():
    with budget(3, "injective value 3 confirmed by exhaustive cover oracle", 5.0):
        assert compute(ComplexityQuery(L, K, injective=True)).value == 3
        slow = brute_force_cover_complexity(L, K, "facet", True)
        assert slow == 3


def test_criterion_04_isolated_vertex_sensitivity():
    with budget(4, "isolated vertex raises injective value only", 1.0):
        k3 = boundary_complex(3)
        plus = build_complex(k3.facet_lists(), explicit_vertices=("*",))
        assert compute(ComplexityQuery(plus, k3, injective=True)).value == 2
        assert compute(ComplexityQuery(k3, k3, injective=True)).value == 1
        assert (
            compute(ComplexityQuery(plus, k3)).value
            == compute(ComplexityQuery(k3, k3)).value
        )


def test_criterion_05_skeleton_reduction():
    with budget(5, "1-skeleton pair drops to a single-part cover", 1.0):
        ls = skeleton(L, 1)
        ks = skeleton(K, 1)
        assert compute(ComplexityQuery(ls, ks)).value == 1
        folded = VertexMap.from_dict(
            ls, ks, {"a": "a'", "e": "a'", "b": "b'", "d": "b'", "c": "c'"}
        )
        assert classify(folded).facet


def test_criterion_06_block_bound_regression():
    with budget(6, "ceil(graph number / dim) undercuts the true value", 1.0):
        graph_res = chromatic_number(skeleton(L, 1))
        d = L.dim
        claimed = -(-graph_res.value // d)  # ceil(3 / 2)
        assert claimed == 2
        assert chromatic_number(L).value == 3
        assert claimed < 3
        # the per-block construction stays valid at d = min facet size - 1
        blocked = block_coloring(L, graph_res.witness)
        assert isinstance(blocked, Coloring)
        for facet in L.facet_sets():
            if len(facet) >= 2:
                assert len({blocked.color_of(v) for v in facet}) >= 2


def test_criterion_07_union_jump():
    with budget(7, "one-part pieces union to a two-part whole", 1.0):
        vee = build_complex([("1", "2"), ("1", "3")])
        base = build_complex([("2", "3")])
        target = complete_complex(2)
        assert compute(ComplexityQuery(vee, target)).value == 1
        assert compute(ComplexityQuery(base, target)).value == 1
        whole = union([vee, base])
        assert compute(ComplexityQuery(whole, target)).value == 2


def test_criterion_08_one_facet_target_formula():
    with budget(8, "injective value equals facet count for 20 pure sources", 30.0):
        rng = random.Random(8)
        target = complete_complex(3)
        for _ in range(20):
            n = rng.randint(4, 7)
            labels = [str(j) for j in range(1, n + 1)]
            pool = list(itertools.combinations(labels, 3))
            faces = rng.sample(pool, rng.randint(1, min(8, len(pool))))
            source = build_complex(faces)
            m = metrics(source)
            assert m.pure and m.dim == 2 and not m.isolated
            value = compute(ComplexityQuery(source, target, injective=True)).value
            assert value == m.eta, (faces, value, m.eta)


def test_criterion_09_property_harness():
    with budget(9, "200-trial property harness reports zero violations", 90.0):
        report = run_verify(VerifyConfig(seed=1, trials=200, max_vertices=7))
        assert report.ok, report.text()
        assert not report.failures
        # every non-observational suite participated
        assert set(report.passed) == {
            "fixtures", "structure", "mapclass", "coloring", "search",
            "solver", "order", "triangle", "subadditivity", "bounds",
            "invariance", "skeleton",
        }


def test_criterion_10_oracle_equivalence():
    with budget(10, "solver matches exhaustive oracles on 100 seeded pairs", 60.0):
        kinds = list(itertools.product(("facet", "strict"), (False, True)))
        rng = random.Random(10)
        pairs = tries = 0
        while pairs < 100:
            tries += 1
            source = generate(
                "random",
                rng.randint(1, 5),
                {"seed": tries, "max_facet_size": 3,
                 "density": rng.uniform(0.2, 0.8)},
            )
            target = generate(
                "random",
                rng.randint(1, 4),
                {"seed": 10_000 + tries, "max_facet_size": 3,
                 "density": rng.uniform(0.2, 0.8)},
            )
            if len(source.facets) > 4:
                continue  # stay inside the exhaustive cover oracle's range
            for kind, inj in kinds:
                fast = find_map(SearchProblem(source, target, kind, inj)).found
                slow = brute_force_map_search(source, target, kind, inj)
                assert fast == (slow is not None), (source, target, kind, inj)
                assert (
                    compute(ComplexityQuery(source, target, kind, inj)).value
                    == brute_force_cover_complexity(source, target, kind, inj)
                ), (source, target, kind, inj)
            assert chromatic_number(source).value == brute_force_chromatic(source)
            pairs += 1
