import itertools
import random

import pytest

from facetcx import (
    INFINITY,
    ComplexityQuery,
    SearchProblem,
    boundary_complex,
    brute_force_chromatic,
    brute_force_cover_complexity,
    brute_force_map_search,
    build_complex,
    chromatic_number,
    classify,
    complete_complex,
    compute,
    find_map,
    generate,
)


def test_limits_reject_oversized():
    big = complete_complex(9)
    with pytest.raises(ValueError):
        brute_force_map_search(big, big, "facet", False)
    with pytest.raises(ValueError):
        brute_force_chromatic(big)


def test_map_search_agrees_on_fixture_shapes():
    k3 = boundary_complex(3)
    g2 = complete_complex(2)
    g3 = complete_complex(3)
    cases = [
        (k3, g2, "facet", False),
        (k3, g3, "facet", False),
        (k3, g3, "strict", False),
        (g2, g3, "strict", True),
        (g3, g2, "strict", False),
    ]
    for s, t, kind, inj in cases:
        fast = find_map(SearchProblem(s, t, kind, inj))
        slow = brute_force_map_search(s, t, kind, inj)
        assert fast.found == (slow is not None)
        if slow is not None:
            cls = classify(slow)
            assert cls.facet if kind == "facet" else cls.strict


def test_chromatic_agrees_small():
    rng = random.Random(5)
    letters = "abcde"
    for _ in range(25):
        faces = [
            rng.sample(letters, rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))
        ]
        c = build_complex(faces)
        assert chromatic_number(c).value == brute_force_chromatic(c)


def test_cover_complexity_agrees_on_fixture(bowtie, tailed):
    for kind, inj, expected in [
        ("facet", False, 2),
        ("facet", True, 3),
        ("strict", False, 1),
        ("strict", True, 2),
    ]:
        slow = brute_force_cover_complexity(bowtie, tailed, kind, inj)
        assert slow == expected


def test_cover_complexity_infinite():
    edge = complete_complex(2)
    tri = complete_complex(3)
    v = brute_force_cover_complexity(edge, tri, "facet", False)
    assert v == INFINITY


def test_randomized_agreement_sweep():
    # compact version of the full acceptance sweep
    rng = random.Random(314)
    kinds = list(itertools.product(("facet", "strict"), (False, True)))
    for trial in range(15):
        s = generate("random", rng.randint(1, 4), {"seed": trial, "max_facet_size": 3})
        t = generate("random", rng.randint(1, 4), {"seed": trial + 100, "max_facet_size": 3})
        for kind, inj in kinds:
            fast = compute(ComplexityQuery(s, t, kind, inj)).value
            slow = brute_force_cover_complexity(s, t, kind, inj)
            assert fast == slow, (s, t, kind, inj)
