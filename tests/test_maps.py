import pytest

from facetcx import (
    ComplexityQuery,
    FeasibilityCache,
    SearchProblem,
    brute_force_map_search,
    build_complex,
    classify,
    complete_complex,
    compose,
    image_inverse,
    samples,
)
from facetcx.maps import VertexMap
from facetcx.verify import KINDS


def identity(c):
    return VertexMap.from_dict(c, c, {v: v for v in c.labels})


def test_identity_is_everything(bowtie):
    cls = classify(identity(bowtie))
    assert cls.simplicial and cls.strict and cls.facet and cls.injective
    assert cls.witness is None


def test_fold_map_is_strict_not_facet():
    cls = classify(samples.fold_map())
    assert cls.simplicial
    assert cls.strict
    assert not cls.facet
    assert not cls.injective
    # first violation in canonical facet order: the tail edge folds into
    # the triangle's interior instead of landing on a facet
    assert cls.witness == frozenset({"c", "d"})
    assert [cls.meets(k, inj) for k, inj in KINDS] == [False, False, True, False]


def test_main_part_map_is_facet():
    cls = classify(samples.main_part_map())
    assert cls.facet and cls.simplicial
    assert not cls.injective


def test_edge_part_map_is_facet_and_injective():
    cls = classify(samples.edge_part_map())
    assert cls.facet and cls.injective and cls.strict


def test_non_simplicial_witness():
    # two disjoint edges mapped across each other: image of {a,b} is
    # {x,z}, not a simplex of the hollow path x-y, y-z
    src = build_complex([("a", "b")])
    tgt = build_complex([("x", "y"), ("y", "z")])
    m = VertexMap.from_dict(src, tgt, {"a": "x", "b": "z"})
    cls = classify(m)
    assert not cls.simplicial
    assert not cls.strict and not cls.facet
    assert cls.witness == frozenset({"a", "b"})


def test_collapse_is_simplicial_not_strict():
    src = build_complex([("a", "b")])
    tgt = complete_complex(1)
    m = VertexMap.from_dict(src, tgt, {"a": "1", "b": "1"})
    cls = classify(m)
    assert cls.simplicial
    assert not cls.strict
    assert not cls.facet  # the edge lands on a unitary facet, not onto one
    assert cls.witness == frozenset({"a", "b"})


def test_unitary_facets_unconstrained():
    # isolated source vertices may land anywhere, including inside a facet
    src = build_complex([("a",), ("b",)])
    tgt = complete_complex(2)
    m = VertexMap.from_dict(src, tgt, {"a": "1", "b": "1"})
    cls = classify(m)
    assert cls.simplicial and cls.strict and cls.facet
    assert not cls.injective


def test_from_dict_validation(bowtie, tailed):
    with pytest.raises(ValueError):
        VertexMap.from_dict(bowtie, tailed, {"a": "a'"})  # partial
    with pytest.raises(ValueError):
        VertexMap.from_dict(
            bowtie, tailed,
            {"a": "qq", "b": "b'", "c": "c'", "d": "d'", "e": "a'"},
        )


def test_image_mask(bowtie, tailed):
    m = samples.fold_map()
    abc = bowtie.mask_of(("a", "b", "c"))
    assert m.image_mask(abc) == tailed.mask_of(("a'", "b'", "c'"))
    de = bowtie.mask_of(("d", "e"))
    assert m.image_mask(de) == tailed.mask_of(("a'", "b'"))


def test_compose_classes(bowtie, tailed):
    m = samples.fold_map()
    i = identity(tailed)
    c = compose(m, i)
    assert c.as_dict() == m.as_dict()
    assert classify(c).strict


def test_compose_rejects_mismatch(bowtie):
    m = samples.fold_map()
    with pytest.raises(ValueError):
        compose(m, m)  # target of fold is not its own source


def test_image_inverse(bowtie, tailed):
    m = samples.fold_map()
    sub = build_complex([("c'", "d'")])
    pre = image_inverse(m, sub)
    # only vertices mapping into {c', d'} survive: c alone
    assert pre.labels == ("c",)


@pytest.mark.parametrize(
    "make",
    [ComplexityQuery, SearchProblem, FeasibilityCache, brute_force_map_search],
    ids=["query", "search", "cache", "oracle"],
)
def test_every_kind_taker_rejects_an_unknown_kind(bowtie, make):
    """One message from one check, before any probe can answer."""
    with pytest.raises(ValueError, match="kind must be 'facet' or 'strict', not 'Facet'"):
        make(bowtie, complete_complex(3), "Facet")
