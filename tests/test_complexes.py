import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetcx import (
    EMPTY,
    boundary_complex,
    build_complex,
    closure,
    complete_complex,
    facet_graph,
    generate,
    metrics,
    relabel,
    skeleton,
    union,
)
from facetcx.complexes import (
    Complex,
    _bits,
    _degree_tables,
    _key,
    _subcomplex,
    facet_automorphisms,
)

LABELS = st.sampled_from("abcdef")
FACES = st.lists(
    st.frozensets(LABELS, min_size=1, max_size=4), min_size=0, max_size=6
)


def complexes():
    return FACES.map(build_complex)


def test_canonical_form_sorts_and_reduces():
    c = build_complex([("b", "a"), ("c",), ("a", "b", "c"), ("a",)])
    assert c.labels == ("a", "b", "c")
    assert c.facet_lists() == (("a", "b", "c"),)


def test_antichain_keeps_incomparable_faces():
    c = build_complex([("a", "b"), ("b", "c"), ("a",)])
    assert c.facet_lists() == (("a", "b"), ("b", "c"))


def test_explicit_vertices_become_singletons():
    c = build_complex([("a", "b")], explicit_vertices=("z", "a"))
    assert c.labels == ("a", "b", "z")
    assert frozenset({"z"}) in c.facet_sets()


@pytest.mark.parametrize("faces, extra, first", [
    ([("p#", "q"), ("q r", "p#")], (), "'p#'"),
    ([("q", "r s")], ("t#", "r s"), "'r s'"),
    ([("q",)], ("u v", "w#"), "'u v'"),
])
def test_first_bad_label_is_reported(faces, extra, first):
    with pytest.raises(ValueError, match=f"label {first}"):
        build_complex(faces, explicit_vertices=extra)


@pytest.mark.parametrize("labels, facets, message", [
    (("b", "a"), (1, 2), "labels must be sorted"),
    (("a", "a"), (1, 2), "labels must be sorted"),
    (("a", "b", "c"), (4, 3), "facets must be canonically sorted"),
    (("a", "b"), (1, 1, 2), "facets must be canonically sorted"),
    (("a", "b"), (1, 3), "antichain"),
])
def test_complex_rejects_non_canonical_form(labels, facets, message):
    with pytest.raises(ValueError, match=message):
        Complex(labels, facets)


def test_empty_complex():
    assert EMPTY.n == 0
    assert EMPTY.dim == -1
    assert EMPTY.facets == ()


def test_dim_and_membership(bowtie):
    assert bowtie.dim == 2
    assert bowtie.is_simplex(("a", "b"))
    assert bowtie.is_simplex(("c",))
    assert not bowtie.is_simplex(("a", "d"))
    assert not bowtie.is_simplex(("a", "b", "c", "d"))


def test_simplex_masks_counts(bowtie):
    # triangle contributes 7 nonempty faces; edges cd, ce, de add 1 each
    # beyond shared vertices; vertices d, e add 2.
    assert len(bowtie.simplex_masks()) == 12


def test_complete_complex():
    g = complete_complex(4)
    assert g.labels == ("1", "2", "3", "4")
    assert g.facet_lists() == (("1", "2", "3", "4"),)
    assert g.dim == 3


def test_boundary_complex():
    k = boundary_complex(3)
    assert k.facet_lists() == (("1", "2"), ("1", "3"), ("2", "3"))
    assert k.dim == 1
    assert boundary_complex(4).dim == 2
    assert len(boundary_complex(4).facets) == 4


def test_generate_random_is_seed_deterministic():
    a = generate("random", 6, {"seed": 11})
    b = generate("random", 6, {"seed": 11})
    c = generate("random", 6, {"seed": 12})
    assert a == b
    assert a != c


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate("nope", 3)


def test_metrics(bowtie):
    m = metrics(bowtie)
    assert m.eta == 4
    assert m.dim == 2
    assert not m.pure
    assert m.isolated == ()
    assert m.min_facet_size == 2
    assert m.min_nonunitary_facet_size == 2


def test_metrics_isolated_and_none():
    c = build_complex([("a",), ("b",)])
    m = metrics(c)
    assert m.isolated == ("a", "b")
    assert m.min_facet_size == 1
    assert m.min_nonunitary_facet_size is None


def test_degree_tables_top_keeps_the_low_rows():
    deepest = 0
    for seed in range(20):
        c = generate("random", 7, {"seed": seed, "density": 0.5})
        rows = _degree_tables(c.facets, c.n)
        deepest = max(deepest, *rows)
        for top in (1, 2):
            low = {d: row for d, row in rows.items() if d <= top}
            assert _degree_tables(c.facets, c.n, top) == low
    assert deepest >= 2


def test_pure_detection():
    assert metrics(boundary_complex(4)).pure
    assert not metrics(build_complex([("a", "b", "c"), ("c", "d")])).pure


def test_skeleton_of_bowtie(bowtie):
    s1 = skeleton(bowtie, 1)
    assert s1.facet_lists() == (
        ("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e"),
    )
    s0 = skeleton(bowtie, 0)
    assert all(len(f) == 1 for f in s0.facet_lists())
    assert skeleton(bowtie, 5) == bowtie


def test_skeleton_rejects_negative(bowtie):
    with pytest.raises(ValueError):
        skeleton(bowtie, -1)


def test_underlying_and_facet_graph(bowtie):
    ug = skeleton(bowtie, 1)
    fg = facet_graph(bowtie)
    assert ug.dim == fg.dim == 1
    assert len(ug.facets) == 6
    # cd, ce, de: only the 1-dimensional facets, and only their endpoints
    assert fg.facet_lists() == (("c", "d"), ("c", "e"), ("d", "e"))
    assert fg.labels == ("c", "d", "e")
    assert skeleton(fg, 1) == fg


def test_union_overlapping(bowtie):
    a = build_complex([("a", "b", "c"), ("c", "d"), ("d", "e")])
    b = build_complex([("c", "e")])
    assert union([a, b]) == bowtie


def test_union_disjoint_rejects_shared_vertex():
    a = build_complex([("a", "b")])
    b = build_complex([("b", "c")])
    with pytest.raises(ValueError, match="'b'"):
        union([a, b], disjoint=True)


def test_closure_subset(bowtie):
    sub = closure(bowtie, [("a", "b", "c"), ("c", "d")])
    assert sub.labels == ("a", "b", "c", "d")
    assert sub.facet_lists() == (("a", "b", "c"), ("c", "d"))


def test_closure_rejects_non_facet(bowtie):
    with pytest.raises(ValueError):
        closure(bowtie, [("a", "b")])


def test_relabel_roundtrip(bowtie):
    fwd = {lab: lab.upper() for lab in bowtie.labels}
    back = {v: k for k, v in fwd.items()}
    assert relabel(relabel(bowtie, fwd), back) == bowtie


def test_relabel_rejects_collision():
    c = build_complex([("a", "b")])
    with pytest.raises(ValueError):
        relabel(c, {"a": "x", "b": "x"})


@settings(max_examples=60, deadline=None)
@given(complexes(), st.integers(min_value=0, max_value=5))
def test_skeleton_dimension_property(c, q):
    s = skeleton(c, q)
    assert s.dim <= q
    assert set(s.labels) == set(c.labels)
    # every skeleton facet is a simplex of the original
    assert all(c.is_simplex(f) for f in s.facet_lists())


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_closure_of_all_facets_is_identity(c):
    assert closure(c, c.facet_lists()) == c


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_facets_form_antichain(c):
    sets = c.facet_sets()
    for i, f in enumerate(sets):
        for j, g in enumerate(sets):
            if i != j:
                assert not f <= g


# -- facet automorphisms ----------------------------------------------


def _permute(p, mask):
    out = 0
    for i in _bits(mask):
        out |= 1 << p[i]
    return out


def _orbit_partition(m, perms):
    """Least member of each facet mask's orbit under ``perms``."""
    least = {}
    for g in range(1 << m):
        if g in least:
            continue
        least[g] = g
        todo = [g]
        while todo:
            x = todo.pop()
            for p in perms:
                h = _permute(p, x)
                if h not in least:
                    least[h] = g
                    todo.append(h)
    return least


def _induced_facet_perms(facets, vertex_maps):
    """Facet permutations of the vertex maps that send the facet set onto itself."""
    position = {f: i for i, f in enumerate(facets)}
    out = []
    for g in vertex_maps:
        moved = [sum(1 << g[v] for v in _bits(f)) for f in facets]
        if all(f in position for f in moved):
            out.append(tuple(position[f] for f in moved))
    return out


def _vertices(facets):
    return sorted({v for f in facets for v in _bits(f)})


def _brute_force_facet_perms(facets):
    """Facet permutations of every vertex permutation that is an automorphism."""
    verts = _vertices(facets)
    maps = (dict(zip(verts, image)) for image in itertools.permutations(verts))
    return _induced_facet_perms(facets, maps)


def _brute_force_twin_swaps(facets):
    """Facet permutations of every vertex transposition that is an automorphism."""
    verts = _vertices(facets)
    fixed = {v: v for v in verts}
    maps = ({**fixed, a: b, b: a} for a, b in itertools.combinations(verts, 2))
    return _induced_facet_perms(facets, maps)


@pytest.mark.parametrize("n,orbits", [(4, 11), (5, 34), (6, 156)])
def test_edge_subset_orbits_of_complete_graph(n, orbits):
    # unlabeled graphs on n vertices (OEIS A000088)
    edges = skeleton(complete_complex(n), 1).facets
    gens = facet_automorphisms(edges)
    assert len(set(_orbit_partition(len(edges), gens).values())) == orbits


def _random_sources(count):
    rng = random.Random(20251003)
    for seed in range(count):
        n = rng.randint(1, 6)
        params = {
            "seed": seed,
            "density": rng.choice([0.2, 0.4, 0.6]),
            "max_facet_size": rng.randint(1, 4),
        }
        yield generate("random", n, params)


def test_generators_match_brute_force_orbits():
    """The generators' orbits are those of the group the vertex
    transpositions that map the facet set onto itself generate."""
    symmetric = 0
    for c in _random_sources(120):
        # all facets (the injective kind) and the non-singletons (the others)
        for facets in (c.facets, tuple(f for f in c.facets if f.bit_count() >= 2)):
            if not facets or len(facets) > 12:
                continue
            gens = facet_automorphisms(facets)
            symmetric += bool(gens)
            swaps = _brute_force_twin_swaps(facets)
            assert _orbit_partition(len(facets), gens) == _orbit_partition(
                len(facets), swaps
            ), c
    assert symmetric >= 50
    # symmetric, but without twins
    ring = [(i, (i + 1) % 5) for i in range(5)]
    icosahedron = build_complex(
        [("t", f"u{i}", f"u{j}") for i, j in ring] + [("b", f"l{i}", f"l{j}") for i, j in ring]
        + [(f"u{i}", f"u{j}", f"l{i}") for i, j in ring]
        + [(f"l{i}", f"l{j}", f"u{j}") for i, j in ring]
    )
    petersen = build_complex(
        (a + b, c + d) for a, b, c, d in itertools.permutations("01234", 4) if a < b and c < d
    )
    assert len(petersen.facets) == 15
    assert facet_automorphisms(icosahedron.facets) == facet_automorphisms(petersen.facets) == []


@pytest.mark.parametrize("n", [1, 2, 5])
def test_all_singleton_source_is_fully_symmetric(n):
    points = build_complex([], explicit_vertices=[str(i) for i in range(n)])
    gens = facet_automorphisms(points.facets)
    # every group of k points is one orbit: n + 1 orbits in all
    assert len(set(_orbit_partition(n, gens).values())) == n + 1


@pytest.mark.parametrize(
    "faces",
    [
        # a path of three edges hanging off a triangle's corner
        [("a", "b", "c"), ("c", "d"), ("d", "e"), ("e", "f")],
        # the smallest asymmetric graphs have six vertices
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "5"), ("5", "6")],
        [("a",)],
    ],
)
def test_asymmetric_complex_has_no_generators(faces):
    facets = build_complex(faces).facets
    assert set(_brute_force_facet_perms(facets)) == {tuple(range(len(facets)))}
    assert facet_automorphisms(facets) == []



@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_subcomplex_matches_closure_on_labels(c, data):
    """The mask builder builds the complex the chosen facets' labels
    generate, and rejects a face that is not a facet as ``closure`` does."""
    faces = sorted(c.simplex_masks(), key=_key)
    picked = data.draw(st.lists(
        st.one_of(st.sampled_from(c.facets), st.sampled_from(faces)), max_size=5,
    )) if c.facets else []
    labels = [c.members(m) for m in picked]
    try:
        want = closure(c, labels)
    except ValueError as exc:
        assert any(m not in c.facets for m in picked)
        with pytest.raises(ValueError) as got:
            _subcomplex(c, picked)
        assert str(got.value) == str(exc)
        return
    got = _subcomplex(c, picked)
    assert got == want == build_complex(labels)


def test_subcomplex_rejects_masks_outside_the_complex(bowtie):
    with pytest.raises(ValueError, match="out of range"):
        _subcomplex(bowtie, [1 << bowtie.n])
    with pytest.raises(ValueError, match=r"\['a', 'b'\] is not a facet"):
        closure(bowtie, [("b", "a")])
