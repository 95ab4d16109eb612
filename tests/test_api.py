import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import facetcx
from facetcx import samples
from facetcx.scx import serialize_scx

REMOVED = (
    "GraphView", "underlying_graph", "graph_as_complex", "graph_chromatic_number",
    "group_feasible", "OracleLimits", "disjoint_decompose", "DisjointDecomposition",
)
HARNESS = ("facetcx.oracle", "facetcx.verify")


def _imported_names():
    tree = ast.parse(Path(facetcx.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _fresh_python(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter and read the JSON line it prints last."""
    src = str(Path(facetcx.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_all_names_resolve():
    for name in facetcx.__all__:
        assert hasattr(facetcx, name), name


def test_every_public_import_is_listed():
    # The oracle and harness names load on first use, so they sit in the
    # lazy table instead of an import statement.
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public, "no imports found in facetcx/__init__.py"
    assert sorted((public | set(facetcx._LAZY)) - set(facetcx.__all__)) == []
    for name, home in facetcx._LAZY.items():
        module = importlib.import_module(f"facetcx.{home}")
        assert getattr(facetcx, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(facetcx.__all__) <= set(dir(facetcx))


def test_removed_graph_names_stay_gone():
    for name in REMOVED:
        assert name not in facetcx.__all__
        assert not hasattr(facetcx, name)


def test_complexity_run_leaves_oracle_and_verify_unloaded(tmp_path):
    l_path, k_path = tmp_path / "L.scx", tmp_path / "K.scx"
    l_path.write_text(serialize_scx(samples.load("shaded_bowtie")))
    k_path.write_text(serialize_scx(samples.load("tailed_triangle")))
    code = f"""
import json, sys
import facetcx, facetcx.cli
status = facetcx.cli.run(["complexity", sys.argv[1], sys.argv[2], "--json"])
loaded = [m for m in {HARNESS!r} if m in sys.modules]
run_verify = facetcx.run_verify
print(json.dumps({{
    "status": status,
    "loaded": loaded,
    "verify_loaded": "facetcx.verify" in sys.modules,
    "from_verify": run_verify is sys.modules["facetcx.verify"].run_verify,
}}))
"""
    got = _fresh_python(code, str(l_path), str(k_path))
    assert got == {"status": 0, "loaded": [], "verify_loaded": True, "from_verify": True}


def test_submodules_resolve_after_a_plain_import():
    code = """
import json
import pytest

import facetcx
print(json.dumps([facetcx.samples.__name__, facetcx.oracle.__name__, facetcx.verify.__name__]))
"""
    assert _fresh_python(code) == ["facetcx.samples", "facetcx.oracle", "facetcx.verify"]


EDGE = facetcx.complete_complex(2)
TRIANGLE = facetcx.complete_complex(3)


def _tables_of_another_target():
    from facetcx.homsearch import _TargetTables

    facetcx.SearchProblem(EDGE, TRIANGLE, tables=_TargetTables(EDGE, "facet", False))


REJECTIONS = {
    "complex-mask-out-of-range": (
        lambda: facetcx.Complex(("a",), (2,)), "facet mask out of range"),
    "complex-facets-miss-a-label": (
        lambda: facetcx.Complex(("a", "b"), (1,)), "facets must cover every vertex"),
    "map-wrong-length": (
        lambda: facetcx.VertexMap(EDGE, EDGE, (0,)), "assignment must cover every source vertex"),
    "map-image-out-of-range": (
        lambda: facetcx.VertexMap(EDGE, EDGE, (0, 2)), "assignment image out of range"),
    "coloring-wrong-length": (
        lambda: facetcx.Coloring(EDGE, 2, (1,)), "assignment must color every vertex"),
    "coloring-k-below-1": (
        lambda: facetcx.Coloring(EDGE, 0, (1, 1)), "k must be positive for a non-empty subject"),
    "coloring-colour-outside-k": (
        lambda: facetcx.Coloring(EDGE, 2, (1, 3)), "color 3 outside 1..2"),
    "coloring-monochromatic-facet": (
        lambda: facetcx.Coloring(EDGE, 2, (1, 1)), "monochromatic constraint ('1', '2')"),
    "search-group-out-of-range": (
        lambda: facetcx.SearchProblem(EDGE, EDGE, group=2),
        "group must be a mask over the source's facets"),
    "search-tables-of-another-target": (
        _tables_of_another_target, "the tables were built for a different target or kind"),
    "generate-n-below-1": (
        lambda: facetcx.generate("random", 0, {"seed": 1}), "random generator requires n >= 1"),
    "generate-no-seed": (
        lambda: facetcx.generate("random", 3), "random generator requires a seed"),
    "generate-max-facet-size-below-1": (
        lambda: facetcx.generate("random", 3, {"seed": 1, "max_facet_size": 0}),
        "max_facet_size must be >= 1"),
    "generate-density-outside-0-1": (
        lambda: facetcx.generate("random", 3, {"seed": 1, "density": 1.5}),
        "density must lie in [0, 1]"),
    "complete-complex-0": (
        lambda: facetcx.complete_complex(0), "complete_complex requires n >= 1"),
    "boundary-complex-1": (
        lambda: facetcx.boundary_complex(1), "boundary_complex requires n >= 2"),
    "union-of-nothing": (
        lambda: facetcx.union([]), "union requires at least one complex"),
    "relabel-partial-mapping": (
        lambda: facetcx.relabel(EDGE, {"1": "x"}), "mapping must cover exactly the vertex set"),
    "block-coloring-isolated-vertex": (
        lambda: facetcx.block_coloring(
            facetcx.build_complex([("1", "2"), ("3",)]), facetcx.Coloring(EDGE, 2, (1, 2))),
        "block_coloring requires every facet dimension > 0"),
    "block-coloring-foreign-witness": (
        lambda: facetcx.block_coloring(EDGE, facetcx.Coloring(TRIANGLE, 3, (1, 2, 3))),
        "witness must color the 1-skeleton"),
    "product-coloring-foreign-part": (
        lambda: facetcx.product_coloring(EDGE, [(EDGE, facetcx.Coloring(TRIANGLE, 3, (1, 2, 3)))]),
        "each coloring must color its own part"),
    "product-coloring-uncovered-facet": (
        lambda: facetcx.product_coloring(TRIANGLE, [(EDGE, facetcx.Coloring(EDGE, 2, (1, 2)))]),
        "facet ['1', '2', '3'] is covered by no part"),
    "pullback-not-a-facet-map": (
        lambda: facetcx.pullback_coloring(
            facetcx.VertexMap(EDGE, EDGE, (0, 0)), facetcx.Coloring(EDGE, 2, (1, 2))),
        "pullback requires a facet simplicial map"),
    "pullback-foreign-witness": (
        lambda: facetcx.pullback_coloring(
            facetcx.VertexMap(EDGE, EDGE, (0, 1)), facetcx.Coloring(TRIANGLE, 3, (1, 2, 3))),
        "witness must color the map's target"),
    "image-inverse-not-simplicial": (
        lambda: facetcx.image_inverse(
            facetcx.VertexMap(EDGE, facetcx.build_complex([("1",), ("2",)]), (0, 1)), EDGE),
        "image_inverse requires a simplicial map"),
    "image-inverse-not-a-subcomplex": (
        lambda: facetcx.image_inverse(facetcx.VertexMap(EDGE, EDGE, (0, 1)), TRIANGLE),
        "['1', '2', '3'] is not a simplex of the target"),
    "build-complex-empty-face": (
        lambda: facetcx.build_complex([()]), "face 0 is empty"),
    "map-from-dict-extra-key": (
        lambda: facetcx.VertexMap.from_dict(EDGE, EDGE, {"1": "1", "2": "2", "x": "1"}),
        "'x' is not a source vertex"),
    "oracle-target-vertices": (
        lambda: facetcx.brute_force_map_search(EDGE, facetcx.complete_complex(5)),
        "oracle limit: target has 5 vertices (max 4)"),
    "oracle-source-facets": (
        lambda: facetcx.brute_force_cover_complexity(
            facetcx.skeleton(facetcx.complete_complex(4), 1), EDGE),
        "oracle limit: source has 6 facets (max 5)"),
}


@pytest.mark.parametrize("make, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_library_rejects_bad_input(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
