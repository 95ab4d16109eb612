import ast
from pathlib import Path

import facetcx

REMOVED = (
    "GraphView", "underlying_graph", "graph_as_complex", "graph_chromatic_number",
    "group_feasible",
)


def _imported_names():
    tree = ast.parse(Path(facetcx.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_names_resolve():
    for name in facetcx.__all__:
        assert hasattr(facetcx, name), name


def test_every_public_import_is_listed():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public, "no imports found in facetcx/__init__.py"
    assert sorted(public - set(facetcx.__all__)) == []


def test_removed_graph_names_stay_gone():
    for name in REMOVED:
        assert name not in facetcx.__all__
        assert not hasattr(facetcx, name)
