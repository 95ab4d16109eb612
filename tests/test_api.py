import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import facetcx
from facetcx import samples
from facetcx.scx import serialize_scx

REMOVED = (
    "GraphView", "underlying_graph", "graph_as_complex", "graph_chromatic_number",
    "group_feasible",
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
import facetcx
print(json.dumps([facetcx.samples.__name__, facetcx.oracle.__name__, facetcx.verify.__name__]))
"""
    assert _fresh_python(code) == ["facetcx.samples", "facetcx.oracle", "facetcx.verify"]
