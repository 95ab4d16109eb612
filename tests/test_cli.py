import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from facetcx import (
    VertexMap, build_complex, cli, coloring, complete_complex, complexity, generate, homsearch,
    samples, skeleton, verify,
)
from facetcx.scx import serialize_scx
from facetcx.verify import Failure, VerifyConfig, VerifyReport


@pytest.fixture()
def fixture_files(tmp_path):
    l_path = tmp_path / "EX_L.scx"
    k_path = tmp_path / "EX_K.scx"
    l_path.write_text(serialize_scx(samples.load("shaded_bowtie")))
    k_path.write_text(serialize_scx(samples.load("tailed_triangle")))
    return str(l_path), str(k_path)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complexity_example(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(capsys, "complexity", l_path, k_path)
    assert code == 0
    assert out.splitlines()[0] == "value: 2"
    assert out.count("group ") == 2


def test_map_check_example(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(capsys, "map-check", l_path, k_path, "--kind", "facet")
    assert code == 3
    assert out.strip() == "NONE"


def test_map_check_finds_strict(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(capsys, "map-check", l_path, k_path, "--kind", "strict")
    assert code == 0
    assert out.startswith("m a ")


def test_map_check_undecided(capsys, tmp_path):
    from facetcx import generate

    a = tmp_path / "a.scx"
    b = tmp_path / "b.scx"
    a.write_text(serialize_scx(generate("random", 7, {"seed": 3})))
    b.write_text(serialize_scx(generate("random", 6, {"seed": 9, "density": 0.3})))
    code, out, _ = run(
        capsys, "map-check", str(a), str(b), "--node-budget", "3"
    )
    assert code == 4
    assert "UNDECIDED" in out


def test_map_check_classify_mode(capsys, fixture_files, tmp_path):
    l_path, k_path = fixture_files
    map_path = tmp_path / "fold.map"
    map_path.write_text("m a a'\nm b b'\nm c c'\nm d b'\nm e a'\n")
    code, out, _ = run(
        capsys, "map-check", l_path, k_path, "--kind", "strict",
        "--map", str(map_path),
    )
    assert code == 0
    assert "satisfies requested kind: yes" in out
    code, out, _ = run(
        capsys, "map-check", l_path, k_path, "--kind", "facet",
        "--map", str(map_path),
    )
    assert code == 0
    assert "satisfies requested kind: no" in out


def test_complexity_json_schema(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(
        capsys, "complexity", l_path, k_path, "--injective", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["kind"] == "facet"
    assert data["injective"] is True
    assert data["value"] == 3
    assert len(data["cover"]) == 3
    for group in data["cover"]:
        assert set(group) == {"facets", "map"}
    assert data["bounds"]["finite"] is True


def test_complexity_infinite_value(capsys, tmp_path, write_scx):
    edge = write_scx("f a b\n", "edge.scx")
    tri = write_scx("f x y z\n", "tri.scx")
    code, out, _ = run(capsys, "complexity", edge, tri, "--json")
    assert code == 0
    assert json.loads(out)["value"] == "infinity"


def test_complexity_bounds_only(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(capsys, "complexity", l_path, k_path, "--bounds-only")
    assert code == 0
    assert "chromatic lower:    2" in out
    assert "value:" not in out


def test_bounds_command(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(capsys, "bounds", l_path, k_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["graph_lower"] == 2
    assert data["bounds"]["eta_upper"] == 4


@pytest.mark.parametrize(
    "argv, code",
    [
        (["complexity", "k6", "k2", "--node-budget", "10"], 4),
        (["complexity", "k6", "k2", "--node-budget", "10", "--bounds-only"], 0),
        (["complexity", "bowtie", "tailed", "--node-budget", "1"], 4),
        (["complexity", "bowtie", "tailed", "--node-budget", "1", "--bounds-only"], 0),
        (["complexity", "m21", "tailed", "--bounds-only"], 0),
        (["bounds", "m21", "tailed"], 0),
    ],
    ids=["k6-budget", "k6-budget-bounds-only", "bowtie-budget",
         "bowtie-budget-bounds-only", "m21-bounds-only", "m21-bounds"],
)
def test_bounds_survive_failed_graph_lower(capsys, tmp_path, argv, code):
    """The graph_lower sub-solve runs out of budget or exceeds the cap."""
    complexes = {
        "k6": skeleton(complete_complex(6), 1),
        "k2": complete_complex(2),
        "bowtie": samples.load("shaded_bowtie"),
        "tailed": samples.load("tailed_triangle"),
        "m21": build_complex([(f"u{i}", f"v{i}") for i in range(21)]),
    }
    for name in argv[1:3]:
        (tmp_path / name).write_text(serialize_scx(complexes[name]))
    argv = [argv[0], *(str(tmp_path / n) for n in argv[1:3]), *argv[3:], "--json"]
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    data = json.loads(out)
    assert data.get("value") == ("undecided" if code == 4 else None)
    assert data["bounds"]["finite"] is True


def test_bounds_only_chromatic_search_keeps_to_the_time_budget(capsys, tmp_path):
    """Colouring this 40-vertex graph runs for longer than any test; the
    query's time budget stops it, and the bound is left out, under both
    commands that report bounds without solving."""
    dense = generate("random", 40, {"seed": 5, "density": 0.5, "max_facet_size": 2})
    paths = []
    for name, c in (("r40.scx", dense), ("e.scx", complete_complex(2))):
        (tmp_path / name).write_text(serialize_scx(c))
        paths.append(str(tmp_path / name))
    for command in (["complexity", *paths, "--bounds-only"], ["bounds", *paths]):
        start = time.monotonic()
        code, out, err = run(capsys, *command, "--time-budget", "0.3", "--json")
        assert time.monotonic() - start < 5
        assert (code, err) == (0, "")
        assert json.loads(out)["bounds"]["chromatic_lower"] is None


def _count_solves(monkeypatch, tmp_path, source, target):
    """Solves for ``source`` onto ``target``, and the paths.

    Counts the runs that reach the optimum entry, which ``compute`` and
    the ``graph_lower`` sub-solve of ``bounds`` both go through, so one
    call means the run solved once.
    """
    real, calls = complexity._Run.optimum, []

    def counting(run, *args, **kwargs):
        calls.append(run)
        return real(run, *args, **kwargs)

    monkeypatch.setattr(complexity._Run, "optimum", counting)
    return calls, _paths(tmp_path, source, target)


def _paths(tmp_path, source, target):
    """``source`` and ``target`` written as ``.scx`` files, and their paths."""
    paths = []
    for name, c in (("source", source), ("target", target)):
        (tmp_path / name).write_text(serialize_scx(c))
        paths.append(str(tmp_path / name))
    return paths


def _kn_edges(n):
    return skeleton(complete_complex(n), 1)


def test_complexity_solves_once(capsys, tmp_path, monkeypatch):
    """For K4 edges onto an edge the graph_lower query is the query itself."""
    calls, paths = _count_solves(monkeypatch, tmp_path, _kn_edges(4), complete_complex(2))
    code, out, _ = run(capsys, "complexity", *paths, "--json")
    data = json.loads(out)
    assert code == 0 and len(calls) == 1
    assert data["value"] == data["bounds"]["graph_lower"] == 2


def test_undecided_complexity_solves_once(capsys, tmp_path, monkeypatch):
    """An undecided run spent the budget, so graph_lower does not search
    again, also when its edge-graph query differs from the query (bowtie)."""
    cases = [
        (_kn_edges(6), complete_complex(2), "10"),
        (samples.load("shaded_bowtie"), samples.load("tailed_triangle"), "1"),
    ]
    for source, target, budget in cases:
        with monkeypatch.context() as patch:
            calls, paths = _count_solves(patch, tmp_path, source, target)
            code, out, _ = run(capsys, "complexity", *paths, "--node-budget", budget, "--json")
        data = json.loads(out)
        assert code == 4 and len(calls) == 1
        assert data["value"] == "undecided"
        assert data["bounds"]["graph_lower"] is None


def test_time_budget_bounds_the_whole_query(capsys, tmp_path, monkeypatch):
    """No single search of the triangles of K6 into a triangle (strict)
    nears the budget; the cover search as a whole runs for about 0.4 s
    over 912 nodes."""
    source = skeleton(complete_complex(6), 2)
    calls, paths = _count_solves(monkeypatch, tmp_path, source, complete_complex(3))
    code, out, err = run(
        capsys, "complexity", *paths, "--kind", "strict", "--time-budget", "0.01", "--json"
    )
    assert (code, err, len(calls)) == (4, "", 1)
    assert json.loads(out)["value"] == "undecided"


def test_time_budget_holds_at_a_raised_cap(capsys, tmp_path, monkeypatch):
    """K7 edges plus a disjoint triangle are 24 symmetric facets: the cover
    search walks facet orbits as it probes them, not all 2**24 masks up
    front, so the budget stops it after about 0.5 s."""
    triangle = build_complex([("x", "y"), ("y", "z"), ("x", "z")])
    source = build_complex(_kn_edges(7).facet_lists() + triangle.facet_lists())
    calls, paths = _count_solves(monkeypatch, tmp_path, source, complete_complex(2))
    start = time.monotonic()
    code, out, err = run(
        capsys, "complexity", *paths, "--facet-cap", "25", "--time-budget", "0.5", "--json"
    )
    assert time.monotonic() - start < 5
    assert (code, err, len(calls)) == (4, "", 1)
    assert json.loads(out)["value"] == "undecided"


def test_node_budget_bounds_the_whole_query(capsys, tmp_path, monkeypatch):
    """No single search of K6 edges onto an edge nears 200 nodes; the
    cover search as a whole takes 290."""
    calls, paths = _count_solves(monkeypatch, tmp_path, _kn_edges(6), complete_complex(2))
    code, out, err = run(capsys, "complexity", *paths, "--node-budget", "200", "--json")
    assert (code, err, len(calls)) == (4, "", 1)
    data = json.loads(out)
    assert data["value"] == "undecided" and 200 <= data["nodes"] <= 201


def test_graph_lower_gets_what_the_solve_left(capsys, tmp_path, monkeypatch):
    """The bowtie's edge-graph query differs from the query, so bounds
    solves it, on the budget the full solve charged: the optimum entry
    runs for the solve and again for the sub-solve."""
    bowtie, tailed = samples.load("shaded_bowtie"), samples.load("tailed_triangle")
    calls, paths = _count_solves(monkeypatch, tmp_path, bowtie, tailed)
    start = time.monotonic()
    code, out, _ = run(
        capsys, "complexity", *paths, "--node-budget", "100000", "--time-budget", "100",
        "--json",
    )
    data = json.loads(out)
    assert code == 0 and len(calls) == 2
    budget = calls[0].budget
    assert calls[1].budget is budget
    assert budget.max_nodes == 100_000 and start + 100 <= budget.deadline <= time.monotonic() + 100
    assert budget.nodes > data["nodes"] > 0


def test_one_run_reads_finiteness_once(capsys, tmp_path, monkeypatch):
    """A full run builds the target's candidate rows for finiteness and
    for the cache's tables, once each; a bounds-only run builds them for
    finiteness alone, and its sub-solve of an empty edge graph none."""
    real, calls = homsearch._candidate_rows, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (homsearch, complexity):
        monkeypatch.setattr(module, "_candidate_rows", counting)
    cases = [
        (_kn_edges(4), complete_complex(2), (), 2),
        (complete_complex(3), complete_complex(2), ("--bounds-only",), 1),
    ]
    for source, target, flags, builds in cases:
        calls.clear()
        code, _, err = run(capsys, "complexity", *_paths(tmp_path, source, target), *flags)
        assert (code, err, len(calls)) == (0, "", builds)


def test_bounds_build_no_cover(capsys, tmp_path, monkeypatch):
    """``graph_lower`` is the edge problem's optimum: bounds search no
    certificate and check no cover, in the library and under
    ``--bounds-only``, while a full run checks its one cover."""
    bowtie, tailed = samples.load("shaded_bowtie"), samples.load("tailed_triangle")
    pairs = [(bowtie, tailed, 2), (_kn_edges(5), complete_complex(2), 3)]
    queries = [
        complexity.ComplexityQuery(source, target, kind, inj)
        for source, target, _ in pairs for kind, inj in verify.KINDS
    ]
    expected = [complexity.bounds(query) for query in queries]
    assert [b.graph_lower for b in expected] == [2, 2, None, None, 3, 3, None, None]

    def refuse(*args):
        raise AssertionError("bounds built a cover")

    with monkeypatch.context() as patch:
        patch.setattr(homsearch.FeasibilityCache, "certificate", refuse)
        patch.setattr(complexity, "check_cover", refuse)
        assert [complexity.bounds(query) for query in queries] == expected
        for source, target, graph_lower in pairs:
            paths = _paths(tmp_path, source, target)
            code, out, err = run(capsys, "complexity", *paths, "--bounds-only", "--json")
            assert (code, err) == (0, "")
            assert json.loads(out)["bounds"]["graph_lower"] == graph_lower

    real, checks = complexity.check_cover, []
    monkeypatch.setattr(complexity, "check_cover", lambda *a: checks.append(a) or real(*a))
    code, out, _ = run(capsys, "complexity", *_paths(tmp_path, bowtie, tailed), "--json")
    assert (code, json.loads(out)["value"], len(checks)) == (0, 2, 1)


def test_graph_bounds_read_two_colourings(capsys, tmp_path, monkeypatch):
    """An edge has ω = χ = 2, so ``graph_lower`` of K_n's edges onto it is
    ⌈log2 n⌉, read from colourings: no feasibility cache and no cover
    tables, and so none of the cap that bounds them (K7 has 21 edges)."""
    def refuse(*args):
        raise AssertionError("bounds ran the cover search")

    monkeypatch.setattr(complexity, "FeasibilityCache", refuse)
    monkeypatch.setattr(complexity, "_CoverDP", refuse)
    for argv, n in ((["complexity", "--bounds-only"], 6), (["bounds"], 7)):
        paths = _paths(tmp_path, _kn_edges(n), complete_complex(2))
        code, out, err = run(capsys, argv[0], *paths, *argv[1:], "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["bounds"]["graph_lower"] == 3


def _grotzsch():
    """The Grötzsch graph: 11 vertices, 20 edges, chromatic number 4."""
    edges = [("w", f"v{i}") for i in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        edges += [(f"u{i}", f"u{j}"), (f"v{i}", f"u{j}"), (f"u{i}", f"v{j}")]
    return build_complex(edges)


def _spent(monkeypatch):
    """Nodes charged by map searches and by colourings, and every budget
    either charged."""
    spent, budgets = {"map": 0, "colour": 0}, []

    def hook(kind, real, budget_of):
        def charging(*args):
            budget = budget_of(*args)
            budgets.append(budget)
            before = budget.nodes
            try:
                return real(*args)
            finally:
                spent[kind] += budget.nodes - before
        return charging

    searching = hook("map", homsearch.find_map, lambda p: p.limits)
    for module in (homsearch, complexity):
        monkeypatch.setattr(module, "find_map", searching)
    monkeypatch.setattr(coloring, "_search", hook("colour", coloring._search, lambda n, c, b: b))
    return spent, budgets


@pytest.mark.parametrize("argv, budget", [
    (["complexity", "--node-budget", "100"], 100),
    (["complexity", "--bounds-only", "--node-budget", "500"], 500),
    (["bounds", "--node-budget", "500"], 500),
    (None, 500),
], ids=["complexity", "bounds-only", "bounds", "library"])
def test_one_budget_for_the_whole_query(capsys, tmp_path, monkeypatch, argv, budget):
    """Colouring the Grötzsch graph takes about 100 nodes and its cover
    onto the 5-cycle many more: map searches and colourings, the
    graph_lower sub-solve's included, spend one budget in all.  The
    5-cycle has no triangle but needs three colours, so the sub-solve
    runs the cover search after its colourings and clique search."""
    source = _grotzsch()
    target = build_complex([(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)])
    spent, budgets = _spent(monkeypatch)
    if argv is None:
        limits = homsearch.SearchLimits(max_nodes=budget)
        b = complexity.bounds(complexity.ComplexityQuery(source, target, limits=limits))
        report = {"chromatic_lower": b.chromatic_lower, "graph_lower": b.graph_lower}
    else:
        paths = []
        for name, c in (("source", source), ("target", target)):
            (tmp_path / name).write_text(serialize_scx(c))
            paths.append(str(tmp_path / name))
        code, out, err = run(capsys, argv[0], *paths, *argv[1:], "--json")
        data = json.loads(out)
        assert (code, err) == (4 if "value" in data else 0, "")
        report = data["bounds"]
        if "value" in data:
            assert data["value"] == "undecided" and data["nodes"] == spent["map"] == budget + 1
    assert len({id(b) for b in budgets}) == 1
    assert sum(spent.values()) <= budget + 1
    assert report["graph_lower"] is None
    if budget == 500:
        assert spent["colour"] > 0 and spent["map"] > 0 and report["chromatic_lower"] == 2


def test_raised_facet_cap_past_the_tables_is_input_error(capsys, tmp_path):
    """K12 has 66 edges: the cover tables cannot be allocated, so the full
    run exits 2 with one line, while the bounds read graph_lower
    ⌈log2 χ(K12)⌉ = 4 from two colourings, which need no tables."""
    paths = []
    for name, c in (("k12", _kn_edges(12)), ("edge", complete_complex(2))):
        (tmp_path / name).write_text(serialize_scx(c))
        paths.append(str(tmp_path / name))
    code, out, err = run(capsys, "complexity", *paths, "--facet-cap", "100")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "66 constrained facets" in err and "cannot be allocated" in err
    code, out, err = run(
        capsys, "complexity", *paths, "--facet-cap", "100", "--bounds-only", "--json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["bounds"]["graph_lower"] == 4


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_time_budget_must_be_positive(capsys, fixture_files, budget):
    """A NaN budget would pass ``<= 0`` and never expire."""
    code, out, err = run(capsys, "complexity", *fixture_files, "--time-budget", budget)
    assert (code, out) == (2, "")
    assert "budgets must be positive" in err


@pytest.mark.parametrize(
    "pair, extra",
    [
        (("edge", "edge"), []),
        (("shaded_bowtie", "tailed_triangle"), []),
        (("edge", "point"), []),
        (("shaded_bowtie", "tailed_triangle"), ["--strict"]),
    ],
    ids=["edge-to-edge", "bowtie", "edge-to-point", "strict"],
)
def test_bounds_only_rejects_facet_cap_below_one(capsys, tmp_path, pair, extra):
    """Rejected at entry, whether or not the graph_lower sub-solve runs."""
    named = {"edge": build_complex([("a", "b")]), "point": build_complex([("p",)])}
    paths = []
    for i, name in enumerate(pair):
        path = tmp_path / f"{i}.scx"
        path.write_text(serialize_scx(named[name] if name in named else samples.load(name)))
        paths.append(str(path))
    code, out, err = run(
        capsys, "complexity", *paths, "--facet-cap", "0", "--bounds-only", *extra
    )
    assert (code, out) == (2, "")
    assert "facet_cap must be at least 1" in err


def test_parser_built_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert cli.run(["gen", "gamma", "2"]) == 0
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_chromatic_command(capsys, fixture_files):
    l_path, _ = fixture_files
    code, out, _ = run(capsys, "chromatic", l_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3
    assert set(data["witness"]) == {"a", "b", "c", "d", "e"}


def test_deep_source_colours_and_bounds(capsys, tmp_path, deep_path):
    """A path past the recursion limit: its colouring and its bounds into
    an edge are answered, not a traceback."""
    path = tmp_path / "path.scx"
    path.write_text(serialize_scx(deep_path))
    edge = tmp_path / "edge.scx"
    edge.write_text(serialize_scx(complete_complex(2)))
    code, out, err = run(capsys, "chromatic", str(path), "--json")
    assert (code, err, json.loads(out)["value"]) == (0, "", 2)
    code, out, err = run(capsys, "complexity", str(path), str(edge), "--bounds-only", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["bounds"]["chromatic_lower"] == 1


def test_chromatic_keeps_to_the_budget(capsys, tmp_path, fixture_files):
    """Colouring the 40-vertex graph runs for longer than any test; a
    budget makes each mode exit 4 with an undecided payload, while runs
    within their budget print what runs without the flags print (the
    goldens pin those)."""
    dense = generate("random", 40, {"seed": 5, "density": 0.5, "max_facet_size": 2})
    (tmp_path / "r40.scx").write_text(serialize_scx(dense))
    start = time.monotonic()
    code, out, err = run(capsys, "chromatic", str(tmp_path / "r40.scx"), "--time-budget", "1",
                         "--json")
    assert time.monotonic() - start < 5
    assert (code, err) == (4, "")
    data = json.loads(out)
    assert (data["mode"], data["value"]) == ("complex", "undecided") and data["nodes"] > 0
    for mode in (["--graph"], ["--strict"]):
        code, out, err = run(capsys, "chromatic", str(tmp_path / "r40.scx"), *mode,
                             "--node-budget", "50")
        assert (code, out, err) == (4, "UNDECIDED after 51 nodes\n", "")
    l_path, _ = fixture_files
    for mode in ([], ["--graph"], ["--strict"], ["--json"]):
        plain = run(capsys, "chromatic", l_path, *mode)
        assert plain[0] == 0
        assert run(capsys, "chromatic", l_path, *mode, "--node-budget", "1000",
                   "--time-budget", "100") == plain


def test_info_command(capsys, fixture_files):
    l_path, _ = fixture_files
    code, out, _ = run(capsys, "info", l_path)
    assert code == 0
    assert "dim:         2" in out


def test_gen_and_skeleton_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.scx"
    code, _, _ = run(capsys, "gen", "gamma", "4", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "skeleton", str(out_path), "1")
    assert code == 0
    assert out.count("f ") == 6  # the six edges of a filled tetrahedron


def test_gen_sample_names(capsys):
    for name in samples.names():
        code, out, _ = run(capsys, "gen", "sample", name)
        assert code == 0
        assert out.startswith(f"name {name}\n")


def test_gen_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "random", "6", "--seed", "5")
    code2, out2, _ = run(capsys, "gen", "random", "6", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_oracle_commands(capsys, fixture_files):
    l_path, k_path = fixture_files
    code, out, _ = run(capsys, "oracle", "complexity", l_path, k_path)
    assert code == 0
    assert out.strip() == "value (exhaustive): 2"
    code, out, _ = run(capsys, "oracle", "map-search", l_path, k_path)
    assert code == 3
    assert out.strip() == "NONE"
    code, out, _ = run(capsys, "oracle", "chromatic", l_path)
    assert code == 0
    assert "3" in out


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--suites", "coloring")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--trials", "3", "--suites", "structure", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suites"] == {"structure": 3}


def _failing_verify(monkeypatch):
    """Make ``verify`` report one failure, so that it writes a bundle."""
    failing = VerifyReport(
        config=VerifyConfig(seed=1, trials=1),
        passed={"doomed": 0},
        failures=[Failure(suite="doomed", check="check_doom", trial=0, detail="synthetic",
                          bundle='{"check": "check_doom", "instances": {}}')],
    )
    monkeypatch.setattr(verify, "run_verify", lambda cfg: failing)


def test_verify_failure_writes_bundle(capsys, tmp_path, monkeypatch):
    _failing_verify(monkeypatch)
    code, out, _ = run(capsys, "verify", "-o", str(tmp_path / "bundles"))
    assert code == 5
    assert "counterexample bundle:" in out
    written = list((tmp_path / "bundles").glob("counterexample-*.json"))
    assert len(written) == 1
    assert json.loads(written[0].read_text())["check"] == "check_doom"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "info", "no-such-file.scx")
    assert code == 2
    assert "cannot read" in err


def test_unwritable_output_is_one_line_usage_error(capsys, tmp_path, fixture_files, monkeypatch):
    """``-o`` into a missing directory, or below a plain file, exits 2
    with one line naming the path, for every command that writes."""
    l_path, _ = fixture_files
    _failing_verify(monkeypatch)
    missing, under_file = tmp_path / "missing" / "x.scx", f"{l_path}/sub"
    for argv, path in [
        (["gen", "gamma", "3", "-o", str(missing)], missing),
        (["gen", "sample", "shaded_bowtie", "-o", str(missing)], missing),
        (["skeleton", l_path, "1", "-o", str(missing)], missing),
        (["verify", "-o", under_file], f"{under_file}/counterexample-check_doom-0-0.json"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1, err


def test_unreadable_or_malformed_inputs_are_usage_errors(capsys, tmp_path, fixture_files):
    """``--map`` and ``--replay`` read through the same rule as complexes."""
    l_path, k_path = fixture_files
    nowhere = str(tmp_path / "nowhere")
    bad_map = tmp_path / "bad.map"
    bad_map.write_text("x a a'\n")
    for argv, message in [
        (["map-check", l_path, k_path, "--map", nowhere], f"cannot read {nowhere}: "),
        (["map-check", l_path, k_path, "--map", str(bad_map)],
         f"{bad_map}: line 1: expected 'm <source> <target>'"),
        (["verify", "--replay", nowhere], f"cannot read {nowhere}: "),
        (["skeleton", l_path, "-1"], "the skeleton dimension must be nonnegative"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(message) and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["scx", "--map", "--replay"])
def test_undecodable_input_is_usage_error(capsys, tmp_path, fixture_files, flag):
    """A file that is not UTF-8 exits 2 with one line naming it."""
    l_path, k_path = fixture_files
    bad = tmp_path / "latin1"
    bad.write_bytes("f caf\u00e9\n".encode("latin-1"))
    argv = {
        "scx": ["info", str(bad)],
        "--map": ["map-check", l_path, k_path, "--map", str(bad)],
        "--replay": ["verify", "--replay", str(bad)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {bad}: ") and err.count("\n") == 1, err


def test_failed_self_check_is_a_solver_fault(capsys, monkeypatch, fixture_files):
    """A cover that fails the solver's own ``check_cover`` is raised as a
    fault, not reported as bad input with exit 2."""
    tailed = samples.load("tailed_triangle")
    constant = VertexMap(tailed, tailed, (0,) * tailed.n)
    monkeypatch.setattr(homsearch.FeasibilityCache, "certificate", lambda self, mask: constant)
    query = complexity.ComplexityQuery(samples.load("shaded_bowtie"), tailed)
    with pytest.raises(RuntimeError, match="solver produced an invalid cover"):
        complexity.compute(query)
    with pytest.raises(RuntimeError):
        cli.run(["complexity", *fixture_files])


@pytest.mark.parametrize("argv", [["gen", "random", "9", "--seed", "3"], ["info", "L.scx"]])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv):
    """Output into a pipe that no process reads, as after ``| head -0``."""
    (tmp_path / "L.scx").write_text(serialize_scx(samples.load("shaded_bowtie")))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "facetcx", *argv], cwd=tmp_path, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_malformed_scx_is_usage_error(capsys, write_scx):
    bad = write_scx("q a b\n", "bad.scx")
    code, _, err = run(capsys, "info", bad)
    assert code == 2
    assert "line 1" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 2
    assert "usage:" in err


def test_unknown_sample(capsys):
    code, _, err = run(capsys, "gen", "sample", "nope")
    assert code == 2
    assert "unknown sample" in err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
