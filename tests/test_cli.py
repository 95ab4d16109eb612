import json
import time

import pytest

from facetcx import (
    build_complex, cli, complete_complex, complexity, generate, samples, skeleton, verify,
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


def _count_compute(monkeypatch, tmp_path, source, target):
    """Calls to ``complexity.compute`` for ``source`` onto ``target``, and the paths."""
    real, calls = complexity.compute, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(complexity, "compute", counting)
    monkeypatch.setattr(cli, "compute", counting)
    paths = []
    for name, c in (("source", source), ("target", target)):
        (tmp_path / name).write_text(serialize_scx(c))
        paths.append(str(tmp_path / name))
    return calls, paths


def _kn_edges(n):
    return skeleton(complete_complex(n), 1)


def test_complexity_solves_once(capsys, tmp_path, monkeypatch):
    """For K4 edges onto an edge the graph_lower query is the query itself."""
    calls, paths = _count_compute(monkeypatch, tmp_path, _kn_edges(4), complete_complex(2))
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
            calls, paths = _count_compute(patch, tmp_path, source, target)
            code, out, _ = run(capsys, "complexity", *paths, "--node-budget", budget, "--json")
        data = json.loads(out)
        assert code == 4 and len(calls) == 1
        assert data["value"] == "undecided"
        assert data["bounds"]["graph_lower"] is None


def test_time_budget_bounds_the_whole_query(capsys, tmp_path, monkeypatch):
    """No single search of K6 edges onto an edge nears the budget; the
    cover search as a whole runs for about 0.1 s."""
    calls, paths = _count_compute(monkeypatch, tmp_path, _kn_edges(6), complete_complex(2))
    code, out, err = run(capsys, "complexity", *paths, "--time-budget", "0.01", "--json")
    assert (code, err, len(calls)) == (4, "", 1)
    assert json.loads(out)["value"] == "undecided"


def test_time_budget_holds_at_a_raised_cap(capsys, tmp_path, monkeypatch):
    """K7 edges plus a disjoint triangle are 24 symmetric facets: the cover
    search walks facet orbits as it probes them, not all 2**24 masks up
    front, so the budget stops it after about 0.5 s."""
    triangle = build_complex([("x", "y"), ("y", "z"), ("x", "z")])
    source = build_complex(_kn_edges(7).facet_lists() + triangle.facet_lists())
    calls, paths = _count_compute(monkeypatch, tmp_path, source, complete_complex(2))
    start = time.monotonic()
    code, out, err = run(
        capsys, "complexity", *paths, "--facet-cap", "25", "--time-budget", "0.5", "--json"
    )
    assert time.monotonic() - start < 5
    assert (code, err, len(calls)) == (4, "", 1)
    assert json.loads(out)["value"] == "undecided"


def test_node_budget_bounds_the_whole_query(capsys, tmp_path, monkeypatch):
    """No single search of K6 edges onto an edge nears 200 nodes; the
    cover search as a whole takes about 1 500."""
    calls, paths = _count_compute(monkeypatch, tmp_path, _kn_edges(6), complete_complex(2))
    code, out, err = run(capsys, "complexity", *paths, "--node-budget", "200", "--json")
    assert (code, err, len(calls)) == (4, "", 1)
    data = json.loads(out)
    assert data["value"] == "undecided" and 200 <= data["nodes"] <= 201


def test_graph_lower_gets_what_the_solve_left(capsys, tmp_path, monkeypatch):
    """The bowtie's edge-graph query differs from the query, so bounds
    solves it, with the nodes and time the full solve left."""
    bowtie, tailed = samples.load("shaded_bowtie"), samples.load("tailed_triangle")
    calls, paths = _count_compute(monkeypatch, tmp_path, bowtie, tailed)
    code, out, _ = run(
        capsys, "complexity", *paths, "--node-budget", "100000", "--time-budget", "100",
        "--json",
    )
    data = json.loads(out)
    assert code == 0 and len(calls) == 2
    solve, graph = calls[0].limits, calls[1].limits
    assert (solve.max_nodes, solve.max_seconds) == (100_000, 100)
    assert graph.max_nodes == 100_000 - data["nodes"]
    assert graph.max_seconds < 100


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


def test_verify_failure_writes_bundle(capsys, tmp_path, monkeypatch):
    failing = VerifyReport(
        config=VerifyConfig(seed=1, trials=1),
        passed={"doomed": 0},
        failures=[
            Failure(
                suite="doomed",
                check="check_doom",
                trial=0,
                detail="synthetic failure",
                bundle='{"check": "check_doom", "instances": {}}',
            )
        ],
    )
    monkeypatch.setattr(verify, "run_verify", lambda cfg: failing)
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
