import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from facetcx import (
    FeasibilityCache,
    SearchLimits,
    SearchProblem,
    UndecidedError,
    boundary_complex,
    build_complex,
    classify,
    cli,
    closure,
    complete_complex,
    find_map,
    generate,
)
from facetcx.complexes import _bits
from facetcx.homsearch import DEPTH_EXHAUSTED, TIME_EXHAUSTED, _Budget
from facetcx.scx import serialize_scx

PINS = Path(__file__).with_name("homsearch_pins.json")
KINDS = (("facet", False), ("facet", True), ("strict", False), ("strict", True))


def test_whole_bowtie_has_no_facet_map(bowtie, tailed):
    res = find_map(SearchProblem(bowtie, tailed, "facet"))
    assert not res.found
    assert res.map is None


def test_whole_bowtie_has_strict_map(bowtie, tailed):
    res = find_map(SearchProblem(bowtie, tailed, "strict"))
    assert res.found
    cls = classify(res.map)
    assert cls.strict and cls.simplicial


def test_found_map_matches_requested_kind(bowtie, tailed):
    for kind in ("facet", "strict"):
        for inj in (False, True):
            res = find_map(SearchProblem(bowtie, tailed, kind, inj))
            if not res.found:
                continue
            cls = classify(res.map)
            assert cls.facet if kind == "facet" else cls.strict
            assert cls.injective or not inj


def test_injective_needs_room(bowtie, tailed):
    # 5 source vertices cannot inject into 4 target vertices
    res = find_map(SearchProblem(bowtie, tailed, "strict", injective=True))
    assert not res.found


def test_budget_exhaustion_raises():
    big = complete_complex(7)
    hollow = boundary_complex(6)
    with pytest.raises(UndecidedError) as exc:
        find_map(SearchProblem(big, hollow, "facet", False, SearchLimits(max_nodes=2)))
    assert exc.value.nodes <= 3


def test_budget_check_reports_reason_and_nodes():
    """``check`` records the nodes spent and returns the next checkpoint:
    the node past the cap, or the next multiple of 1024, where the clock
    is read."""
    budget = _Budget(SearchLimits(max_nodes=3000, max_seconds=5.0))
    assert (budget.check(4), budget.nodes) == (1024, 4)
    assert budget.check(2048) == 3001
    assert _Budget(SearchLimits(max_nodes=10)).check(4) == 11
    with pytest.raises(UndecidedError) as exc:
        budget.check(3001)
    assert (exc.value.nodes, exc.value.reason) == (3001, "node budget exhausted")
    assert budget.nodes == 3001
    budget = _Budget(SearchLimits(max_seconds=5.0))
    budget.deadline -= 5.0
    with pytest.raises(UndecidedError) as exc:
        budget.check(3)
    assert (exc.value.nodes, exc.value.reason) == (3, TIME_EXHAUSTED)


def test_cache_budget_covers_all_its_searches(bowtie, tailed):
    """Each search gets what the earlier ones left, and the error reports
    the nodes of all of them."""
    # one facet is answered without a search, so spend on pairs of facets
    pairs = [m for m in range(1 << len(bowtie.facets)) if m.bit_count() == 2]
    spent = FeasibilityCache(bowtie, tailed, "facet", False)
    for mask in pairs:
        spent.feasible(mask)
    assert spent.searches > 1
    cache = FeasibilityCache(
        bowtie, tailed, "facet", False, limits=SearchLimits(max_nodes=spent.nodes - 1)
    )
    with pytest.raises(UndecidedError) as exc:
        for mask in pairs:
            cache.feasible(mask)
    assert exc.value.nodes == spent.nodes


def test_empty_source_maps_anywhere(tailed):
    res = find_map(SearchProblem(build_complex([]), tailed, "facet"))
    assert res.found
    assert res.map.as_dict() == {}


def test_nonempty_source_empty_target():
    res = find_map(SearchProblem(complete_complex(2), build_complex([]), "facet"))
    assert not res.found


def test_edge_to_triangle_strict_but_not_facet():
    edge = complete_complex(2)
    tri = complete_complex(3)
    assert find_map(SearchProblem(edge, tri, "strict")).found
    assert not find_map(SearchProblem(edge, tri, "facet")).found


def test_group_feasibility(bowtie, tailed):
    # {abc, cd} admits a facet map; all four facets together do not
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    index = {frozenset(f): 1 << i for i, f in enumerate(bowtie.facet_sets())}
    assert cache.feasible(index[frozenset("abc")] | index[frozenset("cd")])
    assert not cache.feasible((1 << len(bowtie.facets)) - 1)


def test_feasibility_cache_hereditary(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    sub = 1 | (1 << 1)  # facets abc and cd in canonical order
    assert cache.feasible(sub)
    searched = cache.searches
    # any subset of a feasible group is answered without a new search
    assert cache.feasible(1)
    assert cache.searches == searched
    assert cache.certificate(sub) is not None


def test_cache_infeasible_superset_shortcut(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    # facets cd, ce, de: the triangle-free wheel around c and the edge de
    bad = (1 << 1) | (1 << 2) | (1 << 3)
    if cache.feasible(bad):
        pytest.skip("expected infeasible group")
    searched = cache.searches
    assert not cache.feasible(bad | 1)  # superset decided by shortcut
    assert cache.searches == searched


def test_certificate_of_infeasible_group_raises(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    everything = (1 << len(bowtie.facets)) - 1
    assert not cache.feasible(everything)
    with pytest.raises(ValueError, match="infeasible"):
        cache.certificate(everything)


def test_cache_rejects_masks_outside_its_facets(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    for probe in (cache.feasible, cache.certificate):
        for mask in (1 << 40, 1 << len(bowtie.facets), -1):
            with pytest.raises(ValueError, match="mask"):
                probe(mask)
    assert cache.searches == 0


def test_cache_counts_probes_by_rule(bowtie, tailed):
    cache = FeasibilityCache(bowtie, tailed, "facet", False)
    abc, cd, ce, de = (1 << i for i in range(4))
    assert cache.feasible(cd)  # one facet: the target has an edge
    # abc -> a'b'c', d -> c', e -> d' also maps ce onto c'd'; cd folds
    assert cache.feasible(abc | de)  # search
    assert cache.feasible(abc | de)  # below abc + ce + de, which the search certified
    assert cache.feasible(ce | de)  # below abc + ce + de
    assert not cache.feasible(cd | ce | de)  # search
    assert not cache.feasible(abc | cd | ce | de)  # above cd + ce + de
    assert cache.answered_by == {
        "one_facet": 1, "below_feasible": 2, "above_infeasible": 1,
        "pigeonhole": 0, "search": 2,
    }
    assert cache.searches == 2
    # a certificate for a group answered without its own search runs one
    assert cache.certificate(ce | de).source == closure(bowtie, [("c", "e"), ("d", "e")])
    assert cache.searches == 3
    # c -> d', d -> c', e -> d' grows over abc: a -> c' and b folds onto c'
    assert cache.feasible(cd | de)  # search
    assert cache.feasible(abc | cd)  # below abc + cd + de
    assert cache.answered_by == {
        "one_facet": 1, "below_feasible": 3, "above_infeasible": 1,
        "pigeonhole": 0, "search": 3,
    }

    injective = FeasibilityCache(bowtie, tailed, "facet", True)
    # abc + cd + de spans five vertices, one more than the target has
    assert not injective.feasible(abc | cd | de)  # pigeonhole
    assert not injective.feasible(abc | cd | ce | de)  # pigeonhole again
    assert injective.searches == 0 and injective._infeasible_min == []
    # both edges must map onto c'd', which cannot hold c, d and e injectively
    assert not injective.feasible(cd | ce | de)  # search
    assert injective.answered_by == {
        "one_facet": 0, "below_feasible": 0, "above_infeasible": 0,
        "pigeonhole": 2, "search": 1,
    }

    # with a fifth, isolated target vertex abc + cd + de is searched; it
    # fails, and so does its core around de, cd + de, for the reason above
    wider = build_complex(tailed.facet_lists(), explicit_vertices=["e'"])
    injective = FeasibilityCache(bowtie, wider, "facet", True)
    assert not injective.feasible(abc | cd | de)  # search, then search the core
    assert injective._infeasible_min == [cd | de]
    assert not injective.feasible(cd | ce | de)  # above cd + de
    assert injective.answered_by == {
        "one_facet": 0, "below_feasible": 0, "above_infeasible": 1,
        "pigeonhole": 0, "search": 2,
    }


def _random_pair(rng):
    source = generate("random", rng.randint(3, 8), {
        "seed": rng.randrange(10**6), "density": rng.uniform(0.2, 0.6),
        "max_facet_size": rng.choice((2, 3, 4))})
    target = generate("random", rng.randint(2, 6), {
        "seed": rng.randrange(10**6), "density": rng.uniform(0.2, 0.7),
        "max_facet_size": rng.choice((2, 3, 4))})
    return source, target


@pytest.mark.parametrize("kind, injective", KINDS)
def test_one_facet_verdict_matches_search(kind, injective):
    """A group of one facet is decided from the target's candidate table,
    with no search, and the verdict is the search's: on random targets
    with and without isolated vertices, and on the empty target and
    targets of lone vertices."""
    rng = random.Random(f"one facet {kind}-{injective}")
    verdicts = []
    for trial in range(60):
        source, target = _random_pair(rng)
        wide = [target.members(g) for g in target.facets if g.bit_count() >= 2]
        targets = [build_complex(wide), build_complex(wide, explicit_vertices=["z"])]
        if trial < 3:
            targets.append(build_complex([], explicit_vertices=["x", "y"][:trial]))
        for target in targets:
            cache = FeasibilityCache(source, target, kind, injective)
            for i, f in enumerate(source.facets):
                verdict = cache.feasible(1 << i)
                problem = SearchProblem(source, target, kind, injective, group=1 << i)
                assert verdict == find_map(problem).found
                verdicts.append((f.bit_count(), verdict))
            assert cache.searches == 0
            assert cache.answered_by["one_facet"] == len(source.facets)
    # both verdicts occur for lone vertices and for larger facets
    assert {(size >= 2, v) for size, v in verdicts} == {
        (False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("kind, injective", KINDS)
def test_witness_closure_records_only_mappable_groups(kind, injective):
    """Soundness of the recorded verdicts: a fresh search confirms every
    mask a found map records as feasible, grown groups included, and
    every mask a failed search or a local nogood records as infeasible."""
    rng = random.Random(f"witness closure {kind}-{injective}")
    grown = new_vertices = cores = 0
    for _ in range(300):
        source, target = _random_pair(rng)
        if len(source.facets) > 8:
            continue
        cache = FeasibilityCache(source, target, kind, injective)
        groups = list(range(1, 1 << len(source.facets)))
        rng.shuffle(groups)
        for group in groups:
            searched = cache.searches
            if not cache.feasible(group):
                # searched, then its core searched and found infeasible
                cores += cache.searches == searched + 2 and group not in cache._infeasible_min
                continue
            if cache.searches == searched:
                continue
            recorded = cache._feasible_max[-1]
            if recorded == group:
                continue
            grown += 1
            vertices = 0
            for i in _bits(group):
                vertices |= source.facets[i]
            assert recorded & group == group
            new_vertices += any(source.facets[i] & ~vertices for i in _bits(recorded & ~group))
            assert find_map(SearchProblem(source, target, kind, injective, group=recorded)).found
        for mask, found in [(m, True) for m in cache._feasible_max] + [
                (m, False) for m in cache._infeasible_min]:
            problem = SearchProblem(source, target, kind, injective, group=mask)
            assert find_map(problem).found == found
    assert grown >= 10
    assert new_vertices >= 10  # growth placed vertices the search had not
    assert cores >= 10  # a local nogood recorded a smaller infeasible group


@pytest.mark.parametrize(
    "kind, injective",
    [("facet", False), ("facet", True), ("strict", False), ("strict", True)],
)
def test_group_search_matches_search_on_closure(kind, injective):
    """Searching a group on the source's facet masks takes the same steps
    and finds the same map as searching the subcomplex it generates."""
    rng = random.Random(f"{kind}-{injective}")
    found = 0
    for _ in range(40):
        source = generate("random", rng.randint(3, 8), {
            "seed": rng.randrange(10**6), "density": rng.uniform(0.2, 0.6)})
        target = generate("random", rng.randint(2, 6), {
            "seed": rng.randrange(10**6), "density": rng.uniform(0.2, 0.7)})
        cache = FeasibilityCache(source, target, kind, injective)
        for _ in range(4):
            group = rng.randrange(1 << len(source.facets))
            chosen = [source.members(source.facets[i]) for i in range(len(source.facets))
                      if group >> i & 1]
            reference = find_map(SearchProblem(closure(source, chosen), target, kind, injective))
            probe = find_map(SearchProblem(source, target, kind, injective, group=group))
            assert (probe.found, probe.nodes) == (reference.found, reference.nodes)
            assert probe.map is None
            assert cache.feasible(group) == reference.found
            if reference.found:
                found += 1
                assert probe.images == reference.map.assignment
                assert cache.certificate(group) == reference.map
    assert found >= 20  # the comparison covers found maps, not only failures


def _pin_complex(spec: dict):
    return generate("random", spec["n"], {k: v for k, v in spec.items() if k != "n"})


def _pin_problems(count: int = 200) -> list[dict]:
    """Seeded problems shaped like the benchmark's random pairs: sources
    of 6-9 vertices, targets of 3-6, all four kinds, and every other
    block of four a ``group`` probe instead of the whole source."""
    rng = random.Random("homsearch pins")
    problems = []
    for i in range(count):
        kind, injective = KINDS[i % len(KINDS)]
        source, target = (
            {"n": rng.randint(*n), "seed": rng.randrange(1 << 30),
             "density": round(rng.uniform(*density), 3),
             "max_facet_size": rng.choice((2, 3))}
            for n, density in (((6, 9), (0.15, 0.45)), ((3, 6), (0.3, 0.8)))
        )
        group = None
        if i // len(KINDS) % 2:
            group = rng.randrange(1, 1 << len(_pin_complex(source).facets))
        problems.append({"source": source, "target": target, "kind": kind,
                         "injective": injective, "group": group})
    return problems


def _pin_search(pin: dict):
    return find_map(SearchProblem(
        _pin_complex(pin["source"]), _pin_complex(pin["target"]), pin["kind"],
        pin["injective"], group=pin["group"],
    ))


def test_look_ahead_keeps_the_first_map_and_cuts_nodes():
    """Differential check against the search without look-ahead.

    ``homsearch_pins.json`` holds ``_pin_problems()`` with the
    ``(found, images, nodes)`` that ``find_map`` returned at commit
    34b4555, the last one without look-ahead; running this file as a
    script on such a checkout rewrites it.  Look-ahead only drops
    subtrees holding no map, so each search must find the same first
    map (or none) in no more nodes, and in fewer nodes overall.
    """
    pins = json.loads(PINS.read_text())
    assert [{k: pin[k] for k in ("source", "target", "kind", "injective", "group")}
            for pin in pins] == _pin_problems()
    before = after = 0
    for pin in pins:
        res = _pin_search(pin)
        assert (res.found, list(res.images)) == (pin["found"], pin["images"])
        assert res.nodes <= pin["nodes"]
        before += pin["nodes"]
        after += res.nodes
    assert after < before
    assert sum(pin["found"] for pin in pins) >= 40  # found maps are compared too


# Small searches the look-ahead cuts: source facets, target facets, kind,
# injectivity, the first map found (None when there is none) and the
# nodes spent, rejected placements included.
PRUNED = [
    # Stage ac places c->A, a->C; stage bd tries d->A first, which would
    # give cd the image A twice: rejected as node 3.  d->C and b->A then
    # finish the map at node 5; without look-ahead the search spends 7.
    ([("a", "c"), ("b", "d"), ("c", "d")], [("A", "C", "D")], "strict", False,
     {"a": "C", "b": "A", "c": "A", "d": "C"}, 5),
    # Stage ab maps onto AD, then onto BD.  Under AD, a->D and then b->A
    # (node 4) would leave bc needing D, which a uses: rejected, and so is
    # b->B under BD (node 8).  No map; without look-ahead, 10 nodes.
    ([("a", "b"), ("a", "c"), ("b", "c")], [("A", "B", "C"), ("A", "D"), ("B", "D")],
     "facet", True, None, 8),
]


@pytest.mark.parametrize("source, target, kind, injective, first, nodes", PRUNED,
                         ids=["strict-repeated-image", "facet-injective-used-vertex"])
def test_rejected_placement_counts_as_a_node(source, target, kind, injective, first, nodes):
    problem = SearchProblem(build_complex(source), build_complex(target), kind, injective)
    res = find_map(problem)
    assert (res.map.as_dict() if res.found else None, res.nodes) == (first, nodes)
    assert find_map(replace(problem, limits=SearchLimits(nodes))).nodes == nodes
    with pytest.raises(UndecidedError) as exc:
        find_map(replace(problem, limits=SearchLimits(nodes - 1)))
    assert exc.value.nodes == nodes


@pytest.mark.parametrize("command", [
    ["map-check", "{S}", "{T}", "--kind", "strict", "--node-budget", "4"],
    ["complexity", "{S}", "{T}", "--strict", "--node-budget", "4", "--json"],
])
def test_node_budget_on_pruned_search_exits_4(capsys, tmp_path, command):
    source, target = PRUNED[0][:2]
    paths = {"{S}": tmp_path / "s.scx", "{T}": tmp_path / "t.scx"}
    paths["{S}"].write_text(serialize_scx(build_complex(source)))
    paths["{T}"].write_text(serialize_scx(build_complex(target)))
    code = cli.run([str(paths.get(arg, arg)) for arg in command])
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    if command[0] == "map-check":
        assert out.startswith("UNDECIDED")
    else:
        assert json.loads(out)["value"] == "undecided"


def _edge_plus_isolated(count: int):
    return build_complex([("a", "b")] + [(f"v{i:02d}",) for i in range(count)])


@pytest.mark.parametrize("injective", [False, True])
def test_budget_runs_out_while_placing_free_vertices(injective):
    """The edge takes 2 nodes and each isolated vertex one more, so a cap
    of 5 runs out among the free vertices, at the node past the cap."""
    problem = SearchProblem(_edge_plus_isolated(20), _edge_plus_isolated(28),
                            "facet", injective)
    res = find_map(problem)
    assert (res.found, res.nodes) == (True, 22)
    with pytest.raises(UndecidedError) as exc:
        find_map(replace(problem, limits=SearchLimits(max_nodes=5)))
    assert exc.value.nodes == 6


def test_map_check_budget_runs_out_while_placing_free_vertices(capsys, tmp_path):
    source, target = tmp_path / "s.scx", tmp_path / "t.scx"
    source.write_text(serialize_scx(_edge_plus_isolated(20)))
    target.write_text(serialize_scx(_edge_plus_isolated(28)))
    code = cli.run(["map-check", str(source), str(target), "--node-budget", "5"])
    assert (code, capsys.readouterr().out) == (4, "UNDECIDED after 6 nodes\n")


def test_stack_exhaustion_is_undecided(deep_path):
    """The search recurses a frame per stage and per placed vertex, so a
    path past the recursion limit outruns the stack: that is a search out
    of budget, not a crash."""
    with pytest.raises(UndecidedError) as exc:
        find_map(SearchProblem(deep_path, complete_complex(2)))
    assert exc.value.reason == DEPTH_EXHAUSTED
    assert 0 < exc.value.nodes < 1500


def test_map_check_on_a_deep_source_exits_4(capsys, tmp_path, deep_path):
    source, target = tmp_path / "path.scx", tmp_path / "edge.scx"
    source.write_text(serialize_scx(deep_path))
    target.write_text(serialize_scx(complete_complex(2)))
    code = cli.run(["map-check", str(source), str(target), "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    assert json.loads(out)["found"] == "undecided"


if __name__ == "__main__":
    # Pins the search this file compares against; see the differential test.
    pins = []
    for problem in _pin_problems():
        res = _pin_search(problem)
        pins.append({**problem, "found": res.found, "images": list(res.images),
                     "nodes": res.nodes})
    PINS.write_text("[\n" + ",\n".join(json.dumps(pin) for pin in pins) + "\n]\n")
