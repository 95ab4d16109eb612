"""Pinned canonical covers: the full answer of each pinned query.

Each row of ``cover_pins.json`` holds one query's value, its cover's
groups as tuples of source facet indices, each group's witness images
(target vertex indices over the group's vertices in canonical order),
every field of ``bounds(q)``, and ``nodes``, the solve's map-search
nodes.  The test recomputes every row and compares all of it, ``nodes``
included, so a change that moves only the search's steps shows too.
The rows:

* ``verify``: the queries of ``facetcx verify``'s instance stream with a
  finite value of at least 2, seeds 1-3 x 200 trials x the source/target
  pairs ``PAIRS`` x the four kinds, rebuilt with ``verify._instances``;
* ``family``: the edges of K4-K6 onto an edge, skeleta of K5 and K6 into
  a triangle (strict kind), the README fixtures in the four kinds, and
  three sources whose symmetry twin vertex swaps do not generate: the
  icosahedron into a triangle (strict), the Petersen graph onto the
  5-cycle and the octahedron's 1-skeleton K_{2,2,2} onto an edge;
* ``random``: the random pairs of the benchmark corpus with a finite
  value of at least 2, their complexes stored in the row as ``.scx``;
* ``family2d``: the 11 pairs of ROADMAP's 2-dimensional family (random
  sources of dimension 2 with 16-20 constrained facets), rebuilt from
  the ROADMAP's recipe by the regenerator and stored in the row as
  ``.scx`` like the ``random`` rows;
* ``tail20``: tails A, B and C of ROADMAP's 20-facet tail (random
  pairs of kind ``facet`` with 19-20 constrained facets, the slowest of
  its seeded draw), built from their ``generate`` arguments and stored
  as ``.scx`` like the ``random`` rows.

Regenerate with ``PYTHONPATH=src python tests/test_cover_pins.py`` only
when an answer or node change is intended; it prints each row that
changed and flags any change other than ``nodes``.
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

import facetcx
from facetcx import (
    ComplexityQuery, bounds, build_complex, complexity, compute, complete_complex,
    required_facet_indices, samples, skeleton,
)
from facetcx.complexes import generate
from facetcx.scx import parse_scx, serialize_scx
from facetcx.verify import VerifyConfig, _instances

PINS = Path(__file__).with_name("cover_pins.json")
SEEDS = (1, 2, 3)
TRIALS = 200
PAIRS = ("LH", "LK", "HK", "HL", "KL")
KINDS = (("facet", False), ("facet", True), ("strict", False), ("strict", True))
BOUND_FIELDS = (
    "finite", "eta_upper", "chromatic_lower", "graph_lower", "complete_target_ic", "exact",
)


def _num(x):
    return "infinity" if x == math.inf else x


def answer(source, target, kind: str, injective: bool) -> dict:
    """Everything a row pins about one query."""
    q = ComplexityQuery(source, target, kind, injective)
    res = compute(q)
    index = {f: i for i, f in enumerate(source.facet_sets())}
    groups = res.cover.groups if res.cover else ()
    b = bounds(q)
    return {
        "value": _num(res.value),
        "groups": [sorted(index[f] for f in g.facets) for g in groups],
        "images": [list(g.map.assignment) for g in groups],
        "bounds": {name: _num(getattr(b, name)) for name in BOUND_FIELDS},
        "nodes": res.nodes,
    }


def _key(*parts) -> str:
    return "/".join(str(p) for p in parts)


def _kind_name(kind: str, injective: bool) -> str:
    return kind + ("-inj" if injective else "")


def verify_queries():
    """Every query of the verify stream: (key, source, target, kind, injective)."""
    for seed in SEEDS:
        cfg = VerifyConfig(seed=seed, trials=TRIALS)
        for trial in range(TRIALS):
            inst = _instances(cfg, trial)
            for pair in PAIRS:
                for kind, inj in KINDS:
                    key = _key("verify", seed, trial, pair, _kind_name(kind, inj))
                    yield key, inst[pair[0]], inst[pair[1]], kind, inj


def family_queries():
    edge, triangle = complete_complex(2), complete_complex(3)
    for n in (4, 5, 6):
        source = skeleton(complete_complex(n), 1)
        yield _key("family", f"K{n}-edges"), source, edge, "facet", False
    for n, q in ((5, 1), (6, 1), (5, 2)):
        source = skeleton(complete_complex(n), q)
        yield _key("family", f"K{n}-{q}skel"), source, triangle, "strict", False
    bowtie, tailed = samples.load("shaded_bowtie"), samples.load("tailed_triangle")
    for kind, inj in KINDS:
        yield _key("family", "fixture", _kind_name(kind, inj)), bowtie, tailed, kind, inj
    # sources whose symmetry twin swaps do not generate: no twins at all
    # (icosahedron, Petersen) or order 8 of 48 (octahedron's 1-skeleton)
    ring = [(i, (i + 1) % 5) for i in range(5)]
    icosahedron = build_complex(
        [("t", f"u{i}", f"u{j}") for i, j in ring] + [("b", f"l{i}", f"l{j}") for i, j in ring]
        + [(f"u{i}", f"u{j}", f"l{i}") for i, j in ring]
        + [(f"l{i}", f"l{j}", f"u{j}") for i, j in ring]
    )
    yield _key("family", "icosahedron"), icosahedron, triangle, "strict", False
    petersen = build_complex(
        [(f"u{i}", f"u{j}") for i, j in ring] + [(f"u{i}", f"v{i}") for i in range(5)]
        + [(f"v{i}", f"v{(i + 2) % 5}") for i in range(5)]
    )
    cycle = build_complex([(f"c{i}", f"c{j}") for i, j in ring])
    yield _key("family", "petersen"), petersen, cycle, "facet", False
    # vertices 0-5, i and i + 3 opposite
    octahedron = build_complex(
        (str(i), str(j)) for i in range(6) for j in range(i + 1, 6) if j != i + 3
    )
    yield _key("family", "K222"), octahedron, edge, "facet", False


def family2d_queries():
    """ROADMAP's 2-dimensional family: seeded random pairs, kept when a
    pair has 16-20 constrained facets, a source of dimension at least 2
    and a finite value of at least 2, until 11 are kept; the kind is
    ``facet`` for pair 1 and then alternates, and none is injective."""
    rng = random.Random(7)
    kept = 0
    while kept < 11:
        source = generate("random", rng.randint(7, 9), {
            "seed": rng.randrange(1 << 30), "density": rng.uniform(0.2, 0.5),
            "max_facet_size": 3,
        })
        target = generate("random", rng.randint(4, 6), {
            "seed": rng.randrange(1 << 30), "density": rng.uniform(0.3, 0.8),
            "max_facet_size": 3,
        })
        kind = "strict" if kept % 2 else "facet"
        q = ComplexityQuery(source, target, kind)
        if 16 <= len(required_facet_indices(q)) <= 20 and source.dim >= 2:
            value = compute(q).value
            if 2 <= value < math.inf:
                kept += 1
                yield _key("family2d", f"pair-{kept}", kind), source, target, kind, False


# ROADMAP's 20-facet tail: (n, seed, density, max_facet_size) of the
# source and of the target, each a ``generate("random", ...)`` complex
TAIL20 = {
    "A": ((8, 85871954, 0.2648713256548785, 3), (6, 365693369, 0.37383942368789636, 3)),
    "B": ((8, 841171802, 0.2991297111992445, 4), (7, 751226165, 0.44618748755971455, 4)),
    "C": ((7, 965890568, 0.49576741546584013, 4), (6, 841792709, 0.4631446880097103, 4)),
}


def _random_complex(n, seed, density, max_facet_size):
    params = {"seed": seed, "density": density, "max_facet_size": max_facet_size}
    return generate("random", n, params)


def tail20_queries():
    """Tails A, B and C of ROADMAP's 20-facet tail, all of kind ``facet``
    and not injective."""
    for name, (source, target) in TAIL20.items():
        key = _key("tail20", name, "facet")
        yield key, _random_complex(*source), _random_complex(*target), "facet", False


def _pinned(group: str) -> dict:
    return {k: row for k, row in json.loads(PINS.read_text()).items() if k.split("/")[0] == group}


def _query(key: str, row: dict) -> tuple:
    """The query of a ``verify`` row, or of a row that stores its complexes:
    (source, target, kind, injective)."""
    if "source" in row:
        return parse_scx(row["source"]), parse_scx(row["target"]), row["kind"], row["injective"]
    # rebuild only the trial the row names
    _, seed, trial, pair, kind = key.split("/")
    inst = _instances(VerifyConfig(seed=int(seed), trials=TRIALS), int(trial))
    return inst[pair[0]], inst[pair[1]], kind.removesuffix("-inj"), kind.endswith("-inj")


def _rows(group: str, pinned: dict):
    """(key, pinned row, recomputed answer) for every pinned row of ``group``."""
    if group != "family":
        for key, row in pinned.items():
            yield key, row, answer(*_query(key, row))
        return
    for key, source, target, kind, inj in family_queries():
        yield key, pinned.get(key), answer(source, target, kind, inj)


def _compared(row: dict) -> dict:
    """A row's answer without ``nodes`` (and without a stored query)."""
    return {k: row[k] for k in ("value", "groups", "images", "bounds")}


@pytest.mark.parametrize(
    "group, rows", [("verify", 288), ("family", 13), ("random", 112), ("family2d", 11),
                    ("tail20", 3)],
)
def test_cover_pins(group, rows):
    pinned = _pinned(group)
    assert len(pinned) == rows
    changed = [
        key for key, row, new in _rows(group, pinned)
        if row is None or {k: row[k] for k in new} != new
    ]
    assert changed == []


def _pinned_queries():
    """Every pinned row's query: (key, source, target, kind, injective)."""
    family = {key: query for key, *query in family_queries()}
    for key, row in json.loads(PINS.read_text()).items():
        yield key, *(family[key] if key in family else _query(key, row))


def test_optimum_is_the_solved_value():
    """The optimum entry, which ``bounds`` asks for ``graph_lower``,
    returns ``compute``'s value and no cover, on every pinned query and on
    the verify stream's queries (pairs LH, LK and HK, the four kinds)."""
    stream = (query for query in verify_queries() if query[0].split("/")[3] in ("LH", "LK", "HK"))
    checked = 0
    for key, source, target, kind, inj in (*_pinned_queries(), *stream):
        q = ComplexityQuery(source, target, kind, inj)
        value, _, chosen = complexity._Run(q).optimum(False)
        assert (value, chosen) == (compute(q).value, []), key
        checked += 1
    assert checked == 427 + len(SEEDS) * TRIALS * 3 * len(KINDS)


def _random_queries():
    """The benchmark corpus's random pairs: (key, source, target, kind, injective)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads  # the regenerator alone reads the benchmark

    for p in workloads.corpus_pairs(facetcx):
        source = build_complex(p.source_facets, explicit_vertices=p.source_vertices)
        target = build_complex(p.target_facets, explicit_vertices=p.target_vertices)
        key = _key("random", p.name, _kind_name(p.kind, p.injective))
        yield key, source, target, p.kind, p.injective


def changed_rows(old: dict, new: dict) -> list[str]:
    """One report line per row that differs: ``nodes only`` or flagged."""
    report = []
    for key in sorted(set(old) | set(new)):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        if before is None or after is None:
            report.append(f"{key}: {'added' if before is None else 'removed'}")
        elif _compared(before) == _compared(after):
            report.append(f"{key}: nodes only")
        else:
            report.append(f"{key}: CHANGED BEYOND NODES")
    return report


def test_changed_rows_flags_all_but_nodes():
    row = {"value": 2, "groups": [[0], [1]], "images": [[0], [1]], "bounds": {}, "nodes": 4}
    old = {"same": row, "nodes": row, "value": row, "gone": row}
    new = {"same": row, "nodes": {**row, "nodes": 5}, "value": {**row, "value": 3}, "new": row}
    assert changed_rows(old, new) == [
        "gone: removed", "new: added", "nodes: nodes only", "value: CHANGED BEYOND NODES",
    ]


if __name__ == "__main__":
    pins = {}
    for key, source, target, kind, inj in verify_queries():
        value = compute(ComplexityQuery(source, target, kind, inj)).value
        if 2 <= value < math.inf:
            pins[key] = answer(source, target, kind, inj)
    for key, source, target, kind, inj in family_queries():
        pins[key] = answer(source, target, kind, inj)
    stored = (*_random_queries(), *family2d_queries(), *tail20_queries())
    for key, source, target, kind, inj in stored:
        value = compute(ComplexityQuery(source, target, kind, inj)).value
        if 2 <= value < math.inf:
            pins[key] = {
                "source": serialize_scx(source), "target": serialize_scx(target),
                "kind": kind, "injective": inj, **answer(source, target, kind, inj),
            }
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    print("\n".join(changed_rows(old, pins)) or "no row changed")
    # one row a line, so a changed row is one changed line
    rows = (f"{json.dumps(k)}: {json.dumps(pins[k], sort_keys=True)}" for k in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(rows) + "\n}\n")
