"""The three benchmark workloads and the `.scx` files they hand to the CLI.

Every workload is a list of pairs (source, target, map kind).  Each pair
is issued twice per pass, first as ``complexity --bounds-only`` and then
as a full ``complexity`` run, both with ``--json``.

``--seed`` draws new vertex names, writes the facet lines in a new order
and shuffles the pairs.  The names keep the vertices' sorted order, so
every seed poses the same canonical problems: the same answers and the
same search work.  Two wider choices were measured and dropped, because
their seed-to-seed spread was wider than any usable regression bound:
a fresh random stream per seed moved the `random_mix` pass time by about
20% (pair costs are heavy-tailed), and names in a random order moved its
`--bounds-only` time by about 21% (the `graph_lower` search depends on
vertex order; find_map nodes ranged from 418 k to 758 k between seeds).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

WORKLOADS = ("facet_dense", "strict_skeleta", "random_mix")

# The random_mix corpus: pairs drawn by facetcx.generate from this seed.
CORPUS_SEED = 1
CORPUS_SIZE = 300
KIND_CYCLE = (("facet", False), ("facet", True), ("strict", False), ("strict", True))

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Pair:
    """One source/target pair with the value the solver must report.

    ``expected`` is an int, ``math.inf`` or None (unknown).  Facets are
    label tuples; ``vertices`` lists every vertex, isolated ones too.
    """

    name: str
    source_facets: tuple[tuple[str, ...], ...]
    source_vertices: tuple[str, ...]
    target_facets: tuple[tuple[str, ...], ...]
    target_vertices: tuple[str, ...]
    kind: str
    injective: bool
    expected: float | None

    @property
    def constrained_facets(self) -> int:
        """Facets that constrain the cover (all of them when injective)."""
        if self.injective:
            return len(self.source_facets)
        return sum(1 for f in self.source_facets if len(f) >= 2)


@dataclass(frozen=True)
class Query:
    """One CLI invocation of the benchmark."""

    pair: Pair
    source_path: str
    target_path: str
    bounds_only: bool

    @property
    def argv(self) -> list[str]:
        argv = ["complexity", self.source_path, self.target_path,
                "--kind", self.pair.kind, "--json"]
        if self.pair.injective:
            argv.append("--injective")
        if self.bounds_only:
            argv.append("--bounds-only")
        return argv


def _simplex(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(1, n + 1))


def _faces(n: int, size: int) -> tuple[tuple[str, ...], ...]:
    return tuple(combinations(_simplex(n), size))


def _ceil_log(base: int, n: int) -> int:
    """Least k with base ** k >= n."""
    k, power = 0, 1
    while power < n:
        k += 1
        power *= base
    return k


def _family_pair(name, source_facets, n, target_n, kind, expected) -> Pair:
    return Pair(name, source_facets, _simplex(n), (_simplex(target_n),),
                _simplex(target_n), kind, False, expected)


def facet_dense_pairs() -> list[Pair]:
    # A facet map onto an edge is a proper 2-colouring, so a part maps iff
    # it is bipartite and K_n needs ceil(log2 n) bipartite parts.
    return [
        _family_pair(f"K{n}-edges", _faces(n, 2), n, 2, "facet", _ceil_log(2, n))
        for n in (4, 5, 6)
    ]


def strict_skeleta_pairs() -> list[Pair]:
    # A strict map of a 1-skeleton to a triangle is a proper 3-colouring,
    # hence ceil(log3 n).  skeleton(K5, 2) -> triangle is 3: a part holds at
    # most 2*2*1 = 4 rainbow triangles, so two parts cover at most 8 < 10.
    return [
        _family_pair("K5-1skel", _faces(5, 2), 5, 3, "strict", _ceil_log(3, 5)),
        _family_pair("K6-1skel", _faces(6, 2), 6, 3, "strict", _ceil_log(3, 6)),
        _family_pair("K5-2skel", _faces(5, 3), 5, 3, "strict", 3),
    ]


# The README fixtures: shaded_bowtie -> tailed_triangle in each kind.
FIXTURE_VALUES = {("facet", False): 2, ("facet", True): 3,
                  ("strict", False): 1, ("strict", True): 2}


def fixture_pairs(facetcx) -> list[Pair]:
    src = facetcx.samples.load("shaded_bowtie")
    tgt = facetcx.samples.load("tailed_triangle")
    return [
        Pair(f"fixture-{kind}{'-inj' if inj else ''}", src.facet_lists(), src.labels,
             tgt.facet_lists(), tgt.labels, kind, inj, FIXTURE_VALUES[kind, inj])
        for kind, inj in KIND_CYCLE
    ]


def _random_complex(facetcx, rng: random.Random, n_range, density_range):
    n = rng.randint(*n_range)
    return facetcx.generate("random", n, {
        "seed": rng.randrange(1 << 30),
        "density": rng.uniform(*density_range),
        "max_facet_size": rng.choice((2, 3)),
    })


def corpus_pairs(facetcx) -> list[Pair]:
    """CORPUS_SIZE random pairs, kinds cycling through KIND_CYCLE.

    Sources have 6-9 vertices and 5-10 constrained facets, targets 3-6
    vertices.  Expected values come from ``pins.json``.
    """
    pins = json.loads(PINS_PATH.read_text())
    if pins["corpus_seed"] != CORPUS_SEED or len(pins["values"]) != CORPUS_SIZE:
        raise ValueError("pins.json does not describe this corpus")
    rng = random.Random(CORPUS_SEED)
    out = []
    for i in range(CORPUS_SIZE):
        kind, inj = KIND_CYCLE[i % len(KIND_CYCLE)]
        while True:
            src = _random_complex(facetcx, rng, (6, 9), (0.15, 0.45))
            tgt = _random_complex(facetcx, rng, (3, 6), (0.3, 0.8))
            pair = Pair(f"random-{i}", src.facet_lists(), src.labels,
                        tgt.facet_lists(), tgt.labels, kind, inj, None)
            if 5 <= pair.constrained_facets <= 10:
                break
        pin = pins["values"][i]
        expected = math.inf if pin == "infinity" else pin
        out.append(Pair(pair.name, pair.source_facets, pair.source_vertices,
                        pair.target_facets, pair.target_vertices, kind, inj, expected))
    return out


def pairs_for(workload: str, facetcx) -> list[Pair]:
    if workload == "facet_dense":
        return facet_dense_pairs()
    if workload == "strict_skeleta":
        return strict_skeleta_pairs()
    if workload == "random_mix":
        return fixture_pairs(facetcx) + corpus_pairs(facetcx)
    raise ValueError(f"unknown workload {workload!r}")


def _scx_text(name, facets, vertices, rng: random.Random) -> tuple[str, dict[str, str]]:
    """Render one complex under seeded vertex names and facet-line order.

    The names keep the vertices' sorted order, so the parsed complex has
    the same canonical facet masks on every seed.
    """
    codes = sorted(rng.sample(range(10_000, 100_000), len(vertices)))
    rename = {v: f"v{c}" for v, c in zip(sorted(vertices), codes)}
    lines = [f"f {' '.join(rename[v] for v in f)}" for f in facets]
    rng.shuffle(lines)
    head = [f"name {name}", "v " + " ".join(sorted(rename.values()))]
    return "\n".join(head + lines) + "\n", rename


def render_queries(pairs: list[Pair], seed: int,
                   directory: Path) -> tuple[list[Query], dict[Path, str]]:
    """Render every pair as two `.scx` texts; return the pass's queries and the files.

    The seed fixes names, facet-line order and pair order; the fixtures of
    ``random_mix`` stay first.  The returned pairs carry the renamed
    facets, so checks compare against exactly what the CLI read.
    """
    rng = random.Random(seed)
    fixed = [p for p in pairs if p.name.startswith("fixture-")]
    rest = [p for p in pairs if not p.name.startswith("fixture-")]
    rng.shuffle(rest)
    queries, files = [], {}
    for i, p in enumerate(fixed + rest):
        src_text, src_names = _scx_text(f"{p.name}-src", p.source_facets,
                                        p.source_vertices, rng)
        tgt_text, tgt_names = _scx_text(f"{p.name}-tgt", p.target_facets,
                                        p.target_vertices, rng)
        src_path, tgt_path = directory / f"{i:03d}-src.scx", directory / f"{i:03d}-tgt.scx"
        files[src_path], files[tgt_path] = src_text, tgt_text
        renamed = Pair(
            p.name,
            tuple(tuple(src_names[v] for v in f) for f in p.source_facets),
            tuple(src_names[v] for v in p.source_vertices),
            tuple(tuple(tgt_names[v] for v in f) for f in p.target_facets),
            tuple(tgt_names[v] for v in p.target_vertices),
            p.kind, p.injective, p.expected,
        )
        for bounds_only in (True, False):
            queries.append(Query(renamed, str(src_path), str(tgt_path), bounds_only))
    return queries, files


def describe(pairs: list[Pair]) -> dict:
    """Workload descriptors: constrained-facet histogram and kind mix."""
    hist = Counter(p.constrained_facets for p in pairs)
    kinds = Counter(p.kind + ("+injective" if p.injective else "") for p in pairs)
    return {
        "pairs": len(pairs),
        "constrained_facets": {str(k): hist[k] for k in sorted(hist)},
        "kinds": dict(kinds),
    }
