"""Chromatic numbers of complexes, with coloring combinators.

A coloring of a complex is valid when no facet of size >= 2 is
monochromatic.  A graph is a complex of dimension <= 1, so there this
is a proper coloring, and the strict chromatic number of a complex is
the chromatic number of its 1-skeleton.  The empty complex has
chromatic number 0; a complex whose facets are all singletons has
chromatic number 1 (one color offends nothing).

Solvers are exact branch-and-bound searches over the canonical vertex
order with symmetry breaking (the first vertex takes color 1 and color
j+1 is never opened before color j), so the returned witness is
deterministic and uses exactly the optimal number of colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf

from .complexes import Complex, _bits, metrics, skeleton
from .homsearch import SearchLimits, _Budget, _budget
from .maps import VertexMap, classify


@dataclass(frozen=True)
class Coloring:
    """A validated color assignment on a complex.

    ``assignment`` is aligned with the subject's canonical vertex order
    and uses colors 1..k.  Construction re-checks validity and rejects
    an invalid assignment.
    """

    subject: Complex
    k: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.subject.labels)
        if len(self.assignment) != n:
            raise ValueError("assignment must color every vertex")
        if self.k < 0 or (n > 0 and self.k < 1):
            raise ValueError("k must be positive for a non-empty subject")
        for col in self.assignment:
            if not 1 <= col <= self.k:
                raise ValueError(f"color {col} outside 1..{self.k}")
        bad = _violation(self.subject, self.assignment)
        if bad is not None:
            raise ValueError(f"monochromatic constraint {bad!r}")

    @classmethod
    def from_dict(cls, subject: Complex, colors: dict[str, int]) -> "Coloring":
        """The colouring with these colours, and ``k`` the largest of them."""
        missing = [lab for lab in subject.labels if lab not in colors]
        if missing:
            raise ValueError(f"no color for vertices {missing!r}")
        extra = sorted(set(colors) - set(subject.labels))
        if extra:
            raise ValueError(f"colors given for unknown vertices {extra!r}")
        assignment = tuple(colors[lab] for lab in subject.labels)
        return cls(subject, max(assignment, default=0), assignment)

    @property
    def surjective(self) -> bool:
        return len(set(self.assignment)) == self.k

    def color_of(self, label: str) -> int:
        return self.assignment[self.subject.labels.index(label)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.subject.labels, self.assignment))


def _violation(subject: Complex, colors: tuple[int, ...]) -> tuple[str, ...] | None:
    for f in subject.facets:
        mem = list(_bits(f))
        if len(mem) >= 2 and len({colors[i] for i in mem}) == 1:
            return subject.members(f)
    return None


@dataclass(frozen=True)
class ChromaticResult:
    value: int
    witness: Coloring


def _search(n: int, last_checks: list[list[list[int]]], budget: _Budget):
    """Least k from 2 up, and the first valid assignment with colors <= k,
    under symmetry breaking.

    ``last_checks[v]`` lists the facets completed by coloring vertex v,
    each as its other members' indices; a facet fails when all of them
    share v's color.  The search is one loop over the vertices, which
    tries each vertex's colours in increasing order and backs up to the
    previous vertex when they run out.  Each color placed is a search
    node, charged over every k to ``budget``.
    """
    colors = [0] * n
    opened = [0] * n  # opened[v]: the largest colour used before v
    nodes = budget.nodes
    stop = budget.check(nodes)
    try:
        for k in range(2, n + 1):
            v = 0
            while v >= 0:
                col = colors[v] + 1
                top = min(opened[v] + 1, k)
                while col <= top:
                    for members in last_checks[v]:
                        if all(colors[u] == col for u in members):
                            break
                    else:
                        break
                    col += 1
                if col > top:
                    colors[v] = 0
                    v -= 1
                    continue
                nodes += 1
                if nodes >= stop:
                    stop = budget.check(nodes)
                colors[v] = col
                v += 1
                if v == n:
                    return k, tuple(colors)
                opened[v] = max(opened[v - 1], col)
    finally:
        budget.nodes = nodes
    raise AssertionError("n colors always suffice")  # pragma: no cover


def chromatic_number(c: Complex, limits: SearchLimits | _Budget | None = None) -> ChromaticResult:
    """Least k such that no facet of size >= 2 is monochromatic.

    For a complex of dimension <= 1 (a graph) this is the least k
    admitting a proper coloring.  ``limits`` bounds the search (by
    default it is unbounded); running out raises ``UndecidedError``.
    A query's running ``_Budget`` there is charged, as ``bounds`` does.
    """
    n = c.n
    checks: list[list[list[int]]] = [[] for _ in range(n)]
    for f in c.facets:
        mem = list(_bits(f))
        if len(mem) >= 2:
            checks[mem[-1]].append(mem[:-1])
    if n == 0:
        return ChromaticResult(0, Coloring(c, 0, ()))
    if not any(checks):
        return ChromaticResult(1, Coloring(c, 1, (1,) * n))
    k, found = _search(n, checks, _budget(limits or SearchLimits(max_nodes=inf)))
    return ChromaticResult(k, Coloring(c, k, found))


def strict_chromatic_number(
    c: Complex, limits: SearchLimits | _Budget | None = None
) -> ChromaticResult:
    """Least k admitting a coloring injective on every simplex.

    Equals the chromatic number of the 1-skeleton, computed as such,
    under ``limits`` as in ``chromatic_number``.
    """
    return chromatic_number(skeleton(c, 1), limits)


def block_coloring(c: Complex, graph_witness: Coloring) -> Coloring:
    """Coloring of ``c`` with ceil(n/d) colors from a proper n-coloring
    of the 1-skeleton, where d is the least facet dimension.

    Grouping the graph colors into blocks of d keeps every facet
    polychromatic: a facet has more than d vertices, so a monochromatic
    facet would put two of them in one graph color class, yet they are
    adjacent.  Requires every facet to have dimension >= 1.
    """
    m = metrics(c)
    if m.min_facet_size is None or m.min_facet_size < 2:
        raise ValueError("block_coloring requires every facet dimension > 0")
    if graph_witness.subject != skeleton(c, 1):
        raise ValueError("witness must color the 1-skeleton")
    d = m.min_facet_size - 1
    blocks = ceil(graph_witness.k / d)
    assignment = tuple((col - 1) // d + 1 for col in graph_witness.assignment)
    return Coloring(c, blocks, assignment)


def product_coloring(c: Complex, parts: list[tuple[Complex, Coloring]]) -> Coloring:
    """Combine colorings of covering subcomplexes into one of ``c``.

    Each part must be colored validly and every facet of ``c`` must be a
    simplex of some part (an uncovered facet is named in the rejection).
    Vertices missing from a part take color 1 in that coordinate; the
    result colors by the rank of the coordinate tuple, so it uses at
    most the product of the part color counts.
    """
    for part, col in parts:
        if col.subject != part:
            raise ValueError("each coloring must color its own part")
    for f in c.facet_sets():
        if not any(part.is_simplex(f) for part, _ in parts):
            raise ValueError(f"facet {sorted(f)!r} is covered by no part")
    tuples = []
    for lab in c.labels:
        coords = []
        for part, col in parts:
            coords.append(col.color_of(lab) if lab in part.labels else 1)
        tuples.append(tuple(coords))
    ranks = {t: i + 1 for i, t in enumerate(sorted(set(tuples)))}
    return Coloring(c, len(ranks), tuple(ranks[t] for t in tuples))


def pullback_coloring(m: VertexMap, target_witness: Coloring) -> Coloring:
    """Pull a target coloring back along a facet simplicial map."""
    if not classify(m).facet:
        raise ValueError("pullback requires a facet simplicial map")
    if target_witness.subject != m.target:
        raise ValueError("witness must color the map's target")
    assignment = tuple(
        target_witness.assignment[t] for t in m.assignment
    )
    return Coloring(m.source, target_witness.k, assignment)
