"""Backtracking search for facet and strict simplicial maps.

The search branches per source facet rather than per vertex:

* kind ``facet``: every facet of size >= 2 picks a target facet of size
  >= 2 with |G| <= |F| (equal under injectivity) and must map onto it
  exactly; vertices in no such facet are placed afterwards.  Satisfying
  all facet constraints already forces simpliciality, because every
  face is a subset of a facet.
* kind ``strict``: every facet (singletons included) maps injectively
  into some target facet at least as large, so dimensions are
  preserved.

Injective searches add a global all-different constraint plus a degree
filter: an injective simplicial image can only lose neighbours, so a
candidate must dominate the source vertex's degree and every d-degree.
Only they build the source's d-degree rows above d = 1; a search
without injectivity builds the degree row alone, which orders the
vertices inside a stage.

Forward checking (Haralick & Elliott 1980): after placing a vertex the
search checks every later stage holding it.  That stage needs a
candidate target facet ``g`` containing the images placed so far which
its unplaced vertices can still fill: for kind ``facet`` at most that
many vertices of ``g`` are missing, and under injectivity none of them
is used yet; for kind ``strict`` the placed images are distinct, and
under injectivity ``g`` has that many unused vertices.  When no ``g``
is left the placement is dropped.  Any map below it would have to take
such a ``g`` for that stage, so only subtrees without a map are cut;
as stage and candidate order are unchanged, the first map found is the
same as without the check, and only ``nodes`` falls.  A dropped
placement still counts as a node; a vertex no later stage holds is
not checked.

Stage order is static (fewest candidate target facets first, canonical
order breaking ties; vertices inside a stage by descending degree) and
candidates are tried in canonical order, so the first map found is the
canonical certificate and re-runs are deterministic.  ``found=False``
is only ever returned on an exhausted search tree and is therefore a
proof of non-existence; running out of node or time budget raises
``UndecidedError`` instead.  Every map found is checked against its
kind before it is returned.

A problem may name a ``group`` of the source's facets: the search then
maps the subcomplex they generate, working on the source's own facet
masks and vertex indices without building that subcomplex.  Vertex
indices keep their order under that restriction, so the search takes
the same steps and finds the same first map as on the built
subcomplex.  ``FeasibilityCache`` probes groups this way, with the
target's tables built once per cache, and builds a group's subcomplex
and ``VertexMap`` only when ``certificate`` asks for them; it answers
one facet, and groups its earlier verdicts settle, with no search.  A
map it finds also certifies the facets on the group's vertices that it
already maps well, and a failed search can leave a smaller infeasible
group behind it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .complexes import Complex, _bits, _degree_tables, _subcomplex
from .maps import VertexMap, _classify_masks, _meets, check_kind

TIME_EXHAUSTED = "time budget exhausted"
DEPTH_EXHAUSTED = "recursion depth exhausted"


class UndecidedError(Exception):
    """Search budget exhausted before the tree was."""

    def __init__(self, nodes: int, reason: str = "node budget exhausted"):
        super().__init__(f"{reason} after {nodes} nodes")
        self.nodes = nodes
        self.reason = reason


@dataclass(frozen=True)
class SearchLimits:
    """One query's search budget.  Its map searches, colourings and
    ``graph_lower`` sub-solve charge one ``_Budget`` made of it, so they
    spend at most ``max_nodes + 1`` nodes in all, by one deadline."""

    max_nodes: int = 50_000_000
    max_seconds: float = float("inf")

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects NaN, which no deadline check would stop
        if not (self.max_nodes > 0 and self.max_seconds > 0):
            raise ValueError("budgets must be positive")


class _Budget:
    """``SearchLimits`` being spent.  A search starts from ``nodes`` with
    a ``check``, calls it again when its count reaches the checkpoint the
    last call returned, and stores its count in ``nodes`` when it ends."""

    def __init__(self, limits: SearchLimits):
        self.max_nodes = limits.max_nodes
        self.deadline = time.monotonic() + limits.max_seconds
        self.nodes = 0

    def check(self, nodes: int) -> int:
        """Record ``nodes``; raise ``UndecidedError`` past the cap or the
        deadline, else return the next checkpoint: the node past the cap
        or the next multiple of 1024."""
        self.nodes = nodes
        if nodes > self.max_nodes:
            raise UndecidedError(nodes)
        if time.monotonic() > self.deadline:
            raise UndecidedError(nodes, TIME_EXHAUSTED)
        return min(self.max_nodes + 1, (nodes // 1024 + 1) * 1024)


def _budget(limits: SearchLimits | _Budget | None) -> _Budget:
    """``limits`` if it is a running budget, else a fresh one of them."""
    return limits if isinstance(limits, _Budget) else _Budget(limits or SearchLimits())


def _candidate_rows(target: Complex, kind: str, injective: bool) -> tuple[tuple[int, ...], ...]:
    """Per source facet size, where a facet of that size may map.

    ``rows[s]`` lists, in canonical order, the target facets a source
    facet of size ``s`` may map onto (kind ``facet``) or into (kind
    ``strict``); sizes above the target's largest facet share the last
    row.  A lone vertex of kind ``facet`` may go to any target vertex,
    so its row is the mask of all of them, or empty for an empty target.
    A facet maps on its own exactly when its row is non-empty (the
    ``one_facet`` rule of ``FeasibilityCache``), so the rows also decide
    whether a query is finite (``complexity._Run.finite``).
    """
    sizes = [g.bit_count() for g in target.facets]
    rows = []
    for s in range(max(sizes, default=0) + 2):
        if kind == "facet" and s == 1:
            rows.append(((1 << target.n) - 1,) if target.n else ())
            continue
        if kind == "facet":
            ok = [2 <= t and (t == s if injective else t <= s) for t in sizes]
        else:
            ok = [t >= s for t in sizes]
        rows.append(tuple(g for g, keep in zip(target.facets, ok) if keep))
    return tuple(rows)


class _TargetTables:
    """What a search needs of one target for one kind and injectivity.

    ``cands`` are the target's ``_candidate_rows``.  For injective
    searches ``at_least[d][k]`` is the mask of target vertices whose
    d-degree is at least ``k``.  ``facet_set`` holds the target's facets
    for the final kind check, and ``row`` memoises, per source facet
    mask, its vertex indices and candidates, so a cache's searches set
    up their stages without recomputing them.
    """

    def __init__(self, target: Complex, kind: str, injective: bool):
        self.key = (target, kind, injective)
        self.full = (1 << target.n) - 1
        self.facet_set = frozenset(target.facets)
        self._rows: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.cands = _candidate_rows(target, kind, injective)
        self.at_least: dict[int, list[int]] = {}
        if injective:
            for d, row in _degree_tables(target.facets, target.n).items():
                self.at_least[d] = [
                    sum(1 << u for u, deg in enumerate(row) if deg >= k)
                    for k in range(max(row) + 1)
                ]

    def candidates(self, size: int) -> tuple[int, ...]:
        return self.cands[min(size, len(self.cands) - 1)]

    def row(self, f: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Source facet ``f``'s vertex indices, ascending, and candidates."""
        row = self._rows.get(f)
        if row is None:
            bits = tuple(_bits(f))
            row = self._rows[f] = (bits, self.candidates(len(bits)))
        return row

    def compat(self, rows: dict[int, list[int]], v: int) -> int:
        """Target vertices dominating every d-degree of source vertex ``v``."""
        mask = self.full
        for d, row in rows.items():
            k = row[v]
            if k:
                masks = self.at_least.get(d, ())
                mask &= masks[k] if k < len(masks) else 0
        return mask


@dataclass(frozen=True)
class SearchProblem:
    """A map search from ``source`` (or a group of its facets) to ``target``.

    ``group`` is a bitmask over the positions of ``source.facets``; when
    given, the search maps the subcomplex those facets generate, and a
    found result carries its images in ``SearchResult.images`` without
    a ``VertexMap``.  ``tables`` lets a caller that searches one target
    many times share the target's tables; it must have been built for
    this target, kind and injectivity, and is built afresh when absent.
    ``limits`` may be a query's running ``_Budget``.
    """

    source: Complex
    target: Complex
    kind: str = "facet"
    injective: bool = False
    limits: SearchLimits | _Budget = field(default_factory=SearchLimits)
    group: int | None = None
    tables: _TargetTables | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_kind(self.kind)
        if self.group is not None and not 0 <= self.group < 1 << len(self.source.facets):
            raise ValueError("group must be a mask over the source's facets")
        if self.tables is not None and self.tables.key != (
            self.target, self.kind, self.injective
        ):
            raise ValueError("the tables were built for a different target or kind")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    ``images`` holds, when found, the target index of each searched
    source vertex in ascending order (the assignment of the map on the
    searched subcomplex).  ``map`` is that map, built for whole-source
    problems only.
    """

    found: bool
    map: Optional[VertexMap]
    nodes: int
    images: tuple[int, ...] = ()


def find_map(problem: SearchProblem) -> SearchResult:
    src, tgt = problem.source, problem.target
    kind, inj = problem.kind, problem.injective
    whole = problem.group is None
    facets = src.facets if whole else tuple(src.facets[i] for i in _bits(problem.group))
    vertices = 0
    for f in facets:
        vertices |= f
    ns, nt = vertices.bit_count(), tgt.n
    if ns == 0:
        return SearchResult(True, VertexMap(src, tgt, ()) if whole else None, 0)
    if nt == 0 or (inj and ns > nt):
        return SearchResult(False, None, 0)

    tables = problem.tables or _TargetTables(tgt, kind, inj)
    rows = [tables.row(f) for f in facets]
    # only injective searches filter by d-degrees; the rest need the degree
    degrees = _degree_tables(facets, src.n, None if inj else 1, [bits for bits, _ in rows])
    sdeg = degrees.get(1) or [0] * src.n
    compat = [tables.full] * src.n
    if inj:
        for v in _bits(vertices):
            compat[v] = tables.compat(degrees, v)

    stages = []
    staged = 0
    for f, (bits, cands) in zip(facets, rows):
        if kind == "facet" and len(bits) < 2:
            continue
        staged |= f
        # ``bits`` ascend, and the sort is stable under ``reverse``, so
        # degree ties are broken by index
        stages.append((f, tuple(sorted(bits, key=sdeg.__getitem__, reverse=True)), cands))
    # ``facets`` come in canonical order, so the stable sort breaks ties
    # canonically
    stages.sort(key=lambda s: len(s[2]))
    free = list(_bits(vertices & ~staged))
    # a staged vertex is placed by the first stage holding it; ``later[v]``
    # lists the other stages holding it, which the look-ahead checks
    later: list[list[tuple]] = [[] for _ in range(src.n)]
    placed_by = 0
    for stage in stages:
        for v in stage[1]:
            if placed_by >> v & 1:
                later[v].append(stage)
        placed_by |= stage[0]

    onto = kind == "facet"
    assign = [-1] * src.n
    used = 0
    budget = _budget(problem.limits)
    start = nodes = budget.nodes
    stop = budget.check(nodes)

    def fits_later(v: int) -> bool:
        """Can every later stage holding ``v`` still reach a target facet?"""
        for _, order, cands in later[v]:
            pre = 0
            unplaced = 0
            for w in order:
                u = assign[w]
                if u < 0:
                    unplaced += 1
                else:
                    pre |= 1 << u
            if onto:
                # the unplaced vertices must cover the rest of g, and
                # injectively only with vertices nobody uses yet
                for g in cands:
                    rest = g & ~pre
                    if not pre & ~g and rest.bit_count() <= unplaced and not (inj and rest & used):
                        break
                else:
                    return False
            else:
                if pre.bit_count() != len(order) - unplaced:
                    return False
                for g in cands:
                    if not pre & ~g and (not inj or (g & ~used).bit_count() >= unplaced):
                        break
                else:
                    return False
        return True

    def run_stage(si: int) -> bool:
        if si == len(stages):
            place_free()
            return True
        f, order, cands = stages[si]
        pre = 0
        remaining = []
        for v in order:
            u = assign[v]
            if u < 0:
                remaining.append(v)
            else:
                pre |= 1 << u
        if onto:
            for g in cands:
                if pre & ~g:
                    continue
                uncovered = g & ~pre
                if len(remaining) < uncovered.bit_count():
                    continue
                if extend(si, g, remaining, 0, uncovered):
                    return True
            return False
        # strict: ``fits_later`` kept the images placed so far distinct,
        # and ``extend`` narrows ``viable`` only to non-empty lists
        viable = [g for g in cands if not pre & ~g]
        return bool(viable) and extend(si, viable, remaining, 0, pre)

    def extend(si, g, remaining, ri, have) -> bool:
        """Place stage ``si``'s ``remaining[ri:]``.  Kind ``facet``: onto
        target facet ``g``, missing ``have``; kind ``strict``: into one of
        the target facets listed in ``g``, holding images ``have``."""
        nonlocal used, nodes, stop
        if ri == len(remaining):
            return run_stage(si + 1)
        v = remaining[ri]
        if onto:
            pool = g & compat[v]
            left = len(remaining) - ri - 1
        else:
            pool = 0
            for h in g:
                pool |= h
            pool &= compat[v] & ~have
        if inj:
            pool &= ~used
        while pool:
            bit = pool & -pool
            pool ^= bit
            if onto:
                nxt_g, nxt_have = g, have & ~bit
                if left < nxt_have.bit_count():
                    continue
            else:
                # ``pool`` holds only vertices of viable facets
                nxt_g, nxt_have = [h for h in g if h & bit], have | bit
            nodes += 1
            if nodes >= stop:
                stop = budget.check(nodes)
            assign[v] = bit.bit_length() - 1
            if inj:
                used |= bit
            if (not later[v] or fits_later(v)) and extend(si, nxt_g, remaining, ri + 1, nxt_have):
                return True
            assign[v] = -1
            if inj:
                used &= ~bit
        return False

    def place_free() -> None:
        # a free vertex is isolated, so ``compat`` is the whole target, and
        # ``ns <= nt`` leaves it an unused image: its first one never fails
        nonlocal used, nodes, stop
        for v in free:
            pool = compat[v] & ~used if inj else compat[v]
            bit = pool & -pool
            nodes += 1
            if nodes >= stop:
                stop = budget.check(nodes)
            assign[v] = bit.bit_length() - 1
            used |= bit

    try:
        searched = run_stage(0)
    except RecursionError:
        # a frame per stage and per placed vertex: a deep source outruns
        # the stack, which is a budget like the others
        raise UndecidedError(nodes, DEPTH_EXHAUSTED) from None
    finally:
        budget.nodes = nodes
        # the recursive helpers reach each other through closure cells;
        # emptying them frees the search's tables on return, not at the
        # next cyclic collection
        del run_stage, extend, place_free
    nodes -= start
    if not searched:
        return SearchResult(False, None, nodes)
    # a search that succeeds returns without undoing its placements
    flags = _classify_masks(facets, assign, tgt, tables.facet_set)[1:4]
    if not _meets(kind, inj, *flags):  # pragma: no cover - guards the search itself
        raise RuntimeError("search produced a map failing its own constraints")
    images = tuple(assign[v] for v in _bits(vertices))
    return SearchResult(True, VertexMap(src, tgt, images) if whole else None, nodes, images)


class FeasibilityCache:
    """Memoized group feasibility for one complexity computation.

    Keys are bitmasks over the source's facets, handed to the map search
    as they are (``SearchProblem.group``).  ``complexity`` builds the
    cache on the subcomplex its constrained facets generate, so the cover
    search's masks, these keys and the facet automorphisms share one
    numbering.

    ``feasible`` answers a nonempty mask by the first of these rules that
    applies, each exact, so every verdict is the one a search would give:

    * ``one_facet``: a single facet F maps exactly when its size has a
      candidate (``_candidate_rows``; for a lone vertex of kind
      ``facet``, the target's vertex set): F then maps onto or into that
      candidate vertex by vertex.  The degree
      filter of an injective search cannot reject such a map, because
      inside a simplex of size s every d-degree is s - 1 and every vertex
      of a target facet of size at least s has at least that.
    * ``below_feasible``: feasibility is hereditary, so a mask below a
      mask known feasible is feasible.
    * ``above_infeasible``: for the same reason, a mask above a mask
      known infeasible is infeasible.
    * ``pigeonhole``: an injective map of a group spanning more vertices
      than the target has cannot exist (``find_map`` returns that at 0
      nodes).  The verdict is not recorded: the rule answers every
      larger group again.
    * ``search``: a map search on the group's facet masks
      (``SearchProblem.group``) with the target's tables built once here.

    A mask searched before needs no rule of its own: it lies below the
    group its map certified, or above the nogood its failure left.

    Two more rules feed the antichains the last two rules read:

    * Witness growth: a map found for a group places no more vertices,
      but every other facet on the group's vertices whose image it
      already makes good joins the group (``_grow``): onto a candidate
      target facet for kind ``facet``, injectively into one for kind
      ``strict``.  The map is checked on the grown group before that
      group is recorded as known feasible: one witness certifies
      everything it contains, as for closed itemsets (Pasquier et al.
      1999).
    * Local nogood: when a search fails on a group of three or more
      facets, its top facet together with the group's facets that meet
      it is probed through ``feasible``, so the rules and the budget
      apply to it, when that core is smaller and holds two or more
      facets.  An infeasible core replaces the group as the recorded
      infeasible set, as a learnt nogood in constraint search (Dechter
      1990).  A core that turns out feasible costs a search, but on
      balance the smaller nogoods save more: without them K7's edges onto
      an edge take 1 484 search nodes instead of 1 022, and a 17-facet
      random pair 90 146 instead of 58 481.

    Only a group's own search is kept; ``certificate`` searches a mask
    answered without one, then builds the group's subcomplex and witness
    map.  A mask outside ``[0, 1 << len(source.facets))`` is rejected with
    ``ValueError``.

    ``answered_by`` counts the ``feasible`` probes each rule answered.
    ``searches`` and ``nodes`` count the map searches run so far,
    certificates' included, and their search nodes.  All of them charge
    one budget: ``limits`` when it is the query's running ``_Budget``,
    else a fresh one of ``limits`` made at construction.
    """

    def __init__(
        self,
        source: Complex,
        target: Complex,
        kind: str = "facet",
        injective: bool = False,
        limits: SearchLimits | _Budget | None = None,
    ):
        check_kind(kind)
        self.source = source
        self.target = target
        self.kind = kind
        self.injective = injective
        self._budget = _budget(limits)
        self._tables = _TargetTables(target, kind, injective)
        # each facet's verdict on its own (the ``one_facet`` rule)
        self._alone = tuple(bool(self._tables.candidates(f.bit_count())) for f in source.facets)
        self._results: dict[int, SearchResult] = {}
        self._answered = dict.fromkeys(
            ("one_facet", "below_feasible", "above_infeasible", "pigeonhole", "search"), 0
        )
        self._nodes = 0
        self._feasible_max: list[int] = []
        self._infeasible_min: list[int] = []

    @property
    def searches(self) -> int:
        """Map searches run so far (one per group searched)."""
        return len(self._results)

    @property
    def nodes(self) -> int:
        """Search nodes of the map searches run so far."""
        return self._nodes

    @property
    def answered_by(self) -> dict[str, int]:
        """``feasible`` probes of a nonempty mask so far, by answering rule."""
        return dict(self._answered)

    def _check_mask(self, mask: int) -> None:
        if not 0 <= mask < 1 << len(self.source.facets):
            raise ValueError("mask must be a mask over the cache's facets")

    def result(self, mask: int) -> SearchResult:
        """The search result for ``mask``, searched on the cache's budget."""
        hit = self._results.get(mask)
        if hit is None:
            self._check_mask(mask)
            hit = find_map(SearchProblem(
                self.source, self.target, self.kind, self.injective, self._budget, mask,
                self._tables,
            ))
            self._results[mask] = hit
            self._nodes += hit.nodes
            if hit.found:
                mask = self._grow(mask, hit.images)
                self._feasible_max = [
                    m for m in self._feasible_max if m & ~mask
                ] + [mask]
            else:
                self._infeasible_min = [
                    m for m in self._infeasible_min if mask & ~m
                ] + [mask]
        return hit

    def _grow(self, mask: int, images: tuple[int, ...]) -> int:
        """``mask`` with every facet the map found for it already makes good.

        A facet outside the group joins when all its vertices are the
        group's and the map (``images`` of the group's vertices, ascending)
        takes it onto a candidate target facet (kind ``facet``) or
        injectively into one (kind ``strict``).  Such a facet has two or
        more vertices, as facets form an antichain.  The grown group has
        the group's vertices, so the same map serves it; the map is
        checked on the grown group before the group is returned.
        """
        tables, facets = self._tables, self.source.facets
        vertices = 0
        for i in _bits(mask):
            vertices |= facets[i]
        assign = [-1] * self.source.n
        for v, u in zip(_bits(vertices), images):
            assign[v] = u
        grown = mask
        for i, f in enumerate(facets):
            if mask >> i & 1 or f & ~vertices:
                continue
            bits, cands = tables.row(f)
            image = 0
            for v in bits:
                image |= 1 << assign[v]
            if self.kind == "facet":
                good = image in cands
            else:
                good = image.bit_count() == len(bits) and any(not image & ~g for g in cands)
            if good:
                grown |= 1 << i
        if grown != mask:
            group = tuple(facets[i] for i in _bits(grown))
            flags = _classify_masks(group, assign, self.target, tables.facet_set)[1:4]
            if not _meets(self.kind, self.injective, *flags):
                raise RuntimeError(  # pragma: no cover - guards the growth itself
                    "a grown map fails its own constraints")
        return grown

    def feasible(self, mask: int) -> bool:
        self._check_mask(mask)
        if mask == 0:
            return True
        answered = self._answered
        if mask & (mask - 1) == 0:
            answered["one_facet"] += 1
            return self._alone[mask.bit_length() - 1]
        for m in self._feasible_max:
            if mask & ~m == 0:
                answered["below_feasible"] += 1
                return True
        for m in self._infeasible_min:
            if m & ~mask == 0:
                answered["above_infeasible"] += 1
                return False
        facets = self.source.facets
        if self.injective:
            span = 0
            for i in _bits(mask):
                span |= facets[i]
            if span.bit_count() > self.target.n:
                answered["pigeonhole"] += 1
                return False
        answered["search"] += 1
        if self.result(mask).found:
            return True
        if mask.bit_count() >= 3:
            # local nogood: the top facet with the group's facets meeting it
            top = mask.bit_length() - 1
            core = 0
            for i in _bits(mask):
                if facets[i] & facets[top]:
                    core |= 1 << i
            if core != mask and core & (core - 1):
                self.feasible(core)
        return False

    def certificate(self, mask: int) -> VertexMap:
        res = self.result(mask)
        if not res.found:
            raise ValueError("no certificate for an infeasible group")
        chosen = [self.source.facets[i] for i in _bits(mask)]
        return VertexMap(_subcomplex(self.source, chosen), self.target, res.images)

