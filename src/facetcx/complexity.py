"""Minimum-cover solvers and provable bounds for map complexity.

The central quantity is the least number of subcomplexes covering the
source such that each part admits a map of the requested kind into the
target (``math.inf`` when no such finite cover exists).  Covers by
arbitrary subcomplexes reduce to covers by groups of source facets:
every part is contained in the closure of the source facets it
contains, restriction never breaks any of the map kinds, and facets of
a closure of source facets are exactly those facets, so inflating each
part to such a closure keeps it mappable while covering at least as
much.  The solver therefore optimizes over facet groups only.

One private run per query (``_Run``) serves ``compute``, ``bounds``
and the CLI.  The value is finite exactly when every source facet maps
on its own, which the target's candidate rows decide with no search.
The search runs on the constrained subcomplex, the one the constrained
facets (``required_facet_indices``) generate: the source itself when no
facet is dropped.  Its facets are the constrained ones in source order
and its vertices keep the source's order, so one facet numbering serves
the cover masks, the cache and the automorphisms, and each map search
takes the same steps as on the source.
Group feasibility is hereditary (subsets of a mappable group are
mappable), so a branch-and-memo set-cover over facet bitmasks with a
least-uncovered-facet pivot is exact.  Each group is decided by a
``FeasibilityCache`` probe on that subcomplex: a single facet from the
target's candidate table, a group that earlier verdicts settle (by
heredity, or because a map found earlier already serves it) with no
search, and any other group by a map search run on the subcomplex's own
facet masks; a group's subcomplex and witness map are built only for
the groups of the reported cover.  When the whole constrained group fails,
the DP reads each group's verdict through a byte table of ``2**m``
entries for ``m`` constrained facets, so a repeated probe costs one
lookup.  A group of two or more facets is searched only after its
prefix, the group less its highest facet, is decided and feasible;
by heredity an infeasible prefix rules the group out with no search.
A verdict and an uncovered set's optimum are invariants of the
complex the constrained facets generate, so both are constant on the
orbit of a mask under the facet permutations that complex's
automorphisms induce.  The first probe of an orbit walks it once,
writing the verdict and the orbit's representative to every member,
and each optimum is stored once per orbit, at its representative: two
byte tables plus 4 bytes per mask, 6 MB at the default cap, allocated
before the first probe whatever the budget.  A source
without symmetry has orbits of one mask.  A query's budget bounds the
whole run, ``bounds``' colourings and ``graph_lower`` sub-solve included;
the DP's own steps read its deadline but are not counted as nodes.

For an uncovered set that fails as one group, the DP walks only the
feasible groups that hold its least facet, growing each by higher
facets and ending a branch at an infeasible extension, as heredity
allows; it asks for a remainder's optimum only at a group no higher
facet extends, which is exact because a larger group never leaves a
remainder that needs more groups.  It reads verdicts and stored optima
straight from the tables, calls into the probe or the recursion only
for undecided entries, and stops at a two-group cover, which nothing
beats once the set itself has failed.
The DP first finds the optimum; only ``compute`` then picks the
canonical cover and certifies it.  The pick grows each group from the
least uncovered facet in lexicographic order instead of scanning every
group that holds it, and prunes a branch by heredity or by the optimum
of the facets it leaves out.  ``graph_lower`` is the optimum of the
cover problem between the two edge graphs, computed without a cover, so
its sub-solve spends no nodes on certificate searches and builds no
witness map, subcomplex or cover check.

A graph source often needs no cover search for its value.  Let ``H``
be the target edges a source edge may go to (the size-2 facets for kind
``facet``, the 1-skeleton for ``strict``), with ``c = χ(H)`` and a
clique of ``c`` vertices in ``H``.  A group of source edges maps exactly
when its graph is ``c``-colourable: a map into ``H`` pulls a
``c``-colouring back, and a ``c``-colouring maps the group into the
clique.  So ``k`` groups suffice exactly when ``χ(G) <= c**k`` for the
graph ``G`` of the constrained edges: ``k`` groups give ``G`` a product
colouring of at most ``c**k`` colours, and conversely a colouring with
colours ``0 … c**k - 1`` puts each edge in the group of the first
base-``c`` digit on which its ends differ, which that digit colours
properly.  The value is ``⌈log_c χ(G)⌉``, the chromatic lower bound,
attained.  The value-only run reads it from the colourings of ``H`` and
``G`` and one map search for the clique, and so builds no cache or
tables; ``compute`` still runs the cover search for its canonical cover,
and a target graph with a smaller clique than its chromatic number
falls through to it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .complexes import Complex, _bits, _key, _subcomplex, complete_complex, facet_automorphisms
from .complexes import facet_graph, skeleton
from .coloring import chromatic_number
from .homsearch import FeasibilityCache, SearchLimits, SearchProblem, UndecidedError
from .homsearch import _candidate_rows, find_map
from .homsearch import _Budget, _budget
from .maps import VertexMap, check_kind, classify

INFINITY = math.inf


class FacetCapError(ValueError):
    """Raised when a query has more constrained facets than the cap allows,
    or than the cover search's tables can be allocated for."""


@dataclass(frozen=True)
class ComplexityQuery:
    """A source/target pair plus the map kind the cover parts must admit;
    ``limits`` (or a running ``_Budget``) bound all its searches together,
    and ``facet_cap`` is the most constrained facets its cover search, or
    the ``graph_lower`` sub-solve of ``bounds``, may take on.  The cap
    guards the cover search's tables, so it does not bound a value that
    colourings answer (see ``_Run.optimum``)."""

    source: Complex
    target: Complex
    kind: str = "facet"
    injective: bool = False
    limits: SearchLimits | _Budget = field(default_factory=SearchLimits)
    facet_cap: int = 20

    def __post_init__(self):
        check_kind(self.kind)
        if self.facet_cap < 1:
            raise ValueError("facet_cap must be at least 1")


@dataclass(frozen=True)
class CoverGroup:
    """One cover part: the source facets it keeps and a witness map."""

    facets: tuple[frozenset[str], ...]
    map: VertexMap


@dataclass(frozen=True)
class Cover:
    groups: tuple[CoverGroup, ...]

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class ComplexityResult:
    value: float
    cover: Cover | None
    nodes: int = 0

    @property
    def finite(self) -> bool:
        return self.value != INFINITY


def required_facet_indices(q: ComplexityQuery) -> tuple[int, ...]:
    """Facets that genuinely constrain the cover.

    Without injectivity a singleton facet (isolated vertex) can join
    any part: extending a witness map by one vertex with any image
    stays simplicial, and both facet-ontoness and per-facet dimension
    preservation are vacuous on singletons.  Injectivity breaks that —
    the extension needs an unused target vertex — so every facet
    counts.
    """
    if q.injective:
        return tuple(range(len(q.source.facets)))
    return tuple(
        i for i, f in enumerate(q.source.facets) if f.bit_count() >= 2
    )


def _group_labels(source: Complex, masks: tuple[int, ...]) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(source.members(m)) for m in masks)


def compute(q: ComplexityQuery) -> ComplexityResult:
    """Exact minimum cover size with a canonical optimal cover.

    The reported cover is canonical: groups are listed in the order
    found by repeatedly covering the least-indexed uncovered facet, and
    each group is the lexicographically least (as a sorted tuple of
    facet indices) among the optimal choices at its step.  ``q.limits``
    bounds all searches together.  A query with more constrained facets
    than ``q.facet_cap`` raises ``FacetCapError``.  The cover is checked
    with ``check_cover`` before it is returned; a cover that fails is a
    fault of the solver, raised as ``RuntimeError``.
    """
    return _Run(q).result()


class _Run:
    """One query's solve and bounds, which ``compute``, ``bounds`` and
    the CLI read.

    A run holds the query's one ``_Budget``, which its map searches,
    colourings and ``graph_lower`` sub-solve all charge; the constrained
    facets; finiteness, read from the target's candidate rows when first
    needed; and, once ``result`` has run, the solve's ``outcome``: its
    ``ComplexityResult`` or the ``UndecidedError`` it raised.  The
    ``FeasibilityCache`` is built only when the cover search runs, so
    bounds alone and an infinite query build no cache.
    """

    def __init__(self, q: ComplexityQuery):
        self.q = q
        self.budget = _budget(q.limits)
        self.required = required_facet_indices(q)
        self.outcome: ComplexityResult | UndecidedError | None = None

    @cached_property
    def finite(self) -> bool:
        """Whether every source facet maps on its own (the ``one_facet``
        rule), which is when the value is finite: one-facet parts then
        cover the source.  An empty target fails any non-empty source."""
        q = self.q
        rows = _candidate_rows(q.target, q.kind, q.injective)
        return all(rows[min(f.bit_count(), len(rows) - 1)] for f in q.source.facets)

    def optimum(self, pick: bool) -> tuple[float, FeasibilityCache | None, list[int]]:
        """The query's value, and with ``pick`` the masks of its cover.

        Returns ``(value, cache, masks)``: ``cache`` answered the probes
        (``None`` for an empty source and for an infinite value), and
        ``masks`` lists the canonical cover's groups when ``pick`` is set and
        the value is finite, else it is empty.  The cache works on the
        subcomplex the constrained facets generate (the source itself when
        none is dropped), whose facets are ``required_facet_indices(q)`` in
        order, so ``masks``, the cache's keys and the facet automorphisms
        are all masks over them.  That subcomplex keeps the source's vertex
        order, so each search takes the same steps as on the source.
        Without ``pick`` no group is certified, so ``bounds`` reads the
        optimum here at the cost of the probes alone.  More constrained
        facets than ``q.facet_cap`` raise ``FacetCapError``.

        Without ``pick``, a finite non-injective query whose constrained
        facets are all edges is first answered from colourings when the
        target's graph has a clique as large as its chromatic number
        (``_graph_value``; ``cache`` is then ``None``), which needs no
        tables, so the cap is checked only after it declines.
        """
        q = self.q
        source = q.source
        if source.n == 0:
            return 1, None, []
        if q.target.n == 0:
            return INFINITY, None, []
        m = len(self.required)
        core = source if m == len(source.facets) else _subcomplex(
            source, [source.facets[i] for i in self.required])
        if not pick and not q.injective and core.dim == 1 and self.finite:
            value = _graph_value(core, q.target, q.kind, self.budget)
            if value is not None:
                return value, None, []
        if m > q.facet_cap:
            raise FacetCapError(f"{m} constrained facets exceed the cap of {q.facet_cap}")
        if not self.finite:
            return INFINITY, None, []
        cache = FeasibilityCache(core, q.target, q.kind, q.injective, self.budget)
        full = (1 << m) - 1
        if cache.feasible(full):
            return 1, cache, [full] if pick else []
        gens = facet_automorphisms(core.facets)
        value, masks = _cover_masks(m, cache.feasible, gens, pick, self.budget)
        return value, cache, masks

    def result(self) -> ComplexityResult:
        """``compute``'s answer, kept as ``outcome``, as is the
        ``UndecidedError`` it raises."""
        try:
            self.outcome = self._solve()
        except UndecidedError as exc:
            self.outcome = exc
            raise
        return self.outcome

    def _solve(self) -> ComplexityResult:
        source, target = self.q.source, self.q.target
        value, cache, chosen = self.optimum(True)
        if value == INFINITY:
            return ComplexityResult(INFINITY, None)
        if cache is None:  # an empty source: one empty part
            return ComplexityResult(1, Cover((CoverGroup((), VertexMap(source, target, ())),)))

        # Without injectivity the isolated vertices join the first group (an
        # empty one when no facet is required) and go to target vertex 0; a
        # lone vertex constrains no map kind.
        req_masks = tuple(source.facets[i] for i in self.required)
        extra = tuple(f for f in source.facets if f not in req_masks)
        groups = []
        for pos, mask in enumerate(chosen):
            masks = tuple(req_masks[i] for i in _bits(mask))
            witness = cache.certificate(mask)
            if pos == 0 and extra:
                masks = tuple(sorted(masks + extra, key=_key))
                sub = _subcomplex(source, masks)
                image = dict(zip(witness.source.labels, witness.assignment))
                witness = VertexMap(sub, target, tuple(image.get(lab, 0) for lab in sub.labels))
            groups.append(CoverGroup(_group_labels(source, masks), witness))

        result = ComplexityResult(value, Cover(tuple(groups)), cache.nodes)
        try:
            check_cover(self.q, result.cover)
        except ValueError as exc:
            raise RuntimeError(f"solver produced an invalid cover: {exc}") from exc
        return result

    def bounds(self) -> BoundReport:
        """``bounds``' report, with ``graph_lower`` read from ``outcome``
        when the solve answers the edge-graph problem."""
        q = self.q
        finite = self.finite
        eta_upper = max(1, len(self.required)) if finite else INFINITY

        chromatic_lower = None
        graph_lower = None
        if q.kind == "facet":
            try:
                chromatic_lower = _chromatic_floor(
                    chromatic_number(q.source, self.budget).value,
                    chromatic_number(q.target, self.budget).value,
                )
            except UndecidedError:
                pass  # a bound, not an answer: skip it rather than fail
            no_isolated = all(f.bit_count() >= 2 for f in q.target.facets)
            if q.source.n > 0 and no_isolated:
                # the edge graphs pose the query's own cover problem: a plain
                # query's lone source vertices constrain nothing, and only
                # target edges can take source edges
                same = not q.injective and q.source.dim <= 1 and q.target.n > 0
                solved = self.outcome
                res = solved if same or isinstance(solved, UndecidedError) else None
                if isinstance(res, ComplexityResult):
                    graph_lower = res.value
                elif res is None:
                    try:
                        gq = ComplexityQuery(
                            facet_graph(q.source), facet_graph(q.target), "facet", False,
                            self.budget, q.facet_cap,
                        )
                        graph_lower = _Run(gq).optimum(False)[0]
                    except (FacetCapError, UndecidedError):
                        pass  # a bound, not an answer: skip it rather than fail

        complete_target_ic = None
        exact = None
        n = q.target.n
        if q.kind == "facet" and q.injective and n >= 2 and q.target.facets == ((1 << n) - 1,):
            sizes = [f.bit_count() for f in q.source.facets]
            complete_target_ic = max(1, sum(1 for s in sizes if s >= 2))
            if sizes and all(s == n for s in sizes):  # pure, full dimension
                exact = complete_target_ic

        return BoundReport(
            finite=finite,
            eta_upper=eta_upper,
            chromatic_lower=chromatic_lower,
            graph_lower=graph_lower,
            complete_target_ic=complete_target_ic,
            exact=exact,
        )


def _graph_value(graph: Complex, target: Complex, kind: str, budget: _Budget) -> float | None:
    """The cover value of ``graph``, all of whose facets are edges, into
    ``target``, read from two colourings when the target's graph ``H`` has
    a clique as large as its chromatic number, else ``None``.

    ``H`` holds the target edges a source edge may go to: the size-2
    facets for kind ``facet``, the 1-skeleton for ``strict``.  With
    ``c = χ(H)`` and a ``c``-clique in ``H``, a group of edges maps exactly
    when it is ``c``-colourable, so the value is ``⌈log_c χ(graph)⌉``
    (see the module docstring).  The clique is found by one map search
    of ``K_c``'s edges into ``target``; the colourings and that search
    charge ``budget``.  ``H`` has an edge whenever a source edge maps on
    its own, so a finite query has ``c >= 2``.
    """
    h = facet_graph(target) if kind == "facet" else skeleton(target, 1)
    c = chromatic_number(h, budget).value
    clique = skeleton(complete_complex(c), 1)
    if not find_map(SearchProblem(clique, target, kind, False, budget)).found:
        return None
    return _chromatic_floor(chromatic_number(graph, budget).value, c)


def _cover_masks(m: int, probe, gens, pick: bool, budget: _Budget) -> tuple[int, list[int]]:
    """The optimal cover size of ``m`` facets whose full group fails,
    and with ``pick`` its canonical cover as group masks (``[]`` without).

    The ``m`` facets are those of the constrained subcomplex, and
    ``probe(group)``, a ``FeasibilityCache`` on it in ``_Run.optimum``,
    decides a group of them; every singleton must be feasible.  A DP
    over uncovered sets, pivoting on the least-indexed uncovered facet,
    finds the optimum ``best(full)``.  For an infeasible set ``best``
    walks the feasible groups that hold its pivot, not all its
    submasks: each group grows by the set's facets above its highest
    one, and an infeasible extension ends that branch, since by heredity
    no group above it is feasible.  Every feasible group is reached this
    way, along the chain of its prefixes, which are all feasible.
    ``best`` asks for the remainder's optimum only at a group that no
    higher facet of the set extends.  That is exact because ``best`` is
    monotone under inclusion: a larger group leaves a smaller remainder,
    which never needs more groups, and every feasible group lies in a
    maximal one, which no facet extends.  At each group the walk stops
    at 2 when the remainder's verdict is already feasible, a table read
    with no probe, and likewise once a remainder's optimum is 1: that is
    a two-group cover, which no cover of an infeasible set beats.
    The DP asks for most groups many times, so each group's verdict is
    read through a ``1 << m`` byte table (0 unknown, 1 infeasible, 2
    feasible).  The walk reads that table, and an infeasible
    remainder's stored optimum, inline; it calls ``feasible`` or
    ``best`` only for entries still undecided.

    With ``pick`` each step then takes, for the uncovered set ``U`` of
    optimum ``k``, the lexicographically least group (as a sorted tuple
    of facet indices) that holds ``U``'s least facet and leaves a
    remainder of optimum ``k - 1``.  ``grow`` walks those tuples in
    preorder, which is lexicographic order: it tests a group on its
    own, since a tuple precedes all its extensions, then extends it by
    each higher facet of ``U`` in turn.  An infeasible extension is
    pruned, since by heredity no group above it is feasible.  The
    facets of ``U`` below the new facet and outside the group stay
    uncovered in every group of that branch, so once they alone need
    ``k`` groups that branch and every later one are pruned.  The walk
    decides each group and remainder it tests through ``feasible`` and
    ``best``, so the tables serve it as they serve the value phase; a
    feasible ``U`` is the last group, and the walk reaches it along one
    chain of prefixes, all below a feasible group.

    An undecided group of two or more facets first has its prefix
    ``group ^ top`` (``top`` its highest facet bit) decided the same
    way, table and orbit walk included, and is probed only when that
    prefix is feasible; an infeasible prefix makes it infeasible with
    no probe, which is exact because feasibility is hereditary.  In the
    walks of ``best`` and ``grow`` an extension's prefix is the group it
    extends, already feasible, so the rule costs no probe there.  Where
    a group is asked for on its own, as when ``best`` first tests
    ``mask`` itself, a feasible group can cost one extra probe for its
    prefix.

    ``gens`` are facet permutations induced by automorphisms of the
    complex the ``m`` facets generate (see ``facet_automorphisms``).
    Such a permutation maps a group onto an isomorphic one, so a verdict
    is constant on the orbit of its mask, and so is the optimum of an
    uncovered set.  The first probe of an orbit walks it once, writing
    the verdict and the orbit's representative (the probed mask) to every
    member; the representatives take 4 bytes per mask.  The optimum of
    each infeasible uncovered set lives in a second byte table at its
    representative (0 unknown): ``best`` asks for a set's verdict before
    its optimum, so its orbit has been walked by then.  Neither value
    changes under the permutations, so the cover chosen is the same with
    or without them; only the probes are fewer.

    ``budget``, the query's, is checked wherever ``best`` computes a new
    optimum and at each node of the pick's walk, so the deadline holds
    where the tables answer every probe.  DP steps are not search
    nodes: they read the deadline and leave ``budget.nodes`` as it is.
    """
    full = (1 << m) - 1
    try:
        verdict, rep, cost = bytearray(1 << m), array("I", [0]) * (1 << m), bytearray(1 << m)
    except (OverflowError, MemoryError):
        raise FacetCapError(f"cover tables for {m} constrained facets cannot be allocated") from None
    verdict[full] = 1
    rep[full] = full
    # each permutation as two tables over the low and the high half-mask
    half = (m + 1) // 2
    low = (1 << half) - 1
    perms = []
    for p in gens:
        lo, hi = [0] * (1 << half), [0] * (1 << (m - half))
        for table, offset in ((lo, 0), (hi, half)):
            for b in range(1, len(table)):
                bit = b & -b
                table[b] = table[b ^ bit] | 1 << p[offset + bit.bit_length() - 1]
        perms.append((lo, hi))

    def feasible(group: int) -> bool:
        v = verdict[group]
        if not v:
            prefix = group ^ (1 << group.bit_length() - 1)
            v = 2 if (not prefix or feasible(prefix)) and probe(group) else 1
            verdict[group] = v
            rep[group] = group
            todo = [group]
            while todo:
                g = todo.pop()
                for lo, hi in perms:
                    h = lo[g & low] | hi[g >> half]
                    if not verdict[h]:
                        verdict[h] = v
                        rep[h] = group
                        todo.append(h)
        return v == 2

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        if feasible(mask):
            return 1
        out = cost[rep[mask]]
        if out:
            return out
        budget.check(budget.nodes)
        out = m  # singletons are feasible, so this many always works
        # the feasible groups that hold the pivot, grown by higher facets;
        # only those that no higher facet extends ask for their remainder
        todo = [mask & -mask]
        while todo:
            group = todo.pop()
            left = mask ^ group
            if verdict[left] == 2:  # a decided two-group cover
                out = 2
                break
            top = group.bit_length()
            above = left >> top << top
            leaf = True
            while above:
                bit = above & -above
                above ^= bit
                v = verdict[group | bit]
                if v == 2 or not v and feasible(group | bit):
                    todo.append(group | bit)
                    leaf = False
            if leaf:
                # a stored optimum costs no call
                after = verdict[left] and cost[rep[left]] or best(left)
                if after + 1 < out:
                    out = after + 1
                    if out == 2:
                        break
        cost[rep[mask]] = out
        return out

    def grow(group: int, skipped: int, uncovered: int, k: int) -> int:
        # the first group of the walk's branch at ``group`` whose remainder
        # needs fewer than ``k`` groups, else 0; ``skipped`` holds the
        # facets of ``uncovered`` below ``group``'s top that it leaves out
        budget.check(budget.nodes)
        if best(uncovered ^ group) < k:
            return group
        top = group.bit_length()
        above = uncovered >> top << top
        while above:
            bit = above & -above
            if skipped.bit_count() >= k and best(skipped) >= k:
                break
            if feasible(group | bit):
                found = grow(group | bit, skipped, uncovered, k)
                if found:
                    return found
            skipped |= bit
            above ^= bit
        return 0

    chosen: list[int] = []
    uncovered = full
    try:
        value = best(full)
        while pick and uncovered:
            least = grow(uncovered & -uncovered, 0, uncovered, best(uncovered))
            chosen.append(least)
            uncovered ^= least
    finally:
        # the recursive helpers reach each other through closure cells;
        # emptying them frees the tables on return (as in ``find_map``)
        del feasible, best, grow
    return value, chosen


def check_cover(q: ComplexityQuery, cover: Cover) -> None:
    """Raise if ``cover`` is not a valid certificate for the query."""
    if not cover.groups:
        raise ValueError("a cover needs at least one group")
    source = q.source
    mask_of = dict(zip(source.facet_sets(), source.facets))
    seen: set[int] = set()
    for g in cover.groups:
        masks = []
        for f in g.facets:
            m = mask_of.get(f)
            if m is None:
                raise ValueError(f"group member {sorted(f)} is not a source facet")
            masks.append(m)
        seen.update(masks)
        if g.map.source != _subcomplex(source, masks):
            raise ValueError("witness map is not defined on the group's closure")
        if g.map.target != q.target:
            raise ValueError("witness map has the wrong target")
        if not classify(g.map).meets(q.kind, q.injective):
            raise ValueError("witness map does not have the required kind")
    if len(seen) != len(source.facets):
        missing = sorted(list(source.members(m)) for m in source.facets if m not in seen)
        raise ValueError(f"cover misses source facets: {missing}")


@dataclass(frozen=True)
class BoundReport:
    """Provable bracket around a query's value, cheaper than solving it.

    ``chromatic_lower`` (weak chromatic numbers) and ``graph_lower``
    (edge-facet graphs) are unsound for the strict kind, so they are
    ``None`` there; a chromatic bound on 1-skeleta would be sound for
    it, but is not computed.  ``eta_upper`` is the constrained-facet count when a
    finite cover exists.  ``complete_target_ic`` is a lower bound
    available when the target is complete and the query is injective;
    ``exact`` carries the value when a theorem pins it down.
    ``graph_lower`` is the optimum of the cover problem between the two
    edge graphs, computed without a cover; it is also ``None`` when that
    problem runs out of search budget, or when it has more constrained
    facets than the cap (or than the cover tables can be allocated for)
    and the target's edge graph has no clique as large as its chromatic
    number, and ``chromatic_lower`` is ``None`` when its colouring
    searches run out of it.
    """

    finite: bool
    eta_upper: float
    chromatic_lower: float | None = None
    graph_lower: float | None = None
    complete_target_ic: int | None = None
    exact: int | None = None

    @property
    def lower(self) -> float:
        candidates = [1]
        for b in (self.chromatic_lower, self.graph_lower, self.complete_target_ic):
            if b is not None:
                candidates.append(b)
        if not self.finite:
            candidates.append(INFINITY)
        if self.exact is not None:
            candidates.append(self.exact)
        return max(candidates)

    @property
    def upper(self) -> float:
        if self.exact is not None:
            return self.exact
        return self.eta_upper


def _chromatic_floor(chi_source: int, chi_target: int) -> float:
    """Least m with chi_target ** m >= chi_source."""
    if chi_source <= 1:
        return 1
    if chi_target <= 1:
        return INFINITY
    m, power = 1, chi_target
    while power < chi_source:
        m += 1
        power *= chi_target
    return m


def bounds(q: ComplexityQuery) -> BoundReport:
    """Theorem-backed bounds without running the exact cover search.

    The one exception is ``graph_lower``, the optimum of the smaller
    derived cover problem between the two edge-facet graphs, which the
    cover search computes without a cover: no certificate search,
    witness map or ``check_cover``, so a tight budget leaves more of
    itself to that sub-solve.  It is reported only when the target has
    no isolated vertices, where a part's witness map restricts to a
    graph homomorphism between them, and only when that problem stays
    within the query's search limits.  When the target's edge graph has
    a clique as large as its chromatic number ``c``, the sub-solve reads
    ``⌈log_c χ⌉`` of the source's edge graph from colourings, whatever
    ``q.facet_cap``; otherwise it runs the cover search, and skips the
    bound past the cap.  A bound it cannot give is skipped, never
    raised.
    A run that solved first (the CLI's) reads that problem's answer from
    its solve when it is the query's own: a plain facet query whose
    source has dimension at most 1 onto a non-empty target; after the
    solve's ``UndecidedError`` the budget is spent and the sub-solve
    skipped.  The chromatic numbers and the sub-solve charge one budget
    of ``q.limits``; ``chromatic_lower`` is ``None`` when the colourings
    run out.
    """
    return _Run(q).bounds()
