"""Randomized property-verification harness.

Runs named property checks over a deterministic stream of random
instances and over the built-in samples, producing a byte-stable
report for a fixed configuration.  Failures carry a replayable bundle
(JSON with the instances serialized as .scx text and the check name)
so a counterexample can be re-run in isolation with
:func:`replay_bundle`.

Asserted checks are scoped to what is provably sound under this
library's conventions; genuinely open or hypothesis-laden equalities
are tallied in a non-asserting observations section instead.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field

from . import samples
from .coloring import (
    Coloring,
    block_coloring,
    chromatic_number,
    product_coloring,
    pullback_coloring,
    strict_chromatic_number,
)
from .complexes import (
    Complex,
    boundary_complex,
    _subcomplex,
    build_complex,
    closure,
    complete_complex,
    facet_graph,
    metrics,
    relabel,
    skeleton,
    union,
)
from .complexity import (
    INFINITY,
    ComplexityQuery,
    bounds,
    check_cover,
    compute,
    disjoint_decompose,
)
from .homsearch import SearchProblem, find_map
from .maps import VertexMap, classify, compose, image_inverse
from .oracle import (
    OracleLimits,
    brute_force_chromatic,
    brute_force_cover_complexity,
    brute_force_map_search,
)
from .scx import parse_scx, serialize_scx

KINDS = (("facet", False), ("facet", True), ("strict", False), ("strict", True))


def _det_seed(*parts: Complex) -> int:
    """Deterministic per-instance seed (builtin hash is salted per process)."""
    crc = 0
    for c in parts:
        crc = zlib.crc32(serialize_scx(c).encode(), crc)
    return crc


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 1
    trials: int = 200
    max_vertices: int = 6
    max_facets: int = 6
    max_facet_size: int = 4
    suites: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class Failure:
    suite: str
    check: str
    trial: int
    detail: str
    bundle: str


@dataclass
class VerifyReport:
    config: VerifyConfig
    passed: dict[str, int] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)
    observations: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def text(self) -> str:
        lines = [
            "property verification report",
            f"seed={self.config.seed} trials={self.config.trials} "
            f"max_vertices={self.config.max_vertices} "
            f"max_facets={self.config.max_facets} "
            f"max_facet_size={self.config.max_facet_size}",
            "",
        ]
        for suite in sorted(self.passed):
            bad = sum(1 for f in self.failures if f.suite == suite)
            status = "FAIL" if bad else "ok"
            lines.append(
                f"{status:4} {suite}: {self.passed[suite]} checks passed"
                + (f", {bad} FAILED" if bad else "")
            )
        if self.failures:
            lines.append("")
            lines.append("failures:")
            for f in self.failures:
                lines.append(f"- [{f.suite}] {f.check} (trial {f.trial}): {f.detail}")
        if self.observations:
            lines.append("")
            lines.append("observations (not asserted):")
            for key in sorted(self.observations):
                lines.append(f"- {key}: {self.observations[key]}")
        lines.append("")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


class _Violation(AssertionError):
    pass


def _need(cond: bool, detail: str) -> None:
    if not cond:
        raise _Violation(detail)


class _Ctx:
    """Shared memoized computations plus observation counters."""

    def __init__(self) -> None:
        self._values: dict[tuple, float] = {}
        self._chromatic: dict[Complex, int] = {}
        self.observations: dict[str, int] = {}

    def value(self, s: Complex, t: Complex, kind: str = "facet", inj: bool = False) -> float:
        key = (s, t, kind, inj)
        if key not in self._values:
            self._values[key] = compute(ComplexityQuery(s, t, kind, inj)).value
        return self._values[key]

    def chi(self, c: Complex) -> int:
        if c not in self._chromatic:
            self._chromatic[c] = chromatic_number(c).value
        return self._chromatic[c]

    def observe(self, key: str) -> None:
        self.observations[key] = self.observations.get(key, 0) + 1


def _rand_complex(rng: random.Random, letters: str, cfg: VerifyConfig) -> Complex:
    n = rng.randint(0, min(cfg.max_vertices, len(letters)))
    labs = list(letters[:n])
    faces = []
    for _ in range(rng.randint(0, cfg.max_facets)):
        top = min(cfg.max_facet_size, n)
        if top == 0:
            break
        size = min(rng.choice([1, 1, 2, 2, 2, 3, 3, 4]), top)
        faces.append(rng.sample(labs, size))
    extra = [lab for lab in labs if rng.random() < 0.15]
    return build_complex(faces, explicit_vertices=extra)


def _rand_map(rng: random.Random, s: Complex, t: Complex) -> VertexMap | None:
    if s.n > 0 and t.n == 0:
        return None
    return VertexMap(s, t, tuple(rng.randrange(t.n) for _ in range(s.n)))


def _instances(cfg: VerifyConfig, trial: int) -> dict[str, Complex]:
    rng = random.Random(cfg.seed * 1_000_003 + trial)
    return {
        "L": _rand_complex(rng, "abcdefg", cfg),
        "H": _rand_complex(rng, "pqrstuv", cfg),
        "K": _rand_complex(rng, "wxyz", cfg),
    }


def _bundle(cfg: VerifyConfig, check: str, trial: int, inst: dict[str, Complex]) -> str:
    return json.dumps(
        {
            "check": check,
            "seed": cfg.seed,
            "trial": trial,
            "instances": {name: serialize_scx(c) for name, c in inst.items()},
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# named checks (pure functions of the instance dict + shared context)

def check_structure(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L = inst["L"]
    rebuilt = build_complex(L.facet_lists(), explicit_vertices=L.labels)
    _need(rebuilt == L, "rebuilding from facets changed the complex")
    _need(parse_scx(serialize_scx(L)) == L, "scx round-trip changed the complex")
    m = metrics(L)
    _need(m.dim == L.dim, "metrics dim disagrees with complex dim")
    if L.facets:
        some = [L.members(f) for f in L.facets[: max(1, len(L.facets) // 2)]]
        cl = closure(L, some)
        _need(
            all(frozenset(f) in {frozenset(x) for x in L.facet_sets()} for f in cl.facet_sets()),
            "closure invented facets",
        )
        _need(union([cl, L]) == L, "union with a subcomplex changed the complex")


def check_map_classes(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    rng = random.Random(_det_seed(L, H))
    m = _rand_map(rng, L, H)
    if m is None:
        return
    cls = classify(m)
    # re-derive each flag from the definitions
    simp = all(m.image_mask(f).bit_count() >= 1 and H.is_simplex_mask(m.image_mask(f)) for f in L.facets)
    _need(cls.simplicial == simp, "simplicial flag disagrees with definition")
    strict = simp and all(
        m.image_mask(f).bit_count() == f.bit_count() for f in L.facets
    )
    _need(cls.strict == strict, "strict flag disagrees with definition")
    tgt_facets = set(H.facets)
    facet = simp and all(
        m.image_mask(f) in tgt_facets and m.image_mask(f).bit_count() >= 2
        for f in L.facets
        if f.bit_count() >= 2
    )
    _need(cls.facet == facet, "facet flag disagrees with definition")
    inj = len(set(m.assignment)) == L.n
    _need(cls.injective == inj, "injective flag disagrees with definition")
    if cls.injective and cls.simplicial:
        _need(cls.strict, "injective simplicial map must be strict")
    if cls.strict:
        _need(cls.simplicial, "strict map must be simplicial")


def check_composition(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H, K = inst["L"], inst["H"], inst["K"]
    rng = random.Random(_det_seed(L, H, K))
    f, g = _rand_map(rng, L, H), _rand_map(rng, H, K)
    if f is None or g is None:
        return
    h = compose(f, g)
    cf, cg, ch = classify(f), classify(g), classify(h)
    if cf.simplicial and cg.simplicial:
        _need(ch.simplicial, "composition of simplicial maps must be simplicial")
    if cf.strict and cg.strict:
        _need(ch.strict, "composition of dimension-preserving maps must preserve dimension")
    if cf.facet and cg.facet:
        _need(ch.facet, "composition of facet-preserving maps must preserve facets")
    if cf.injective and cg.injective:
        _need(ch.injective, "composition of injective maps must be injective")


def check_chromatic(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L = inst["L"]
    res = chromatic_number(L)
    if L.n:
        _need(res.witness is not None, "chromatic result for nonempty complex lacks a witness")
        _need(res.witness.k == res.value, "witness uses a different number of colors")
    if L.n <= 8:
        _need(
            res.value == brute_force_chromatic(L),
            f"chromatic value {res.value} disagrees with exhaustive search",
        )
    chi_g = chromatic_number(skeleton(L, 1)).value
    _need(
        strict_chromatic_number(L).value == chi_g,
        "rainbow chromatic number must equal the 1-skeleton's",
    )
    _need(res.value <= chi_g, "complex chromatic number exceeds the 1-skeleton's")
    chi_f = chromatic_number(facet_graph(L)).value
    _need(chi_f <= res.value, "edge-facet graph needs more colors than the complex")


def check_coloring_builders(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L = inst["L"]
    m = metrics(L)
    if m.min_facet_size is not None and m.min_facet_size >= 2:
        gw = chromatic_number(skeleton(L, 1)).witness
        col = block_coloring(L, gw)
        _need(isinstance(col, Coloring), "block construction must return a coloring")
        d = m.min_facet_size - 1
        _need(
            col.k == math.ceil(gw.k / d),
            "block construction used an unexpected number of colors",
        )
    if L.facets:
        half = max(1, len(L.facets) // 2)
        a = _subcomplex(L, L.facets[:half])
        b = _subcomplex(L, L.facets[half:]) if L.facets[half:] else None
        parts = [(a, chromatic_number(a).witness)]
        if b is not None:
            parts.append((b, chromatic_number(b).witness))
        covered = {frozenset(f) for p, _ in parts for f in p.facet_sets()}
        if covered == {frozenset(f) for f in L.facet_sets()}:
            col = product_coloring(L, parts)
            _need(
                col.k <= math.prod(w.k for _, w in parts),
                "product coloring exceeded the product bound",
            )


def check_search_vs_oracle(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, K = inst["L"], inst["K"]
    lims = OracleLimits()
    if L.n > lims.max_source_vertices or K.n > lims.max_target_vertices:
        return
    for kind, inj in KINDS:
        got = find_map(SearchProblem(L, K, kind, inj))
        want = brute_force_map_search(L, K, kind, inj, lims)
        _need(
            got.found == (want is not None),
            f"{'injective ' if inj else ''}{kind} search disagrees with exhaustion",
        )
        if got.found:
            _need(classify(got.map).meets(kind, inj), "found map fails its own kind")


def check_solver_vs_oracle(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, K = inst["L"], inst["K"]
    lims = OracleLimits()
    if (
        L.n > lims.max_source_vertices
        or K.n > lims.max_target_vertices
        or len(L.facets) > 4
        or len(L.simplex_masks()) > 10
    ):
        return
    for kind, inj in KINDS:
        got = ctx.value(L, K, kind, inj)
        want = brute_force_cover_complexity(L, K, kind, inj, lims)
        _need(
            got == want,
            f"cover value {got} != exhaustive {want} for {kind}, injective={inj}",
        )


def check_cover_certificates(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    for kind, inj in KINDS:
        q = ComplexityQuery(L, H, kind, inj)
        res = compute(q)
        if res.cover is not None:
            check_cover(q, res.cover)  # raises on an invalid certificate
            _need(res.value == len(res.cover.groups), "cover size differs from value")
        res2 = compute(q)
        _need(res2.value == res.value and res2.cover == res.cover, "recomputation changed the result")


def check_order(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    if not L.facets:
        return
    rng = random.Random(_det_seed(L, H))
    keep = [f for f in L.facets if rng.random() < 0.6] or [L.facets[0]]
    sub = _subcomplex(L, keep)
    _need(
        ctx.value(sub, H) <= ctx.value(L, H),
        "facet subcomplex has larger value than the whole",
    )
    _need(
        ctx.value(sub, H, "facet", True) <= ctx.value(L, H, "facet", True),
        "facet subcomplex has larger injective value than the whole",
    )
    if H.facets:
        keep_t = [f for f in H.facets if rng.random() < 0.6] or [H.facets[0]]
        sub_t = _subcomplex(H, keep_t)
        _need(
            ctx.value(L, H) <= ctx.value(L, sub_t),
            "shrinking the target decreased the value",
        )
        _need(
            ctx.value(L, H, "facet", True) <= ctx.value(L, sub_t, "facet", True),
            "shrinking the target decreased the injective value",
        )


def check_kind_order(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, K = inst["L"], inst["K"]
    c = ctx.value(L, K, "facet", False)
    ic = ctx.value(L, K, "facet", True)
    cs = ctx.value(L, K, "strict", False)
    ics = ctx.value(L, K, "strict", True)
    _need(c <= ic, "requiring injectivity lowered the facet value")
    _need(cs <= ics, "requiring injectivity lowered the strict value")
    _need(ics <= ic, "an injective facet cover is not an injective strict cover")
    if L.n == 0:
        return
    for kind, inj in KINDS:
        v = ctx.value(L, K, kind, inj)
        found = find_map(SearchProblem(L, K, kind, inj)).found
        _need(
            (v == 1) == found,
            f"single-part value and whole-complex map existence disagree for {kind}/{inj}",
        )


def check_obstruction(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H, K = inst["L"], inst["H"], inst["K"]
    if L.n == 0 or H.n == 0:
        return
    res = find_map(SearchProblem(H, L, "facet", False))
    if res.found:
        _need(
            ctx.value(H, K) <= ctx.value(L, K),
            "a mappable source compared larger against a shared target",
        )
    res_i = find_map(SearchProblem(H, L, "facet", True))
    if res_i.found:
        _need(
            ctx.value(H, K, "facet", True) <= ctx.value(L, K, "facet", True),
            "an injectively mappable source compared larger against a shared target",
        )


def check_triangle(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H, K = inst["L"], inst["H"], inst["K"]
    _need(
        ctx.value(L, K) <= ctx.value(L, H) * ctx.value(H, K),
        "two-step cover product undercuts the direct value",
    )
    _need(
        ctx.value(L, K, "facet", True)
        <= ctx.value(L, H, "facet", True) * ctx.value(H, K, "facet", True),
        "two-step injective cover product undercuts the direct value",
    )


def check_subadditivity(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    if len(L.facets) < 2:
        return
    rng = random.Random(_det_seed(L, H))
    half = rng.randint(1, len(L.facets) - 1)
    a = _subcomplex(L, L.facets[:half])
    b = _subcomplex(L, L.facets[half:])
    for kind, inj in (("facet", False), ("facet", True)):
        va = ctx.value(a, H, kind, inj)
        vb = ctx.value(b, H, kind, inj)
        vl = ctx.value(L, H, kind, inj)
        _need(max(va, vb) <= vl, "part exceeds the union's value")
        _need(vl <= va + vb, "union exceeds the sum of its parts")
        if min(va, vb) == 1:
            big = max(va, vb)
            _need(big <= vl <= big + 1, "one-part union bound violated")


def check_disjoint_union(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    if L.n == 0 or L.n > 4:
        return
    other = relabel(L, {lab: lab + "2" for lab in L.labels})
    both = union([L, other], disjoint=True)
    direct = ctx.value(both, H)
    _need(
        direct == ctx.value(L, H),
        "doubling a complex disjointly changed its value",
    )
    deco = disjoint_decompose(ComplexityQuery(both, H))
    _need(deco.value == direct, "componentwise value differs from direct")


def check_chromatic_bound(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    v = ctx.value(L, H)
    if v == INFINITY:
        return
    _need(
        ctx.chi(L) <= ctx.chi(H) ** v,
        f"chromatic bound fails: {ctx.chi(L)} > {ctx.chi(H)}^{v}",
    )


def check_graph_bound(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    if metrics(H).isolated or L.n == 0:
        return
    _need(
        ctx.value(facet_graph(L), facet_graph(H)) <= ctx.value(L, H),
        "edge-facet graph value exceeds the complex value",
    )


def check_bound_report(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    for kind, inj in KINDS:
        q = ComplexityQuery(L, H, kind, inj)
        b = bounds(q)
        v = ctx.value(L, H, kind, inj)
        _need(b.finite == (v != INFINITY), f"finiteness test wrong for {kind}/{inj}")
        _need(b.lower <= v <= b.upper, f"bracket {b.lower}..{b.upper} misses {v}")
        if b.exact is not None:
            _need(v == b.exact, "theorem-exact value disagrees with solver")


def check_eta_complete_target(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L = inst["L"]
    if L.n == 0 or L.n > 5:
        return
    for size in (2, 3):
        target = complete_complex(size)
        v = ctx.value(L, target, "facet", True)
        nonunit = sum(1 for f in L.facets if f.bit_count() >= 2)
        _need(
            v >= max(1, nonunit),
            "injective value against a one-facet target under the facet count",
        )
        m = metrics(L)
        if m.pure and not m.isolated and m.dim == size - 1:
            _need(v == max(1, nonunit), "pure matching-dimension equality fails")


def check_invariance(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    ren_l = relabel(L, {lab: f"z{i}" for i, lab in enumerate(L.labels)})
    ren_h = relabel(H, {lab: f"y{i}" for i, lab in enumerate(H.labels)})
    for kind, inj in KINDS:
        _need(
            ctx.value(ren_l, ren_h, kind, inj) == ctx.value(L, H, kind, inj),
            f"renaming vertices changed the {kind}/{inj} value",
        )
    _need(ctx.chi(ren_l) == ctx.chi(L), "renaming vertices changed the chromatic number")


def check_skeleton_chain(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    top = min(L.dim, 3)
    prev = None
    for q in range(1, max(top, 1) + 1):
        v = ctx.value(skeleton(L, q), skeleton(H, q), "strict")
        vi = ctx.value(skeleton(L, q), skeleton(H, q), "strict", True)
        if prev is not None:
            _need(prev[0] <= v, "restricting to a skeleton increased the value")
            _need(prev[1] <= vi, "restricting to a skeleton increased the injective value")
        prev = (v, vi)
    if L.dim >= 1:
        tail = ctx.value(skeleton(L, L.dim), skeleton(H, L.dim), "strict")
        full = ctx.value(L, skeleton(H, L.dim), "strict")
        _need(tail == full, "full-dimension skeleton changed the source value")
    # on the 1-skeleta (graphs) the rainbow and facet values agree
    gl, gh = skeleton(L, 1), skeleton(H, 1)
    _need(
        ctx.value(gl, gh, "strict") == ctx.value(gl, gh),
        "1-skeleton rainbow value differs from the graph value",
    )
    _need(
        ctx.value(gl, gh, "strict", True) == ctx.value(gl, gh, "facet", True),
        "injective 1-skeleton rainbow value differs from the graph value",
    )


def check_complete_target_chain(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    """Rainbow covers into one-facet and hollow targets versus graph covers.

    The graph-level value is always a lower bound.  Equality is asserted
    only where the cover lifts: when the graph value is 1 (a single
    homomorphism is injective on every simplex, hence lifts) or the
    source is at most 1-dimensional.  Beyond that the values are
    tallied, not asserted — dense sources genuinely exceed the graph
    value.
    """
    L = inst["L"]
    if L.n == 0 or L.n > 5:
        return
    gl = skeleton(L, 1)
    for n in (2, 3):
        gk = skeleton(complete_complex(n), 1)
        graph_v = ctx.value(gl, gk)
        full_v = ctx.value(L, complete_complex(n), "strict")
        _need(graph_v <= full_v, "graph value exceeds the rainbow value")
        if graph_v == 1 or L.dim <= 1:
            _need(full_v == graph_v, "liftable case fails the equality")
        elif full_v == graph_v:
            ctx.observe(f"one_facet_target_{n}_chain_equal")
        else:
            ctx.observe(f"one_facet_target_{n}_chain_strictly_greater")
        if L.dim <= n - 2:
            hollow_v = ctx.value(L, boundary_complex(n), "strict")
            _need(graph_v <= hollow_v, "graph value exceeds the hollow-target value")
            if graph_v == 1 or L.dim <= 1:
                _need(hollow_v == graph_v, "liftable hollow case fails the equality")
            elif hollow_v == graph_v:
                ctx.observe(f"hollow_target_{n}_chain_equal")
            else:
                ctx.observe(f"hollow_target_{n}_chain_strictly_greater")


def check_pullback(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    res = find_map(SearchProblem(L, H, "facet", False))
    if not res.found or H.n == 0:
        return
    tw = chromatic_number(H).witness
    if tw is None:
        return
    col = pullback_coloring(res.map, tw)
    _need(col.k == tw.k, "pulled-back coloring changed the color count")


def check_image_inverse(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L, H = inst["L"], inst["H"]
    res = find_map(SearchProblem(L, H, "facet", False))
    if not res.found or not H.facets:
        return
    m = res.map
    sub = _subcomplex(H, H.facets[:1])
    pre = image_inverse(m, sub)
    for f in pre.facets:
        _need(
            sub.is_simplex(m(lab) for lab in pre.members(f)),
            "preimage facet leaves the subcomplex",
        )


# ---------------------------------------------------------------------------
# fixed-instance checks (frozen values from the worked examples)

def check_fixture_values(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    L = samples.load("shaded_bowtie")
    K = samples.load("tailed_triangle")
    _need(ctx.chi(L) == 3, "bowtie chromatic number")
    _need(ctx.chi(K) == 2, "tailed-triangle chromatic number")
    _need(strict_chromatic_number(L).value == 3, "bowtie rainbow chromatic number")
    _need(ctx.value(L, K) == 2, "bowtie cover value")
    _need(ctx.value(L, K, "facet", True) == 3, "bowtie injective cover value")
    _need(ctx.value(L, K, "strict") == 1, "bowtie rainbow value")
    _need(ctx.value(L, K, "strict", True) == 2, "bowtie injective rainbow value")
    _need(not find_map(SearchProblem(L, K, "facet")).found, "no whole-complex witness")

    fold = classify(samples.fold_map())
    _need(fold.strict and not fold.facet, "fold map class")
    _need(fold.witness == frozenset({"c", "d"}), "fold map witness facet")
    main = classify(samples.main_part_map())
    edge = classify(samples.edge_part_map())
    _need(main.facet and edge.facet, "part maps must preserve facets")

    # the documented two-part cover is valid (value 2 is attained by it)
    part1 = samples.load("bowtie_main_part")
    part2 = samples.load("bowtie_edge_part")
    _need(
        union([part1, part2]) == L,
        "cover parts do not reassemble the bowtie",
    )

    tri = boundary_complex(3)
    _need(ctx.value(tri, complete_complex(2)) == 2, "hollow triangle to segment")
    _need(ctx.value(tri, complete_complex(3)) == INFINITY, "hollow triangle to solid triangle")
    _need(ctx.value(tri, complete_complex(3), "strict") == 1, "rainbow hollow triangle")
    _need(ctx.value(tri, complete_complex(2), "facet", True) == 3, "injective hollow triangle")

    plus = samples.load("hollow_triangle_plus_point")
    _need(ctx.value(plus, tri, "facet", True) == 2, "extra point forces a second part")
    _need(ctx.value(plus, tri) == 1, "extra point absorbed without injectivity")

    vee, base = samples.load("vee_path"), samples.load("base_edge")
    seg = complete_complex(2)
    _need(ctx.value(vee, seg) == 1 and ctx.value(base, seg) == 1, "parts map in one piece")
    _need(ctx.value(union([vee, base]), seg) == 2, "overlapping union jumps to two")

    b = bounds(ComplexityQuery(L, K))
    _need(b.chromatic_lower == 2 and b.graph_lower == 2, "fixture lower bounds")
    _need(b.eta_upper == 4 and b.finite, "fixture upper bound")


def check_dense_gap_fixture(ctx: _Ctx, inst: dict[str, Complex]) -> None:
    """The documented dense counterexample to unscoped chain equality."""
    two_skel = skeleton(complete_complex(5), 2)
    g5 = skeleton(complete_complex(5), 1)
    g3 = skeleton(complete_complex(3), 1)
    graph_v = ctx.value(g5, g3)
    _need(graph_v == 2, "edge cover of the 5-clique by 3-colorable graphs")
    full_v = ctx.value(two_skel, complete_complex(3), "strict")
    _need(full_v == 3, "rainbow triangle cover of the dense 2-skeleton")
    _need(full_v > graph_v, "dense source must exceed its graph value")


SUITES: dict[str, tuple] = {
    "fixtures": (check_fixture_values, check_dense_gap_fixture),
    "structure": (check_structure,),
    "mapclass": (check_map_classes, check_composition),
    "coloring": (check_chromatic, check_coloring_builders, check_pullback),
    "search": (check_search_vs_oracle,),
    "solver": (check_solver_vs_oracle, check_cover_certificates),
    "order": (check_order, check_kind_order, check_obstruction),
    "triangle": (check_triangle,),
    "subadditivity": (check_subadditivity, check_disjoint_union),
    "bounds": (
        check_chromatic_bound,
        check_graph_bound,
        check_bound_report,
        check_eta_complete_target,
    ),
    "invariance": (check_invariance, check_image_inverse),
    "skeleton": (check_skeleton_chain, check_complete_target_chain),
}

# suites that run once instead of per trial
_FIXED_SUITES = {"fixtures"}
# per-suite trial caps keep exponential reference checks affordable
_TRIAL_CAPS = {"search": 60, "solver": 40}

CHECKS: dict[str, tuple] = {
    fn.__name__: fn for fns in SUITES.values() for fn in fns
}


def run_verify(cfg: VerifyConfig) -> VerifyReport:
    chosen = cfg.suites if cfg.suites is not None else tuple(SUITES)
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; have {', '.join(SUITES)}")
    ctx = _Ctx()
    report = VerifyReport(config=cfg)
    for suite in chosen:
        report.passed[suite] = 0
        trials = 1 if suite in _FIXED_SUITES else min(cfg.trials, _TRIAL_CAPS.get(suite, cfg.trials))
        for trial in range(trials):
            inst = _instances(cfg, trial)
            for fn in SUITES[suite]:
                try:
                    fn(ctx, inst)
                    report.passed[suite] += 1
                except _Violation as v:
                    report.failures.append(
                        Failure(suite, fn.__name__, trial, str(v), _bundle(cfg, fn.__name__, trial, inst))
                    )
                except Exception as exc:  # noqa: BLE001 - checks must not crash the run
                    report.failures.append(
                        Failure(
                            suite,
                            fn.__name__,
                            trial,
                            f"check crashed: {type(exc).__name__}: {exc}",
                            _bundle(cfg, fn.__name__, trial, inst),
                        )
                    )
    report.observations = dict(ctx.observations)
    return report


def replay_bundle(text: str) -> tuple[bool, str]:
    """Re-run one bundled counterexample; returns (passed, detail).

    A bundle is a JSON object as :func:`run_verify` writes it: ``check``
    names a known check, and ``instances`` maps names, ``L``, ``H`` and
    ``K`` among them, to ``.scx`` text.  Any other input raises
    ``ValueError`` naming the problem.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bundle is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("bundle must be a JSON object")
    check = data.get("check")
    if not isinstance(check, str) or check not in CHECKS:
        raise ValueError(f"bundle 'check' names no known check: {check!r}")
    instances = data.get("instances")
    if not isinstance(instances, dict):
        raise ValueError("bundle 'instances' must be an object")
    for name, s in instances.items():
        if not isinstance(s, str):
            raise ValueError(f"bundle instance {name} is not .scx text")
    missing = [name for name in ("L", "H", "K") if name not in instances]
    if missing:
        raise ValueError(f"bundle instances lack {', '.join(missing)}")
    inst = {name: parse_scx(s) for name, s in instances.items()}
    ctx = _Ctx()
    try:
        CHECKS[check](ctx, inst)
        return True, f"{check}: passed on the bundled instances"
    except _Violation as v:
        return False, f"{check}: {v}"
