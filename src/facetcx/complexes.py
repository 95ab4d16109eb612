"""Immutable abstract simplicial complexes stored by their facet antichains.

A complex keeps a sorted tuple of vertex labels together with a tuple of
facet bitmasks over those labels.  Canonical ordering (lexicographic on
labels, facets sorted by their member index tuples) makes equality,
hashing and every derived artefact deterministic.  Face membership is
derived rather than stored: a set of vertices is a simplex exactly when
it is a non-empty subset of some facet.  Isolated vertices are the
singleton facets; the vertex set is always the union of the facets.
A graph is a complex of dimension <= 1: its edges and isolated vertices
are its facets, and its 1-skeleton is itself.

Functions
---------
build_complex       construct a canonical complex from faces
generate            seeded generators: complete / boundary / random
complete_complex    the complex with a single all-vertex facet
boundary_complex    all subsets of size <= n-1 of an n-set
metrics             dimension, facet count, degrees, purity, ...
skeleton            the subcomplex of faces up to a given dimension
facet_graph         the subcomplex generated by the facets of size two
union               combine complexes, optionally checking disjointness
closure             the subcomplex generated by a subset of facets
relabel             rename vertices along a bijection
facet_automorphisms a swap and a cycle of each class of twin vertices
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations, pairwise
from typing import Iterable, Iterator, Mapping, Sequence


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _precedes(a: int, b: int) -> bool:
    """Whether ``a``'s sorted bit indices come lexicographically before ``b``'s.

    ``a`` and ``b`` must differ.  Below their lowest differing bit ``d``
    both agree.  If ``d`` is in ``a``, ``b`` continues with a bit above
    ``d`` (``b > d``) or ends, and ``a`` comes first exactly in the first
    case; otherwise ``a`` comes first exactly when it ends (``a < d``).
    This compares two masks in ``_key`` order without building either key.
    """
    diff = a ^ b
    d = diff & -diff
    return b > d if a & d else a < d


# what the whitespace-separated ``.scx`` text cannot carry in a label
_SCX_UNSAFE = re.compile(r"[\s#]")


def _key(mask: int) -> tuple[int, ...]:
    """``tuple(_bits(mask))``, without the generator: it orders every facet."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Complex:
    """A finite abstract simplicial complex in canonical form.

    Attributes
    ----------
    labels : tuple[str, ...]
        Vertex labels, sorted lexicographically.  The position of a label
        is its bit index in every facet mask.  Labels are non-empty and
        hold no whitespace or ``#``, so ``.scx`` text can carry them.
    facets : tuple[int, ...]
        Maximal faces as bitmasks over ``labels``, pairwise incomparable,
        jointly covering every vertex, sorted by member index tuples.
    name : str or None
        Optional display name; ignored by equality and hashing.
    """

    labels: tuple[str, ...] = ()
    facets: tuple[int, ...] = ()
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        labels, facets = self.labels, self.facets
        if any(a >= b for a, b in pairwise(labels)):
            raise ValueError("labels must be sorted and unique")
        # the ``.scx`` text must carry every label: sorted, an empty one is first
        if labels and not labels[0]:
            raise ValueError("empty vertex label")
        if _SCX_UNSAFE.search("".join(labels)):
            bad = next(lab for lab in labels if _SCX_UNSAFE.search(lab))
            raise ValueError(f"vertex label {bad!r} contains whitespace or '#'")
        full = (1 << len(labels)) - 1
        covered = 0
        for m in facets:
            if m <= 0 or m & ~full:
                raise ValueError("facet mask out of range")
            covered |= m
        if covered != full:
            raise ValueError("facets must cover every vertex")
        if not all(a != b and _precedes(a, b) for a, b in pairwise(facets)):
            raise ValueError("facets must be canonically sorted and unique")
        for a in facets:
            for b in facets:
                if a & b == a and a != b:
                    raise ValueError("facets must form an antichain")

    # -- basic views ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        i = bisect_left(self.labels, label)
        if i == len(self.labels) or self.labels[i] != label:
            raise KeyError(label)
        return i

    def members(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in _bits(mask))

    def mask_of(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.index(lab)
        return m

    def facet_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(self.members(m)) for m in self.facets)

    def facet_lists(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.members(m) for m in self.facets)

    # -- face queries --------------------------------------------------

    def is_simplex_mask(self, mask: int) -> bool:
        if mask == 0:
            return False
        return any(mask & ~f == 0 for f in self.facets)

    def is_simplex(self, labels: Iterable[str]) -> bool:
        try:
            mask = self.mask_of(labels)
        except KeyError:
            return False
        return self.is_simplex_mask(mask)

    def simplex_masks(self) -> frozenset[int]:
        """Every non-empty face, as a mask set.  Exponential in facet size."""
        out: set[int] = set()
        for f in self.facets:
            idx = tuple(_bits(f))
            for r in range(1, len(idx) + 1):
                for combo in combinations(idx, r):
                    m = 0
                    for i in combo:
                        m |= 1 << i
                    out.add(m)
        return frozenset(out)

    @property
    def dim(self) -> int:
        """Largest facet dimension; -1 for the empty complex."""
        if not self.facets:
            return -1
        return max(m.bit_count() for m in self.facets) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join("".join(t) for t in self.facet_lists())
        tag = f" {self.name!r}" if self.name else ""
        return f"<Complex{tag} {{{body}}} on {self.n} vertices>"


EMPTY = Complex()


def build_complex(
    faces: Iterable[Iterable[str]],
    explicit_vertices: Iterable[str] = (),
    name: str | None = None,
) -> Complex:
    """Build the canonical complex generated by ``faces``.

    Non-maximal faces are absorbed; vertices listed in
    ``explicit_vertices`` but covered by no face become singleton facets.
    An empty face is rejected with its position in the input; so are
    empty labels and labels containing whitespace or ``#``
    (``Complex``), which the ``.scx`` format could not write back.
    """
    face_list = [tuple(f) for f in faces]
    extra = tuple(explicit_vertices)
    for pos, face in enumerate(face_list):
        if not face:
            raise ValueError(f"face {pos} is empty")
    return _canonical(face_list, extra, name)


def _canonical(
    faces: Sequence[Sequence[str]], vertices: Iterable[str], name: str | None
) -> Complex:
    """The complex generated by non-empty ``faces`` of valid labels.

    Each face becomes a mask over the sorted labels; the maximal masks,
    plus a singleton for every vertex no face covers, are the facets.
    Callers check the faces first (:func:`build_complex`), or read them
    from text that cannot hold a bad one (``scx.parse_scx``); ``Complex``
    checks the labels.
    """
    labels = sorted(set(chain(chain.from_iterable(faces), vertices)))
    bit = {lab: 1 << i for i, lab in enumerate(labels)}
    masks = set()
    for face in faces:
        m = 0
        for v in face:
            m |= bit[v]
        masks.add(m)
    # keep only maximal faces, testing each against the larger ones kept
    maximal: list[int] = []
    covered = 0
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in maximal:
            if m & ~k == 0:
                break
        else:
            maximal.append(m)
            covered |= m
    maximal.extend(1 << i for i in range(len(labels)) if not covered >> i & 1)
    maximal.sort(key=_key)
    return Complex(tuple(labels), tuple(maximal), name)


# -- generators --------------------------------------------------------


def complete_complex(n: int) -> Complex:
    """The complex on vertices 1..n whose single facet is the whole set."""
    if n < 1:
        raise ValueError("complete_complex requires n >= 1")
    labels = tuple(sorted(str(i) for i in range(1, n + 1)))
    return Complex(labels, ((1 << n) - 1,), f"complete-{n}")


def boundary_complex(n: int) -> Complex:
    """All subsets of size <= n-1 of an n-set: n facets of dimension n-2."""
    if n < 2:
        raise ValueError("boundary_complex requires n >= 2")
    labels = tuple(sorted(str(i) for i in range(1, n + 1)))
    full = (1 << n) - 1
    masks = tuple(sorted((full ^ (1 << i) for i in range(n)), key=_key))
    return Complex(labels, masks, f"boundary-{n}")


def generate(kind: str, n: int, params: Mapping[str, object] | None = None) -> Complex:
    """Seeded complex generators.

    ``kind`` is one of ``gamma`` (complete complex), ``kn`` (boundary
    complex) or ``random``.  The random kind requires ``seed`` and draws
    every candidate subset of size <= ``max_facet_size`` independently
    with probability ``density``, then absorbs non-maximal faces and adds
    singletons so no vertex is lost.  Identical parameters give
    bit-identical complexes.
    """
    params = dict(params or {})
    if kind == "gamma":
        return complete_complex(n)
    if kind == "kn":
        return boundary_complex(n)
    if kind != "random":
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < 1:
        raise ValueError("random generator requires n >= 1")
    if "seed" not in params:
        raise ValueError("random generator requires a seed")
    seed = params["seed"]
    max_facet_size = int(params.get("max_facet_size", 3))
    density = float(params.get("density", 0.5))
    if max_facet_size < 1:
        raise ValueError("max_facet_size must be >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    labels = [str(i) for i in range(1, n + 1)]
    faces = []
    for size in range(1, min(max_facet_size, n) + 1):
        for combo in combinations(range(n), size):
            if rng.random() < density:
                faces.append(tuple(labels[i] for i in combo))
    return build_complex(
        faces, explicit_vertices=labels, name=f"random-{n}-s{seed}"
    )


# -- metrics -----------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    """Derived numeric facts about one complex.

    ``degree`` maps each vertex to its number of neighbours, ``d_degree``
    maps (vertex, d) to the number of vertices sharing a d-dimensional
    simplex with it (d >= 1), and ``isolated`` lists the degree-zero
    vertices.  ``pure`` means all facets share one dimension, false for
    the empty complex.
    """

    dim: int
    eta: int
    pure: bool
    degree: dict[str, int]
    d_degree: dict[tuple[str, int], int]
    isolated: tuple[str, ...]
    min_facet_size: int | None
    min_nonunitary_facet_size: int | None


def _degree_tables(
    facets: Sequence[int],
    n: int,
    top: int | None = None,
    members: Sequence[Sequence[int]] | None = None,
) -> dict[int, list[int]]:
    """Per-vertex d-degrees of the complex generated by ``facets``.

    For each d from 1 to the largest facet dimension, or to ``top`` when
    given, row ``d`` gives, for every vertex index below ``n``, the
    number of other vertices sharing a d-simplex with it; row 1 is the
    degree.  Vertices outside the facets read 0, so a group of a
    complex's facets is measured in the complex's own indices.
    ``members``, when given, holds each facet's vertex indices, so a
    caller that has them saves splitting the masks again.
    """
    spans: dict[int, list[int]] = {}
    for f, bits in zip(facets, members if members is not None else map(_key, facets)):
        size = len(bits)
        for d in range(1, size if top is None else min(size, top + 1)):
            row = spans.get(d)
            if row is None:
                row = spans[d] = [0] * n
            for v in bits:
                row[v] |= f
    return {
        d: [(m & ~(1 << v)).bit_count() for v, m in enumerate(row)]
        for d, row in sorted(spans.items())
    }


def metrics(c: Complex) -> Metrics:
    sizes = [m.bit_count() for m in c.facets]
    by_d = _degree_tables(c.facets, c.n)
    deg = by_d.get(1, [0] * c.n)
    degree = {lab: deg[i] for i, lab in enumerate(c.labels)}
    d_degree = {
        (lab, d): row[i]
        for d, row in sorted(by_d.items())
        for i, lab in enumerate(c.labels)
    }
    nonunit = [s for s in sizes if s >= 2]
    return Metrics(
        dim=c.dim,
        eta=len(sizes),
        pure=bool(sizes) and len(set(sizes)) == 1,
        degree=degree,
        d_degree=d_degree,
        isolated=tuple(lab for lab, d in degree.items() if d == 0),
        min_facet_size=min(sizes) if sizes else None,
        min_nonunitary_facet_size=min(nonunit) if nonunit else None,
    )


# -- derived complexes -------------------------------------------------


def skeleton(c: Complex, q: int) -> Complex:
    """The subcomplex of all faces of dimension <= q (q >= 0)."""
    if q < 0:
        raise ValueError("skeleton dimension must be >= 0")
    faces: list[tuple[str, ...]] = []
    for m in c.facets:
        mem = c.members(m)
        if len(mem) <= q + 1:
            faces.append(mem)
        else:
            faces.extend(combinations(mem, q + 1))
    return build_complex(faces, explicit_vertices=c.labels)


def facet_graph(c: Complex) -> Complex:
    """The subcomplex generated by the facets of size exactly two.

    A graph is a complex of dimension <= 1; this one has no isolated
    vertices, only the endpoints of those edges.
    """
    return _subcomplex(c, [m for m in c.facets if m.bit_count() == 2])


def union(parts: Iterable[Complex], disjoint: bool = False) -> Complex:
    """The complex generated by all facets of ``parts``.

    With ``disjoint=True`` the vertex sets must be pairwise disjoint; a
    shared vertex is named in the rejection.
    """
    part_list = list(parts)
    if not part_list:
        raise ValueError("union requires at least one complex")
    if disjoint:
        seen: set[str] = set()
        for p in part_list:
            for lab in p.labels:
                if lab in seen:
                    raise ValueError(f"vertex {lab!r} appears in more than one part")
            seen.update(p.labels)
    faces: list[tuple[str, ...]] = []
    verts: set[str] = set()
    for p in part_list:
        faces.extend(p.facet_lists())
        verts.update(p.labels)
    return build_complex(faces, explicit_vertices=verts)


def closure(c: Complex, facet_subset: Iterable[Iterable[str]]) -> Complex:
    """The subcomplex generated by the given facets of ``c``.

    Every member must be a facet of ``c`` (not merely a face); anything
    else is rejected.
    """
    return _subcomplex(c, [c.mask_of(f) for f in facet_subset])


def _subcomplex(c: Complex, masks: Sequence[int]) -> Complex:
    """The subcomplex generated by the facets ``masks`` of ``c``.

    ``masks`` may come in any order and repeat; the first one that is
    not a facet of ``c`` is rejected.  The subcomplex keeps the vertices
    the facets cover, in ``c``'s order, so each facet is ``c``'s mask
    with the other vertices' bits squeezed out.  Squeezing keeps the
    order of the vertex indices, so the facets stay in ``c``'s canonical
    order.
    """
    wanted = set(masks)
    chosen = tuple(f for f in c.facets if f in wanted)
    if len(chosen) != len(wanted):
        bad = next(m for m in masks if m not in c.facets)
        if bad < 0 or bad >> c.n:
            raise ValueError(f"facet mask {bad} is out of range")
        raise ValueError(f"{list(c.members(bad))!r} is not a facet of the complex")
    vertices = 0
    for f in chosen:
        vertices |= f
    if vertices == (1 << c.n) - 1:
        return Complex(c.labels, chosen)
    squeezed = {v: 1 << i for i, v in enumerate(_bits(vertices))}
    facets = []
    for f in chosen:
        m = 0
        for v in _bits(f):
            m |= squeezed[v]
        facets.append(m)
    return Complex(c.members(vertices), tuple(facets))


def relabel(c: Complex, mapping: Mapping[str, str]) -> Complex:
    """Rename vertices along a bijection; rejects collisions."""
    if sorted(mapping) != list(c.labels):
        raise ValueError("mapping must cover exactly the vertex set")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping must be injective")
    faces = [tuple(mapping[v] for v in f) for f in c.facet_lists()]
    return build_complex(faces, explicit_vertices=mapping.values(), name=c.name)


# -- symmetry ------------------------------------------------------------


def facet_automorphisms(facets: Iterable[int]) -> list[tuple[int, ...]]:
    """Generators of the facet permutations induced by permutations of
    twin vertices, at most two per class of twins.

    ``facets`` is an antichain of vertex masks.  Two vertices are twins
    when swapping them maps the facet set onto itself.  Twinship is an
    equivalence, and its classes are found by swapping each class's
    first vertex with every later vertex.  For a class ``c0 < c1 < … <
    ck`` the generators are the facet permutations of the swap ``(c0
    c1)`` and, when ``k >= 2``, of the cycle ``c0 -> c1 -> … -> ck ->
    c0``: a transposition and a full cycle generate every permutation of
    the class, so the group is that of all ``k`` swaps ``(c0 ci)`` with
    fewer generators to apply.  A generator ``p`` sends ``facets[i]`` to
    ``facets[p[i]]``; permutations that move no facet are dropped, so a
    complex without twins gets ``[]``.

    Twin permutations generate the whole automorphism group of the edges
    or skeleta of a complete complex and of a set of points, but only a
    subgroup elsewhere: nothing on the icosahedron or the Petersen graph,
    order 8 of 48 on the octahedron's 1-skeleton.  Their orbits are then
    finer, and a verdict is constant on them all the same.
    """
    facets = tuple(facets)
    position = {f: i for i, f in enumerate(facets)}
    identity = tuple(range(len(facets)))
    verts = sorted({v for f in facets for v in _bits(f)})
    classed: set[int] = set()
    out: list[tuple[int, ...]] = []
    for k, a in enumerate(verts):
        if a in classed:
            continue
        twins = [a]
        for b in verts[k + 1:]:
            if b in classed:
                continue
            swap = 1 << a | 1 << b
            # a facet holding one of a and b trades it for the other
            if all((f ^ swap if (f & swap).bit_count() == 1 else f) in position for f in facets):
                classed.add(b)
                twins.append(b)
        # the swap of the first two twins, then with three or more the cycle
        for cycle in (twins[:2], twins)[:len(twins) - 1]:
            step = dict(zip(cycle, cycle[1:] + cycle[:1]))
            p = tuple(position[sum(1 << step.get(v, v) for v in _bits(f))] for f in facets)
            if p != identity:
                out.append(p)
    return out
