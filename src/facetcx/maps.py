"""Vertex maps between complexes and their classification.

A map is total on the source vertices.  ``classify`` reports four flags:

* simplicial: every facet image is a simplex of the target (then every
  face image is, since faces are subsets of facets);
* strict: simplicial and dimension preserving, i.e. injective on each
  facet;
* facet: simplicial and every non-unitary facet maps exactly onto a
  non-unitary facet of the target;
* injective: globally injective on vertices.

Injective together with simplicial implies strict.  The witness names
the canonically first facet violating the headline flags, checked in
the order simplicial, facet, strict; a purely injectivity failure has
no facet witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .complexes import Complex, _bits, build_complex


@dataclass(frozen=True)
class VertexMap:
    """A total map of source vertices into target vertices.

    ``assignment`` holds a target index per source index, aligned with
    the canonical label order of both complexes.
    """

    source: Complex
    target: Complex
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.source.n:
            raise ValueError("assignment must cover every source vertex")
        for t in self.assignment:
            if not 0 <= t < self.target.n:
                raise ValueError("assignment image out of range")

    @classmethod
    def from_dict(
        cls, source: Complex, target: Complex, assignment: Mapping[str, str]
    ) -> "VertexMap":
        images = []
        for lab in source.labels:
            if lab not in assignment:
                raise ValueError(f"source vertex {lab!r} has no image")
            img = assignment[lab]
            try:
                images.append(target.index(img))
            except KeyError:
                raise ValueError(
                    f"image {img!r} of {lab!r} is not a target vertex"
                ) from None
        extra = set(assignment) - set(source.labels)
        if extra:
            raise ValueError(f"{sorted(extra)[0]!r} is not a source vertex")
        return cls(source, target, tuple(images))

    def as_dict(self) -> dict[str, str]:
        return {
            lab: self.target.labels[t]
            for lab, t in zip(self.source.labels, self.assignment)
        }

    def __call__(self, label: str) -> str:
        return self.target.labels[self.assignment[self.source.index(label)]]

    def image_mask(self, source_mask: int) -> int:
        m = 0
        for i in _bits(source_mask):
            m |= 1 << self.assignment[i]
        return m


def check_kind(kind: str) -> None:
    """Reject a map kind other than ``'facet'`` and ``'strict'``."""
    if kind not in ("facet", "strict"):
        raise ValueError(f"kind must be 'facet' or 'strict', not {kind!r}")


@dataclass(frozen=True)
class MapClass:
    simplicial: bool
    strict: bool
    facet: bool
    injective: bool
    witness: frozenset[str] | None = field(default=None)

    def meets(self, kind: str, injective: bool) -> bool:
        """Is the map of ``kind``, and injective when ``injective`` asks for it?"""
        return _meets(kind, injective, self.strict, self.facet, self.injective)


def _meets(kind: str, injective: bool, strict: bool, facet: bool, is_injective: bool) -> bool:
    """``MapClass.meets`` on the strict, facet and injective flags of
    ``_classify_masks``."""
    return (facet if kind == "facet" else strict) and (is_injective or not injective)


def classify(m: VertexMap) -> MapClass:
    simplicial, strict, facet_flag, injective, witness_mask = _classify_masks(
        m.source.facets, m.assignment, m.target, frozenset(m.target.facets)
    )
    witness = (
        frozenset(m.source.members(witness_mask)) if witness_mask is not None else None
    )
    return MapClass(simplicial, strict, facet_flag, injective, witness)


def _classify_masks(
    facets: Sequence[int],
    assignment: Sequence[int],
    tgt: Complex,
    tgt_facets: frozenset[int],
) -> tuple[bool, bool, bool, bool, int | None]:
    """``classify`` on the complex generated by ``facets``, given as masks.

    ``assignment[v]`` is the target index of source vertex ``v``; only
    the vertices of ``facets`` are read, so a map found on a group of a
    complex's facets is checked in the complex's own indices.
    ``tgt_facets`` is the set of ``tgt``'s facets, which a caller
    checking many maps into one target builds once.  Returns the
    simplicial, strict, facet and injective flags and the witness
    facet's mask (``None`` when those three flags hold).
    """
    simplicial = True
    strict = True
    facet_flag = True
    wit_simplicial = wit_facet = wit_strict = None
    vertices = 0
    for f in facets:
        vertices |= f
        img = 0
        for v in _bits(f):
            img |= 1 << assignment[v]
        if not tgt.is_simplex_mask(img):
            simplicial = False
            if wit_simplicial is None:
                wit_simplicial = f
        if img.bit_count() != f.bit_count():
            strict = False
            if wit_strict is None:
                wit_strict = f
        if f.bit_count() >= 2 and not (img in tgt_facets and img.bit_count() >= 2):
            facet_flag = False
            if wit_facet is None:
                wit_facet = f
    strict = strict and simplicial
    facet_flag = facet_flag and simplicial
    injective = len({assignment[v] for v in _bits(vertices)}) == vertices.bit_count()
    witness_mask = None
    if not simplicial:
        witness_mask = wit_simplicial
    elif not facet_flag:
        witness_mask = wit_facet
    elif not strict:
        witness_mask = wit_strict
    return simplicial, strict, facet_flag, injective, witness_mask


def image_inverse(m: VertexMap, sub: Complex) -> Complex:
    """The largest subcomplex of the source mapping into ``sub``.

    ``sub`` must be a subcomplex of the target (every facet of ``sub`` a
    simplex of the target) and ``m`` must classify simplicial.  The
    result has vertex set f^-1(V(sub)) and contains a face exactly when
    its image is a simplex of ``sub``.
    """
    if not classify(m).simplicial:
        raise ValueError("image_inverse requires a simplicial map")
    tgt = m.target
    for fs in sub.facet_sets():
        if not tgt.is_simplex(fs):
            raise ValueError(f"{sorted(fs)!r} is not a simplex of the target")
    sub_vertices = set(sub.labels)
    pre = [
        i
        for i in range(m.source.n)
        if tgt.labels[m.assignment[i]] in sub_vertices
    ]
    pre_mask = 0
    for i in pre:
        pre_mask |= 1 << i
    faces = []
    for f in m.source.facets:
        for s in sub.facets:
            s_labels = set(sub.members(s))
            keep = 0
            for i in _bits(f & pre_mask):
                if tgt.labels[m.assignment[i]] in s_labels:
                    keep |= 1 << i
            if keep:
                faces.append(m.source.members(keep))
    return build_complex(
        faces,
        explicit_vertices=(m.source.labels[i] for i in pre),
    )


def compose(first: VertexMap, second: VertexMap) -> VertexMap:
    """The composite second after first; endpoints must agree exactly."""
    if first.target != second.source:
        raise ValueError("intermediate complexes differ")
    return VertexMap(
        first.source,
        second.target,
        tuple(second.assignment[t] for t in first.assignment),
    )
