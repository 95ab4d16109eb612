"""Text formats: the .scx complex format and the vertex-map listing.

An .scx file is line oriented.  ``#`` starts a comment, ``name <text>``
gives the complex a display name, ``v <labels...>`` declares vertices
(useful for isolated ones) and ``f <labels...>`` declares a face.
Labels are whitespace-separated opaque tokens without ``#``.
Serialization is canonical: one ``v`` line with the sorted vertex set,
then one ``f`` line per facet in canonical order, so parse/serialize
round-trips.

A map listing is one ``m <source-label> <target-label>`` line per
source vertex.
"""

from __future__ import annotations

from .complexes import Complex, _canonical
from .maps import VertexMap


class ScxError(ValueError):
    """Raised on malformed .scx or map text, naming the offending line."""


def parse_scx(text: str, name: str | None = None) -> Complex:
    """The complex an ``.scx`` text declares; ``name`` unless it names one.

    The tokens ``str.split`` leaves of a line with its comment cut off
    are never empty and hold no whitespace or ``#``, so they are valid
    labels as read and go straight to facet masks.
    """
    faces: list[list[str]] = []
    declared: list[str] = []
    named = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "f":
            if len(tokens) == 1:
                raise ScxError(f"line {lineno}: facet line with no vertices")
            faces.append(tokens[1:])
        elif head == "v":
            declared.extend(tokens[1:])
        elif head == "name":
            if named:
                raise ScxError(f"line {lineno}: repeated name directive")
            named = True
            name = line.strip()[len("name"):].strip()
            if not name:
                raise ScxError(f"line {lineno}: name directive without a name")
        else:
            raise ScxError(f"line {lineno}: unknown directive {head!r}")
    return _canonical(faces, declared, name)


def serialize_scx(c: Complex) -> str:
    """Canonical ``.scx`` text that :func:`parse_scx` reads back as ``c``.

    The display name is written as far as one ``name`` line carries it:
    up to any ``#``, with each run of whitespace (line breaks included)
    as one space, and left out when nothing remains.
    """
    lines = []
    name = " ".join((c.name or "").split("#", 1)[0].split())
    if name:
        lines.append(f"name {name}")
    if c.labels:
        lines.append("v " + " ".join(c.labels))
    for facet in c.facet_lists():
        lines.append("f " + " ".join(facet))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_map(text: str, source: Complex, target: Complex) -> VertexMap:
    """Parse ``m src tgt`` lines into a total vertex map."""
    source_labels = set(source.labels)
    target_labels = set(target.labels)
    assignment: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "m" or len(parts) != 3:
            raise ScxError(f"line {lineno}: expected 'm <source> <target>'")
        src, tgt = parts[1], parts[2]
        if src not in source_labels:
            raise ScxError(f"line {lineno}: unknown source vertex {src!r}")
        if tgt not in target_labels:
            raise ScxError(f"line {lineno}: unknown target vertex {tgt!r}")
        if src in assignment and assignment[src] != tgt:
            raise ScxError(f"line {lineno}: conflicting images for {src!r}")
        assignment[src] = tgt
    missing = [v for v in source.labels if v not in assignment]
    if missing:
        raise ScxError(f"source vertex {missing[0]!r} has no image")
    return VertexMap.from_dict(source, target, assignment)


def serialize_map(m: VertexMap) -> str:
    lines = [
        f"m {src} {tgt}" for src, tgt in sorted(m.as_dict().items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")
