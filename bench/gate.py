"""The correctness gate: is one CLI answer right?

An invocation counts as failed unless it exited 0 without raising and
printed one schema-1 JSON object whose answer holds up:

* a full run reports a decided value equal to the expected one (when
  known), inside the ``bounds`` bracket of the same JSON, with a cover of
  that many groups that ``check_cover`` accepts after being rebuilt from
  the JSON (no cover when the value is infinity);
* a ``--bounds-only`` run reports no value, and its bracket holds the
  expected value and the value the full run of the same pair reported.
"""

from __future__ import annotations

import json
import math


def _number(x):
    if x == "infinity":
        return math.inf
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"not a number: {x!r}")
    return x


def _complex(facetcx, facets, vertices):
    return facetcx.build_complex(facets, explicit_vertices=vertices)


def _rebuild_cover(facetcx, source, target, groups):
    out = []
    for g in groups:
        facets = [tuple(f) for f in g["facets"]]
        sub = facetcx.closure(source, facets) if facets else facetcx.Complex()
        witness = facetcx.VertexMap.from_dict(sub, target, g["map"])
        out.append(facetcx.CoverGroup(tuple(frozenset(f) for f in facets), witness))
    return facetcx.Cover(tuple(out))


def check(facetcx, query, rc, stdout, full_value=None) -> str | None:
    """Return why the invocation failed, or None when it passed.

    ``full_value`` is the value the full run of the same pair reported; it
    is checked against a bounds-only bracket.
    """
    pair = query.pair
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    if payload.get("schema") != 1 or payload.get("command") != "complexity":
        return "wrong schema or command"
    if payload.get("kind") != pair.kind or payload.get("injective") != pair.injective:
        return "answer is for another kind"
    try:
        lower = _number(payload["bounds"]["lower"])
        upper = _number(payload["bounds"]["upper"])
        if query.bounds_only:
            if "value" in payload:
                return "--bounds-only reported a value"
            for known in (pair.expected, full_value):
                if known is not None and not lower <= known <= upper:
                    return f"value {known} outside bounds [{lower}, {upper}]"
            return None
        if payload.get("value") == "undecided":
            return "undecided"
        value = _number(payload["value"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"
    if pair.expected is not None and value != pair.expected:
        return f"value {value}, expected {pair.expected}"
    if not lower <= value <= upper:
        return f"value {value} outside bounds [{lower}, {upper}]"
    cover = payload.get("cover")
    if value == math.inf:
        return None if cover is None else "infinite value with a cover"
    if not isinstance(cover, list) or len(cover) != value:
        return f"cover has {len(cover) if isinstance(cover, list) else 'no'} groups for value {value}"
    source = _complex(facetcx, pair.source_facets, pair.source_vertices)
    target = _complex(facetcx, pair.target_facets, pair.target_vertices)
    q = facetcx.ComplexityQuery(source, target, pair.kind, pair.injective)
    try:
        facetcx.check_cover(q, _rebuild_cover(facetcx, source, target, cover))
    except (KeyError, TypeError, ValueError) as exc:
        return f"certificate rejected: {exc}"
    return None


def full_value(stdout: str):
    """The value a full run printed, or None when it printed none."""
    try:
        return _number(json.loads(stdout)["value"])
    except (ValueError, KeyError, TypeError):
        return None


def finite(stdout: str):
    """The ``bounds.finite`` flag an answer printed, or None."""
    try:
        return json.loads(stdout)["bounds"]["finite"]
    except (ValueError, KeyError, TypeError):
        return None
