"""Exact pins of whole searches: ``find_map`` and ``chromatic_number``.

``search_pins.json`` holds one row for each of ``_pin_problems()`` of
``test_homsearch.py``: the ``(found, images, nodes)`` of its map search
and, for its source and its target, the ``(value, witness, nodes)`` of
the colouring search in the three modes of ``facetcx chromatic`` (the
complex, ``--graph`` its 1-skeleton, ``--strict``), with the nodes read
from the ``_Budget`` the search charged.  The test recomputes every row
and compares every field, so a change that moves only the searches'
steps shows too.

Regenerate with ``PYTHONPATH=src python tests/test_search_pins.py`` only
when an answer or node change is intended; it prints each row that
changed.
"""

import json
from pathlib import Path

from facetcx import SearchLimits, chromatic_number, skeleton, strict_chromatic_number
from facetcx.homsearch import _Budget

from test_homsearch import _pin_complex, _pin_problems, _pin_search

PINS = Path(__file__).with_name("search_pins.json")
MODES = {
    "complex": chromatic_number,
    "graph": lambda c, b: chromatic_number(skeleton(c, 1), b),
    "strict": strict_chromatic_number,
}


def _colourings(c) -> dict:
    out = {}
    for mode, number in MODES.items():
        budget = _Budget(SearchLimits())
        res = number(c, budget)
        out[mode] = [res.value, list(res.witness.assignment), budget.nodes]
    return out


def answer(problem: dict) -> dict:
    """Everything a row pins about one problem."""
    res = _pin_search(problem)
    return {
        **problem,
        "found": res.found, "images": list(res.images), "nodes": res.nodes,
        "source_chromatic": _colourings(_pin_complex(problem["source"])),
        "target_chromatic": _colourings(_pin_complex(problem["target"])),
    }


def test_search_pins():
    pins = json.loads(PINS.read_text())
    assert len(pins) == 200
    assert [answer(pin) for pin in pins] == pins
    assert sum(pin["found"] for pin in pins) >= 40  # found maps are pinned too


if __name__ == "__main__":
    old = json.loads(PINS.read_text()) if PINS.exists() else []
    pins = [answer(problem) for problem in _pin_problems()]
    changed = [i for i, row in enumerate(pins) if i >= len(old) or old[i] != row]
    print(f"changed rows: {changed}" if changed else "no row changed")
    PINS.write_text("[\n" + ",\n".join(json.dumps(pin, sort_keys=True) for pin in pins) + "\n]\n")
