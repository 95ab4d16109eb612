"""Exact cover-complexity solver for abstract simplicial complexes.

The library measures how far a complex is from admitting a facet or
strict simplicial map into a target: the minimum number of subcomplexes
the source must be split into so that each part admits such a map.  It
ships an exact solver with certificates, chromatic numbers, theorem
bounds, exhaustive reference oracles, and a randomized property
harness.
"""

import importlib

from .coloring import (
    ChromaticResult,
    Coloring,
    block_coloring,
    chromatic_number,
    product_coloring,
    pullback_coloring,
    strict_chromatic_number,
)
from .complexes import (
    EMPTY,
    Complex,
    Metrics,
    boundary_complex,
    build_complex,
    closure,
    complete_complex,
    facet_graph,
    generate,
    metrics,
    relabel,
    skeleton,
    union,
)
from .complexity import (
    INFINITY,
    BoundReport,
    ComplexityQuery,
    ComplexityResult,
    Cover,
    CoverGroup,
    FacetCapError,
    bounds,
    check_cover,
    compute,
    required_facet_indices,
)
from .homsearch import (
    FeasibilityCache,
    SearchLimits,
    SearchProblem,
    SearchResult,
    UndecidedError,
    find_map,
)
from .maps import MapClass, VertexMap, classify, compose, image_inverse
from .scx import ScxError, parse_map, parse_scx, serialize_map, serialize_scx

__version__ = "0.1.0"

# The reference oracles and the property harness serve only their own
# commands, so they load on first use (PEP 562): a solver query does not
# pay for compiling them.  Public name -> home submodule.
_LAZY = {
    "brute_force_chromatic": "oracle",
    "brute_force_cover_complexity": "oracle",
    "brute_force_map_search": "oracle",
    "VerifyConfig": "verify",
    "VerifyReport": "verify",
    "replay_bundle": "verify",
    "run_verify": "verify",
}
_LAZY_SUBMODULES = ("oracle", "samples", "verify")

__all__ = [
    "BoundReport",
    "ChromaticResult",
    "Coloring",
    "Complex",
    "ComplexityQuery",
    "ComplexityResult",
    "Cover",
    "CoverGroup",
    "EMPTY",
    "FacetCapError",
    "FeasibilityCache",
    "INFINITY",
    "MapClass",
    "Metrics",
    "ScxError",
    "SearchLimits",
    "SearchProblem",
    "SearchResult",
    "UndecidedError",
    "VertexMap",
    "VerifyConfig",
    "VerifyReport",
    "block_coloring",
    "boundary_complex",
    "bounds",
    "brute_force_chromatic",
    "brute_force_cover_complexity",
    "brute_force_map_search",
    "build_complex",
    "check_cover",
    "chromatic_number",
    "classify",
    "closure",
    "complete_complex",
    "compose",
    "compute",
    "facet_graph",
    "find_map",
    "generate",
    "image_inverse",
    "metrics",
    "parse_map",
    "parse_scx",
    "product_coloring",
    "pullback_coloring",
    "relabel",
    "replay_bundle",
    "required_facet_indices",
    "run_verify",
    "serialize_map",
    "serialize_scx",
    "skeleton",
    "strict_chromatic_number",
    "union",
]


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
