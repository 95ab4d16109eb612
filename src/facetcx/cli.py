"""Command-line front end.

Exit codes: 0 success, 1 standard output closed before the command
finished writing, 2 usage or input error, 3 proven non-existence
(map search), 4 undecided within budget, 5 property violation
(verification).  ``--json`` switches every command to a single
machine-readable object with a ``schema`` version field.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import samples
from .coloring import chromatic_number, strict_chromatic_number
from .complexes import Complex, generate, metrics, skeleton
from .complexity import INFINITY, ComplexityQuery, _Run
from .homsearch import SearchLimits, SearchProblem, UndecidedError, _Budget, find_map
from .maps import classify
from .scx import ScxError, parse_map, parse_scx, serialize_scx

SCHEMA = 1
_FACET_CAP_HELP = (
    "refuse sources with more constrained facets than this; the cover search "
    "allocates 2 bytes per mask over all 2**m masks of m constrained facets before "
    "its first probe, whatever the budget: 2 MB at 20, about 34 MB at 24, 537 MB "
    "at 28; tables that cannot be allocated exit 2, but a granted allocation can "
    "still fill memory"
)


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    """The text of the file at ``path``; an unreadable one is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Path, text: str, parents: bool = False) -> None:
    """Write ``text`` to ``path``, with ``parents`` in a directory made
    on demand; a path that cannot be written is a usage error."""
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_complex(path: str) -> Complex:
    try:
        return parse_scx(_read_text(path), name=Path(path).stem)
    except ScxError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _num(x) -> object:
    if x is None:
        return None
    if x == INFINITY:
        return "infinity"
    return x


def _emit(args, payload: dict, text: list[str] | None = None) -> None:
    """Print a command's schema-1 payload, as JSON or as text.

    The text is rendered from the payload by :func:`_render`; only a
    ``verify`` run passes its own, the library's report, whose settings
    the payload does not carry.
    """
    command = args.command
    if command == "oracle":
        command += " " + args.oracle_command
    payload = {"schema": SCHEMA, "command": command, **payload}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for line in _render(payload) if text is None else text:
        print(line)


def _text(x) -> str:
    """A payload number as text, with ``-`` for an absent bound."""
    return "-" if x is None else str(x)


def _render(p: dict) -> list[str]:
    """The text form of a schema-1 payload."""
    command = p["command"]
    if "undecided" in (p.get("found"), p.get("value")):
        return [f"UNDECIDED after {p['nodes']} nodes"]
    if command == "info":
        return [
            f"name:        {p['name'] or '-'}",
            f"vertices:    {len(p['vertices'])} ({' '.join(p['vertices'])})",
            f"facets:      {p['facet_count']}",
            *(f"  {' '.join(f)}" for f in p["facets"]),
            f"dim:         {p['dim']}",
            f"pure:        {p['pure']}",
            f"isolated:    {' '.join(p['isolated']) or '-'}",
        ]
    if command == "chromatic":
        lines = [f"chromatic number ({p['mode']}): {p['value']}"]
        w = p["witness"]
        if w:
            lines.append("witness: " + " ".join(f"{v}={w[v]}" for v in sorted(w)))
        return lines
    if command == "oracle chromatic":
        return [f"chromatic number (exhaustive): {p['value']}"]
    if command == "oracle complexity":
        return [f"value (exhaustive): {_text(p['value'])}"]
    if p.get("mode") == "replay":
        return [p["detail"]]
    if p.get("mode") == "classify":
        lines = ["classes: " + " ".join(k for k, flag in p["classes"].items() if flag)]
        if p["witness"]:
            lines.append(
                "first-violation witness (earliest failed class): " + " ".join(p["witness"])
            )
        lines.append(f"satisfies requested kind: {'yes' if p['satisfies'] else 'no'}")
        return lines
    if "found" in p:  # map-check and oracle map-search: a map listing
        if not p["found"]:
            return ["NONE"]
        return [f"m {src} {tgt}" for src, tgt in sorted(p["map"].items())]
    if "value" not in p:  # complexity --bounds-only and bounds
        b = p["bounds"]
        return [
            f"finite:             {b['finite']}",
            f"eta upper:          {_text(b['eta_upper'])}",
            f"chromatic lower:    {_text(b['chromatic_lower'])}",
            f"graph lower:        {_text(b['graph_lower'])}",
            f"complete-target ic: {_text(b['complete_target_ic'])}",
            f"exact:              {_text(b['exact'])}",
        ]
    lines = [f"value: {_text(p['value'])}"]
    for i, g in enumerate(p["cover"] or (), start=1):
        assign = " ".join(f"{k}->{v}" for k, v in sorted(g["map"].items()))
        lines.append(f"group {i}: " + " + ".join("{" + " ".join(f) + "}" for f in g["facets"]))
        lines.append(f"  map: {assign or '(empty)'}")
    return lines


def _budget(args) -> _Budget:
    """The run's one budget, which all its searches charge."""
    return _Budget(SearchLimits(
        max_nodes=args.node_budget,
        max_seconds=args.time_budget if args.time_budget else math.inf,
    ))


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-budget", type=int, default=SearchLimits.max_nodes,
                   help="map-search and colouring nodes of the whole run before "
                        "reporting undecided (cover-search steps read only the deadline)")
    p.add_argument("--time-budget", type=float, default=0,
                   help="wall-clock budget in seconds (0 = unlimited)")


def _add_kind_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("facet", "strict"), default="facet",
                   help="map kind the parts must admit")
    p.add_argument("--strict", action="store_true",
                   help="shorthand for --kind strict")
    p.add_argument("--injective", action="store_true",
                   help="require injective maps")


def _kind_of(args) -> str:
    return "strict" if args.strict else args.kind


# ---------------------------------------------------------------------------
# subcommands: each builds its payload and hands it to _emit

def _cmd_info(args) -> int:
    c = _read_complex(args.complex)
    m = metrics(c)
    _emit(args, {
        "name": c.name,
        "vertices": list(c.labels),
        "facets": c.facet_lists(),
        "dim": m.dim,
        "facet_count": len(c.facets),
        "pure": m.pure,
        "isolated": list(m.isolated),
        "degree": m.degree,
        "min_facet_size": m.min_facet_size,
    })
    return 0


def _cmd_chromatic(args) -> int:
    c = _read_complex(args.complex)
    mode = "graph" if args.graph else "strict" if args.strict else "complex"
    number = strict_chromatic_number if args.strict else chromatic_number
    try:
        res = number(skeleton(c, 1) if args.graph else c, _budget(args))
    except UndecidedError as exc:
        _emit(args, {"mode": mode, "value": "undecided", "nodes": exc.nodes})
        return 4
    witness = res.witness.as_dict() if res.witness else None
    _emit(args, {"mode": mode, "value": res.value, "witness": witness})
    return 0


def _cmd_map_check(args) -> int:
    source = _read_complex(args.source)
    target = _read_complex(args.target)
    kind = _kind_of(args)
    payload = {"kind": kind, "injective": args.injective}
    if args.map:
        try:
            m = parse_map(_read_text(args.map), source, target)
        except ScxError as exc:
            raise _UsageError(f"{args.map}: {exc}") from exc
        cls = classify(m)
        payload.update({
            "mode": "classify",
            "map": m.as_dict(),
            "classes": {
                "simplicial": cls.simplicial,
                "strict": cls.strict,
                "facet": cls.facet,
                "injective": cls.injective,
            },
            "witness": sorted(cls.witness) if cls.witness else None,
            "satisfies": cls.meets(kind, args.injective),
        })
        _emit(args, payload)
        return 0
    try:
        res = find_map(SearchProblem(source, target, kind, args.injective, _budget(args)))
    except UndecidedError as exc:
        payload.update({"found": "undecided", "nodes": exc.nodes})
        _emit(args, payload)
        return 4
    payload.update({
        "found": res.found,
        "map": res.map.as_dict() if res.found else None,
        "nodes": res.nodes,
    })
    _emit(args, payload)
    return 0 if res.found else 3


def _cmd_complexity(args) -> int:
    """``complexity``, and ``bounds`` as ``complexity --bounds-only``."""
    source = _read_complex(args.source)
    target = _read_complex(args.target)
    q = ComplexityQuery(
        source, target, _kind_of(args), args.injective, _budget(args), args.facet_cap
    )
    run = _Run(q)
    if not args.bounds_only:
        with contextlib.suppress(UndecidedError):
            run.result()
    res, b = run.outcome, run.bounds()
    payload = {
        "kind": q.kind,
        "injective": q.injective,
        "bounds": {
            "finite": b.finite,
            "eta_upper": _num(b.eta_upper),
            "chromatic_lower": _num(b.chromatic_lower),
            "graph_lower": _num(b.graph_lower),
            "complete_target_ic": _num(b.complete_target_ic),
            "exact": _num(b.exact),
            "lower": _num(b.lower),
            "upper": _num(b.upper),
        },
    }
    if isinstance(res, UndecidedError):
        payload.update({"value": "undecided", "nodes": res.nodes})
    elif res is not None:
        payload["value"] = _num(res.value)
        payload["nodes"] = res.nodes
        payload["cover"] = (
            [
                {"facets": [sorted(f) for f in g.facets], "map": g.map.as_dict()}
                for g in res.cover.groups
            ]
            if res.cover
            else None
        )
    _emit(args, payload)
    return 4 if isinstance(res, UndecidedError) else 0


def _cmd_gen(args) -> int:
    if args.generator == "sample":
        try:
            c = samples.load(args.name)
        except KeyError as exc:
            raise _UsageError(str(exc.args[0])) from exc
    else:
        # the ``random`` generator's flags; ``gamma`` and ``kn`` have none
        params = {k: v for k, v in vars(args).items() if k in ("seed", "density", "max_facet_size")}
        c = generate(args.generator, args.n, params)
    return _write_scx(args, c)


def _cmd_skeleton(args) -> int:
    c = _read_complex(args.complex)
    if args.q < 0:
        raise _UsageError("the skeleton dimension must be nonnegative")
    return _write_scx(args, skeleton(c, args.q))


def _write_scx(args, c: Complex) -> int:
    text = serialize_scx(c)
    if args.output:
        _write_text(Path(args.output), text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .verify import VerifyConfig, replay_bundle, run_verify  # only this command loads the harness

    if args.replay:
        ok, detail = replay_bundle(_read_text(args.replay))
        _emit(args, {"mode": "replay", "passed": ok, "detail": detail})
        return 0 if ok else 5
    suites = None if args.suites is None else tuple(args.suites.split(","))
    report = run_verify(VerifyConfig(seed=args.seed, trials=args.trials, suites=suites))
    bundle_paths = []
    if not report.ok:
        out_dir = Path(args.output or ".")
        for i, f in enumerate(report.failures):
            path = out_dir / f"counterexample-{f.check}-{f.trial}-{i}.json"
            _write_text(path, f.bundle + "\n", parents=True)
            bundle_paths.append(str(path))
    payload = {
        "passed": report.ok,
        "suites": report.passed,
        "failures": [
            {"suite": f.suite, "check": f.check, "trial": f.trial, "detail": f.detail}
            for f in report.failures
        ],
        "observations": report.observations,
        "bundles": bundle_paths,
    }
    text = [report.text().rstrip("\n")]
    text += [f"counterexample bundle: {p}" for p in bundle_paths]
    _emit(args, payload, text)
    return 0 if report.ok else 5


def _cmd_oracle(args) -> int:
    from .oracle import (  # only this command loads the oracles
        brute_force_chromatic,
        brute_force_cover_complexity,
        brute_force_map_search,
    )

    if args.oracle_command == "chromatic":
        c = _read_complex(args.complex)
        _emit(args, {"value": brute_force_chromatic(c)})
        return 0
    source = _read_complex(args.source)
    target = _read_complex(args.target)
    kind = _kind_of(args)
    payload = {"kind": kind, "injective": args.injective}
    if args.oracle_command == "map-search":
        m = brute_force_map_search(source, target, kind, args.injective)
        payload.update({"found": m is not None, "map": m.as_dict() if m else None})
        _emit(args, payload)
        return 0 if m else 3
    value = brute_force_cover_complexity(source, target, kind, args.injective)
    payload["value"] = _num(value)
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every ``run``."""
    parser = _Parser(
        prog="facetcx",
        description="Exact cover-complexity solver for abstract simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a complex")
    p.add_argument("complex", help=".scx file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("chromatic", help="chromatic number with witness")
    p.add_argument("complex", help=".scx file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--graph", action="store_true", help="underlying graph's number")
    mode.add_argument("--strict", action="store_true", help="rainbow (per-facet) number")
    _add_limit_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_chromatic)

    p = sub.add_parser("map-check", help="search for a map, or classify one with --map")
    p.add_argument("source", help="source .scx file")
    p.add_argument("target", help="target .scx file")
    _add_kind_flags(p)
    p.add_argument("--map", help="map listing to classify instead of searching")
    _add_limit_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_map_check)

    p = sub.add_parser("complexity", help="exact minimum cover with certificate")
    p.add_argument("source", help="source .scx file")
    p.add_argument("target", help="target .scx file")
    _add_kind_flags(p)
    p.add_argument("--facet-cap", type=int, default=ComplexityQuery.facet_cap, help=_FACET_CAP_HELP)
    p.add_argument("--bounds-only", action="store_true",
                   help="report theorem bounds without solving")
    _add_limit_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_complexity)

    p = sub.add_parser("bounds", help="theorem bounds without solving")
    p.add_argument("source", help="source .scx file")
    p.add_argument("target", help="target .scx file")
    _add_kind_flags(p)
    p.add_argument("--facet-cap", type=int, default=ComplexityQuery.facet_cap, help=_FACET_CAP_HELP)
    _add_limit_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_complexity, bounds_only=True)

    p = sub.add_parser("gen", help="generate an .scx file")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("gamma", help="one-facet complex on n vertices")
    g.add_argument("n", type=int)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)
    g = gsub.add_parser("kn", help="hollow complex on n vertices")
    g.add_argument("n", type=int)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)
    g = gsub.add_parser("random", help="seeded random complex")
    g.add_argument("n", type=int)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--max-facet-size", type=int, default=3)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)
    g = gsub.add_parser("sample", help="built-in sample complex")
    g.add_argument("name", help=", ".join(samples.names()))
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("skeleton", help="write the q-skeleton of a complex")
    p.add_argument("complex", help=".scx file")
    p.add_argument("q", type=int, help="skeleton dimension")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_skeleton)

    p = sub.add_parser("verify", help="run the property-verification harness")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--suites", help="comma-separated subset of suites")
    p.add_argument("--replay", help="re-run a counterexample bundle")
    p.add_argument("-o", "--output", help="directory for counterexample bundles")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive reference implementations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    o = osub.add_parser("map-search", help="first matching map by enumeration")
    o.add_argument("source")
    o.add_argument("target")
    _add_kind_flags(o)
    o.add_argument("--json", action="store_true")
    o.set_defaults(fn=_cmd_oracle)
    o = osub.add_parser("complexity", help="cover value by enumeration")
    o.add_argument("source")
    o.add_argument("target")
    _add_kind_flags(o)
    o.add_argument("--json", action="store_true")
    o.set_defaults(fn=_cmd_oracle)
    o = osub.add_parser("chromatic", help="chromatic number by enumeration")
    o.add_argument("complex")
    o.add_argument("--json", action="store_true")
    o.set_defaults(fn=_cmd_oracle)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:  # usage, file and parse errors, input rejected by the library
        print(str(exc), file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at
        # devnull so that flush cannot fail and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
