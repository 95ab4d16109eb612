"""Digest every answer of the benchmark's seed-1 invocations and of verify.

Usage (from the repository root)::

    python3 tests/answer_digests.py -o before.json        # on one checkout
    python3 tests/answer_digests.py --compare before.json  # on another

The script renders the three workloads of ``bench/workloads.py`` for
seed 1, 620 ``facetcx complexity`` invocations in all, and runs each one
in this process through ``facetcx.cli.run``, followed by the six reports
of ``facetcx verify --seed S --trials 200``, as text and with
``--json``, for S = 1, 2, 3.  It records one SHA-256
digest per invocation over its exit code (or the exception it raised),
stdout and stderr, plus a second digest with every ``"nodes"`` field
left out of the JSON, so a comparison can tell answers that moved only
in search nodes from answers that changed.  ``-o FILE`` writes the
digests as JSON.  ``--compare FILE`` lists each invocation whose digest
differs from FILE's, as "nodes only" or "CHANGED", and exits 1 when any
differs.

``tests/answer_digests.json`` holds the digests of the current answers,
and CI runs ``--compare tests/answer_digests.json``.  A change that
moves an answer regenerates that file with ``-o`` and declares each
changed entry, as it would a row of ``tests/cover_pins.json``.

The queries are written to a temporary directory and named relative to
it, so the digests do not depend on where it lies.  Nothing under
``bench/`` is changed.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import facetcx.cli  # noqa: E402
import workloads  # noqa: E402

SEED = 1
VERIFY_SEEDS = (1, 2, 3)


def _without_nodes(value):
    if isinstance(value, dict):
        return {k: _without_nodes(v) for k, v in value.items() if k != "nodes"}
    if isinstance(value, list):
        return [_without_nodes(v) for v in value]
    return value


def _digest(rc: int | str, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


def _answer(argv: list[str]) -> list[str]:
    """``[digest, digest without nodes]`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = facetcx.cli.run(argv)
    except Exception as exc:  # a crash is an answer that differs
        rc = f"{type(exc).__name__}: {exc}"
    try:
        bare = json.dumps(_without_nodes(json.loads(out.getvalue())), sort_keys=True)
    except json.JSONDecodeError:
        bare = out.getvalue()
    return [_digest(rc, out.getvalue(), err.getvalue()), _digest(rc, bare, err.getvalue())]


def digests() -> dict[str, list[str]]:
    """``{invocation: [digest, digest without nodes]}`` over all workloads
    and the verify runs."""
    table = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in workloads.WORKLOADS:
                pairs = workloads.pairs_for(workload, facetcx)
                queries, files = workloads.render_queries(pairs, SEED, Path(workload))
                Path(workload).mkdir()
                for path, text in files.items():
                    path.write_text(text)
                for i, query in enumerate(queries):
                    mode = "bounds-only" if query.bounds_only else "full"
                    table[f"{workload} {i:03d} {query.pair.name} {mode}"] = _answer(query.argv)
            for seed in VERIFY_SEEDS:
                argv = ["verify", "--seed", str(seed), "--trials", "200"]
                table[f"verify seed {seed} text"] = _answer(argv)
                table[f"verify seed {seed} json"] = _answer(argv + ["--json"])
        finally:
            os.chdir(cwd)
    return table


def compare(old: dict[str, list[str]], new: dict[str, list[str]]) -> list[str]:
    """One line per invocation whose digest differs, or that only one side ran."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            lines.append(f"{key}: MISSING on the {'old' if a is None else 'new'} side")
        elif a[0] != b[0]:
            lines.append(f"{key}: {'nodes only' if a[1] == b[1] else 'CHANGED'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--output", help="write the digests to this JSON file")
    parser.add_argument("--compare", metavar="FILE",
                        help="list the invocations whose digest differs from FILE's")
    args = parser.parse_args(argv)
    table = digests()
    if args.output:
        Path(args.output).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} invocations digested")
    if args.compare:
        lines = compare(json.loads(Path(args.compare).read_text()), table)
        for line in lines:
            print(line)
        print(f"{len(lines)} differ from {args.compare}")
        return 1 if lines else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
