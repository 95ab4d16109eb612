"""Self-check of the benchmark harness, kept out of the test suite.

Run from the repository root (about 10 seconds)::

    python3 bench/selfcheck.py

It checks that

1. after a traced pass every wrapped name is the original object again,
   and that tracing changed no answer;
2. a deliberately wrong expected value is counted as a failed query;
3. the seeded generator writes identical `.scx` bytes when run twice,
   and other bytes for another seed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import run
import tracing

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _, _, _, first = run.set_up("random_mix", 7, work / "a")
        _, _, _, again = run.set_up("random_mix", 7, work / "b")
        _, facetcx, _, other = run.set_up("random_mix", 8, work / "c")
        expect(files(work / "a") == files(work / "b"), "same seed, identical .scx bytes")
        expect(files(work / "a") != files(work / "c"), "another seed, other .scx bytes")
        expect([q.pair for q in first] == [q.pair for q in again], "same seed, same pairs")

        queries = other[:8]  # the four README fixtures, bounds-only then full
        before = tracing.snapshot(facetcx)
        plain = run.run_pass(facetcx.cli, queries).results
        tracer = tracing.Tracer()
        with tracer.installed(facetcx):
            during = tracing.snapshot(facetcx)
            traced = run.run_pass(facetcx.cli, queries, tracer).results
        after = tracing.snapshot(facetcx)
        expect(all(during[k] is not v for k, v in before.items()), "every traced name was wrapped")
        expect(before.keys() == after.keys()
               and all(after[k] is v for k, v in before.items()),
               "every wrapped name restored to the original object")
        expect(tracer.calls("homsearch.find_map") > 0, "tracer saw map searches")
        expect([r[:2] for r in plain] == [r[:2] for r in traced], "traced answers byte-identical")

        attempted, failed, problems = run.tally(facetcx, queries, [plain, traced])
        expect((attempted, failed, problems) == (16, 0, []), "true expected values pass")
        wrong = list(queries)
        pair = wrong[1].pair
        wrong[1] = dataclasses.replace(
            wrong[1], pair=dataclasses.replace(pair, expected=pair.expected + 1))
        attempted, failed, problems = run.tally(facetcx, wrong, [plain, traced])
        expect((attempted, failed) == (16, 2) and len(problems) == 1,
               "a wrong expected value fails its query in both passes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck", "failed" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
