"""Machine-speed sampling, to report times at a fixed reference speed.

The machines this benchmark runs on share their cores: a fixed loop was
measured taking from 125 to 225 ms within one afternoon, in phases that
last seconds to tens of minutes, with no steal time.  Raw times
therefore spread more between runs than the regressions the benchmark
must catch.

A ``SpeedSampler`` runs a small fixed pure-Python probe from a SIGALRM
timer every ``INTERVAL_S`` while a block runs and records how long the
probe took.  The probe shares the machine's state with the solver, so a
pass's median probe time tracks how fast the machine was during that
pass.  A pass time is reported as

    (raw seconds - seconds spent in probes) * PROBE_REF_S / median probe seconds

that is, in seconds at the speed where one probe takes ``PROBE_REF_S``.
The probe does not call facetcx, but it shares the process's heap,
garbage collector and caches with it, so a change to facetcx could move
the probe too.  ``bench/README.md`` reports a check with a known
slowdown and a retained heap added to facetcx: the factor stayed within
its run-to-run spread and the corrected times tracked the raw ones.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.1
# A query's own factor uses the probes within NEAR_S of it.
NEAR_S = 0.5
NEAR_PROBES = 3
# Probe time at the reference speed: a typical median on the 2-core
# x86-64 VM with Python 3.11 the baseline was measured on.  It only
# scales the reported numbers.
PROBE_REF_S = 0.0006


def probe() -> int:
    """Build and sort 300 small frozensets of tuples via dicts.

    Allocation-heavy work like facetcx building ``Complex`` objects and
    map-search tables.  Over eight minutes in which raw pass times
    spread 18-22% (coefficient of variation), correcting by this probe
    left 4-6% on every workload; a plain integer loop left up to 7%, and
    a dict-and-backtracking probe up to 8%.
    """
    out = []
    for i in range(300):
        row = {j: (i, j) for j in range(8)}
        out.append(frozenset(row.values()))
    out.sort(key=len)
    return len(out)


def timed_probe() -> float:
    start = perf_counter()
    probe()
    return perf_counter() - start


class SpeedSampler:
    """Probe the machine from a timer while a block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # probe durations
        self.times: list[float] = []  # probe start times, ascending
        self.spent = 0.0  # seconds inside probes so far

    def _on_alarm(self, signum, frame) -> None:
        self.times.append(perf_counter())
        took = timed_probe()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.times, self.spent = [], [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference seconds per raw second: PROBE_REF_S / median probe time."""
        return PROBE_REF_S / statistics.median(self.samples or [timed_probe()])

    def factor_near(self, start: float, end: float) -> float:
        """The factor from the probes within NEAR_S of [start, end].

        Falls back to the whole block's factor when fewer than
        NEAR_PROBES probes ran that close.
        """
        lo = bisect_left(self.times, start - NEAR_S)
        hi = bisect_right(self.times, end + NEAR_S)
        if hi - lo < NEAR_PROBES:
            return self.factor()
        return PROBE_REF_S / statistics.median(self.samples[lo:hi])
