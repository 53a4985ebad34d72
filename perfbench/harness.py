"""Shared pieces of one benchmark run: metrics, checks, setup timing."""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.stages import STAGES
from repro.obs.profile import StageProfiler

__all__ = ["FINE_EDGES", "Run", "hist_stats", "median_us", "new_profiler"]

#: Profiler bucket edges for the traced run: 50 per decade from 100 ns
#: to 10 s, so a histogram percentile is within 2.3% of the sample.
FINE_EDGES = np.logspace(-7, 1, 8 * 50 + 1)

#: Least time between the starts of two timed cold deploys.
SETUP_SPACING_S = 0.35

#: A percentile that lands on a failed request is infinite; the JSON
#: result reports it as this many milliseconds.
MISSED_MS = 1e6


def new_profiler() -> StageProfiler:
    return StageProfiler(edges=FINE_EDGES)


def median_us(values) -> float:
    return float(np.median(values)) * 1e6 if len(values) else 0.0


def hist_stats(before: dict | None, after: dict, stage: str) -> dict:
    """Median, mean and count of one profiler stage between two snapshots.

    Counts from every variant label are pooled.  The median is the
    geometric midpoint of the bucket holding the nearest-rank sample.
    """
    edges = np.asarray(after["edges"], dtype=float)
    counts = np.zeros(edges.size + 1, dtype=np.int64)
    total = 0.0
    for sign, snap in ((1, after), (-1, before)):
        for entry in (snap or {}).get("stages", []):
            if entry["stage"] == stage:
                counts += sign * np.asarray(entry["counts"], dtype=np.int64)
                total += sign * float(entry["sum"])
    n = int(counts.sum())
    if n == 0:
        return {"p": 0.0, "mean": 0.0, "count": 0}
    rank = max(1, math.ceil(n / 2))
    i = int(np.searchsorted(np.cumsum(counts), rank))
    lo = edges[i - 1] if i > 0 else edges[0] / 10 ** (1 / 50)
    hi = edges[i] if i < edges.size else edges[-1]
    return {"p": float(math.sqrt(lo * hi)), "mean": total / n, "count": n}


@dataclass
class Run:
    """Metrics, sample counts and check outcomes of one invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work_dir: str
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        value = float(value)
        if math.isinf(value):
            value = MISSED_MS
        self.metrics[name] = {"value": value, "unit": unit, "samples": int(samples)}

    def check(self, ok: bool, message: str) -> None:
        """Record a reconciliation failure; any one fails the run."""
        if not ok:
            self.problems.append(message)

    def verify(self, got, want, what: str) -> bool:
        """Bit-exact comparison; a mismatch fails the run."""
        same = np.array_equal(got, want)
        if not same:
            self.mismatches += 1
            if self.mismatches <= 3:
                self.problems.append(f"output mismatch: {what}")
        return same

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def time_setup(self, cold, repeats: int, expect) -> tuple:
        """Run ``cold()`` ``repeats`` times; report the fastest as ``setup_s``.

        Other tenants of a shared host only add to a deploy's time, so
        the fastest deploy of the run is the closest to its own cost.
        Repetitions start at least ``SETUP_SPACING_S`` apart, because
        the host's speed changes in phases that last about a second:
        fifteen back-to-back 64x64 deploys fell inside one phase, and
        their fastest took 46-78 ms from one process to the next; spaced
        out, 48-55 ms.

        ``cold`` builds a fresh deployment, takes it to its first
        correct result and returns ``(resources, close)``.  Each
        repetition must have run exactly the compile stages
        ``expect(resources)`` names.  The last repetition's resources
        are returned open, with their ``close``.
        """
        times, kept = [], None
        for k in range(repeats):
            if k:
                time.sleep(max(0.0, SETUP_SPACING_S - (time.perf_counter() - t0)))
            self.settle()
            before = STAGES.snapshot()
            t0 = time.perf_counter()
            kept = cold()
            times.append(time.perf_counter() - t0)
            delta = {s: n for s, n in STAGES.delta(before).items() if n}
            expected = expect(kept[0])
            self.check(
                delta == expected,
                f"cold setup ran stages {delta}, expected {expected}",
            )
            if k < repeats - 1:
                kept[1]()
        self.put("setup_s", min(times), "s", len(times))
        return kept

    @staticmethod
    def settle() -> None:
        """Collect set-up garbage before a timed phase.

        Repeated cold deploys leave netlists behind that a long-running
        server would not carry; a full collection of them inside a timed
        phase pauses serving for tens of milliseconds.
        """
        gc.collect()

    def peak_rss(self) -> None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.put("rss_mb", kib / 1024.0, "MB", 1)
