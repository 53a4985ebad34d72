"""Seeded load generation and latency statistics.

Open loop: requests are due on a Poisson schedule drawn from the seed,
and each is launched when due whether or not earlier ones finished, so
a stall shows as latency on every later request.  Latency is measured
from the due time, not the launch time, and how late the generator ran
is reported beside it.  Closed loop: a fixed number of callers, each
sending its next request only after the previous one returned.

A request that fails counts as infinite latency, so it misses any limit.
"""

from __future__ import annotations

import asyncio
import math
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhaseResult",
    "closed_loop",
    "meets_limit",
    "open_loop",
    "percentile",
    "poisson_schedule",
]


def poisson_schedule(rate_rps: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from phase start) of a Poisson stream."""
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate_rps and duration_s must be > 0")
    chunk = int(rate_rps * duration_s * 1.1) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate_rps, size=chunk))
    while offsets[-1] < duration_s:
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate_rps, size=chunk))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration_s]


def percentile(values, q: float, failed: int = 0) -> float:
    """Nearest-rank ``q``-th percentile with ``failed`` samples at +inf."""
    arr = np.sort(np.asarray(values, dtype=float))
    n = arr.size + int(failed)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(arr[rank - 1]) if rank <= arr.size else math.inf


def meets_limit(latencies_s, failed: int, limit_s: float, q: float = 90.0) -> bool:
    """Whether the ``q``-th percentile latency, failures included, is within ``limit_s``."""
    return percentile(latencies_s, q, failed) <= limit_s


@dataclass
class PhaseResult:
    """One load phase, possibly run as several chunks interleaved with
    other phases.  Latency percentiles are medians over time slices of
    the chunks, so a stall of the host moves one slice."""

    name: str
    attempted: int = 0
    failed: int = 0
    latencies: array = field(default_factory=lambda: array("d"))
    #: ``perf_counter`` due and completion times of each successful
    #: request, and due times of the failed ones.
    dues: array = field(default_factory=lambda: array("d"))
    done_at: array = field(default_factory=lambda: array("d"))
    failed_dues: array = field(default_factory=lambda: array("d"))
    lags: array = field(default_factory=lambda: array("d"))
    errors: Counter = field(default_factory=Counter)
    #: ``perf_counter`` intervals of the chunks.
    chunks: list[tuple[float, float]] = field(default_factory=list)

    def slices(self, per_chunk: int = 4) -> list[tuple[float, float]]:
        return [
            (lo + (hi - lo) * k / per_chunk, lo + (hi - lo) * (k + 1) / per_chunk)
            for lo, hi in self.chunks
            for k in range(per_chunk)
        ]

    def pct_ms(self, q: float) -> float:
        """Median over slices of the ``q``-th percentile latency (ms) of
        the requests due in each slice, failures at +inf."""
        dues, lat = np.asarray(self.dues), np.asarray(self.latencies)
        failed = np.asarray(self.failed_dues)
        values = []
        for lo, hi in self.slices():
            ok = (dues >= lo) & (dues < hi)
            bad = int(((failed >= lo) & (failed < hi)).sum())
            if ok.any() or bad:
                values.append(percentile(lat[ok], q, bad))
        return float(np.median(values)) * 1e3

    def fastest_mean_ms(self, per_chunk: int = 8) -> float:
        """Mean latency (ms) of the requests due in the fastest time slice.

        In a closed loop every request queues behind the others, so the
        mean latency is the callers times the per-request cost.  Stalls
        of a shared host only add to it, so the fastest slice is the
        closest to the program's own cost.  A failed request makes its
        slice infinitely slow.
        """
        dues, lat = np.asarray(self.dues), np.asarray(self.latencies)
        failed = np.asarray(self.failed_dues)
        values = []
        for lo, hi in self.slices(per_chunk):
            ok = (dues >= lo) & (dues < hi)
            if ((failed >= lo) & (failed < hi)).any():
                values.append(math.inf)
            elif ok.any():
                values.append(float(lat[ok].mean()))
        return min(values) * 1e3

    def rate(self) -> float:
        """Completions per second over the chunks."""
        done = np.asarray(self.done_at)
        inside = sum(((done >= lo) & (done < hi)).sum() for lo, hi in self.chunks)
        return float(inside) / sum(hi - lo for lo, hi in self.chunks)


async def _one(result: PhaseResult, call, key, due: float) -> None:
    try:
        await call(key)
    except Exception as exc:  # noqa: BLE001 - any refusal or error is a failed request
        result.failed += 1
        result.failed_dues.append(due)
        result.errors[type(exc).__name__] += 1
        return
    now = time.perf_counter()
    result.latencies.append(now - due)
    result.dues.append(due)
    result.done_at.append(now)


async def open_loop(result: PhaseResult, call, schedule: np.ndarray, keys, duration_s: float) -> None:
    """Launch ``call(keys[i])`` at ``schedule[i]`` seconds; await them all.

    ``call`` is a coroutine function that raises when its request
    fails.  Adds one chunk of ``duration_s`` to ``result``.
    """
    result.attempted += len(schedule)
    pending: set[asyncio.Task] = set()
    begin = time.perf_counter() + 0.005
    dues = begin + np.asarray(schedule, dtype=float)
    loop = asyncio.get_running_loop()
    i, n = 0, len(dues)
    while i < n:
        now = time.perf_counter()
        while i < n and dues[i] <= now:
            due = float(dues[i])
            result.lags.append(now - due)
            task = loop.create_task(_one(result, call, keys[i], due))
            pending.add(task)
            task.add_done_callback(pending.discard)
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, float(dues[i]) - time.perf_counter()))
    while pending:
        await asyncio.gather(*tuple(pending))
    result.chunks.append((begin, begin + duration_s))


async def closed_loop(result: PhaseResult, call, callers: int, duration_s: float, keys) -> None:
    """``callers`` concurrent callers, each awaiting its previous request;
    adds one chunk of ``duration_s`` to ``result``."""
    begin = time.perf_counter()
    stop = begin + duration_s
    count = len(keys)

    async def caller(k: int) -> None:
        while time.perf_counter() < stop:
            result.attempted += 1
            await _one(result, call, keys[k % count], time.perf_counter())
            k += callers

    await asyncio.gather(*(caller(k) for k in range(callers)))
    result.chunks.append((begin, stop))
