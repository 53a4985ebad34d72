"""Tests of the benchmark's own pieces: schedule, spans, statistics, contract."""

import asyncio
import json
import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.harness import FINE_EDGES, MISSED_MS, Run, hist_stats
from perfbench.layers import PER_LAYER, SERVING_TOLERANCE, _check_coverage, resume_waits
from perfbench.loadgen import (
    PhaseResult,
    meets_limit,
    open_loop,
    percentile,
    poisson_schedule,
)
from perfbench.spans import SpanLog, self_times
from perfbench.workloads import END_TO_END, WORKLOADS, exact_product

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- Poisson schedule ----------------------------------------------------------


def test_schedule_is_reproducible_from_the_seed():
    a = poisson_schedule(2000.0, 1.5, np.random.default_rng(7))
    b = poisson_schedule(2000.0, 1.5, np.random.default_rng(7))
    c = poisson_schedule(2000.0, 1.5, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_schedule_is_a_poisson_stream_within_the_phase():
    offsets = poisson_schedule(5000.0, 2.0, np.random.default_rng(1))
    assert np.all(np.diff(offsets) > 0)
    assert offsets[0] >= 0 and offsets[-1] < 2.0
    # 10000 expected arrivals: a 5-sigma band is +-500.
    assert abs(offsets.size - 10000) < 500
    gaps = np.diff(offsets)
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)


class _ShortDraws:
    """A generator whose first ``short`` exponential draws are a hundredth
    of their scale, so they cover a sliver of the phase."""

    def __init__(self, rng, short: int) -> None:
        self.rng, self.short, self.calls = rng, short, 0

    def exponential(self, scale, size):
        self.calls += 1
        draws = self.rng.exponential(scale, size)
        return draws / 100 if self.calls <= self.short else draws


def test_schedule_extends_past_unlucky_draws():
    # The first two draws end ~0.045 s into a 2 s phase; the schedule
    # must keep drawing until the stream reaches the phase's end.
    rng = _ShortDraws(np.random.default_rng(3), short=2)
    offsets = poisson_schedule(1000.0, 2.0, rng)
    assert rng.calls >= 3
    assert np.all(np.diff(offsets) > 0)
    assert 1.99 < offsets[-1] < 2.0


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # root [0,10]; a [1,4] and b [3,6] overlap; c [2,3] under a;
    # d [9,12] under root runs past its parent's end.
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    got = self_times(parent, start, end)
    np.testing.assert_allclose(got, [10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_self_times_of_a_nested_tree_sum_to_the_root():
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 1.0, 1.5, 3.0, 6.0]
    end = [8.0, 5.0, 2.5, 4.0, 7.5]
    assert self_times(parent, start, end).sum() == pytest.approx(8.0)


def test_span_log_records_parents_across_sync_and_async_calls():
    class Layer:
        def inner(self):
            return [1, 2, 3]

        def outer(self):
            return self.inner()

        async def serve(self):
            await asyncio.sleep(0)
            return self.outer()

    log = SpanLog()
    log.patch(Layer, "inner", "inner", observe=len)
    log.patch(Layer, "outer", "outer")
    log.patch(Layer, "serve", "serve")
    try:
        with log.span("bench"):
            asyncio.run(Layer().serve())
    finally:
        log.unpatch()
    assert Layer.__dict__["inner"].__name__ == "inner"
    table = log.table()
    names = [log.names[i] for i in table["name"]]
    row = {name: names.index(name) for name in names}
    assert table["parent"][row["inner"]] == row["outer"]
    assert table["parent"][row["outer"]] == row["serve"]
    assert table["parent"][row["serve"]] == row["bench"]
    assert table["root"][row["inner"]] == row["bench"]
    assert table["obs"][row["inner"]] == 3
    duration = table["end"] - table["start"]
    assert table["self"].sum() == pytest.approx(duration[row["bench"]])
    assert list(log.rows(table, "inner", "bench")) == [row["inner"]]


def test_resume_wait_runs_from_the_last_batch_to_end_before_the_return():
    # Rows 0-2 are requests' batcher waits, rows 3-5 batch ends.
    table = {
        "start": np.array([0.0, 1.0, 5.0, 0.5, 1.5, 2.5]),
        "end": np.array([2.0, 3.5, 6.0, 1.0, 1.8, 3.0]),
    }
    got = resume_waits(table, np.array([0, 1, 2]), np.array([3, 4, 5]))
    # Request 0 returned at 2.0, after batches ending at 1.0 and 1.8:
    # the later one counts.  Request 1 began at 1.0 and returned at 3.5
    # after the batch ending at 3.0.  Request 2 began after every batch
    # ended, so it has no batch and is left out.
    np.testing.assert_allclose(got, [0.2, 0.5])


def test_a_ledger_below_its_tolerance_fails_the_run():
    run = Run("w", 0, 1.0, True, ".")
    _check_coverage(run, SERVING_TOLERANCE + 0.01, 10, SERVING_TOLERANCE)
    assert not run.problems
    _check_coverage(run, SERVING_TOLERANCE - 0.01, 10, SERVING_TOLERANCE)
    assert len(run.problems) == 1
    assert run.metrics["ledger.coverage"]["value"] == pytest.approx(SERVING_TOLERANCE - 0.01)


# -- failures and percentiles ----------------------------------------------------


def test_a_failed_request_counts_as_a_missed_limit():
    fast = [0.001] * 9
    assert meets_limit(fast + [0.001], failed=0, limit_s=0.010)
    # One failure in ten: the nearest-rank p90 is the 9th value, still met.
    assert meets_limit(fast, failed=1, limit_s=0.010)
    # Two in ten: the p90 lands on a failure, which is infinitely late.
    assert percentile(fast[:8], 90, failed=2) == math.inf
    assert not meets_limit(fast[:8], failed=2, limit_s=0.010)
    assert not meets_limit([], failed=1, limit_s=1e9)


def test_failed_requests_reach_the_reported_latency():
    async def refuse(key):
        raise RuntimeError("refused")

    result = PhaseResult("p")
    asyncio.run(open_loop(result, refuse, np.linspace(0, 0.01, 20), range(20), 0.02))
    assert result.failed == 20 and result.errors == {"RuntimeError": 20}
    assert result.pct_ms(90) == math.inf
    run = Run("w", 0, 1.0, False, ".")
    run.put("p90_ms.high", result.pct_ms(90), "ms", result.attempted)
    assert run.metrics["p90_ms.high"]["value"] == MISSED_MS


def test_slice_statistics_ignore_one_slow_slice():
    result = PhaseResult("p", chunks=[(0.0, 1.0), (1.0, 2.0)])
    for k in range(800):
        due = k / 400.0
        slow = 0.25 <= due < 0.5
        result.dues.append(due)
        result.latencies.append(0.050 if slow else 0.001)
        result.done_at.append(due + (0.5 if slow else 0.0))
    # One of eight quarter-second slices is slow: its percentile and its
    # completions move, the medians over slices do not.
    assert result.pct_ms(90) == pytest.approx(1.0)
    assert percentile(result.latencies, 95) == 0.050
    assert result.rate() == pytest.approx(400.0)


def test_fastest_slice_mean_skips_stalls_but_not_failures():
    result = PhaseResult("closed", chunks=[(0.0, 1.0)])
    for k in range(800):
        due = k / 800.0
        result.dues.append(due)
        result.latencies.append(0.004 if due < 0.5 else 0.002)
    # Eight slices of 1/8 s: the first four are slow, the rest fast.
    assert result.fastest_mean_ms() == pytest.approx(2.0)
    # A failure in every fast slice leaves only the slow ones.
    for lo in (0.5, 0.625, 0.75, 0.875):
        result.failed_dues.append(lo + 0.01)
    assert result.fastest_mean_ms() == pytest.approx(4.0)


def test_histogram_percentile_is_within_one_bucket():
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=-8, sigma=1, size=5000)
    counts = np.bincount(np.searchsorted(FINE_EDGES, samples, side="left"),
                         minlength=FINE_EDGES.size + 1)
    snap = {"edges": list(FINE_EDGES), "stages": [
        {"stage": "s", "variant": "", "counts": list(counts), "sum": samples.sum(),
         "count": samples.size}]}
    got = hist_stats(None, snap, "s")
    assert got["count"] == samples.size
    assert got["p"] == pytest.approx(np.median(samples), rel=0.03)
    assert got["mean"] == pytest.approx(samples.mean())


def test_exact_product_is_the_integer_product():
    rng = np.random.default_rng(2)
    x = rng.integers(-128, 128, size=(8, 300))
    m = rng.integers(-128, 128, size=(300, 5))
    np.testing.assert_array_equal(exact_product(x, m), x @ m)
    with pytest.raises(ValueError):
        exact_product(x * 2**40, m)


# -- contract ----------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == set(END_TO_END)
    for name, (unit, better, bound, _) in END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"], e2e[name]["bound"]) == (unit, better, bound)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }


def test_run_refuses_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_open", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
