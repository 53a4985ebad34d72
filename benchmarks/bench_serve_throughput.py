"""Measured serving throughput: micro-batched vs single-request-per-call.

The serve layer's reason to exist, quantified.  A 64x64 CSD-recoded
matrix is deployed through :class:`repro.serve.MatMulService` (two
column shards, bit-plane engine) and hit with an offered batch of 64
single-vector requests two ways:

* **single-request-per-call** — each request is its own hardware call
  (``service.multiply`` per vector), the way a naive server would drive
  the simulator: 64 one-lane bit-plane passes;
* **micro-batched** — the same 64 requests submitted concurrently
  through the asyncio micro-batcher, which coalesces them into
  lane-packed executions (one 64-lane pass when the batch fills).

Results (plus service telemetry) are written to
``BENCH_serve_throughput.json`` at the repo root.  The asserted
contract: micro-batching sustains **>= 4x** the single-request-per-call
throughput at offered batch 64 — in practice the gap is far larger,
because a 64-lane bit-plane pass costs barely more than a 1-lane pass.

The measured deployment is pinned to ``engine="bitplane"``: the >= 4x
claim is about amortizing the *gate-level cycle loop* across lanes,
and the gate engines remain the serving path whenever faults are
active.  The default ``engine="auto"`` deployment (fused shift-add
schedule, no cycle loop) is measured alongside and recorded in the
JSON without an assertion — per-request overhead, not hardware time,
dominates there, so batching matters far less (that engine's own bar
lives in ``BENCH_engine_fused.json``).  For it the record keeps the
per-request cost of both paths in microseconds — ``submit_many`` of the
64 requests and one synchronous 64-row ``multiply`` — and their ratio,
the serving overhead per request relative to the direct batched call.
The environment (cores, BLAS threads, versions, commit) is recorded
under ``env``.

Run::

    pytest benchmarks/bench_serve_throughput.py
"""

import asyncio
import json
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.serve import MatMulService

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
from perfbench.env import environment  # noqa: E402  (the shared env record)

OFFERED_BATCH = 64
SHARDS = 2
REQUIRED_SPEEDUP = 4.0


@pytest.fixture(scope="module")
def deployed():
    rng = np.random.default_rng(7)
    matrix = rng.integers(-128, 128, size=(64, 64))
    matrix[rng.random((64, 64)) < 0.5] = 0
    service = MatMulService(max_batch=OFFERED_BATCH, max_delay_s=0.005)
    handle = service.deploy(
        matrix, input_width=8, scheme="csd", shards=SHARDS, engine="bitplane"
    )
    fused_handle = service.deploy(
        matrix, input_width=8, scheme="csd", shards=SHARDS, engine="auto"
    )
    vectors = rng.integers(-128, 128, size=(OFFERED_BATCH, 64))
    yield service, handle, fused_handle, matrix, vectors
    service.close()


def _best_of(fn, repeats=3):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_micro_batched_throughput(deployed):
    service, handle, fused_handle, matrix, vectors = deployed
    golden = vectors @ matrix

    # Warm both paths and check bit-exactness before timing anything.
    single = np.vstack([service.multiply(handle, vec[None, :]) for vec in vectors])
    assert np.array_equal(single, golden)
    batched = asyncio.run(service.submit_many(handle, vectors))
    assert np.array_equal(batched, golden)
    assert np.array_equal(
        asyncio.run(service.submit_many(fused_handle, vectors)), golden
    )

    def run_single():
        for vec in vectors:
            service.multiply(handle, vec[None, :])

    def run_batched():
        asyncio.run(service.submit_many(handle, vectors))

    seconds = {
        "single_request_per_call": _best_of(run_single, repeats=2),
        "micro_batched": _best_of(run_batched, repeats=3),
    }
    speedup = seconds["single_request_per_call"] / seconds["micro_batched"]
    telemetry = service.telemetry(handle)

    # The default fused deployment, measured for the record (no bar here;
    # see the module docstring and BENCH_engine_fused.json).
    fused_seconds = {
        "single_request_per_call": _best_of(
            lambda: [
                service.multiply(fused_handle, vec[None, :]) for vec in vectors
            ],
            repeats=3,
        ),
        "micro_batched": _best_of(
            lambda: asyncio.run(service.submit_many(fused_handle, vectors)),
            repeats=3,
        ),
        "sync_batch_multiply": _best_of(
            lambda: service.multiply(fused_handle, vectors), repeats=50
        ),
    }

    async def best_submit_many(repeats=50):
        # Timed inside one running loop, so event-loop setup is not
        # charged to the requests; a wave is ~2 ms, so 50 are cheap.
        best = float("inf")
        for __ in range(repeats):
            start = time.perf_counter()
            await service.submit_many(fused_handle, vectors)
            best = min(best, time.perf_counter() - start)
        return best

    per_request_us = {
        "submit_many": asyncio.run(best_submit_many()) / OFFERED_BATCH * 1e6,
        "sync_multiply": fused_seconds["sync_batch_multiply"] / OFFERED_BATCH * 1e6,
    }

    record = {
        "matrix": "64x64 csd, ~50% element sparsity, s8 inputs",
        "offered_batch": OFFERED_BATCH,
        "shards": SHARDS,
        "engine": handle.engine,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "requests_per_second": {
            k: round(OFFERED_BATCH / v, 1) for k, v in seconds.items()
        },
        "speedup_micro_batched": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "fused_engine": {
            "effective_engine": service.telemetry(fused_handle)["engine"][
                "effective"
            ],
            "seconds": {k: round(v, 6) for k, v in fused_seconds.items()},
            "requests_per_second": {
                k: round(OFFERED_BATCH / v, 1) for k, v in fused_seconds.items()
            },
            "per_request_us": {k: round(v, 3) for k, v in per_request_us.items()},
            "served_over_sync_per_request": round(
                per_request_us["submit_many"] / per_request_us["sync_multiply"], 2
            ),
        },
        "batcher_mean_occupancy": telemetry["batcher"]["mean_occupancy"],
        "cache": service.cache.stats(),
        "env": environment(REPO_ROOT),
    }
    out_path = REPO_ROOT / "BENCH_serve_throughput.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
    # Acceptance bar: filling the bit-plane lanes from request traffic
    # must beat one-hardware-call-per-request by >= 4x at offered batch 64.
    assert speedup >= REQUIRED_SPEEDUP
