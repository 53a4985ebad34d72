"""Per-layer metrics of the traced run.

:func:`install` puts benchmark spans around the public entry points of
each layer.  The program's own :class:`~repro.obs.profile.StageProfiler`
is attached to the traced deployment as well: it is the only view of
``queue_wait``, ``coalesce``, ``wire`` and ``server_execute`` from
outside the program.  The ``*_metrics`` functions turn spans, profiler
histograms and the program's counters into the metrics of
:data:`PER_LAYER`; a metric of a layer the workload does not cross
reads 0.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster import client as cluster_client
from repro.cluster import server as cluster_server
from repro.core.stages import STAGES
from repro.obs.profile import StageProfiler
from repro.hwsim import builder, codegen, fast, fused
from repro.core import plan as core_plan
from repro.reservoir import hw_esn
from repro.serve import admission, batcher, service, shards, telemetry

from perfbench.harness import Run, hist_stats, median_us

__all__ = ["PER_LAYER", "install"]

#: name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "loadgen.lag_ms_p99": ("ms", "lower", "validity of serve_open's open-loop phases"),
    "loadgen.offered": ("count", "higher", "validity of serve_open's open-loop phases"),
    "service.submit_self_us_p50": ("us", "lower", "lat_ms.high (closed loop) on serve_open"),
    "admission.admit_us_p50": ("us", "lower", "lat_ms.high (closed loop) on serve_open"),
    "admission.shed": ("count", "lower", "ok_frac on serve_open"),
    "telemetry.record_us_p50": ("us", "lower", "lat_ms.high on serve_open; lat_ms.* on offline_batch, esn_rollout"),
    "telemetry.snapshot_ms": ("ms", "lower", "p90_ms.high (record details) on serve_open"),
    "shards.validate_us_p50": ("us", "lower", "lat_ms.high (closed loop) on serve_open"),
    "batcher.queue_wait_ms_p50": ("ms", "lower", "lat_ms.low on serve_open"),
    "batcher.deadline_flush_frac": ("frac", "lower", "lat_ms.low on serve_open"),
    "batcher.resume_wait_ms_p50": ("ms", "lower", "lat_ms.low and lat_ms.high on serve_open"),
    "batcher.lanes_per_batch": ("count", "higher", "lat_ms.high (closed loop) on serve_open"),
    "batcher.coalesce_us_p50": ("us", "lower", "lat_ms.high (closed loop) on serve_open"),
    "shards.multiply_batch_us_p50": ("us", "lower", "lat_ms.low on esn_rollout, lat_ms.high on serve_open, lat_ms.* on fleet_batch"),
    "shards.self_us_p50": ("us", "lower", "lat_ms.low on esn_rollout, lat_ms.high on serve_open, lat_ms.* on fleet_batch"),
    "shards.calls": ("count", "higher", "lat_ms.low on esn_rollout, lat_ms.high on serve_open, lat_ms.* on fleet_batch"),
    "kernel.execute_us_p50": ("us", "lower", "lat_ms.* on offline_batch, esn_rollout and fleet_batch"),
    "kernel.execute_us_p50.dense256": ("us", "lower", "lat_ms.low on offline_batch"),
    "kernel.execute_us_p50.sparse1024": ("us", "lower", "lat_ms.high on offline_batch"),
    "kernel.terms": ("count", "lower", "lat_ms.* on offline_batch, esn_rollout"),
    "kernel.ops_per_call": ("count", "lower", "computed from array shapes; offline_batch, esn_rollout"),
    "kernel.bytes_per_call": ("B", "lower", "computed from array shapes; offline_batch, esn_rollout"),
    "gates.multiply_batch_ms_p50": ("ms", "lower", "lat_ms.high on offline_batch (bitplane64 in the round)"),
    "gates.cycles_per_call": ("count", "lower", "lat_ms.high on offline_batch (bitplane64 in the round)"),
    "compile.plan_s": ("s", "lower", "setup_s, mostly offline_batch and esn_rollout"),
    "compile.build_s": ("s", "lower", "setup_s, mostly offline_batch and esn_rollout"),
    "compile.lower_s": ("s", "lower", "setup_s, mostly offline_batch and esn_rollout"),
    "compile.fuse_s": ("s", "lower", "setup_s, mostly offline_batch and esn_rollout"),
    "compile.codegen_s": ("s", "lower", "setup_s, mostly offline_batch and esn_rollout"),
    "compile.stage_count": ("count", "lower", "setup_s on every workload"),
    "cache.hits": ("count", "higher", "setup_s on every workload"),
    "reservoir.update_us_p50.b1": ("us", "lower", "lat_ms.low on esn_rollout"),
    "reservoir.update_us_p50.b32": ("us", "lower", "lat_ms.high on esn_rollout"),
    "cluster.wire_us_p50": ("us", "lower", "lat_ms.high (256-vector calls) on fleet_batch"),
    "cluster.wire_us_p50.b1": ("us", "lower", "lat_ms.low (1-vector calls) on fleet_batch"),
    "cluster.server_execute_us_p50": ("us", "lower", "lat_ms.high (256-vector calls) on fleet_batch"),
    "cluster.codec_us_p50": ("us", "lower", "lat_ms.high (256-lane calls) on fleet_batch"),
    "cluster.bytes_per_batch": ("B", "lower", "lat_ms.high (256-lane calls) on fleet_batch"),
    "cluster.retries": ("count", "lower", "lat_ms.* and ok_frac on fleet_batch"),
    "cluster.local_fallbacks": ("count", "lower", "lat_ms.* on fleet_batch"),
    "obs.trace_overhead_frac": ("frac", "lower", "cost of tracing itself, every workload"),
    "ledger.coverage": ("frac", "higher", "share of the blocking path's wall time the layer spans explain"),
}


def install(log) -> None:
    """Span every layer entry point the workloads cross."""
    log.patch(service.MatMulService, "submit", "service.submit")
    log.patch(service.MatMulService, "multiply", "service.multiply")
    log.patch(service.MatMulService, "run_stream", "service.run_stream")
    log.patch(admission.AdmissionController, "admit", "admission.admit")
    log.patch(admission.AdmissionController, "release", "admission.release")
    log.patch(batcher.MicroBatcher, "submit", "batcher.submit")
    for method in ("record_arrival", "record_request", "record_batch", "record_products"):
        log.patch(telemetry.DeploymentTelemetry, method, f"telemetry.{method}")
    log.patch(shards.ShardedMultiplier, "validate_vector", "shards.validate_vector")
    log.patch(shards.ShardedMultiplier, "multiply_batch", "shards.multiply_batch")
    log.patch(fast.FastCircuit, "multiply_batch", "fast.multiply_batch", observe=len)
    log.patch(fused.FusedCircuit, "execute", "kernel.execute", observe=len)
    log.patch(hw_esn.HardwareESN, "step", "reservoir.step")
    log.patch(hw_esn.HardwareESN, "step_batch", "reservoir.step_batch")
    log.patch(cluster_client.RemoteShard, "execute", "cluster.execute")
    log.patch(cluster_client, "batch_frame", "cluster.encode_batch", observe=len)
    log.patch(cluster_client, "frame_array", "cluster.decode_result")
    log.patch(cluster_server, "frame_array", "cluster.decode_batch")
    log.patch(cluster_server, "result_frame", "cluster.encode_result", observe=len)


def _dur(table, rows) -> np.ndarray:
    return table["end"][rows] - table["start"][rows]


def _in_window(table, rows, window) -> np.ndarray:
    start = table["start"][rows]
    return rows[(start >= window[0]) & (start <= window[1])]


def _kernel_cost(kernel, variant: str, lanes: float) -> tuple[float, float]:
    """Operations and bytes of one fused call, computed from array shapes.

    Dense fold: a ``(B, rows) @ (rows, cols)`` int64 product.  Term
    executors: one gather, scale and add per CSD term and lane.
    """
    rows, cols, terms = kernel.rows, kernel.cols, kernel.terms
    if variant == "dense":
        return 2.0 * lanes * rows * cols, 8.0 * (lanes * rows + rows * cols + lanes * cols)
    return 2.0 * lanes * terms, 8.0 * (lanes * rows + lanes * terms + terms + lanes * cols)


def _kernel_metrics(run: Run, table, groups) -> None:
    """Kernel timings, term counts, and computed operations and bytes.

    ``groups`` pairs the rows of ``kernel.execute`` spans with the
    shards whose fused kernels they ran; per-call figures are averaged
    over every kernel call of every group.
    """
    calls, terms, ops, nbytes, labels = [], 0, 0.0, 0.0, set()
    for rows, shard_list in groups:
        calls.append(rows)
        lanes = float(np.mean(table["obs"][rows])) if rows.size else 0.0
        for shard in shard_list:
            variant = shard.fast.resolved_fused_variant
            if variant is None:
                continue
            labels.add(variant)
            terms += shard.fast.fused.terms
            o, b = _kernel_cost(shard.fast.fused, variant, lanes)
            ops, nbytes = ops + o * rows.size, nbytes + b * rows.size
    rows = np.concatenate(calls)
    n = max(rows.size, 1)
    run.put("kernel.execute_us_p50", median_us(_dur(table, rows)), "us", rows.size)
    run.put("kernel.terms", terms, "count", 1)
    run.put("kernel.ops_per_call", ops / n, "count", rows.size)
    run.put("kernel.bytes_per_call", nbytes / n, "B", rows.size)
    run.details["kernel.variant"] = sorted(labels)


def _shard_metrics(run: Run, log, table, rows=None) -> None:
    rows = log.rows(table, "shards.multiply_batch") if rows is None else rows
    run.put("shards.multiply_batch_us_p50", median_us(_dur(table, rows)), "us", rows.size)
    run.put("shards.self_us_p50", median_us(table["self"][rows]), "us", rows.size)
    run.put("shards.calls", rows.size, "count", rows.size)


def serving_metrics(run: Run, log, client, phases, snap, profiler, before) -> None:
    table = log.table()
    chunks = [c for n in ("low", "high", "closed") for c in phases[n].chunks]
    lo, hi = min(c[0] for c in chunks), max(c[1] for c in chunks)

    def rows(name):
        return _in_window(table, log.rows(table, name), (lo, hi))

    lags = phases["lags"]
    run.put("loadgen.lag_ms_p99", float(np.percentile(lags, 99)) * 1e3, "ms", lags.size)
    run.put("loadgen.offered", lags.size, "count", lags.size)
    submit = rows("service.submit")
    run.put("service.submit_self_us_p50", median_us(table["self"][submit]), "us", submit.size)
    admit = rows("admission.admit")
    run.put("admission.admit_us_p50", median_us(_dur(table, admit)), "us", admit.size)
    adm = snap["admission"]
    run.put("admission.shed", adm["sheds"] + adm["quota_rejections"] + adm["expired"], "count", 1)
    record = np.concatenate([
        rows(f"telemetry.{m}") for m in ("record_arrival", "record_request", "record_batch")
    ])
    run.put("telemetry.record_us_p50", median_us(_dur(table, record)), "us", record.size)
    run.put("telemetry.snapshot_ms", phases["snapshot_s"][0] * 1e3, "ms", 1)
    validate = rows("shards.validate_vector")
    run.put("shards.validate_us_p50", median_us(_dur(table, validate)), "us", validate.size)

    after = profiler.snapshot()
    wait = hist_stats(before, after, "queue_wait")
    coalesce = hist_stats(before, after, "coalesce")
    run.put("batcher.queue_wait_ms_p50", wait["p"] * 1e3, "ms", wait["count"])
    run.put("batcher.coalesce_us_p50", coalesce["p"] * 1e6, "us", coalesce["count"])
    stats = client.handle.batcher.stats
    run.put("batcher.deadline_flush_frac", stats.deadline_flushes / stats.batches, "frac", stats.batches)
    run.put("batcher.lanes_per_batch", stats.lanes_dispatched / stats.batches, "count", stats.batches)
    _shard_metrics(run, log, table, rows("shards.multiply_batch"))
    _kernel_metrics(run, table, [(rows("kernel.execute"), client.handle.sharded.shards)])

    # Blocking path of one request: its own calls on the caller's task,
    # then the wait inside the batcher, which the profiler splits into
    # queue wait and the coalesced batch's execution, then the wait for
    # the event loop to resume the request once its batch is done.
    waits = rows("batcher.submit")
    resume = resume_waits(table, waits, rows("telemetry.record_batch"))
    run.put("batcher.resume_wait_ms_p50", median_us(resume) / 1e3, "ms", resume.size)
    submit_mean = float(np.mean(_dur(table, submit)))
    wait_mean = float(np.mean(_dur(table, waits))) - float(np.mean(_dur(table, validate)))
    explained = (submit_mean - wait_mean + wait["mean"] + coalesce["mean"]
                 + float(np.mean(resume)))
    _check_coverage(run, explained / submit_mean, submit.size, SERVING_TOLERANCE)


def resume_waits(table, waits, batch_ends) -> np.ndarray:
    """Per request, the time from its batch's end to its return from the batcher.

    ``waits`` are the requests' ``batcher.submit`` spans; ``batch_ends``
    are spans that close each batch's execution on the executor thread.
    A request's batch is taken to be the last one to end before the
    request returned, and after it began.  When batches overlap that
    may be a later batch than its own, so the wait is never overstated.
    Requests with no such batch are left out.
    """
    ends = np.sort(table["end"][batch_ends])
    start, end = table["start"][waits], table["end"][waits]
    i = np.searchsorted(ends, end, side="right") - 1
    found = i >= 0
    last = ends[np.maximum(i, 0)]
    found &= last >= start
    return (end - last)[found]


#: The least share of the blocking path's wall time the traced run's
#: layer spans must explain; below it the run fails.
COMPUTE_TOLERANCE = 0.95
SERVING_TOLERANCE = 0.7


def _check_coverage(run: Run, coverage: float, samples: int, tolerance: float) -> None:
    run.put("ledger.coverage", coverage, "frac", samples)
    run.check(
        coverage >= tolerance,
        f"layer spans explain {coverage:.3f} of the blocking path, below {tolerance}",
    )


def fleet_profiles(service, controller) -> dict:
    """Snapshots of the client's and the server's profilers; the
    server's comes home in its STATS reply."""
    server = StageProfiler.merge(s["profile"] for s in controller.fleet_stats())
    return {"client": service.profiler.snapshot(), "server": server}


def fleet_metrics(run: Run, log, handle, blocks, per_shard) -> None:
    """Cluster metrics of the 256-vector calls, plus the wire time of
    the 1-vector calls.

    ``blocks`` maps each part to its block of calls: the ``window`` it
    ran in and the profiler snapshots taken ``before`` and ``after`` it.
    Spans on the server's thread are roots, so they are told apart by
    the window they started in.
    """
    table = log.table()

    def stage(part, side, name):
        block = blocks[part]
        return hist_stats(block["before"][side], block["after"][side], name)

    heavy, light = stage("b256", "client", "wire"), stage("b1", "client", "wire")
    run.put("cluster.wire_us_p50", heavy["p"] * 1e6, "us", heavy["count"])
    run.put("cluster.wire_us_p50.b1", light["p"] * 1e6, "us", light["count"])
    execute = stage("b256", "server", "server_execute")
    run.put("cluster.server_execute_us_p50", execute["p"] * 1e6, "us", execute["count"])

    def rows(name):
        return _in_window(table, log.rows(table, name), blocks["b256"]["window"])

    codec = np.concatenate([
        rows(n) for n in ("cluster.encode_batch", "cluster.decode_result",
                          "cluster.decode_batch", "cluster.encode_result")
    ])
    run.put("cluster.codec_us_p50", median_us(_dur(table, codec)), "us", codec.size)
    encoded, results = rows("cluster.encode_batch"), rows("cluster.encode_result")
    per_batch = float(np.mean(table["obs"][encoded])) + float(np.mean(table["obs"][results]))
    run.put("cluster.bytes_per_batch", per_batch, "B", encoded.size)
    # Each attempt encodes its batch afresh, so encodes beyond the
    # traced execute calls are retries.
    attempts = log.rows(table, "cluster.encode_batch").size
    executes = log.rows(table, "cluster.execute").size
    run.put("cluster.retries", attempts - executes, "count", attempts)
    run.put(
        "cluster.local_fallbacks", sum(p["local_fallbacks"] for p in per_shard),
        "count", executes,
    )
    _shard_metrics(run, log, table, log.rows(table, "shards.multiply_batch", "fleet.b256"))
    _kernel_metrics(run, table, [(rows("kernel.execute"), handle.sharded.shards)])
    _coverage(run, log, table, "service.multiply", ["fleet.b1", "fleet.b256"])


def offline_metrics(run: Run, log, handles) -> None:
    table = log.table()
    for name in ("dense256", "sparse1024"):
        rows = log.rows(table, "kernel.execute", f"offline.{name}")
        run.put(f"kernel.execute_us_p50.{name}", median_us(_dur(table, rows)), "us", rows.size)
    _shard_metrics(run, log, table)
    _kernel_metrics(run, table, [
        (log.rows(table, "kernel.execute", f"offline.{name}"), handles[name].sharded.shards)
        for name in ("dense256", "sparse1024")
    ])
    gates = log.rows(table, "fast.multiply_batch", "offline.bitplane64")
    run.put("gates.multiply_batch_ms_p50", median_us(_dur(table, gates)) / 1e3, "ms", gates.size)
    run.put(
        "gates.cycles_per_call",
        sum(s.fast.run_cycles for s in handles["bitplane64"].sharded.shards),
        "count", gates.size,
    )
    record = np.concatenate([log.rows(table, f"telemetry.{m}") for m in ("record_batch", "record_products")])
    run.put("telemetry.record_us_p50", median_us(_dur(table, record)), "us", record.size)
    _coverage(run, log, table, "service.multiply", [f"offline.{n}" for n in handles])


def esn_metrics(run: Run, log, handle) -> None:
    table = log.table()
    step = log.rows(table, "reservoir.step", "esn.b1")
    run.put("reservoir.update_us_p50.b1", median_us(table["self"][step]), "us", step.size)
    batch = log.rows(table, "reservoir.step_batch", "esn.b32")
    run.put("reservoir.update_us_p50.b32", median_us(table["self"][batch]), "us", batch.size)
    _shard_metrics(run, log, table, log.rows(table, "shards.multiply_batch", "esn.b1"))
    _kernel_metrics(run, table, [(log.rows(table, "kernel.execute", "esn.b1"), handle.sharded.shards)])
    record = np.concatenate([log.rows(table, f"telemetry.{m}") for m in ("record_batch", "record_products")])
    run.put("telemetry.record_us_p50", median_us(_dur(table, record)), "us", record.size)
    _coverage(run, log, table, "service.run_stream", ["esn.b1", "esn.b32"])


def _coverage(run: Run, log, table, entry: str, roots: list) -> None:
    """Time inside the program's entry point over the measured phase's
    wall time; the rest is the benchmark's own loop and checks."""
    spans = np.concatenate([log.rows(table, r) for r in roots])
    wall = float(table["end"][spans].max() - table["start"][spans].min())
    inside = np.concatenate([log.rows(table, entry, r) for r in roots])
    _check_coverage(run, float(_dur(table, inside).sum()) / wall, inside.size, COMPUTE_TOLERANCE)


def compile_metrics(run: Run, pieces, input_width: int, svc) -> None:
    """Time each public compile-stage function on the workload's own
    matrices (per compiled shard piece), the way a cold deploy runs them."""
    totals = dict.fromkeys(("plan", "build", "lower", "fuse", "codegen"), 0.0)
    before = STAGES.snapshot()

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        totals[stage] += time.perf_counter() - t0
        return out

    for piece in pieces:
        plan = timed("plan", core_plan.plan_matrix, np.asarray(piece, dtype=np.int64),
                     input_width=input_width, scheme="csd")
        circuit = timed("build", builder.build_circuit, plan)
        kernel = timed("lower", fast.lower, circuit)
        schedule = timed("fuse", fused.fuse, kernel)
        if fused.select_variant(schedule.terms, schedule.rows, schedule.cols,
                                schedule.result_width) == "generated":
            timed("codegen", codegen.generate_source, schedule)
    for stage, seconds in totals.items():
        run.put(f"compile.{stage}_s", seconds, "s", len(pieces))
    run.put("compile.stage_count", sum(STAGES.delta(before).values()), "count", len(pieces))
    cache = svc.cache.stats()
    hits = sum(cache[k] for k in ("hits", "kernel_hits", "fused_hits", "codegen_hits",
                                  "disk_hits", "plan_hits"))
    run.put("cache.hits", hits, "count", 1)
