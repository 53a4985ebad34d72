"""The four benchmark workloads.

Every input is drawn from the run's seed.  Matrices come from
``element_sparse_matrix`` with s8 weights, inputs are s8, the recoding
scheme is CSD, and service settings are the defaults unless a workload
says otherwise.  Every served row, batch and rollout is compared
bit-exactly with a golden result computed outside the program, and the
program's own counters are reconciled with the benchmark's tallies.

End-to-end metrics use the same names on every workload; what ``low``
and ``high`` measure on each is listed in ``README.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import tempfile
import time

import numpy as np

from repro.cluster import ClusterController
from repro.cluster.controller import LocalServerHandle
from repro.core.stages import STAGES
from repro.reservoir.quantize import quantize_esn
from repro.reservoir.weights import random_input_weights, random_reservoir
from repro.serve import AdmissionController, CompileCache, MatMulService
from repro.workloads import element_sparse_matrix

from perfbench import layers
from perfbench.harness import Run, new_profiler
from perfbench.loadgen import PhaseResult, closed_loop, open_loop, percentile, poisson_schedule

__all__ = ["END_TO_END", "WORKLOADS"]

WIDTH = 8
POOL = 4096
#: Closed-loop callers: twice the batcher's 64 lanes, so a full batch is
#: always queued while one runs and batches fill by size.  With 64, the
#: loop switched between full and deadline flushes within a run, and
#: its median latency moved 1.5-2.4 ms between runs.
CALLERS = 128
#: Seconds of traffic before a timed phase or probe; lets the loop, the
#: executor threads and the compiled executors warm up.
WARMUP_S = 0.3
#: Serving phases run as this many interleaved rounds, so that each
#: phase samples the whole run rather than one stretch of it.
CYCLES = 3


def _cost(times) -> float:
    """The per-operation time the synchronous compute workloads report:
    the fastest operation of the run.

    Other tenants of a shared host only ever add time.  On a 2-core VM
    they moved the median ESN step time by 1.7x between runs minutes
    apart, and the 10th percentile by up to 1.7x as well; the minimum
    moved least (spread 0.12 against 0.15 for the 10th percentile over
    eight runs).
    """
    return float(min(times))


def _rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def exact_product(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Golden ``x @ m`` through float64 BLAS, exact for these operands.

    Every partial sum is an integer no larger than ``rows * max|x| *
    max|m|``; below 2**53 every float64 addition of such integers is
    exact in any order, which the check guards.
    """
    bound = x.shape[1] * int(np.abs(x).max(initial=0)) * int(np.abs(m).max(initial=0))
    if bound >= 2**53:
        raise ValueError("operands too wide for an exact float64 golden product")
    return (x.astype(np.float64) @ m.astype(np.float64)).astype(np.int64)


def _stage_expectation(handles) -> dict:
    """Compile stages a cold deploy of ``handles`` must have run.

    One plan, build, lower and fuse per compiled shard piece, plus one
    codegen per piece whose fused executor resolved to generated code.
    """
    pieces = generated = 0
    for handle in handles:
        for shard in handle.sharded.shards:
            pieces += 1
            generated += shard.fast.resolved_fused_variant == "generated"
    expected = {s: pieces for s in ("plan", "build", "lower", "fuse")}
    if generated:
        expected["codegen"] = generated
    return expected


# -- serving -----------------------------------------------------------------


class _Client:
    """Sends pool rows through ``submit`` and checks every returned row."""

    def __init__(self, run: Run, service, handle, pool, golden) -> None:
        self.run, self.service, self.handle = run, service, handle
        self.pool, self.golden = pool, golden
        self.sent = 0

    async def call(self, key: int) -> None:
        self.sent += 1
        row = await self.service.submit(self.handle, self.pool[key])
        self.run.verify(row, self.golden[key], f"request row {key}")


def _serve_phases(run: Run, client: _Client, rates: dict, rng) -> dict:
    """Warm-up, then ``CYCLES`` rounds of the ``low`` and ``high``
    open-loop phases and the closed-loop phase; returns the results."""
    chunk_s = 0.9 * run.seconds / (3 * CYCLES)
    phases = {name: PhaseResult(name) for name in ("warmup", "low", "high", "closed")}
    closed_keys = rng.integers(0, POOL, size=POOL)
    snapshot_s: list[float] = []

    def scrape() -> None:
        t0 = time.perf_counter()
        client.service.telemetry(client.handle)
        snapshot_s.append(time.perf_counter() - t0)

    async def drive() -> None:
        await closed_loop(phases["warmup"], client.call, CALLERS, WARMUP_S, closed_keys)
        before = STAGES.snapshot()
        for cycle in range(CYCLES):
            for name in ("low", "high"):
                schedule = poisson_schedule(rates[name], chunk_s, rng)
                keys = rng.integers(0, POOL, size=len(schedule))
                if name == "high" and cycle == CYCLES // 2:
                    asyncio.get_running_loop().call_later(chunk_s / 2, scrape)
                await open_loop(phases[name], client.call, schedule, keys, chunk_s)
            await closed_loop(phases["closed"], client.call, CALLERS, chunk_s, closed_keys)
        ran = {k: n for k, n in STAGES.delta(before).items() if n}
        run.check(not ran, f"compile stages ran while serving: {ran}")

    asyncio.run(drive())
    for result in phases.values():
        run.count(result.attempted, result.failed)
        if result.errors:
            run.details[f"errors.{result.name}"] = dict(result.errors)
    for name in ("low", "high"):
        for q in (50, 90, 99):
            run.details[f"p{q}_ms.{name}"] = phases[name].pct_ms(q)
        run.details[f"limit_10ms_met.{name}"] = phases[name].pct_ms(90) <= 10.0
        run.details[f"offered_rps.{name}"] = rates[name]
    run.put("lat_ms.low", phases["low"].pct_ms(50), "ms", phases["low"].attempted)
    # The open-loop phases mostly wait out the batcher's flush deadline;
    # the closed loop's latency is the per-request cost of the serving
    # machinery times the requests queued ahead.
    run.put("lat_ms.high", phases["closed"].fastest_mean_ms(), "ms", phases["closed"].attempted)
    run.details["closed_p50_ms"] = phases["closed"].pct_ms(50)
    run.details["capacity_rps"] = phases["closed"].rate()
    lags = np.concatenate([phases[n].lags for n in ("low", "high")])
    run.details["loadgen_lag_ms_p99"] = float(np.percentile(lags, 99)) * 1e3
    return {**phases, "snapshot_s": snapshot_s, "lags": lags}


def _reconcile_serving(run: Run, client: _Client) -> dict:
    snap = client.service.telemetry(client.handle)
    adm = snap["admission"]
    refused = adm["sheds"] + adm["quota_rejections"]
    run.check(
        snap["arrivals"] == snap["requests"] + refused + adm["expired"],
        f"telemetry ledger: arrivals {snap['arrivals']} != requests {snap['requests']}"
        f" + sheds/quota {refused} + expired {adm['expired']}",
    )
    run.check(
        snap["arrivals"] == client.sent,
        f"telemetry arrivals {snap['arrivals']} != requests sent {client.sent}",
    )
    run.check(
        snap["batcher"]["requests"] == client.sent - refused,
        f"batcher requests {snap['batcher']['requests']} != admitted {client.sent - refused}",
    )
    return snap


def _overhead_probe(run: Run, make_client, traced_client, log) -> None:
    """Closed-loop rate untraced versus traced; the difference is the
    cost of the benchmark's own spans plus the program's profiler."""
    probe_s = max(0.5, 0.1 * run.seconds)
    keys = np.arange(POOL)

    def rate(client) -> float:
        warmup, result = PhaseResult("warmup"), PhaseResult("probe")

        async def go():
            await closed_loop(warmup, client.call, CALLERS, WARMUP_S, keys)
            await closed_loop(result, client.call, CALLERS, probe_s, keys)

        asyncio.run(go())
        for phase in (warmup, result):
            run.count(phase.attempted, phase.failed)
        return result.rate()

    plain, close = make_client(None)
    untraced = rate(plain)
    close()
    layers.install(log)
    traced = rate(traced_client)
    run.put("obs.trace_overhead_frac", untraced / traced - 1.0, "frac", 2)
    log.clear()


def serve_open(run: Run, log) -> None:
    """Poisson single-vector submits against a 64x64, 50%-sparse deployment."""
    m_rng, pool_rng, load_rng = _rngs(run.seed, 3)
    matrix = element_sparse_matrix(64, 64, WIDTH, 0.5, m_rng)
    pool = pool_rng.integers(-128, 128, size=(POOL, 64))
    golden = exact_product(pool, matrix)
    rates = {"low": 500.0, "high": 2000.0}

    def make_client(profiler):
        service = MatMulService(
            cache=CompileCache(), admission=AdmissionController(), profiler=profiler
        )
        handle = service.deploy(matrix, input_width=WIDTH, scheme="csd")
        client = _Client(run, service, handle, pool, golden)
        run.count(1)
        asyncio.run(client.call(0))
        return client, service.close

    profiler = new_profiler() if run.trace else None
    if run.trace:
        client, close = make_client(profiler)
        _overhead_probe(run, make_client, client, log)
    else:
        client, close = run.time_setup(
            lambda: make_client(None), 12,
            lambda c: _stage_expectation([c.handle]),
        )
    try:
        run.settle()
        before = profiler.snapshot() if profiler else None
        phases = _serve_phases(run, client, rates, load_rng)
        snap = _reconcile_serving(run, client)
        if run.trace:
            layers.serving_metrics(run, log, client, phases, snap, profiler, before)
            layers.compile_metrics(run, [matrix], WIDTH, client.service)
    finally:
        close()


# -- offline batches ---------------------------------------------------------


def _rounds(times: dict) -> np.ndarray:
    """Time of each complete round over every matrix."""
    return np.sum([t[: min(map(len, times.values()))] for t in times.values()], axis=0)


OFFLINE = {
    # name: (dim, sparsity, engine)
    "dense256": (256, 0.5, None),
    "sparse1024": (1024, 0.99, None),
    "bitplane64": (64, 0.5, "bitplane"),
}
OFFLINE_BATCH = 256
OFFLINE_POOL = 4


def offline_batch(run: Run, log) -> None:
    """Synchronous 256-vector ``service.multiply`` calls on three matrices."""
    rngs = dict(zip(OFFLINE, _rngs(run.seed, len(OFFLINE))))
    matrices, batches, golden = {}, {}, {}
    for name, (dim, sparsity, _) in OFFLINE.items():
        rng = rngs[name]
        matrices[name] = element_sparse_matrix(dim, dim, WIDTH, sparsity, rng)
        batches[name] = [
            rng.integers(-128, 128, size=(OFFLINE_BATCH, dim)) for _ in range(OFFLINE_POOL)
        ]
        golden[name] = [exact_product(b, matrices[name]) for b in batches[name]]

    def make():
        service = MatMulService(cache=CompileCache())
        handles = {
            name: service.deploy(matrices[name], input_width=WIDTH, scheme="csd", engine=engine)
            for name, (_, _, engine) in OFFLINE.items()
        }
        for name, handle in handles.items():
            run.count(1)
            run.verify(service.multiply(handle, batches[name][0]), golden[name][0], name)
        calls.update(dict.fromkeys(OFFLINE, 1))
        return (service, handles), service.close

    calls: dict[str, int] = {}

    def sweep(service, handles, seconds: float, spans=None) -> dict:
        times = {name: [] for name in OFFLINE}
        stop = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < stop:
            for name, handle in handles.items():
                x = batches[name][k % OFFLINE_POOL]
                t0 = time.perf_counter()
                with spans.span(f"offline.{name}") if spans else contextlib.nullcontext():
                    out = service.multiply(handle, x)
                times[name].append(time.perf_counter() - t0)
                calls[name] += 1
                run.verify(out, golden[name][k % OFFLINE_POOL], f"{name} batch {k}")
            k += 1
        run.count(sum(len(t) for t in times.values()))
        return times

    def products_per_s(times) -> float:
        return OFFLINE_BATCH * len(times) / _cost(_rounds(times))

    if run.trace:
        probe_s = max(0.5, 0.1 * run.seconds)
        (service, handles), close = make()
        sweep(service, handles, WARMUP_S)
        untraced = products_per_s(sweep(service, handles, probe_s))
        close()
        (service, handles), close = make()
        layers.install(log)
        sweep(service, handles, WARMUP_S, log)
        traced = products_per_s(sweep(service, handles, probe_s, log))
        run.put("obs.trace_overhead_frac", untraced / traced - 1.0, "frac", 2)
        log.clear()
    else:
        (service, handles), close = run.time_setup(
            make, 3, lambda r: _stage_expectation(r[1].values())
        )
    try:
        run.settle()
        times = sweep(service, handles, 0.9 * run.seconds, log if run.trace else None)
        rounds = _rounds(times)
        run.put("lat_ms.low", _cost(times["dense256"]) * 1e3, "ms", len(times["dense256"]))
        run.put("lat_ms.high", _cost(rounds) * 1e3, "ms", len(rounds))
        run.details["products_per_s.all"] = products_per_s(times)
        for name, t in times.items():
            run.details[f"products_per_s.{name}"] = OFFLINE_BATCH / _cost(t)
            for q in (50, 90):
                run.details[f"p{q}_ms.{name}"] = percentile(t, q) * 1e3
        for name, handle in handles.items():
            snap = service.telemetry(handle)
            expected = calls[name]
            run.check(
                snap["batches"] == expected and snap["products"] == expected * OFFLINE_BATCH,
                f"{name} telemetry batches {snap['batches']}/products {snap['products']}"
                f" != calls {expected} x {OFFLINE_BATCH}",
            )
        if run.trace:
            layers.offline_metrics(run, log, handles)
            layers.compile_metrics(run, list(matrices.values()), WIDTH, service)
    finally:
        close()


# -- reservoir rollouts ------------------------------------------------------

ESN_DIM = 512
B1_STEPS = 1500
B1_CHUNK = 10
B32_LANES = 32
B32_STEPS = 40
B32_CHUNK = 4


def esn_rollout(run: Run, log) -> None:
    """``deploy_esn`` of a 512-unit, 95%-sparse reservoir, then ``run_stream``."""
    w_rng, u_rng = _rngs(run.seed, 2)
    w = random_reservoir(ESN_DIM, 0.95, 0.9, rng=w_rng)
    w_in = random_input_weights(ESN_DIM, 1, 0.5, rng=w_rng)
    esn = quantize_esn(w, w_in, weight_width=WIDTH, state_width=WIDTH)
    u1 = u_rng.integers(-127, 128, size=(B1_STEPS, 1))
    u32 = u_rng.integers(-127, 128, size=(B32_LANES, B32_STEPS, 1))
    golden1 = esn.run(u1)
    golden32 = np.stack([esn.run(u32[k]) for k in range(B32_LANES)])

    parts = {"b1": (u1, golden1, B1_CHUNK, 1), "b32": (u32, golden32, B32_CHUNK, B32_LANES)}
    products = [0]

    def make():
        service = MatMulService(cache=CompileCache())
        handle = service.deploy_esn(esn)
        run.count(1)
        run.verify(service.run_stream(handle, u1[:1]), golden1[:1], "first rollout step")
        products[0] = 1
        return (service, handle), service.close

    def roll(service, handle, part: str, seconds: float, spans=None) -> list:
        """Roll ``part``'s sequences out chunk by chunk, carrying state
        through ``initial_states``; returns per-step times."""
        inputs, want, chunk, lanes = parts[part]
        axis = inputs.ndim - 2  # the step axis
        per_step, state, t = [], None, 0
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            if t + chunk > inputs.shape[axis]:
                state, t = None, 0
            steps = range(t, t + chunk)
            t0 = time.perf_counter()
            with spans.span(f"esn.{part}") if spans else contextlib.nullcontext():
                out = service.run_stream(handle, inputs.take(steps, axis=axis), initial_states=state)
            per_step.append((time.perf_counter() - t0) / chunk)
            products[0] += lanes * chunk
            run.verify(out, want.take(steps, axis=axis), f"{part} steps {t}..")
            state, t = out.take(-1, axis=axis), t + chunk
        run.count(len(per_step))
        return per_step

    if run.trace:
        probe_s = max(0.5, 0.1 * run.seconds)
        (service, handle), close = make()
        roll(service, handle, "b1", WARMUP_S)
        untraced = _cost(roll(service, handle, "b1", probe_s))
        close()
        (service, handle), close = make()
        layers.install(log)
        roll(service, handle, "b1", WARMUP_S, log)
        traced = _cost(roll(service, handle, "b1", probe_s, log))
        run.put("obs.trace_overhead_frac", traced / untraced - 1.0, "frac", 2)
        log.clear()
    else:
        (service, handle), close = run.time_setup(
            make, 9, lambda r: _stage_expectation([r[1]]),
        )
    try:
        run.settle()
        b1, b32 = [], []
        chunk_s = 0.9 * run.seconds / (2 * CYCLES)
        for _ in range(CYCLES):
            b1 += roll(service, handle, "b1", chunk_s, log if run.trace else None)
            b32 += roll(service, handle, "b32", chunk_s, log if run.trace else None)
        for part, steps in (("low", b1), ("high", b32)):
            run.put(f"lat_ms.{part}", _cost(steps) * 1e3, "ms", len(steps))
        run.details["updates_per_s.b32"] = B32_LANES / _cost(b32)
        for label, steps in (("b1", b1), ("b32", b32)):
            for q in (50, 90):
                run.details[f"step_ms_p{q}.{label}"] = percentile(steps, q) * 1e3
        snap = service.telemetry(handle)
        run.check(
            snap["products"] == products[0],
            f"telemetry products {snap['products']} != rollout products {products[0]}",
        )
        if run.trace:
            layers.esn_metrics(run, log, handle)
            layers.compile_metrics(run, [esn.w_q.T], esn.state_width, service)
    finally:
        close()


# -- fleet ---------------------------------------------------------------------

FLEET_DIM = 128
#: One server, one shard.  With two servers on a 2-core host, runs
#: flipped between two scheduling regimes (256-vector call p50 5.7 ms
#: versus 9.3 ms, 1-vector p50 1.4 ms versus 1.1 ms); one server was
#: steady to a few percent and crosses the same cluster layers.
FLEET_SERVERS = 1
#: part -> lanes per synchronous call
FLEET_PARTS = {"b1": 1, "b256": 256}
FLEET_POOL = 8


def _fleet_median(times) -> float:
    """The per-call time the fleet workload reports: the median call.

    Unlike the single-threaded compute workloads, a fleet call hands off
    between the caller, the client link and the server thread over a
    loopback socket.  The fastest 1-vector call of a run varied 1.2x
    over six runs; the median varied 1.08x.
    """
    return float(np.median(times))


def fleet_batch(run: Run, log) -> None:
    """Synchronous ``service.multiply`` through a loopback fleet (remote
    backend, one server, one shard) on a 128x128, 90%-sparse matrix."""
    m_rng, x_rng = _rngs(run.seed, 2)
    matrix = element_sparse_matrix(FLEET_DIM, FLEET_DIM, WIDTH, 0.9, m_rng)
    batches = {
        part: [x_rng.integers(-128, 128, size=(lanes, FLEET_DIM)) for _ in range(FLEET_POOL)]
        for part, lanes in FLEET_PARTS.items()
    }
    golden = {part: [exact_product(x, matrix) for x in xs] for part, xs in batches.items()}
    tally = {"batches": 0, "products": 0}

    def make(traced: bool = False):
        """Fresh artifact store, servers, cache and deployment, taken to
        the first correct product."""
        store = tempfile.mkdtemp(prefix="store-", dir=run.work_dir)
        servers, service = [], None

        def close() -> None:
            if service is not None:
                service.close()
            for server in servers:
                server.stop()
            shutil.rmtree(store, ignore_errors=True)

        try:
            for k in range(FLEET_SERVERS):
                profiler = new_profiler() if traced else None
                servers.append(LocalServerHandle(store, name=f"bench-{k}", profiler=profiler))
            controller = ClusterController(store, endpoints=[s.endpoint for s in servers])
            service = controller.remote_service(profiler=new_profiler() if traced else None)
            handle = controller.deploy_fleet(service, matrix, input_width=WIDTH, scheme="csd")
            run.count(1)
            first = service.multiply(handle, batches["b1"][0])
            run.verify(first, golden["b1"][0], "first fleet product")
        except BaseException:
            close()
            raise
        tally.update(batches=1, products=1)
        return (controller, service, handle), close

    def sweep(service, handle, seconds: float, spans=None, parts=tuple(FLEET_PARTS)) -> dict:
        times = {part: [] for part in parts}
        stop = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < stop:
            for part in parts:
                lanes = FLEET_PARTS[part]
                x = batches[part][k % FLEET_POOL]
                t0 = time.perf_counter()
                with spans.span(f"fleet.{part}") if spans else contextlib.nullcontext():
                    out = service.multiply(handle, x)
                times[part].append(time.perf_counter() - t0)
                tally["batches"] += 1
                tally["products"] += lanes
                run.verify(out, golden[part][k % FLEET_POOL], f"fleet {part} call {k}")
            k += 1
        run.count(sum(len(t) for t in times.values()))
        return times

    if run.trace:
        probe_s = max(0.5, 0.1 * run.seconds)
        (_, service, handle), close = make()
        sweep(service, handle, WARMUP_S, parts=("b1",))
        untraced = _fleet_median(sweep(service, handle, probe_s, parts=("b1",))["b1"])
        close()
        (controller, service, handle), close = make(traced=True)
        layers.install(log)
        sweep(service, handle, WARMUP_S, log, parts=("b1",))
        traced = _fleet_median(sweep(service, handle, probe_s, log, parts=("b1",))["b1"])
        run.put("obs.trace_overhead_frac", traced / untraced - 1.0, "frac", 2)
        log.clear()
    else:
        (controller, service, handle), close = run.time_setup(
            make, 9, lambda r: _stage_expectation([r[2]])
        )
    try:
        run.settle()
        stages = STAGES.snapshot()
        if run.trace:
            # One block per part, so that the profilers' histograms,
            # which pool every call, can be split by part.
            times, blocks = {}, {}
            for part in FLEET_PARTS:
                before = layers.fleet_profiles(service, controller)
                t0 = time.perf_counter()
                times.update(sweep(service, handle, 0.45 * run.seconds, log, (part,)))
                blocks[part] = {
                    "window": (t0, time.perf_counter()),
                    "before": before,
                    "after": layers.fleet_profiles(service, controller),
                }
        else:
            times = sweep(service, handle, 0.9 * run.seconds)
        ran = {k: n for k, n in STAGES.delta(stages).items() if n}
        run.check(not ran, f"compile stages ran while serving: {ran}")
        for metric, part in (("lat_ms.low", "b1"), ("lat_ms.high", "b256")):
            run.put(metric, _fleet_median(times[part]) * 1e3, "ms", len(times[part]))
            run.details[f"products_per_s.{part}"] = FLEET_PARTS[part] / _fleet_median(times[part])
            for q in (10, 90):
                run.details[f"p{q}_ms.{part}"] = percentile(times[part], q) * 1e3
        snap = service.telemetry(handle)
        run.check(
            snap["batches"] == tally["batches"] and snap["products"] == tally["products"],
            f"fleet telemetry batches {snap['batches']}/products {snap['products']}"
            f" != calls {tally['batches']}/products {tally['products']}",
        )
        stats = controller.fleet_stats()
        per_shard = snap["shards"]["per_shard"]
        executes = sum(s["executes"] for s in stats)
        remote = sum(p["remote_calls"] for p in per_shard)
        run.check(
            executes == remote == FLEET_SERVERS * tally["batches"],
            f"fleet STATS executes {executes}, client remote calls {remote},"
            f" calls made {tally['batches']} x {FLEET_SERVERS} shard(s)",
        )
        if run.trace:
            layers.fleet_metrics(run, log, handle, blocks, per_shard)
            layers.compile_metrics(
                run, [matrix[:, a:b] for a, b in handle.sharded.shard_ranges],
                WIDTH, service,
            )
    finally:
        close()


#: name -> (unit, better, bound, what it measures).  The same names are
#: reported by every workload; README.md says what each part is there.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "cold deploy on a fresh cache to the first correct result (median)"),
    "ok_frac": ("frac", "higher", 0.01, "operations that succeeded over operations attempted"),
    "rss_mb": ("MB", "lower", 0.15, "peak resident set of the workload process"),
    "lat_ms.low": ("ms", "lower", 0.25, "latency of the workload's light part"),
    "lat_ms.high": ("ms", "lower", 0.25, "latency of the workload's heavy part"),
}

WORKLOADS = {
    "serve_open": serve_open,
    "offline_batch": offline_batch,
    "esn_rollout": esn_rollout,
    "fleet_batch": fleet_batch,
}
