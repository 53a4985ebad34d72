"""The fused executors across a matrix-size x sparsity sweep.

The fused engine selects its executor by one rule: a kernel whose
result fits 54 bits runs the exact float64 BLAS fold, anything wider
runs the O(terms) segmented reduction (see
:func:`repro.hwsim.fused.select_variant`).  Sparsity never enters the
rule because, at batch 64, the fold outruns the term executor at every
point swept here, and this benchmark is the measurement behind that: it
sweeps 64x64 and 256x256 at 50/90/95/99% element sparsity plus
1024x1024 at 99%, times both executors and an int64 ``batch @ coeff``
reference (the integer fold numpy cannot route to BLAS), and records
the curve, the BLAS library and its threads, and every point where
``segmented`` beats the selected fold to ``BENCH_fused_sparse.json`` at
the repo root.  It asserts:

* **exactness**: at every point the selected executor and ``segmented``
  are bit-exact against the bit-plane gate oracle and golden ``x @ M``;
* **speed**: at ``sparse-256-p95`` the selected executor clears **3x**
  both ``segmented`` and the int64 reference at batch 64;
* **warm store**: a second :class:`~repro.serve.cache.CompileCache` on
  the same directory performs **zero** plan/build/lower/fuse stage
  executions (proved against :data:`repro.core.stages.STAGES`).

Run::

    python -m pytest benchmarks/bench_fused_sparse.py
"""

import json
import pathlib
import sys
import time

import numpy as np

from repro.core.stages import STAGES
from repro.hwsim.fused import FusedCircuit
from repro.serve import CompileCache

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
from perfbench.env import environment  # noqa: E402  (the shared env record)

BATCH = 64
REQUIRED_SPEEDUP = 3.0
ASSERTED_POINT = "sparse-256-p95"
STAGE_NAMES = ("plan", "build", "lower", "fuse")

#: (size, element sparsity, weight magnitude).  The 50% points use
#: s8-range weights; the sparse points use small weights, which keep
#: the CSD term count per nonzero low: the regime most favourable to
#: the term executor.
SWEEP = [
    (size, sparsity, 100 if sparsity == 0.5 else 8)
    for size in (64, 256)
    for sparsity in (0.5, 0.9, 0.95, 0.99)
] + [(1024, 0.99, 8)]


def _label(size, sparsity):
    return f"sparse-{size}-p{round(sparsity * 100)}"


def _matrix(seed, size, sparsity, magnitude):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-magnitude, magnitude + 1, size=(size, size))
    matrix[rng.random((size, size)) < sparsity] = 0
    return matrix


def _best_of(fn, repeats):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_sparse_sweep(tmp_path):
    """Executor timings across the sweep + the warm-store contract."""
    rows, matrices, crossovers = [], [], []
    cache = CompileCache(directory=tmp_path)
    for size, sparsity, magnitude in SWEEP:
        label = _label(size, sparsity)
        matrix = _matrix(size + round(sparsity * 100), size, sparsity, magnitude)
        matrices.append(matrix)
        entry = cache.get(matrix)
        fused = entry.fused
        selected = FusedCircuit(fused)
        segmented = FusedCircuit(fused, variant="segmented")
        coeff = fused.coefficients().astype(np.int64)
        rng = np.random.default_rng(size)
        vectors = rng.integers(-128, 128, size=(BATCH, size))
        vectors[0, :], vectors[1, :] = -128, 127  # signed extremes
        golden = vectors @ matrix
        # Oracle first: the bit-plane gate engine matches the golden
        # matmul, and both executors must match both.
        assert np.array_equal(
            entry.fast.multiply_batch(vectors, engine="bitplane"), golden
        ), label
        for circuit in (selected, segmented):
            assert np.array_equal(circuit.multiply_batch(vectors), golden), (
                label,
                circuit.variant,
            )
        assert np.array_equal(vectors @ coeff, golden), label

        seconds = {}
        for batch in (BATCH, 1):
            lanes = vectors[:batch]
            timings = {
                "selected": _best_of(lambda: selected.execute(lanes), 20),
                "segmented": _best_of(lambda: segmented.execute(lanes), 20),
                "int64_reference": _best_of(
                    lambda: lanes @ coeff, 3 if size >= 1024 else 10
                ),
            }
            seconds[f"b{batch}"] = {k: round(v, 7) for k, v in timings.items()}
            if timings["segmented"] < timings["selected"]:
                crossovers.append(
                    {"point": label, "batch": batch, "faster": "segmented",
                     "seconds": seconds[f"b{batch}"]}
                )
        b64 = seconds[f"b{BATCH}"]
        rows.append(
            {
                "point": label,
                "shape": f"{size}x{size}",
                "element_sparsity": sparsity,
                "weight_magnitude": magnitude,
                "terms": int(fused.terms),
                "result_width": int(fused.result_width),
                "selected_variant": selected.variant,
                "seconds": seconds,
                "products_per_second": {
                    k: round(BATCH / v, 1) for k, v in b64.items()
                },
                "selected_speedup_vs_segmented": round(
                    b64["segmented"] / b64["selected"], 2
                ),
                "selected_speedup_vs_int64": round(
                    b64["int64_reference"] / b64["selected"], 2
                ),
            }
        )

    # Warm store: a fresh cache re-serves every point from artifacts
    # alone — zero pipeline stages.
    before = STAGES.snapshot()
    warm = CompileCache(directory=tmp_path)
    for matrix in matrices:
        warm.get(matrix)
    delta = STAGES.delta(before)
    for stage in STAGE_NAMES:
        assert delta.get(stage, 0) == 0, (stage, delta)
    assert warm.kernel_hits == warm.fused_hits == len(SWEEP)

    by_point = {r["point"]: r for r in rows}
    record = {
        "batch": BATCH,
        "env": environment(REPO_ROOT),
        "executors": {
            "selected": "FusedCircuit auto: the exact float64 BLAS fold at <= 54 result bits",
            "segmented": "gather + scale + np.add.reduceat over CSD term segments",
            "int64_reference": "batch @ coeff in int64 (not BLAS-backed)",
        },
        "sweep": rows,
        "crossovers": crossovers,
        "asserted_point": ASSERTED_POINT,
        "required_speedup": REQUIRED_SPEEDUP,
        "warm_store": {"stage_delta": {k: delta.get(k, 0) for k in STAGE_NAMES}},
    }
    (REPO_ROOT / "BENCH_fused_sparse.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print()
    print(json.dumps(record, indent=2))

    asserted = by_point[ASSERTED_POINT]
    assert asserted["selected_variant"] == "dense", asserted
    assert asserted["selected_speedup_vs_segmented"] >= REQUIRED_SPEEDUP, asserted
    assert asserted["selected_speedup_vs_int64"] >= REQUIRED_SPEEDUP, asserted
