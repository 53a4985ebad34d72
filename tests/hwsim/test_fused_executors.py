"""Cross-executor equivalence for the fused engine's two variants.

The fused engine carries two executors — the exact float64 fold and the
CSR-style segmented reduction — plus a selector gated on the kernel's
result width.  The load-bearing properties are that both are
*interchangeable* wherever the fold is allowed (bit-exact with each
other, with the bit-plane gate oracle, and with a golden integer
matmul, across sparsity, input width, recoding scheme, signed edges,
word-boundary batches and degenerate schedules), and that the gate is
exact at its numeric boundary: 54 result bits take the fold, 55 do not.
The standalone :mod:`repro.hwsim.codegen` module, which no executor
uses any more, is still tested for determinism and for the loader's
refuse-on-mismatch contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bits import signed_range
from repro.core.plan import plan_matrix
from repro.core.stages import STAGES
from repro.hwsim import codegen
from repro.hwsim.builder import build_circuit
from repro.hwsim.fast import FastCircuit, lower
from repro.hwsim.fused import (
    FOLD_MAX_WIDTH,
    FusedCircuit,
    fuse,
    segment_prefixes,
    select_variant,
)

NARROW_VARIANTS = FusedCircuit.VARIANTS  # both run on <=54-bit kernels


def _compiled(matrix, input_width=8, scheme="csd"):
    plan = plan_matrix(matrix, input_width=input_width, scheme=scheme)
    return build_circuit(plan)


def _matrix(rng, shape, sparsity, magnitude=100):
    matrix = rng.integers(-magnitude, magnitude + 1, size=shape)
    matrix[rng.random(shape) < sparsity] = 0
    return matrix


def _fused(matrix, input_width=8, scheme="csd"):
    return fuse(lower(_compiled(matrix, input_width=input_width, scheme=scheme)))


def _golden(vectors, matrix):
    """Exact ``x @ M`` over Python integers, valid at any width."""
    return np.asarray(vectors).astype(object) @ np.asarray(matrix).astype(object)


def _same(out, golden) -> bool:
    return out.shape == golden.shape and all(
        int(a) == int(b) for a, b in zip(out.ravel(), golden.ravel())
    )


class TestCrossExecutorEquivalence:
    """dense == segmented == bitplane == golden."""

    @pytest.mark.parametrize("scheme", ["csd", "pn"])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("input_width", [4, 8])
    def test_property_sweep(self, scheme, sparsity, input_width):
        rng = np.random.default_rng(int(sparsity * 100) + input_width)
        matrix = _matrix(rng, (12, 10), sparsity)
        fast = FastCircuit.from_compiled(
            _compiled(matrix, input_width=input_width, scheme=scheme)
        )
        fused = fast.fuse()
        lo, hi = signed_range(input_width)
        vectors = rng.integers(lo, hi + 1, size=(7, 12))
        # Signed edges: most negative/positive representable inputs.
        vectors[0, :] = lo
        vectors[1, :] = hi
        vectors[2, ::2] = lo
        vectors[2, 1::2] = hi
        golden = vectors @ matrix
        oracle = fast.multiply_batch(vectors, engine="bitplane")
        assert np.array_equal(oracle, golden)
        for variant in NARROW_VARIANTS:
            circuit = FusedCircuit(fused, variant=variant)
            assert circuit.variant == variant
            assert np.array_equal(
                circuit.multiply_batch(vectors), golden
            ), variant

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
    def test_batch_sizes_span_word_boundaries(self, batch):
        rng = np.random.default_rng(batch)
        matrix = _matrix(rng, (16, 9), 0.5)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        fused = fast.fuse()
        vectors = rng.integers(-128, 128, size=(batch, 16))
        golden = vectors @ matrix
        assert np.array_equal(
            fast.multiply_batch(vectors, engine="bitplane"), golden
        )
        for variant in NARROW_VARIANTS:
            assert np.array_equal(
                FusedCircuit(fused, variant=variant).multiply_batch(vectors),
                golden,
            ), variant

    def test_empty_batch_on_every_variant(self):
        rng = np.random.default_rng(7)
        fused = _fused(_matrix(rng, (8, 6), 0.5))
        for variant in NARROW_VARIANTS:
            out = FusedCircuit(fused, variant=variant).multiply_batch(
                np.zeros((0, 8))
            )
            assert out.shape == (0, 6) and out.dtype == np.int64, variant

    def test_zero_term_kernel_on_every_variant(self):
        """All-zero matrix → zero-term schedule → zero outputs, every tier."""
        rng = np.random.default_rng(8)
        fused = _fused(np.zeros((4, 3), dtype=int))
        assert fused.terms == 0
        vectors = rng.integers(-5, 5, size=(3, 4))
        for variant in NARROW_VARIANTS:
            out = FusedCircuit(fused, variant=variant).multiply_batch(vectors)
            assert np.array_equal(out, np.zeros((3, 3), dtype=np.int64)), variant

    def test_single_term_kernel_hits_the_gather_scale_specialization(self):
        """Power-of-two entries: one CSD term per populated output, which
        codegen collapses to a gather-scale with no reduceat at all."""
        matrix = np.zeros((5, 4), dtype=int)
        matrix[1, 0] = 4
        matrix[3, 2] = -8
        fused = _fused(matrix)
        starts, _ = segment_prefixes(fused.term_out)
        assert fused.terms == len(starts) == 2
        source = codegen.generate_source(fused)
        assert "reduceat" not in source
        rng = np.random.default_rng(9)
        vectors = rng.integers(-128, 128, size=(6, 5))
        golden = vectors @ matrix
        for variant in NARROW_VARIANTS:
            assert np.array_equal(
                FusedCircuit(fused, variant=variant).multiply_batch(vectors),
                golden,
            ), variant

    def test_wide_kernels_run_segmented_with_exact_integers(self):
        """>62-bit accumulations: segmented only, object dtype, exact."""
        rng = np.random.default_rng(11)
        matrix = rng.integers(-(2**20), 2**20, size=(40, 5))
        plan = plan_matrix(matrix, input_width=40, scheme="csd")
        assert plan.result_width > 62
        fused = fuse(lower(build_circuit(plan)))
        assert select_variant(
            fused.terms, fused.rows, fused.cols, fused.result_width
        ) == "segmented"
        circuit = FusedCircuit(fused)  # auto → segmented
        assert circuit.variant == "segmented"
        vectors = rng.integers(-(2**39), 2**39, size=(4, 40))
        out = circuit.multiply_batch(vectors)
        assert out.dtype == object
        golden = [
            sum(int(vectors[b, r]) * int(matrix[r, j]) for r in range(40))
            for b in range(4)
            for j in range(5)
        ]
        assert [int(x) for x in out.ravel()] == golden
        # The fold refuses rather than round silently.
        with pytest.raises(ValueError, match="segmented"):
            FusedCircuit(fused, variant="dense")
        with pytest.raises(ValueError, match="62"):
            codegen.generate_source(fused)


class TestSegmentPrefixes:
    def test_empty_schedule_yields_empty_boundaries(self):
        """The satellite regression: no terms → two empty int64 arrays,
        shared by the wide path and the sparse executor alike."""
        starts, segment_out = segment_prefixes(np.array([], dtype=np.int64))
        assert starts.shape == (0,) and starts.dtype == np.int64
        assert segment_out.shape == (0,) and segment_out.dtype == np.int64

    def test_boundaries_match_sorted_runs(self):
        starts, segment_out = segment_prefixes(np.array([0, 0, 2, 2, 2, 5]))
        assert starts.tolist() == [0, 2, 5]
        assert segment_out.tolist() == [0, 2, 5]

    def test_single_run(self):
        starts, segment_out = segment_prefixes(np.array([3, 3, 3]))
        assert starts.tolist() == [0] and segment_out.tolist() == [3]


class TestSelectorPolicy:
    def test_wide_kernels_always_segment(self):
        assert select_variant(0, 4, 4, 63) == "segmented"
        assert select_variant(10**6, 100, 100, 80) == "segmented"

    def test_dense_schedules_keep_the_blas_fold(self):
        """Up to the exact-float64 gate at 54 result bits, inclusive."""
        assert select_variant(100, 10, 10, 32) == "dense"
        assert select_variant(10**6, 100, 100, 54) == "dense"
        assert select_variant(10**6, 100, 100, 55) == "segmented"

    def test_term_statistics_do_not_decide(self):
        """Sparse, empty and dense schedules all take the fold when the
        width allows it; only ``result_width`` moves the choice."""
        for terms, rows, cols in ((0, 10, 10), (10, 10, 10), (10**4, 10, 10), (0, 0, 5)):
            assert select_variant(terms, rows, cols, 32) == "dense"
            assert select_variant(terms, rows, cols, 55) == "segmented"

    def test_auto_variant_matches_the_selector(self):
        rng = np.random.default_rng(21)
        dense = _fused(_matrix(rng, (10, 8), 0.0))
        sparse = _fused(_matrix(rng, (16, 12), 0.95, magnitude=8))
        for fused in (dense, sparse):
            expected = select_variant(
                fused.terms, fused.rows, fused.cols, fused.result_width
            )
            assert FusedCircuit(fused).variant == expected

    def test_unknown_variant_is_rejected(self):
        fused = _fused(np.eye(3, dtype=int))
        with pytest.raises(ValueError, match="variant"):
            FusedCircuit(fused, variant="quantum")
        # The generated tier is gone from the executor.
        with pytest.raises(ValueError, match="variant"):
            FusedCircuit(fused, variant="generated")


def _boundary_matrix(result_width: int, input_width: int = 8) -> np.ndarray:
    """A 4x3 matrix whose pn plan is exactly ``result_width`` bits wide.

    Column 0 is four equal powers of two summing to
    ``2**(result_width - input_width)``, so all-minimum inputs land it
    exactly on the signed bound ``-2**(result_width - 1)``.  Column 1
    shaves one off the last entry, so all-maximum inputs give an odd sum
    (above ``2**53`` from 55 bits up, where float64 cannot hold it), and
    column 2 negates column 1 to drive the positive side.
    """
    unit = 1 << (result_width - input_width - 2)
    rows = [[unit, unit, -unit]] * 3 + [[unit, unit - 1, -(unit - 1)]]
    return np.array(rows, dtype=np.int64)


class TestExactFoldGate:
    """Real kernels (plan -> build -> lower -> fuse) either side of the
    54-bit fold gate and the 62-bit int64 limit, driven at the extremes."""

    @staticmethod
    def _compile(result_width):
        matrix = _boundary_matrix(result_width)
        plan = plan_matrix(matrix, input_width=8, scheme="pn")
        assert plan.result_width == result_width
        fast = FastCircuit.from_compiled(build_circuit(plan))
        return matrix, fast, fast.fuse()

    @staticmethod
    def _extremes(rows=4):
        lo, hi = signed_range(8)
        return np.array([[lo] * rows, [hi] * rows, [lo, hi] * (rows // 2)])

    def test_column_sum_lands_on_the_bound(self):
        for width in (54, 55, 62, 63):
            matrix = _boundary_matrix(width)
            golden = _golden(self._extremes(), matrix)
            assert golden[0, 0] == -(2 ** (width - 1))

    def test_54_bits_take_the_fold_and_are_bit_exact(self):
        matrix, fast, fused = self._compile(54)
        circuit = FusedCircuit(fused)
        assert circuit.variant == "dense"
        vectors = self._extremes()
        golden = _golden(vectors, matrix)
        out = circuit.multiply_batch(vectors)
        assert out.dtype == np.int64 and _same(out, golden)
        assert _same(fast.multiply_batch(vectors, engine="bitplane"), golden)
        assert _same(FusedCircuit(fused, variant="segmented").execute(vectors), golden)

    @pytest.mark.parametrize("width", [55, 62, 63])
    def test_wider_kernels_segment_and_match_the_object_golden(self, width):
        matrix, fast, fused = self._compile(width)
        circuit = FusedCircuit(fused)
        assert circuit.variant == "segmented"
        vectors = self._extremes()
        golden = _golden(vectors, matrix)
        out = circuit.multiply_batch(vectors)
        assert out.dtype == (np.int64 if width <= 62 else object)
        assert _same(out, golden)
        assert _same(fast.multiply_batch(vectors, engine="bitplane"), golden)
        # An unguarded float64 product would round the odd column-1 sum.
        rounded = (vectors.astype(np.float64) @ matrix.astype(np.float64)).astype(
            np.int64
        )
        assert not _same(rounded, golden)

    @pytest.mark.parametrize("width", [55, 62, 63])
    def test_forcing_the_fold_above_the_gate_raises(self, width):
        _, _, fused = self._compile(width)
        with pytest.raises(ValueError, match="segmented"):
            FusedCircuit(fused, variant="dense")


@st.composite
def _fold_case(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    input_width = draw(st.integers(1, 24))
    magnitude_bits = draw(st.integers(1, 40))
    sparsity = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    bound = 1 << magnitude_bits
    matrix = rng.integers(-bound, bound + 1, size=(rows, cols))
    matrix[rng.random((rows, cols)) < sparsity] = 0
    batch = draw(st.sampled_from([0, 1, 63, 64, 65]))
    lo, hi = signed_range(input_width)
    vectors = rng.integers(lo, hi + 1, size=(batch, rows))
    if batch >= 2:
        vectors[0, :], vectors[1, :] = lo, hi
    scheme = draw(st.sampled_from(["pn", "csd"]))
    return matrix, input_width, scheme, vectors


class TestFoldProperty:
    @given(case=_fold_case())
    @settings(max_examples=40, deadline=None)
    def test_fold_segmented_and_golden_agree(self, case):
        """Either side of the gate: the selected executor and segmented
        match golden ``x @ M``; the fold is used exactly when allowed."""
        matrix, input_width, scheme, vectors = case
        fused = _fused(matrix, input_width=input_width, scheme=scheme)
        golden = _golden(vectors, matrix)
        assert _same(FusedCircuit(fused, variant="segmented").multiply_batch(vectors), golden)
        auto = FusedCircuit(fused)
        assert auto.variant == (
            "dense" if fused.result_width <= FOLD_MAX_WIDTH else "segmented"
        )
        assert _same(auto.multiply_batch(vectors), golden)
        if fused.result_width > FOLD_MAX_WIDTH:
            with pytest.raises(ValueError, match="segmented"):
                FusedCircuit(fused, variant="dense")


class TestCodegen:
    def test_generation_is_deterministic(self):
        """Same kernel → byte-identical source, across fuse runs too."""
        rng = np.random.default_rng(31)
        matrix = _matrix(rng, (14, 11), 0.8)
        first = _fused(matrix)
        second = _fused(matrix)
        assert codegen.generate_source(first) == codegen.generate_source(second)

    def test_generation_counts_the_codegen_stage(self):
        fused = _fused(np.eye(4, dtype=int) * 3)
        before = STAGES.snapshot()
        source = codegen.generate_source(fused)
        assert STAGES.delta(before).get("codegen") == 1
        # Loading cached source is stage-free — that is the warm path.
        codegen.load_execute(source, fused.fingerprint)
        assert STAGES.delta(before).get("codegen") == 1

    def test_header_round_trips(self):
        fused = _fused(np.eye(4, dtype=int) * 5)
        header = codegen.source_header(codegen.generate_source(fused))
        assert header["kind"] == codegen.CODEGEN_KIND
        assert header["format_version"] == codegen.CODEGEN_FORMAT_VERSION
        assert header["fingerprint"] == fused.fingerprint
        assert header["rows"] == 4 and header["cols"] == 4
        assert header["terms"] == fused.terms

    def test_loader_refuses_wrong_kind_version_and_fingerprint(self):
        fused = _fused(np.eye(3, dtype=int) * 7)
        source = codegen.generate_source(fused)
        with pytest.raises(ValueError, match="kind"):
            codegen.load_execute("# not-codegen\n", fused.fingerprint)
        bumped = source.replace(
            "# format_version=1", "# format_version=999", 1
        )
        with pytest.raises(ValueError, match="version"):
            codegen.load_execute(bumped, fused.fingerprint)
        with pytest.raises(ValueError, match="fingerprint"):
            codegen.load_execute(source, "deadbeef")

    def test_loader_refuses_source_without_execute(self):
        fused = _fused(np.eye(3, dtype=int) * 7)
        source = codegen.generate_source(fused)
        header_only = "\n".join(
            line for line in source.splitlines() if line.startswith("#")
        ) + "\n"
        with pytest.raises(ValueError, match="execute"):
            codegen.load_execute(header_only, fused.fingerprint)

    def test_precompiled_source_skips_regeneration(self):
        """Loading existing source must not re-enter the codegen stage."""
        fused = _fused(np.eye(4, dtype=int) * 9)
        source = codegen.generate_source(fused)
        before = STAGES.snapshot()
        execute = codegen.load_execute(source, fused.fingerprint)
        assert STAGES.delta(before).get("codegen", 0) == 0
        vectors = np.arange(8).reshape(2, 4)
        assert np.array_equal(execute(vectors), vectors @ (np.eye(4, dtype=int) * 9))


class TestFastCircuitVariantSurface:
    def test_fused_variant_forces_and_reports(self):
        rng = np.random.default_rng(41)
        fast = FastCircuit.from_compiled(_compiled(_matrix(rng, (12, 9), 0.4)))
        assert fast.resolved_fused_variant is None  # lazy until first use
        variant = fast.fused_variant
        assert variant in FusedCircuit.VARIANTS
        assert fast.resolved_fused_variant == variant

    def test_execution_resolves_the_variant(self):
        rng = np.random.default_rng(42)
        matrix = _matrix(rng, (12, 9), 0.4)
        fast = FastCircuit.from_compiled(_compiled(matrix))
        vectors = rng.integers(-128, 128, size=(3, 12))
        fast.multiply_batch(vectors, engine="fused")
        assert fast.resolved_fused_variant in FusedCircuit.VARIANTS
