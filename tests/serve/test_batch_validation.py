"""Input validation once per hardware call.

A submit is shape-checked on its own (O(1)); the value range is checked
once over the coalesced batch inside ``ShardedMultiplier.multiply_batch``.
An out-of-range row fails only its own caller, with the historical
``input … does not fit in sN`` message, while the rest of its batch is
executed bit-exactly, and the admission ledger books it as ``failed``.
"""

import asyncio

import numpy as np
import pytest

import repro.hwsim.fast
import repro.hwsim.fused
import repro.serve.shards
from repro.hwsim.fused import InputRangeError, validate_batch
from repro.serve import MatMulService


def _matrix(seed=0, shape=(16, 12)):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-100, 101, size=shape)
    matrix[rng.random(shape) < 0.6] = 0
    return matrix


def _ledger(snap):
    adm = snap["admission"]
    return (
        snap["requests"]
        + adm["sheds"]
        + adm["quota_rejections"]
        + adm["expired"]
        + adm["failed"]
    )


class TestValidateBatch:
    def test_int64_input_is_not_copied(self):
        batch = np.zeros((3, 4), dtype=np.int64)
        assert validate_batch(batch, 4, 8) is batch

    def test_range_error_names_every_offending_row(self):
        batch = np.zeros((5, 4), dtype=np.int64)
        batch[1, 2] = 200
        batch[3, 0] = -129
        batch[3, 1] = 300
        with pytest.raises(InputRangeError, match="input 200 does not fit in s8") as info:
            validate_batch(batch, 4, 8)
        assert info.value.rows == [1, 3]
        assert str(info.value.row_error(3)) == "input -129 does not fit in s8"
        assert isinstance(info.value, ValueError)


class TestOutOfRangeInTheSameFlush:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bad_row_fails_alone_and_the_ledger_reconciles(self, shards):
        matrix = _matrix(1)
        rng = np.random.default_rng(2)
        vectors = rng.integers(-128, 128, size=(5, 16))
        vectors[2, 7] = 500  # out of s8, same shape as the rest
        with MatMulService(max_batch=5, max_delay_s=30.0) as service:
            handle = service.deploy(matrix, shards=shards)

            async def main():
                return await asyncio.gather(
                    *(service.submit(handle, v) for v in vectors),
                    service.submit(handle, np.zeros(7, dtype=np.int64)),
                    return_exceptions=True,
                )

            results = asyncio.run(main())
            snap = service.telemetry(handle)
        bad, wrong_shape = results[2], results[5]
        assert isinstance(bad, ValueError)
        assert str(bad) == "input 500 does not fit in s8"
        assert isinstance(wrong_shape, ValueError)
        for k in (0, 1, 3, 4):
            assert np.array_equal(results[k], vectors[k] @ matrix)
        stats = handle.batcher.stats
        # One flush: the wrong shape never enqueued, the bad row was
        # coalesced with the valid ones and failed alone.
        assert stats.requests == 5
        assert stats.batches == 1
        assert stats.full_flushes == 1
        assert snap["batches"] == 1  # the re-run recorded once
        assert snap["arrivals"] == 6
        assert snap["requests"] == 4
        assert snap["admission"]["failed"] == 2
        assert snap["arrivals"] == _ledger(snap)
        shape_rejections = 1
        assert stats.requests == (
            snap["requests"]
            + snap["admission"]["expired"]
            + snap["admission"]["failed"]
            - shape_rejections
        )

    def test_non_numeric_vector_is_refused_at_submit(self):
        matrix = _matrix(10)
        vector = np.random.default_rng(11).integers(-128, 128, size=16)
        with MatMulService(max_batch=2, max_delay_s=30.0) as service:
            handle = service.deploy(matrix)

            async def main():
                return await asyncio.gather(
                    service.submit(handle, np.array(["x"] * 16)),
                    service.submit(handle, vector),
                    service.submit(handle, vector),
                    return_exceptions=True,
                )

            err, *ok = asyncio.run(main())
        assert isinstance(err, ValueError) and "numeric" in str(err)
        assert handle.batcher.stats.requests == 2
        for row in ok:
            assert np.array_equal(row, vector @ matrix)

    def test_swap_to_a_narrower_width_fails_only_rows_that_no_longer_fit(self):
        old, new = _matrix(3), _matrix(4)
        rng = np.random.default_rng(5)
        fits = rng.integers(-8, 8, size=(3, 16))  # s4 and s8
        wide = rng.integers(-128, 128, size=(3, 16))
        wide[:, 0] = [100, -100, 50]  # s8 only
        vectors = np.vstack([fits[0], wide[0], fits[1], wide[1], fits[2], wide[2]])
        with MatMulService(max_batch=64, max_delay_s=30.0) as service:
            handle = service.deploy(old, shards=2)

            async def main():
                tasks = [
                    asyncio.ensure_future(service.submit(handle, v)) for v in vectors
                ]
                await asyncio.sleep(0)
                assert handle.batcher.pending == len(vectors)
                service.swap(handle, new, input_width=4)
                await handle.batcher.drain()
                return await asyncio.gather(*tasks, return_exceptions=True)

            results = asyncio.run(main())
            snap = service.telemetry(handle)
        for k in (0, 2, 4):
            assert np.array_equal(results[k], vectors[k] @ new)
        for k, first in zip((1, 3, 5), (100, -100, 50)):
            assert isinstance(results[k], ValueError)
            assert str(results[k]) == f"input {first} does not fit in s4"
        assert snap["requests"] == 3
        assert snap["admission"]["failed"] == 3
        assert snap["arrivals"] == _ledger(snap)


class TestValidateOncePerCall:
    @pytest.mark.parametrize("engine", ["fused", "bitplane"])
    def test_one_validate_batch_per_multiply_batch(self, monkeypatch, engine):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return validate_batch(*args, **kwargs)

        for module in (repro.serve.shards, repro.hwsim.fast, repro.hwsim.fused):
            monkeypatch.setattr(module, "validate_batch", counting)
        matrix = _matrix(6)
        vectors = np.random.default_rng(7).integers(-128, 128, size=(9, 16))
        with MatMulService(max_batch=9) as service:
            handle = service.deploy(matrix, shards=2, engine=engine)
            assert np.array_equal(service.multiply(handle, vectors), vectors @ matrix)
            assert len(calls) == 1
            served = asyncio.run(service.submit_many(handle, vectors))
            assert np.array_equal(served, vectors @ matrix)
            assert len(calls) == 1 + handle.batcher.stats.batches

    def test_invalid_batch_on_auto_is_not_retried_on_the_gate_engine(self):
        matrix = _matrix(8)
        vectors = np.random.default_rng(9).integers(-128, 128, size=(4, 16))
        vectors[1, 3] = 999
        with MatMulService() as service:
            handle = service.deploy(matrix, shards=2)
            assert handle.engine == "auto"
            engines = []
            multiply_batch = handle.sharded.multiply_batch

            def spy(batch, engine="auto", **kwargs):
                engines.append(engine)
                return multiply_batch(batch, engine=engine, **kwargs)

            handle.sharded.multiply_batch = spy
            with pytest.raises(InputRangeError, match="input 999 does not fit in s8"):
                service.multiply(handle, vectors)
            assert engines == ["fused"]
            assert "bitplane" not in service.telemetry(handle)["engine"]["batches"]
