"""Tests for the execution-backend seam (repro.perf.backends).

The contract under test is **bitwise determinism across backends**: every
kernel routed through :class:`ExecutionBackend` must return the exact same
bits under the serial backend and the process-pool backend, for any worker
count and any block size (down to one row / one angle per block), exact
score ties included.  The memory contract — N workers under one
``memory_budget_bytes`` never exceed the serial envelope — is covered via
``resolve_block_size(n_consumers=...)``.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.perf.backends import (
    BACKEND_ENV_VAR,
    WORKERS_ENV_VAR,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_backends,
    default_backend,
    get_backend,
    iter_block_bounds,
    normalize_backend_name,
)
from repro.perf.cache import DistanceCache
from repro.perf.kernels import (
    best_inverse_rotation,
    max_abs_distance_difference,
    pairwise_distances_blocked,
    radius_neighbors_blocked,
    resolve_block_size,
)
from repro.perf.streaming import StreamingMoments

#: Worker counts every bitwise test sweeps (1 exercises the inline path).
WORKER_COUNTS = [1, 2, 3, 4]


def _echo_worker(arrays, start, stop):
    """Module-level so process pools can pickle it by reference."""
    return (start, stop, {name: array[start:stop].copy() for name, array in arrays.items()})


def _sum_worker(arrays, start, stop, *, offset=0.0):
    return float(arrays["data"][start:stop].sum() + offset)


def _environment_worker(arrays, start, stop):
    """Report what a kernel running inside this block would see."""
    return (os.environ.get(BACKEND_ENV_VAR), default_backend().name)


@pytest.fixture
def rng():
    return np.random.default_rng(20240807)


@pytest.fixture
def pool4():
    backend = ProcessPoolBackend(workers=4)
    yield backend
    backend.close()


class TestBlockPlumbing:
    def test_iter_block_bounds_covers_range_exactly(self):
        for n_items, block in [(10, 3), (10, 10), (10, 100), (1, 1), (7, 1)]:
            bounds = list(iter_block_bounds(n_items, block))
            assert bounds[0][0] == 0 and bounds[-1][1] == n_items
            for (_, stop), (next_start, _) in zip(bounds, bounds[1:]):
                assert stop == next_start

    def test_zero_items_yield_no_blocks(self):
        assert list(iter_block_bounds(0, 4)) == []

    def test_serial_backend_yields_in_order(self, rng):
        data = rng.normal(size=(17, 2))
        results = list(
            SerialBackend().imap_blocks(_echo_worker, 17, 5, arrays={"data": data})
        )
        assert [(start, stop) for start, stop, _ in results] == list(iter_block_bounds(17, 5))
        for start, stop, (echo_start, echo_stop, arrays) in results:
            assert (echo_start, echo_stop) == (start, stop)
            np.testing.assert_array_equal(arrays["data"], data[start:stop])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_process_pool_yields_same_stream_as_serial(self, rng, workers):
        data = rng.normal(size=(23, 3))
        serial = list(SerialBackend().imap_blocks(_echo_worker, 23, 4, arrays={"data": data}))
        with ProcessPoolBackend(workers=workers) as pool:
            parallel = list(pool.imap_blocks(_echo_worker, 23, 4, arrays={"data": data}))
        assert len(serial) == len(parallel)
        for (s0, s1, s_result), (p0, p1, p_result) in zip(serial, parallel):
            assert (s0, s1) == (p0, p1)
            assert s_result[:2] == p_result[:2]
            np.testing.assert_array_equal(s_result[2]["data"], p_result[2]["data"])

    def test_kwargs_reach_workers(self, rng, pool4):
        data = rng.normal(size=64)
        serial = SerialBackend().map_blocks(
            _sum_worker, 64, 8, arrays={"data": data}, kwargs={"offset": 1.5}
        )
        parallel = pool4.map_blocks(
            _sum_worker, 64, 8, arrays={"data": data}, kwargs={"offset": 1.5}
        )
        assert serial == parallel

    def test_empty_array_ships_inline(self, pool4):
        # Zero-byte shared-memory segments are invalid; empty arrays must
        # still round-trip (shipped inline with the task).
        data = np.empty((0, 3))
        results = pool4.map_blocks(_echo_worker, 6, 2, arrays={"data": data})
        assert len(results) == 3
        for _, _, arrays in results:
            assert arrays["data"].shape == (0, 3)

    def test_workers_default_serial_no_recursive_fanout(self, pool4):
        # Inside a pool worker the environment default must be serial, so a
        # routed kernel running in a worker never spawns its own pool.
        results = pool4.map_blocks(_environment_worker, 8, 2)
        for env_value, resolved_name in results:
            assert env_value == "serial"
            assert resolved_name == "serial"

    def test_backend_repr_names_workers(self):
        assert "workers=4" in repr(ProcessPoolBackend(workers=4))
        assert "workers=1" in repr(SerialBackend())


class TestResolveBlockSizeConsumers:
    """The budget-division rule: N consumers under one budget stay under it."""

    @pytest.mark.parametrize("n_consumers", [1, 2, 3, 4])
    def test_summed_block_bytes_stay_within_budget(self, n_consumers):
        bytes_per_row = 160
        budget = 10_000
        block = resolve_block_size(
            10_000, bytes_per_row, budget, n_consumers=n_consumers
        )
        # The regression PR 6 fixes: N workers each holding one block must
        # together stay within the single global budget.
        assert n_consumers * block * bytes_per_row <= budget

    def test_budget_smaller_than_one_row_still_progresses(self):
        assert resolve_block_size(100, 1 << 20, 64, n_consumers=4) == 1

    def test_single_consumer_matches_legacy_behaviour(self):
        assert resolve_block_size(100, 100, 1000) == resolve_block_size(
            100, 100, 1000, n_consumers=1
        )
        assert resolve_block_size(100, 100, 1000, n_consumers=2) == 5

    def test_invalid_consumers_rejected(self):
        with pytest.raises(ValidationError, match="n_consumers"):
            resolve_block_size(10, 8, 1024, n_consumers=0)

    def test_backend_resolve_forwards_worker_count(self):
        budget = 4096
        pool = ProcessPoolBackend(workers=4)
        assert pool.resolve_block_size(1000, 16, budget) == resolve_block_size(
            1000, 16, budget, n_consumers=4
        )
        assert SerialBackend().resolve_block_size(1000, 16, budget) == resolve_block_size(
            1000, 16, budget, n_consumers=1
        )
        # Worker-sized blocks shrink relative to serial blocks.
        assert pool.resolve_block_size(1000, 16, budget) <= SerialBackend().resolve_block_size(
            1000, 16, budget
        )


class TestKernelBitwiseEquality:
    """Serial ↔ process-pool bitwise identity for every routed kernel."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev", "minkowski"])
    def test_pairwise_distances(self, rng, workers, metric):
        data = rng.normal(size=(31, 4))
        serial = pairwise_distances_blocked(data, metric=metric, p=3.0)
        with ProcessPoolBackend(workers=workers) as pool:
            for budget in (1, 4096, None):  # 1 byte forces 1-row blocks
                parallel = pairwise_distances_blocked(
                    data, metric=metric, p=3.0, memory_budget_bytes=budget, backend=pool
                )
                np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_radius_neighbors(self, rng, workers, metric):
        data = rng.normal(size=(40, 3))
        serial_indptr, serial_indices = radius_neighbors_blocked(data, 1.2, metric=metric)
        with ProcessPoolBackend(workers=workers) as pool:
            for budget in (1, None):
                indptr, indices = radius_neighbors_blocked(
                    data, 1.2, metric=metric, memory_budget_bytes=budget, backend=pool
                )
                np.testing.assert_array_equal(serial_indptr, indptr)
                np.testing.assert_array_equal(serial_indices, indices)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_max_abs_distance_difference(self, rng, workers):
        first = rng.normal(size=(45, 4))
        second = first + rng.normal(scale=1e-3, size=first.shape)
        serial = max_abs_distance_difference(first, second)
        with ProcessPoolBackend(workers=workers) as pool:
            for budget in (1, None):
                parallel = max_abs_distance_difference(
                    first, second, memory_budget_bytes=budget, backend=pool
                )
                assert serial == parallel  # exact, not approx

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("scorer", ["unit_moments", "variance_profile"])
    def test_best_inverse_rotation(self, rng, workers, scorer):
        column_i = rng.normal(size=29)
        column_j = rng.normal(size=29)
        angles = np.linspace(0.0, 360.0, 90, endpoint=False)
        kwargs = {}
        if scorer == "variance_profile":
            candidate = rng.normal(size=(29, 4))
            candidate[:, 1] = column_i
            candidate[:, 3] = column_j
            kwargs = dict(
                candidate_variances=candidate.var(axis=0, ddof=1),
                targets=np.ones(4),
                pair_indices=(1, 3),
            )
        serial = best_inverse_rotation(column_i, column_j, angles, scorer=scorer, **kwargs)
        with ProcessPoolBackend(workers=workers) as pool:
            for budget in (1, None):  # 1 byte forces 1-angle blocks
                index, score, restored_i, restored_j = best_inverse_rotation(
                    column_i,
                    column_j,
                    angles,
                    scorer=scorer,
                    memory_budget_bytes=budget,
                    backend=pool,
                    **kwargs,
                )
                assert index == serial[0]
                assert score == serial[1]  # exact bits
                np.testing.assert_array_equal(restored_i, serial[2])
                np.testing.assert_array_equal(restored_j, serial[3])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_exact_ties_keep_first_occurrence(self, rng, workers):
        # A duplicated angle value is a manufactured *exact* tie: the same θ
        # restores the same bits and scores the same float, so the scan must
        # return the first occurrence on every backend and block size.
        column_i = rng.normal(size=12)
        column_j = rng.normal(size=12)
        angles = np.array([30.0, 75.0, 30.0, 75.0, 30.0])
        serial = best_inverse_rotation(
            column_i, column_j, angles, memory_budget_bytes=1
        )
        assert serial[0] in (0, 1)  # never a duplicate's later index
        with ProcessPoolBackend(workers=workers) as pool:
            parallel = best_inverse_rotation(
                column_i, column_j, angles, memory_budget_bytes=1, backend=pool
            )
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_streaming_moments(self, rng, workers):
        data = rng.normal(size=(3000, 3)) * 4.0 + 25.0
        reference = StreamingMoments(3, cross=True).update(data)
        with ProcessPoolBackend(workers=workers) as pool:
            accumulator = StreamingMoments(3, cross=True, backend=pool)
            for start in range(0, 3000, 733):  # odd chunking vs 1024-row tiles
                accumulator.update(data[start : start + 733])
        assert np.array_equal(accumulator.means(), reference.means())
        assert np.array_equal(accumulator.variances(ddof=1), reference.variances(ddof=1))
        assert accumulator.covariance(0, 2, ddof=1) == reference.covariance(0, 2, ddof=1)

    def test_single_row_inputs(self, rng, pool4):
        # Degenerate sizes must survive the seam: one row, one angle.
        row = rng.normal(size=(1, 3))
        np.testing.assert_array_equal(
            pairwise_distances_blocked(row, metric="manhattan", backend=pool4),
            pairwise_distances_blocked(row, metric="manhattan"),
        )
        one_angle = best_inverse_rotation(
            rng.normal(size=5), rng.normal(size=5), [45.0], backend=pool4
        )
        assert one_angle[0] == 0


class TestDistanceCacheSeam:
    def test_cache_cannot_cross_process_boundary(self):
        # The cache sits *above* the backend seam: one cache per process.
        # Accidentally shipping it to a worker must fail loudly instead of
        # silently double-computing on both sides.
        with pytest.raises(TypeError, match="per-process"):
            pickle.dumps(DistanceCache())

    def test_cache_routes_backend_and_matches_serial(self, rng, pool4):
        data = rng.normal(size=(30, 3))
        serial = DistanceCache().pairwise(data, metric="manhattan")
        parallel = DistanceCache(backend=pool4).pairwise(data, metric="manhattan")
        np.testing.assert_array_equal(serial, parallel)


class TestRegistryAndEnvironment:
    def test_available_backends(self):
        assert available_backends() == ("serial", "process-pool")

    def test_normalize_backend_name(self):
        assert normalize_backend_name("Process_Pool") == "process-pool"
        assert normalize_backend_name("process") == "process-pool"
        assert normalize_backend_name(" serial ") == "serial"
        with pytest.raises(ValidationError, match="unknown backend"):
            normalize_backend_name("gpu")

    def test_get_backend_passthrough_and_shorthands(self):
        instance = SerialBackend()
        assert get_backend(instance) is instance
        pool = get_backend("process-pool", workers=2)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 2
        assert get_backend("process-pool", workers=2) is pool  # shared singleton
        # --kernel-workers alone implies the process pool.
        assert get_backend(None, workers=3).workers == 3
        with pytest.raises(ValidationError, match="backend must be"):
            get_backend(3.14)

    def test_default_backend_reads_environment(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_backend().name == "serial"
        monkeypatch.setenv(BACKEND_ENV_VAR, "process-pool")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        resolved = default_backend()
        assert resolved.name == "process-pool"
        assert resolved.workers == 3

    def test_invalid_workers_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process-pool")
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValidationError, match=WORKERS_ENV_VAR):
            default_backend()

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValidationError, match="workers"):
            ProcessPoolBackend(workers=0)

    def test_numba_is_an_unknown_backend(self, monkeypatch):
        unknown = r"unknown backend 'numba'; expected one of serial, process-pool$"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        with pytest.raises(ValidationError, match=unknown):
            default_backend()
        with pytest.raises(ValidationError, match=unknown):
            get_backend("numba")

    def test_context_manager_closes_pool(self):
        backend = ProcessPoolBackend(workers=2)
        with backend as entered:
            assert entered is backend
            entered.map_blocks(_sum_worker, 8, 2, arrays={"data": np.arange(8.0)})
        assert backend._pool is None


class TestBaseProtocol:
    def test_base_backend_workers_is_one(self):
        assert ExecutionBackend().workers == 1

    def test_map_blocks_collects_in_order(self, rng):
        data = rng.normal(size=20)
        results = SerialBackend().map_blocks(_sum_worker, 20, 6, arrays={"data": data})
        expected = [float(data[s:t].sum()) for s, t in iter_block_bounds(20, 6)]
        assert results == expected
