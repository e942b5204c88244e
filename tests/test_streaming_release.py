"""Tests for the streaming out-of-core release pipeline.

The central property under test is the **byte-identity contract**: the
streamed ``transform`` / ``invert`` paths must write files that are
byte-for-byte identical to the in-memory owner workflow, for every chunk
size down to one row.  The supporting chunk-invariant kernels
(:mod:`repro.perf.streaming`, streamed normalizer fits, blockwise rotation)
are covered individually as well.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import RBT, RBTSecret
from repro.data import DataMatrix
from repro.data.io import matrix_from_csv, matrix_to_csv
from repro.exceptions import ValidationError
from repro.perf.analytic import pair_moments
from repro.perf.backends import ProcessPoolBackend
from repro.perf.streaming import (
    STREAM_TILE_ROWS,
    StreamingMoments,
    state_from_jsonable,
    state_to_jsonable,
    streamed_pair_moments,
)
from repro.pipeline import StreamingReleasePipeline, resolve_chunk_rows, stream_invert
from repro.preprocessing import (
    DecimalScalingNormalizer,
    IdentifierSuppressor,
    MinMaxNormalizer,
    ZScoreNormalizer,
)

CHUNKINGS = [1, 3, 7, 50, 10_000]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def confidential_csv(tmp_path, rng):
    """A raw confidential CSV with ids, odd attribute count (chained pair)."""
    values = rng.normal(size=(83, 5)) * [3.0, 1.0, 12.0, 0.5, 6.0] + [10.0, -2.0, 40.0, 0.0, 7.0]
    matrix = DataMatrix(
        values,
        columns=["age", "weight", "heart_rate", "score", "bp"],
        ids=[f"patient-{i}" for i in range(values.shape[0])],
    )
    path = tmp_path / "confidential.csv"
    matrix_to_csv(matrix, path)
    return path, matrix


def in_memory_release(input_path, output_path, *, normalizer, rbt, id_column="id"):
    """The in-memory owner workflow the streamed path must reproduce exactly."""
    matrix = matrix_from_csv(input_path, id_column=id_column)
    normalized = normalizer.fit(matrix).transform(matrix)
    result = rbt.transform(normalized)
    matrix_to_csv(result.matrix, output_path)
    return result


class TestStreamingMoments:
    def test_chunk_invariance_exact(self, rng):
        data = rng.normal(size=(4000, 3)) * 5.0 + 100.0
        reference = StreamingMoments(3, cross=True).update(data)
        expected = (
            reference.means(),
            reference.variances(ddof=1),
            reference.covariance(0, 2, ddof=1),
        )
        for sizes in ([1] * 4000, [7] * 571 + [3], [1024] * 3 + [928], [1111, 2222, 667]):
            accumulator = StreamingMoments(3, cross=True)
            start = 0
            for size in sizes:
                accumulator.update(data[start : start + size])
                start += size
            assert start == data.shape[0]
            assert np.array_equal(accumulator.means(), expected[0])
            assert np.array_equal(accumulator.variances(ddof=1), expected[1])
            assert accumulator.covariance(0, 2, ddof=1) == expected[2]

    def test_matches_numpy_statistics(self, rng):
        data = rng.normal(size=(997, 4)) * [1.0, 10.0, 0.1, 3.0] + [0.0, 1e4, -5.0, 2.0]
        accumulator = StreamingMoments(4, cross=True).update(data)
        assert np.allclose(accumulator.means(), data.mean(axis=0))
        assert np.allclose(accumulator.variances(ddof=1), data.var(axis=0, ddof=1))
        assert np.allclose(accumulator.variances(ddof=0), data.var(axis=0, ddof=0))
        expected_cov = np.cov(data[:, 1], data[:, 3], ddof=1)[0, 1]
        assert np.isclose(accumulator.covariance(1, 3, ddof=1), expected_cov)

    def test_partial_tile_boundary(self, rng):
        # Row counts straddling the tile size exercise the final partial flush.
        for m in (STREAM_TILE_ROWS - 1, STREAM_TILE_ROWS, STREAM_TILE_ROWS + 1):
            data = rng.normal(size=(m, 2))
            whole = StreamingMoments(2).update(data)
            split = StreamingMoments(2)
            split.update(data[: m // 2])
            split.update(data[m // 2 :])
            assert np.array_equal(whole.means(), split.means())
            assert np.array_equal(whole.variances(ddof=0), split.variances(ddof=0))

    def test_pair_moments_equals_streamed_pair_moments(self, rng):
        a = rng.normal(size=300) * 4.0
        b = rng.normal(size=300) + 0.3 * a
        assert pair_moments(a, b, ddof=1) == streamed_pair_moments(a, b, ddof=1)
        chunked = StreamingMoments(2, cross=True)
        stacked = np.column_stack((a, b))
        for start in range(0, 300, 11):
            chunked.update(stacked[start : start + 11])
        assert chunked.pair_moments(0, 1, ddof=1) == pair_moments(a, b, ddof=1)

    def test_compress_keeps_state_bounded_and_exact(self, rng, monkeypatch):
        # The exponent-bucket accumulator periodically compresses every
        # bucket back to two pieces; the piece counter stays bounded no
        # matter how many rows are fed and the exact totals are unchanged,
        # so the statistics stay bitwise identical.
        from repro.perf import streaming as streaming_module

        data = rng.normal(size=(400, 2)) * 3.0 + 1.0
        reference = StreamingMoments(2, cross=True).update(data)
        monkeypatch.setattr(streaming_module, "_COMPRESS_DEPOSITS", 8192)
        squeezed = StreamingMoments(2, cross=True, tile_rows=4)
        for start in range(0, 400, 10):
            squeezed.update(data[start : start + 10])
        assert squeezed._deposits <= 8192
        assert np.array_equal(squeezed.means(), reference.means())
        assert np.array_equal(squeezed.variances(ddof=1), reference.variances(ddof=1))
        assert squeezed.covariance(0, 1, ddof=1) == reference.covariance(0, 1, ddof=1)

    def test_collapse_is_chunk_invariant(self, rng):
        data = rng.normal(size=(500, 3)) * 2.0 + 5.0
        whole = StreamingMoments(3, cross=True, tile_rows=4).update(data)
        expected = (whole.means(), whole.variances(ddof=1), whole.covariance(0, 2, ddof=1))
        for step in (1, 3, 7, 100):
            chunked = StreamingMoments(3, cross=True, tile_rows=4)
            for start in range(0, 500, step):
                chunked.update(data[start : start + step])
            assert np.array_equal(chunked.means(), expected[0])
            assert np.array_equal(chunked.variances(ddof=1), expected[1])
            assert chunked.covariance(0, 2, ddof=1) == expected[2]
        assert np.allclose(expected[0], data.mean(axis=0))
        assert np.allclose(expected[1], data.var(axis=0, ddof=1))

    def test_merge_equals_concatenation(self, rng):
        # The property the multi-party release rides on: merging per-shard
        # accumulators is bitwise identical to one accumulator over the
        # concatenated rows, for any shard split.
        data = rng.normal(size=(503, 3)) * [3.0, 0.5, 40.0] + [1.0, -2.0, 1e4]
        reference = StreamingMoments(3, cross=True).update(data)
        for split in ([503], [100, 403], [1, 1, 501], [250, 250, 3]):
            shards = []
            start = 0
            for size in split:
                shards.append(StreamingMoments(3, cross=True).update(data[start : start + size]))
                start += size
            merged = shards[0]
            for other in shards[1:]:
                merged.merge(other)
            assert merged.count == 503
            assert np.array_equal(merged.means(), reference.means())
            assert np.array_equal(merged.variances(ddof=1), reference.variances(ddof=1))
            assert merged.covariance(0, 2, ddof=1) == reference.covariance(0, 2, ddof=1)

    def test_state_round_trip_is_exact(self, rng):
        data = rng.normal(size=(97, 2)) * 7.0
        reference = StreamingMoments(2, cross=True).update(data)
        clone = StreamingMoments.from_state(StreamingMoments(2, cross=True).update(data).state())
        assert clone.count == reference.count
        assert np.array_equal(clone.means(), reference.means())
        assert np.array_equal(clone.variances(ddof=1), reference.variances(ddof=1))
        assert clone.covariance(0, 1, ddof=1) == reference.covariance(0, 1, ddof=1)

    def test_merge_shape_mismatch_rejected(self, rng):
        left = StreamingMoments(2, cross=True).update(rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError, match="different shapes"):
            left.merge(StreamingMoments(3, cross=True))
        with pytest.raises(ValidationError, match="different shapes"):
            left.merge(StreamingMoments(2))

    def test_update_after_read_rejected(self, rng):
        accumulator = StreamingMoments(2).update(rng.normal(size=(5, 2)))
        accumulator.means()
        with pytest.raises(ValidationError, match="after statistics"):
            accumulator.update(rng.normal(size=(5, 2)))

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="no rows"):
            StreamingMoments(2).means()

    def test_covariance_requires_cross(self, rng):
        accumulator = StreamingMoments(2).update(rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError, match="cross=True"):
            accumulator.covariance(0, 1)


def _fraction_drain(accumulator: StreamingMoments) -> list:
    """The drain oracle: every bucket value added as its own :class:`Fraction`.

    This is the straightforward exact sum the integer drain in
    :meth:`StreamingMoments._drain` must reproduce, poison channel included.
    """
    totals: list = []
    for quantity in range(accumulator._n_quantities):
        nan = accumulator._poison_nan[quantity]
        pos = accumulator._poison_pos[quantity]
        neg = accumulator._poison_neg[quantity]
        if nan or (pos and neg):
            totals.append(float("nan"))
        elif pos:
            totals.append(float("inf"))
        elif neg:
            totals.append(float("-inf"))
        else:
            column = accumulator._buckets[:, quantity]
            exact = Fraction(0)
            for value in column[column != 0.0].tolist():
                exact += Fraction(value)
            totals.append(exact)
    return totals


def _same_totals(left: list, right: list) -> bool:
    """Exact rationals equal and of the same type; poison floats equal (nan == nan)."""
    if len(left) != len(right):
        return False
    return all(type(a) is type(b) and (a == b or (a != a and b != b)) for a, b in zip(left, right))


def _statistics_bytes(accumulator: StreamingMoments) -> bytes:
    """Every statistic of a 3-column cross accumulator, as raw float64 bytes."""
    parts = [accumulator.means(), accumulator.variances(ddof=0), accumulator.variances(ddof=1)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        parts.append(np.array([accumulator.covariance(i, j, ddof=1)]))
        parts.append(np.array(accumulator.pair_moments(i, j, ddof=1)))
    return b"".join(np.asarray(part, dtype=np.float64).tobytes() for part in parts)


#: Any finite double, subnormals and both zeros included (5 quantities:
#: two column sums, two sums of squares, one cross sum).
_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestIntegerDrain:
    """The integer drain equals the term-by-term :class:`Fraction` oracle."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        values=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(5)), elements=_ANY_DOUBLE),
        cancel=st.booleans(),
        first_bucket=st.integers(0, 2000),
        count=st.integers(1, 10**6),
        poison=st.lists(
            st.sampled_from(["", "", "", "nan", "pos", "neg", "pos+neg"]), min_size=5, max_size=5
        ),
    )
    def test_drain_matches_fraction_oracle(self, values, cancel, first_bucket, count, poison):
        # A hand-built state reaches bucket contents that deposits alone
        # never produce: subnormals, ±0.0, magnitudes up to the largest
        # double, and (with ``cancel``) columns whose exact sum is 0.
        if cancel:
            values = np.vstack((values, -values[::-1]))
        n_rows = values.shape[0]
        accumulator = StreamingMoments.from_state(
            {
                "format": 1,
                "n_columns": 2,
                "cross": True,
                "count": count,
                "deposits": 0,
                "bucket_indices": np.arange(first_bucket, first_bucket + n_rows),
                "bucket_values": values,
                "poison_nan": np.array(["nan" in kind for kind in poison], dtype=np.int64),
                "poison_pos": np.array(["pos" in kind for kind in poison], dtype=np.int64),
                "poison_neg": np.array(["neg" in kind for kind in poison], dtype=np.int64),
            }
        )
        expected = _fraction_drain(accumulator)
        drained = accumulator._drain()
        assert _same_totals(drained, expected)
        if cancel:
            assert all(total == 0 for total in drained if isinstance(total, Fraction))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.just(3)),
            elements=st.floats(-1e6, 1e6, allow_subnormal=True),
        ),
        scale=st.integers(-1060, 180),
        cancel=st.booleans(),
    )
    def test_statistics_survive_the_json_round_trip(self, rows, scale, cancel):
        rows = np.ldexp(rows, scale)
        if cancel:
            rows = np.vstack((rows, -rows))
        accumulator = StreamingMoments(3, cross=True).update(rows)
        payload = json.loads(json.dumps(state_to_jsonable(accumulator.state())))
        rebuilt = StreamingMoments.from_state(state_from_jsonable(payload))

        assert _same_totals(accumulator._drain(), _fraction_drain(accumulator))
        assert _same_totals(rebuilt._drain(), _fraction_drain(rebuilt))
        assert _statistics_bytes(rebuilt) == _statistics_bytes(accumulator)
        if cancel:
            assert not accumulator.means().any()


def _small_state() -> dict:
    """State of a 2-column accumulator over ``[[1, 2], [3, 4]]`` (means ``[2, 3]``)."""
    return StreamingMoments(2).update([[1.0, 2.0], [3.0, 4.0]]).state()


def _broadcast_one_row(state):
    state["bucket_indices"] = state["bucket_indices"][:3]
    state["bucket_values"] = state["bucket_values"][:1]


def _duplicate_indices(state):
    state["bucket_indices"] = np.full_like(state["bucket_indices"], state["bucket_indices"][0])


def _shift_indices(offset):
    def shift(state):
        state["bucket_indices"] = state["bucket_indices"] + offset

    return shift


def _set(key, value):
    def assign(state):
        state[key] = value

    return assign


def _poison_bucket(state):
    state["bucket_values"] = state["bucket_values"].copy()
    state["bucket_values"][0, 0] = np.nan


def _drop_column(state):
    state["bucket_values"] = state["bucket_values"][:, :-1]


def _float_indices(state):
    state["bucket_indices"] = state["bucket_indices"].astype(float)


class TestMalformedStates:
    """Every merged state is validated; a malformed one names its bad field."""

    def test_the_well_formed_state_round_trips(self):
        assert StreamingMoments.from_state(_small_state()).means().tolist() == [2.0, 3.0]

    @pytest.mark.parametrize(
        ("corrupt", "field"),
        [
            (_broadcast_one_row, "bucket_values"),
            (_drop_column, "bucket_values"),
            (_poison_bucket, "bucket_values"),
            (_duplicate_indices, "bucket_indices"),
            (_shift_indices(-2000), "bucket_indices"),
            (_shift_indices(2000), "bucket_indices"),
            (_float_indices, "bucket_indices"),
            (_set("count", -1), "count"),
            (_set("count", 2.5), "count"),
            (_set("deposits", -1), "deposits"),
            (_set("poison_nan", np.zeros(3, dtype=np.int64)), "poison_nan"),
            (_set("poison_pos", np.full(4, -1, dtype=np.int64)), "poison_pos"),
            (_set("poison_neg", np.zeros(4)), "poison_neg"),
        ],
        ids=[
            "rows-fewer-than-indices",
            "columns-fewer-than-quantities",
            "non-finite-value",
            "duplicate-indices",
            "indices-below-zero",
            "indices-past-the-last-bucket",
            "non-integer-indices",
            "negative-count",
            "non-integer-count",
            "negative-deposits",
            "short-poison-vector",
            "negative-poison-count",
            "non-integer-poison-vector",
        ],
    )
    def test_malformed_state_is_refused(self, corrupt, field):
        state = _small_state()
        corrupt(state)
        with pytest.raises(ValidationError, match=repr(field)):
            StreamingMoments.from_state(state)
        # The merge path of bundle loads and appends refuses it the same way.
        accumulator = StreamingMoments(2)
        with pytest.raises(ValidationError, match=repr(field)):
            accumulator._merge_state(state)

    def test_missing_key_is_named(self):
        state = _small_state()
        del state["poison_neg"]
        with pytest.raises(ValidationError, match="'poison_neg'"):
            StreamingMoments.from_state(state)

    def test_unknown_in_memory_format_is_refused(self):
        state = _small_state()
        state["format"] = 2
        with pytest.raises(ValidationError, match="unrecognized"):
            StreamingMoments.from_state(state)

    def test_merging_a_different_shape_is_refused(self):
        with pytest.raises(ValidationError, match="different shape"):
            StreamingMoments(3)._merge_state(_small_state())


class TestStreamedNormalizerFits:
    @pytest.mark.parametrize(
        "make_normalizer",
        [
            lambda: ZScoreNormalizer(),
            lambda: ZScoreNormalizer(ddof=0),
            lambda: MinMaxNormalizer((-1.0, 2.0)),
            lambda: DecimalScalingNormalizer(),
        ],
    )
    @pytest.mark.parametrize("chunk_rows", [1, 4, 33, 10_000])
    def test_fit_stream_bitwise_equals_fit(self, rng, make_normalizer, chunk_rows):
        data = rng.normal(size=(120, 4)) * [2.0, 30.0, 0.2, 5.0] + [7.0, -40.0, 1.0, 0.0]
        fitted = make_normalizer().fit(data)
        streamed = make_normalizer().fit_stream(
            data[start : start + chunk_rows] for start in range(0, 120, chunk_rows)
        )
        assert np.array_equal(fitted.transform(data), streamed.transform(data))
        assert np.array_equal(fitted.inverse_transform(data), streamed.inverse_transform(data))

    def test_fit_stream_empty_rejected(self):
        with pytest.raises(Exception, match="no rows"):
            ZScoreNormalizer().fit_stream(iter([]))

    def test_fit_stream_width_mismatch_rejected(self, rng):
        chunks = [rng.normal(size=(3, 2)), rng.normal(size=(3, 3))]
        with pytest.raises(ValidationError, match="attribute"):
            ZScoreNormalizer().fit_stream(iter(chunks))

    def test_constant_column_still_rejected_via_stream(self):
        chunks = [np.array([[1.0, 5.0], [2.0, 5.0]]), np.array([[3.0, 5.0]])]
        with pytest.raises(Exception, match="constant column"):
            ZScoreNormalizer().fit_stream(iter(chunks))


class TestStreamingReleaseByteIdentity:
    @pytest.mark.parametrize("chunk_rows", CHUNKINGS)
    def test_default_workflow(self, confidential_csv, tmp_path, chunk_rows):
        input_path, _ = confidential_csv
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path, memory_out, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=11)
        )
        report = StreamingReleasePipeline(RBT(random_state=11), chunk_rows=chunk_rows).run(
            input_path, stream_out
        )
        assert stream_out.read_bytes() == memory_out.read_bytes()
        assert report.n_objects == 83
        assert report.chunk_rows == chunk_rows

    @pytest.mark.parametrize("strategy", ["interleaved", "sequential", "random", "max_variance"])
    def test_every_pair_strategy(self, confidential_csv, tmp_path, strategy):
        input_path, _ = confidential_csv
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        result = in_memory_release(
            input_path,
            memory_out,
            normalizer=ZScoreNormalizer(),
            rbt=RBT(0.3, strategy=strategy, random_state=5),
        )
        report = StreamingReleasePipeline(
            RBT(0.3, strategy=strategy, random_state=5), chunk_rows=9
        ).run(input_path, stream_out)
        assert stream_out.read_bytes() == memory_out.read_bytes()
        # The plans themselves agree exactly: same pairs, same angle bits.
        assert report.pairs == result.pairs
        assert report.angles_degrees == result.angles_degrees

    def test_minmax_normalizer(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path,
            memory_out,
            normalizer=MinMaxNormalizer(),
            rbt=RBT(0.01, random_state=2),
        )
        StreamingReleasePipeline(
            RBT(0.01, random_state=2), normalizer=MinMaxNormalizer(), chunk_rows=13
        ).run(input_path, stream_out)
        assert stream_out.read_bytes() == memory_out.read_bytes()

    def test_explicit_pairs_and_fixed_angles(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        pairs = [("age", "heart_rate"), ("weight", "bp"), ("score", "age")]
        angles = [200.0, 170.0, 150.0]
        rbt_kwargs = dict(thresholds=0.05, pairs=pairs, angles=angles)
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path, memory_out, normalizer=ZScoreNormalizer(), rbt=RBT(**rbt_kwargs)
        )
        report = StreamingReleasePipeline(RBT(**rbt_kwargs), chunk_rows=4).run(
            input_path, stream_out
        )
        assert stream_out.read_bytes() == memory_out.read_bytes()
        assert report.angles_degrees == tuple(angles)

    def test_even_attribute_count_single_moment_pass(self, tmp_path, rng):
        matrix = DataMatrix(rng.normal(size=(60, 4)), columns=["a", "b", "c", "d"])
        input_path = tmp_path / "even.csv"
        matrix_to_csv(matrix, input_path)
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path, memory_out, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=0)
        )
        report = StreamingReleasePipeline(RBT(random_state=0), chunk_rows=8).run(
            input_path, stream_out
        )
        assert stream_out.read_bytes() == memory_out.read_bytes()
        # Disjoint pairs: stats pass + one moment pass + transform pass.
        assert report.n_passes == 3

    def test_chained_pairs_take_one_extra_pass(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        report = StreamingReleasePipeline(RBT(random_state=11), chunk_rows=16).run(
            input_path, tmp_path / "stream.csv"
        )
        # Five attributes -> the odd tail reuses a rotated column -> 4 passes.
        assert report.n_passes == 4

    def test_grid_solver_matches_too(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path,
            memory_out,
            normalizer=ZScoreNormalizer(),
            rbt=RBT(random_state=1, solver="grid"),
        )
        StreamingReleasePipeline(RBT(random_state=1, solver="grid"), chunk_rows=21).run(
            input_path, stream_out
        )
        assert stream_out.read_bytes() == memory_out.read_bytes()

    def test_no_ids_csv(self, tmp_path, rng):
        matrix = DataMatrix(rng.normal(size=(40, 4)))
        input_path = tmp_path / "noids.csv"
        matrix_to_csv(matrix, input_path)
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path, memory_out, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=3)
        )
        StreamingReleasePipeline(RBT(random_state=3), chunk_rows=6).run(input_path, stream_out)
        assert stream_out.read_bytes() == memory_out.read_bytes()


class TestStreamedInvert:
    def test_invert_bitwise_matches_in_memory(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        released = tmp_path / "released.csv"
        result = in_memory_release(
            input_path, released, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=9)
        )
        secret = RBTSecret.from_result(result)
        memory_restored = tmp_path / "memory_restored.csv"
        matrix_to_csv(secret.invert(matrix_from_csv(released)), memory_restored)
        for chunk_rows in CHUNKINGS:
            stream_restored = tmp_path / f"stream_restored_{chunk_rows}.csv"
            n_rows = stream_invert(released, stream_restored, secret, chunk_rows=chunk_rows)
            assert n_rows == 83
            assert stream_restored.read_bytes() == memory_restored.read_bytes()

    def test_invert_recovers_normalized_values(self, confidential_csv, tmp_path):
        input_path, matrix = confidential_csv
        released = tmp_path / "released.csv"
        result = in_memory_release(
            input_path, released, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=9)
        )
        restored_path = tmp_path / "restored.csv"
        stream_invert(released, restored_path, RBTSecret.from_result(result), chunk_rows=10)
        restored = matrix_from_csv(restored_path)
        normalized = ZScoreNormalizer().fit_transform(matrix)
        assert np.allclose(restored.values, normalized.values, atol=1e-12)
        assert restored.ids == normalized.ids

    def test_apply_to_block_copy_semantics(self, rng):
        secret = RBTSecret.from_steps([(("a", "b"), 120.0)])
        block = rng.normal(size=(10, 2))
        original = block.copy()
        copied = secret.apply_to_block(block, ["a", "b"], inverse=True)
        assert np.array_equal(block, original)  # default copies
        in_place = secret.apply_to_block(block, ["a", "b"], inverse=True, copy=False)
        assert in_place is block
        assert np.array_equal(in_place, copied)

    def test_invert_unknown_column_rejected(self, tmp_path, rng):
        matrix = DataMatrix(rng.normal(size=(10, 2)), columns=["a", "b"])
        path = tmp_path / "data.csv"
        matrix_to_csv(matrix, path)
        secret = RBTSecret.from_steps([(("a", "missing"), 45.0)])
        with pytest.raises(ValidationError, match="missing"):
            stream_invert(path, tmp_path / "out.csv", secret, chunk_rows=4)


class TestStreamingReportAndKnobs:
    def test_report_matches_in_memory_privacy(self, confidential_csv, tmp_path):
        from repro.metrics import privacy_report

        input_path, _ = confidential_csv
        matrix = matrix_from_csv(input_path)
        normalizer = ZScoreNormalizer()
        normalized = normalizer.fit(matrix).transform(matrix)
        result = RBT(random_state=4).transform(normalized)
        expected = privacy_report(normalized, result.matrix)

        report = StreamingReleasePipeline(RBT(random_state=4), chunk_rows=12).run(
            input_path, tmp_path / "out.csv"
        )
        assert report.privacy.minimum_variance_difference == pytest.approx(
            expected.minimum_variance_difference, rel=1e-12
        )
        for streamed, reference in zip(report.privacy.attributes, expected.attributes):
            assert streamed.name == reference.name
            assert streamed.variance_difference == pytest.approx(
                reference.variance_difference, rel=1e-12
            )
            assert streamed.original_variance == pytest.approx(
                reference.original_variance, rel=1e-12
            )
        for streamed_record, reference_record in zip(report.records, result.records):
            assert streamed_record.achieved_variances == pytest.approx(
                reference_record.achieved_variances, rel=1e-12
            )
            assert streamed_record.satisfied == reference_record.satisfied
        summary = report.summary()
        assert summary["n_objects"] == 83
        assert summary["pairs"] == [list(pair) for pair in result.pairs]

    def test_memory_budget_resolves_chunk_rows(self):
        assert resolve_chunk_rows(4, chunk_rows=128) == 128
        assert resolve_chunk_rows(4) == 16384
        budgeted = resolve_chunk_rows(4, memory_budget_bytes=120_000)
        assert 1 <= budgeted < 16384
        tiny = resolve_chunk_rows(4, memory_budget_bytes=1)
        assert tiny == 1
        with pytest.raises(ValidationError, match=">= 1"):
            resolve_chunk_rows(4, chunk_rows=0)

    def test_budget_and_chunk_rows_mutually_exclusive(self):
        with pytest.raises(ValidationError, match="not both"):
            StreamingReleasePipeline(chunk_rows=10, memory_budget_bytes=1000)

    def test_budgeted_pipeline_runs(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        memory_out = tmp_path / "memory.csv"
        stream_out = tmp_path / "stream.csv"
        in_memory_release(
            input_path, memory_out, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=6)
        )
        report = StreamingReleasePipeline(
            RBT(random_state=6), memory_budget_bytes=50_000
        ).run(input_path, stream_out)
        assert report.chunk_rows < 83
        assert stream_out.read_bytes() == memory_out.read_bytes()

    def test_suppressor_drops_columns_and_ids(self, confidential_csv, tmp_path):
        input_path, matrix = confidential_csv
        suppressor = IdentifierSuppressor(["score"], drop_object_ids=True)
        stream_out = tmp_path / "stream.csv"
        report = StreamingReleasePipeline(
            RBT(random_state=8), suppressor=suppressor, chunk_rows=19
        ).run(input_path, stream_out)
        assert report.columns == ("age", "weight", "heart_rate", "bp")
        # The file mirrors the in-memory flow on the suppressed matrix.
        memory_out = tmp_path / "memory.csv"
        suppressed = matrix_from_csv(input_path).drop(["score"]).without_ids()
        normalized = ZScoreNormalizer().fit(suppressed).transform(suppressed)
        matrix_to_csv(RBT(random_state=8).transform(normalized).matrix, memory_out)
        assert stream_out.read_bytes() == memory_out.read_bytes()

    def test_secret_round_trips_through_streamed_run(self, confidential_csv, tmp_path):
        input_path, matrix = confidential_csv
        stream_out = tmp_path / "released.csv"
        report = StreamingReleasePipeline(RBT(random_state=13), chunk_rows=11).run(
            input_path, stream_out
        )
        restored = report.secret().invert(matrix_from_csv(stream_out))
        normalized = ZScoreNormalizer().fit_transform(matrix)
        assert np.allclose(restored.values, normalized.values, atol=1e-12)


class TestParallelBackendByteIdentity:
    """The backend= seam must never change a single released byte."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_streaming_moments_match_serial_bitwise(self, rng, workers):
        data = rng.normal(size=(5000, 4)) * [2.0, 30.0, 0.2, 5.0] + [7.0, -40.0, 1.0, 0.0]
        serial = StreamingMoments(4, cross=True)
        with ProcessPoolBackend(workers=workers) as pool:
            parallel = StreamingMoments(4, cross=True, backend=pool)
            for start in range(0, 5000, 977):  # odd chunking vs the tile size
                chunk = data[start : start + 977]
                serial.update(chunk)
                parallel.update(chunk)
            assert np.array_equal(serial.means(), parallel.means())
            assert np.array_equal(serial.variances(ddof=1), parallel.variances(ddof=1))
            assert serial.covariance(1, 3, ddof=1) == parallel.covariance(1, 3, ddof=1)

    def test_release_bytes_match_serial(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        serial_out = tmp_path / "serial.csv"
        parallel_out = tmp_path / "parallel.csv"
        serial_report = StreamingReleasePipeline(RBT(random_state=11), chunk_rows=9).run(
            input_path, serial_out
        )
        with ProcessPoolBackend(workers=2) as pool:
            parallel_report = StreamingReleasePipeline(
                RBT(random_state=11), chunk_rows=9, backend=pool
            ).run(input_path, parallel_out)
        assert parallel_out.read_bytes() == serial_out.read_bytes()
        assert parallel_report.pairs == serial_report.pairs
        assert parallel_report.angles_degrees == serial_report.angles_degrees

    def test_invert_bytes_match_serial(self, confidential_csv, tmp_path):
        input_path, _ = confidential_csv
        released = tmp_path / "released.csv"
        result = in_memory_release(
            input_path, released, normalizer=ZScoreNormalizer(), rbt=RBT(random_state=9)
        )
        secret = RBTSecret.from_result(result)
        serial_out = tmp_path / "serial_restored.csv"
        parallel_out = tmp_path / "parallel_restored.csv"
        stream_invert(released, serial_out, secret, chunk_rows=17)
        with ProcessPoolBackend(workers=3) as pool:
            # A budget small enough that every 17-row chunk splits into
            # several per-worker row blocks.
            n_rows = stream_invert(
                released,
                parallel_out,
                secret,
                chunk_rows=17,
                memory_budget_bytes=512,
                backend=pool,
            )
        assert n_rows == 83
        assert parallel_out.read_bytes() == serial_out.read_bytes()
