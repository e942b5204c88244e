"""Tests for the fast CSV codec, the pipelined I/O helpers and bench diffing.

The fast codec's contract is that it is *observationally identical* to the
``csv``-module reference codec: same chunks (bitwise values, same ids, same
``start_row``), same error messages, same written bytes.  Most tests here
therefore run both codecs side by side and compare.
"""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np
import pytest

from repro.data.io import MatrixCsvWriter, iter_matrix_csv, matrix_to_csv
from repro.exceptions import SerializationError, ValidationError
from repro.perf.benchreport import (
    diff_bench_reports,
    format_bench_diff,
    has_regressions,
    load_bench_report,
)
from repro.perf.csv_codec import (
    DecodedChunkCache,
    PipelinedTextSink,
    decode_matrix_csv,
    encode_block_via_csv_writer,
    encode_matrix_block,
    prefetch_chunks,
    resolve_codec,
)

#: Floats whose shortest-repr forms exercise every formatting edge: negative
#: zero, subnormals, exponent boundaries and 16/17-significant-digit cases.
EXTREME_FLOATS = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    -0.3,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    9007199254740993.0,
    0.30000000000000004,
    1e16,
    1e-5,
    123456.78901234567,
    2.0**-1022,
    3.141592653589793,
]


def _decode_both(path, **kwargs):
    fast = list(iter_matrix_csv(path, codec="fast", **kwargs))
    python = list(iter_matrix_csv(path, codec="python", **kwargs))
    return fast, python


def _assert_chunks_equal(fast, python):
    assert len(fast) == len(python)
    for a, b in zip(fast, python):
        assert a.columns == b.columns
        assert a.ids == b.ids
        assert a.start_row == b.start_row
        assert a.values.shape == b.values.shape
        assert np.array_equal(
            a.values.view(np.uint64), b.values.view(np.uint64)
        ), "decoded values differ bitwise"


def _error_both(path, **kwargs):
    messages = []
    for codec in ("fast", "python"):
        with pytest.raises(SerializationError) as excinfo:
            list(iter_matrix_csv(path, codec=codec, **kwargs))
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1], "codecs raised different messages"
    return messages[0]


class TestResolveCodec:
    def test_default_is_fast(self):
        assert resolve_codec(None) == "fast"

    def test_explicit_values(self):
        assert resolve_codec("fast") == "fast"
        assert resolve_codec("python") == "python"
        assert resolve_codec("FAST") == "fast"

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError, match="fast"):
            resolve_codec("arrow")


class TestDecodeParity:
    """Both codecs produce identical chunks on well-formed and hostile files."""

    @pytest.mark.parametrize("chunk_rows", [1, 3, 1000])
    def test_basic_parity(self, tmp_path, chunk_rows):
        path = tmp_path / "m.csv"
        rows = "".join(
            f"r{i},{float(i) / 7!r},{-float(i) * 3.3!r}\n" for i in range(50)
        )
        path.write_text("id,a,b\n" + rows, encoding="utf-8")
        fast, python = _decode_both(path, chunk_rows=chunk_rows)
        _assert_chunks_equal(fast, python)

    def test_extreme_floats_parity(self, tmp_path):
        path = tmp_path / "extreme.csv"
        lines = ["id,x,y"]
        for i, value in enumerate(EXTREME_FLOATS):
            lines.append(f"r{i},{value!r},{-value!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fast, python = _decode_both(path, chunk_rows=4)
        _assert_chunks_equal(fast, python)
        merged = np.concatenate([chunk.values for chunk in fast])
        expected = np.array([[v, -v] for v in EXTREME_FLOATS])
        assert np.array_equal(merged.view(np.uint64), expected.view(np.uint64))

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"id,a,b\r\nr0,1.5,2.5\r\nr1,-0.0,3.25\r\n")
        fast, python = _decode_both(path, chunk_rows=1)
        _assert_chunks_equal(fast, python)
        assert fast[0].values[0, 0] == 1.5

    def test_utf8_bom(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,a,b\nr0,1.0,2.0\n")
        fast, python = _decode_both(path, chunk_rows=10)
        _assert_chunks_equal(fast, python)
        assert fast[0].columns == ("a", "b")

    def test_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "notrail.csv"
        path.write_bytes(b"id,a,b\nr0,1.0,2.0\nr1,3.0,4.0")
        fast, python = _decode_both(path, chunk_rows=1)
        _assert_chunks_equal(fast, python)
        assert len(fast) == 2

    def test_crlf_bom_and_no_trailing_newline_together(self, tmp_path):
        path = tmp_path / "hostile.csv"
        path.write_bytes(b"\xef\xbb\xbfid,a\r\nr0,1.25\r\nr1,2.5")
        fast, python = _decode_both(path, chunk_rows=1)
        _assert_chunks_equal(fast, python)
        assert len(fast) == 2

    def test_quoted_labels_fall_back_identically(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            'id,a,b\n"row, one",1.0,2.0\n"say ""hi""",3.0,4.0\nplain,5.0,6.0\n',
            encoding="utf-8",
        )
        fast, python = _decode_both(path, chunk_rows=2)
        _assert_chunks_equal(fast, python)
        assert fast[0].ids == ("row, one", 'say "hi"')

    def test_blank_lines_skipped_identically(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("id,a\n\nr0,1.0\n\n\nr1,2.0\n", encoding="utf-8")
        fast, python = _decode_both(path, chunk_rows=1)
        _assert_chunks_equal(fast, python)
        assert len(fast) == 2

    def test_no_id_column(self, tmp_path):
        path = tmp_path / "noid.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        fast, python = _decode_both(path, chunk_rows=1)
        _assert_chunks_equal(fast, python)
        assert fast[0].ids is None

    def test_ragged_row_same_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,a,b\nr0,1.0,2.0\nr1,3.0\n", encoding="utf-8")
        message = _error_both(path, chunk_rows=10)
        assert "field(s)" in message

    def test_non_numeric_same_error(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("id,a,b\nr0,1.0,hello\n", encoding="utf-8")
        message = _error_both(path, chunk_rows=10)
        assert "hello" in message

    def test_underscore_token_same_outcome(self, tmp_path):
        # float("1_5") parses in Python while np.loadtxt rejects it, so the
        # fast codec must fall back rather than error.
        path = tmp_path / "under.csv"
        path.write_text("id,a\nr0,1_5\n", encoding="utf-8")
        fast, python = _decode_both(path, chunk_rows=10)
        _assert_chunks_equal(fast, python)
        assert fast[0].values[0, 0] == 15.0

    def test_duplicate_header_same_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,a,a\nr0,1.0,2.0\n", encoding="utf-8")
        _error_both(path, chunk_rows=10)

    def test_empty_and_header_only_same_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        _error_both(empty, chunk_rows=10)
        header_only = tmp_path / "header.csv"
        header_only.write_text("id,a\n", encoding="utf-8")
        _error_both(header_only, chunk_rows=10)

    def test_error_after_complete_chunks_same_prefix(self, tmp_path):
        # The python codec yields every complete chunk before raising on a
        # bad row; the fast fallback must preserve that ordering.
        path = tmp_path / "late.csv"
        path.write_text("id,a\nr0,1.0\nr1,2.0\nr2,oops\n", encoding="utf-8")
        prefixes = []
        for codec in ("fast", "python"):
            chunks = []
            with pytest.raises(SerializationError):
                for chunk in iter_matrix_csv(path, chunk_rows=1, codec=codec):
                    chunks.append(chunk)
            prefixes.append(chunks)
        _assert_chunks_equal(prefixes[0], prefixes[1])
        assert len(prefixes[0]) == 2

    def test_fuzz_parity(self, tmp_path):
        rng = np.random.default_rng(20260807)
        tokens = ["1.5", "-0.0", "2e308", "nan", "inf", "-inf", "1_5", "x", '"q,q"', ""]
        for trial in range(30):
            n_rows = int(rng.integers(0, 8))
            n_cols = int(rng.integers(1, 4))
            lines = ["id," + ",".join(f"c{j}" for j in range(n_cols))]
            for i in range(n_rows):
                if rng.random() < 0.15:
                    lines.append("")  # blank line
                cells = [f"r{i}"]
                for _ in range(n_cols + (1 if rng.random() < 0.1 else 0)):
                    if rng.random() < 0.25:
                        cells.append(tokens[int(rng.integers(0, len(tokens)))])
                    else:
                        cells.append(repr(float(rng.normal())))
                lines.append(",".join(cells))
            path = tmp_path / f"fuzz{trial}.csv"
            newline = "\r\n" if trial % 3 == 0 else "\n"
            body = newline.join(lines) + (newline if trial % 2 == 0 else "")
            path.write_text(body, encoding="utf-8")
            chunk_rows = int(rng.integers(1, 5))
            results = []
            for codec in ("fast", "python"):
                chunks: list = []
                error = None
                try:
                    for chunk in iter_matrix_csv(path, chunk_rows=chunk_rows, codec=codec):
                        chunks.append(chunk)
                except SerializationError as exc:
                    error = str(exc)
                results.append((chunks, error))
            (fast_chunks, fast_error), (python_chunks, python_error) = results
            assert fast_error == python_error, f"trial {trial}: {fast_error!r} vs {python_error!r}"
            _assert_chunks_equal(fast_chunks, python_chunks)


class TestEncodeParity:
    """The fast encoder's bytes match the csv.writer reference cell for cell."""

    def test_fast_block_matches_reference(self):
        values = np.array([EXTREME_FLOATS, EXTREME_FLOATS[::-1]], dtype=np.float64).T
        ids = [f"r{i}" for i in range(values.shape[0])]
        fast = encode_matrix_block(values, ids)
        assert fast is not None
        assert fast == encode_block_via_csv_writer(values, ids, None)

    def test_no_ids(self):
        values = np.array([[1.5, -0.0], [5e-324, 1e16]])
        fast = encode_matrix_block(values, None)
        assert fast == encode_block_via_csv_writer(values, None, None)

    def test_ids_needing_quotes_are_ineligible(self):
        values = np.array([[1.0], [2.0]])
        assert encode_matrix_block(values, ["a,b", "plain"]) is None
        assert encode_matrix_block(values, ['say "hi"', "plain"]) is None
        assert encode_matrix_block(values, ["line\nbreak", "plain"]) is None

    def test_non_string_ids_are_ineligible(self):
        values = np.array([[1.0]])
        assert encode_matrix_block(values, [7]) is None

    def test_writer_byte_identity_across_codecs(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 3)) * 1e3
        values[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        ids = [f"row-{i}" for i in range(200)]
        outputs = {}
        for codec in ("fast", "python"):
            path = tmp_path / f"{codec}.csv"
            with MatrixCsvWriter(path, ["a", "b", "c"], include_ids=True, codec=codec) as w:
                w.write_rows(values[:77], ids=ids[:77])
                w.write_rows(values[77:], ids=ids[77:])
            outputs[codec] = path.read_bytes()
        assert outputs["fast"] == outputs["python"]

    def test_empty_block_writes_nothing_in_every_lane(self, tmp_path):
        assert encode_matrix_block(np.zeros((0, 2)), []) == ""
        assert encode_matrix_block(np.zeros((0, 2)), None) == ""
        outputs = set()
        for codec, pipelined in itertools.product(("fast", "python"), (False, True)):
            path = tmp_path / f"{codec}-{pipelined}.csv"
            with MatrixCsvWriter(
                path, ["a", "b"], include_ids=True, codec=codec, pipelined=pipelined
            ) as writer:
                writer.write_rows([[1.0, 2.0]], ids=["r1"])
                writer.write_rows(np.zeros((0, 2)), ids=[])
                writer.write_rows([[3.0, 4.0]], ids=["r2"])
            outputs.add(path.read_bytes())
        assert outputs == {b"id,a,b\r\nr1,1.0,2.0\r\nr2,3.0,4.0\r\n"}

    def test_float_format_still_honoured(self, tmp_path):
        values = np.array([[1.23456789]])
        path = tmp_path / "fmt.csv"
        with MatrixCsvWriter(path, ["a"], include_ids=False, float_format="%.3f", codec="fast") as w:
            w.write_rows(values)
        assert path.read_bytes() == b"a\r\n1.235\r\n"


class TestRoundTripProperty:
    """encode(decode(file)) reproduces the file byte for byte."""

    @pytest.mark.parametrize("codec", ["fast", "python"])
    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_round_trip_byte_identical(self, tmp_path, codec, chunk_rows):
        source = tmp_path / "source.csv"
        rng = np.random.default_rng(99)
        values = np.concatenate(
            [
                np.array([EXTREME_FLOATS, EXTREME_FLOATS[::-1]], dtype=np.float64).T,
                rng.normal(size=(25, 2)) * 10.0 ** rng.integers(-300, 300, size=(25, 2)),
            ]
        )
        ids = [f"obj {i}" if i % 3 else f'"q{i}",x' for i in range(values.shape[0])]
        with MatrixCsvWriter(source, ["a", "b"], include_ids=True, codec=codec) as writer:
            writer.write_rows(values, ids=ids)

        copy = tmp_path / "copy.csv"
        with MatrixCsvWriter(copy, ["a", "b"], include_ids=True, codec=codec) as writer:
            for chunk in iter_matrix_csv(source, chunk_rows=chunk_rows, codec=codec):
                writer.write_rows(chunk.values, ids=list(chunk.ids))
        assert copy.read_bytes() == source.read_bytes()


class TestPipelinedIO:
    def test_prefetch_yields_identical_chunks(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = "".join(f"r{i},{float(i)!r}\n" for i in range(100))
        path.write_text("id,a\n" + rows, encoding="utf-8")
        plain = list(iter_matrix_csv(path, chunk_rows=7))
        prefetched = list(iter_matrix_csv(path, chunk_rows=7, prefetch=2))
        _assert_chunks_equal(prefetched, plain)

    def test_prefetch_propagates_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a\nr0,oops\n", encoding="utf-8")
        with pytest.raises(SerializationError):
            list(iter_matrix_csv(path, chunk_rows=1, prefetch=2))

    def test_prefetch_depth_validated(self):
        with pytest.raises(ValidationError):
            list(prefetch_chunks(iter([]), depth=0))

    def test_pipelined_writer_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(500, 2))
        ids = [f"r{i}" for i in range(500)]
        plain_path, piped_path = tmp_path / "plain.csv", tmp_path / "piped.csv"
        for path, pipelined in ((plain_path, False), (piped_path, True)):
            with MatrixCsvWriter(path, ["a", "b"], include_ids=True, pipelined=pipelined) as w:
                for start in range(0, 500, 37):
                    w.write_rows(values[start : start + 37], ids=ids[start : start + 37])
        assert piped_path.read_bytes() == plain_path.read_bytes()

    def test_sink_rejects_write_after_close(self, tmp_path):
        handle = (tmp_path / "sink.txt").open("w", encoding="utf-8")
        sink = PipelinedTextSink(handle)
        sink.write("hello")
        sink.close()
        with pytest.raises(SerializationError):
            sink.write("again")
        handle.close()


class TestDecodedChunkCache:
    def test_replay_is_bitwise_identical(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix_to_csv_rows = "".join(f"r{i},{float(i) / 3!r},{-float(i)!r}\n" for i in range(40))
        path.write_text("id,a,b\n" + matrix_to_csv_rows, encoding="utf-8")
        chunks = [
            (chunk.values, chunk.ids) for chunk in iter_matrix_csv(path, chunk_rows=7)
        ]
        with DecodedChunkCache() as cache:
            teed = list(cache.tee(iter(chunks)))
            assert cache.complete
            replayed = list(cache.replay())
            assert len(replayed) == len(teed)
            for (values_a, ids_a), (values_b, ids_b) in zip(teed, replayed):
                assert ids_a == ids_b
                assert np.array_equal(values_a.view(np.uint64), values_b.view(np.uint64))

    def test_incomplete_tee_cannot_replay(self):
        cache = DecodedChunkCache()
        try:
            iterator = cache.tee(iter([(np.zeros((2, 2)), None), (np.ones((1, 2)), None)]))
            next(iterator)  # abandon before exhaustion
            assert not cache.complete
            with pytest.raises(ValidationError):
                list(cache.replay())
        finally:
            cache.close()


    @pytest.mark.parametrize("spill", ["values.f64", "ids.pkl"])
    def test_truncated_spill_names_file_and_chunk(self, tmp_path, monkeypatch, spill):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        blocks = [(np.full((4, 2), float(index)), (f"r{index}",) * 4) for index in range(3)]
        with DecodedChunkCache() as cache:
            list(cache.tee(iter(blocks)))
            (spill_path,) = tmp_path.glob(f"repro-csv-spill-*/{spill}")
            os.truncate(spill_path, os.path.getsize(spill_path) - 3)
            replayed = cache.replay()
            assert [ids for _, ids in itertools.islice(replayed, 2)] == [b[1] for b in blocks[:2]]
            with pytest.raises(SerializationError, match=rf"{spill}.* at chunk 2"):
                next(replayed)
        assert list(tmp_path.glob("repro-csv-spill-*")) == []


class TestChunkRowsValidation:
    @pytest.mark.parametrize("codec", ["fast", "python"])
    def test_invalid_chunk_rows_rejected(self, tmp_path, codec):
        path = tmp_path / "m.csv"
        path.write_text("id,a\nr0,1.0\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="chunk_rows"):
            list(iter_matrix_csv(path, chunk_rows=0, codec=codec))

    def test_decode_matrix_csv_direct(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,a\nr0,1.0\nr1,2.0\n", encoding="utf-8")
        chunks = list(decode_matrix_csv(path, chunk_rows=1))
        assert [chunk.start_row for chunk in chunks] == [0, 1]


class TestBenchReport:
    def test_load_rejects_missing_and_invalid(self, tmp_path):
        with pytest.raises(ValidationError):
            load_bench_report(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_bench_report(bad)

    def test_regression_and_contract_gating(self):
        old = {"hot_paths": {"s": {"speedup": 3.0, "byte_identical": True, "seconds": 1.0}}}
        good = {"hot_paths": {"s": {"speedup": 2.9, "byte_identical": True, "seconds": 1.1}}}
        bad = {"hot_paths": {"s": {"speedup": 1.0, "byte_identical": False, "seconds": 1.0}}}
        assert not has_regressions(diff_bench_reports(old, good))
        rows = diff_bench_reports(old, bad)
        assert has_regressions(rows)
        statuses = {row["path"]: row["status"] for row in rows}
        assert statuses["s.speedup"] == "REGRESSED"
        assert statuses["s.byte_identical"] == "BROKEN"

    def test_missing_gated_metric_fails(self):
        old = {"hot_paths": {"s": {"speedup": 3.0}}}
        new = {"hot_paths": {"s": {}}}
        assert has_regressions(diff_bench_reports(old, new))

    def test_format_mentions_gate_outcome(self):
        old = {"hot_paths": {"s": {"speedup": 3.0}}}
        new = {"hot_paths": {"s": {"speedup": 3.2}}}
        text = format_bench_diff(diff_bench_reports(old, new))
        assert "OK" in text and "s.speedup" in text
