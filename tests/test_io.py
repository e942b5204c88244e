"""Unit tests for CSV/JSON persistence."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import ColumnRole, DataMatrix, Schema, Table
from repro.data.io import (
    MatrixCsvWriter,
    atomic_write_text,
    format_value,
    iter_matrix_csv,
    matrix_from_csv,
    matrix_to_csv,
    read_csv,
    read_json,
    read_matrix_csv_header,
    write_csv,
    write_json,
)
from repro.exceptions import SerializationError


@pytest.fixture
def table() -> Table:
    schema = Schema.from_names(
        ["id", "age", "weight", "city"],
        roles={"id": ColumnRole.IDENTIFIER, "city": ColumnRole.CATEGORICAL},
        default_role=ColumnRole.CONFIDENTIAL_NUMERIC,
    )
    return Table(
        schema,
        {
            "id": ["p1", "p2", "p3"],
            "age": [30.5, 40.0, 50.25],
            "weight": [60.0, 70.5, 80.0],
            "city": ["york", "leeds", "hull"],
        },
    )


class TestTableCsv:
    def test_round_trip_with_explicit_schema(self, table, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(table, path)
        loaded = read_csv(path, schema=table.schema)
        assert loaded.column_names == table.column_names
        assert np.allclose(loaded.column("age"), table.column("age"))
        assert loaded.column("city").tolist() == table.column("city").tolist()

    def test_inferred_roles(self, table, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(table, path)
        loaded = read_csv(path, identifier_columns=["id"])
        assert loaded.schema.role_of("id") is ColumnRole.IDENTIFIER
        assert loaded.schema.role_of("age") is ColumnRole.CONFIDENTIAL_NUMERIC
        assert loaded.schema.role_of("city") is ColumnRole.CATEGORICAL

    def test_explicit_numeric_columns(self, table, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(table, path)
        loaded = read_csv(path, numeric_columns=["age"])
        assert loaded.schema.role_of("age") is ColumnRole.CONFIDENTIAL_NUMERIC
        assert loaded.schema.role_of("weight") is ColumnRole.CATEGORICAL

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SerializationError, match="empty"):
            read_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(SerializationError, match="no data rows"):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(SerializationError, match="field"):
            read_csv(path)

    def test_schema_column_missing_from_csv(self, table, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(table.drop_columns(["city"]), path)
        with pytest.raises(SerializationError, match="not present"):
            read_csv(path, schema=table.schema)

    def test_numeric_declared_but_text_found(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age\nnot-a-number\n")
        schema = Schema.from_names(["age"], default_role=ColumnRole.NUMERIC)
        with pytest.raises(SerializationError, match="declared numeric"):
            read_csv(path, schema=schema)


class TestAtomicWrite:
    """Publishing is all-or-nothing: a crash mid-write never corrupts the target."""

    def test_replaces_existing_content_without_litter(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_publish_keeps_original_and_cleans_up(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("original")

        def crash(src, dst):
            raise RuntimeError("simulated crash between write and publish")

        monkeypatch.setattr("os.replace", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            atomic_write_text(path, "replacement")
        assert path.read_text() == "original"
        assert list(tmp_path.iterdir()) == [path]

    def test_write_csv_interrupted_publish_keeps_previous_release(
        self, table, tmp_path, monkeypatch
    ):
        path = tmp_path / "table.csv"
        write_csv(table, path)
        before = path.read_bytes()

        def crash(src, dst):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr("os.replace", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            write_csv(table.drop_columns(["city"]), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_write_json_interrupted_publish_keeps_previous_release(
        self, table, tmp_path, monkeypatch
    ):
        path = tmp_path / "table.json"
        write_json(table, path)
        before = path.read_bytes()

        def crash(src, dst):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr("os.replace", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            write_json(table.drop_columns(["city"]), path)
        assert path.read_bytes() == before
        assert read_json(path).column_names == table.column_names


class TestTableJson:
    def test_round_trip(self, table, tmp_path):
        path = tmp_path / "table.json"
        write_json(table, path)
        loaded = read_json(path)
        assert loaded.column_names == table.column_names
        assert loaded.schema.role_of("id") is ColumnRole.IDENTIFIER
        assert np.allclose(loaded.column("weight"), table.column("weight"))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="not valid JSON"):
            read_json(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"records": []}')
        with pytest.raises(SerializationError, match="missing"):
            read_json(path)


class TestMatrixCsv:
    def test_round_trip_with_ids(self, tmp_path):
        matrix = DataMatrix(
            [[1.25, 2.5], [3.75, 4.0]], columns=["a", "b"], ids=["x", "y"]
        )
        path = tmp_path / "matrix.csv"
        matrix_to_csv(matrix, path)
        loaded = matrix_from_csv(path)
        assert loaded.columns == ("a", "b")
        assert loaded.ids == ("x", "y")
        assert np.allclose(loaded.values, matrix.values)

    def test_round_trip_without_ids(self, tmp_path):
        matrix = DataMatrix([[1.0], [2.0]], columns=["a"])
        path = tmp_path / "matrix.csv"
        matrix_to_csv(matrix, path)
        loaded = matrix_from_csv(path)
        assert loaded.ids is None
        assert np.allclose(loaded.values, matrix.values)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(SerializationError, match="header and data"):
            matrix_from_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\nhello\n")
        with pytest.raises(SerializationError, match="non-numeric"):
            matrix_from_csv(path, id_column=None)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(SerializationError, match="field"):
            matrix_from_csv(path, id_column=None)

    def test_round_trip_is_bitwise_exact_by_default(self, tmp_path):
        # Regression: the old "%.6f" default silently truncated, so
        # transform -> invert could not restore the normalized matrix.
        rng = np.random.default_rng(3)
        values = rng.normal(size=(50, 4)) * np.array([1e-7, 1.0, 1e6, np.pi])
        matrix = DataMatrix(values, ids=[f"r{i}" for i in range(50)])
        path = tmp_path / "exact.csv"
        matrix_to_csv(matrix, path)
        loaded = matrix_from_csv(path)
        assert np.array_equal(loaded.values, matrix.values)
        # And the written file itself is a fixed point of write -> read -> write.
        second = tmp_path / "exact2.csv"
        matrix_to_csv(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    def test_explicit_float_format_still_truncates(self, tmp_path):
        matrix = DataMatrix([[1.23456789]], columns=["a"])
        path = tmp_path / "lossy.csv"
        matrix_to_csv(matrix, path, float_format="%.2f")
        assert "1.23" in path.read_text()
        assert matrix_from_csv(path).values[0, 0] == 1.23

    def test_format_value_round_trips_bitwise(self):
        for value in (0.1, 1.0 / 3.0, -1e-300, 7.5e17, float(np.pi)):
            assert float(format_value(value)) == value
        assert format_value(1.25, "%.1f") == "1.2"

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(SerializationError, match="duplicate header"):
            matrix_from_csv(path, id_column=None)

    def test_ids_with_commas_quotes_newlines_round_trip(self, tmp_path):
        ids = ["Smith, Jane", 'he said "hi"', "line\nbreak", "plain"]
        matrix = DataMatrix([[1.0], [2.0], [3.0], [4.0]], columns=["a"], ids=ids)
        path = tmp_path / "tricky.csv"
        matrix_to_csv(matrix, path)
        loaded = matrix_from_csv(path)
        assert loaded.ids == tuple(ids)
        assert np.array_equal(loaded.values, matrix.values)


class TestDuplicateHeaders:
    def test_read_csv_rejects_duplicate_header(self, tmp_path):
        # Regression: duplicate names used to merge columns silently and
        # double-append every row's values.
        path = tmp_path / "dup.csv"
        path.write_text("age,age\n1,2\n3,4\n")
        with pytest.raises(SerializationError, match="duplicate header"):
            read_csv(path)

    def test_read_csv_names_the_duplicates(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a,b,c\n1,2,3,4,5\n")
        with pytest.raises(SerializationError, match=r"\['a', 'b'\]"):
            read_csv(path)


class TestIterMatrixCsv:
    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(11)
        return DataMatrix(
            rng.normal(size=(23, 3)),
            columns=["a", "b", "c"],
            ids=[f"row{i}" for i in range(23)],
        )

    @pytest.mark.parametrize("chunk_rows", [1, 2, 5, 23, 100])
    def test_chunks_concatenate_to_full_matrix(self, matrix, tmp_path, chunk_rows):
        path = tmp_path / "matrix.csv"
        matrix_to_csv(matrix, path)
        chunks = list(iter_matrix_csv(path, chunk_rows=chunk_rows))
        assert all(chunk.columns == ("a", "b", "c") for chunk in chunks)
        assert [chunk.start_row for chunk in chunks] == list(range(0, 23, chunk_rows))
        assert all(chunk.n_rows <= chunk_rows for chunk in chunks)
        stacked = np.concatenate([chunk.values for chunk in chunks])
        assert np.array_equal(stacked, matrix.values)
        ids = tuple(object_id for chunk in chunks for object_id in chunk.ids)
        assert ids == matrix.ids

    def test_no_ids_chunks(self, tmp_path):
        matrix = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "noids.csv"
        matrix_to_csv(matrix, path)
        chunks = list(iter_matrix_csv(path, chunk_rows=1))
        assert all(chunk.ids is None for chunk in chunks)

    def test_header_probe(self, matrix, tmp_path):
        path = tmp_path / "matrix.csv"
        matrix_to_csv(matrix, path)
        assert read_matrix_csv_header(path) == (("a", "b", "c"), True)
        assert read_matrix_csv_header(path, id_column=None) == (("id", "a", "b", "c"), False)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SerializationError, match="header and data"):
            list(iter_matrix_csv(path))
        with pytest.raises(SerializationError, match="header and data"):
            read_matrix_csv_header(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(SerializationError, match="header and data"):
            list(iter_matrix_csv(path))

    def test_ragged_and_non_numeric_rejected(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(SerializationError, match="field"):
            list(iter_matrix_csv(ragged, id_column=None))
        textual = tmp_path / "text.csv"
        textual.write_text("a\n1.0\nhello\n")
        with pytest.raises(SerializationError, match="non-numeric"):
            list(iter_matrix_csv(textual, id_column=None))

    def test_invalid_chunk_rows_rejected(self, matrix, tmp_path):
        path = tmp_path / "matrix.csv"
        matrix_to_csv(matrix, path)
        with pytest.raises(SerializationError, match="chunk_rows"):
            list(iter_matrix_csv(path, chunk_rows=0))


class TestMatrixCsvWriter:
    def test_chunked_writes_byte_identical_to_one_shot(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = DataMatrix(
            rng.normal(size=(17, 2)) * 100.0,
            columns=["x", "y"],
            ids=[f"i{i}" for i in range(17)],
        )
        one_shot = tmp_path / "one.csv"
        matrix_to_csv(matrix, one_shot)
        chunked = tmp_path / "chunked.csv"
        with MatrixCsvWriter(chunked, matrix.columns, include_ids=True) as writer:
            for start in range(0, 17, 3):
                stop = min(start + 3, 17)
                writer.write_rows(matrix.values[start:stop], ids=matrix.ids[start:stop])
            assert writer.rows_written == 17
        assert chunked.read_bytes() == one_shot.read_bytes()

    def test_wrong_width_rejected(self, tmp_path):
        with MatrixCsvWriter(tmp_path / "w.csv", ["a", "b"]) as writer:
            with pytest.raises(SerializationError, match="column"):
                writer.write_rows(np.zeros((2, 3)))

    def test_ids_contract_enforced(self, tmp_path):
        with MatrixCsvWriter(tmp_path / "w.csv", ["a"], include_ids=True) as writer:
            with pytest.raises(SerializationError, match="one id per row"):
                writer.write_rows(np.zeros((2, 1)))
        with MatrixCsvWriter(tmp_path / "w2.csv", ["a"]) as writer:
            with pytest.raises(SerializationError, match="include_ids=False"):
                writer.write_rows(np.zeros((2, 1)), ids=["x", "y"])

    @pytest.mark.parametrize("codec", ["fast", "python"])
    def test_append_from_digest_covers_prefix_then_published_file(self, tmp_path, codec):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(30, 2))
        ids = [f"i{i}" for i in range(30)]
        one_shot = tmp_path / "one.csv"
        with MatrixCsvWriter(one_shot, ["x", "y"], include_ids=True) as writer:
            writer.write_rows(values, ids=ids)
        prior = tmp_path / "prior.csv"
        with MatrixCsvWriter(prior, ["x", "y"], include_ids=True) as writer:
            writer.write_rows(values[:12], ids=ids[:12])

        digest = hashlib.sha256()
        with MatrixCsvWriter(
            prior,
            ["x", "y"],
            include_ids=True,
            append_from=prior,
            digest=digest,
            codec=codec,
        ) as writer:
            assert digest.hexdigest() == hashlib.sha256(prior.read_bytes()).hexdigest()
            writer.write_rows(values[12:], ids=ids[12:])
        assert prior.read_bytes() == one_shot.read_bytes()
        assert digest.hexdigest() == hashlib.sha256(one_shot.read_bytes()).hexdigest()

    def test_missing_append_from_leaves_no_temporary(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MatrixCsvWriter(tmp_path / "out.csv", ["a"], append_from=tmp_path / "absent.csv")
        assert list(tmp_path.iterdir()) == []

    def test_write_after_close_rejected(self, tmp_path):
        writer = MatrixCsvWriter(tmp_path / "w.csv", ["a"])
        writer.close()
        with pytest.raises(SerializationError, match="closed"):
            writer.write_rows(np.zeros((1, 1)))
