"""CSV / JSON persistence for tables and data matrices, in-memory and streamed.

The data owner in the paper's scenarios *releases* a transformed database to
a third party.  These helpers provide the serialization layer for that
release: plain CSV and JSON, with the schema stored alongside the values so a
:class:`~repro.data.Table` round-trips losslessly.

Two access styles are provided for matrix CSVs:

* **Materialized** — :func:`matrix_to_csv` / :func:`matrix_from_csv` read or
  write a whole :class:`~repro.data.DataMatrix` at once.
* **Streamed** — :func:`iter_matrix_csv` yields :class:`MatrixCsvChunk` row
  blocks under a configurable ``chunk_rows``, and :class:`MatrixCsvWriter`
  appends row blocks incrementally; together they let the release pipeline
  process datasets that never fit in memory (:class:`MatrixPasses` serves
  readers that pass over one file several times but parse it once).  The
  materialized functions are thin wrappers over the streamed ones, so both
  paths share one parser, one validator and one value formatter — a matrix
  written chunk-by-chunk is byte-identical to the same matrix written in
  one call.

Float values are serialized with the shortest round-tripping representation
(:func:`repr`) by default, so a write → read cycle restores every value
**bitwise** — the owner's ``transform`` → ``invert`` contract depends on it.
Pass an explicit printf-style ``float_format`` (e.g. ``"%.6f"``) only for
deliberately lossy, human-oriented output.

Both streamed entry points expose a ``codec`` seam: ``codec="python"`` is the
seed ``csv.reader``/``csv.writer`` lane and remains the cross-check oracle,
while ``codec="fast"`` (the default) routes eligible blocks through the
vectorized codec in :mod:`repro.perf.csv_codec`, which is bitwise-identical
on decode and byte-identical on encode — ineligible blocks fall back to the
oracle lane automatically.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from ..exceptions import SerializationError
from .matrix import DataMatrix
from .schema import ColumnRole, Schema
from .table import Table

__all__ = [
    "atomic_write_text",
    "write_csv",
    "read_csv",
    "write_json",
    "read_json",
    "matrix_to_csv",
    "matrix_from_csv",
    "iter_matrix_csv",
    "read_matrix_csv_header",
    "MatrixCsvChunk",
    "MatrixCsvWriter",
    "MatrixPasses",
    "format_value",
    "DEFAULT_CHUNK_ROWS",
]

#: Default rows per block yielded by :func:`iter_matrix_csv`.
DEFAULT_CHUNK_ROWS: int = 16384


def atomic_write_text(path: str | Path, text: str, *, newline: str | None = None) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + ``os.replace``.

    A crash mid-write leaves either the previous file or nothing at the
    final path — never a torn artifact (the PR 8 crash-safety contract).
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with temporary.open("w", newline=newline, encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def write_csv(table: Table, path: str | Path, *, include_header: bool = True) -> None:
    """Write ``table`` to ``path`` as CSV (schema roles are not persisted).

    The file is published atomically: rows are staged in memory and land on
    disk via :func:`atomic_write_text`.
    """
    buffer = StringIO(newline="")
    writer = csv.writer(buffer)
    if include_header:
        writer.writerow(table.column_names)
    for record in table.iter_rows():
        writer.writerow([record[name] for name in table.column_names])
    atomic_write_text(path, buffer.getvalue(), newline="")


def read_csv(
    path: str | Path,
    *,
    schema: Schema | None = None,
    numeric_columns: Sequence[str] | None = None,
    identifier_columns: Sequence[str] | None = None,
) -> Table:
    """Read a CSV file into a :class:`Table`.

    When no explicit ``schema`` is supplied, column roles are inferred:
    columns listed in ``identifier_columns`` become identifiers, columns in
    ``numeric_columns`` (or columns whose every value parses as a float)
    become confidential numerics, and everything else becomes categorical.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise SerializationError(f"CSV file {path} is empty")
    header, *data_rows = rows
    if not data_rows:
        raise SerializationError(f"CSV file {path} has a header but no data rows")
    _check_unique_header(header, path)

    columns: dict[str, list[str]] = {name: [] for name in header}
    for row in data_rows:
        if len(row) != len(header):
            raise SerializationError(
                f"CSV row has {len(row)} field(s) but the header declares {len(header)}"
            )
        for name, value in zip(header, row):
            columns[name].append(value)

    if schema is None:
        identifier_columns = set(identifier_columns or [])
        numeric_columns_set = set(numeric_columns) if numeric_columns is not None else None
        roles: dict[str, ColumnRole] = {}
        for name in header:
            if name in identifier_columns:
                roles[name] = ColumnRole.IDENTIFIER
            elif numeric_columns_set is not None:
                roles[name] = (
                    ColumnRole.CONFIDENTIAL_NUMERIC
                    if name in numeric_columns_set
                    else ColumnRole.CATEGORICAL
                )
            else:
                roles[name] = (
                    ColumnRole.CONFIDENTIAL_NUMERIC
                    if _all_parse_as_float(columns[name])
                    else ColumnRole.CATEGORICAL
                )
        schema = Schema.from_names(header, roles=roles)

    typed: dict[str, list] = {}
    for spec in schema:
        raw = columns.get(spec.name)
        if raw is None:
            raise SerializationError(f"schema column {spec.name!r} not present in CSV header")
        if spec.role.is_numeric:
            try:
                typed[spec.name] = [float(value) for value in raw]
            except ValueError as exc:
                raise SerializationError(
                    f"column {spec.name!r} is declared numeric but contains {exc}"
                ) from exc
        else:
            typed[spec.name] = list(raw)
    return Table(schema, typed)


def _check_unique_header(header: Sequence[str], path: Path) -> None:
    """Duplicate header names silently merge columns downstream — reject them."""
    if len(set(header)) != len(header):
        seen: set[str] = set()
        repeated: set[str] = set()
        for name in header:
            (repeated if name in seen else seen).add(name)
        duplicates = sorted(repeated)
        raise SerializationError(
            f"CSV file {path} declares duplicate header name(s) {duplicates}; "
            "column names must be unique"
        )


def _all_parse_as_float(values: Sequence[str]) -> bool:
    """Whether every string in ``values`` parses as a finite float."""
    for value in values:
        try:
            parsed = float(value)
        except ValueError:
            return False
        if not np.isfinite(parsed):
            return False
    return True


def write_json(table: Table, path: str | Path) -> None:
    """Write ``table`` (values and schema roles) to ``path`` as JSON."""
    path = Path(path)
    payload = {
        "schema": [
            {"name": spec.name, "role": spec.role.value, "description": spec.description}
            for spec in table.schema
        ],
        "records": [
            {name: _to_jsonable(value) for name, value in record.items()}
            for record in table.iter_rows()
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=2))


def read_json(path: str | Path) -> Table:
    """Read a table previously written by :func:`write_json`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"file {path} is not valid JSON: {exc}") from exc
    if "schema" not in payload or "records" not in payload:
        raise SerializationError(f"file {path} is missing the 'schema' or 'records' key")
    try:
        schema = Schema(tuple(_spec_from_payload(entry) for entry in payload["schema"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid schema payload in {path}: {exc}") from exc
    return Table.from_records(payload["records"], schema=schema)


def _spec_from_payload(entry: dict):
    from .schema import ColumnSpec

    return ColumnSpec(entry["name"], ColumnRole(entry["role"]), entry.get("description", ""))


def _to_jsonable(value):
    """Convert numpy scalars to plain Python scalars for JSON output."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# --------------------------------------------------------------------------- #
# Matrix CSV — streamed core
# --------------------------------------------------------------------------- #
def format_value(value, float_format: str | None = None) -> str:
    """Serialize one matrix value.

    With the default ``float_format=None`` the shortest representation that
    round-trips (``repr``) is used, so ``float(format_value(x)) == x``
    bitwise for every finite float.  A printf-style format gives legacy
    fixed-precision (lossy) output.
    """
    if float_format is None:
        return repr(float(value))
    return float_format % value


@dataclass(frozen=True)
class MatrixCsvChunk:
    """One block of rows from a streamed matrix CSV."""

    #: ``(rows, n_attributes)`` float array of this block's values.
    values: np.ndarray
    #: Object identifiers of this block, or ``None`` when the CSV has none.
    ids: tuple | None
    #: Attribute names (identical across every chunk of one file).
    columns: tuple[str, ...]
    #: Absolute index of this block's first data row (0-based).
    start_row: int

    @property
    def n_rows(self) -> int:
        """Number of rows in this block."""
        return self.values.shape[0]


def read_matrix_csv_header(
    path: str | Path, *, id_column: str | None = "id"
) -> tuple[tuple[str, ...], bool]:
    """Return ``(value_columns, has_ids)`` for a matrix CSV without reading rows."""
    path = Path(path)
    # utf-8-sig: a leading BOM is presentation, not part of the first
    # header name (same tolerance as both decode codecs).
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = None
        for row in reader:
            if row:
                header = row
                break
    if header is None:
        raise SerializationError(f"CSV file {path} does not contain a header and data rows")
    _check_unique_header(header, path)
    has_ids = id_column is not None and bool(header) and header[0] == id_column
    value_columns = tuple(header[1:] if has_ids else header)
    return value_columns, has_ids


def iter_matrix_csv(
    path: str | Path,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    id_column: str | None = "id",
    allow_empty: bool = False,
    codec: str | None = None,
) -> Iterator[MatrixCsvChunk]:
    """Stream a matrix CSV as :class:`MatrixCsvChunk` blocks of ``chunk_rows`` rows.

    The parser, validation and value typing are exactly those of
    :func:`matrix_from_csv` (which is built on this iterator): ragged rows,
    non-numeric values, duplicate headers and empty files raise
    :class:`~repro.exceptions.SerializationError`.  Peak memory is one block,
    independent of the file size.

    ``allow_empty=True`` accepts a header-only file and yields no chunks — a
    legitimate state for a distributed party whose horizontal shard received
    zero rows; a missing header still raises.

    ``codec`` selects the decode lane (``"fast"`` by default, ``"python"``
    for the seed parser) — the chunks are bitwise identical either way.
    """
    from ..perf.csv_codec import resolve_codec

    if resolve_codec(codec) == "fast":
        return _iter_matrix_csv_fast(
            path, chunk_rows=chunk_rows, id_column=id_column, allow_empty=allow_empty
        )
    return _iter_matrix_csv_python(
        path, chunk_rows=chunk_rows, id_column=id_column, allow_empty=allow_empty
    )


class MatrixPasses:
    """Repeated full passes over one matrix CSV that parse its text once.

    Each :meth:`chunks` call is one full pass yielding ``(values, ids)``
    blocks.  The first pass that runs to its end tees the decoded blocks into
    a :class:`~repro.perf.csv_codec.DecodedChunkCache` and later passes replay
    the identical doubles and ids instead of parsing again; a pass abandoned
    early or failing leaves the cache incomplete, so the next one re-parses.
    Passes run one at a time.  Single-pass readers call
    :func:`iter_matrix_csv` directly and never spill.

    ``kept_indices`` selects value columns before they are spilled;
    ``ids=False`` yields ``None`` ids for readers that never use them.  The
    other ``options`` go to :func:`iter_matrix_csv`.  Use as a context
    manager: leaving it removes the spill directory, which is created when
    the first pass starts.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        kept_indices: Sequence[int] | None = None,
        ids: bool = True,
        **options,
    ) -> None:
        self.path = Path(path)
        self._kept_indices = None if kept_indices is None else list(kept_indices)
        self._ids = bool(ids)
        self._options = options
        self._cache = None

    def chunks(self) -> Iterator[tuple[np.ndarray, tuple | None]]:
        """One full pass over the file as ``(values, ids)`` blocks."""
        from ..perf.csv_codec import DecodedChunkCache

        if self._cache is None:
            self._cache = DecodedChunkCache()
        if self._cache.complete:
            return self._cache.replay()
        return self._cache.tee(self._parse())

    def _parse(self) -> Iterator[tuple[np.ndarray, tuple | None]]:
        for chunk in iter_matrix_csv(self.path, **self._options):
            values = chunk.values
            if self._kept_indices is not None:
                values = values[:, self._kept_indices]
            yield values, chunk.ids if self._ids else None

    def close(self) -> None:
        """Remove the spill directory (idempotent)."""
        if self._cache is not None:
            self._cache.close()

    def __enter__(self) -> MatrixPasses:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _validated_chunk_rows(chunk_rows: int) -> int:
    chunk_rows = int(chunk_rows)
    if chunk_rows < 1:
        raise SerializationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return chunk_rows


def _iter_matrix_csv_fast(
    path: str | Path,
    *,
    chunk_rows: int,
    id_column: str | None,
    allow_empty: bool,
) -> Iterator[MatrixCsvChunk]:
    """Fast decode lane — block parsing in :mod:`repro.perf.csv_codec`."""
    from ..perf.csv_codec import decode_matrix_csv

    chunk_rows = _validated_chunk_rows(chunk_rows)
    yield from decode_matrix_csv(
        path, chunk_rows=chunk_rows, id_column=id_column, allow_empty=allow_empty
    )


def _iter_matrix_csv_python(
    path: str | Path,
    *,
    chunk_rows: int,
    id_column: str | None,
    allow_empty: bool,
) -> Iterator[MatrixCsvChunk]:
    """Seed decode lane — ``csv.reader`` plus per-cell ``float`` (the oracle)."""
    path = Path(path)
    chunk_rows = _validated_chunk_rows(chunk_rows)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header: list[str] | None = None
        ids: list | None = None
        rows: list[list[float]] = []
        start_row = 0
        n_yielded = 0
        columns: tuple[str, ...] = ()
        has_ids = False
        for row in reader:
            if not row:
                continue
            if header is None:
                header = row
                _check_unique_header(header, path)
                has_ids = id_column is not None and bool(header) and header[0] == id_column
                columns = tuple(header[1:] if has_ids else header)
                ids = [] if has_ids else None
                continue
            if len(row) != len(header):
                raise SerializationError(
                    f"CSV row has {len(row)} field(s) but the header declares {len(header)}"
                )
            if has_ids:
                ids.append(row[0])  # type: ignore[union-attr]
                payload = row[1:]
            else:
                payload = row
            try:
                rows.append([float(value) for value in payload])
            except ValueError as exc:
                raise SerializationError(f"non-numeric value in matrix CSV {path}: {exc}") from exc
            if len(rows) == chunk_rows:
                yield MatrixCsvChunk(
                    values=np.asarray(rows, dtype=float).reshape(len(rows), len(columns)),
                    ids=tuple(ids) if has_ids else None,
                    columns=columns,
                    start_row=start_row,
                )
                start_row += len(rows)
                n_yielded += len(rows)
                rows = []
                ids = [] if has_ids else None
        if rows:
            yield MatrixCsvChunk(
                values=np.asarray(rows, dtype=float).reshape(len(rows), len(columns)),
                ids=tuple(ids) if has_ids else None,
                columns=columns,
                start_row=start_row,
            )
            n_yielded += len(rows)
    if header is None or (n_yielded == 0 and not allow_empty):
        raise SerializationError(f"CSV file {path} does not contain a header and data rows")


#: Process-wide counter so concurrent writers targeting the same path from
#: one process never collide on their temporary file name.
_WRITER_SERIAL = itertools.count()

#: Bytes per read when :class:`MatrixCsvWriter` seeds from ``append_from`` or
#: feeds its ``digest``.
_COPY_BLOCK_BYTES: int = 1 << 20


class MatrixCsvWriter:
    """Incremental matrix CSV writer (the streamed dual of :func:`iter_matrix_csv`).

    Writes the header on construction and appends row blocks with
    :meth:`write_rows`; use as a context manager.  A file assembled from any
    sequence of blocks is byte-identical to :func:`matrix_to_csv` writing the
    same rows at once, because both share this class and one value formatter.

    Writes are **atomic**: rows go to a temporary file inside the destination
    directory, and only a clean :meth:`close` publishes it over ``path`` with
    ``os.replace``.  Leaving the context manager on an exception (or calling
    :meth:`abort`) discards the temporary file, so a crashed writer never
    leaves a torn or half-written release on disk — the previous contents of
    ``path``, if any, survive untouched.

    Parameters
    ----------
    path:
        Destination file.
    columns:
        Attribute names (the value columns of the header).
    include_ids:
        Whether an ``id`` column leads each row; :meth:`write_rows` then
        requires ``ids``.
    float_format:
        ``None`` (default) for bitwise round-tripping shortest-repr output,
        or a printf-style format for legacy fixed-precision output.
    append_from:
        Optional existing matrix CSV whose bytes (header included) seed the
        temporary file; the writer then *extends* it instead of writing a
        fresh header.  Combined with the atomic commit this is how the
        versioned release bundle appends rows crash-safely: pass the current
        release as both ``append_from`` and ``path``.
    digest:
        Optional :mod:`hashlib` object fed every byte of the published file.
        The ``append_from`` bytes are hashed in the same read that copies
        them, so right after construction ``digest`` covers exactly the
        seeded prefix and a caller can check it before writing any row;
        :meth:`close` then feeds only the bytes written after the prefix,
        so afterwards the digest is that of the published file.
    codec:
        ``"fast"`` (default) encodes eligible blocks with the batch
        formatter in :mod:`repro.perf.csv_codec` — byte-identical to the
        ``"python"`` seed lane, which ineligible blocks (non-string ids,
        ids needing CSV quoting, explicit ``float_format``) always use.
        A fast-lane block of at least 8192 rows is encoded on every CPU
        the process may use (:func:`repro.perf.csv_codec.encode_block`:
        forked children encode contiguous row slices, the parent writes
        them in order).  Encode stays serial with one CPU, off Linux, with
        a ``float_format`` or whenever another thread is alive (such as a
        live process-pool backend).
    """

    def __init__(
        self,
        path: str | Path,
        columns: Sequence[str],
        *,
        include_ids: bool = False,
        float_format: str | None = None,
        append_from: str | Path | None = None,
        digest=None,
        codec: str | None = None,
    ) -> None:
        from ..perf.csv_codec import resolve_codec

        self.path = Path(path)
        self.columns = tuple(str(name) for name in columns)
        self.include_ids = bool(include_ids)
        self.float_format = float_format
        self.codec = resolve_codec(codec)
        self._rows_written = 0
        self._temporary = self.path.with_name(
            f".{self.path.name}.tmp.{os.getpid()}.{next(_WRITER_SERIAL)}"
        )
        self._digest = digest
        self._prefix_bytes = 0
        self._handle = self._temporary.open("w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._handle)
        if append_from is not None:
            try:
                with open(append_from, "rb") as source:
                    for block in iter(lambda: source.read(_COPY_BLOCK_BYTES), b""):
                        if digest is not None:
                            digest.update(block)
                        self._handle.buffer.write(block)
                        self._prefix_bytes += len(block)
            except BaseException:
                self._handle.close()
                self._temporary.unlink(missing_ok=True)
                raise
            self._text_pending = False
        else:
            header = (["id"] if self.include_ids else []) + list(self.columns)
            self._writer.writerow(header)
            self._text_pending = True

    @property
    def rows_written(self) -> int:
        """Number of data rows written so far."""
        return self._rows_written

    def write_rows(self, values, ids: Sequence | None = None) -> None:
        """Append a ``(rows, n_attributes)`` block (with per-row ids when enabled)."""
        if self._handle.closed:
            raise SerializationError(f"MatrixCsvWriter for {self.path} is already closed")
        block = np.asarray(values, dtype=float)
        if block.ndim != 2 or block.shape[1] != len(self.columns):
            raise SerializationError(
                f"row block must have {len(self.columns)} column(s), got shape {block.shape}"
            )
        if self.include_ids:
            if ids is None or len(ids) != block.shape[0]:
                raise SerializationError(
                    f"writer expects one id per row ({block.shape[0]}), "
                    f"got {0 if ids is None else len(ids)}"
                )
        elif ids is not None:
            raise SerializationError("writer was built with include_ids=False but ids were given")
        fmt = self.float_format
        if self.codec == "fast" and fmt is None:
            from ..perf.csv_codec import encode_block

            encode_block(block, ids, self._write_bytes)
        else:
            # The oracle lane, which also serves an explicit float_format.
            for row_index in range(block.shape[0]):
                row: list = []
                if self.include_ids:
                    row.append(ids[row_index])  # type: ignore[index]
                row.extend(format_value(value, fmt) for value in block[row_index])
                self._writer.writerow(row)
            self._text_pending = True
        self._rows_written += block.shape[0]

    def _write_bytes(self, data: bytes) -> None:
        # Encoded blocks go straight to the binary buffer, skipping the
        # TextIOWrapper machinery; pending text-layer output (header,
        # csv.writer rows) must reach the buffer first to keep the byte order.
        if self._text_pending:
            self._handle.flush()
            self._text_pending = False
        self._handle.buffer.write(data)

    def close(self) -> None:
        """Flush, close and atomically publish the file over ``path`` (idempotent)."""
        if not self._handle.closed:
            self._handle.close()
            if self._digest is not None:
                with self._temporary.open("rb") as written:
                    written.seek(self._prefix_bytes)
                    for block in iter(lambda: written.read(_COPY_BLOCK_BYTES), b""):
                        self._digest.update(block)
            os.replace(self._temporary, self.path)

    def abort(self) -> None:
        """Close and discard the temporary file without touching ``path`` (idempotent)."""
        if not self._handle.closed:
            self._handle.close()
        self._temporary.unlink(missing_ok=True)

    def __enter__(self) -> MatrixCsvWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


# --------------------------------------------------------------------------- #
# Matrix CSV — materialized wrappers
# --------------------------------------------------------------------------- #
def matrix_to_csv(
    matrix: DataMatrix,
    path: str | Path,
    *,
    float_format: str | None = None,
    codec: str | None = None,
) -> None:
    """Write a :class:`DataMatrix` to CSV (ids first when present).

    The default ``float_format=None`` emits the shortest representation that
    round-trips, so :func:`matrix_from_csv` restores every value bitwise;
    pass e.g. ``"%.6f"`` for deliberately truncated human-oriented output.
    """
    with MatrixCsvWriter(
        path,
        matrix.columns,
        include_ids=matrix.ids is not None,
        float_format=float_format,
        codec=codec,
    ) as writer:
        writer.write_rows(matrix.values, ids=matrix.ids)


def matrix_from_csv(
    path: str | Path, *, id_column: str | None = "id", codec: str | None = None
) -> DataMatrix:
    """Read a :class:`DataMatrix` written by :func:`matrix_to_csv`."""
    chunks = list(iter_matrix_csv(path, id_column=id_column, codec=codec))
    values = (
        chunks[0].values
        if len(chunks) == 1
        else np.concatenate([chunk.values for chunk in chunks], axis=0)
    )
    ids: list | None = None
    if chunks[0].ids is not None:
        ids = [object_id for chunk in chunks for object_id in chunk.ids]  # type: ignore[union-attr]
    return DataMatrix(values, columns=chunks[0].columns, ids=ids)
