"""Vectorized CSV codec and decoded-chunk spill for the streamed matrix paths.

PRs 1–8 vectorized every compute hot path, which left the streamed release
dominated by :mod:`repro.data.io`'s scalar loops: ``csv.reader`` plus a
per-cell ``float(...)`` on decode and a per-cell ``repr(...)`` row loop on
encode.  This module supplies the fast path behind the ``codec="fast"``
seam of :func:`repro.data.io.iter_matrix_csv` and
:class:`repro.data.io.MatrixCsvWriter`:

* **Block decode** — the file is read as raw byte blocks cut at line
  boundaries, lines are split in bulk, and whole blocks are converted with
  numpy's correctly-rounded string→float64 tokenizer (:func:`numpy.loadtxt`
  over the payload lines).  Any block the fast lane cannot prove it parses
  identically — quoted fields, bare-CR line endings, ragged rows, tokens the
  numpy tokenizer rejects (``float`` accepts ``"1_5"``, numpy does not) —
  is re-parsed through the seed ``csv.reader`` + ``float`` lane, so error
  semantics and every parsed bit match the python codec exactly.
* **Block encode** — batch shortest-round-trip formatting via ``%r`` row
  templates over column lists, byte-identical to the ``csv.writer`` +
  ``repr`` seed writer (``\\r\\n`` terminators included).  Blocks whose ids
  need CSV quoting (or are not strings) fall back to ``csv.writer``.
  ``repr(float)`` is the per-cell floor on one core, so :func:`encode_block`
  cuts a large block into contiguous row slices and encodes them on every
  core: forked children each encode one slice (choosing its lane per
  slice) and send the bytes back over a pipe, and the parent writes the
  slices in row order, so the output is byte-identical by construction.
  It stays serial on one CPU, off Linux, when any other thread is alive
  (such as a live process pool), and for blocks under
  ``2 * _MIN_ROWS_PER_WORKER`` rows; a failed child's slice is re-encoded
  in the parent, and no child outlives the call.
* **Decoded-chunk spill cache** — :class:`DecodedChunkCache` spills the
  decoded float blocks (and ids) of the first pass to a binary scratch file
  and replays later passes from it instead of re-parsing CSV text.  Every
  multi-pass command — the streamed release and bundle creation, the
  streamed audit, each federated party — reaches it through
  :class:`repro.data.io.MatrixPasses`.  Replay returns the identical
  doubles, so every downstream statistic and released byte is unchanged.

The python codec remains the cross-check oracle: for every input, the fast
lane either produces bitwise-identical chunks (and byte-identical encoded
files) or routes through the oracle's own code path.
"""

from __future__ import annotations

import csv
import gc
import io
import os
import pickle
import re
import shutil
import signal
import sys
import tempfile
import threading
import warnings
import weakref
from collections.abc import Iterable, Iterator, Sequence
from io import StringIO
from pathlib import Path

import numpy as np

from ..exceptions import SerializationError, ValidationError

__all__ = [
    "DEFAULT_CODEC",
    "DecodedChunkCache",
    "decode_matrix_csv",
    "encode_block",
    "encode_matrix_block",
    "resolve_codec",
]

#: Codec used when none is requested explicitly.
DEFAULT_CODEC = "fast"

#: Recognized codec names: ``"fast"`` (this module) and ``"python"`` (the
#: seed ``csv.reader``/``csv.writer`` lane in :mod:`repro.data.io`).
_CODECS = ("fast", "python")

#: Byte-block ceiling for the fast reader.  Purely a throughput knob: blocks
#: are re-cut at line boundaries and regrouped into ``chunk_rows`` chunks,
#: so the value never affects parsed results.
_BLOCK_BYTES = 1 << 22

#: Byte-block floor — below this the per-block Python overhead dominates.
_MIN_BLOCK_BYTES = 1 << 15

#: Row floor per encode worker.  Below about this many rows the fork and
#: the pipe round trip cost more than the formatting they take off the
#: parent, so :func:`encode_block` forks only for blocks of at least twice
#: this many rows (never for small append deltas or warm-up blocks).
_MIN_ROWS_PER_WORKER = 4096


def _block_bytes(chunk_rows: int) -> int:
    """Read-block size scaled to the consumer's chunk size.

    The streamed pipelines derive ``chunk_rows`` from a memory budget, so the
    reader's transient buffers (raw block, decoded text, line list) must stay
    proportional to one chunk rather than a fixed multi-MiB block — a small
    budget keeps its promise (even with two decoders zipped, as in the
    audit's released-vs-original scan), a large one still gets large blocks.
    """
    return min(_BLOCK_BYTES, max(_MIN_BLOCK_BYTES, chunk_rows * 32))


#: Characters that force ``csv.writer`` to quote a field (QUOTE_MINIMAL with
#: the default dialect: delimiter, quotechar, or any lineterminator char).
_NEEDS_QUOTING = re.compile(r'[",\r\n]')


def resolve_codec(spec: str | None = None) -> str:
    """Normalize a codec spec: ``None`` means :data:`DEFAULT_CODEC`."""
    if spec is None:
        return DEFAULT_CODEC
    name = str(spec).strip().lower()
    if name not in _CODECS:
        raise ValidationError(
            f"unknown CSV codec {spec!r}; expected one of {', '.join(_CODECS)}"
        )
    return name


# --------------------------------------------------------------------------- #
# Fast block decode
# --------------------------------------------------------------------------- #
class _ChunkAssembler:
    """Regroup parsed row blocks into exactly ``chunk_rows``-sized chunks.

    Fast-parsed arrays and python-fallback rows interleave freely; emitted
    chunks never share mutable storage with each other (consumers are
    allowed to transform chunk values in place).
    """

    def __init__(self, chunk_rows: int, n_columns: int, has_ids: bool) -> None:
        self._chunk_rows = chunk_rows
        self._n_columns = n_columns
        self._has_ids = has_ids
        self._parts: list[np.ndarray] = []
        self._ids: list = []
        self._python_rows: list[list[float]] = []
        self._buffered = 0
        self.start_row = 0

    def add_array(self, values: np.ndarray, ids: list | None) -> None:
        self._flush_python_rows()
        self._parts.append(values)
        if self._has_ids:
            self._ids.extend(ids)  # type: ignore[arg-type]
        self._buffered += values.shape[0]

    def add_python_row(self, row_id, payload: list[float]) -> None:
        self._python_rows.append(payload)
        if self._has_ids:
            self._ids.append(row_id)
        self._buffered += 1

    def _flush_python_rows(self) -> None:
        if self._python_rows:
            block = np.asarray(self._python_rows, dtype=float).reshape(
                len(self._python_rows), self._n_columns
            )
            self._parts.append(block)
            self._python_rows = []

    def _take(self, n_rows: int) -> tuple[np.ndarray, tuple | None]:
        self._flush_python_rows()
        taken: list[np.ndarray] = []
        got = 0
        while got < n_rows:
            part = self._parts[0]
            need = n_rows - got
            if part.shape[0] <= need:
                taken.append(part)
                self._parts.pop(0)
                got += part.shape[0]
            else:
                # Copy the emitted head so the chunk owns its rows; the
                # retained tail view shares storage with nothing emitted.
                taken.append(part[:need].copy())
                self._parts[0] = part[need:]
                got = n_rows
        values = taken[0] if len(taken) == 1 else np.concatenate(taken, axis=0)
        ids: tuple | None = None
        if self._has_ids:
            ids = tuple(self._ids[:n_rows])
            del self._ids[:n_rows]
        self._buffered -= n_rows
        return values, ids

    def ready(self) -> bool:
        return self._buffered >= self._chunk_rows

    def emit_ready(self, columns: tuple[str, ...]) -> Iterator:
        from ..data.io import MatrixCsvChunk

        while self._buffered >= self._chunk_rows:
            values, ids = self._take(self._chunk_rows)
            chunk = MatrixCsvChunk(
                values=values, ids=ids, columns=columns, start_row=self.start_row
            )
            self.start_row += values.shape[0]
            yield chunk

    def emit_final(self, columns: tuple[str, ...]) -> Iterator:
        from ..data.io import MatrixCsvChunk

        if self._buffered:
            values, ids = self._take(self._buffered)
            chunk = MatrixCsvChunk(
                values=values, ids=ids, columns=columns, start_row=self.start_row
            )
            self.start_row += values.shape[0]
            yield chunk


class _HeaderState:
    """Header metadata shared by the fast lane and its python fallbacks."""

    def __init__(self, path: Path, id_column: str | None) -> None:
        self.path = path
        self.id_column = id_column
        self.header: list[str] | None = None
        self.has_ids = False
        self.columns: tuple[str, ...] = ()

    def accept(self, header: list[str]) -> None:
        from ..data.io import _check_unique_header

        _check_unique_header(header, self.path)
        self.header = header
        self.has_ids = (
            self.id_column is not None and bool(header) and header[0] == self.id_column
        )
        self.columns = tuple(header[1:] if self.has_ids else header)


def _parse_python_row(row: list[str], state: _HeaderState) -> tuple[object, list[float]]:
    """Validate and type one ``csv.reader`` row exactly like the python codec."""
    if len(row) != len(state.header):  # type: ignore[arg-type]
        raise SerializationError(
            f"CSV row has {len(row)} field(s) but the header declares {len(state.header)}"
        )
    if state.has_ids:
        row_id, payload = row[0], row[1:]
    else:
        row_id, payload = None, row
    try:
        return row_id, [float(value) for value in payload]
    except ValueError as exc:
        raise SerializationError(
            f"non-numeric value in matrix CSV {state.path}: {exc}"
        ) from exc


def _parse_block_lines(
    lines: list[str], state: _HeaderState, assembler: _ChunkAssembler
) -> Iterator:
    """Parse one quote-free block of lines, falling back per block on doubt.

    The fast lane is trusted only when the numpy tokenizer accepts every
    payload line *and* the resulting shape matches the line and header
    counts exactly; anything else — ragged rows, non-numeric cells, tokens
    ``float()`` accepts but numpy rejects — reruns the block through the
    ``csv.reader`` lane, reproducing the oracle's values and errors.  The
    fallback yields chunks as rows accumulate so a row-level error still
    surfaces after every complete preceding chunk, exactly like the oracle.
    """
    if state.has_ids:
        parts = [line.partition(",") for line in lines]
        ids: list | None = [part[0] for part in parts]
        payload = [part[2] for part in parts]
    else:
        ids = None
        payload = lines
    values: np.ndarray | None = None
    try:
        values = np.loadtxt(
            payload, delimiter=",", dtype=np.float64, comments=None, ndmin=2
        )
    except Exception:  # repro-lint: disable=RPR010 -- any tokenizer doubt reruns the block through the oracle lane below
        values = None
    if values is not None and values.shape == (len(lines), len(state.columns)):
        assembler.add_array(values, ids)
        yield from assembler.emit_ready(state.columns)
        return
    for row in csv.reader(lines):
        if not row:
            continue
        row_id, floats = _parse_python_row(row, state)
        assembler.add_python_row(row_id, floats)
        if assembler.ready():
            yield from assembler.emit_ready(state.columns)


def _python_tail(handle, offset: int) -> Iterator[list[str]]:
    """Yield ``csv.reader`` rows for the stream's remainder from ``offset``.

    Entered when the fast lane sees bytes it cannot tokenize safely (quoted
    fields may span line boundaries, bare-CR terminators re-cut lines);
    from here on the seed parser owns the stream.
    """
    handle.seek(offset)
    encoding = "utf-8-sig" if offset == 0 else "utf-8"
    text_handle = io.TextIOWrapper(handle, encoding=encoding, newline="")
    return csv.reader(text_handle)


def decode_matrix_csv(
    path: str | Path,
    *,
    chunk_rows: int,
    id_column: str | None = "id",
    allow_empty: bool = False,
) -> Iterator:
    """Fast-codec implementation of :func:`repro.data.io.iter_matrix_csv`.

    Yields the same :class:`~repro.data.io.MatrixCsvChunk` blocks — bitwise
    identical values, identical ids/columns/start_row, identical
    :class:`~repro.exceptions.SerializationError` semantics — for any
    ``chunk_rows`` ≥ 1.
    """
    path = Path(path)
    state = _HeaderState(path, id_column)
    assembler: _ChunkAssembler | None = None
    n_yielded = 0
    with path.open("rb") as handle:
        pending = b""
        consumed = 0
        first_text = True
        python_rows: Iterator[list[str]] | None = None
        block_bytes = _block_bytes(chunk_rows)
        while python_rows is None:
            raw_read = handle.read(block_bytes)
            at_eof = not raw_read
            pending += raw_read
            if at_eof:
                raw, pending = pending, b""
            else:
                cut = pending.rfind(b"\n")
                if cut < 0:
                    continue
                raw, pending = pending[: cut + 1], pending[cut + 1 :]
            if raw:
                if b'"' in raw:
                    python_rows = _python_tail(handle, consumed)
                    break
                text = raw.decode("utf-8")
                if first_text:
                    text = text.removeprefix("\ufeff")
                    first_text = False
                newline = "\n"
                if "\r" in text:
                    crlf = text.count("\r\n")
                    if text.count("\r") != crlf:
                        # A bare CR is a row terminator for csv.reader but
                        # not for the byte-block line cutter — hand over.
                        python_rows = _python_tail(handle, consumed)
                        break
                    if text.count("\n") == crlf:
                        # Uniform CRLF terminators: split on them directly
                        # instead of building a normalized copy first.
                        newline = "\r\n"
                    else:
                        text = text.replace("\r\n", "\n")
                consumed += len(raw)
                lines = text.split(newline)
                if raw.endswith(b"\n"):
                    lines.pop()
                if "" in lines:
                    lines = [line for line in lines if line]
                if state.header is None and lines:
                    state.accept(lines[0].split(","))
                    lines = lines[1:]
                    assembler = _ChunkAssembler(
                        chunk_rows, len(state.columns), state.has_ids
                    )
                if lines:
                    for chunk in _parse_block_lines(lines, state, assembler):
                        n_yielded += chunk.n_rows
                        yield chunk
            if at_eof:
                break
        if python_rows is not None:
            # Tail lane: the block sizing above only affects performance;
            # from here csv.reader sees the identical remaining character
            # stream the python codec would.
            for row in python_rows:
                if not row:
                    continue
                if state.header is None:
                    state.accept(row)
                    assembler = _ChunkAssembler(
                        chunk_rows, len(state.columns), state.has_ids
                    )
                    continue
                row_id, floats = _parse_python_row(row, state)
                assembler.add_python_row(row_id, floats)
                if assembler.ready():
                    for chunk in assembler.emit_ready(state.columns):
                        n_yielded += chunk.n_rows
                        yield chunk
        if assembler is not None:
            for chunk in assembler.emit_final(state.columns):
                n_yielded += chunk.n_rows
                yield chunk
    if state.header is None or (n_yielded == 0 and not allow_empty):
        raise SerializationError(f"CSV file {path} does not contain a header and data rows")


# --------------------------------------------------------------------------- #
# Fast block encode
# --------------------------------------------------------------------------- #
def encode_matrix_block(values: np.ndarray, ids: Sequence | None) -> str | None:
    """Encode one row block as CSV text, byte-identical to the seed writer.

    Returns ``None`` when the block is outside the fast lane's proven-equal
    domain — ids that are not plain strings or that ``csv.writer`` would
    quote, or a zero-width block — in which case the caller must use the
    ``csv.writer`` lane.  ``%r`` formats each cell with ``repr(float)``,
    the exact shortest-round-trip formatter of
    :func:`repro.data.io.format_value`, and rows end with the ``csv``
    default ``\\r\\n`` terminator.
    """
    n_columns = values.shape[1]
    if n_columns == 0:
        return None
    if values.shape[0] == 0:
        return ""
    if ids is not None:
        for row_id in ids:
            if type(row_id) is not str:
                return None
        if _NEEDS_QUOTING.search("\x00".join(ids)) is not None:
            return None
    columns = values.T.tolist()
    template = ",".join(["%r"] * n_columns)
    if ids is not None:
        template = "%s," + template
        rows = map(template.__mod__, zip(ids, *columns))
    else:
        rows = map(template.__mod__, zip(*columns))
    return "\r\n".join(rows) + "\r\n"


def encode_block_via_csv_writer(values: np.ndarray, ids: Sequence | None) -> str:
    """Oracle-lane block encode: ``csv.writer`` into a string buffer.

    Produces exactly the bytes the seed per-row writer emits — used for
    blocks :func:`encode_matrix_block` declines.
    """
    from ..data.io import format_value

    buffer = StringIO()
    writer = csv.writer(buffer)
    for row_index in range(values.shape[0]):
        row: list = []
        if ids is not None:
            row.append(ids[row_index])
        row.extend(format_value(value, None) for value in values[row_index])
        writer.writerow(row)
    return buffer.getvalue()


def _encode_slice(values: np.ndarray, ids: Sequence | None) -> bytes:
    """Encode rows in the fast lane, or the ``csv.writer`` lane if it declines."""
    text = encode_matrix_block(values, ids)
    if text is None:
        text = encode_block_via_csv_writer(values, ids)
    return text.encode("utf-8")


def _encode_workers(n_rows: int) -> int:
    """How many processes should encode an ``n_rows`` block (1 = serial)."""
    if not hasattr(os, "fork") or sys.platform != "linux":
        return 1
    if threading.active_count() > 1:
        # Forking a threaded process copies locks held by the other threads.
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_rows // _MIN_ROWS_PER_WORKER))


def _read_frame(fd: int) -> bytes | None:
    """Read one length-framed payload from a pipe; ``None`` if it is short."""
    with open(fd, "rb", closefd=False) as pipe:
        header = pipe.read(8)
        if len(header) != 8:
            return None
        size = int.from_bytes(header, "little")
        payload = pipe.read(size)
    return payload if len(payload) == size else None


def _rows(values: np.ndarray, ids: Sequence | None, start: int, stop: int) -> tuple:
    return values[start:stop], None if ids is None else ids[start:stop]


def _encode_child(rows: tuple, write_fd: int, read_fds: list[int]) -> None:
    """Forked child: encode one slice, frame it into ``write_fd`` and exit.

    The child first closes every inherited read end, so if the parent dies
    the child gets EPIPE instead of blocking on a full pipe forever.
    """
    status = 1
    try:
        gc.disable()  # the parent's garbage (and its finalizers) stays the parent's
        for fd in read_fds:
            os.close(fd)
        payload = _encode_slice(*rows)
        with open(write_fd, "wb", closefd=False) as pipe:
            pipe.write(len(payload).to_bytes(8, "little"))
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def encode_block(values: np.ndarray, ids: Sequence | None, write) -> None:
    """Encode a row block and pass its bytes to ``write`` in row order.

    The bytes equal the ``csv.writer`` seed lane's.  A block of at least
    ``2 * _MIN_ROWS_PER_WORKER`` rows is cut into ``W`` contiguous slices,
    ``W`` = min(CPUs available, rows // ``_MIN_ROWS_PER_WORKER``); ``W - 1``
    forked children encode slices 1.. while the parent encodes slice 0,
    then the parent reads, reaps and writes every slice in order.  A child
    that exits non-zero or sends a short frame has its slice re-encoded
    here; if anything raises, every child is killed and reaped first.
    """
    n_rows = values.shape[0]
    n_workers = _encode_workers(n_rows)
    if n_workers < 2:
        write(_encode_slice(values, ids))
        return
    bounds = [n_rows * k // n_workers for k in range(n_workers + 1)]
    children: list[tuple[int, int, int, int]] = []  # (pid, read fd, start, stop)
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # CPython 3.12+ warns whenever the OS reports a second
                    # thread, native BLAS workers included.  No Python thread
                    # is alive (checked in _encode_workers) and the child
                    # runs no BLAS code, so that warning does not apply here.
                    warnings.filterwarnings(
                        "ignore", r"This process .*is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
                if pid == 0:
                    _encode_child(
                        _rows(values, ids, start, stop),
                        write_fd,
                        [read_fd] + [child[1] for child in children],
                    )
                children.append((pid, read_fd, start, stop))
            except OSError:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
        write(_encode_slice(*_rows(values, ids, 0, bounds[1])))
        while children:
            pid, read_fd, start, stop = children[0]
            payload = _read_frame(read_fd)
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read_fd)
            if payload is None or os.waitstatus_to_exitcode(status) != 0:
                payload = _encode_slice(*_rows(values, ids, start, stop))
            write(payload)
    finally:
        for pid, read_fd, _start, _stop in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(read_fd)


# --------------------------------------------------------------------------- #
# Decoded-chunk spill cache
# --------------------------------------------------------------------------- #
class DecodedChunkCache:
    """Spill decoded ``(values, ids)`` blocks so later passes skip the parse.

    :class:`repro.data.io.MatrixPasses` tees the first full pass of every
    multi-pass command into this binary scratch file (raw float64 bytes plus
    pickled ids) and replays the later passes from it, in either codec lane.
    Replay restores the identical doubles and id strings, so statistics,
    reports and released bytes are unchanged.  The scratch directory is
    process-local and removed by :meth:`close` (or when the cache is garbage
    collected); an interrupted tee leaves the cache incomplete.
    """

    def __init__(self) -> None:
        self._directory = tempfile.mkdtemp(prefix="repro-csv-spill-")
        self._remove = weakref.finalize(
            self, shutil.rmtree, self._directory, ignore_errors=True
        )
        self._values_path = os.path.join(self._directory, "values.f64")
        self._ids_path = os.path.join(self._directory, "ids.pkl")
        self._chunks: list[tuple[int, int]] = []
        self._complete = False
        self._closed = False

    @property
    def complete(self) -> bool:
        """Whether a full first pass has been spilled and replay is valid."""
        return self._complete

    def tee(self, iterator: Iterable) -> Iterator:
        """Pass chunks through, spilling each one; marks complete at the end."""
        if self._closed:
            raise ValidationError("DecodedChunkCache is already closed")
        self._chunks = []
        self._complete = False
        with open(self._values_path, "wb") as values_handle, open(
            self._ids_path, "wb"
        ) as ids_handle:
            for values, ids in iterator:
                block = np.ascontiguousarray(values, dtype=np.float64)
                values_handle.write(block.tobytes())
                pickle.dump(ids, ids_handle, protocol=pickle.HIGHEST_PROTOCOL)
                self._chunks.append((block.shape[0], block.shape[1]))
                yield values, ids
        self._complete = True

    def replay(self) -> Iterator:
        """Yield the spilled ``(values, ids)`` blocks, bitwise identical.

        A spill file cut short underneath the cache (a full disk, an outside
        truncate) raises :class:`~repro.exceptions.SerializationError` naming
        the file and the chunk instead of returning a partial block.
        """
        if not self._complete:
            raise ValidationError("DecodedChunkCache has no complete spilled pass")
        with open(self._values_path, "rb") as values_handle, open(
            self._ids_path, "rb"
        ) as ids_handle:
            for index, (n_rows, n_columns) in enumerate(self._chunks):
                expected = n_rows * n_columns
                values = np.fromfile(values_handle, dtype=np.float64, count=expected)
                if values.size != expected:
                    raise SerializationError(
                        f"decoded-chunk spill file {self._values_path} is truncated at "
                        f"chunk {index}: expected {expected} value(s), read {values.size}"
                    )
                try:
                    ids = pickle.load(ids_handle)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise SerializationError(
                        f"decoded-chunk spill file {self._ids_path} is truncated at "
                        f"chunk {index}: {exc}"
                    ) from exc
                yield values.reshape(n_rows, n_columns), ids

    def close(self) -> None:
        """Remove the scratch directory (idempotent)."""
        self._closed = True
        self._complete = False
        self._remove()

    def __enter__(self) -> DecodedChunkCache:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
