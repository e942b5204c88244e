"""Streaming out-of-core release pipeline (the owner workflow at scale).

The in-memory owner workflow — ``matrix_from_csv`` → normalize →
``RBT.transform`` → ``matrix_to_csv`` — materializes the whole database
three times over.  This module re-expresses the same workflow as a small
number of constant-memory passes over a CSV on disk:

1. **Stats pass** — identifier suppression plus a single streaming pass fits
   the normalizer (chunk-invariant moments via :mod:`repro.perf.streaming`).
2. **Moment pass(es)** — pair selection and the security-range solve need
   only the three moments ``(σ_i², σ_j², σ_ij)`` of each pair *as the
   rotation reaches it*.  One pass accumulates them for every pair whose
   columns no earlier still-undecided pair touches; angles are then drawn in
   pair order.  A pair that reuses an already-rotated column (the paper's
   odd-``n`` rule) triggers one extra pass per chain link, with the
   already-decided rotations applied on the fly.
3. **Transform pass** — each chunk is normalized, rotated and appended to
   the released CSV; the privacy evidence (per-attribute ``Var(X − X')``,
   per-rotation achieved variances) accumulates on the way through.

Byte-identity contract
----------------------
Every kernel on the path is invariant to row chunking: the tiled,
fsum-combined moments, the elementwise normalization and rotation, and the
shortest-repr CSV formatter.  The released file is therefore **byte
identical** to the in-memory path's output for any ``chunk_rows`` ≥ 1 —
``python -m repro transform --chunk-rows 1`` and a plain ``transform`` write
the same bits (tests assert this down to single-row chunks).

Peak memory is ``O(chunk_rows × n_attributes)`` regardless of the number of
rows; ``chunk_rows`` can be given directly or derived from a
``memory_budget_bytes`` knob via :func:`repro.perf.kernels.resolve_block_size`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .._validation import check_integer_in_range, ensure_rng
from ..core import RBT, RBTSecret
from ..core.pair_selection import PairSelectionStrategy
from ..core.rbt import RotationRecord
from ..core.rotation import rotate_block
from ..core.thresholds import PairwiseSecurityThreshold
from ..data.io import (
    DEFAULT_CHUNK_ROWS,
    MatrixCsvWriter,
    MatrixPasses,
    iter_matrix_csv,
    read_matrix_csv_header,
)
from ..exceptions import ValidationError
from ..metrics.privacy import AttributePrivacy, PrivacyReport
from ..perf.backends import get_backend
from ..perf.kernels import resolve_block_size
from ..perf.streaming import StreamingMoments, correlation_from_moments
from ..preprocessing import IdentifierSuppressor, Normalizer, ZScoreNormalizer

__all__ = [
    "StreamingReleasePipeline",
    "StreamingReleaseReport",
    "stream_invert",
    "resolve_chunk_rows",
    "plan_rotations",
    "apply_decided_rotations",
    "transform_pass",
    "build_rotation_records",
    "privacy_report_from_moments",
]

#: Rough Python-level footprint of one parsed CSV cell (str object + float +
#: list slot), used to turn a memory budget into a chunk-row count.
_BYTES_PER_CSV_VALUE: int = 240


def resolve_chunk_rows(
    n_columns: int,
    *,
    chunk_rows: int | None = None,
    memory_budget_bytes: int | None = None,
) -> int:
    """Rows per streamed block: explicit, derived from a budget, or the default.

    The budget conversion reuses :func:`repro.perf.kernels.resolve_block_size`
    with a per-row cost model of the CSV parse (the dominant allocation),
    so the same ``memory_budget_bytes`` vocabulary as the distance kernels
    applies to the release pipeline.
    """
    if chunk_rows is not None:
        return check_integer_in_range(chunk_rows, name="chunk_rows", minimum=1)
    if memory_budget_bytes is None:
        return DEFAULT_CHUNK_ROWS
    bytes_per_row = (int(n_columns) + 1) * _BYTES_PER_CSV_VALUE
    return resolve_block_size(
        2**40, bytes_per_row=bytes_per_row, memory_budget_bytes=memory_budget_bytes
    )


@dataclass(frozen=True)
class StreamingReleaseReport:
    """Everything the data owner gets back from one streamed release.

    The streamed sibling of :class:`~repro.pipeline.ReleaseBundle`: the
    matrices themselves stay on disk, so the report carries the rotation
    bookkeeping and the accumulated privacy evidence instead.  (The
    quadratic Theorem 2 distance check is not part of the streamed report;
    run ``python -m repro evaluate`` on a sample for that evidence.)
    """

    #: Number of objects released.
    n_objects: int
    #: Attribute names of the released matrix.
    columns: tuple[str, ...]
    #: Per-rotation bookkeeping (pairs, security ranges, angles) — the secret.
    records: tuple[RotationRecord, ...]
    #: Per-attribute privacy measurements (streamed ``Var(X − X')``).
    privacy: PrivacyReport
    #: Rows per streamed block actually used.
    chunk_rows: int
    #: Total passes over the input file (stats + moments + transform).
    n_passes: int

    @property
    def n_attributes(self) -> int:
        """Number of released attributes."""
        return len(self.columns)

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The rotated attribute pairs, in application order."""
        return tuple(record.pair for record in self.records)

    @property
    def angles_degrees(self) -> tuple[float, ...]:
        """The rotation angles, in application order."""
        return tuple(record.theta_degrees for record in self.records)

    def secret(self) -> RBTSecret:
        """The owner-side inversion secret for this release."""
        return RBTSecret.from_records(self.records)

    def summary(self) -> dict:
        """A JSON-friendly summary of the release (for logging / examples)."""
        return {
            "n_objects": self.n_objects,
            "n_attributes": self.n_attributes,
            "pairs": [list(pair) for pair in self.pairs],
            "angles_degrees": list(self.angles_degrees),
            "min_variance_difference": self.privacy.minimum_variance_difference,
            "mean_variance_difference": self.privacy.mean_variance_difference,
            "chunk_rows": self.chunk_rows,
            "n_passes": self.n_passes,
        }


def _prefix_independent_positions(pairs: Sequence[tuple[str, str]]) -> list[int]:
    """Positions whose pair shares no column with any *earlier* pair.

    The moments of those pairs, measured on the current data state, equal
    the moments the sequential in-memory rotation would see — so they can
    all be accumulated in one pass.
    """
    touched: set[str] = set()
    independent: list[int] = []
    for position, pair in enumerate(pairs):
        if not (set(pair) & touched):
            independent.append(position)
        touched.update(pair)
    return independent


#: One decided rotation: (pair, threshold, security range, theta degrees).
DecidedRotation = tuple[tuple[str, str], PairwiseSecurityThreshold, object, float]


def plan_rotations(
    rbt: RBT, columns: Sequence[str], moment_source
) -> tuple[list[DecidedRotation], int]:
    """Choose pairs and angles from streamed moment summaries.

    ``moment_source`` abstracts *where* the moments come from — a single
    CSV streamed chunk-by-chunk (:class:`StreamingReleasePipeline`) or
    per-party shard accumulators merged by secure sum
    (:class:`repro.distributed.DistributedReleasePipeline`).  It must
    provide:

    ``correlation_moments() -> StreamingMoments``
        A width-``n`` ``cross=True`` accumulator over the *normalized*
        data (one pass), used by the max-variance pairing and to prefill
        first-round pair moments for free.

    ``pair_moments(decided, positions, *, ddof) -> dict``
        The ``(σ_i², σ_j², σ_ij)`` of each requested pair measured on the
        normalized data with the already-``decided`` rotations applied on
        the fly (one pass).  ``positions`` maps plan position → pair names.

    Because the accumulated moments are exact (grouping-invariant), every
    source yields bitwise-identical plans — this is what pins the
    distributed release to the single-party bytes.

    Returns the decided rotations (in application order) and the number of
    moment passes taken.  Mirrors :meth:`RBT.transform` exactly: pair
    selection first (consuming the RNG for the random strategy), then one
    security-range solve and angle draw per pair, in pair order.
    """
    passes = 0
    moments_cache: dict[int, tuple[float, float, float]] = {}

    needs_correlation = (
        rbt.pairs is None and rbt.strategy is PairSelectionStrategy.MAX_VARIANCE
    )
    if needs_correlation:
        # One pass accumulates every pairwise moment of the normalized
        # data: it yields both the correlation matrix for the greedy
        # pairing and the first-round per-pair moments for free.
        accumulator = moment_source.correlation_moments()
        passes += 1
        correlation = correlation_from_moments(accumulator, ddof=1)
        pairs = rbt.resolve_pairs_for_columns(columns, correlation=correlation)
        prefill = _prefix_independent_positions(pairs)
        index_of = {name: position for position, name in enumerate(columns)}
        for position in prefill:
            i = index_of[pairs[position][0]]
            j = index_of[pairs[position][1]]
            moments_cache[position] = accumulator.pair_moments(i, j, ddof=rbt.ddof)
    else:
        pairs = rbt.resolve_pairs_for_columns(columns)

    thresholds = PairwiseSecurityThreshold.broadcast(rbt.thresholds, len(pairs))
    if rbt.angles is not None and len(rbt.angles) != len(pairs):
        raise ValidationError(
            f"expected {len(pairs)} fixed angle(s) (one per pair), got {len(rbt.angles)}"
        )
    rng = ensure_rng(rbt.random_state)

    decided: list[DecidedRotation] = []
    pending = list(range(len(pairs)))
    while pending:
        need = _prefix_independent_positions([pairs[p] for p in pending])
        to_accumulate = [
            pending[offset] for offset in need if pending[offset] not in moments_cache
        ]
        if to_accumulate:
            fresh = moment_source.pair_moments(
                decided,
                {position: pairs[position] for position in to_accumulate},
                ddof=rbt.ddof,
            )
            passes += 1
            moments_cache.update(fresh)

        progressed = False
        while pending and pending[0] in moments_cache:
            position = pending.pop(0)
            pair = pairs[position]
            moments = moments_cache.pop(position)
            security_range = rbt.solve_range_from_moments(moments, thresholds[position])
            theta = rbt.choose_theta(position, pair, security_range, rng)
            decided.append((pair, thresholds[position], security_range, theta))
            progressed = True
            # Cached moments describing a column this rotation just
            # distorted are stale now; drop them so the next round
            # re-accumulates on the rotated state.
            touched = set(pair)
            for other in list(moments_cache):
                if set(pairs[other]) & touched:
                    del moments_cache[other]
        if not progressed:  # pragma: no cover - the head of pending is always computable
            raise ValidationError("streaming rotation planner failed to make progress")
    return decided, passes


def apply_decided_rotations(
    current: np.ndarray,
    decided: Sequence[DecidedRotation],
    column_index: dict[str, int],
    achieved_moments: Sequence[StreamingMoments] | None = None,
) -> np.ndarray:
    """Apply the planned rotations to one normalized chunk, in plan order.

    Mutates and returns ``current``.  When ``achieved_moments`` is given
    (one width-2 accumulator per rotation), the per-rotation perturbation
    deltas are accumulated on the way through — the evidence behind each
    :class:`~repro.core.rbt.RotationRecord`'s achieved variances.
    """
    for step_index, (pair, _, _, theta) in enumerate(decided):
        index_i = column_index[pair[0]]
        index_j = column_index[pair[1]]
        column_i = current[:, index_i].copy()
        column_j = current[:, index_j].copy()
        rotated_i, rotated_j = rotate_block(column_i, column_j, theta)
        if achieved_moments is not None:
            achieved_moments[step_index].update(
                np.column_stack((column_i - rotated_i, column_j - rotated_j))
            )
        current[:, index_i] = rotated_i
        current[:, index_j] = rotated_j
    return current


def transform_pass(
    chunks: Iterable[tuple[np.ndarray, Sequence | None]],
    normalizer: Normalizer,
    decided: Sequence[DecidedRotation],
    columns: Sequence[str],
    writer: MatrixCsvWriter,
    *,
    carry_ids: bool,
    backend=None,
    profiler=None,
) -> tuple[int, StreamingMoments, list[StreamingMoments]]:
    """Release ``(values, ids)`` chunks into ``writer``; return rows and evidence.

    Each chunk is normalized and rotated in plan order, and its rows go to
    ``writer``.  Returns ``(n_rows, privacy_moments, achieved_moments)``:
    the width-3n accumulator of ``hstack((normalized, released, normalized −
    released))`` and one width-2 accumulator of deltas per rotation.
    ``profiler`` optionally times the ``read``, ``compute`` and ``write``
    stages of each chunk.
    """
    column_index = {name: position for position, name in enumerate(columns)}
    privacy_moments = StreamingMoments(3 * len(columns), backend=backend)
    achieved_moments = [StreamingMoments(2) for _ in decided]
    n_rows = 0
    for chunk, ids in _profiled(chunks, profiler):
        with profiler.section("compute") if profiler is not None else nullcontext():
            normalized = normalizer.transform(chunk)
            current = apply_decided_rotations(
                normalized.copy(), decided, column_index, achieved_moments
            )
            privacy_moments.update(np.hstack((normalized, current, normalized - current)))
        with profiler.section("write") if profiler is not None else nullcontext():
            writer.write_rows(current, ids=ids if carry_ids else None)
        n_rows += chunk.shape[0]
    return n_rows, privacy_moments, achieved_moments


def build_rotation_records(
    decided: Sequence[DecidedRotation],
    achieved_moments: Sequence[StreamingMoments],
    *,
    ddof: int,
) -> tuple[RotationRecord, ...]:
    """Assemble the owner-side rotation bookkeeping from the streamed evidence."""
    return tuple(
        RotationRecord(
            pair=(pair[0], pair[1]),
            threshold=threshold,
            security_range=security_range,
            theta_degrees=theta,
            achieved_variances=tuple(
                float(v) for v in achieved_moments[index].variances(ddof=ddof)
            ),
        )
        for index, (pair, threshold, security_range, theta) in enumerate(decided)
    )


def privacy_report_from_moments(
    columns: Sequence[str], moments: StreamingMoments, *, ddof: int
) -> PrivacyReport:
    """Assemble the per-attribute report from the width-3n transform-pass stats.

    ``moments`` accumulates ``hstack((normalized, released, normalized −
    released))`` rows; the three variance slabs become the original,
    released and ``Var(X − X')`` columns of the report.
    """
    n = len(columns)
    variances = moments.variances(ddof=ddof)
    measurements = []
    for index, name in enumerate(columns):
        original_variance = float(variances[index])
        released_variance = float(variances[n + index])
        difference_variance = float(variances[2 * n + index])
        measurements.append(
            AttributePrivacy(
                name=name,
                variance_difference=difference_variance,
                scale_invariant=(
                    difference_variance / original_variance
                    if not np.isclose(original_variance, 0.0)
                    else float("nan")
                ),
                original_variance=original_variance,
                released_variance=released_variance,
            )
        )
    return PrivacyReport(tuple(measurements))


class _FileMomentSource:
    """Moment source running the planner's passes over one CSV's pass source."""

    def __init__(
        self,
        pipeline: StreamingReleasePipeline,
        passes: MatrixPasses,
        columns: Sequence[str],
        *,
        profiler=None,
    ) -> None:
        self._pipeline = pipeline
        self._passes = passes
        self._columns = tuple(columns)
        self._profiler = profiler

    def _chunks(self):
        return _profiled(self._passes.chunks(), self._profiler)

    def correlation_moments(self) -> StreamingMoments:
        pipeline = self._pipeline
        accumulator = StreamingMoments(
            len(self._columns), cross=True, backend=pipeline.backend
        )
        for chunk, _ in self._chunks():
            accumulator.update(pipeline.normalizer.transform(chunk))
        return accumulator

    def pair_moments(
        self,
        decided: Sequence[DecidedRotation],
        positions: dict[int, tuple[str, str]],
        *,
        ddof: int,
    ) -> dict[int, tuple[float, float, float]]:
        pipeline = self._pipeline
        column_index = {name: offset for offset, name in enumerate(self._columns)}
        accumulators = {
            position: StreamingMoments(2, cross=True) for position in positions
        }
        for chunk, _ in self._chunks():
            current = pipeline.normalizer.transform(chunk)
            apply_decided_rotations(current, decided, column_index)
            for position, accumulator in accumulators.items():
                index_i = column_index[positions[position][0]]
                index_j = column_index[positions[position][1]]
                accumulator.update(
                    np.column_stack((current[:, index_i], current[:, index_j]))
                )
        return {
            position: accumulator.pair_moments(0, 1, ddof=ddof)
            for position, accumulator in accumulators.items()
        }


class StreamingReleasePipeline:
    """Suppress → normalize → rotate → write, without materializing the data.

    Parameters
    ----------
    rbt:
        A configured :class:`~repro.core.RBT` transformer (thresholds,
        strategy, solver, seed) — the same object the in-memory path uses.
    normalizer:
        Normalizer fitted on the streamed data (defaults to z-score).  Must
        support :meth:`~repro.preprocessing.Normalizer.fit_stream`.
    suppressor:
        Optional :class:`~repro.preprocessing.IdentifierSuppressor`; its
        ``extra_columns`` are dropped from every chunk and
        ``drop_object_ids`` strips the id column from the release.
    chunk_rows:
        Rows per streamed block.  Mutually exclusive with
        ``memory_budget_bytes``; defaults to
        :data:`repro.data.io.DEFAULT_CHUNK_ROWS`.
    memory_budget_bytes:
        Peak-memory knob; converted to ``chunk_rows`` with the CSV cost
        model of :func:`resolve_chunk_rows`.
    ddof:
        Estimator for the privacy report (1 matches the paper's numbers).
    backend:
        Execution backend spec for the wide streamed accumulators — the
        normalizer fit, the correlation pass, and the transform pass's
        privacy moments (see :mod:`repro.perf.backends`).  Serial and
        process-pool releases are byte identical; the tiny width-2
        per-pair accumulators always run serially (fan-out overhead would
        dwarf them).
    refit:
        ``True`` (default) fits the normalizer on the streamed input
        (pass 1).  ``False`` skips that pass and transforms with the
        normalizer *as given*, which must already be fitted — this is how a
        versioned release bundle replays its frozen release policy over a
        grown feed to reproduce the appended release byte for byte.
    codec:
        CSV codec for every streamed pass and the released output —
        ``"fast"`` (default) for the vectorized lane in
        :mod:`repro.perf.csv_codec`, ``"python"`` for the seed
        ``csv.reader``/``csv.writer`` oracle.  The released bytes and the
        report are identical either way.  In either lane the first full
        pass spills its decoded chunks to a binary scratch file so later
        passes skip the CSV parse entirely.

    Examples
    --------
    >>> from repro.core import RBT
    >>> pipeline = StreamingReleasePipeline(RBT(random_state=0), chunk_rows=4096)
    >>> # report = pipeline.run("confidential.csv", "released.csv")
    """

    def __init__(
        self,
        rbt: RBT | None = None,
        *,
        normalizer: Normalizer | None = None,
        suppressor: IdentifierSuppressor | None = None,
        chunk_rows: int | None = None,
        memory_budget_bytes: int | None = None,
        ddof: int = 1,
        backend=None,
        refit: bool = True,
        codec: str | None = None,
    ) -> None:
        from ..perf.csv_codec import resolve_codec

        if chunk_rows is not None and memory_budget_bytes is not None:
            raise ValidationError("pass either chunk_rows or memory_budget_bytes, not both")
        self.rbt = rbt if rbt is not None else RBT()
        self.codec = resolve_codec(codec)
        self.normalizer = normalizer if normalizer is not None else ZScoreNormalizer()
        self.suppressor = suppressor
        self.chunk_rows = (
            check_integer_in_range(chunk_rows, name="chunk_rows", minimum=1)
            if chunk_rows is not None
            else None
        )
        self.memory_budget_bytes = memory_budget_bytes
        self.ddof = check_integer_in_range(ddof, name="ddof", minimum=0, maximum=1)
        self.backend = backend
        self.refit = bool(refit)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        input_path: str | Path,
        output_path: str | Path,
        *,
        id_column: str | None = "id",
        float_format: str | None = None,
        profiler=None,
    ) -> StreamingReleaseReport:
        """Stream ``input_path`` through the release workflow into ``output_path``.

        ``profiler`` optionally receives the per-stage read/compute/write
        timings (see :class:`repro.perf.profiling.StageProfiler`); profiling
        never changes the released bytes.
        """
        input_path = Path(input_path)
        all_columns, has_ids = read_matrix_csv_header(input_path, id_column=id_column)
        kept_indices, columns = self._kept_columns(all_columns)
        chunk_rows = resolve_chunk_rows(
            len(columns),
            chunk_rows=self.chunk_rows,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        carry_ids = has_ids and not (
            self.suppressor is not None and self.suppressor.drop_object_ids
        )
        passes = 0
        # The multi-pass workflow parses the CSV once: the first complete
        # pass spills its decoded blocks, later passes replay the same doubles.
        with self._passes(input_path, id_column, chunk_rows, kept_indices) as source:
            # ---- Pass 1: fit the normalizer (chunk-invariant streamed
            # stats).  A frozen-policy replay (refit=False) keeps the
            # normalizer exactly as given, so the per-row transform matches
            # the release that first fitted it, bit for bit.
            if self.refit:
                self.normalizer.fit_stream(
                    (chunk for chunk, _ in _profiled(source.chunks(), profiler)),
                    backend=self.backend,
                )
                passes += 1

            # ---- Pair selection (Step 1) on names and, when needed,
            # streamed correlation; then per-pair security ranges and angles
            # (Step 2b/2c) from streamed moments, in as few extra passes as
            # the pair dependency structure allows.
            moment_source = _FileMomentSource(self, source, columns, profiler=profiler)
            decided, moment_passes = plan_rotations(self.rbt, columns, moment_source)
            passes += moment_passes

            # ---- Final pass: normalize + rotate every chunk and write it out.
            with MatrixCsvWriter(
                output_path,
                columns,
                include_ids=carry_ids,
                float_format=float_format,
                codec=self.codec,
            ) as writer:
                n_objects, privacy_moments, achieved_moments = transform_pass(
                    source.chunks(),
                    self.normalizer,
                    decided,
                    columns,
                    writer,
                    carry_ids=carry_ids,
                    backend=self.backend,
                    profiler=profiler,
                )
            passes += 1

        records = build_rotation_records(decided, achieved_moments, ddof=self.rbt.ddof)
        privacy = privacy_report_from_moments(columns, privacy_moments, ddof=self.ddof)
        return StreamingReleaseReport(
            n_objects=n_objects,
            columns=tuple(columns),
            records=records,
            privacy=privacy,
            chunk_rows=chunk_rows,
            n_passes=passes,
        )

    # ------------------------------------------------------------------ #
    # I/O plumbing
    # ------------------------------------------------------------------ #
    def _kept_columns(
        self, all_columns: Sequence[str]
    ) -> tuple[list[int] | None, tuple[str, ...]]:
        """Indices and names of the columns surviving identifier suppression."""
        if self.suppressor is None or not self.suppressor.extra_columns:
            return None, tuple(all_columns)
        to_drop = set(self.suppressor.extra_columns)
        kept = [(index, name) for index, name in enumerate(all_columns) if name not in to_drop]
        if not kept:
            raise ValidationError("identifier suppression removed every column")
        return [index for index, _ in kept], tuple(name for _, name in kept)

    def _passes(
        self,
        input_path: Path,
        id_column: str | None,
        chunk_rows: int,
        kept_indices: list[int] | None,
    ) -> MatrixPasses:
        """The decode-once pass source over the input, in this pipeline's lane."""
        return MatrixPasses(
            input_path,
            chunk_rows=chunk_rows,
            id_column=id_column,
            codec=self.codec,
            kept_indices=kept_indices,
        )


def _profiled(chunks: Iterator, profiler) -> Iterator:
    """Attribute each chunk read of a pass to the profiler's ``read`` stage."""
    return chunks if profiler is None else profiler.wrap_iter("read", chunks)


def _invert_rows_worker(arrays, start, stop, *, secret, columns):
    """Restore rows ``start:stop`` of one streamed chunk.

    The inverse rotations are elementwise per row, so any row split restores
    the same bits as inverting the whole chunk at once.
    """
    return secret.apply_to_block(
        arrays["values"][start:stop], columns, inverse=True, copy=True, validate=False
    )


def stream_invert(
    input_path: str | Path,
    output_path: str | Path,
    secret: RBTSecret,
    *,
    chunk_rows: int | None = None,
    memory_budget_bytes: int | None = None,
    id_column: str | None = "id",
    float_format: str | None = None,
    backend=None,
) -> int:
    """Undo a release chunk-by-chunk using the owner's secret.

    The streamed dual of ``RBTSecret.invert`` + ``matrix_to_csv``: applies
    the inverse rotations blockwise (bitwise identical to inverting the
    materialized matrix) and returns the number of restored rows.  With a
    parallel ``backend`` each chunk's rows are restored in worker-sized
    blocks — still the same bits, because every rotation touches one row at
    a time.
    """
    input_path = Path(input_path)
    columns, has_ids = read_matrix_csv_header(input_path, id_column=id_column)
    secret.check_columns(columns)
    chunk_rows = resolve_chunk_rows(
        len(columns), chunk_rows=chunk_rows, memory_budget_bytes=memory_budget_bytes
    )
    backend = get_backend(backend)
    n_rows = 0
    with MatrixCsvWriter(
        output_path, columns, include_ids=has_ids, float_format=float_format
    ) as writer:
        for chunk in iter_matrix_csv(input_path, chunk_rows=chunk_rows, id_column=id_column):
            if backend.workers > 1 and chunk.values.shape[0] > 1:
                values = chunk.values
                # Input block + worker copy + shipped result + parent copy.
                block = backend.resolve_block_size(
                    values.shape[0],
                    4 * values.shape[1] * values.itemsize,
                    memory_budget_bytes=memory_budget_bytes,
                )
                restored = np.empty_like(values)
                for start, stop, rows in backend.imap_blocks(
                    _invert_rows_worker,
                    values.shape[0],
                    block,
                    arrays={"values": values},
                    kwargs={"secret": secret, "columns": tuple(columns)},
                ):
                    restored[start:stop] = rows
            else:
                # The chunk's array is freshly parsed and ours to mutate, and
                # the columns were validated once above — skip both per-chunk
                # costs.
                restored = secret.apply_to_block(
                    chunk.values, columns, inverse=True, copy=False, validate=False
                )
            writer.write_rows(restored, ids=chunk.ids)
            n_rows += restored.shape[0]
    return n_rows
