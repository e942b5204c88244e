"""Horizontally-federated RBT releases over mergeable moment sketches.

The paper positions RBT against partitioned-data privacy-preserving
clustering; this module opens that scenario for RBT itself.  ``P`` parties
each hold a horizontal shard (a row subset) of one logical table as a CSV on
disk.  Together they produce a rotation-perturbed release of the *union* of
their rows without any party revealing a single raw row:

1. **Fit round** — every party streams its shard through the normalizer's
   streaming fitter locally; only the fitter *states* (exponent-bucket
   moment sketches for z-score, per-column extrema for min-max/decimal
   scaling) travel, merged by :class:`SecureSketchSum`.
2. **Planning rounds** — the coordinator runs the exact same
   :func:`repro.pipeline.streaming.plan_rotations` engine as the
   single-party pipeline, but its moment source asks each party to
   accumulate width-2 pair sketches over its shard (already-decided
   rotations applied locally on the fly) and secure-merges them.
3. **Transform round** — each party normalizes and rotates its own rows
   with the broadcast plan and appends them to the shared public release
   file in party order.  The released rows are the *output* of the
   computation — public by construction — while the privacy evidence
   (``Var(X − X')`` sketches, per-rotation achieved-variance sketches)
   again crosses the wire only as merged sketch states.

Determinism contract
--------------------
:class:`~repro.perf.streaming.StreamingMoments` accumulates **exact**
sums, so merging per-shard sketches equals one sketch over the concatenated
rows — bit for bit.  Every downstream quantity (normalizer parameters,
correlation pairing, security ranges, the θ draws from the RBT seed) is a
deterministic function of those exact moments, and the per-row transform is
elementwise.  The distributed release is therefore **byte-identical** to
:class:`~repro.pipeline.StreamingReleasePipeline` run on the concatenated
shards — for any party count ≥ 1, any shard split (including empty shards),
any chunk size, and any execution backend.  The test suite and the
``distributed_scaling`` benchmark section assert this contract.

Secure aggregation and its simulation caveats
---------------------------------------------
:class:`SecureSketchSum` runs the classic random-mask ring over sketch
states.  Masks are integer multiples of each exponent bucket's quantum
(:func:`repro.perf.streaming.bucket_quantum_exponents`), so masking and
unmasking are *exact* float operations and cannot perturb the release
bytes.  As in :class:`~repro.distributed.SecureSumProtocol`, the crypto is
simulated in-process; what is faithfully modeled is **who learns what** and
**what crosses the wire** (counted by :class:`CommunicationLedger`).  Two
honest caveats: parties reveal their occupied bucket *support* (a coarse
magnitude histogram) during the union round, and the coordinator learns the
merged moments — the quantities the paper's owner publishes anyway.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .._validation import check_integer_in_range, ensure_rng
from ..core import RBT
from ..data.io import (
    DEFAULT_CHUNK_ROWS,
    MatrixCsvWriter,
    MatrixPasses,
    iter_matrix_csv,
    read_matrix_csv_header,
)
from ..exceptions import ProtocolError, ValidationError
from ..perf.streaming import StreamingMoments, bucket_quantum_exponents
from ..pipeline.streaming import (
    StreamingReleaseReport,
    apply_decided_rotations,
    build_rotation_records,
    plan_rotations,
    privacy_report_from_moments,
    resolve_chunk_rows,
    transform_pass,
)
from ..preprocessing import IdentifierSuppressor, Normalizer, ZScoreNormalizer
from .parties import CommunicationLedger

__all__ = [
    "ShardParty",
    "SecureSketchSum",
    "DistributedReleasePipeline",
    "DistributedReleaseReport",
    "sketch_state_n_values",
    "split_csv_shards",
]

#: Mask magnitude in quantum units: ``U ~ uniform{-2**44 … 2**44}`` per
#: bucket cell.  Far above any compressed sketch value (< 2**38 quanta) yet
#: far enough below the 2**53 exactness bound that hundreds of parties can
#: ring-add without a single rounded bit.
_MASK_UNIT_BITS: int = 44

#: Mask range for the integer side channels (row counts, poison counters).
_INT_MASK_BITS: int = 40


def sketch_state_n_values(state: dict) -> int:
    """Scalars in one sketch-state wire payload (size is O(buckets), not rows)."""
    indices = np.asarray(state["bucket_indices"])
    values = np.asarray(state["bucket_values"])
    poison = (
        np.asarray(state["poison_nan"]).size
        + np.asarray(state["poison_pos"]).size
        + np.asarray(state["poison_neg"]).size
    )
    # + count, deposits, and the three header ints (format, n_columns, cross).
    return int(indices.size + values.size + poison + 5)


class SecureSketchSum:
    """Random-mask ring aggregation of :meth:`StreamingMoments.state` payloads.

    The initiator (the first contributing party) draws one mask per bucket
    cell as an integer multiple of that bucket's quantum, adds it to its own
    dense sketch, and passes the masked partial around the ring; every party
    adds its sketch; the initiator finally subtracts the mask.  No party
    learns another's sketch — only masked partials — and because masks live
    on the bucket grid every addition is exact, so the aggregate equals the
    plain :meth:`StreamingMoments.merge` bit for bit.

    Integer side channels (row counts, poison counters) ride the same ring
    under integer masks.  All traffic is recorded in the ledger; payload
    sizes are O(occupied buckets), never O(rows).
    """

    def __init__(self, *, random_state=None, ledger: CommunicationLedger | None = None) -> None:
        self._rng = ensure_rng(random_state)
        self.ledger = ledger if ledger is not None else CommunicationLedger()

    def aggregate_states(self, contributions: Sequence[tuple[str, dict]], *, label: str) -> dict:
        """Securely sum one sketch state per party; returns the merged state."""
        if not contributions:
            raise ProtocolError("secure sketch sum needs at least one party")
        names = [name for name, _ in contributions]
        states = [state for _, state in contributions]
        first = states[0]
        for state in states[1:]:
            if (
                state["n_columns"] != first["n_columns"]
                or state["cross"] != first["cross"]
            ):
                raise ProtocolError("all parties must contribute sketches of one shape")
        if len(states) == 1:
            # A single party holds the total already; nothing crosses a wire.
            return first
        n_quantities = np.asarray(first["poison_nan"]).shape[0]
        initiator = names[0]
        ledger = self.ledger
        ledger.new_round()

        # Round A/B: occupied-bucket supports to the initiator, union back.
        for name, state in zip(names[1:], states[1:]):
            ledger.record(
                name, initiator, np.asarray(state["bucket_indices"]).size,
                label=f"{label}/support",
            )
        union = np.unique(
            np.concatenate([np.asarray(s["bucket_indices"], dtype=np.int64) for s in states])
        )
        for name in names[1:]:
            ledger.record(initiator, name, union.size, label=f"{label}/support-union")

        def dense(state: dict) -> np.ndarray:
            out = np.zeros((union.size, n_quantities), dtype=float)
            indices = np.asarray(state["bucket_indices"], dtype=np.int64)
            if indices.size:
                out[np.searchsorted(union, indices)] = np.asarray(
                    state["bucket_values"], dtype=float
                )
            return out

        # Masks: integer multiples of each bucket row's quantum — exact to
        # add, exact to subtract, and statistically hiding at ±2**44 quanta.
        unit = 2**_MASK_UNIT_BITS
        mask_units = self._rng.integers(
            -unit, unit, size=(union.size, n_quantities), endpoint=True
        )
        mask = np.ldexp(mask_units.astype(float), bucket_quantum_exponents(union)[:, None])
        int_unit = 2**_INT_MASK_BITS
        poison_masks = self._rng.integers(
            -int_unit, int_unit, size=(3, n_quantities), endpoint=True
        )
        count_mask = int(self._rng.integers(-int_unit, int_unit, endpoint=True))
        deposit_mask = int(self._rng.integers(-int_unit, int_unit, endpoint=True))

        running = dense(states[0]) + mask
        run_nan = np.asarray(states[0]["poison_nan"], dtype=np.int64) + poison_masks[0]
        run_pos = np.asarray(states[0]["poison_pos"], dtype=np.int64) + poison_masks[1]
        run_neg = np.asarray(states[0]["poison_neg"], dtype=np.int64) + poison_masks[2]
        run_count = int(states[0]["count"]) + count_mask
        run_deposits = int(states[0]["deposits"]) + deposit_mask
        hop_values = union.size * n_quantities + 3 * n_quantities + 2
        for previous, name, state in zip(names, names[1:], states[1:]):
            ledger.record(previous, name, hop_values, label=f"{label}/masked-partial")
            running = running + dense(state)
            run_nan = run_nan + np.asarray(state["poison_nan"], dtype=np.int64)
            run_pos = run_pos + np.asarray(state["poison_pos"], dtype=np.int64)
            run_neg = run_neg + np.asarray(state["poison_neg"], dtype=np.int64)
            run_count += int(state["count"])
            run_deposits += int(state["deposits"])
        ledger.record(names[-1], initiator, hop_values, label=f"{label}/masked-total")

        return {
            "format": 1,
            "n_columns": first["n_columns"],
            "cross": first["cross"],
            "count": run_count - count_mask,
            "deposits": run_deposits - deposit_mask,
            "bucket_indices": union,
            "bucket_values": running - mask,
            "poison_nan": run_nan - poison_masks[0],
            "poison_pos": run_pos - poison_masks[1],
            "poison_neg": run_neg - poison_masks[2],
        }


class ShardParty:
    """One site holding a horizontal shard of the logical table as a CSV.

    The party never exposes raw rows: its public API returns accumulator
    *states* (sketches, extrema) and writes its own released rows straight
    into the public output file.  All local streaming work is timed into the
    shared ledger's per-party wall clock.
    """

    def __init__(
        self,
        name: str,
        path: str | Path,
        *,
        id_column: str | None = "id",
        ledger: CommunicationLedger | None = None,
        codec: str | None = None,
    ) -> None:
        self.name = str(name)
        self.path = Path(path)
        self._id_column = id_column
        self.all_columns, self.has_ids = read_matrix_csv_header(self.path, id_column=id_column)
        self.ledger = ledger
        self.codec = codec
        self.configure(None, DEFAULT_CHUNK_ROWS)

    def configure(self, kept_indices: list[int] | None, chunk_rows: int) -> MatrixPasses:
        """Set the column selection and streaming chunk size for this run.

        Returns the run's pass source over the shard: the first protocol
        round parses the shard and the later rounds replay the decoded
        blocks.  Close it (it is a context manager) when the run ends.
        """
        # allow_empty: a shard that received zero rows is a legitimate party.
        self._passes = MatrixPasses(
            self.path,
            chunk_rows=check_integer_in_range(chunk_rows, name="chunk_rows", minimum=1),
            id_column=self._id_column,
            codec=self.codec,
            kept_indices=kept_indices,
            allow_empty=True,
        )
        return self._passes

    @contextmanager
    def _timed(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            if self.ledger is not None:
                self.ledger.add_party_seconds(self.name, time.perf_counter() - started)

    # -- protocol steps (each streams the shard once, locally) ----------- #
    def fit_state(self, normalizer: Normalizer, n_columns: int) -> tuple[dict, int]:
        """Stream the shard through the normalizer's fitter; return its state."""
        with self._timed():
            fitter = normalizer._stream_fitter(n_columns)
            n_rows = 0
            for values, _ in self._passes.chunks():
                if values.shape[0]:
                    fitter.update(values)
                    n_rows += values.shape[0]
            return fitter.state(), n_rows

    def correlation_state(self, normalizer: Normalizer, n_columns: int) -> dict:
        """Width-n cross-moment sketch of the normalized shard."""
        with self._timed():
            accumulator = StreamingMoments(n_columns, cross=True)
            for values, _ in self._passes.chunks():
                if values.shape[0]:
                    accumulator.update(normalizer.transform(values))
            return accumulator.state()

    def pair_states(
        self,
        normalizer: Normalizer,
        decided,
        positions: dict[int, tuple[str, str]],
        column_index: dict[str, int],
    ) -> dict[int, dict]:
        """Width-2 sketches of the requested pairs on the rotated-so-far shard."""
        with self._timed():
            accumulators = {
                position: StreamingMoments(2, cross=True) for position in positions
            }
            for values, _ in self._passes.chunks():
                if not values.shape[0]:
                    continue
                current = normalizer.transform(values)
                apply_decided_rotations(current, decided, column_index)
                for position, accumulator in accumulators.items():
                    index_i = column_index[positions[position][0]]
                    index_j = column_index[positions[position][1]]
                    accumulator.update(
                        np.column_stack((current[:, index_i], current[:, index_j]))
                    )
            return {
                position: accumulator.state()
                for position, accumulator in accumulators.items()
            }

    def transform_and_write(
        self,
        normalizer: Normalizer,
        decided,
        columns: Sequence[str],
        writer: MatrixCsvWriter,
        carry_ids: bool,
    ) -> tuple[int, dict, list[dict]]:
        """Release this shard's rows; return evidence sketches, never raw rows.

        The rotated rows go straight into the shared public output file —
        they *are* the release — while the privacy evidence travels back as
        sketch states.
        """
        with self._timed():
            n_rows, privacy_moments, achieved_moments = transform_pass(
                ((values, ids) for values, ids in self._passes.chunks() if values.shape[0]),
                normalizer,
                decided,
                columns,
                writer,
                carry_ids=carry_ids,
            )
            return (
                n_rows,
                privacy_moments.state(),
                [accumulator.state() for accumulator in achieved_moments],
            )


class _DistributedMomentSource:
    """``plan_rotations`` moment source backed by secure-merged party sketches."""

    def __init__(
        self,
        parties: Sequence[ShardParty],
        normalizer: Normalizer,
        columns: Sequence[str],
        aggregator: SecureSketchSum,
    ) -> None:
        self._parties = parties
        self._normalizer = normalizer
        self._columns = tuple(columns)
        self._column_index = {name: offset for offset, name in enumerate(columns)}
        self._aggregator = aggregator

    def _broadcast_plan(self, n_values: int, label: str) -> None:
        ledger = self._aggregator.ledger
        initiator = self._parties[0].name
        for party in self._parties[1:]:
            ledger.record(initiator, party.name, n_values, label=label)

    def correlation_moments(self) -> StreamingMoments:
        self._broadcast_plan(1, "plan/correlation-pass")
        merged = self._aggregator.aggregate_states(
            [
                (party.name, party.correlation_state(self._normalizer, len(self._columns)))
                for party in self._parties
            ],
            label="sketch/correlation",
        )
        return StreamingMoments.from_state(merged)

    def pair_moments(
        self, decided, positions: dict[int, tuple[str, str]], *, ddof: int
    ) -> dict[int, tuple[float, float, float]]:
        # The plan broadcast carries the decided rotations (pair indices,
        # angle) plus the requested pair list — a few scalars per rotation.
        self._broadcast_plan(4 * len(decided) + 2 * len(positions), "plan/pair-pass")
        per_party = [
            (
                party.name,
                party.pair_states(self._normalizer, decided, positions, self._column_index),
            )
            for party in self._parties
        ]
        moments: dict[int, tuple[float, float, float]] = {}
        for position in positions:
            merged = self._aggregator.aggregate_states(
                [(name, states[position]) for name, states in per_party],
                label=f"sketch/pair-{position}",
            )
            moments[position] = StreamingMoments.from_state(merged).pair_moments(
                0, 1, ddof=ddof
            )
        return moments


@dataclass(frozen=True)
class DistributedReleaseReport(StreamingReleaseReport):
    """A :class:`StreamingReleaseReport` plus the multi-party cost evidence."""

    #: Number of parties that contributed shards.
    n_parties: int = 1
    #: Rows contributed by each party, in release (party) order.
    party_rows: tuple[int, ...] = ()
    #: The protocol's communication ledger (bytes, rounds, per-party clock).
    ledger: CommunicationLedger | None = None

    def summary(self) -> dict:
        data = super().summary()
        data["n_parties"] = self.n_parties
        data["party_rows"] = list(self.party_rows)
        if self.ledger is not None:
            data["communication"] = self.ledger.summary()
        return data


class DistributedReleasePipeline:
    """Coordinate a multi-party RBT release that matches the single-party bytes.

    Mirrors the :class:`~repro.pipeline.StreamingReleasePipeline`
    constructor (same ``rbt``/``normalizer``/``suppressor``/chunking/``ddof``
    vocabulary) and adds ``protocol_seed`` for the secure-sum masks — the
    masks cancel exactly, so the seed never influences the released bytes.

    ``run`` takes the per-party shard paths instead of one input path; the
    output is byte-identical to the single-party release of the concatenated
    shards (see the module docstring for why).
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
        protocol_seed=None,
        codec: str | None = None,
    ) -> None:
        from ..perf.csv_codec import resolve_codec

        if chunk_rows is not None and memory_budget_bytes is not None:
            raise ValidationError("pass either chunk_rows or memory_budget_bytes, not both")
        self.rbt = rbt if rbt is not None else RBT()
        self.normalizer = normalizer if normalizer is not None else ZScoreNormalizer()
        self.suppressor = suppressor
        self.codec = resolve_codec(codec)
        self.chunk_rows = (
            check_integer_in_range(chunk_rows, name="chunk_rows", minimum=1)
            if chunk_rows is not None
            else None
        )
        self.memory_budget_bytes = memory_budget_bytes
        self.ddof = check_integer_in_range(ddof, name="ddof", minimum=0, maximum=1)
        self.protocol_seed = protocol_seed

    def run(
        self,
        shard_paths: Sequence[str | Path],
        output_path: str | Path,
        *,
        id_column: str | None = "id",
        float_format: str | None = None,
    ) -> DistributedReleaseReport:
        """Drive the multi-party protocol; write the release to ``output_path``."""
        paths = [Path(path) for path in shard_paths]
        if not paths:
            raise ValidationError("distributed release needs at least one shard")
        ledger = CommunicationLedger()
        parties = [
            ShardParty(
                f"party{index}", path, id_column=id_column, ledger=ledger, codec=self.codec
            )
            for index, path in enumerate(paths)
        ]
        first = parties[0]
        for party in parties[1:]:
            if party.all_columns != first.all_columns or party.has_ids != first.has_ids:
                raise ValidationError(
                    f"shard {party.path} header does not match shard {first.path}"
                )
        kept_indices, columns = self._kept_columns(first.all_columns)
        chunk_rows = resolve_chunk_rows(
            len(columns),
            chunk_rows=self.chunk_rows,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        carry_ids = first.has_ids and not (
            self.suppressor is not None and self.suppressor.drop_object_ids
        )
        aggregator = SecureSketchSum(random_state=self.protocol_seed, ledger=ledger)
        coordinator = parties[0].name
        passes = 0

        # Each party parses its shard once; the planning and transform rounds
        # replay the decoded blocks.  Leaving the block removes every spill.
        with ExitStack() as parties_open:
            for party in parties:
                parties_open.enter_context(party.configure(kept_indices, chunk_rows))

            # ---- Fit round: local fitter states, merged without raw rows.
            template = self.normalizer._stream_fitter(len(columns))
            fit_states = [
                (party.name, party.fit_state(self.normalizer, len(columns)))
                for party in parties
            ]
            n_rows_total = int(sum(rows for _, (_, rows) in fit_states))
            if isinstance(template, StreamingMoments):
                merged = aggregator.aggregate_states(
                    [(name, state) for name, (state, _) in fit_states],
                    label="sketch/normalizer-fit",
                )
                fitter = StreamingMoments.from_state(merged)
            else:
                # Extrema are not additively maskable; the per-shard min/max
                # travel in the clear (they bound, but do not expose, rows).
                fitter = template
                for name, (state, _) in fit_states:
                    if name != coordinator:
                        n_values = int(
                            sum(np.asarray(v).size for v in state.values() if v is not None)
                        )
                        ledger.record(name, coordinator, n_values + 1, label="fit/extrema")
                    fitter.merge_state(state)
            self.normalizer._finish_stream_fit(fitter, n_rows=n_rows_total)
            self.normalizer._n_attributes = len(columns)
            passes += 1
            # Broadcast the fitted parameters so each party can normalize locally.
            for party in parties[1:]:
                ledger.record(
                    coordinator, party.name, 2 * len(columns), label="fit/normalizer-params"
                )

            # ---- Planning rounds: the shared planner on secure-merged moments.
            moment_source = _DistributedMomentSource(
                parties, self.normalizer, columns, aggregator
            )
            decided, moment_passes = plan_rotations(self.rbt, columns, moment_source)
            passes += moment_passes

            # ---- Transform round: every party releases its own rows, in order.
            for party in parties[1:]:
                ledger.record(
                    coordinator, party.name, 4 * len(decided), label="plan/transform-pass"
                )
            party_rows: list[int] = []
            privacy_states: list[tuple[str, dict]] = []
            achieved_states: list[tuple[str, list[dict]]] = []
            with MatrixCsvWriter(
                output_path,
                columns,
                include_ids=carry_ids,
                float_format=float_format,
                codec=self.codec,
            ) as writer:
                for party in parties:
                    rows, privacy_state, achieved = party.transform_and_write(
                        self.normalizer, decided, columns, writer, carry_ids
                    )
                    party_rows.append(rows)
                    privacy_states.append((party.name, privacy_state))
                    achieved_states.append((party.name, achieved))
            passes += 1

        privacy_moments = StreamingMoments.from_state(
            aggregator.aggregate_states(privacy_states, label="sketch/privacy")
        )
        achieved_moments = [
            StreamingMoments.from_state(
                aggregator.aggregate_states(
                    [(name, states[index]) for name, states in achieved_states],
                    label=f"sketch/achieved-{index}",
                )
            )
            for index in range(len(decided))
        ]
        records = build_rotation_records(decided, achieved_moments, ddof=self.rbt.ddof)
        privacy = privacy_report_from_moments(columns, privacy_moments, ddof=self.ddof)
        return DistributedReleaseReport(
            n_objects=int(sum(party_rows)),
            columns=tuple(columns),
            records=records,
            privacy=privacy,
            chunk_rows=chunk_rows,
            n_passes=passes,
            n_parties=len(parties),
            party_rows=tuple(party_rows),
            ledger=ledger,
        )

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


def split_csv_shards(
    input_path: str | Path,
    shard_paths: Sequence[str | Path],
    *,
    row_counts: Sequence[int] | None = None,
    id_column: str | None = "id",
    chunk_rows: int | None = None,
) -> tuple[int, ...]:
    """Split one matrix CSV into horizontal shards (headers copied verbatim).

    ``row_counts`` fixes the rows per shard (the last shard takes any
    remainder); by default rows are spread near-evenly, earlier shards one
    row larger.  Returns the rows written to each shard.  Splitting then
    releasing through :class:`DistributedReleasePipeline` reproduces the
    single-party release of ``input_path`` byte for byte — this helper exists
    for the CLI, the experiments grid, and the benchmarks, which simulate
    parties from one file.
    """
    input_path = Path(input_path)
    paths = [Path(path) for path in shard_paths]
    if not paths:
        raise ValidationError("split_csv_shards needs at least one shard path")
    columns, has_ids = read_matrix_csv_header(input_path, id_column=id_column)
    chunk_rows = chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS
    if row_counts is None:
        total = int(
            sum(
                chunk.values.shape[0]
                for chunk in iter_matrix_csv(
                    input_path, chunk_rows=chunk_rows, id_column=id_column
                )
            )
        )
        base, remainder = divmod(total, len(paths))
        quotas = [base + (1 if index < remainder else 0) for index in range(len(paths))]
    else:
        if len(row_counts) != len(paths):
            raise ValidationError("row_counts must have one entry per shard path")
        quotas = [check_integer_in_range(c, name="row_counts", minimum=0) for c in row_counts]
    written = [0] * len(paths)
    shard = 0
    writers = []
    try:
        for path in paths:
            writers.append(MatrixCsvWriter(path, columns, include_ids=has_ids))
        for chunk in iter_matrix_csv(input_path, chunk_rows=chunk_rows, id_column=id_column):
            values, ids = chunk.values, chunk.ids
            offset = 0
            while offset < values.shape[0]:
                while shard < len(paths) - 1 and written[shard] >= quotas[shard]:
                    shard += 1
                if shard == len(paths) - 1:
                    take = values.shape[0] - offset
                else:
                    take = min(quotas[shard] - written[shard], values.shape[0] - offset)
                block_ids = ids[offset : offset + take] if ids is not None else None
                writers[shard].write_rows(values[offset : offset + take], ids=block_ids)
                written[shard] += take
                offset += take
    except BaseException:
        # The writers stage into temporary files; discarding them on failure
        # means a crashed split never leaves torn shards behind.
        for writer in writers:
            writer.abort()
        raise
    for writer in writers:
        writer.close()
    return tuple(written)
