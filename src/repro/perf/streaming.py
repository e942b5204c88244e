"""Exact, mergeable streaming moments for the release and distributed paths.

The streaming release pipeline (:mod:`repro.pipeline.streaming`) promises that
the bytes it writes are *identical* to the in-memory owner workflow, for any
chunk size.  The distributed release (:mod:`repro.distributed`) extends that
promise across machines: each party accumulates moments over its own
horizontal shard and only the accumulator states cross the (simulated) wire,
yet the multi-party release must be byte-identical to a single party owning
the concatenated rows — for **any** shard split.  Everything downstream of
the statistics (normalization, the security-range solve, the rotation) is
elementwise or closed-form, so both promises reduce to one requirement: the
accumulated moments must not depend on how the rows were grouped.

Naive chunked accumulation cannot deliver that — floating-point addition is
not associative.  Earlier revisions pinned the grouping instead (fixed
1024-row tiles aligned to absolute row indices), which makes the moments
chunk-invariant but *not* shard-invariant: a shard boundary in the middle of
a tile would need raw rows from two parties to compute that tile's partial.
:class:`StreamingMoments` therefore switches to **exact summation**: the
exact sum of a multiset of reals does not depend on grouping at all.

How the exact accumulator works
-------------------------------
Every input value is split into a high and a low piece of at most 26
significant bits each (``hi = rint(m * 2**26) * 2**(e-26)`` from ``frexp``,
``lo = v - hi``; both splits are exact).  Pieces are scattered into an array
of *exponent buckets*: bucket ``j`` only ever receives pieces whose
``frexp`` exponent is ``j - _BUCKET_OFFSET``, so everything in the bucket is
a multiple of one quantum ``2**(j - _BUCKET_OFFSET - 26)`` and — as long as
fewer than ``2**27`` pieces have been deposited since the bucket was last
compressed — every intermediate float addition is **exact** (the running sum
stays a representable multiple of the quantum).  The scatter is a vectorized
``np.bincount``; a periodic *compress* re-splits each bucket's sum back into
two ≤26-bit pieces, restoring the headroom without changing the exact total.

Squared values are accumulated through the exact product split
``x² = hi² + 2·hi·lo + lo²`` (all three terms exact at ≤26-bit factors), and
cross products through the four-term split ``hi_i·hi_j + hi_i·lo_j +
lo_i·hi_j + lo_i·lo_j`` — so the sums of squares and cross products are the
exact real sums of per-element, deterministically-rounded terms.  Reading a
statistic drains the buckets with integer arithmetic: ``frexp`` writes every
bucket value as an int64 mantissa times a power of two, the mantissas are
shifted onto the smallest exponent of their quantity and summed as Python
ints, and each quantity's total becomes one exact
:class:`fractions.Fraction`.  The returned mean/variance/covariance is
therefore the **correctly rounded** value of the exact accumulated
rationals.

Because the exact bucket totals are a function of the value *multiset* only:

* feeding rows in any chunk sizes yields identical bits (chunk invariance);
* :meth:`StreamingMoments.merge` of per-shard accumulators equals one
  accumulator over the concatenated rows (shard invariance);
* fanning row blocks out to a parallel backend and merging the per-block
  states is bitwise identical to the serial scan (backend invariance);
* the masked secure-sum of :mod:`repro.distributed.federated` — whose masks
  are integer multiples of each bucket's quantum — cancels exactly, so even
  the privacy-preserving aggregation preserves the bits.

Supported domain (documented contract): finite values with
``|x| < 2**480``.  Non-finite or larger-magnitude values are routed to a
deterministic per-column poison channel and drain to ``nan``/``±inf`` like
``np.var`` would, still independent of grouping.  Pieces smaller than
``2**-1040`` in magnitude are flushed to zero during the per-element split
(an error below ``n · 2**-1040`` on a sum — far beneath one ulp of any
representable statistic of such data).

The accumulators operate on plain ``(rows, n_columns)`` float arrays and
know nothing about CSV files or :class:`~repro.data.DataMatrix` — the I/O
layer in :mod:`repro.data.io` and the pipelines own those concerns.
"""

from __future__ import annotations

import base64
import operator
from fractions import Fraction

import numpy as np

from .._validation import check_integer_in_range
from ..exceptions import ValidationError
from .backends import get_backend

__all__ = [
    "STREAM_TILE_ROWS",
    "StreamingMoments",
    "bucket_quantum_exponents",
    "correlation_from_moments",
    "state_from_jsonable",
    "state_to_jsonable",
    "streamed_correlation",
    "streamed_pair_moments",
]

#: Rows per vectorized scatter batch.  Purely a batching knob now — the exact
#: bucket accumulation makes the statistics independent of how rows are
#: grouped, so (unlike the old fixed-tile design) this value is *not* part of
#: any bitwise contract and only trades Python overhead against peak memory.
STREAM_TILE_ROWS: int = 4096

#: Bucket index of a piece = its ``frexp`` exponent + this offset.  Sized so
#: the low pieces produced by compressing the deepest deposit buckets
#: (exponents down to −1064) still land at a non-negative index.
_BUCKET_OFFSET: int = 1066

#: Number of exponent buckets.  Deposits span indices ~[2, 2080] given the
#: poison limit below; the round size leaves headroom on both ends.
_N_BUCKETS: int = 2112

#: ``2**26`` — the high/low split point.  Two 26-bit factors multiply exactly
#: in a double, which is what makes the square and cross-product splits exact.
_SPLIT: float = float(2**26)

#: Pieces smaller than this are flushed to zero at deposit time.  The flush is
#: a per-element deterministic function of the input value, so it cannot break
#: grouping invariance; it keeps every bucket quantum at or above ``2**-1065``
#: where all intermediate sums remain exactly representable.
_PIECE_FLOOR: float = 2.0**-1040

#: Values at or above this magnitude (or non-finite) go to the poison channel
#: instead of the buckets: their squares would overflow the exact-split range.
_POISON_LIMIT: float = 2.0**480

#: Compress when this many pieces have been deposited since the last
#: compress.  Exactness holds up to ``2**27`` pieces per bucket; the margin
#: covers the largest single scatter batch (``_MAX_SLICE_PIECES``).
_COMPRESS_DEPOSITS: int = 2**24

#: Upper bound on pieces scattered by one batch; row slices are sized so one
#: batch stays under it even for very wide cross-moment accumulators.  Sized
#: so a batch's transient arrays stay cache-resident — measured on the bench
#: host, ``2**14`` (≈128 KiB of pieces) runs the 500k-row moment passes ~2x
#: faster than ``2**16`` because every scatter batch stays in L2.  It also
#: keeps the sketch's scratch space far inside the streamed pipelines' memory
#: budgets.  (Grouping is not part of any bitwise contract: bucket sums are
#: exact, so the batch size only trades per-call overhead against locality.)
_MAX_SLICE_PIECES: int = 2**14

#: Quantum floor exponent: every value in the system is a multiple of
#: ``2**-1065`` (a deposit piece has ≥ ``2**-1040`` magnitude and ≤26
#: significant bits), so no bucket's effective quantum is ever finer.
_QUANTUM_FLOOR_EXPONENT: int = -1065

#: Extra buckets allocated on each side when the occupied window grows, so a
#: slowly widening exponent range does not reallocate on every deposit.
_WINDOW_MARGIN: int = 8


def bucket_quantum_exponents(bucket_indices) -> np.ndarray:
    """Base-2 exponents of the quanta of ``bucket_indices``.

    Every value bucket ``j`` can hold is an integer multiple of
    ``2**bucket_quantum_exponents(j)``.  The secure-sum protocol of
    :mod:`repro.distributed.federated` draws its masks as bounded integer
    multiples of these quanta, which is what makes the masking cancel
    **exactly** and keeps the multi-party release byte-identical.
    """
    indices = np.asarray(bucket_indices, dtype=np.int64)
    return np.maximum(indices - _BUCKET_OFFSET - 26, _QUANTUM_FLOOR_EXPONENT)


def _split_pieces(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split finite doubles into exact high/low pieces of ≤26 significant bits."""
    mantissa, exponent = np.frexp(values)
    hi = np.ldexp(np.rint(mantissa * _SPLIT), exponent - 26)
    lo = values - hi
    return hi, lo


def _integer_split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write every double as ``mantissa * 2**exponent`` with an int64 mantissa.

    ``frexp`` mantissas lie in ``[0.5, 1)``; scaling by ``2**53`` makes them
    integers of at most 53 bits (subnormals included), so the split is exact.
    Zeros (of either sign) get mantissa 0.
    """
    mantissa, exponent = np.frexp(values)
    return (mantissa * 2.0**53).astype(np.int64), exponent.astype(np.int64) - 53


def _exact_total(mantissas: np.ndarray, exponents: np.ndarray) -> Fraction:
    """Exact sum of ``mantissas[k] * 2**exponents[k]`` as one :class:`Fraction`.

    Every term is shifted onto the smallest exponent present and summed as a
    Python int, so the total is the same rational a term-by-term
    :class:`Fraction` sum gives, at the cost of one ``Fraction`` construction.
    """
    live = mantissas != 0
    if not live.any():
        return Fraction(0)
    mantissas, exponents = mantissas[live], exponents[live]
    floor = int(exponents.min())
    shifts = (exponents - floor).tolist()
    total = int(sum(mantissa << shift for mantissa, shift in zip(mantissas.tolist(), shifts)))
    if floor >= 0:
        return Fraction(total << floor)
    return Fraction(total, 1 << -floor)


def _bucket_partials_worker(arrays, start: int, stop: int, *, n_columns: int, cross: bool):
    """Accumulate rows ``start:stop`` into a fresh accumulator; return its state.

    Module level so process backends can ship it.  Exact summation makes the
    row split irrelevant: merging the per-block states in any order yields
    the same bucket totals as the serial scan, hence the same bits.
    """
    accumulator = StreamingMoments(n_columns, cross=cross)
    accumulator.update(arrays["rows"][start:stop])
    return accumulator.state()


class StreamingMoments:
    """Single-pass column moments, invariant to chunking, sharding and merging.

    Feed row chunks with :meth:`update`; read statistics through
    :meth:`means` / :meth:`variances` / :meth:`covariance` /
    :meth:`pair_moments`.  Feeding the same rows split at *any* chunk
    boundaries — one row at a time, or the whole matrix in a single call —
    yields bitwise-identical statistics, and :meth:`merge`-ing accumulators
    built over row shards equals one accumulator over the concatenated rows.

    Parameters
    ----------
    n_columns:
        Width of the row chunks.
    cross:
        When ``True`` also accumulate the pairwise cross products of every
        column pair ``i < j`` (needed for covariances).  Off by default
        because the normalizer fit only needs per-column moments.
    tile_rows:
        Rows per vectorized scatter batch; exposed for tests, keep the
        default otherwise (it does not affect the statistics).
    backend:
        Execution backend spec for large updates (see
        :mod:`repro.perf.backends`).  Row blocks are fanned out and the
        per-block bucket states merged exactly, so every backend yields
        bitwise-identical statistics.  May also be assigned after
        construction (``accumulator.backend = ...``); the attribute is
        re-resolved on every :meth:`update`.
    """

    def __init__(
        self,
        n_columns: int,
        *,
        cross: bool = False,
        tile_rows: int = STREAM_TILE_ROWS,
        backend=None,
    ):
        self.backend = backend
        self._n_columns = check_integer_in_range(n_columns, name="n_columns", minimum=1)
        self._tile_rows = check_integer_in_range(tile_rows, name="tile_rows", minimum=1)
        self._cross = bool(cross)
        n = self._n_columns
        self._pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if self._cross else []
        if self._pairs:
            self._pair_i = np.array([i for i, _ in self._pairs], dtype=np.intp)
            self._pair_j = np.array([j for _, j in self._pairs], dtype=np.intp)
        # Quantity layout: [0, n) column sums, [n, 2n) sums of squares,
        # [2n, 2n + len(pairs)) cross-product sums in (i < j) order.
        self._n_quantities = 2 * n + len(self._pairs)
        # Occupied exponent-bucket window: row ``k`` holds bucket index
        # ``_window_low + k``.  Real data occupies a few dozen of the ~2100
        # possible buckets, so a contiguous window grown on demand keeps the
        # table at kilobytes instead of full-range megabytes — the streamed
        # pipelines bill the sketch's memory against their budget.
        self._window_low = 0
        self._buckets = np.zeros((0, self._n_quantities), dtype=float)
        self._deposits = 0
        self._count = 0
        self._poison_nan = np.zeros(self._n_quantities, dtype=np.int64)
        self._poison_pos = np.zeros(self._n_quantities, dtype=np.int64)
        self._poison_neg = np.zeros(self._n_quantities, dtype=np.int64)
        self._finalized: list | None = None
        # Per-row-count quantity-index pattern for the batched slice deposit;
        # at most two entries live at once (full slices plus one tail).
        self._quantity_indices_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Accumulation
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of rows accumulated so far."""
        return self._count

    @property
    def n_columns(self) -> int:
        """Width of the accumulated rows."""
        return self._n_columns

    @property
    def cross(self) -> bool:
        """Whether pairwise cross products are accumulated."""
        return self._cross

    def update(self, chunk) -> StreamingMoments:
        """Accumulate a ``(rows, n_columns)`` chunk of values."""
        if self._finalized is not None:
            raise ValidationError("StreamingMoments cannot be updated after statistics were read")
        array = np.asarray(chunk, dtype=float)
        if array.ndim != 2 or array.shape[1] != self._n_columns:
            raise ValidationError(
                f"chunk must be a 2-D array with {self._n_columns} column(s), "
                f"got shape {array.shape}"
            )
        if array.shape[0] == 0:
            return self
        backend = get_backend(self.backend)
        slice_rows = self._slice_rows()
        if backend.workers > 1 and array.shape[0] >= 4 * slice_rows:
            block_rows = max(slice_rows, -(-array.shape[0] // (2 * backend.workers)))
            for _start, _stop, state in backend.imap_blocks(
                _bucket_partials_worker,
                array.shape[0],
                block_rows,
                arrays={"rows": array},
                kwargs={"n_columns": self._n_columns, "cross": self._cross},
            ):
                self._merge_state(state)
            return self
        for start in range(0, array.shape[0], slice_rows):
            self._accumulate_slice(array[start : start + slice_rows])
        self._count += array.shape[0]
        return self

    def _slice_rows(self) -> int:
        """Rows per scatter batch, capped so one batch fits the deposit margin."""
        n = self._n_columns
        pieces_per_row = 8 * n + 8 * len(self._pairs)
        return max(1, min(self._tile_rows, _MAX_SLICE_PIECES // pieces_per_row))

    def _accumulate_slice(self, rows: np.ndarray) -> None:
        finite = np.isfinite(rows) & (np.abs(rows) < _POISON_LIMIT)
        if finite.all():
            clean = rows
        else:
            clean = np.where(finite, rows, 0.0)
            self._record_poison(rows, finite)
        hi, lo = _split_pieces(clean)
        # Collect every split term of the slice and scatter them in ONE
        # deposit: bucket sums are exact, so grouping cannot change any
        # statistic, and a single bincount over the concatenated pieces
        # replaces sixteen small scatters' worth of per-call overhead.  The
        # slice sizing keeps the whole batch under _MAX_SLICE_PIECES, so
        # the transient concatenation stays at a few hundred kilobytes.
        blocks = [hi, lo]
        # x² = hi² + 2·hi·lo + lo²: every term exact at ≤26-bit factors, then
        # itself split into two ≤26-bit pieces for the bucket invariant.
        for term in (hi * hi, (2.0 * hi) * lo, lo * lo):
            blocks.extend(_split_pieces(term))
        if self._pairs:
            hi_i, lo_i = hi[:, self._pair_i], lo[:, self._pair_i]
            hi_j, lo_j = hi[:, self._pair_j], lo[:, self._pair_j]
            for term in (hi_i * hi_j, hi_i * lo_j, lo_i * hi_j, lo_i * lo_j):
                blocks.extend(_split_pieces(term))
        pieces = np.concatenate([block.ravel() for block in blocks])
        self._deposit(pieces, self._slice_quantity_indices(rows.shape[0]))

    def _slice_quantity_indices(self, n_rows: int) -> np.ndarray:
        """Quantity indices matching ``_accumulate_slice``'s piece layout.

        The pattern depends only on the slice's row count (column pieces,
        then square pieces, then cross pieces, each row-major), so it is
        cached — a pass re-uses one array for every full-size slice.
        """
        cached = self._quantity_indices_cache.get(n_rows)
        if cached is not None:
            return cached
        # int32 keeps the cached pattern half the size of the piece array it
        # pairs with — the audit path runs three accumulators against one
        # small memory budget, so the persistent footprint matters here.
        n = self._n_columns
        column_base = np.arange(n, dtype=np.int32)
        square_base = np.arange(n, 2 * n, dtype=np.int32)
        parts = [np.tile(column_base, n_rows)] * 2 + [np.tile(square_base, n_rows)] * 6
        if self._pairs:
            cross_base = np.arange(2 * n, self._n_quantities, dtype=np.int32)
            parts += [np.tile(cross_base, n_rows)] * 8
        indices = np.concatenate(parts)
        self._quantity_indices_cache[n_rows] = indices
        return indices

    def _deposit(self, pieces: np.ndarray, quantities: np.ndarray) -> None:
        """Scatter ≤26-significant-bit pieces into the exponent buckets."""
        keep = np.abs(pieces) >= _PIECE_FLOOR
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return
        if kept != pieces.size:
            # Fancy-indexing copies only when some piece is floored; the
            # common all-kept case scatters the inputs directly, which
            # deposits the identical pieces in the identical order.
            pieces = pieces[keep]
            quantities = quantities[keep]
        if self._deposits + pieces.size > _COMPRESS_DEPOSITS:
            self._compress()
        _, exponents = np.frexp(pieces)
        self._scatter(exponents.astype(np.int64) + _BUCKET_OFFSET, quantities, pieces)
        self._deposits += int(pieces.size)

    def _ensure_window(self, lo: int, hi: int) -> None:
        """Grow the bucket window to cover bucket indices ``[lo, hi)``."""
        if self._buckets.shape[0] == 0:
            self._window_low = max(lo - _WINDOW_MARGIN, 0)
            rows = min(hi + _WINDOW_MARGIN, _N_BUCKETS) - self._window_low
            self._buckets = np.zeros((rows, self._n_quantities), dtype=float)
            return
        current_hi = self._window_low + self._buckets.shape[0]
        if lo >= self._window_low and hi <= current_hi:
            return
        new_low = min(self._window_low, max(lo - _WINDOW_MARGIN, 0))
        new_hi = max(current_hi, min(hi + _WINDOW_MARGIN, _N_BUCKETS))
        grown = np.zeros((new_hi - new_low, self._n_quantities), dtype=float)
        offset = self._window_low - new_low
        grown[offset : offset + self._buckets.shape[0]] = self._buckets
        self._window_low = new_low
        self._buckets = grown

    def _scatter(self, buckets: np.ndarray, quantities: np.ndarray, pieces: np.ndarray) -> None:
        """Sum ``pieces`` into bucket rows ``buckets`` at columns ``quantities``."""
        lo_bucket = int(buckets.min())
        self._ensure_window(lo_bucket, int(buckets.max()) + 1)
        flat = (buckets - self._window_low) * self._n_quantities + quantities
        # The first occupied row bounds the flat indices from below, so the
        # bincount window starts there — no extra pass over ``flat`` for its
        # exact minimum (per-index sums, and hence the buckets, are the same).
        low = (lo_bucket - self._window_low) * self._n_quantities
        spread = np.bincount(flat - low, weights=pieces)
        self._buckets.reshape(-1)[low : low + spread.size] += spread

    def _compress(self) -> None:
        """Re-split every bucket sum into ≤26-bit pieces; exact total unchanged."""
        flat_view = self._buckets.reshape(-1)
        nonzero = np.flatnonzero(flat_view)
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if nonzero.size:
            values = flat_view[nonzero]
            quantities = nonzero % self._n_quantities
            # No piece floor here: compress pieces are multiples of their
            # source quantum (≥ 2**-1065), so flooring would *change* the
            # exact totals at grouping-dependent moments and break the
            # invariance contract.  The quantum floor keeps them exact.
            for piece in _split_pieces(values):
                live = piece != 0.0
                part, quantity = piece[live], quantities[live]
                if part.size == 0:
                    continue
                _, exponents = np.frexp(part)
                parts.append((exponents.astype(np.int64) + _BUCKET_OFFSET, quantity, part))
        if parts:
            lo = min(int(buckets.min()) for buckets, _, _ in parts)
            hi = max(int(buckets.max()) for buckets, _, _ in parts) + 1
            self._window_low = lo
            self._buckets = np.zeros((hi - lo, self._n_quantities), dtype=float)
            for buckets, quantity, part in parts:
                self._scatter(buckets, quantity, part)
        else:
            self._window_low = 0
            self._buckets = np.zeros((0, self._n_quantities), dtype=float)
        self._deposits = 2 * _N_BUCKETS

    def _record_poison(self, rows: np.ndarray, finite: np.ndarray) -> None:
        """Count non-finite / out-of-range contributions per affected quantity."""
        n = self._n_columns
        poisoned = ~finite
        row_index, column = np.nonzero(poisoned)
        values = rows[row_index, column]
        is_nan = np.isnan(values)
        np.add.at(self._poison_nan, column[is_nan], 1)
        np.add.at(self._poison_pos, column[~is_nan & (values > 0)], 1)
        np.add.at(self._poison_neg, column[~is_nan & (values < 0)], 1)
        # Squares of poisoned values: nan stays nan, everything else is +∞.
        np.add.at(self._poison_nan, n + column[is_nan], 1)
        np.add.at(self._poison_pos, n + column[~is_nan], 1)
        if self._pairs:
            # Cross products with ≥1 poisoned member follow IEEE extended
            # arithmetic on sign(x)·∞ — deterministic, grouping-independent.
            extended = np.where(
                poisoned & ~np.isnan(rows), np.copysign(np.inf, rows), rows
            )
            affected = poisoned[:, self._pair_i] | poisoned[:, self._pair_j]
            rows_hit, pair_hit = np.nonzero(affected)
            with np.errstate(invalid="ignore"):
                products = (
                    extended[rows_hit, self._pair_i[pair_hit]]
                    * extended[rows_hit, self._pair_j[pair_hit]]
                )
            product_nan = np.isnan(products)
            np.add.at(self._poison_nan, 2 * n + pair_hit[product_nan], 1)
            np.add.at(self._poison_pos, 2 * n + pair_hit[~product_nan & (products > 0)], 1)
            np.add.at(self._poison_neg, 2 * n + pair_hit[~product_nan & (products < 0)], 1)

    # ------------------------------------------------------------------ #
    # Merging and serialization (the distributed wire format)
    # ------------------------------------------------------------------ #
    def merge(self, other: StreamingMoments) -> StreamingMoments:
        """Fold another accumulator's rows into this one, exactly.

        The result is bitwise identical to accumulating the concatenation of
        both row streams in one accumulator — the property the multi-party
        release pipeline is built on.
        """
        if not isinstance(other, StreamingMoments):
            raise ValidationError(
                f"merge expects a StreamingMoments, got {type(other).__name__}"
            )
        if other._n_columns != self._n_columns or other._cross != self._cross:
            raise ValidationError(
                "cannot merge StreamingMoments with different shapes: "
                f"({self._n_columns}, cross={self._cross}) vs "
                f"({other._n_columns}, cross={other._cross})"
            )
        if self._finalized is not None or other._finalized is not None:
            raise ValidationError("StreamingMoments cannot be merged after statistics were read")
        if self._deposits + other._deposits > _COMPRESS_DEPOSITS:
            self._compress()
            other._compress()
        if other._buckets.shape[0]:
            other_hi = other._window_low + other._buckets.shape[0]
            self._ensure_window(other._window_low, other_hi)
            offset = other._window_low - self._window_low
            self._buckets[offset : offset + other._buckets.shape[0]] += other._buckets
        self._deposits += other._deposits
        self._count += other._count
        self._poison_nan += other._poison_nan
        self._poison_pos += other._poison_pos
        self._poison_neg += other._poison_neg
        return self

    def state(self) -> dict:
        """Serializable sketch state (the distributed wire payload).

        The payload size is ``O(occupied buckets × quantities)`` —
        independent of the number of accumulated rows, which is what keeps
        the distributed protocol free of O(rows) transfers.
        """
        if self._finalized is not None:
            raise ValidationError(
                "StreamingMoments state cannot be exported after statistics were read"
            )
        self._compress()
        occupied = np.flatnonzero(np.any(self._buckets != 0.0, axis=1))
        return {
            "format": 1,
            "n_columns": self._n_columns,
            "cross": self._cross,
            "count": self._count,
            "deposits": self._deposits,
            "bucket_indices": (occupied + self._window_low).astype(np.int64),
            "bucket_values": self._buckets[occupied].copy(),
            "poison_nan": self._poison_nan.copy(),
            "poison_pos": self._poison_pos.copy(),
            "poison_neg": self._poison_neg.copy(),
        }

    @classmethod
    def from_state(cls, state: dict, *, backend=None) -> StreamingMoments:
        """Rebuild an accumulator from :meth:`state` (exact round trip)."""
        n_columns, cross = _state_shape(state)
        accumulator = cls(n_columns, cross=cross, backend=backend)
        accumulator._merge_state(state)
        return accumulator

    def _merge_state(self, state: dict) -> None:
        """Fold a :meth:`state` payload into this accumulator, exactly.

        Every foreign state enters here — bundle loads, :meth:`from_state`
        and the federated secure-sum total — so this is where a malformed
        payload is refused (see :func:`_checked_state`) instead of being
        broadcast or scattered into the wrong buckets.
        """
        state = _checked_state(state)
        if state["n_columns"] != self._n_columns or state["cross"] != self._cross:
            raise ValidationError(
                "cannot merge a StreamingMoments state with a different shape"
            )
        deposits = state["deposits"]
        if self._deposits + deposits > _COMPRESS_DEPOSITS:
            self._compress()
        indices = state["bucket_indices"]
        if indices.size:
            self._ensure_window(int(indices[0]), int(indices[-1]) + 1)
            self._buckets[indices - self._window_low] += state["bucket_values"]
        self._deposits += deposits
        self._count += state["count"]
        self._poison_nan += state["poison_nan"]
        self._poison_pos += state["poison_pos"]
        self._poison_neg += state["poison_neg"]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def _drain(self) -> list:
        """Exact per-quantity totals: :class:`Fraction`, or a poison float."""
        if self._finalized is not None:
            return self._finalized
        if self._count == 0:
            raise ValidationError("StreamingMoments received no rows")
        mantissas, exponents = _integer_split(self._buckets)
        totals: list = []
        for quantity in range(self._n_quantities):
            if self._poison_nan[quantity] or (
                self._poison_pos[quantity] and self._poison_neg[quantity]
            ):
                totals.append(float("nan"))
                continue
            if self._poison_pos[quantity]:
                totals.append(float("inf"))
                continue
            if self._poison_neg[quantity]:
                totals.append(float("-inf"))
                continue
            totals.append(_exact_total(mantissas[:, quantity], exponents[:, quantity]))
        self._finalized = totals
        return totals

    def means(self) -> np.ndarray:
        """Per-column arithmetic means (correctly rounded)."""
        totals = self._drain()
        out = np.empty(self._n_columns, dtype=float)
        for index in range(self._n_columns):
            total = totals[index]
            if isinstance(total, Fraction):
                out[index] = float(total / self._count)
            else:
                out[index] = total / self._count
        return out

    def variances(self, *, ddof: int = 0) -> np.ndarray:
        """Per-column variances with the requested degrees of freedom."""
        ddof = check_integer_in_range(ddof, name="ddof", minimum=0)
        if self._count - ddof <= 0:
            raise ValidationError(
                f"variance with ddof={ddof} needs more than {ddof} row(s), got {self._count}"
            )
        totals = self._drain()
        n = self._n_columns
        out = np.empty(n, dtype=float)
        for index in range(n):
            out[index] = self._second_moment(totals[index], totals[n + index], ddof)
        return out

    def _second_moment(self, linear, quadratic, ddof: int) -> float:
        """``(Q·m − S²) / (m·(m − ddof))``, exact when unpoisoned."""
        m = self._count
        if isinstance(linear, Fraction) and isinstance(quadratic, Fraction):
            # Exact: the numerator is m² times the true variance, which is
            # non-negative by Cauchy-Schwarz — no clamping needed.
            return float((quadratic * m - linear * linear) / (m * (m - ddof)))
        linear = float(linear)
        quadratic = float(quadratic)
        with np.errstate(invalid="ignore", over="ignore"):
            return float((quadratic - linear * (linear / m)) / (m - ddof))

    def covariance(self, column_i: int, column_j: int, *, ddof: int = 0) -> float:
        """Covariance of one column pair (requires ``cross=True``)."""
        if not self._cross:
            raise ValidationError("covariance requires a StreamingMoments built with cross=True")
        ddof = check_integer_in_range(ddof, name="ddof", minimum=0)
        if self._count - ddof <= 0:
            raise ValidationError(
                f"covariance with ddof={ddof} needs more than {ddof} row(s), got {self._count}"
            )
        if column_i == column_j:
            return float(self.variances(ddof=ddof)[column_i])
        totals = self._drain()
        i, j = min(column_i, column_j), max(column_i, column_j)
        cross = totals[2 * self._n_columns + self._pairs.index((i, j))]
        linear_i, linear_j = totals[i], totals[j]
        m = self._count
        if (
            isinstance(cross, Fraction)
            and isinstance(linear_i, Fraction)
            and isinstance(linear_j, Fraction)
        ):
            return float((cross * m - linear_i * linear_j) / (m * (m - ddof)))
        cross = float(cross)
        linear_i, linear_j = float(linear_i), float(linear_j)
        with np.errstate(invalid="ignore", over="ignore"):
            return float((cross - linear_i * (linear_j / m)) / (m - ddof))

    def pair_moments(self, column_i: int, column_j: int, *, ddof: int = 1):
        """``(σ_i², σ_j², σ_ij)`` of a column pair — the security-range inputs."""
        variances = self.variances(ddof=ddof)
        return (
            float(variances[column_i]),
            float(variances[column_j]),
            self.covariance(column_i, column_j, ddof=ddof),
        )


def correlation_from_moments(accumulator: StreamingMoments, *, ddof: int = 1) -> np.ndarray:
    """Correlation matrix from an accumulated ``StreamingMoments(n, cross=True)``.

    Shared by the max-variance pair selection of every release path: the
    in-memory :class:`~repro.core.RBT` feeds the whole matrix through one
    accumulator, the streaming pipeline feeds row chunks, the distributed
    pipeline merges per-party accumulators — exact summation makes all the
    resulting matrices bitwise identical, so the greedy pairing (and with it
    the whole release) cannot diverge between the paths even on near-tied
    correlations.  Degenerate (zero-variance) columns yield NaN, which the
    pairing treats as zero correlation.
    """
    variances = accumulator.variances(ddof=ddof)
    n = variances.shape[0]
    correlation = np.eye(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                denominator = np.sqrt(variances[i] * variances[j])
                value = (
                    accumulator.covariance(i, j, ddof=ddof) / denominator
                    if denominator > 0
                    else np.nan
                )
                correlation[i, j] = correlation[j, i] = value
    return correlation


def streamed_correlation(values, *, ddof: int = 1) -> np.ndarray:
    """Correlation matrix of a materialized ``(m, n)`` array via the exact reducer."""
    accumulator = StreamingMoments(np.asarray(values).shape[1], cross=True)
    accumulator.update(values)
    return correlation_from_moments(accumulator, ddof=ddof)


def streamed_pair_moments(attribute_i, attribute_j, *, ddof: int = 1) -> tuple[float, float, float]:
    """``(σ_i², σ_j², σ_ij)`` of two materialized columns via the exact reducer.

    This is the in-memory entry point of the bitwise contract: feeding the
    same two columns chunk-by-chunk into a ``StreamingMoments(2, cross=True)``
    produces exactly these three numbers.
    """
    stacked = np.column_stack(
        (np.asarray(attribute_i, dtype=float), np.asarray(attribute_j, dtype=float))
    )
    accumulator = StreamingMoments(2, cross=True)
    accumulator.update(stacked)
    return accumulator.pair_moments(0, 1, ddof=ddof)


# --------------------------------------------------------------------------- #
# State validation and the lossless JSON wire form of the sketch state
# --------------------------------------------------------------------------- #
#: The per-quantity poison counters of a state.
_POISON_KEYS = ("poison_nan", "poison_pos", "poison_neg")

#: Keys of a :meth:`StreamingMoments.state` payload and of its JSON form.
_STATE_KEYS = (
    "n_columns",
    "cross",
    "count",
    "deposits",
    "bucket_indices",
    "bucket_values",
    *_POISON_KEYS,
)

#: JSON wire format written by :func:`state_to_jsonable`.  Format 1 (one
#: ``float.hex`` string per bucket value) is still read, never written.
_JSON_STATE_FORMAT = 2


def _require_keys(payload: dict, kind: str) -> None:
    for key in _STATE_KEYS:
        if key not in payload:
            raise ValidationError(f"{kind} is missing the {key!r} field")


def _state_count(state: dict, key: str, *, minimum: int) -> int:
    try:
        value = operator.index(state[key])
    except TypeError:
        raise ValidationError(
            f"StreamingMoments state field {key!r} must be an integer, got {state[key]!r}"
        ) from None
    if value < minimum:
        raise ValidationError(
            f"StreamingMoments state field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _state_shape(state) -> tuple[int, bool]:
    """``(n_columns, cross)`` of an in-memory state; rejects unknown payloads."""
    if not isinstance(state, dict) or state.get("format") != 1:
        raise ValidationError("unrecognized StreamingMoments state payload")
    _require_keys(state, "StreamingMoments state")
    return _state_count(state, "n_columns", minimum=1), bool(state["cross"])


def _n_quantities(n_columns: int, cross: bool) -> int:
    return 2 * n_columns + (n_columns * (n_columns - 1) // 2 if cross else 0)


def _integer_vector(state: dict, key: str) -> np.ndarray:
    """``state[key]`` as a 1-D int64 array; an empty vector of any dtype is allowed."""
    vector = np.asarray(state[key])
    if vector.ndim != 1 or (vector.size and not np.issubdtype(vector.dtype, np.integer)):
        raise ValidationError(f"StreamingMoments state field {key!r} must be a 1-D integer vector")
    return vector.astype(np.int64, copy=False)


def _checked_state(state) -> dict:
    """Validate an in-memory sketch state; return it with normalized types.

    Raises :class:`~repro.exceptions.ValidationError` naming the offending
    field.  The bucket indices must be integers, strictly increasing and
    inside ``[0, _N_BUCKETS)``; the bucket values one finite row of
    ``n_quantities`` per index; ``count``, ``deposits`` and the poison
    counters non-negative integers, each poison vector ``n_quantities`` long.
    """
    n_columns, cross = _state_shape(state)
    n_quantities = _n_quantities(n_columns, cross)
    indices = _integer_vector(state, "bucket_indices")
    if indices.size and (
        indices[0] < 0 or indices[-1] >= _N_BUCKETS or np.any(np.diff(indices) <= 0)
    ):
        raise ValidationError(
            "StreamingMoments state field 'bucket_indices' must be strictly increasing "
            f"bucket indices in [0, {_N_BUCKETS})"
        )
    try:
        values = np.asarray(state["bucket_values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"StreamingMoments state field 'bucket_values' is not numeric: {exc}"
        ) from exc
    if values.shape != (indices.size, n_quantities):
        raise ValidationError(
            f"StreamingMoments state field 'bucket_values' has shape {values.shape}, "
            f"expected {(indices.size, n_quantities)} (one row per bucket index)"
        )
    if not np.isfinite(values).all():
        raise ValidationError(
            "StreamingMoments state field 'bucket_values' holds non-finite values"
        )
    checked = {
        "format": 1,
        "n_columns": n_columns,
        "cross": cross,
        "count": _state_count(state, "count", minimum=0),
        "deposits": _state_count(state, "deposits", minimum=0),
        "bucket_indices": indices,
        "bucket_values": values,
    }
    for key in _POISON_KEYS:
        poison = _integer_vector(state, key)
        if poison.shape != (n_quantities,) or (poison < 0).any():
            raise ValidationError(
                f"StreamingMoments state field {key!r} must hold {n_quantities} "
                "non-negative counts"
            )
        checked[key] = poison
    return checked


def state_to_jsonable(state: dict) -> dict:
    """Re-encode a :meth:`StreamingMoments.state` payload as pure JSON types.

    Wire format 2: ``bucket_values`` is one base64 string of the
    little-endian float64 (``"<f8"``) bytes of the ``(len(bucket_indices),
    n_quantities)`` bucket array in row-major order.  Raw bytes round-trip
    **every** double bit-for-bit — negative zero and subnormals included,
    which decimal-repr JSON encoders can silently corrupt — with no
    per-value Python work.  The versioned release bundle persists sketch
    states through this codec, so its byte-identity contract survives a
    JSON round trip.
    """
    state = _checked_state(state)
    values = np.ascontiguousarray(state["bucket_values"], dtype="<f8")
    return {
        "format": _JSON_STATE_FORMAT,
        "n_columns": state["n_columns"],
        "cross": state["cross"],
        "count": state["count"],
        "deposits": state["deposits"],
        "bucket_indices": state["bucket_indices"].tolist(),
        "bucket_values": base64.b64encode(values.tobytes()).decode("ascii"),
        "poison_nan": state["poison_nan"].tolist(),
        "poison_pos": state["poison_pos"].tolist(),
        "poison_neg": state["poison_neg"].tolist(),
    }


def _hex_bucket_values(rows, n_quantities: int) -> np.ndarray:
    """Decode format-1 ``bucket_values``: one ``float.hex`` string per value."""
    values = np.empty((len(rows), n_quantities), dtype=float)
    for row_index, row in enumerate(rows):
        if len(row) != n_quantities:
            raise ValidationError(
                f"bucket row {row_index} has {len(row)} value(s), expected {n_quantities}"
            )
        for column_index, text in enumerate(row):
            try:
                values[row_index, column_index] = float.fromhex(text)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"invalid hex-float bucket value {text!r}") from exc
    return values


def _binary_bucket_values(text, n_rows: int, n_quantities: int) -> np.ndarray:
    """Decode format-2 ``bucket_values``: base64 of the ``"<f8"`` bucket array."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"StreamingMoments JSON state field 'bucket_values' is not valid base64: {exc}"
        ) from exc
    expected = n_rows * n_quantities * 8
    if len(raw) != expected:
        raise ValidationError(
            f"StreamingMoments JSON state field 'bucket_values' holds {len(raw)} bytes, "
            f"expected {expected} ({n_rows} bucket(s) x {n_quantities} float64 values)"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(n_rows, n_quantities)


def state_from_jsonable(payload: dict) -> dict:
    """Invert :func:`state_to_jsonable`; the result feeds :meth:`StreamingMoments.from_state`.

    Reads wire format 2 and the older format 1 (bundles written by earlier
    versions).  The decoded state is validated in full where it is merged.
    """
    kind = "StreamingMoments JSON state payload"
    if not isinstance(payload, dict) or payload.get("format") not in (1, _JSON_STATE_FORMAT):
        raise ValidationError(f"unrecognized {kind}")
    _require_keys(payload, kind)
    n_columns = _state_count(payload, "n_columns", minimum=1)
    cross = bool(payload["cross"])
    n_quantities = _n_quantities(n_columns, cross)
    indices = _integer_vector(payload, "bucket_indices")
    if payload["format"] == 1:
        values = _hex_bucket_values(payload["bucket_values"], n_quantities)
    else:
        values = _binary_bucket_values(payload["bucket_values"], indices.size, n_quantities)
    return {
        "format": 1,
        "n_columns": n_columns,
        "cross": cross,
        "count": payload["count"],
        "deposits": payload["deposits"],
        "bucket_indices": indices,
        "bucket_values": values,
        **{key: _integer_vector(payload, key) for key in _POISON_KEYS},
    }
