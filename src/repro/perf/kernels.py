"""Chunked, vectorized array kernels for the library's hot paths.

The seed implementation computed Manhattan/Chebyshev/Minkowski pairwise
distances through a single ``matrix[:, None, :] - matrix[None, :, :]``
broadcast, which materializes an ``(m, m, n)`` temporary — 1.6 GB for
``m = 5000, n = 8`` — before reducing it to the ``(m, m)`` result.  The
kernels here do the same arithmetic block-by-block under a configurable
memory budget, so peak memory is ``O(m²) + budget`` instead of ``O(m²·n)``,
and each block's reduction is performed element-for-element identically to
the full broadcast (the results are bitwise equal, not merely close).

All functions take and return plain ``numpy`` arrays.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    as_float_matrix,
    as_float_vector,
    check_integer_in_range,
    check_positive,
)
from ..exceptions import ValidationError
from .backends import get_backend

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "resolve_block_size",
    "euclidean_pairwise",
    "pairwise_distances_blocked",
    "cross_squared_distances",
    "assign_nearest_center",
    "max_abs_distance_difference",
    "batched_inverse_rotations",
    "best_inverse_rotation",
    "radius_neighbors_blocked",
    "radius_neighbors_from_distances",
]

#: Default cap on the size of any temporary a chunked kernel materializes.
#: 64 MiB keeps blocks comfortably inside L3-ish working sets while still
#: being large enough that the per-block Python overhead is negligible.
DEFAULT_MEMORY_BUDGET_BYTES: int = 64 * 1024 * 1024


def resolve_block_size(
    n_rows: int,
    bytes_per_row: int,
    memory_budget_bytes: int | None = None,
    *,
    n_consumers: int = 1,
) -> int:
    """Number of rows a chunked kernel may process per block.

    ``bytes_per_row`` is the size of the temporary one row of the block
    generates; the block size is clamped to ``[1, n_rows]`` so a budget
    smaller than a single row still makes progress one row at a time.

    ``n_consumers`` is the number of blocks that may be live concurrently —
    parallel backends pass their worker count — and divides the budget, so
    ``n_consumers`` in-flight blocks together still materialize at most one
    budget's worth of temporaries (down to the one-row-per-block floor).
    """
    budget = (
        DEFAULT_MEMORY_BUDGET_BYTES if memory_budget_bytes is None else int(memory_budget_bytes)
    )
    if budget <= 0:
        raise ValidationError(f"memory_budget_bytes must be positive, got {budget}")
    n_consumers = check_integer_in_range(n_consumers, name="n_consumers", minimum=1)
    if bytes_per_row <= 0:
        return n_rows
    return max(1, min(n_rows, (budget // n_consumers) // bytes_per_row))


def euclidean_pairwise(matrix: np.ndarray) -> np.ndarray:
    """Numerically safe vectorized Euclidean pairwise distances (Equation 6).

    Dense one-shot form built on a full GEMM.  The blocked kernel
    (:func:`pairwise_distances_blocked`) uses the per-row products of
    ``_euclidean_block`` instead: GEMM reduction bits vary with operand
    shape, so this form is numerically equivalent to the kernel but not
    bit-identical to it.
    """
    squared_norms = np.sum(matrix**2, axis=1)
    # repro-lint: disable=RPR007 -- dense one-shot form, documented non-bitwise vs the kernel
    squared = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (matrix @ matrix.T)
    np.maximum(squared, 0.0, out=squared)
    distances = np.sqrt(squared)
    np.fill_diagonal(distances, 0.0)
    return distances


def _metric_rows(
    matrix: np.ndarray, start: int, stop: int, metric: str, p: float, scratch=None
) -> np.ndarray:
    """One block of non-Euclidean distance rows.

    The arithmetic is elementwise per ``(i, j)`` cell, so reusing a caller
    scratch buffer or allocating a fresh difference block produces the same
    bits — which is what lets serial scratch reuse and per-worker fresh
    allocation coexist under the bitwise contract.
    """
    if scratch is None:
        diff = matrix[start:stop, None, :] - matrix[None, :, :]
    else:
        diff = scratch[: stop - start]
        np.subtract(matrix[start:stop, None, :], matrix[None, :, :], out=diff)
    np.abs(diff, out=diff)
    if metric == "manhattan":
        return diff.sum(axis=2)
    if metric == "chebyshev":
        return diff.max(axis=2)
    np.power(diff, p, out=diff)
    return diff.sum(axis=2) ** (1.0 / p)


def _distance_rows_worker(arrays, start: int, stop: int, *, metric: str, p: float) -> np.ndarray:
    """Distance rows ``start:stop`` (module level so process backends can ship it)."""
    matrix = arrays["matrix"]
    if metric == "euclidean":
        distances = _euclidean_block(matrix, arrays["squared_norms"], start, stop)
        # The dense path zeroes the diagonal; mirror that per block.
        rows = np.arange(start, stop)
        distances[rows - start, rows] = 0.0
        return distances
    return _metric_rows(matrix, start, stop, metric, p)


def pairwise_distances_blocked(
    data,
    *,
    metric: str = "euclidean",
    p: float = 2.0,
    memory_budget_bytes: int | None = None,
    backend=None,
) -> np.ndarray:
    """Full ``(m, m)`` pairwise-distance matrix, computed block-by-block.

    Supported metrics: ``euclidean`` (Gram-matrix trick, never needs the
    3-D temporary), ``manhattan``, ``chebyshev`` and ``minkowski`` (order
    ``p``).  The non-Euclidean metrics process row blocks sized so that the
    ``(block, m, n)`` difference temporary stays within
    ``memory_budget_bytes``.

    ``backend`` selects the execution backend for the row blocks (see
    :mod:`repro.perf.backends`); the serial and process-pool backends are
    bitwise identical because each row block's arithmetic is unchanged and
    blocks are merged in row order.
    """
    matrix = as_float_matrix(data, name="data")
    metric = metric.lower()
    if metric not in ("euclidean", "manhattan", "chebyshev", "minkowski"):
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of euclidean, manhattan, chebyshev, minkowski"
        )
    if metric == "minkowski":
        p = check_positive(p, name="p")
    backend = get_backend(backend)

    m, n = matrix.shape
    out = np.empty((m, m), dtype=float)
    if metric == "euclidean":
        # Per-block Gram rows merged in row order; ``_euclidean_block``'s
        # per-row products make every block size — and therefore every
        # backend — produce the same bits.
        block = backend.resolve_block_size(m, 3 * matrix.itemsize * m, memory_budget_bytes)
        arrays = {"matrix": matrix, "squared_norms": np.sum(matrix**2, axis=1)}
        for start, stop, rows in backend.imap_blocks(
            _distance_rows_worker, m, block, arrays=arrays, kwargs={"metric": metric, "p": p}
        ):
            out[start:stop] = rows
        return out
    block = backend.resolve_block_size(m, m * n * matrix.itemsize, memory_budget_bytes)
    if backend.name == "serial":
        scratch = np.empty((block, m, n), dtype=float)
        for start in range(0, m, block):
            stop = min(start + block, m)
            out[start:stop] = _metric_rows(matrix, start, stop, metric, p, scratch=scratch)
        return out
    for start, stop, rows in backend.imap_blocks(
        _distance_rows_worker, m, block, arrays={"matrix": matrix}, kwargs={"metric": metric, "p": p}
    ):
        out[start:stop] = rows
    return out


def _neighbor_rows_worker(
    arrays, start: int, stop: int, *, metric: str, p: float, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """One block's CSR pieces: per-row neighbor counts + ascending columns."""
    matrix = arrays["matrix"]
    if metric == "euclidean":
        distances = _euclidean_block(matrix, arrays["squared_norms"], start, stop)
        # The dense path zeroes the diagonal; mirror that so round-off on
        # d(i, i) cannot drop an object from its own neighborhood.
        rows = np.arange(start, stop)
        distances[rows - start, rows] = 0.0
    else:
        distances = _metric_rows(matrix, start, stop, metric, p)
    local_rows, local_cols = np.nonzero(distances <= eps)
    counts = np.bincount(local_rows, minlength=stop - start).astype(np.intp, copy=False)
    return counts, local_cols.astype(np.intp, copy=False)


def radius_neighbors_blocked(
    data,
    eps: float,
    *,
    metric: str = "euclidean",
    p: float = 2.0,
    memory_budget_bytes: int | None = None,
    backend=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compressed neighbor lists ``{j : d(i, j) <= eps}`` for every row ``i``.

    Returns CSR-style ``(indptr, indices)``: row ``i``'s neighbors (self
    included, since ``d(i, i) = 0``) are ``indices[indptr[i]:indptr[i + 1]]``
    in ascending order.  Distances are computed block-row-wise under
    ``memory_budget_bytes``, so neither the full ``(m, m)`` distance matrix
    nor a dense boolean adjacency is ever materialized — peak memory is the
    budget plus the neighbor lists themselves.  Per-element arithmetic is
    identical to :func:`pairwise_distances_blocked`, so the neighbor sets
    match a dense threshold of that matrix.

    Row blocks may execute on any ``backend``; neighbor sets are a pure
    elementwise threshold per block and blocks are concatenated in row
    order, so every backend returns identical CSR arrays.
    """
    matrix = as_float_matrix(data, name="data")
    eps = float(eps)
    metric = metric.lower()
    if metric not in ("euclidean", "manhattan", "chebyshev", "minkowski"):
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of euclidean, manhattan, chebyshev, minkowski"
        )
    if metric == "minkowski":
        p = check_positive(p, name="p")
    backend = get_backend(backend)

    m, n = matrix.shape
    arrays = {"matrix": matrix}
    if metric == "euclidean":
        # ``_euclidean_block`` rows, exactly as in
        # ``pairwise_distances_blocked``, so the thresholded sets match a
        # dense threshold of that matrix bitwise.  Live per block: two
        # (block, m) float temporaries inside ``_euclidean_block``, the
        # distance block itself, and the boolean threshold mask.
        arrays["squared_norms"] = np.sum(matrix**2, axis=1)
        block = backend.resolve_block_size(m, (3 * matrix.itemsize + 1) * m, memory_budget_bytes)
    else:
        block = backend.resolve_block_size(m, (n + 2) * m * matrix.itemsize, memory_budget_bytes)

    counts = np.empty(m, dtype=np.intp)
    chunks: list[np.ndarray] = []
    for start, stop, (block_counts, block_cols) in backend.imap_blocks(
        _neighbor_rows_worker, m, block, arrays=arrays, kwargs={"metric": metric, "p": p, "eps": eps}
    ):
        counts[start:stop] = block_counts
        chunks.append(block_cols)

    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
    return indptr, indices


def radius_neighbors_from_distances(
    distances,
    eps: float,
    *,
    memory_budget_bytes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR neighbor lists from a precomputed distance matrix.

    Same contract as :func:`radius_neighbors_blocked`, but thresholds an
    existing ``(m, m)`` matrix block-row-wise so only one boolean block is
    live at a time (the matrix's own diagonal decides self-membership,
    matching a dense ``distances <= eps`` comparison exactly).
    """
    distances = as_float_matrix(distances, name="distances")
    if distances.shape[0] != distances.shape[1]:
        raise ValidationError(f"distances must be square, got {distances.shape}")
    eps = float(eps)
    m = distances.shape[0]
    block = resolve_block_size(
        m, bytes_per_row=2 * m * distances.itemsize, memory_budget_bytes=memory_budget_bytes
    )
    counts = np.empty(m, dtype=np.intp)
    chunks: list[np.ndarray] = []
    for start in range(0, m, block):
        stop = min(start + block, m)
        local_rows, local_cols = np.nonzero(distances[start:stop] <= eps)
        counts[start:stop] = np.bincount(local_rows, minlength=stop - start)
        chunks.append(local_cols.astype(np.intp, copy=False))
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
    return indptr, indices


def cross_squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(m, k)`` squared Euclidean distances via ``‖x‖² + ‖c‖² − 2x·c``.

    Replaces the ``(m, k, n)`` broadcast the seed k-means assignment used
    with one matrix product; negative round-off is clamped to zero.
    """
    # repro-lint: disable=RPR007 -- full-array norms, never blocked
    point_norms = np.einsum("ij,ij->i", points, points)
    # repro-lint: disable=RPR007 -- full-array norms, never blocked
    center_norms = np.einsum("ij,ij->i", centers, centers)
    # repro-lint: disable=RPR007 -- one full (m, n) x (n, k) product, shapes fixed per call
    squared = point_norms[:, None] + center_norms[None, :] - 2.0 * (points @ centers.T)
    np.maximum(squared, 0.0, out=squared)
    return squared


def assign_nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every point (ties go to the lowest index).

    Unlike the explicit ``(m, k, n)`` difference broadcast, the Gram-matrix
    form loses precision when ``‖x‖²`` dwarfs the squared distances (data far
    from the origin), which could flip assignments between near-equidistant
    centers.  Distances are translation-invariant, so both operands are
    shifted by the center mean first — that keeps the norms on the order of
    the distances themselves and makes the fast path safe for un-normalized
    inputs too.
    """
    shift = centers.mean(axis=0)
    return cross_squared_distances(points - shift, centers - shift).argmin(axis=1)


def _distance_difference_worker(arrays, start: int, stop: int) -> float:
    """Block maximum of ``|d(i,j) − d'(i,j)|`` for rows ``start:stop``."""
    first = arrays["first"]
    second = arrays["second"]
    rows = np.arange(start, stop)
    distances_first = _euclidean_block(first, arrays["first_norms"], start, stop)
    distances_second = _euclidean_block(second, arrays["second_norms"], start, stop)
    # The full-matrix computation zeroes the diagonal; mirror that here so
    # round-off on d(i, i) cannot masquerade as distortion.
    distances_first[rows - start, rows] = 0.0
    distances_second[rows - start, rows] = 0.0
    np.abs(distances_first - distances_second, out=distances_first)
    return float(distances_first.max())


def max_abs_distance_difference(
    first,
    second,
    *,
    memory_budget_bytes: int | None = None,
    backend=None,
) -> float:
    """``max |d(i,j) − d'(i,j)|`` over all pairs, without two full matrices.

    This is the Theorem 2 isometry check: the seed pipeline materialized the
    complete dissimilarity matrices of both datasets (two ``(m, m)`` arrays
    plus their difference) just to take one maximum.  Here each row block's
    Euclidean distances are computed for both datasets, compared, and
    discarded, so peak memory is bounded by the budget regardless of ``m``.

    The running ``max`` over per-block maxima is merged in block order on
    every ``backend``, matching the serial scan exactly.
    """
    first = as_float_matrix(first, name="first")
    second = as_float_matrix(second, name="second")
    if first.shape[0] != second.shape[0]:
        raise ValidationError(
            f"first and second must describe the same objects, got {first.shape[0]} "
            f"and {second.shape[0]} rows"
        )
    backend = get_backend(backend)
    m = first.shape[0]
    arrays = {
        "first": first,
        "second": second,
        # repro-lint: disable=RPR007 -- full-array norms staged once, block-size independent
        "first_norms": np.einsum("ij,ij->i", first, first),
        # repro-lint: disable=RPR007 -- full-array norms staged once, block-size independent
        "second_norms": np.einsum("ij,ij->i", second, second),
    }
    # Each block materializes ~4 (block, m) temporaries (two squared-distance
    # blocks and scratch); size the block accordingly.
    block = backend.resolve_block_size(m, 4 * m * first.itemsize, memory_budget_bytes)
    worst = 0.0
    for _start, _stop, value in backend.imap_blocks(
        _distance_difference_worker, m, block, arrays=arrays
    ):
        worst = max(worst, value)
    return worst


def _euclidean_block(
    matrix: np.ndarray, squared_norms: np.ndarray, start: int, stop: int
) -> np.ndarray:
    # In-place staging of ‖x‖² + ‖y‖² − 2x·y, with the cross terms computed
    # as one fixed-shape (m, n)·(n,) product per row.  A (block, m) GEMM
    # would be faster, but BLAS reduction bits depend on the operand shapes,
    # so its last-ulp output would change with the block decomposition; the
    # per-row form depends only on (m, n), which is what keeps every block
    # size — and therefore every backend — bitwise identical.
    cross = np.empty((stop - start, matrix.shape[0]), dtype=float)
    for row in range(start, stop):
        # repro-lint: disable=RPR007 -- fixed-shape per-row matvec, the contract's exemplar
        np.dot(matrix, matrix[row], out=cross[row - start])
    squared = squared_norms[start:stop, None] + squared_norms[None, :]
    cross *= 2.0
    squared -= cross
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared, out=squared)


def batched_inverse_rotations(
    column_i,
    column_j,
    angles_degrees,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``R(θ)⁻¹ = R(θ)ᵀ`` to a column pair for a whole grid of angles.

    Returns two ``(n_angles, m)`` arrays — the candidate restorations of the
    pair under every angle — replacing the brute-force attack's per-θ Python
    loop with one stacked matrix product.  The stacked product goes through
    the same BLAS kernel as the per-θ ``R(θ)ᵀ @ stacked`` products it
    replaces, so the restorations are bitwise identical and exact score
    ties (which arise structurally, e.g. θ vs θ+90° under column
    swap/negation) resolve to the same angle as the seed scan.
    """
    column_i = as_float_vector(column_i, name="column_i")
    column_j = as_float_vector(column_j, name="column_j")
    if column_i.shape != column_j.shape:
        raise ValidationError(
            f"column_i and column_j must have the same length, got {column_i.size} and {column_j.size}"
        )
    theta = np.deg2rad(np.asarray(angles_degrees, dtype=float).ravel())
    cos = np.cos(theta)
    sin = np.sin(theta)
    # The paper's R(θ) is clockwise, [[c, s], [−s, c]], so R(θ)ᵀ = [[c, −s], [s, c]].
    transposed = np.empty((theta.size, 2, 2), dtype=float)
    transposed[:, 0, 0] = cos
    transposed[:, 0, 1] = -sin
    transposed[:, 1, 0] = sin
    transposed[:, 1, 1] = cos
    # repro-lint: disable=RPR007 -- stacked (k, 2, 2) @ (2, m) products, shapes fixed per call
    restored = transposed @ np.vstack([column_i, column_j])
    return restored[:, 0, :], restored[:, 1, :]


def _angle_scan_worker(
    arrays,
    start: int,
    stop: int,
    *,
    scorer: str,
    candidate_variances=None,
    targets=None,
    pair_indices=None,
):
    """Best angle within one grid block: ``(local index, score, restored pair)``."""
    restored_i, restored_j = batched_inverse_rotations(
        arrays["column_i"], arrays["column_j"], arrays["angles"][start:stop]
    )
    if scorer == "unit_moments":
        # Summation order mirrors the seed per-θ scorer (variance terms
        # first, then mean terms).
        scores = (
            (restored_i.var(axis=1, ddof=1) - 1.0) ** 2
            + (restored_j.var(axis=1, ddof=1) - 1.0) ** 2
        ) + (restored_i.mean(axis=1) ** 2 + restored_j.mean(axis=1) ** 2)
    else:
        # (block, m, 2) → var over the row axis: per-column strided
        # reductions, identical bits to a trial matrix materialized per θ.
        pair_variances = np.stack((restored_i, restored_j), axis=2).var(axis=1, ddof=1)
        index_i, index_j = pair_indices
        trial_variances = np.repeat(
            np.asarray(candidate_variances, dtype=float)[None, :], stop - start, axis=0
        )
        trial_variances[:, index_i] = pair_variances[:, 0]
        trial_variances[:, index_j] = pair_variances[:, 1]
        scores = np.sum((trial_variances - np.asarray(targets, dtype=float)) ** 2, axis=1)
    local = int(scores.argmin())
    return local, float(scores[local]), restored_i[local].copy(), restored_j[local].copy()


def best_inverse_rotation(
    column_i,
    column_j,
    angles_degrees,
    *,
    scorer: str = "unit_moments",
    candidate_variances=None,
    targets=None,
    pair_indices=None,
    memory_budget_bytes: int | None = None,
    backend=None,
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """First-minimum scan of an inverse-rotation angle grid, block by block.

    Evaluates :func:`batched_inverse_rotations` over ``angles_degrees`` in
    blocks sized under ``memory_budget_bytes`` (per block the live
    temporaries are the two ``(block, m)`` restored arrays, the stacked
    matmul operands and the score vector — ~6 row-length floats per angle)
    and returns ``(angle_index, score, restored_i, restored_j)`` for the
    first angle attaining the minimum score.

    Scorers
    -------
    ``"unit_moments"``
        The brute-force attack's public-statistics score: squared deviation
        of both restored columns from unit variance and zero mean.
    ``"variance_profile"``
        The variance-fingerprint score: squared deviation of the full trial
        variance vector from ``targets``, where ``candidate_variances`` are
        the unrotated column variances and ``pair_indices`` names the two
        columns being re-measured.

    Per-angle restorations and scores depend only on that angle's rows, and
    per-block ``(argmin, min)`` partials merged with a strict ``<`` in block
    order reproduce the first-occurrence tie-break of the sequential scan —
    so any block size on any backend (serial or process-pool) returns the
    same bits, exact ties included.
    """
    column_i = as_float_vector(column_i, name="column_i")
    column_j = as_float_vector(column_j, name="column_j")
    if column_i.shape != column_j.shape:
        raise ValidationError(
            f"column_i and column_j must have the same length, got {column_i.size} and {column_j.size}"
        )
    angles = np.asarray(angles_degrees, dtype=float).ravel()
    if angles.size == 0:
        raise ValidationError("angles_degrees must not be empty")
    if scorer not in ("unit_moments", "variance_profile"):
        raise ValidationError(
            f"unknown scorer {scorer!r}; expected 'unit_moments' or 'variance_profile'"
        )
    if scorer == "variance_profile" and (
        candidate_variances is None or targets is None or pair_indices is None
    ):
        raise ValidationError(
            "the variance_profile scorer needs candidate_variances, targets and pair_indices"
        )
    backend = get_backend(backend)
    block = backend.resolve_block_size(
        angles.size, 6 * column_i.size * column_i.itemsize, memory_budget_bytes
    )
    kwargs = {"scorer": scorer}
    if scorer == "variance_profile":
        kwargs.update(
            candidate_variances=np.asarray(candidate_variances, dtype=float),
            targets=np.asarray(targets, dtype=float),
            pair_indices=(int(pair_indices[0]), int(pair_indices[1])),
        )
    best_index = -1
    best_score = np.inf
    best_restored: tuple[np.ndarray, np.ndarray] | None = None
    fallback = None
    for start, _stop, (local, score, restored_i, restored_j) in backend.imap_blocks(
        _angle_scan_worker,
        angles.size,
        block,
        arrays={"column_i": column_i, "column_j": column_j, "angles": angles},
        kwargs=kwargs,
    ):
        if fallback is None:
            fallback = (start + local, score, restored_i, restored_j)
        if score < best_score:
            best_score = score
            best_index = start + local
            best_restored = (restored_i, restored_j)
    if best_restored is None:
        # Every score was NaN (degenerate single-row input): return the first
        # block's argmin so the scan stays deterministic instead of crashing.
        best_index, best_score, *rest = fallback
        best_restored = (rest[0], rest[1])
    return best_index, best_score, best_restored[0], best_restored[1]
