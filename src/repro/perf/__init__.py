"""Shared high-performance compute kernels used by the library's hot paths.

Every expensive inner loop of the reproduction funnels through this package:

* :mod:`repro.perf.kernels` — chunked pairwise-distance kernels with a
  configurable memory budget, block-wise maximum distance distortion
  (the Theorem 2 check), the ``‖x‖² + ‖c‖² − 2x·c`` cross-distance trick
  used by k-means assignment, and batched inverse rotations for the
  brute-force attack's angle grid.
* :mod:`repro.perf.analytic` — the closed-form solver for the variance-vs-θ
  threshold crossings behind the security range (Figures 2/3), replacing the
  dense-grid + bisection search with quartic root finding plus Newton polish.
* :mod:`repro.perf.cache` — a content-addressed LRU cache of pairwise
  distance matrices, shared by every distance-based clustering consumer so
  each (dataset, metric) matrix is computed exactly once per pipeline run.
* :mod:`repro.perf.streaming` — chunk-size-invariant tiled moment
  accumulators (fsum-combined per-tile partials) that make the streaming
  release pipeline's statistics bitwise identical to the in-memory path.
* :mod:`repro.perf.backends` — pluggable execution backends (serial and a
  shared-memory process pool) behind which every chunked kernel above fans
  its blocks out; merge order is fixed, so serial and process-pool results
  are bitwise identical.

The kernels operate on plain ``numpy`` arrays and know nothing about the
domain objects (``DataMatrix``, ``SecurityRange``, …); the domain modules in
:mod:`repro.metrics`, :mod:`repro.core`, :mod:`repro.clustering`,
:mod:`repro.attacks` and :mod:`repro.pipeline` own the semantics and delegate
the arithmetic here.
"""

from .backends import (
    BACKEND_ENV_VAR,
    WORKERS_ENV_VAR,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_backends,
    default_backend,
    get_backend,
)
from .analytic import (
    curve_admissible_intervals,
    intersect_circular_intervals,
    pair_moments,
    solve_admissible_angles,
    threshold_crossings,
    variance_curves_from_moments,
)
from .cache import DistanceCache
from .streaming import STREAM_TILE_ROWS, StreamingMoments, streamed_pair_moments
from .kernels import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    assign_nearest_center,
    batched_inverse_rotations,
    best_inverse_rotation,
    cross_squared_distances,
    euclidean_pairwise,
    max_abs_distance_difference,
    pairwise_distances_blocked,
    radius_neighbors_blocked,
    radius_neighbors_from_distances,
    resolve_block_size,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "STREAM_TILE_ROWS",
    "WORKERS_ENV_VAR",
    "DistanceCache",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "StreamingMoments",
    "available_backends",
    "best_inverse_rotation",
    "default_backend",
    "get_backend",
    "streamed_pair_moments",
    "assign_nearest_center",
    "batched_inverse_rotations",
    "cross_squared_distances",
    "euclidean_pairwise",
    "max_abs_distance_difference",
    "pairwise_distances_blocked",
    "radius_neighbors_blocked",
    "radius_neighbors_from_distances",
    "resolve_block_size",
    "curve_admissible_intervals",
    "intersect_circular_intervals",
    "pair_moments",
    "solve_admissible_angles",
    "threshold_crossings",
    "variance_curves_from_moments",
]
