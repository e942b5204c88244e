"""Pluggable execution backends for the perf-layer kernels.

Every chunked kernel in :mod:`repro.perf` reduces a sequence of independent
blocks — distance row-blocks, streamed moment tiles, angle-grid blocks — and
merges the per-block partials in block order.  PRs 1–5 made each of those
reductions *chunk-invariant*: the same bits come out for any block size,
because per-block arithmetic is elementwise (or exactly rounded) and the
merge order is fixed.  That property is exactly what makes the blocks safe
to fan out to workers: compute each block anywhere, merge in block order,
and the result is bitwise identical to the serial scan.

This module owns the fan-out.  An :class:`ExecutionBackend` turns
``(worker fn, n_items, block size)`` into an ordered stream of
``(start, stop, result)`` triples:

* :class:`SerialBackend` — runs every block inline; the default and the
  reference behaviour.
* :class:`ProcessPoolBackend` — ships the input arrays to worker processes
  through :mod:`multiprocessing.shared_memory` (one publication per call,
  no per-task array pickling), runs one task per block on a persistent
  process pool, and yields results in ascending block order regardless of
  completion order.  Because the merge order is fixed and the per-block
  arithmetic is untouched, its results are **bitwise equal** to
  :class:`SerialBackend` for every routed kernel.

Memory contract
---------------
``ExecutionBackend.resolve_block_size`` divides the caller's
``memory_budget_bytes`` by the number of active workers
(``n_consumers`` in :func:`repro.perf.kernels.resolve_block_size`), so N
blocks being reduced concurrently never materialize more temporary bytes
than the serial envelope.  The in-flight submission window is bounded
(``2 × workers``), so queued results cannot pile up past the same order of
magnitude.

Defaults and the environment
----------------------------
Kernels resolve ``backend=None`` through :func:`default_backend`, which
reads ``REPRO_BACKEND`` (``serial`` | ``process-pool``) and
``REPRO_KERNEL_WORKERS``.  Inside a worker process the default is always
serial — a kernel running in a pool worker must never recursively fan out.
Backends returned for string specs are shared per-process singletons; only
explicitly constructed :class:`ProcessPoolBackend` instances need
:meth:`~ProcessPoolBackend.close`.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from itertools import islice
from multiprocessing import shared_memory

import numpy as np

from .._validation import check_integer_in_range
from ..exceptions import ValidationError

__all__ = [
    "BACKEND_ENV_VAR",
    "WORKERS_ENV_VAR",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "iter_block_bounds",
    "normalize_backend_name",
]

#: Environment variable naming the default backend for ``backend=None`` calls.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Environment variable with the default worker count for parallel backends.
WORKERS_ENV_VAR = "REPRO_KERNEL_WORKERS"


def iter_block_bounds(n_items: int, block_items: int):
    """Yield ``(start, stop)`` bounds covering ``range(n_items)`` in blocks."""
    block_items = max(1, int(block_items))
    for start in range(0, int(n_items), block_items):
        yield start, min(start + block_items, int(n_items))


# --------------------------------------------------------------------------- #
# Worker-side plumbing (module level so process pools can pickle it)
# --------------------------------------------------------------------------- #
def _materialize(value):
    """Deep-copy any array view in ``value`` so it owns its buffer.

    Worker results may be views into the shared-memory segments; those
    segments are closed before the result is pickled back, so every
    non-owning array must be copied first.
    """
    if isinstance(value, np.ndarray):
        return value if value.flags.owndata else value.copy()
    if isinstance(value, tuple):
        return tuple(_materialize(item) for item in value)
    if isinstance(value, list):
        return [_materialize(item) for item in value]
    if isinstance(value, dict):
        return {key: _materialize(item) for key, item in value.items()}
    return value


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the segment with the resource tracker (until the
    # ``track=`` parameter of 3.13), but the tracker is shared with the
    # parent under fork and the parent already registered the segment at
    # creation — a second registration per worker means duplicate
    # unregisters and tracker KeyErrors at unlink.  The parent owns the
    # segment's lifetime outright, so suppress registration while attaching.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach_and_run(fn, specs: dict, start: int, stop: int, kwargs: dict):
    """Attach the published arrays and run one block task in a pool worker."""
    arrays: dict[str, np.ndarray] = {}
    segments: list[shared_memory.SharedMemory] = []
    try:
        for name, spec in specs.items():
            if spec["shm"] is None:
                arrays[name] = spec["data"]
                continue
            segment = _attach_segment(spec["shm"])
            segments.append(segment)
            view = np.ndarray(spec["shape"], dtype=np.dtype(spec["dtype"]), buffer=segment.buf)
            view.setflags(write=False)
            arrays[name] = view
        result = _materialize(fn(arrays, start, stop, **kwargs))
    finally:
        arrays.clear()
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a leaked view; freed at exit
                pass
    return result


def _worker_initializer() -> None:
    # A kernel running inside a pool worker must never recursively fan out:
    # pin the environment default to serial for this process and its
    # children (default_backend() also checks parent_process() directly).
    os.environ[BACKEND_ENV_VAR] = "serial"


def _publish_arrays(arrays: dict) -> tuple[dict, list[shared_memory.SharedMemory]]:
    """Copy the input arrays into shared memory; return attach specs + segments."""
    specs: dict[str, dict] = {}
    segments: list[shared_memory.SharedMemory] = []
    for name, value in arrays.items():
        array = np.ascontiguousarray(value)
        if array.nbytes == 0:
            # Zero-byte segments are invalid; ship the (empty) array itself.
            specs[name] = {"shm": None, "data": array}
            continue
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
        segments.append(segment)
        specs[name] = {
            "shm": segment.name,
            "shape": array.shape,
            "dtype": array.dtype.str,
            "data": None,
        }
    return specs, segments


def _release_segments(segments) -> None:
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a leaked view; freed at exit
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
class ExecutionBackend:
    """How a chunked kernel executes its blocks.

    A worker function has the signature
    ``fn(arrays: dict[str, np.ndarray], start: int, stop: int, **kwargs)``
    and must be a module-level callable (process backends pickle it by
    reference).  ``arrays`` are shared read-only inputs; ``start:stop`` is
    the item range of one block; the return value must be picklable.

    :meth:`imap_blocks` yields ``(start, stop, result)`` in **ascending
    block order** — the fixed merge order that keeps every routed reduction
    bitwise equal to its serial scan.
    """

    name = "base"

    @property
    def workers(self) -> int:
        """Number of blocks this backend reduces concurrently."""
        return 1

    def resolve_block_size(
        self,
        n_items: int,
        bytes_per_item: int,
        memory_budget_bytes: int | None = None,
    ) -> int:
        """Block size under the budget, divided across this backend's workers.

        With N workers each holding one block's temporaries, dividing the
        budget by N keeps the *summed* live bytes within the serial
        envelope — the global ``memory_budget_bytes`` contract.
        """
        from .kernels import resolve_block_size

        return resolve_block_size(
            n_items, bytes_per_item, memory_budget_bytes, n_consumers=self.workers
        )

    def imap_blocks(self, fn, n_items: int, block_items: int, *, arrays=None, kwargs=None):
        """Yield ``(start, stop, fn(arrays, start, stop, **kwargs))`` in order."""
        arrays = arrays or {}
        kwargs = kwargs or {}
        for start, stop in iter_block_bounds(n_items, block_items):
            yield start, stop, fn(arrays, start, stop, **kwargs)

    def map_blocks(self, fn, n_items: int, block_items: int, *, arrays=None, kwargs=None):
        """List of per-block results, in block order."""
        return [
            result
            for _, _, result in self.imap_blocks(
                fn, n_items, block_items, arrays=arrays, kwargs=kwargs
            )
        ]

    def close(self) -> None:
        """Release any pooled resources (no-op for inline backends)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """Run every block inline in the calling process (the default)."""

    name = "serial"


class ProcessPoolBackend(ExecutionBackend):
    """Fan blocks out to a persistent process pool via shared memory.

    Input arrays are published to :mod:`multiprocessing.shared_memory` once
    per call; each task ships only the segment descriptors, the block bounds
    and the (small) ``kwargs`` — never the arrays themselves.  Results are
    yielded in ascending block order, so every reduction built on
    :meth:`imap_blocks` merges exactly like the serial scan and stays
    bitwise identical to it.

    The pool is created lazily on the first multi-block call and reused
    until :meth:`close`.  Single-block calls run inline — tiny inputs never
    pay the round-trip.
    """

    name = "process-pool"

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        self._workers = check_integer_in_range(workers, name="workers", minimum=1)
        self._pool: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, initializer=_worker_initializer
            )
        return self._pool

    def imap_blocks(self, fn, n_items: int, block_items: int, *, arrays=None, kwargs=None):
        arrays = arrays or {}
        kwargs = kwargs or {}
        bounds = list(iter_block_bounds(n_items, block_items))
        if len(bounds) <= 1 or self._workers == 1:
            for start, stop in bounds:
                yield start, stop, fn(arrays, start, stop, **kwargs)
            return
        specs, segments = _publish_arrays(arrays)
        pending: deque = deque()
        try:
            pool = self._ensure_pool()
            iterator = iter(bounds)
            # Bounded in-flight window: enough tasks to keep the workers
            # busy, few enough that queued results stay within the same
            # order of magnitude as one budget's worth of blocks.
            for start, stop in islice(iterator, 2 * self._workers):
                pending.append(
                    (start, stop, pool.submit(_attach_and_run, fn, specs, start, stop, kwargs))
                )
            while pending:
                start, stop, future = pending.popleft()
                for next_start, next_stop in islice(iterator, 1):
                    pending.append(
                        (
                            next_start,
                            next_stop,
                            pool.submit(
                                _attach_and_run, fn, specs, next_start, next_stop, kwargs
                            ),
                        )
                    )
                # Consuming strictly in submission (= block) order fixes the
                # merge order, whatever order the workers finish in.
                yield start, stop, future.result()
        finally:
            # On early exit (error or abandoned generator) let in-flight
            # tasks drain before the segments are unlinked under them.
            if pending:
                for _, _, future in pending:
                    future.cancel()
                wait([future for _, _, future in pending])
            _release_segments(segments)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# --------------------------------------------------------------------------- #
# Registry and defaults
# --------------------------------------------------------------------------- #
_BACKEND_NAMES = ("serial", "process-pool")

#: Per-process shared instances for string specs, keyed by (name, workers).
_SHARED: dict[tuple, ExecutionBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return _BACKEND_NAMES


def normalize_backend_name(name: str) -> str:
    """Canonical backend name for ``name``; raises on unknown specs."""
    normalized = str(name).strip().lower().replace("_", "-")
    if normalized == "process":
        normalized = "process-pool"
    if normalized not in _BACKEND_NAMES:
        known = ", ".join(_BACKEND_NAMES)
        raise ValidationError(f"unknown backend {name!r}; expected one of {known}")
    return normalized


def _shared_instance(name: str, workers: int | None) -> ExecutionBackend:
    if name == "process-pool":
        resolved = (
            check_integer_in_range(workers, name="workers", minimum=1)
            if workers is not None
            else (os.cpu_count() or 1)
        )
        key = (name, resolved)
        if key not in _SHARED:
            _SHARED[key] = ProcessPoolBackend(workers=resolved)
        return _SHARED[key]
    # Serial runs inline; a worker count is meaningless and ignored.
    key = (name, 1)
    if key not in _SHARED:
        _SHARED[key] = SerialBackend()
    return _SHARED[key]


def default_backend() -> ExecutionBackend:
    """The backend used when a kernel is called with ``backend=None``.

    Resolution order: inside a pool worker → always serial (no recursive
    fan-out); otherwise ``$REPRO_BACKEND`` (with ``$REPRO_KERNEL_WORKERS``)
    when set; otherwise serial.  Re-read on every call, so tests and
    long-lived processes may flip the environment at any time.
    """
    if multiprocessing.parent_process() is not None:
        return _shared_instance("serial", None)
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name:
        return _shared_instance("serial", None)
    workers_env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    workers = None
    if workers_env:
        try:
            workers = int(workers_env)
        except ValueError:
            raise ValidationError(
                f"${WORKERS_ENV_VAR} must be an integer, got {workers_env!r}"
            ) from None
    return _shared_instance(normalize_backend_name(name), workers)


def get_backend(backend=None, *, workers: int | None = None) -> ExecutionBackend:
    """Resolve a backend spec to an :class:`ExecutionBackend`.

    ``backend`` may be an instance (returned as-is), a name from
    :func:`available_backends`, or ``None``.  ``None`` resolves through
    :func:`default_backend` — unless ``workers`` is given, which implies
    ``process-pool`` (the CLI's ``--kernel-workers`` shorthand).  String
    specs return shared per-process instances; don't ``close()`` them.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        if workers is not None:
            return _shared_instance("process-pool", workers)
        return default_backend()
    if isinstance(backend, str):
        return _shared_instance(normalize_backend_name(backend), workers)
    raise ValidationError(
        f"backend must be an ExecutionBackend, a name or None, got {type(backend).__name__}"
    )
