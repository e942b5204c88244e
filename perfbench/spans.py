"""Span recorder for the traced benchmark run.

The recorder times calls into each layer's public entry points by wrapping
them from the outside: :meth:`SpanRecorder.install` replaces every binding
of a wrapped function in the loaded ``repro`` modules (``from x import f``
copies included) and every wrapped method on its class, and
:meth:`SpanRecorder.uninstall` puts the originals back.  Nothing under
``src/`` knows it is being traced.

A span carries its name, start, end, parent span and operation id.  Spans
stay in memory until :meth:`SpanRecorder.write_jsonl` at the end of the run.
A span's *self time* is its duration minus the time its child spans cover,
so self times add up to the traced wall time without double counting.

Generators are timed per ``next()``: the decode layer's work happens while
the consumer pulls chunks, not when ``iter_matrix_csv`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


class SpanRecorder:
    """In-memory span tree plus per-layer counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self.counters: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- span bookkeeping ------------------------------------------------- #
    def _open(self, name: str, attrs: dict | None = None) -> int | None:
        if threading.get_ident() != self._thread:
            return None  # a worker thread's time stays unattributed
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs])
        self._stack.append(index)
        return index

    def _close(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: closed {index}, top {popped}")

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span around the ``with`` block (used for whole commands)."""
        index = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(index)

    # -- wrappers ----------------------------------------------------------- #
    def _timed(self, name: str, original, on_call=None, attrs_of=None):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args) if attrs_of is not None else None
            index = recorder._open(name, attrs)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(index)
                if on_call is not None:
                    on_call(*args)

        return wrapper

    def _timed_iter(self, name: str, original, on_first=None, on_item=None):
        """Wrap a function returning an iterator: one span per ``next()``."""
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))

            def generate():
                first = True
                while True:
                    index = recorder._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(index)
                    if first and on_first is not None:
                        on_first(*args, **kwargs)
                    first = False
                    if on_item is not None:
                        on_item(item)
                    yield item

            return generate()

        return wrapper

    def _patch_function(self, module_name: str, attr: str, wrapper_factory) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper_factory) -> None:
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_factory(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_factory(raw))

    def install(self) -> None:
        """Wrap every layer entry point; span names are the layer metrics' stems."""
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        import repro.cli  # noqa: F401 - loads every module whose bindings get patched
        from repro.attacks.streamed import LinearReconstruction
        from repro.core import RBT, RBTSecret
        from repro.data.io import MatrixCsvWriter
        from repro.distributed.federated import (
            DistributedReleasePipeline,
            SecureSketchSum,
            ShardParty,
        )
        from repro.perf.backends import ProcessPoolBackend
        from repro.perf.csv_codec import DecodedChunkCache
        from repro.perf.streaming import StreamingMoments
        from repro.pipeline.audit import AttackSuite
        from repro.pipeline.versioned import VersionedReleaseBundle
        from repro.preprocessing import normalization

        counters = self.counters
        timed, timed_iter = self._timed, self._timed_iter

        # data.io / perf.csv_codec
        def decode_started(path, *_args, **_kwargs):
            counters["codec.parse_passes"] += 1
            counters["io.decode_mb"] += _file_mb(path)

        def replay_started(*_args, **_kwargs):
            counters["codec.replay_passes"] += 1

        self._patch_function(
            "repro.data.io",
            "iter_matrix_csv",
            lambda f: timed_iter("io.decode", f, on_first=decode_started),
        )
        self._patch_method(DecodedChunkCache, "tee", lambda f: timed_iter("io.decode", f))
        self._patch_method(
            DecodedChunkCache,
            "replay",
            lambda f: timed_iter("io.decode", f, on_first=replay_started),
        )
        self._patch_method(MatrixCsvWriter, "write_rows", lambda f: timed("io.encode", f))

        def publishing(close):
            timed_close = timed("io.encode", close)

            @functools.wraps(close)
            def wrapper(writer):
                was_open = not writer._handle.closed
                timed_close(writer)
                if was_open:
                    counters["io.encode_mb"] += _file_mb(writer.path)

            return wrapper

        self._patch_method(MatrixCsvWriter, "close", publishing)

        # preprocessing.normalization
        for cls in (
            normalization.Normalizer,
            normalization.ZScoreNormalizer,
            normalization.MinMaxNormalizer,
        ):
            for attr, name in (
                ("fit", "normalize.fit"),
                ("fit_stream", "normalize.fit"),
                ("_finish_stream_fit", "normalize.fit"),
                ("transform", "normalize.transform"),
            ):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, lambda f, n=name: timed(n, f))

        # perf.streaming
        def deposited(_moments, chunk, *_args):
            counters["sketch.update_rows"] += len(chunk)

        self._patch_method(
            StreamingMoments, "update", lambda f: timed("sketch.update", f, on_call=deposited)
        )
        self._patch_method(StreamingMoments, "merge", lambda f: timed("sketch.merge", f))
        for attr in ("state", "from_state"):
            self._patch_method(StreamingMoments, attr, lambda f: timed("sketch.state", f))
        for attr in ("state_to_jsonable", "state_from_jsonable"):
            self._patch_function("repro.perf.streaming", attr, lambda f: timed("sketch.state", f))
        for attr in ("means", "variances", "covariance", "pair_moments"):
            self._patch_method(StreamingMoments, attr, lambda f: timed("sketch.stats", f))
        self._patch_function(
            "repro.perf.streaming",
            "correlation_from_moments",
            lambda f: timed("sketch.stats", f),
        )

        # core (rbt, security_range, rotation, secrets) and the planner
        self._patch_function(
            "repro.pipeline.streaming", "plan_rotations", lambda f: timed("core.plan", f)
        )
        for attr in ("solve_security_range", "solve_security_range_from_moments"):
            self._patch_function(
                "repro.core.security_range", attr, lambda f: timed("core.solve", f)
            )
        for attr in ("rotate_block", "rotate_pair"):
            self._patch_function("repro.core.rotation", attr, lambda f: timed("core.rotate", f))
        self._patch_function(
            "repro.pipeline.streaming",
            "apply_decided_rotations",
            lambda f: timed("core.rotate", f),
        )
        self._patch_method(RBT, "transform", lambda f: timed("core.transform", f))
        self._patch_method(RBTSecret, "invert", lambda f: timed("core.transform", f))

        # pipeline.versioned / bundle_format
        def hashed(path, *_args):
            counters["bundle.hash_mb"] += _file_mb(path)

        def copied(source, *_args):
            counters["bundle.copy_mb"] += _file_mb(source)

        self._patch_function(
            "repro.pipeline.bundle_format",
            "file_sha256",
            lambda f: timed("bundle.hash", f, on_call=hashed),
        )
        original_copyfile = shutil.copyfile
        timed_copyfile = timed("bundle.copy", original_copyfile, on_call=copied)

        @functools.wraps(original_copyfile)
        def copyfile(*args, **kwargs):
            # ``shutil`` is global: only copies made inside a command are the program's.
            if not self._stack:
                return original_copyfile(*args, **kwargs)
            return timed_copyfile(*args, **kwargs)

        self._patches.append((shutil, "copyfile", original_copyfile))
        shutil.copyfile = copyfile
        self._patch_function(
            "repro.pipeline.bundle_format", "write_json_atomic", lambda f: timed("bundle.commit", f)
        )
        self._patch_function(
            "repro.pipeline.bundle_format", "load_manifest", lambda f: timed("bundle.open", f)
        )
        self._patch_method(
            VersionedReleaseBundle, "_load_sketches", lambda f: timed("bundle.open", f)
        )

        # pipeline.audit / attacks
        self._patch_function(
            "repro.pipeline.audit", "_file_fingerprint", lambda f: timed("audit.fingerprint", f)
        )
        self._patch_method(AttackSuite, "run", lambda f: timed("audit.attack", f))
        for attr in ("plan_attack", "plan_known_sample"):
            self._patch_function("repro.attacks.streamed", attr, lambda f: timed("audit.attack", f))
        self._patch_method(LinearReconstruction, "apply", lambda f: timed("audit.attack", f))

        # distributed.federated
        def party_of(party, *_args):
            return {"party": party.name}

        for attr in ("fit_state", "correlation_state", "pair_states", "transform_and_write"):
            self._patch_method(
                ShardParty, attr, lambda f: timed("fed.party", f, attrs_of=party_of)
            )
        self._patch_method(
            SecureSketchSum, "aggregate_states", lambda f: timed("fed.aggregate", f)
        )
        self._patch_method(DistributedReleasePipeline, "run", lambda f: timed("fed.protocol", f))

        # perf.backends: blocks a parallel backend hands to its workers
        def dispatched(item):
            counters["backend.tasks"] += 1

        def parallel_blocks(f):
            wrapped = timed_iter("backend.parallel", f, on_item=dispatched)

            @functools.wraps(f)
            def imap_blocks(backend, *args, **kwargs):
                if backend.workers > 1:
                    return wrapped(backend, *args, **kwargs)
                return f(backend, *args, **kwargs)

            return imap_blocks

        self._patch_method(ProcessPoolBackend, "imap_blocks", parallel_blocks)

    def uninstall(self) -> None:
        """Restore every original binding (in reverse order of patching)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reporting ------------------------------------------------------------ #
    def self_times(self, weights: dict[str, float]) -> dict[str, float]:
        """Summed self time per span name over the ops in ``weights``.

        Each op's spans are multiplied by its weight (the speed scale of the
        cycle the op ran in); spans of other ops are left out.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, attrs in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op, attrs) in enumerate(self.spans):
            if end is not None and op in weights:
                totals[name] += ((end - start) - child_time[index]) * weights[op]
        return dict(totals)

    def call_counts(self, ops) -> dict[str, int]:
        """Number of spans per name over ``ops``."""
        counts: dict[str, int] = defaultdict(int)
        for name, start, end, parent, op, attrs in self.spans:
            if op in ops:
                counts[name] += 1
        return dict(counts)

    def party_seconds(self, weights: dict[str, float]) -> dict[str, float]:
        """Inclusive ``fed.party`` time per party over the ops in ``weights``."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, op, attrs in self.spans:
            if name == "fed.party" and op in weights and end is not None:
                totals[attrs["party"]] += (end - start) * weights[op]
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def ranked_table(self_seconds: dict[str, float], calls: dict[str, int], n_cycles: int) -> str:
    """Markdown table of per-layer self time per cycle, largest first."""
    total = sum(self_seconds.values()) or 1.0
    rows = sorted(self_seconds.items(), key=lambda item: -item[1])
    name_width = max([len("Layer span")] + [len(name) for name, _ in rows])
    lines = [
        f"| {'Layer span':<{name_width}} | Self s / cycle |  Share | Calls / cycle |",
        f"|:{'-' * (name_width + 1)}|---------------:|-------:|--------------:|",
    ]
    for name, seconds in rows:
        lines.append(
            f"| {name:<{name_width}} | {seconds / n_cycles:>14.6f} | "
            f"{100 * seconds / total:>5.1f}% | {calls.get(name, 0) / n_cycles:>13.1f} |"
        )
    return "\n".join(lines)
