"""Tests for the forked, every-core block encode behind ``MatrixCsvWriter``.

A fast-lane block of at least ``2 * _MIN_ROWS_PER_WORKER`` rows is cut into
contiguous row slices that forked children encode; the parent writes the
slices in row order.  The contract: the written bytes equal the python
(``csv.writer``) lane's bytes for every input, a failed child changes
nothing, and no child process outlives the call.  ``os.sched_getaffinity``
is monkeypatched so the fan-out runs on any host, one CPU included.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.perf.csv_codec as csv_codec
from repro.data.io import MatrixCsvWriter

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="the encode fan-out forks and is Linux-only",
)

FLOOR = csv_codec._MIN_ROWS_PER_WORKER
SPECIAL_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf, np.nan]


@contextlib.contextmanager
def fan_out(cpus: int):
    """Pretend ``cpus`` CPUs are available and record each forked child's pid."""
    real_fork = os.fork
    forks = []

    def spy():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(os, "fork", spy)
        yield forks


def assert_reaped(pids):
    """Every forked child was waited for (other tests may own live children)."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def write(path, values, ids, *, codec="fast", **options) -> bytes:
    columns = [f"x{i}" for i in range(values.shape[1])]
    with MatrixCsvWriter(
        path, columns, include_ids=ids is not None, codec=codec, **options
    ) as writer:
        writer.write_rows(values, ids=ids)
    return path.read_bytes()


def block(n_rows: int, n_columns: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_rows, n_columns)) * 10.0 ** rng.integers(
        -300, 300, size=(n_rows, n_columns)
    )
    return values, [f"row-{i}" for i in range(n_rows)]


class TestByteIdentity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        n_rows=st.sampled_from(
            [2 * FLOOR - 1, 2 * FLOOR, 2 * FLOOR + 1, 3 * FLOOR + 2, 4 * FLOOR + 3]
        ),
        n_columns=st.integers(1, 3),
        cpus=st.sampled_from([2, 3, 4]),
        id_kind=st.sampled_from(["plain", "quoted", "non_str", "none"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_python_lane(self, tmp_path, n_rows, n_columns, cpus, id_kind, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n_rows, n_columns)) * 10.0 ** rng.integers(
            -300, 300, size=(n_rows, n_columns)
        )
        cells = rng.choice(values.size, size=len(SPECIAL_FLOATS), replace=False)
        values.flat[cells] = SPECIAL_FLOATS
        ids: list | None = [f"row-{i}" for i in range(n_rows)]
        if id_kind == "quoted":
            # One id needs CSV quoting, so only its slice takes the
            # csv.writer lane and the other slices stay in the fast lane.
            ids[int(rng.integers(n_rows))] = 'say "a,b"'
        elif id_kind == "non_str":
            ids = list(range(n_rows))
        elif id_kind == "none":
            ids = None
        with fan_out(cpus) as forks:
            fast = write(tmp_path / "fast.csv", values, ids)
        python = write(tmp_path / "python.csv", values, ids, codec="python")
        assert fast == python
        assert len(forks) == max(0, min(cpus, n_rows // FLOOR) - 1)
        assert_reaped(forks)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_chunked_writes_match_one_serial_write(self, tmp_path, cpus):
        values, ids = block(5 * FLOOR + 7)
        with fan_out(cpus) as forks:
            path = tmp_path / "chunked.csv"
            with MatrixCsvWriter(path, ["x0", "x1", "x2"], include_ids=True) as writer:
                for start in range(0, len(ids), 3 * FLOOR):
                    writer.write_rows(
                        values[start : start + 3 * FLOOR], ids=ids[start : start + 3 * FLOOR]
                    )
        assert forks
        with fan_out(1) as serial_forks:
            serial = write(tmp_path / "serial.csv", values, ids)
        assert not serial_forks
        assert path.read_bytes() == serial
        assert_reaped(forks)

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_fan_out_raises_no_warning(self, tmp_path, action):
        # CPython 3.12+ clears its fork-with-threads DeprecationWarning when
        # the filter is "error", so "always" with recording is what catches it.
        values, ids = block(4 * FLOOR)
        with fan_out(4) as forks, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            fast = write(tmp_path / "fast.csv", values, ids)
        assert [str(warning.message) for warning in caught] == []
        assert len(forks) == 3
        assert fast == write(tmp_path / "python.csv", values, ids, codec="python")


def _in_child(action, monkeypatch):
    """Patch the slice encoder so forked children run ``action`` instead."""
    parent = os.getpid()
    encode_slice = csv_codec._encode_slice

    def patched(values, ids):
        if os.getpid() != parent:
            action()
        return encode_slice(values, ids)

    monkeypatch.setattr(csv_codec, "_encode_slice", patched)


class TestChildFailure:
    @pytest.mark.parametrize(
        "action",
        [
            lambda: os._exit(1),
            lambda: os.kill(os.getpid(), signal.SIGKILL),
            lambda: os._exit(0),  # exits cleanly without sending a frame
        ],
        ids=["exit-1", "sigkill", "short-frame"],
    )
    def test_failed_child_slice_is_reencoded(self, tmp_path, monkeypatch, action):
        values, ids = block(4 * FLOOR + 1)
        expected = write(tmp_path / "python.csv", values, ids, codec="python")
        _in_child(action, monkeypatch)
        with fan_out(4) as forks:
            assert write(tmp_path / "fast.csv", values, ids) == expected
        assert len(forks) == 3
        assert_reaped(forks)

    def test_fresh_process_has_no_child_left(self, tmp_path):
        # A fresh interpreter owns no other children, so waitpid(-1) must
        # find none at all once a killed child's slice has been re-encoded.
        script = f"""
import os, signal
import numpy as np
import repro.perf.csv_codec as csv_codec
from repro.data.io import MatrixCsvWriter

parent = os.getpid()
encode_slice = csv_codec._encode_slice

def killed_in_child(values, ids):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return encode_slice(values, ids)

forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
os.sched_getaffinity = lambda pid: set(range(4))
csv_codec._encode_slice = killed_in_child
values = np.arange({4 * FLOOR * 2}, dtype=float).reshape(-1, 2) / 7
out = {{}}
for codec in ("fast", "python"):
    path = {str(tmp_path)!r} + "/" + codec + ".csv"
    with MatrixCsvWriter(path, ["a", "b"], codec=codec) as writer:
        writer.write_rows(values)
    out[codec] = open(path, "rb").read()
assert out["fast"] == out["python"]
assert len(forks) == 3
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
        source = Path(csv_codec.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(source)}
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=False,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "no child left\n"

    def test_parent_failure_kills_children_and_keeps_target(self, tmp_path, monkeypatch):
        values, ids = block(4 * FLOOR)
        target = tmp_path / "release.csv"
        target.write_bytes(b"previous release\r\n")
        parent = os.getpid()
        encode_slice = csv_codec._encode_slice

        def failing(values, ids):
            if os.getpid() == parent:
                raise RuntimeError("encode failed")
            return encode_slice(values, ids)

        monkeypatch.setattr(csv_codec, "_encode_slice", failing)
        with fan_out(4) as forks, pytest.raises(RuntimeError, match="encode failed"):
            write(target, values, ids)
        assert len(forks) == 3
        assert_reaped(forks)
        assert target.read_bytes() == b"previous release\r\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["release.csv"]


class TestStaysSerial:
    @pytest.mark.parametrize(
        "options",
        [{"pipelined": True}, {"float_format": "%.17g"}, {"codec": "python"}],
        ids=["pipelined", "float-format", "python-codec"],
    )
    def test_writer_options_never_fork(self, tmp_path, options):
        values, ids = block(4 * FLOOR)
        with fan_out(4) as forks:
            write(tmp_path / "out.csv", values, ids, **options)
        assert not forks

    def test_live_thread_never_forks(self, tmp_path):
        values, ids = block(4 * FLOOR)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with fan_out(4) as forks:
                threaded = write(tmp_path / "threaded.csv", values, ids)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forks
        assert threaded == write(tmp_path / "python.csv", values, ids, codec="python")

    def test_small_blocks_never_fork(self, tmp_path):
        values, ids = block(2 * FLOOR - 1)
        with fan_out(4) as forks:
            write(tmp_path / "out.csv", values, ids)
        assert not forks
