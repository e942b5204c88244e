"""Tests for the versioned release-bundle subsystem (frozen-policy appends).

The contract under test: ``append_release`` streams only the new rows, yet
the bundle's released CSV stays byte-identical to the frozen-policy
from-scratch replay of the concatenated feed — for any append schedule,
chunk size and execution backend — and the persisted sketches rebuild the
owner's evidence bit-for-bit.
"""

from __future__ import annotations

import base64
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from sketch_format1 import format1_jsonable, report_fingerprint, rewrite_sketches

import repro
from repro.attacks import available_attacks, build_attack
from repro.core import RBT
from repro.data import DataMatrix
from repro.data.io import matrix_from_csv, matrix_to_csv
from repro.exceptions import (
    AttackError,
    BundleError,
    ExperimentError,
    ValidationError,
)
from repro.experiments import AxisSpec, ExperimentSpec, run_experiment, run_trial
from repro.perf.backends import get_backend
from repro.perf.streaming import (
    StreamingMoments,
    state_from_jsonable,
    state_to_jsonable,
)
from repro.pipeline.audit import AttackSuite, builtin_threat_model
from repro.pipeline.bundle_format import file_sha256
from repro.pipeline.versioned import (
    append_release,
    create_release,
    open_release,
    sequential_attack_params,
)

# A mixing matrix makes the attributes correlated.  Isotropic data is
# degenerate for the sequential-release attack (a rotation of unit-variance
# independent columns preserves the variances, so every angle is trivially
# admissible) and makes a weak byte-identity fixture; correlated columns
# exercise both properly.
_MIX = np.array(
    [
        [1.0, 0.6, 0.1, 0.0],
        [0.0, 1.0, 0.5, 0.2],
        [0.0, 0.0, 1.0, 0.4],
        [0.3, 0.0, 0.0, 1.0],
    ]
)


def _correlated(n_rows: int, *, seed: int, start: int = 0) -> DataMatrix:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_rows, _MIX.shape[0])) @ _MIX
    return DataMatrix(
        values,
        columns=("a", "b", "c", "d"),
        ids=tuple(f"r{start + index}" for index in range(n_rows)),
    )


@pytest.fixture(scope="module")
def feed(tmp_path_factory):
    """A 240-row correlated feed: the full CSV plus its row matrix."""
    root = tmp_path_factory.mktemp("feed")
    matrix = _correlated(240, seed=11)
    full = root / "full.csv"
    matrix_to_csv(matrix, full)
    return full, matrix


def _write_slices(matrix: DataMatrix, schedule, tmp_path):
    """Split ``matrix`` into per-batch CSVs at the schedule's boundaries."""
    paths = []
    start = 0
    for index, rows in enumerate(schedule):
        batch = matrix.rows(range(start, start + rows))
        path = tmp_path / f"batch-{index}.csv"
        matrix_to_csv(batch, path)
        paths.append(path)
        start += rows
    assert start == matrix.n_objects
    return paths


class TestByteIdentity:
    """The gated determinism contract: appends == frozen-policy replay."""

    @pytest.mark.parametrize(
        "schedule",
        [(120, 120), (80, 80, 80), (60, 100, 17, 63)],
        ids=["halves", "thirds", "ragged"],
    )
    @pytest.mark.parametrize("chunk_rows", [17, 64])
    @pytest.mark.parametrize("backend_name", ["serial", "process-pool"])
    def test_append_byte_identical_to_replay(
        self, feed, tmp_path, schedule, chunk_rows, backend_name
    ):
        full, matrix = feed
        backend = get_backend(backend_name, workers=2)
        slices = _write_slices(matrix, schedule, tmp_path)
        bundle, _ = create_release(
            slices[0],
            tmp_path / "bundle",
            rbt=RBT(thresholds=0.3, random_state=5),
            chunk_rows=chunk_rows,
            backend=backend,
        )
        for path in slices[1:]:
            append_release(bundle, path, chunk_rows=chunk_rows, backend=backend)

        reference = tmp_path / "reference.csv"
        bundle.reference_pipeline(chunk_rows=91).run(full, reference)
        byte_identical = bundle.released_path.read_bytes() == reference.read_bytes()
        assert byte_identical is True

    def test_sketch_report_matches_replay_report(self, feed, tmp_path):
        full, matrix = feed
        slices = _write_slices(matrix, (150, 90), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        append_release(bundle, slices[1])

        reference = tmp_path / "reference.csv"
        replay = bundle.reference_pipeline().run(full, reference)
        rebuilt = bundle.report()
        assert rebuilt.n_objects == replay.n_objects == 240
        for ours, theirs in zip(rebuilt.records, replay.records):
            assert ours.pair == theirs.pair
            assert ours.theta_degrees == theirs.theta_degrees
            assert ours.achieved_variances == theirs.achieved_variances
        assert (
            rebuilt.privacy.minimum_variance_difference
            == replay.privacy.minimum_variance_difference
        )

    def test_secret_inverts_the_grown_release(self, feed, tmp_path):
        _, matrix = feed
        slices = _write_slices(matrix, (160, 80), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        append_release(bundle, slices[1])

        from repro.pipeline.bundle_format import normalizer_from_payload

        released = matrix_from_csv(bundle.released_path)
        restored = bundle.secret().invert(released)
        normalized = normalizer_from_payload(bundle.manifest["normalizer"]).transform(matrix)
        assert np.allclose(restored.values, normalized.values, atol=1e-9)


class TestManifestAndVersioning:
    def test_versions_and_stale_file_cleanup(self, feed, tmp_path):
        _, matrix = feed
        slices = _write_slices(matrix, (100, 60, 80), tmp_path)
        bundle, report = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        assert bundle.version == 1
        assert report.n_passes >= 2  # fit + plan + transform from scratch
        for path in slices[1:]:
            delta = append_release(bundle, path)
            assert delta.n_passes == 1  # the delta path reads the new rows once

        assert bundle.version == 3
        assert bundle.total_rows == 240
        assert bundle.version_rows() == (100, 160, 240)
        assert sequential_attack_params(bundle) == {"version_rows": [100, 160, 240]}
        # Only the manifest and the *current* version's artifacts remain —
        # stale versions are unlinked and no atomic-write temp files leak.
        names = sorted(entry.name for entry in bundle.path.iterdir())
        assert names == ["manifest.json", "released-v0003.csv", "sketches-v0003.json"]

        reopened = open_release(bundle.path)
        reopened.verify()
        assert reopened.version == 3
        assert reopened.columns == ("a", "b", "c", "d")

    def test_create_refuses_an_existing_bundle(self, feed, tmp_path):
        full, _ = feed
        create_release(full, tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5))
        with pytest.raises(BundleError, match="already a release bundle"):
            create_release(full, tmp_path / "bundle")

    def test_open_missing_bundle_is_actionable(self, tmp_path):
        with pytest.raises(BundleError, match="--init"):
            open_release(tmp_path / "nope")

    def test_verify_detects_outside_modification(self, feed, tmp_path):
        full, _ = feed
        bundle, _ = create_release(
            full, tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        with bundle.released_path.open("a", encoding="utf-8") as handle:
            handle.write("tampered\n")
        with pytest.raises(BundleError, match="torn or was modified"):
            bundle.verify()

    def test_version_mismatch_and_schema_drift(self, feed, tmp_path):
        _, matrix = feed
        slices = _write_slices(matrix, (200, 40), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        with pytest.raises(BundleError, match="version mismatch"):
            bundle.append(slices[1], expected_version=7)

        drifted = tmp_path / "drifted.csv"
        text = slices[1].read_text().splitlines(keepends=True)
        drifted.write_text(text[0].replace("d", "z") + "".join(text[1:]))
        with pytest.raises(BundleError, match="schema drift"):
            bundle.append(drifted)

        headless = tmp_path / "headless.csv"
        headless.write_text("a,b,c,d\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(BundleError, match="id layout"):
            bundle.append(headless)


class TestCrashSafety:
    def test_crash_before_manifest_flip_keeps_previous_version(
        self, feed, tmp_path, monkeypatch
    ):
        _, matrix = feed
        slices = _write_slices(matrix, (140, 100), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        v1_bytes = bundle.released_path.read_bytes()

        import repro.pipeline.versioned as versioned_module

        real_write = versioned_module.write_json_atomic

        def crash_on_sketches(path, payload):
            if "sketches" in path.name:
                raise OSError("simulated crash before the manifest flip")
            return real_write(path, payload)

        monkeypatch.setattr(versioned_module, "write_json_atomic", crash_on_sketches)
        with pytest.raises(OSError, match="simulated crash"):
            bundle.append(slices[1])
        monkeypatch.undo()

        # The manifest is the commit point: the bundle still reads as v1 and
        # its referenced artifacts are complete.
        recovered = open_release(tmp_path / "bundle")
        assert recovered.version == 1
        recovered.verify()
        assert recovered.released_path.read_bytes() == v1_bytes

        # Retrying the append on the recovered bundle succeeds and lands the
        # same bytes as an uninterrupted append would have.
        recovered.append(slices[1])
        assert recovered.version == 2
        recovered.verify()

    def test_no_temp_files_survive_a_release(self, feed, tmp_path):
        full, _ = feed
        bundle, _ = create_release(
            full, tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        leftovers = [entry.name for entry in bundle.path.iterdir() if ".tmp" in entry.name]
        assert leftovers == []


class TestAppendIntegrity:
    """An append reads the prior release once and checks it like verify() does."""

    def _two_version_bundle(self, feed, tmp_path):
        _, matrix = feed
        slices = _write_slices(matrix, (120, 60, 60), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        append_release(bundle, slices[1])
        return bundle, slices[2]

    def test_modified_prior_release_is_refused_before_any_row_is_written(self, feed, tmp_path):
        bundle, delta = self._two_version_bundle(feed, tmp_path)
        data = bytearray(bundle.released_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        bundle.released_path.write_bytes(bytes(data))
        with pytest.raises(BundleError, match="torn or was modified") as from_verify:
            bundle.verify()
        with pytest.raises(BundleError, match="torn or was modified") as from_append:
            bundle.append(delta)
        assert str(from_append.value) == str(from_verify.value)
        names = sorted(entry.name for entry in bundle.path.iterdir())
        assert names == ["manifest.json", "released-v0002.csv", "sketches-v0002.json"]
        assert bundle.version == open_release(bundle.path).version == 2

    def test_missing_prior_release_reports_like_verify(self, feed, tmp_path):
        bundle, delta = self._two_version_bundle(feed, tmp_path)
        bundle.released_path.unlink()
        with pytest.raises(BundleError, match="missing its released matrix") as from_verify:
            bundle.verify()
        with pytest.raises(BundleError, match="missing its released matrix") as from_append:
            bundle.append(delta)
        assert str(from_append.value) == str(from_verify.value)
        assert bundle.version == 2
        assert not any(".tmp" in entry.name for entry in bundle.path.iterdir())
        assert not (bundle.path / "released-v0003.csv").exists()

    @pytest.mark.parametrize(
        ("chunk_rows", "codec"),
        [(1, None), (7, None), (None, None), (7, "python")],
        ids=["chunk1", "chunk7", "default", "python-lane"],
    )
    def test_manifest_hash_is_the_published_files_hash(self, feed, tmp_path, chunk_rows, codec):
        full, matrix = feed
        slices = _write_slices(matrix, (100, 1, 39, 100), tmp_path)
        bundle, _ = create_release(
            slices[0],
            tmp_path / "bundle",
            rbt=RBT(thresholds=0.3, random_state=5),
            chunk_rows=chunk_rows,
            codec=codec,
        )
        for path in slices[1:]:
            append_release(bundle, path, chunk_rows=chunk_rows, codec=codec)
            current = bundle.manifest["current"]
            assert current["released_sha256"] == file_sha256(bundle.released_path)
            assert bundle.manifest["versions"][-1]["released_sha256"] == current["released_sha256"]
            open_release(bundle.path).verify()
        reference = tmp_path / "reference.csv"
        bundle.reference_pipeline().run(full, reference)
        assert bundle.released_path.read_bytes() == reference.read_bytes()

    def test_prior_release_is_neither_rehashed_nor_copied(self, feed, tmp_path, monkeypatch):
        bundle, delta = self._two_version_bundle(feed, tmp_path)
        import repro.pipeline.bundle_format as bundle_format_module
        import repro.pipeline.versioned as versioned_module

        touched: list[str] = []

        def spy(original):
            def wrapper(path, *args, **kwargs):
                touched.append(str(path))
                return original(path, *args, **kwargs)

            return wrapper

        for module in (bundle_format_module, versioned_module):
            monkeypatch.setattr(module, "file_sha256", spy(module.file_sha256))
        monkeypatch.setattr(shutil, "copyfile", spy(shutil.copyfile))
        bundle.append(delta)
        monkeypatch.undo()

        assert touched, "the spies saw no call at all"
        assert not [path for path in touched if "released-" in path]
        bundle.verify()


class TestStateJsonRoundTrip:
    """Satellite: the sketch-state JSON codec is lossless for every double."""

    def test_negative_zero_and_subnormals_survive(self):
        tricky = np.array(
            [
                [-0.0, 5e-324, 1.5, -1e308],
                [0.0, -5e-324, 2.2250738585072014e-308, 3.14],
                [1.0, 2.0, -0.0, 1e-310],
            ]
        )
        accumulator = StreamingMoments(4, cross=True)
        accumulator.update(tricky)
        state = accumulator.state()

        # Through an actual JSON text round trip, not just the dict codec.
        payload = json.loads(json.dumps(state_to_jsonable(state)))
        rebuilt = StreamingMoments.from_state(state_from_jsonable(payload))

        assert state_to_jsonable(rebuilt.state()) == state_to_jsonable(state)
        original_means = accumulator.means()
        rebuilt_means = rebuilt.means()
        assert original_means.tobytes() == rebuilt_means.tobytes()

    def test_hex_codec_preserves_the_sign_of_zero(self):
        # The same hex-float codec carries the bundle's scalar policy values
        # (angles, normalizer parameters, security-range endpoints); a
        # decimal-repr codec would serialize -0.0 as "0.0" and lose the sign
        # bit, breaking bitwise policy equality.
        from repro.pipeline.bundle_format import _hex, _unhex

        for value in (-0.0, 5e-324, -5e-324, 1.7976931348623157e308):
            round_tripped = _unhex(json.loads(json.dumps(_hex(value))))
            assert math.copysign(1.0, round_tripped) == math.copysign(1.0, value)
            assert round_tripped == value

    def test_unrecognized_payload_is_rejected(self):
        with pytest.raises(ValidationError, match="unrecognized"):
            state_from_jsonable({"format": 3})


class TestSketchStateFormat:
    """Sketches are written in format 2 (binary float64); format 1 is still read."""

    def test_format1_bundle_opens_verifies_reports_and_appends(self, feed, tmp_path):
        full, matrix = feed
        slices = _write_slices(matrix, (150, 90), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        format2_report = report_fingerprint(bundle.report())
        rewrite_sketches(bundle, format1_jsonable)
        old = open_release(bundle.path)
        assert json.loads(old.sketches_path.read_text())["privacy"]["format"] == 1
        old.verify()
        assert report_fingerprint(old.report()) == format2_report

        append_release(old, slices[1])
        old.verify()
        sketches = json.loads(old.sketches_path.read_text())
        assert {state["format"] for state in [sketches["privacy"], *sketches["achieved"]]} == {2}
        reference = tmp_path / "reference.csv"
        old.reference_pipeline().run(full, reference)
        assert old.released_path.read_bytes() == reference.read_bytes()

    def test_tricky_values_round_trip_through_the_format2_text(self):
        values = np.array(
            [
                [-0.0, 5e-324, 1e308, -1e308],
                [0.0, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308],
                [1e-310, -1e-310, 1.7976931348623157e308, 3.14],
            ]
        )
        state = StreamingMoments(2).state()
        state.update(
            count=3,
            bucket_indices=np.array([5, 9, 2000], dtype=np.int64),
            bucket_values=values,
        )
        text = json.dumps(state_to_jsonable(state))
        assert json.loads(text)["format"] == 2
        decoded = state_from_jsonable(json.loads(text))
        assert decoded["bucket_values"].tobytes() == values.tobytes()
        assert decoded["bucket_indices"].tolist() == [5, 9, 2000]
        rebuilt = StreamingMoments.from_state(decoded)
        original = StreamingMoments.from_state(state)
        assert rebuilt.means().tobytes() == original.means().tobytes()

    def test_empty_state_round_trips(self):
        state = StreamingMoments(3, cross=True).state()
        assert state["bucket_indices"].size == 0
        payload = json.loads(json.dumps(state_to_jsonable(state)))
        assert payload["bucket_values"] == ""
        rebuilt = StreamingMoments.from_state(state_from_jsonable(payload))
        assert rebuilt.count == 0
        assert state_to_jsonable(rebuilt.state()) == payload

    @staticmethod
    def _payload() -> dict:
        state = StreamingMoments(2).update([[1.0, 2.0], [3.0, 4.0]]).state()
        return json.loads(json.dumps(state_to_jsonable(state)))

    def test_wrong_byte_length_is_rejected(self):
        payload = self._payload()
        payload["bucket_values"] = base64.b64encode(
            base64.b64decode(payload["bucket_values"])[:-8]
        ).decode("ascii")
        with pytest.raises(ValidationError, match="bytes, expected"):
            state_from_jsonable(payload)

    def test_invalid_base64_is_rejected(self):
        payload = self._payload()
        payload["bucket_values"] = "not base64!"
        with pytest.raises(ValidationError, match="not valid base64"):
            state_from_jsonable(payload)

    def test_missing_key_is_rejected(self):
        payload = self._payload()
        del payload["deposits"]
        with pytest.raises(ValidationError, match="'deposits'"):
            state_from_jsonable(payload)


def _append_when_released(bundle_dir, delta, expected_version, barrier, results) -> None:
    """Open the bundle, wait for the other appender, then append ``delta``."""
    bundle = open_release(bundle_dir)
    barrier.wait(timeout=60)
    try:
        bundle.append(delta, expected_version=expected_version)
    except Exception as exc:  # reported to the test process, which asserts on it
        results.put((str(delta), type(exc).__name__, str(exc)))
    else:
        results.put((str(delta), "ok", bundle.version))


#: Two appends in a row through one process pool that does not exist yet, in a
#: fresh interpreter, so the pool's workers are created with the platform's
#: default start method (fork on Linux) during the first, locked, append.
_APPEND_TWICE = """
import sys
from repro.perf.backends import ProcessPoolBackend
from repro.pipeline.versioned import open_release

bundle = open_release(sys.argv[1])
backend = ProcessPoolBackend(workers=2)
for delta in sys.argv[2:]:
    bundle.append(delta, backend=backend)
backend.close()
print(bundle.version)
"""


def _concatenate(paths, output) -> None:
    with output.open("w", encoding="utf-8") as out:
        for index, path in enumerate(paths):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            out.writelines(lines if index == 0 else lines[1:])


class TestConcurrentAppends:
    """Two processes appending at once: serialised, no lost rows."""

    @pytest.mark.parametrize("expected_version", [1, None], ids=["guarded", "unguarded"])
    def test_concurrent_appenders_lose_no_rows(self, tmp_path, expected_version):
        n_rows = 20_000
        paths = []
        for index in range(3):
            path = tmp_path / f"part-{index}.csv"
            matrix_to_csv(_correlated(n_rows, seed=40 + index, start=index * n_rows), path)
            paths.append(path)
        bundle, _ = create_release(
            paths[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )

        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        results = context.Queue()
        workers = [
            context.Process(
                target=_append_when_released,
                args=(bundle.path, delta, expected_version, barrier, results),
            )
            for delta in paths[1:]
        ]
        for worker in workers:
            worker.start()
        outcomes = [results.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0

        grown = open_release(bundle.path)
        grown.verify()
        succeeded = [outcome for outcome in outcomes if outcome[1] == "ok"]
        if expected_version is None:
            assert len(succeeded) == 2, outcomes
            assert grown.version == 3
        else:
            assert len(succeeded) == 1, outcomes
            (failed,) = [outcome for outcome in outcomes if outcome[1] != "ok"]
            assert failed[1] == "BundleError" and "version mismatch" in failed[2], outcomes
            assert grown.version == 2
        assert grown.total_rows == n_rows * grown.version

        by_hash = {file_sha256(path): path for path in paths}
        committed = [by_hash[entry["input_sha256"]] for entry in grown.manifest["versions"]]
        feed_path = tmp_path / "feed.csv"
        _concatenate(committed, feed_path)
        reference = tmp_path / "reference.csv"
        grown.reference_pipeline().run(feed_path, reference)
        assert grown.released_path.read_bytes() == reference.read_bytes()


    def test_pool_forked_under_the_lock_does_not_keep_it(self, tmp_path):
        # The first append fans its sketch update out and so forks the pool's
        # workers while the bundle is locked; they inherit the lock's open
        # file description.  The second append must still get the lock.
        n_rows = 5_000
        paths = []
        for index in range(3):
            path = tmp_path / f"part-{index}.csv"
            matrix_to_csv(_correlated(n_rows, seed=50 + index, start=index * n_rows), path)
            paths.append(path)
        bundle, _ = create_release(
            paths[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )

        command = [sys.executable, "-c", _APPEND_TWICE, str(bundle.path), *map(str, paths[1:])]
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
        )
        try:
            output, _ = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)  # the appender and its pool workers
            process.communicate()
            pytest.fail("the second append blocked on the bundle lock")
        assert process.returncode == 0
        assert output.split() == ["3"]

        grown = open_release(bundle.path)
        grown.verify()
        feed_path = tmp_path / "feed.csv"
        _concatenate(paths, feed_path)
        reference = tmp_path / "reference.csv"
        grown.reference_pipeline().run(feed_path, reference)
        assert grown.released_path.read_bytes() == reference.read_bytes()


class TestMergeProperties:
    """Satellite: sketch merge is associative and commutative bit-for-bit."""

    @staticmethod
    def _accumulate(rows: np.ndarray) -> StreamingMoments:
        accumulator = StreamingMoments(rows.shape[1], cross=True)
        accumulator.update(rows)
        return accumulator

    @classmethod
    def _fingerprint(cls, accumulator: StreamingMoments) -> str:
        return json.dumps(state_to_jsonable(accumulator.state()), sort_keys=True)

    def test_merge_is_commutative(self):
        rng = np.random.default_rng(3)
        left_rows = rng.standard_normal((37, 3)) @ _MIX[:3, :3]
        right_rows = rng.standard_normal((21, 3)) @ _MIX[:3, :3]
        forward = self._accumulate(left_rows).merge(self._accumulate(right_rows))
        backward = self._accumulate(right_rows).merge(self._accumulate(left_rows))
        assert self._fingerprint(forward) == self._fingerprint(backward)

    def test_merge_is_associative(self):
        rng = np.random.default_rng(4)
        parts = [rng.standard_normal((n, 3)) for n in (13, 29, 7)]
        a, b, c = (self._accumulate(part) for part in parts)
        left = self._accumulate(parts[0]).merge(self._accumulate(parts[1])).merge(c)
        right = a.merge(b.merge(self._accumulate(parts[2])))
        assert self._fingerprint(left) == self._fingerprint(right)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_append_schedules_match_one_shot(self, seed):
        """Any partition of the feed, merged in any order, equals one pass."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((200, 4)) @ _MIX
        boundaries = np.sort(rng.choice(np.arange(1, 200), size=rng.integers(1, 6), replace=False))
        chunks = np.split(rows, boundaries)

        one_shot = self._accumulate(rows)
        order = rng.permutation(len(chunks))
        merged = self._accumulate(chunks[order[0]])
        for index in order[1:]:
            merged = self._accumulate(chunks[index]).merge(merged)

        assert self._fingerprint(merged) == self._fingerprint(one_shot)
        assert merged.variances(ddof=1).tobytes() == one_shot.variances(ddof=1).tobytes()


class TestSequentialReleaseAttack:
    def test_registered(self):
        assert "sequential_release" in available_attacks()

    @pytest.fixture(scope="class")
    def release(self):
        """A two-pair RBT release of correlated data, with its original."""
        matrix = _correlated(300, seed=23)
        from repro.preprocessing import ZScoreNormalizer

        normalized = ZScoreNormalizer().fit_transform(matrix)
        result = RBT(thresholds=0.3, random_state=9).transform(normalized)
        return normalized, result.matrix

    def test_seeded_reproducibility_and_error_vs_work(self, release):
        normalized, released = release
        params = {"version_rows": [100, 200, 300]}
        first = build_attack("sequential_release", params=params, random_state=7).run(
            released, normalized
        )
        second = build_attack("sequential_release", params=params, random_state=7).run(
            released, normalized
        )
        assert first.error == second.error
        assert first.work == second.work
        assert first.details == second.details
        # The error-vs-work row the audit table consumes.
        assert first.work > 0
        assert np.isfinite(first.error)
        assert 0.0 < first.details["range_shrink"] <= 1.0

    def test_version_history_narrows_the_admissible_set(self, release):
        _, released = release
        single = build_attack(
            "sequential_release", params={"version_rows": [300]}, random_state=0
        ).run(released)
        sequential = build_attack(
            "sequential_release", params={"version_rows": [60, 120, 180, 240, 300]},
            random_state=0,
        ).run(released)
        assert (
            sequential.details["effective_measure_intersected"]
            <= single.details["effective_measure_intersected"]
        )
        assert sequential.details["range_shrink"] <= single.details["range_shrink"]

    def test_version_rows_validation(self, release):
        _, released = release
        attack = build_attack(
            "sequential_release", params={"version_rows": [100, 90, 300]}, random_state=0
        )
        with pytest.raises(AttackError, match="increasing"):
            attack.run(released)
        attack = build_attack(
            "sequential_release", params={"version_rows": [100, 200]}, random_state=0
        )
        with pytest.raises(AttackError, match="final version"):
            attack.run(released)


class TestIncrementalAudit:
    @pytest.fixture
    def evidence(self, feed, tmp_path):
        _, matrix = feed
        slices = _write_slices(matrix, (180, 60), tmp_path)
        bundle, _ = create_release(
            slices[0], tmp_path / "bundle", rbt=RBT(thresholds=0.3, random_state=5)
        )
        append_release(bundle, slices[1])
        return bundle

    def test_prior_report_reuses_at_least_ninety_percent(self, evidence, tmp_path):
        suite = AttackSuite(builtin_threat_model("paper_public"), cache_dir=None)
        first = suite.run(evidence.released_path)
        assert first.executed == len(first.outcomes)

        second = suite.run(evidence.released_path, prior_report=first)
        assert second.reused / len(second.outcomes) >= 0.9
        assert second.executed == 0
        assert second.to_json() == first.to_json()

    def test_prior_report_round_trips_through_a_file(self, evidence, tmp_path):
        suite = AttackSuite(builtin_threat_model("paper_public"), cache_dir=None)
        first = suite.run(evidence.released_path)
        prior_path = tmp_path / "prior_audit.json"
        prior_path.write_text(first.to_json(), encoding="utf-8")

        second = suite.run(evidence.released_path, prior_report=prior_path)
        assert second.reused == len(second.outcomes)

    def test_changed_evidence_recomputes(self, evidence, tmp_path):
        suite = AttackSuite(builtin_threat_model("paper_public"), cache_dir=None)
        first = suite.run(evidence.released_path)

        perturbed = matrix_from_csv(evidence.released_path)
        perturbed = DataMatrix(
            perturbed.values * 1.5, columns=perturbed.columns, ids=perturbed.ids
        )
        perturbed_path = tmp_path / "perturbed.csv"
        matrix_to_csv(perturbed, perturbed_path)
        second = suite.run(perturbed_path, prior_report=first)
        assert second.reused == 0
        assert second.executed == len(second.outcomes)


class TestVersionsAxis:
    def _spec(self, **overrides):
        options = dict(
            name="versions_probe",
            datasets=(AxisSpec("patient_cohorts", {"n_patients": 60, "n_cohorts": 3}),),
            transforms=(AxisSpec("rbt", {"threshold": 0.3}),),
            algorithms=(AxisSpec("kmeans", {"n_clusters": 3}),),
            seeds=(0,),
        )
        options.update(overrides)
        return ExperimentSpec(**options)

    def test_axis_expansion_and_hash_transparency(self):
        spec = self._spec(versions=(1, 3))
        assert spec.n_trials == 2
        trials = spec.expand()
        assert [trial.versions for trial in trials] == [1, 3]
        assert "versions" not in trials[0].canonical()
        assert trials[1].canonical()["versions"] == 3
        assert trials[0].trial_hash == self._spec().expand()[0].trial_hash

    def test_round_trips_through_json(self, tmp_path):
        spec = self._spec(versions=(1, 4))
        spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(tmp_path / "spec.json").versions == (1, 4)

    @pytest.mark.parametrize("versions", [(), (0,), (2, 2)])
    def test_invalid_versions_rejected(self, versions):
        with pytest.raises(ExperimentError, match="versions"):
            self._spec(versions=versions)

    def test_versioned_trial_gates_byte_identity(self):
        spec = self._spec(versions=(3,), attacks=(AxisSpec("sequential_release"),))
        report = run_experiment(spec, cache_dir=None)
        (row,) = report.results.rows
        assert row["versions"] == 3
        assert row["versioned"]["append_byte_identical"] is True
        assert row["versioned"]["version_rows"] == [20, 40, 60]
        assert row["attack"]["name"] == "sequential_release"
        # The runner fed the bundle's version boundaries to the attack, so
        # the error-vs-work row carries the range-shrink measurement.
        assert row["attack"]["work"] > 0
        assert 0.0 < row["attack"]["range_shrink"] <= 1.0

    def test_parties_and_versions_cannot_combine(self):
        spec = self._spec(versions=(2,), parties=(2,))
        trial = spec.expand()[0]
        with pytest.raises(ExperimentError, match="cannot be"):
            run_trial(trial.canonical())

    def test_versions_need_a_freezable_normalizer(self):
        spec = self._spec(versions=(2,), normalizer="none")
        trial = spec.expand()[0]
        with pytest.raises(ExperimentError, match="normalizer"):
            run_trial(trial.canonical())
