"""Each multi-pass command parses each input CSV once, and leaves no spill behind.

The streamed release, bundle creation, the streamed audit and every federated
party read their inputs through :class:`repro.data.io.MatrixPasses`: the first
full pass parses the CSV and spills the decoded blocks, later passes replay
them.  These tests count the parses per file in both codec lanes, check that
the single-pass append never spills, and check that no spill directory
survives a run, whether it succeeds or fails.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.data.io as data_io
import repro.perf.csv_codec as csv_codec
from repro.core import RBT
from repro.data import DataMatrix
from repro.data.io import iter_matrix_csv, matrix_to_csv
from repro.distributed import DistributedReleasePipeline, split_csv_shards
from repro.exceptions import SerializationError
from repro.pipeline import AttackSuite, StreamingReleasePipeline
from repro.pipeline.versioned import VersionedReleaseBundle
from repro.preprocessing import ZScoreNormalizer

#: A known-sample attack whose records sit at the head of the file, so the
#: gather pass stops early and the scoring pass must replay a complete cache.
EARLY_INSIDER = {
    "name": "early_insider",
    "attacks": [{"name": "known_sample", "params": {"known_indices": list(range(6))}}],
}

SPILL_PREFIX = "repro-csv-spill-"


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """Point ``TMPDIR`` at a fresh directory and record every spill created."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setenv("TMPDIR", str(root))
    monkeypatch.setattr(tempfile, "tempdir", None)
    created: list[str] = []
    mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        if Path(path).name.startswith(SPILL_PREFIX):
            created.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    return root, created


def _leftover_spills(root: Path) -> list[Path]:
    return sorted(root.glob(f"{SPILL_PREFIX}*"))


@pytest.fixture(params=["fast", "python"])
def parses(request, monkeypatch):
    """``(codec, counts)``: parses per file name in the requested codec lane."""
    counts: Counter = Counter()
    if request.param == "fast":
        module, name = csv_codec, "decode_matrix_csv"
    else:
        module, name = data_io, "_iter_matrix_csv_python"
    parse = getattr(module, name)

    def counting_parse(path, **kwargs):
        counts[Path(path).name] += 1
        return parse(path, **kwargs)

    monkeypatch.setattr(module, name, counting_parse)
    return request.param, counts


@pytest.fixture
def source_csv(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(60, 4)) * [3.0, 1.0, 12.0, 0.5] + [10.0, -2.0, 40.0, 0.0]
    matrix = DataMatrix(
        values, columns=["a", "b", "c", "d"], ids=[f"row-{i}" for i in range(60)]
    )
    path = tmp_path / "source.csv"
    matrix_to_csv(matrix, path)
    return path, matrix


@pytest.fixture
def audit_pair(tmp_path, source_csv):
    """``(released, original)`` CSVs: a normalized matrix and its RBT release."""
    _, matrix = source_csv
    normalized = ZScoreNormalizer().fit_transform(matrix)
    released = RBT(thresholds=0.3, random_state=3).transform(normalized).matrix
    original_path, released_path = tmp_path / "original.csv", tmp_path / "released.csv"
    matrix_to_csv(normalized, original_path)
    matrix_to_csv(released, released_path)
    return released_path, original_path


class TestEachInputParsedOnce:
    def test_streamed_release(self, parses, source_csv, tmp_path):
        codec, counts = parses
        source, _ = source_csv
        report = StreamingReleasePipeline(
            RBT(0.3, random_state=3), chunk_rows=7, codec=codec
        ).run(source, tmp_path / "released.csv")
        assert report.n_passes > 1
        assert counts == {source.name: 1}

    def test_bundle_create_then_append(self, parses, spill_root, source_csv, tmp_path):
        codec, counts = parses
        _, created = spill_root
        source, matrix = source_csv
        first, delta = tmp_path / "first.csv", tmp_path / "delta.csv"
        for path, rows in ((first, slice(0, 40)), (delta, slice(40, 60))):
            part = DataMatrix(matrix.values[rows], columns=matrix.columns, ids=matrix.ids[rows])
            matrix_to_csv(part, path)
        bundle, _ = VersionedReleaseBundle.create(
            first, tmp_path / "bundle", rbt=RBT(0.3, random_state=3), chunk_rows=7, codec=codec
        )
        assert counts == {first.name: 1}
        assert len(created) == 1
        counts.clear()
        bundle.append(delta, chunk_rows=7, codec=codec)
        assert counts == {delta.name: 1}
        assert len(created) == 1, "the single-pass append must not spill"

    @pytest.mark.parametrize("threat_model", ["full", EARLY_INSIDER], ids=["full", "early"])
    def test_streamed_audit(self, parses, audit_pair, threat_model):
        codec, counts = parses
        released, original = audit_pair
        report = AttackSuite(threat_model, codec=codec).run(released, original, chunk_rows=7)
        assert report.executed == len(report.outcomes)
        assert counts == {released.name: 1, original.name: 1}

    def test_distributed_release(self, parses, source_csv, tmp_path):
        codec, counts = parses
        source, _ = source_csv
        shards = [tmp_path / f"shard-{index}.csv" for index in range(3)]
        split_csv_shards(source, shards, row_counts=[25, 0, 35])
        counts.clear()
        DistributedReleasePipeline(RBT(0.3, random_state=3), chunk_rows=7, codec=codec).run(
            shards, tmp_path / "released.csv"
        )
        assert counts == {shard.name: 1 for shard in shards}


class TestSpillCleanup:
    def test_successful_runs(self, spill_root, source_csv, audit_pair, tmp_path):
        root, created = spill_root
        source, _ = source_csv
        released, original = audit_pair
        AttackSuite("full").run(released, original, chunk_rows=7)
        shards = [tmp_path / f"shard-{index}.csv" for index in range(2)]
        split_csv_shards(source, shards)
        DistributedReleasePipeline(RBT(0.3, random_state=3), chunk_rows=7).run(
            shards, tmp_path / "distributed.csv"
        )
        VersionedReleaseBundle.create(
            source, tmp_path / "bundle", rbt=RBT(0.3, random_state=3), chunk_rows=7
        )
        assert len(created) == 2 + 2 + 1
        assert _leftover_spills(root) == []

    def test_audit_with_ragged_original_row_in_last_chunk(
        self, spill_root, audit_pair, tmp_path
    ):
        root, created = spill_root
        released, original = audit_pair
        lines = original.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-2] = lines[-2].rsplit(",", 1)[0] + "\r\n"  # 59 of 60 rows stay intact
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(SerializationError) as expected:
            list(iter_matrix_csv(ragged, chunk_rows=7))
        with pytest.raises(SerializationError) as raised:
            AttackSuite("full").run(released, ragged, chunk_rows=7)
        assert str(raised.value) == str(expected.value)
        assert created and _leftover_spills(root) == []

    def test_distributed_with_non_numeric_cell_in_third_shard(
        self, spill_root, source_csv, tmp_path
    ):
        root, created = spill_root
        source, _ = source_csv
        shards = [tmp_path / f"shard-{index}.csv" for index in range(3)]
        split_csv_shards(source, shards)
        lines = shards[2].read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[1] = "oops"
        lines[1] = ",".join(fields)
        shards[2].write_text("".join(lines), encoding="utf-8")
        with pytest.raises(SerializationError) as expected:
            list(iter_matrix_csv(shards[2], chunk_rows=7))
        with pytest.raises(SerializationError) as raised:
            DistributedReleasePipeline(RBT(0.3, random_state=3), chunk_rows=7).run(
                shards, tmp_path / "released.csv"
            )
        assert str(raised.value) == str(expected.value)
        assert len(created) == 3 and _leftover_spills(root) == []
