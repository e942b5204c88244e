"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import RBTSecret
from repro.data.datasets import make_patient_cohorts
from repro.data.io import matrix_from_csv, matrix_to_csv
from repro.metrics import dissimilarity_matrix
from repro.preprocessing import ZScoreNormalizer


@pytest.fixture
def vitals_csv(tmp_path):
    """A raw confidential CSV as the data owner would hold it."""
    matrix, _ = make_patient_cohorts(n_patients=80, n_cohorts=3, random_state=19)
    path = tmp_path / "vitals.csv"
    matrix_to_csv(matrix, path, float_format="%.6f")
    return path, matrix


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transform_defaults(self, tmp_path):
        args = build_parser().parse_args(["transform", "in.csv", "out.csv"])
        assert args.threshold == 0.25
        assert args.normalizer == "zscore"
        assert args.strategy == "interleaved"

    def test_cluster_algorithm_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "in.csv", "out.csv", "--algorithm", "spectral"])

    @pytest.mark.parametrize(
        ("argv", "removed"),
        [
            (["transform", "in.csv", "out.csv"], ["--pipelined"]),
            (["transform", "in.csv", "out.csv"], ["--codec", "python"]),
            (["transform", "in.csv", "out.csv"], ["--backend", "numba"]),
            (["distributed", "a.csv", "out.csv"], ["--pipelined"]),
            (["distributed", "a.csv", "out.csv"], ["--codec", "python"]),
            (["invert", "in.csv", "out.csv", "--secret", "s.json"], ["--pipelined"]),
            (["invert", "in.csv", "out.csv", "--secret", "s.json"], ["--codec", "python"]),
            (["invert", "in.csv", "out.csv", "--secret", "s.json"], ["--backend", "numba"]),
            (["release", "bundle", "--init", "in.csv"], ["--pipelined"]),
            (["release", "bundle", "--init", "in.csv"], ["--codec", "python"]),
            (["release", "bundle", "--init", "in.csv"], ["--backend", "numba"]),
            (["audit", "released.csv"], ["--codec", "python"]),
            (["audit", "released.csv"], ["--backend", "numba"]),
        ],
    )
    def test_removed_knobs_are_usage_errors(self, argv, removed, capsys):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + removed)
        assert exit_info.value.code == 2


class TestTransformCommand:
    def test_writes_release_secret_and_report(self, vitals_csv, tmp_path, capsys):
        input_path, original = vitals_csv
        output = tmp_path / "released.csv"
        secret_path = tmp_path / "secret.json"
        report_path = tmp_path / "privacy.json"

        code = main(
            [
                "transform",
                str(input_path),
                str(output),
                "--threshold",
                "0.4",
                "--seed",
                "5",
                "--secret",
                str(secret_path),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        assert output.exists() and secret_path.exists() and report_path.exists()

        released = matrix_from_csv(output)
        assert released.shape == original.shape
        report = json.loads(report_path.read_text())
        assert report["min_variance_difference"] >= 0.4 - 1e-9
        stdout = capsys.readouterr().out
        assert "released" in stdout
        assert "rotation secret" in stdout

    def test_release_preserves_distances_of_normalized_data(self, vitals_csv, tmp_path):
        input_path, original = vitals_csv
        output = tmp_path / "released.csv"
        assert main(["transform", str(input_path), str(output), "--seed", "1"]) == 0
        released = matrix_from_csv(output)
        normalized = ZScoreNormalizer().fit_transform(original)
        assert np.allclose(
            dissimilarity_matrix(normalized.values),
            dissimilarity_matrix(released.values),
            atol=1e-6,
        )

    def test_profile_writes_the_same_bytes(self, vitals_csv, tmp_path, capsys):
        input_path, _ = vitals_csv
        plain, profiled = tmp_path / "plain.csv", tmp_path / "profiled.csv"
        assert main(["transform", str(input_path), str(plain), "--seed", "3"]) == 0
        capsys.readouterr()
        argv = ["transform", str(input_path), str(profiled), "--seed", "3", "--profile"]
        assert main(argv) == 0
        assert profiled.read_bytes() == plain.read_bytes()
        table = capsys.readouterr().out
        assert "compute" in table and "write" in table

    def test_minmax_normalizer_option(self, vitals_csv, tmp_path):
        input_path, _ = vitals_csv
        output = tmp_path / "released.csv"
        code = main(
            ["transform", str(input_path), str(output)]
            + ["--normalizer", "minmax", "--threshold", "0.05", "--seed", "2"]
        )
        assert code == 0

    def test_missing_input_returns_error_code(self, tmp_path, capsys):
        code = main(["transform", str(tmp_path / "nope.csv"), str(tmp_path / "out.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unsatisfiable_threshold_reports_error(self, vitals_csv, tmp_path, capsys):
        input_path, _ = vitals_csv
        code = main(["transform", str(input_path), str(tmp_path / "out.csv"), "--threshold", "50"])
        assert code == 1
        assert "security range" in capsys.readouterr().err or True

    def test_nan_cell_same_error_in_every_branch(self, tmp_path, capsys):
        source = tmp_path / "nan.csv"
        source.write_text("id,a,b,c\nr1,1.0,2.0,3.0\nr2,nan,1.0,2.0\nr3,2.0,3.0,1.0\n")
        clean = tmp_path / "clean.csv"
        clean.write_text("id,a,b,c\nr4,1.0,2.0,3.0\nr5,3.0,1.0,2.0\n")
        out = str(tmp_path / "out.csv")
        commands = [
            ["transform", str(source), out, "--seed", "1"],
            ["transform", str(source), out, "--seed", "1", "--chunk-rows", "2"],
            ["distributed", str(source), str(clean), out, "--seed", "1"],
        ]
        messages = []
        for argv in commands:
            assert main(argv) == 1
            messages.append(capsys.readouterr().err)
        assert messages[0] == "error: data must not contain NaN or infinite values\n"
        assert messages[1:] == messages[:1] * 2
        assert not (tmp_path / "out.csv").exists()


class TestDistributedCommand:
    def test_multi_shard_release_matches_transform_bytes(self, vitals_csv, tmp_path, capsys):
        input_path, _ = vitals_csv
        single = tmp_path / "single.csv"
        assert (
            main(
                ["transform", str(input_path), str(single), "--seed", "7", "--chunk-rows", "16"]
            )
            == 0
        )
        multi = tmp_path / "multi.csv"
        report_path = tmp_path / "release.json"
        code = main(
            [
                "distributed",
                str(input_path),
                str(multi),
                "--parties",
                "3",
                "--seed",
                "7",
                "--chunk-rows",
                "9",
                "--protocol-seed",
                "123",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        assert multi.read_bytes() == single.read_bytes()
        out = capsys.readouterr().out
        assert "from 3 part(ies)" in out
        assert "communication:" in out
        payload = json.loads(report_path.read_text())
        assert payload["n_parties"] == 3
        assert sum(payload["party_rows"]) == 80
        assert payload["communication"]["n_messages"] > 0
        # Sketch-sized payloads only: bounded by occupied exponent buckets,
        # not by rows (the row-independence test lives in the federated suite).
        assert payload["communication"]["max_message_values"] < 10_000

    def test_explicit_shards_and_secret_round_trip(self, vitals_csv, tmp_path):
        from repro.distributed import split_csv_shards

        input_path, original = vitals_csv
        shards = [tmp_path / f"site-{index}.csv" for index in range(2)]
        split_csv_shards(input_path, shards, row_counts=[30, 50])
        released = tmp_path / "released.csv"
        secret_path = tmp_path / "secret.json"
        code = main(
            [
                "distributed",
                *[str(path) for path in shards],
                str(released),
                "--seed",
                "3",
                "--secret",
                str(secret_path),
            ]
        )
        assert code == 0
        restored = tmp_path / "restored.csv"
        assert (
            main(["invert", str(released), str(restored), "--secret", str(secret_path)]) == 0
        )
        normalized = ZScoreNormalizer().fit_transform(original)
        assert np.allclose(
            matrix_from_csv(restored).values, normalized.values, atol=1e-9
        )

    def test_parties_with_multiple_inputs_is_an_error(self, vitals_csv, tmp_path, capsys):
        input_path, _ = vitals_csv
        code = main(
            [
                "distributed",
                str(input_path),
                str(input_path),
                str(tmp_path / "out.csv"),
                "--parties",
                "2",
            ]
        )
        assert code == 1
        assert "single source CSV" in capsys.readouterr().err


class TestInvertCommand:
    def test_round_trip(self, vitals_csv, tmp_path):
        input_path, original = vitals_csv
        released_path = tmp_path / "released.csv"
        secret_path = tmp_path / "secret.json"
        restored_path = tmp_path / "restored.csv"

        transform_argv = ["transform", str(input_path), str(released_path)]
        assert main(transform_argv + ["--seed", "3", "--secret", str(secret_path)]) == 0
        assert main(
            ["invert", str(released_path), str(restored_path), "--secret", str(secret_path)]
        ) == 0

        restored = matrix_from_csv(restored_path)
        normalized = ZScoreNormalizer().fit_transform(original)
        assert np.allclose(restored.values, normalized.values, atol=1e-6)

    def test_secret_file_contents(self, vitals_csv, tmp_path):
        input_path, _ = vitals_csv
        secret_path = tmp_path / "secret.json"
        main(
            ["transform", str(input_path), str(tmp_path / "r.csv")]
            + ["--seed", "3", "--secret", str(secret_path)]
        )
        secret = RBTSecret.load(secret_path)
        assert len(secret.steps) == 3  # 6 attributes -> 3 pairs


class TestEvaluateCommand:
    def test_reports_preservation_and_agreement(self, vitals_csv, tmp_path, capsys):
        input_path, original = vitals_csv
        released_path = tmp_path / "released.csv"
        normalized_path = tmp_path / "normalized.csv"
        main(["transform", str(input_path), str(released_path), "--seed", "4"])
        # Normalize exactly what the CLI read (the 6-decimal CSV), otherwise the
        # comparison would be against slightly different input precision.
        normalized = ZScoreNormalizer().fit_transform(matrix_from_csv(input_path))
        matrix_to_csv(normalized, normalized_path, float_format="%.12f")

        code = main(["evaluate", str(normalized_path), str(released_path), "--k", "3"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "distances preserved           : True" in stdout
        assert "misclassification     : 0.0000" in stdout

    def test_shape_mismatch_is_an_error(self, vitals_csv, tmp_path, capsys):
        input_path, original = vitals_csv
        small_path = tmp_path / "small.csv"
        matrix_to_csv(original.rows(range(10)), small_path)
        code = main(["evaluate", str(input_path), str(small_path)])
        assert code == 2
        assert "shape mismatch" in capsys.readouterr().err


class TestClusterCommand:
    @pytest.mark.parametrize("algorithm", ["kmeans", "kmedoids", "hierarchical"])
    def test_writes_labels(self, vitals_csv, tmp_path, algorithm, capsys):
        input_path, original = vitals_csv
        labels_path = tmp_path / f"labels_{algorithm}.csv"
        code = main(
            ["cluster", str(input_path), str(labels_path)]
            + ["--algorithm", algorithm, "--k", "3", "--seed", "0"]
        )
        assert code == 0
        lines = labels_path.read_text().strip().splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == original.n_objects + 1
        assert "cluster(s)" in capsys.readouterr().out

    def test_dbscan_options(self, vitals_csv, tmp_path):
        input_path, _ = vitals_csv
        labels_path = tmp_path / "labels_dbscan.csv"
        code = main(
            [
                "cluster",
                str(input_path),
                str(labels_path),
                "--algorithm",
                "dbscan",
                "--eps",
                "25",
                "--min-samples",
                "3",
            ]
        )
        assert code == 0
        assert labels_path.exists()

    def test_labels_with_tricky_ids_are_valid_csv(self, tmp_path):
        # Regression: ids containing commas, quotes or newlines used to be
        # string-joined into corrupt CSV rows.
        import csv

        from repro.data import DataMatrix

        rng = np.random.default_rng(0)
        ids = ["Smith, Jane", 'he said "hi"', "line\nbreak"] + [f"plain-{i}" for i in range(27)]
        matrix = DataMatrix(rng.normal(size=(30, 3)), ids=ids)
        input_path = tmp_path / "tricky.csv"
        labels_path = tmp_path / "labels.csv"
        matrix_to_csv(matrix, input_path)
        assert main(["cluster", str(input_path), str(labels_path), "--k", "2"]) == 0

        with labels_path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id", "label"]
        assert len(rows) == 31
        assert [row[0] for row in rows[1:]] == ids
        assert all(len(row) == 2 and row[1].lstrip("-").isdigit() for row in rows[1:])


class TestReleaseCommand:
    @pytest.fixture
    def feed(self, vitals_csv, tmp_path):
        """The owner's feed split into an initial batch plus two deltas."""
        _, matrix = vitals_csv
        batches = []
        for index, rows in enumerate((range(0, 40), range(40, 65), range(65, 80))):
            path = tmp_path / f"batch-{index}.csv"
            matrix_to_csv(matrix.rows(rows), path, float_format="%.6f")
            batches.append(path)
        return batches

    def test_init_append_status_lifecycle(self, feed, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        init_argv = ["release", str(bundle), "--init", str(feed[0])]
        assert main(init_argv + ["--seed", "5", "--threshold", "0.3"]) == 0
        assert "release v1" in capsys.readouterr().out

        assert main(["release", str(bundle), "--append", str(feed[1])]) == 0
        assert "release v2: appended 25 objects (65 total)" in capsys.readouterr().out

        append_argv = ["release", str(bundle), "--append", str(feed[2])]
        assert main(append_argv + ["--expect-version", "2", "--chunk-rows", "7"]) == 0
        capsys.readouterr()

        assert main(["release", str(bundle)]) == 0
        status = capsys.readouterr().out
        assert "release v3 (artifacts verified)" in status
        assert "v2: +25 rows (65 total)" in status
        assert "v3: +15 rows (80 total)" in status

    def test_append_matches_transform_from_scratch(self, feed, vitals_csv, tmp_path):
        input_path, _ = vitals_csv
        bundle = tmp_path / "bundle"
        init_argv = ["release", str(bundle), "--init", str(feed[0]), "--seed", "5"]
        assert main(init_argv) == 0
        assert main(["release", str(bundle), "--append", str(feed[1])]) == 0
        assert main(["release", str(bundle), "--append", str(feed[2])]) == 0

        from repro.pipeline.versioned import VersionedReleaseBundle

        grown = VersionedReleaseBundle.open(bundle)
        reference = tmp_path / "reference.csv"
        grown.reference_pipeline().run(input_path, reference)
        assert grown.released_path.read_bytes() == reference.read_bytes()

    def test_version_mismatch_is_an_actionable_error(self, feed, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["release", str(bundle), "--init", str(feed[0]), "--seed", "5"]) == 0
        assert main(["release", str(bundle), "--append", str(feed[1])]) == 0
        append_argv = ["release", str(bundle), "--append", str(feed[2])]
        code = main(append_argv + ["--expect-version", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "version mismatch" in err
        assert "re-open the bundle" in err

    def test_schema_drift_is_an_actionable_error(self, feed, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["release", str(bundle), "--init", str(feed[0]), "--seed", "5"]) == 0
        drifted = tmp_path / "drifted.csv"
        lines = feed[1].read_text().splitlines(keepends=True)
        header = lines[0].replace("heart_rate", "pulse")
        assert header != lines[0]
        drifted.write_text(header + "".join(lines[1:]))
        code = main(["release", str(bundle), "--append", str(drifted)])
        assert code == 1
        err = capsys.readouterr().err
        assert "schema drift" in err
        assert "same header" in err

    def test_missing_bundle_is_an_actionable_error(self, tmp_path, capsys):
        code = main(["release", str(tmp_path / "nope")])
        assert code == 1
        assert "--init" in capsys.readouterr().err


class TestAuditIncremental:
    @pytest.fixture
    def bundle(self, vitals_csv, tmp_path):
        input_path, _ = vitals_csv
        path = tmp_path / "bundle"
        assert main(["release", str(path), "--init", str(input_path), "--seed", "5"]) == 0
        return path

    def test_audit_accepts_a_bundle_directory(self, bundle, tmp_path, capsys):
        out = tmp_path / "audit_out"
        argv = ["audit", str(bundle), "--output-dir", str(out), "--quiet", "--seed", "3"]
        assert main(argv) == 0
        assert "auditing release v1" in capsys.readouterr().out
        assert (out / "paper_public_audit.json").exists()

    def test_incremental_reuses_every_unchanged_row(self, bundle, tmp_path, capsys):
        out = tmp_path / "audit_out"
        argv = ["audit", str(bundle), "--output-dir", str(out), "--quiet", "--seed", "3"]
        argv += ["--format", "json"]
        assert main(argv) == 0
        first = (out / "paper_public_audit.json").read_text()
        capsys.readouterr()

        # --no-cache isolates the prior-report path from the on-disk cache.
        assert main(argv + ["--incremental", "--no-cache"]) == 0
        stdout = capsys.readouterr().out
        assert "0 executed" in stdout
        assert "3 reused from prior" in stdout
        assert (out / "paper_public_audit.json").read_text() == first

    def test_missing_prior_is_an_error(self, bundle, tmp_path, capsys):
        argv = ["audit", str(bundle), "--output-dir", str(tmp_path / "out"), "--quiet"]
        code = main(argv + ["--prior", str(tmp_path / "nope.json")])
        assert code == 1
        assert "prior report" in capsys.readouterr().err

    def test_incremental_without_prior_runs_full(self, bundle, tmp_path, capsys):
        argv = ["audit", str(bundle), "--output-dir", str(tmp_path / "fresh"), "--quiet"]
        assert main(argv + ["--incremental", "--seed", "3"]) == 0
        assert "running a full audit" in capsys.readouterr().out


class TestEndToEndRoundTrip:
    def test_transform_invert_recovers_normalized_csv(self, vitals_csv, tmp_path):
        """Owner contract: transform -> invert restores the normalized data.

        With the bitwise CSV default the only loss left on the loop is the
        floating-point rotation round trip itself (R(θ)ᵀ·R(θ)·x), so the
        restored values agree to ~1 ulp — versus 1e-6 with the old "%.6f"
        serialization — and re-serializing them is byte-stable.
        """
        input_path, original = vitals_csv
        released = tmp_path / "released.csv"
        secret = tmp_path / "secret.json"
        restored = tmp_path / "restored.csv"
        transform_argv = ["transform", str(input_path), str(released), "--seed", "8"]
        assert main(transform_argv + ["--secret", str(secret)]) == 0
        assert main(["invert", str(released), str(restored), "--secret", str(secret)]) == 0

        normalized = ZScoreNormalizer().fit_transform(matrix_from_csv(input_path))
        restored_matrix = matrix_from_csv(restored)
        assert np.allclose(restored_matrix.values, normalized.values, atol=1e-12)
        # The serialization layer itself is bitwise: writing the restored
        # matrix again reproduces the restored file exactly.
        rewritten = tmp_path / "rewritten.csv"
        matrix_to_csv(restored_matrix, rewritten)
        assert rewritten.read_bytes() == restored.read_bytes()

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 100000])
    def test_streamed_transform_and_invert_byte_identical(
        self, vitals_csv, tmp_path, chunk_rows
    ):
        input_path, _ = vitals_csv
        memory_released = tmp_path / "released_mem.csv"
        stream_released = tmp_path / "released_stream.csv"
        memory_secret = tmp_path / "secret_mem.json"
        stream_secret = tmp_path / "secret_stream.json"
        base = ["transform", str(input_path)]
        options = ["--seed", "21", "--threshold", "0.3"]
        memory_argv = base + [str(memory_released)] + options + ["--secret", str(memory_secret)]
        stream_argv = base + [str(stream_released)] + options + ["--secret", str(stream_secret)]
        assert main(memory_argv) == 0
        assert main(stream_argv + ["--chunk-rows", str(chunk_rows)]) == 0
        assert stream_released.read_bytes() == memory_released.read_bytes()
        assert stream_secret.read_text() == memory_secret.read_text()

        memory_restored = tmp_path / "restored_mem.csv"
        stream_restored = tmp_path / "restored_stream.csv"
        invert = ["invert", str(memory_released), "--secret", str(memory_secret)]
        assert main(invert[:2] + [str(memory_restored)] + invert[2:]) == 0
        stream_invert_argv = invert[:2] + [str(stream_restored)] + invert[2:]
        assert main(stream_invert_argv + ["--chunk-rows", str(chunk_rows)]) == 0
        assert stream_restored.read_bytes() == memory_restored.read_bytes()

    def test_streamed_transform_report(self, vitals_csv, tmp_path):
        input_path, _ = vitals_csv
        report_path = tmp_path / "privacy.json"
        code = main(
            [
                "transform",
                str(input_path),
                str(tmp_path / "released.csv"),
                "--seed",
                "2",
                "--threshold",
                "0.4",
                "--chunk-rows",
                "16",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["min_variance_difference"] >= 0.4 - 1e-9
        assert set(report) == {"threshold", "pairs", "min_variance_difference", "attributes"}
