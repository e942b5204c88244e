"""Tests for the unified threat-analysis engine.

Covers the attack registry, the chunked/budgeted attack paths (property:
bitwise equality with the dense seed paths, down to single-angle blocks),
deterministic rng threading, result immutability, threat models, the
AttackSuite runner (dense and streamed engines, caching, chunk invariance)
and the ``repro audit`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks import (
    AttackResult,
    BruteForceAngleAttack,
    KnownSampleAttack,
    LinearReconstruction,
    MomentSketch,
    RenormalizationAttack,
    VarianceFingerprintAttack,
    available_attacks,
    build_attack,
    plan_attack,
    register_attack,
)
from repro.attacks.registry import _ATTACKS
from repro.cli import main
from repro.core import RBT
from repro.data import DataMatrix
from repro.data.datasets import make_patient_cohorts
from repro.data.io import matrix_to_csv
from repro.exceptions import AttackError, ValidationError
from repro.perf.cache import DistanceCache
from repro.perf.csv_codec import DecodedChunkCache
from repro.perf.streaming import StreamingMoments
from repro.pipeline import (
    AttackSuite,
    PPCPipeline,
    ThreatModel,
    builtin_threat_model,
)
from repro.preprocessing import ZScoreNormalizer


@pytest.fixture(scope="module")
def release():
    matrix, _ = make_patient_cohorts(n_patients=90, random_state=17)
    normalized = ZScoreNormalizer().fit_transform(matrix)
    released = RBT(thresholds=0.35, random_state=17).transform(normalized).matrix
    return normalized, released


@pytest.fixture()
def csv_release(tmp_path, release):
    normalized, released = release
    original_path = tmp_path / "normalized.csv"
    released_path = tmp_path / "released.csv"
    matrix_to_csv(normalized, original_path)
    matrix_to_csv(released, released_path)
    return original_path, released_path


def _results_equal(first: AttackResult, second: AttackResult) -> bool:
    if not np.array_equal(first.reconstruction.values, second.reconstruction.values):
        return False
    if not (first.error == second.error or (np.isnan(first.error) and np.isnan(second.error))):
        return False
    return (
        first.work == second.work
        and first.succeeded == second.succeeded
        and json.dumps(_strip_arrays(first.details), sort_keys=True)
        == json.dumps(_strip_arrays(second.details), sort_keys=True)
    )


def _strip_arrays(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _strip_arrays(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strip_arrays(item) for item in value]
    return value


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestAttackRegistry:
    def test_builtin_names(self):
        assert available_attacks() == (
            "brute_force_angle",
            "known_sample",
            "renormalization",
            "sequential_release",
            "variance_fingerprint",
        )

    def test_build_each(self, release):
        normalized, released = release
        for name in available_attacks():
            attack = build_attack(name, {}, random_state=3)
            result = attack.run(released, normalized)
            assert result.name == name
            assert result.work >= 1

    def test_unknown_attack(self):
        with pytest.raises(AttackError, match="unknown attack"):
            build_attack("nope", {})

    def test_unknown_param_rejected(self):
        with pytest.raises(AttackError, match="unknown params"):
            build_attack("renormalization", {"dof": 1})

    def test_register_custom(self, release):
        normalized, released = release

        class EchoAttack:
            name = "echo"

            def run(self, released, original=None):
                return AttackResult(
                    name=self.name,
                    reconstruction=released,
                    error=float("nan"),
                    succeeded=False,
                    work=1,
                )

        register_attack("echo", lambda params, random_state: EchoAttack())
        try:
            result = build_attack("echo", {}).run(released, normalized)
            assert result.name == "echo"
        finally:
            _ATTACKS.pop("echo")


# --------------------------------------------------------------------------- #
# Chunked-path bitwise equality (the core property of the rewrite)
# --------------------------------------------------------------------------- #
class TestChunkedBitwiseEquality:
    def test_brute_force_budgeted_equals_dense(self, release):
        normalized, released = release
        dense = BruteForceAngleAttack(angle_resolution=20, max_pairings=4).run(
            released, normalized
        )
        # bytes-per-angle-row is 6·m·8; budget of 1 byte forces 1-angle blocks.
        for budget in (1, 6 * released.n_objects * 8 * 3, None):
            chunked = BruteForceAngleAttack(
                angle_resolution=20, max_pairings=4, memory_budget_bytes=budget
            ).run(released, normalized)
            assert _results_equal(dense, chunked)

    def test_variance_fingerprint_batched_equals_naive(self, release):
        normalized, released = release
        naive = VarianceFingerprintAttack(angle_resolution=36, scoring="naive").run(
            released, normalized
        )
        for budget in (None, 1):
            batched = VarianceFingerprintAttack(
                angle_resolution=36, memory_budget_bytes=budget
            ).run(released, normalized)
            assert _results_equal(naive, batched)
            assert np.array_equal(
                naive.per_attribute_errors, batched.per_attribute_errors
            )

    def test_variance_fingerprint_tied_columns(self):
        # Duplicated/negated columns manufacture exact score ties; the blocked
        # scan must resolve them to the same (pair, angle) as the naive scan.
        rng = np.random.default_rng(5)
        base = rng.normal(size=(64, 2))
        data = DataMatrix(np.column_stack([base, base[:, 0], -base[:, 1]]))
        naive = VarianceFingerprintAttack(angle_resolution=24, scoring="naive").run(data)
        batched = VarianceFingerprintAttack(angle_resolution=24, memory_budget_bytes=1).run(
            data
        )
        assert _results_equal(naive, batched)

    def test_invalid_scoring_rejected(self):
        with pytest.raises(ValidationError, match="scoring"):
            VarianceFingerprintAttack(scoring="fast")

    def test_renormalization_distance_cache_identical(self, release):
        normalized, released = release
        plain = RenormalizationAttack().run(released, normalized)
        cache = DistanceCache()
        shared = RenormalizationAttack(distance_cache=cache).run(released, normalized)
        assert plain.details["max_distance_change"] == shared.details["max_distance_change"]
        assert cache.stats["misses"] >= 1

    def test_known_sample_distance_diagnostics(self, release):
        normalized, released = release
        result = KnownSampleAttack(
            n_known=released.n_attributes + 2, random_state=0, check_distances=True
        ).run(released, normalized)
        assert result.details["distances_preserved"]
        assert result.details["max_distance_change"] < 1e-6


# --------------------------------------------------------------------------- #
# Deterministic rng threading
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_known_sample_same_seed_same_result(self, release):
        normalized, released = release
        first = KnownSampleAttack(n_known=6, random_state=42).run(released, normalized)
        second = KnownSampleAttack(n_known=6, random_state=42).run(released, normalized)
        assert first.details["known_indices"] == second.details["known_indices"]
        assert _results_equal(first, second)
        other = KnownSampleAttack(n_known=6, random_state=43).run(released, normalized)
        assert other.details["known_indices"] != first.details["known_indices"]

    def test_brute_force_sampled_pairings_deterministic(self, release):
        normalized, released = release
        first = BruteForceAngleAttack(
            angle_resolution=12, max_pairings=3, sample_pairings=True, random_state=7
        ).run(released, normalized)
        second = BruteForceAngleAttack(
            angle_resolution=12, max_pairings=3, sample_pairings=True, random_state=7
        ).run(released, normalized)
        assert _results_equal(first, second)

    def test_registry_seeds_stable_across_builds(self, release):
        normalized, released = release
        first = build_attack("known_sample", {"n_known": 5}, random_state=11).run(
            released, normalized
        )
        second = build_attack("known_sample", {"n_known": 5}, random_state=11).run(
            released, normalized
        )
        assert first.details["known_indices"] == second.details["known_indices"]

    def test_known_sample_requires_exactly_one_spec(self):
        with pytest.raises(AttackError):
            KnownSampleAttack()
        with pytest.raises(AttackError):
            KnownSampleAttack(known_indices=[0], n_known=2)

    def test_known_sample_n_known_exceeds_rows(self, release):
        normalized, released = release
        with pytest.raises(AttackError, match="exceeds"):
            KnownSampleAttack(n_known=10_000, random_state=0).run(released, normalized)


# --------------------------------------------------------------------------- #
# Result immutability (mutability-audit satellite)
# --------------------------------------------------------------------------- #
class TestResultImmutability:
    def test_per_attribute_errors_read_only(self, release):
        normalized, released = release
        result = RenormalizationAttack().run(released, normalized)
        with pytest.raises(ValueError):
            result.per_attribute_errors[0] = 0.0

    def test_details_arrays_read_only_copies(self, release):
        normalized, released = release
        result = KnownSampleAttack(known_indices=range(6)).run(released, normalized)
        estimate = result.details["estimated_map"]
        with pytest.raises(ValueError):
            estimate[0, 0] = 99.0

    def test_details_not_aliased_to_caller_dict(self):
        payload = {"vector": np.arange(3.0)}
        result = AttackResult(
            name="x",
            reconstruction=DataMatrix([[1.0, 2.0]]),
            error=0.0,
            succeeded=False,
            details=payload,
        )
        payload["vector"][0] = 99.0
        assert result.details["vector"][0] == 0.0

    def test_summary_is_json_safe(self, release):
        normalized, released = release
        result = RenormalizationAttack().run(released, normalized)
        assert json.loads(json.dumps(result.summary()))["name"] == "renormalization"


# --------------------------------------------------------------------------- #
# Threat models
# --------------------------------------------------------------------------- #
class TestThreatModel:
    def test_builtins(self):
        for name in ("paper_public", "insider", "full"):
            model = builtin_threat_model(name)
            assert model.name == name
            assert model.attacks

    def test_unknown_builtin(self):
        with pytest.raises(ValidationError, match="unknown threat model"):
            builtin_threat_model("nope")

    def test_json_round_trip(self, tmp_path):
        model = builtin_threat_model("full")
        path = tmp_path / "model.json"
        model.save(path)
        restored = ThreatModel.load(path)
        assert restored == model

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValidationError, match="duplicates"):
            ThreatModel(name="m", attacks=({"name": "renormalization"},) * 2)
        with pytest.raises(ValidationError, match="separators"):
            ThreatModel(name="../m", attacks=({"name": "renormalization"},))
        with pytest.raises(ValidationError, match="positive"):
            ThreatModel(
                name="m", attacks=({"name": "renormalization"},), privacy_threshold=0.0
            )

    def test_save_interrupted_publish_keeps_previous_model(self, tmp_path, monkeypatch):
        model = builtin_threat_model("full")
        path = tmp_path / "model.json"
        model.save(path)
        before = path.read_bytes()

        def crash(src, dst):
            raise RuntimeError("simulated crash between write and publish")

        monkeypatch.setattr("os.replace", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            builtin_threat_model("insider").save(path)
        assert path.read_bytes() == before
        assert ThreatModel.load(path) == model
        assert list(tmp_path.iterdir()) == [path]

    def test_attack_seeds_differ_per_position(self):
        model = builtin_threat_model("full")
        seeds = [model.attack_seed(i) for i in range(len(model.attacks))]
        assert len(set(seeds)) == len(seeds)


# --------------------------------------------------------------------------- #
# AttackSuite — dense engine
# --------------------------------------------------------------------------- #
class TestAttackSuiteDense:
    def test_run_bundle(self, release):
        normalized, released = release
        bundle = PPCPipeline(RBT(thresholds=0.35, random_state=17)).run(
            ZScoreNormalizer().fit_transform(
                make_patient_cohorts(n_patients=90, random_state=17)[0]
            )
        )
        report = AttackSuite("paper_public").run_bundle(bundle)
        assert report.mode == "in_memory"
        assert not report.breached
        assert report.verdicts["privacy_satisfied"] is not None

    def test_cache_hits_and_byte_identity(self, tmp_path, release):
        normalized, released = release
        suite = AttackSuite("full", cache_dir=tmp_path / "cache")
        cold = suite.run(released, normalized)
        warm = suite.run(released, normalized)
        assert cold.executed == len(cold.outcomes) and cold.cached == 0
        assert warm.executed == 0 and warm.cached == len(warm.outcomes)
        assert cold.to_json() == warm.to_json()
        assert cold.to_markdown() == warm.to_markdown()

    def test_insider_breaches_public_does_not(self, release):
        normalized, released = release
        public = AttackSuite("paper_public").run(released, normalized)
        insider = AttackSuite("insider").run(released, normalized)
        assert not public.breached
        assert insider.breached

    def test_release_only_audit(self, release):
        _, released = release
        report = AttackSuite("paper_public").run(released)
        assert report.privacy is None
        assert all(np.isnan(outcome.error) for outcome in report.outcomes)
        assert not report.breached

    def test_thread_pool_matches_serial(self, release):
        normalized, released = release
        serial = AttackSuite("paper_public").run(released, normalized)
        pooled = AttackSuite("paper_public", workers=3).run(released, normalized)
        assert serial.to_json() == pooled.to_json()

    def test_mixed_evidence_rejected(self, release, tmp_path):
        normalized, released = release
        with pytest.raises(ValidationError):
            AttackSuite("insider").run(released, tmp_path / "x.csv")
        with pytest.raises(ValidationError):
            AttackSuite("insider").run(tmp_path / "x.csv", normalized)

    def test_work_factor_table(self, release):
        normalized, released = release
        report = AttackSuite("paper_public").run(released, normalized)
        table = report.work_factor_table()
        assert len(table) == 3
        assert all(row["work"] >= 1 for row in table)


# --------------------------------------------------------------------------- #
# AttackSuite — streamed engine
# --------------------------------------------------------------------------- #
class TestAttackSuiteStreamed:
    @pytest.mark.parametrize("codec", ["fast", "python"])
    @pytest.mark.parametrize(
        "threat_model",
        [
            "paper_public",
            "insider",
            "full",
            # Known records at the head: the gather pass stops early, then the
            # scoring pass replays the decoded blocks the moments pass spilled.
            {
                "name": "early_insider",
                "attacks": [
                    {"name": "known_sample", "params": {"known_indices": list(range(8))}}
                ],
            },
        ],
        ids=["paper_public", "insider", "full", "early_insider"],
    )
    def test_chunk_invariance(self, csv_release, monkeypatch, threat_model, codec):
        original_path, released_path = csv_release

        def report(chunk_rows):
            suite = AttackSuite(threat_model, codec=codec)
            return suite.run(released_path, original_path, chunk_rows=chunk_rows).to_json()

        # Oracle: every pass parses its CSV again instead of replaying a spill.
        with monkeypatch.context() as patch:
            patch.setattr(DecodedChunkCache, "complete", property(lambda cache: False))
            reparsed = report(None)
        for chunk_rows in (1, 7, 64, 100_000, None):
            assert report(chunk_rows) == reparsed

    def test_cache_hits_across_chunkings(self, tmp_path, csv_release):
        original_path, released_path = csv_release
        suite = AttackSuite("full", cache_dir=tmp_path / "cache")
        cold = suite.run(released_path, original_path, chunk_rows=16)
        warm = suite.run(released_path, original_path, chunk_rows=999)
        assert cold.executed == len(cold.outcomes)
        assert warm.executed == 0 and warm.cached == len(warm.outcomes)
        assert cold.to_json() == warm.to_json()

    def test_streamed_agrees_with_dense_verdicts(self, release, csv_release):
        normalized, released = release
        original_path, released_path = csv_release
        dense = AttackSuite("full").run(released, normalized)
        streamed = AttackSuite("full").run(released_path, original_path)
        for dense_outcome, streamed_outcome in zip(dense.outcomes, streamed.outcomes):
            assert dense_outcome.succeeded == streamed_outcome.succeeded
            assert dense_outcome.work == streamed_outcome.work
            if np.isnan(dense_outcome.error):
                continue
            # The engines score identically-shaped reconstructions; only
            # tie-breaking between equivalent hypotheses may differ.  When
            # the winning hypotheses score as a tie (ulp-level difference
            # between the row-space and moment-space scans), either engine's
            # pick is legitimate and only the scores must agree.
            dense_score = dense_outcome.details.get("score")
            streamed_score = streamed_outcome.details.get("score")
            scores_tied = (
                dense_score is not None
                and streamed_score is not None
                and streamed_score == pytest.approx(dense_score, rel=1e-9)
            )
            if not scores_tied:
                assert streamed_outcome.error == pytest.approx(
                    dense_outcome.error, rel=0.35, abs=0.35
                )
        assert dense.verdicts["breached_by"] == streamed.verdicts["breached_by"]
        assert dense.privacy["min_variance_difference"] == pytest.approx(
            streamed.privacy["min_variance_difference"], rel=1e-9
        )

    def test_streamed_release_only(self, csv_release):
        _, released_path = csv_release
        report = AttackSuite("paper_public").run(released_path)
        assert report.privacy is None
        assert all(np.isnan(outcome.error) for outcome in report.outcomes)

    def test_streamed_known_sample_needs_original(self, csv_release):
        _, released_path = csv_release
        with pytest.raises(AttackError, match="original"):
            AttackSuite("insider").run(released_path)

    def test_renormalization_diagnostic_sampled(self, csv_release):
        original_path, released_path = csv_release
        report = AttackSuite("paper_public", distance_sample_rows=32).run(
            released_path, original_path
        )
        renorm = report.outcomes[0]
        assert renorm.attack == "renormalization"
        assert renorm.details["distance_sample_rows"] == 32
        assert not renorm.details["distances_preserved"]

    def test_cache_invalidated_by_id_column_and_sample_rows(self, tmp_path, csv_release):
        # Knobs that change the parsed values or the recorded diagnostics
        # must miss the cache; a different id-column interpretation or
        # Table-5 sample size served stale rows before this regression test.
        original_path, released_path = csv_release
        cache_dir = tmp_path / "cache"
        suite = AttackSuite("paper_public", cache_dir=cache_dir)
        suite.run(released_path, original_path)
        resampled = AttackSuite(
            "paper_public", cache_dir=cache_dir, distance_sample_rows=16
        ).run(released_path, original_path)
        assert resampled.executed == len(resampled.outcomes)
        assert resampled.outcomes[0].details["distance_sample_rows"] == 16
        # An id-less CSV parses identically under id_column="id" and None,
        # but the interpretation knob must still key the cache.
        bare_released = tmp_path / "bare_released.csv"
        bare_original = tmp_path / "bare_original.csv"
        from repro.data.io import matrix_from_csv

        released_matrix = matrix_from_csv(released_path)
        original_matrix = matrix_from_csv(original_path)
        matrix_to_csv(released_matrix.without_ids(), bare_released)
        matrix_to_csv(original_matrix.without_ids(), bare_original)
        first = suite.run(bare_released, bare_original)
        assert first.executed == len(first.outcomes)
        same = suite.run(bare_released, bare_original)
        assert same.executed == 0
        other_ids = suite.run(bare_released, bare_original, id_column=None)
        assert other_ids.executed == len(other_ids.outcomes)
        # The id-column knob keys the cache (so the per-row evidence hashes
        # differ) but must not change the evidence itself.
        first_payload = json.loads(first.to_json())
        other_payload = json.loads(other_ids.to_json())
        first_hashes = [row.pop("evidence_hash") for row in first_payload["attacks"]]
        other_hashes = [row.pop("evidence_hash") for row in other_payload["attacks"]]
        assert first_hashes != other_hashes
        assert other_payload == first_payload

    def test_streamed_workers_byte_identical(self, csv_release):
        original_path, released_path = csv_release
        serial = AttackSuite("full").run(released_path, original_path)
        pooled = AttackSuite("full", workers=3).run(released_path, original_path)
        assert serial.to_json() == pooled.to_json()

    def test_mismatched_row_counts_rejected(self, tmp_path, release):
        normalized, released = release
        long_path = tmp_path / "long.csv"
        short_path = tmp_path / "short.csv"
        matrix_to_csv(released, long_path)
        matrix_to_csv(
            DataMatrix(normalized.values[:10], columns=normalized.columns), short_path
        )
        with pytest.raises(ValidationError, match="row counts|different shapes"):
            AttackSuite("paper_public").run(long_path, short_path)
        with pytest.raises(ValidationError, match="row counts|different shapes"):
            AttackSuite("paper_public").run(long_path, short_path, chunk_rows=10)


# --------------------------------------------------------------------------- #
# Moment-space planners
# --------------------------------------------------------------------------- #
class TestMomentSketch:
    def test_sketch_matches_dense_moments(self, release):
        _, released = release
        accumulator = StreamingMoments(released.n_attributes, cross=True)
        accumulator.update(released.values)
        sketch = MomentSketch.from_accumulator(accumulator)
        assert sketch.means == pytest.approx(released.values.mean(axis=0))
        assert np.diag(sketch.covariance) == pytest.approx(
            released.values.var(axis=0, ddof=1)
        )

    def test_transformed_matches_empirical(self, release):
        _, released = release
        accumulator = StreamingMoments(released.n_attributes, cross=True)
        accumulator.update(released.values)
        sketch = MomentSketch.from_accumulator(accumulator)
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(released.n_attributes, released.n_attributes))
        pushed = sketch.transformed(matrix)
        mapped = released.values @ matrix
        assert pushed.means == pytest.approx(mapped.mean(axis=0))
        assert np.diag(pushed.covariance) == pytest.approx(mapped.var(axis=0, ddof=1))

    def test_variance_fingerprint_plan_matches_dense(self, release):
        normalized, released = release
        accumulator = StreamingMoments(released.n_attributes, cross=True)
        accumulator.update(released.values)
        sketch = MomentSketch.from_accumulator(accumulator)
        attack = VarianceFingerprintAttack(angle_resolution=45)
        reconstruction, work, details = plan_attack(attack, sketch)
        dense = attack.run(released, normalized)
        assert work == dense.work
        assert details["final_profile_error"] == pytest.approx(
            dense.details["final_profile_error"], abs=1e-8
        )
        assert np.allclose(
            reconstruction.apply(released.values), dense.reconstruction.values, atol=1e-9
        )

    def test_apply_is_chunk_invariant(self, release):
        _, released = release
        accumulator = StreamingMoments(released.n_attributes, cross=True)
        accumulator.update(released.values)
        sketch = MomentSketch.from_accumulator(accumulator)
        reconstruction, _, _ = plan_attack(VarianceFingerprintAttack(angle_resolution=12), sketch)
        whole = reconstruction.apply(released.values)
        pieces = np.vstack(
            [
                reconstruction.apply(released.values[start : start + 13])
                for start in range(0, released.n_objects, 13)
            ]
        )
        assert np.array_equal(whole, pieces)

    def test_constructors_copy_instead_of_freezing_callers_arrays(self):
        # Read-only hardening must not freeze the caller's own objects.
        matrix, offset = np.eye(3), np.zeros(3)
        reconstruction = LinearReconstruction(matrix=matrix, offset=offset)
        matrix[0, 0] = 2.0  # caller's array stays writable
        offset[0] = 1.0
        assert reconstruction.matrix[0, 0] == 1.0
        assert reconstruction.offset[0] == 0.0
        with pytest.raises(ValueError):
            reconstruction.matrix[0, 0] = 3.0
        means, covariance = np.zeros(2), np.eye(2)
        sketch = MomentSketch(means=means, covariance=covariance, count=10)
        covariance[0, 0] = 5.0
        assert sketch.covariance[0, 0] == 1.0
        with pytest.raises(ValueError):
            sketch.covariance[0, 0] = 9.0

    def test_unplannable_attack_raises(self, release):
        _, released = release
        accumulator = StreamingMoments(released.n_attributes, cross=True)
        accumulator.update(released.values)
        sketch = MomentSketch.from_accumulator(accumulator)
        with pytest.raises(AttackError, match="streamed planner"):
            plan_attack(object(), sketch)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestAuditCli:
    def test_cold_then_cached(self, tmp_path, csv_release, capsys):
        original_path, released_path = csv_release
        out = tmp_path / "out"
        args = [
            "audit",
            str(released_path),
            "--original",
            str(original_path),
            "--threat-model",
            "full",
            "--output-dir",
            str(out),
            "--quiet",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "(4 executed, 0 from cache)" in cold
        assert main([*args, "--chunk-rows", "32"]) == 0
        warm = capsys.readouterr().out
        assert "(0 executed, 4 from cache)" in warm
        assert (out / "full_audit.json").exists()
        assert (out / "full_audit.md").exists()
        payload = json.loads((out / "full_audit.json").read_text())
        assert payload["verdicts"]["breached"] is True  # known_sample

    def test_adhoc_attacks_and_formats(self, tmp_path, csv_release, capsys):
        _, released_path = csv_release
        out = tmp_path / "out"
        assert (
            main(
                [
                    "audit",
                    str(released_path),
                    "--attacks",
                    "renormalization",
                    "--format",
                    "json",
                    "--output-dir",
                    str(out),
                    "--no-cache",
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (out / "adhoc_audit.json").exists()
        assert not (out / "adhoc_audit.md").exists()

    def test_unknown_threat_model_errors(self, csv_release, capsys):
        _, released_path = csv_release
        assert main(["audit", str(released_path), "--threat-model", "nope"]) == 1
        assert "neither" in capsys.readouterr().err

    def test_threat_model_file(self, tmp_path, csv_release, capsys):
        original_path, released_path = csv_release
        model = ThreatModel(
            name="custom", attacks=({"name": "renormalization"},), seed=5
        )
        model_path = tmp_path / "custom.json"
        model.save(model_path)
        out = tmp_path / "out"
        assert (
            main(
                [
                    "audit",
                    str(released_path),
                    "--original",
                    str(original_path),
                    "--threat-model",
                    str(model_path),
                    "--output-dir",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (out / "custom_audit.md").exists()

    def test_conflicting_budget_flags(self, csv_release, capsys):
        _, released_path = csv_release
        assert (
            main(
                [
                    "audit",
                    str(released_path),
                    "--chunk-rows",
                    "8",
                    "--memory-budget-mib",
                    "1",
                ]
            )
            == 1
        )
        assert "either" in capsys.readouterr().err
