"""Tests for the horizontally-federated release (`repro.distributed.federated`).

The load-bearing property: a multi-party release over secure-summed moment
sketches is **byte-identical** to the single-party streamed release of the
concatenated shards — for any party count, shard split (including empty
shards), chunk size, and protocol seed — while the communication ledger
shows only sketch-sized payloads (never O(rows)) crossing party boundaries.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import RBT
from repro.core.pair_selection import PairSelectionStrategy
from repro.data import DataMatrix
from repro.data.io import matrix_to_csv, read_matrix_csv_header
from repro.distributed import (
    CommunicationLedger,
    DistributedReleasePipeline,
    SecureSketchSum,
    sketch_state_n_values,
    split_csv_shards,
)
from repro.attacks import build_attack
from repro.exceptions import AttackError, ProtocolError, ValidationError
from repro.perf.streaming import StreamingMoments
from repro.pipeline import (
    AttackSuite,
    StreamingReleasePipeline,
    ThreatModel,
    federated_threat_model,
)
from repro.preprocessing import IdentifierSuppressor, MinMaxNormalizer, ZScoreNormalizer


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def confidential_csv(tmp_path, rng):
    """A raw confidential CSV with ids, odd attribute count (chained pair)."""
    values = rng.normal(size=(83, 5)) * [3.0, 1.0, 12.0, 0.5, 6.0] + [10.0, -2.0, 40.0, 0.0, 7.0]
    matrix = DataMatrix(
        values,
        columns=["age", "weight", "heart_rate", "score", "bp"],
        ids=[f"patient-{i}" for i in range(values.shape[0])],
    )
    path = tmp_path / "confidential.csv"
    matrix_to_csv(matrix, path)
    return path, matrix


def _shard(tmp_path, source, row_counts, tag="shard"):
    paths = [tmp_path / f"{tag}-{index}.csv" for index in range(len(row_counts))]
    written = split_csv_shards(source, paths, row_counts=row_counts)
    return paths, written


# --------------------------------------------------------------------------- #
# SecureSketchSum
# --------------------------------------------------------------------------- #
class TestSecureSketchSum:
    def test_aggregate_equals_plain_merge(self, rng):
        data = rng.normal(size=(211, 3)) * [2.0, 30.0, 0.1] + [5.0, -1.0, 100.0]
        shards = [data[:50], data[50:51], data[51:]]
        reference = StreamingMoments(3, cross=True).update(data)
        states = []
        for index, shard in enumerate(shards):
            states.append(
                (f"party{index}", StreamingMoments(3, cross=True).update(shard).state())
            )
        merged = SecureSketchSum(random_state=7).aggregate_states(states, label="test")
        restored = StreamingMoments.from_state(merged)
        assert restored.count == reference.count
        assert np.array_equal(restored.means(), reference.means())
        assert np.array_equal(restored.variances(ddof=1), reference.variances(ddof=1))
        assert restored.covariance(0, 2, ddof=1) == reference.covariance(0, 2, ddof=1)

    def test_masks_cancel_exactly_for_any_seed(self, rng):
        data = rng.normal(size=(100, 2)) * 1e6
        states = [
            ("a", StreamingMoments(2, cross=True).update(data[:30]).state()),
            ("b", StreamingMoments(2, cross=True).update(data[30:]).state()),
        ]
        results = [
            SecureSketchSum(random_state=seed).aggregate_states(
                [(n, dict(s)) for n, s in states], label="test"
            )
            for seed in (0, 1, 12345)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0]["bucket_values"], other["bucket_values"])
            assert np.array_equal(results[0]["bucket_indices"], other["bucket_indices"])
            assert results[0]["count"] == other["count"]

    def test_single_party_passthrough_without_messages(self, rng):
        ledger = CommunicationLedger()
        state = StreamingMoments(2).update(rng.normal(size=(9, 2))).state()
        merged = SecureSketchSum(ledger=ledger).aggregate_states(
            [("only", state)], label="solo"
        )
        assert merged is state
        assert ledger.n_messages == 0 and ledger.rounds == 0

    def test_shape_mismatch_rejected(self, rng):
        narrow = StreamingMoments(2).update(rng.normal(size=(5, 2))).state()
        wide = StreamingMoments(3).update(rng.normal(size=(5, 3))).state()
        with pytest.raises(ProtocolError, match="one shape"):
            SecureSketchSum().aggregate_states(
                [("a", narrow), ("b", wide)], label="bad"
            )

    def test_ledger_prices_every_edge(self, rng):
        ledger = CommunicationLedger()
        states = [
            (f"p{index}", StreamingMoments(2).update(rng.normal(size=(40, 2))).state())
            for index in range(3)
        ]
        SecureSketchSum(ledger=ledger).aggregate_states(states, label="priced")
        # 2 supports in + 2 unions out + 3 masked ring hops.
        assert ledger.n_messages == 7
        assert ledger.rounds == 1
        assert ledger.n_bytes == 8 * ledger.n_values
        assert ledger.max_message_values > 0


# --------------------------------------------------------------------------- #
# Multi-party byte-identity (the distributed determinism contract)
# --------------------------------------------------------------------------- #
class TestDistributedByteIdentity:
    @pytest.mark.parametrize(
        "row_counts",
        [
            [83],
            [41, 42],
            [5, 60, 18],
            [0, 30, 0, 53],
            [83, 0],
            [1] * 10 + [73],
        ],
    )
    @pytest.mark.parametrize("chunk_rows", [7, 83])
    @pytest.mark.parametrize("codec", ["fast", "python"])
    def test_any_split_and_chunking_matches_single_party(
        self, confidential_csv, tmp_path, row_counts, chunk_rows, codec
    ):
        source, _ = confidential_csv
        single_out = tmp_path / "single.csv"
        single = StreamingReleasePipeline(RBT(0.3, random_state=11), chunk_rows=17).run(
            source, single_out
        )
        shards, written = _shard(tmp_path, source, row_counts)
        assert sum(written) == 83
        distributed_out = tmp_path / "distributed.csv"
        report = DistributedReleasePipeline(
            RBT(0.3, random_state=11), chunk_rows=chunk_rows, protocol_seed=99, codec=codec
        ).run(shards, distributed_out)
        assert distributed_out.read_bytes() == single_out.read_bytes()
        assert report.records == single.records
        assert report.privacy.as_dict() == single.privacy.as_dict()
        assert report.n_objects == 83
        assert report.n_parties == len(row_counts)
        assert report.party_rows == tuple(written)

    def test_protocol_seed_never_reaches_the_bytes(self, confidential_csv, tmp_path):
        source, _ = confidential_csv
        shards, _ = _shard(tmp_path, source, [20, 63])
        outputs = []
        for seed in (None, 0, 424242):
            out = tmp_path / f"seed-{seed}.csv"
            DistributedReleasePipeline(
                RBT(0.3, random_state=11), chunk_rows=9, protocol_seed=seed
            ).run(shards, out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_random_strategy_and_minmax_normalizer(self, confidential_csv, tmp_path):
        source, _ = confidential_csv
        configs = [
            (
                "random",
                dict(thresholds=0.3, strategy=PairSelectionStrategy.RANDOM, random_state=5),
                ZScoreNormalizer,
            ),
            ("minmax", dict(thresholds=0.01, random_state=2), MinMaxNormalizer),
        ]
        for tag, rbt_kwargs, normalizer_cls in configs:
            single_out = tmp_path / f"single-{tag}.csv"
            StreamingReleasePipeline(
                RBT(**rbt_kwargs), normalizer=normalizer_cls(), chunk_rows=13
            ).run(source, single_out)
            shards, _ = _shard(tmp_path, source, [30, 30, 23], tag=tag)
            distributed_out = tmp_path / f"distributed-{tag}.csv"
            DistributedReleasePipeline(
                RBT(**rbt_kwargs), normalizer=normalizer_cls(), chunk_rows=6
            ).run(shards, distributed_out)
            assert distributed_out.read_bytes() == single_out.read_bytes()

    def test_explicit_pairs_fixed_angles_and_suppressor(self, confidential_csv, tmp_path):
        source, _ = confidential_csv
        rbt_kwargs = dict(
            thresholds=0.05,
            pairs=[("age", "heart_rate"), ("weight", "bp")],
            angles=[200.0, 170.0],
        )
        suppressor = IdentifierSuppressor(drop_object_ids=True, extra_columns=("score",))
        single_out = tmp_path / "single.csv"
        StreamingReleasePipeline(
            RBT(**rbt_kwargs), suppressor=suppressor, chunk_rows=10
        ).run(source, single_out)
        shards, _ = _shard(tmp_path, source, [44, 39])
        distributed_out = tmp_path / "distributed.csv"
        report = DistributedReleasePipeline(
            RBT(**rbt_kwargs), suppressor=suppressor, chunk_rows=25
        ).run(shards, distributed_out)
        assert distributed_out.read_bytes() == single_out.read_bytes()
        assert report.columns == ("age", "weight", "heart_rate", "bp")

    def test_secret_round_trips_through_inversion(self, confidential_csv, tmp_path):
        from repro.pipeline import stream_invert

        source, matrix = confidential_csv
        shards, _ = _shard(tmp_path, source, [50, 33])
        released = tmp_path / "released.csv"
        report = DistributedReleasePipeline(RBT(0.3, random_state=11), chunk_rows=8).run(
            shards, released
        )
        restored = tmp_path / "restored.csv"
        stream_invert(released, restored, report.secret(), chunk_rows=12)
        # The inverse of the distributed release restores the single-party
        # normalized values (the secret is the same object either way).
        normalized = ZScoreNormalizer().fit_transform(matrix)
        from repro.data.io import matrix_from_csv

        assert np.allclose(matrix_from_csv(restored).values, normalized.values, atol=1e-9)

    def test_mismatched_shard_headers_rejected(self, confidential_csv, tmp_path, rng):
        source, _ = confidential_csv
        other = DataMatrix(rng.normal(size=(5, 2)), columns=["x", "y"])
        other_path = tmp_path / "other.csv"
        matrix_to_csv(other, other_path)
        with pytest.raises(ValidationError, match="header does not match"):
            DistributedReleasePipeline(RBT(random_state=0)).run(
                [source, other_path], tmp_path / "out.csv"
            )

    def test_no_shards_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="at least one shard"):
            DistributedReleasePipeline(RBT(random_state=0)).run([], tmp_path / "out.csv")


# --------------------------------------------------------------------------- #
# Communication ledger: only sketch-sized payloads cross party boundaries
# --------------------------------------------------------------------------- #
class TestCommunicationCost:
    def test_payloads_are_row_count_independent(self, tmp_path, rng):
        """Quadrupling the rows must not grow the protocol messages — no O(rows).

        Sketch payloads scale with the number of occupied exponent buckets,
        which grows (at most) logarithmically with the row count; an O(rows)
        transfer would quadruple here.
        """
        ledgers = {}
        for n_rows in (400, 1600):
            values = rng.normal(size=(n_rows, 3)) * [3.0, 1.0, 8.0]
            source = tmp_path / f"data-{n_rows}.csv"
            matrix_to_csv(DataMatrix(values, columns=["a", "b", "c"]), source)
            third = n_rows // 3
            shards, _ = _shard(
                tmp_path, source, [third, third, n_rows - 2 * third], tag=f"n{n_rows}"
            )
            report = DistributedReleasePipeline(
                RBT(0.3, random_state=1), chunk_rows=64
            ).run(shards, tmp_path / f"out-{n_rows}.csv")
            ledgers[n_rows] = report.ledger
        assert ledgers[1600].max_message_values <= 1.25 * ledgers[400].max_message_values
        assert ledgers[1600].n_values <= 1.25 * ledgers[400].n_values

    def test_ledger_summary_is_json_and_complete(self, confidential_csv, tmp_path):
        source, _ = confidential_csv
        shards, _ = _shard(tmp_path, source, [40, 43])
        report = DistributedReleasePipeline(RBT(0.3, random_state=11), chunk_rows=16).run(
            shards, tmp_path / "out.csv"
        )
        summary = json.loads(json.dumps(report.summary()))
        communication = summary["communication"]
        assert communication["n_messages"] == report.ledger.n_messages > 0
        assert communication["n_bytes"] == report.ledger.n_bytes > 0
        assert communication["rounds"] >= 3  # fit + planning + evidence merges
        assert set(communication["party_seconds"]) == {"party0", "party1"}
        assert all(seconds >= 0 for seconds in communication["party_seconds"].values())

    def test_sketch_state_size_counts_buckets_not_rows(self, rng):
        small = StreamingMoments(3, cross=True).update(rng.normal(size=(50, 3))).state()
        large = StreamingMoments(3, cross=True).update(rng.normal(size=(50_000, 3))).state()
        assert sketch_state_n_values(large) <= 3 * sketch_state_n_values(small)


# --------------------------------------------------------------------------- #
# Colluding-parties threat models
# --------------------------------------------------------------------------- #
class TestFederatedThreatModel:
    def test_leave_one_out_coalitions(self):
        model = federated_threat_model([40, 0, 43, 10])
        assert model.name == "federated_collusion"
        # Zero-row parties are skipped as victims: 3 attacks, one per shard.
        assert len(model.attacks) == 3
        ranges = [entry.params["index_ranges"] for entry in model.attacks]
        assert ranges[0] == [[40, 83], [83, 93]]
        assert ranges[1] == [[0, 40], [83, 93]]
        assert ranges[2] == [[0, 40], [40, 83]]

    def test_round_trips_through_json(self):
        model = federated_threat_model([10, 20], seed=3, privacy_threshold=0.5)
        clone = ThreatModel.from_json(json.dumps(model.canonical()))
        assert clone.canonical() == model.canonical()

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least two parties"):
            federated_threat_model([83])
        with pytest.raises(ValidationError, match="coalition empty"):
            federated_threat_model([0, 83])
        with pytest.raises(ValidationError, match="non-negative"):
            federated_threat_model([10, -1])

    def test_known_sample_index_ranges_resolve_and_validate(self):
        attack = build_attack("known_sample", {"index_ranges": [[0, 3], [7, 9]]})
        assert attack.resolve_indices(20) == [0, 1, 2, 7, 8]
        with pytest.raises(AttackError, match="out of range"):
            attack.resolve_indices(8)
        with pytest.raises(AttackError, match="exactly one of"):
            build_attack("known_sample", {"index_ranges": [[0, 3]], "n_known": 2})
        with pytest.raises(AttackError, match="at least one record"):
            build_attack("known_sample", {"index_ranges": [[4, 4]]})

    def test_collusion_breaches_the_federated_release(self, confidential_csv, tmp_path):
        """All-but-one coalitions reconstruct the victim rows — the honest
        negative result the audit must surface for rotation-only releases."""
        source, matrix = confidential_csv
        shards, _ = _shard(tmp_path, source, [30, 30, 23])
        released_path = tmp_path / "released.csv"
        report = DistributedReleasePipeline(RBT(0.3, random_state=11), chunk_rows=16).run(
            shards, released_path
        )
        normalized_path = tmp_path / "normalized.csv"
        matrix_to_csv(ZScoreNormalizer().fit_transform(matrix), normalized_path)
        model = federated_threat_model(report.party_rows, seed=17)
        audit = AttackSuite(model).run(released_path, normalized_path, chunk_rows=25)
        assert audit.breached
        assert len(audit.outcomes) == 3
        # Each coalition's work factor is the rows it holds: 83 − victim rows.
        for outcome, victim_rows in zip(audit.outcomes, report.party_rows):
            assert outcome.attack == "known_sample"
            assert outcome.succeeded
            assert outcome.error < 1e-6
            assert outcome.work == 83 - victim_rows


# --------------------------------------------------------------------------- #
# The experiments grid's parties axis
# --------------------------------------------------------------------------- #
class TestPartiesAxis:
    @staticmethod
    def _spec(**overrides):
        from repro.experiments import AxisSpec, ExperimentSpec

        settings = dict(
            name="fed",
            datasets=(AxisSpec("blobs", {"n_objects": 40, "n_attributes": 4, "n_clusters": 3}),),
            transforms=(AxisSpec("rbt", {"threshold": 0.25}),),
            algorithms=(AxisSpec("kmeans", {"n_clusters": 3}),),
        )
        settings.update(overrides)
        return ExperimentSpec(**settings)

    def test_single_party_is_hash_transparent(self):
        spec = self._spec()
        trial = spec.expand()[0]
        assert trial.parties == 1
        assert "parties" not in trial.canonical()
        multi = self._spec(parties=(1, 3)).expand()
        assert multi[0].trial_hash == trial.trial_hash
        assert multi[1].canonical()["parties"] == 3
        assert multi[1].trial_hash != trial.trial_hash

    def test_axis_expansion_and_round_trip(self):
        from repro.experiments import ExperimentSpec

        spec = self._spec(parties=(1, 2, 4), seeds=(0, 1))
        assert spec.n_trials == 6
        assert [trial.parties for trial in spec.expand()] == [1, 1, 2, 2, 4, 4]
        clone = ExperimentSpec.from_json(json.dumps(spec.canonical()))
        assert clone.canonical() == spec.canonical()
        legacy = {
            "name": "old",
            "datasets": ["blobs"],
            "transforms": ["none"],
            "algorithms": ["kmeans"],
        }
        assert ExperimentSpec.from_dict(legacy).parties == (1,)

    def test_axis_validation(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="parties must be >= 1"):
            self._spec(parties=(0,))
        with pytest.raises(ExperimentError, match="parties must be unique"):
            self._spec(parties=(2, 2))
        with pytest.raises(ExperimentError, match="parties must not be empty"):
            self._spec(parties=())

    def test_federated_trial_matches_single_party(self):
        from repro.experiments import run_trial

        spec = self._spec(parties=(1, 3))
        single, federated = (run_trial(trial.canonical()) for trial in spec.expand())
        # The released bytes are identical, so everything downstream of the
        # release agrees; privacy numbers may differ at the ulp level only
        # (exact sketches vs. dense accumulation).
        assert federated["clustering"] == single["clustering"]
        assert federated["n_objects"] == single["n_objects"] == 40
        assert federated["privacy"]["min_variance_difference"] == pytest.approx(
            single["privacy"]["min_variance_difference"], rel=1e-9
        )
        assert federated["security_range"]["n_pairs"] == single["security_range"]["n_pairs"]
        assert single["parties"] == 1 and single["federated"] is None
        evidence = federated["federated"]
        assert evidence["n_parties"] == 3
        assert sum(evidence["party_rows"]) == 40
        assert evidence["communication"]["n_messages"] > 0
        assert evidence["communication"]["max_message_values"] < 4000

    def test_federated_requires_rbt(self):
        from repro.experiments import AxisSpec, run_trial
        from repro.exceptions import ExperimentError

        trial = self._spec(transforms=(AxisSpec("none"),), parties=(2,)).expand()[0]
        with pytest.raises(ExperimentError, match="requires the 'rbt' transform"):
            run_trial(trial.canonical())


# --------------------------------------------------------------------------- #
# split_csv_shards
# --------------------------------------------------------------------------- #
class TestSplitCsvShards:
    def test_even_split_covers_all_rows(self, confidential_csv, tmp_path):
        source, _ = confidential_csv
        paths = [tmp_path / f"even-{index}.csv" for index in range(4)]
        written = split_csv_shards(source, paths)
        assert written == (21, 21, 21, 20)
        for path in paths:
            columns, has_ids = read_matrix_csv_header(path)
            assert columns == ("age", "weight", "heart_rate", "score", "bp")
            assert has_ids

    def test_concatenated_shards_reproduce_the_source_bytes(
        self, confidential_csv, tmp_path
    ):
        source, _ = confidential_csv
        paths = [tmp_path / f"cat-{index}.csv" for index in range(3)]
        split_csv_shards(source, paths, row_counts=[10, 0, 73])
        header, *_ = source.read_text().splitlines(keepends=True)[:1]
        stitched = header + "".join(
            "".join(path.read_text().splitlines(keepends=True)[1:]) for path in paths
        )
        assert stitched == source.read_text()

    def test_row_counts_validation(self, confidential_csv, tmp_path):
        source, _ = confidential_csv
        with pytest.raises(ValidationError, match="one entry per shard path"):
            split_csv_shards(source, [tmp_path / "a.csv"], row_counts=[1, 2])
        with pytest.raises(ValidationError, match="at least one shard path"):
            split_csv_shards(source, [])
