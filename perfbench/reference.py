"""Reference outputs for one workload, computed through the Python API.

Runs in its own interpreter before the timed workload starts, so neither
its time nor its memory reaches a metric.  The released and restored bytes
are read and written through the csv-module codec (``codec="python"``), the
oracle lane the commands' default fast codec is cross-checked against:

* ``owner-release`` and ``federated``: ``RBT.transform`` on the normalized
  source gives ``ref_released.csv`` and ``ref_secret.json``;
  ``RBTSecret.invert`` gives ``ref_restored.csv``; ``privacy_report`` gives
  the figures ``transform --report`` must write (``ref_report.json``).  A
  federated release of any shard split is byte-identical to the release.
* ``owner-release`` also runs the ``full`` threat model once through
  ``AttackSuite`` and keeps its canonical JSON (``ref_audit.json``): the
  timed audits must repeat it exactly.
* ``federated`` splits the source into its shards with ``split_csv_shards``.
* ``append-feed`` creates a bundle through ``VersionedReleaseBundle.create``
  (``ref_init.csv`` is its v1 release) and replays its frozen policy over
  the concatenated feed with ``reference_pipeline()`` in the oracle lane
  (``ref_final.csv``).

Usage: ``python3 perfbench/reference.py WORKLOAD SEED`` with the work
directory as the current directory.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import inputs

from repro.core import RBT, RBTSecret
from repro.data.io import matrix_from_csv, matrix_to_csv
from repro.distributed.federated import split_csv_shards
from repro.metrics import privacy_report
from repro.pipeline import AttackSuite, VersionedReleaseBundle
from repro.preprocessing import ZScoreNormalizer

ORACLE = "python"


def release_references(seed: int) -> None:
    source = matrix_from_csv("source.csv", codec=ORACLE)
    normalized = ZScoreNormalizer().fit(source).transform(source)
    result = RBT(thresholds=0.25, random_state=inputs.rbt_seed(seed)).transform(normalized)
    matrix_to_csv(result.matrix, "ref_released.csv", codec=ORACLE)
    secret = RBTSecret.from_result(result)
    secret.save("ref_secret.json")
    privacy = privacy_report(normalized, result.matrix)
    report = {
        "threshold": 0.25,
        "pairs": [list(pair) for pair in result.pairs],
        "min_variance_difference": privacy.minimum_variance_difference,
        "attributes": privacy.as_dict(),
    }
    Path("ref_report.json").write_text(json.dumps(report), encoding="utf-8")
    released = matrix_from_csv("ref_released.csv", codec=ORACLE)
    matrix_to_csv(secret.invert(released), "ref_restored.csv", codec=ORACLE)


def audit_reference() -> None:
    report = AttackSuite("full").run(
        Path("ref_released.csv"), Path("ref_restored.csv")
    )
    Path("ref_audit.json").write_text(report.to_json(), encoding="utf-8")


def bundle_references(seed: int) -> None:
    bundle, _ = VersionedReleaseBundle.create(
        "source.csv",
        "ref_bundle",
        rbt=RBT(thresholds=0.25, random_state=inputs.rbt_seed(seed)),
        normalizer=ZScoreNormalizer(),
    )
    shutil.copyfile(bundle.released_path, "ref_init.csv")
    bundle.reference_pipeline(codec=ORACLE).run("feed.csv", "ref_final.csv")
    shutil.rmtree("ref_bundle")


def main(workload: str, seed: int) -> None:
    if workload == "append-feed":
        bundle_references(seed)
        return
    release_references(seed)
    if workload == "owner-release":
        audit_reference()
    else:
        split_csv_shards(
            "source.csv", [f"shard{index}.csv" for index in range(inputs.N_SHARDS)]
        )


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
