"""Sketch-state format 1, the layout earlier versions wrote, kept as an oracle.

Format 1 stores every bucket value as one ``float.hex`` string.  The library
still reads it but no longer writes it, so bundles in that format are built
here, for the versioned-release tests and for
``benchmarks/bench_incremental_release.py``, which gates an append onto such
a bundle.
"""

from __future__ import annotations

import json

import numpy as np

from repro.perf.streaming import state_from_jsonable
from repro.pipeline.bundle_format import file_sha256

__all__ = ["format1_jsonable", "report_fingerprint", "rewrite_sketches"]


def format1_jsonable(state: dict) -> dict:
    """The sketch-state JSON earlier versions wrote: one ``float.hex`` per value."""
    return {
        "format": 1,
        "n_columns": int(state["n_columns"]),
        "cross": bool(state["cross"]),
        "count": int(state["count"]),
        "deposits": int(state["deposits"]),
        "bucket_indices": [int(index) for index in state["bucket_indices"]],
        "bucket_values": [
            [float(value).hex() for value in row] for row in np.asarray(state["bucket_values"])
        ],
        "poison_nan": [int(count) for count in state["poison_nan"]],
        "poison_pos": [int(count) for count in state["poison_pos"]],
        "poison_neg": [int(count) for count in state["poison_neg"]],
    }


def rewrite_sketches(bundle, encode) -> None:
    """Re-encode the current sketches with ``encode`` and re-hash them in the manifest."""
    sketches = json.loads(bundle.sketches_path.read_text(encoding="utf-8"))
    sketches["privacy"] = encode(state_from_jsonable(sketches["privacy"]))
    sketches["achieved"] = [encode(state_from_jsonable(state)) for state in sketches["achieved"]]
    bundle.sketches_path.write_text(
        json.dumps(sketches, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    manifest_path = bundle.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["current"]["sketches_sha256"] = file_sha256(bundle.sketches_path)
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def report_fingerprint(report) -> tuple:
    """Everything a release report derives from the sketches, exactly."""
    return (
        report.n_objects,
        [
            (record.pair, record.theta_degrees, record.achieved_variances)
            for record in report.records
        ],
        repr(report.privacy),
    )
