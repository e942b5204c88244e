"""On-disk format of the versioned release bundle.

A bundle is a directory holding everything needed to *extend* a streamed RBT
release without re-reading its history:

* ``manifest.json`` — the authoritative, monotonically-versioned index:
  format tag, column schema, the frozen release policy (fitted normalizer
  state and the decided rotation plan), content hashes of every consumed
  input file, and the names + SHA-256 of the current release artifacts.
* ``released-v<K>.csv`` — the current released matrix (version ``K``).
* ``sketches-v<K>.json`` — the exact :class:`~repro.perf.streaming.StreamingMoments`
  states behind the privacy report and the per-rotation achieved variances,
  in the lossless state format 2 of
  :func:`~repro.perf.streaming.state_to_jsonable` (each bucket array is one
  base64 block of little-endian float64 bytes; format 1 is still read).

Every scalar float that participates in the byte-identity contract
(normalizer parameters, rotation angles, security-range endpoints) is stored
as a C99 hex string — ``float.hex()`` / ``float.fromhex()`` round trip each
double bit-for-bit, negative zero and subnormals included.

Crash safety: artifacts are written to temporary files in the bundle
directory and published with ``os.replace``; the manifest is replaced
**last**, and release/sketch files carry their version in the file name.
A crash mid-append therefore leaves the manifest pointing at the previous
version's complete, hash-consistent artifact set — never at a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from pathlib import Path

from ..core.security_range import SecurityRange
from ..core.thresholds import PairwiseSecurityThreshold
from ..exceptions import BundleError
from ..preprocessing import (
    DecimalScalingNormalizer,
    MinMaxNormalizer,
    Normalizer,
    ZScoreNormalizer,
)

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "file_sha256",
    "load_manifest",
    "normalizer_from_payload",
    "normalizer_to_payload",
    "plan_from_payload",
    "plan_to_payload",
    "write_json_atomic",
]

#: Format tag every manifest carries; guards against pointing the tooling at
#: an unrelated directory full of JSON.
BUNDLE_FORMAT = "repro.release-bundle"
#: On-disk schema version; bump on incompatible manifest changes.
BUNDLE_FORMAT_VERSION = 1
#: The manifest file name inside a bundle directory.
MANIFEST_NAME = "manifest.json"


# --------------------------------------------------------------------------- #
# Primitive codecs
# --------------------------------------------------------------------------- #
def _hex(value: float) -> str:
    return float(value).hex()


def _unhex(text) -> float:
    try:
        return float.fromhex(text)
    except (TypeError, ValueError) as exc:
        raise BundleError(f"invalid hex-float value {text!r} in bundle manifest") from exc


def file_sha256(path: str | Path) -> str:
    """SHA-256 of a file's bytes, read in bounded blocks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json_atomic(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as indented JSON via a same-directory temp + ``os.replace``."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    temporary.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    os.replace(temporary, path)


# --------------------------------------------------------------------------- #
# Normalizer state
# --------------------------------------------------------------------------- #
def normalizer_to_payload(normalizer: Normalizer) -> dict:
    """Freeze a *fitted* normalizer's parameters into a JSON payload."""
    if isinstance(normalizer, ZScoreNormalizer):
        if normalizer.mean_ is None or normalizer.std_ is None:
            raise BundleError("the z-score normalizer must be fitted before bundling")
        return {
            "name": "zscore",
            "ddof": int(normalizer.ddof),
            "mean": [_hex(value) for value in normalizer.mean_],
            "std": [_hex(value) for value in normalizer.std_],
        }
    if isinstance(normalizer, MinMaxNormalizer):
        if normalizer.data_min_ is None or normalizer.data_max_ is None:
            raise BundleError("the min-max normalizer must be fitted before bundling")
        return {
            "name": "minmax",
            "feature_range": [_hex(value) for value in normalizer.feature_range],
            "data_min": [_hex(value) for value in normalizer.data_min_],
            "data_max": [_hex(value) for value in normalizer.data_max_],
        }
    if isinstance(normalizer, DecimalScalingNormalizer):
        if normalizer.scale_ is None:
            raise BundleError("the decimal-scaling normalizer must be fitted before bundling")
        return {"name": "decimal", "scale": [_hex(value) for value in normalizer.scale_]}
    raise BundleError(
        f"normalizer {type(normalizer).__name__} cannot be frozen into a bundle; "
        "supported: ZScoreNormalizer, MinMaxNormalizer, DecimalScalingNormalizer"
    )


def normalizer_from_payload(payload: dict) -> Normalizer:
    """Rebuild the frozen normalizer exactly (inverse of :func:`normalizer_to_payload`)."""
    import numpy as np

    name = payload.get("name")
    if name == "zscore":
        normalizer = ZScoreNormalizer(ddof=int(payload["ddof"]))
        normalizer.mean_ = np.asarray([_unhex(v) for v in payload["mean"]], dtype=float)
        normalizer.std_ = np.asarray([_unhex(v) for v in payload["std"]], dtype=float)
        normalizer._n_attributes = len(normalizer.mean_)
        return normalizer
    if name == "minmax":
        feature_range = tuple(_unhex(v) for v in payload["feature_range"])
        normalizer = MinMaxNormalizer(feature_range)
        normalizer.data_min_ = np.asarray(
            [_unhex(v) for v in payload["data_min"]], dtype=float
        )
        normalizer.data_max_ = np.asarray(
            [_unhex(v) for v in payload["data_max"]], dtype=float
        )
        normalizer._n_attributes = len(normalizer.data_min_)
        return normalizer
    if name == "decimal":
        normalizer = DecimalScalingNormalizer()
        normalizer.scale_ = np.asarray([_unhex(v) for v in payload["scale"]], dtype=float)
        normalizer._n_attributes = len(normalizer.scale_)
        return normalizer
    raise BundleError(f"bundle manifest names unknown normalizer {name!r}")


# --------------------------------------------------------------------------- #
# Rotation plan
# --------------------------------------------------------------------------- #
def plan_to_payload(decided: Sequence) -> list[dict]:
    """Serialize the decided rotations (the frozen plan) losslessly."""
    return [
        {
            "pair": [str(pair[0]), str(pair[1])],
            "threshold": [_hex(threshold.rho1), _hex(threshold.rho2)],
            "security_range": [
                [_hex(start), _hex(end)] for start, end in security_range.intervals
            ],
            "theta_degrees": _hex(theta),
        }
        for pair, threshold, security_range, theta in decided
    ]


def plan_from_payload(payload: Sequence[dict]) -> list:
    """Rebuild the decided rotations (inverse of :func:`plan_to_payload`)."""
    decided = []
    for entry in payload:
        try:
            threshold = PairwiseSecurityThreshold(
                _unhex(entry["threshold"][0]), _unhex(entry["threshold"][1])
            )
            security_range = SecurityRange(
                intervals=tuple(
                    (_unhex(start), _unhex(end)) for start, end in entry["security_range"]
                ),
                threshold=threshold,
            )
            decided.append(
                (
                    (str(entry["pair"][0]), str(entry["pair"][1])),
                    threshold,
                    security_range,
                    _unhex(entry["theta_degrees"]),
                )
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise BundleError(f"malformed rotation-plan entry in bundle manifest: {exc}") from exc
    return decided


# --------------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------------- #
def load_manifest(bundle_dir: str | Path) -> dict:
    """Read and format-check a bundle manifest, with actionable failure modes."""
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / MANIFEST_NAME
    if not bundle_dir.is_dir():
        raise BundleError(
            f"{bundle_dir} is not a release-bundle directory; create one with "
            "'repro release <dir> --init <input.csv>'"
        )
    if not manifest_path.is_file():
        raise BundleError(
            f"{bundle_dir} has no {MANIFEST_NAME}; it is not a release bundle "
            "(or its creation was interrupted before the manifest was committed)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
        raise BundleError(
            f"{manifest_path} is not a {BUNDLE_FORMAT} manifest; refusing to touch it"
        )
    version = manifest.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise BundleError(
            f"bundle format version mismatch: {bundle_dir} is format_version "
            f"{version!r} but this build reads {BUNDLE_FORMAT_VERSION}; upgrade "
            "the library (or re-create the bundle) before appending"
        )
    return manifest
