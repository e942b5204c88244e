"""Versioned release bundles: delta-cost re-release for append-only feeds.

The paper's release model is one-shot: normalize, rotate, publish.  Real
deployments re-release as the feed grows, and a naive re-release re-reads the
full history — cost scales with total rows, not new rows.  This module makes
the re-release *incremental* while keeping the repository's byte-identity
discipline:

* :meth:`VersionedReleaseBundle.create` runs the usual streamed release once
  and **freezes the release policy**: the fitted normalizer parameters and
  the decided rotation plan (pairs, thresholds, security ranges, angles) are
  persisted in the bundle manifest alongside the exact
  :class:`~repro.perf.streaming.StreamingMoments` states behind the privacy
  evidence.
* :func:`append_release` streams *only the new rows* through the frozen
  normalize → rotate policy, extends the released CSV, and folds the new
  rows' moment contributions into the persisted sketches — exact bucket
  sums make the merged evidence bit-equal to a from-scratch accumulation.

**Determinism contract.**  Because the policy is frozen at version 1, the
released file after any sequence of appends is byte-identical to one
:class:`~repro.pipeline.StreamingReleasePipeline` run over the concatenated
feed *configured with the bundle's frozen policy* (``refit=False`` plus the
recorded pairs and angles — :meth:`VersionedReleaseBundle.reference_pipeline`
builds exactly that pipeline).  This holds for any append schedule, chunk
size and execution backend, and is gated in CI.  The security ranges in the
rotation records are the ones solved when the plan was frozen; a from-scratch
replay re-solves them on the grown feed and may report (slightly) different
ranges for the *same* released bytes — re-plan (create a fresh bundle) when
the feed distribution drifts enough to matter.

The sequential-release attack surface this opens — releases v1..vk give an
observer per-version prefixes of the same frozen rotation — is measured by
the registered ``sequential_release`` attack (see
:mod:`repro.attacks.sequential`); :func:`sequential_attack_params` derives
its parameters from a bundle's manifest.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..core import RBT
from ..core.secrets import RBTSecret
from ..data.io import MatrixCsvWriter, iter_matrix_csv, read_matrix_csv_header
from ..exceptions import BundleError
from ..perf.streaming import StreamingMoments, state_from_jsonable, state_to_jsonable
from ..preprocessing import ZScoreNormalizer
from .bundle_format import (
    BUNDLE_FORMAT,
    BUNDLE_FORMAT_VERSION,
    MANIFEST_NAME,
    file_sha256,
    load_manifest,
    normalizer_from_payload,
    normalizer_to_payload,
    plan_from_payload,
    plan_to_payload,
    write_json_atomic,
)
from .streaming import (
    StreamingReleasePipeline,
    StreamingReleaseReport,
    _FileMomentSource,
    build_rotation_records,
    plan_rotations,
    privacy_report_from_moments,
    resolve_chunk_rows,
    transform_pass,
)

__all__ = [
    "VersionedReleaseBundle",
    "append_release",
    "create_release",
    "open_release",
    "sequential_attack_params",
]


#: Human names of the two current artifacts, keyed by their manifest prefix.
_ROLE_NAMES = {"released": "released matrix", "sketches": "sketch state"}


def _released_name(version: int) -> str:
    return f"released-v{version:04d}.csv"


def _sketches_name(version: int) -> str:
    return f"sketches-v{version:04d}.json"


@contextmanager
def _locked_directory(path: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on the directory ``path`` itself.

    Locking the directory's own descriptor leaves no lock file behind.  The
    lock is released explicitly: a ``flock`` belongs to the open file
    description, which children forked while it is held (process-pool
    workers) share, so closing this descriptor alone would leave the lock
    held for as long as they live.  A process that dies releases it too.
    """
    try:
        import fcntl
    except ImportError as exc:  # pragma: no cover - platforms without flock
        raise BundleError(
            f"cannot append to {path}: this platform has no fcntl.flock to "
            "serialise appenders"
        ) from exc
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        load_manifest(path)  # raises the actionable "not a release bundle" error
        raise
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(descriptor, fcntl.LOCK_UN)
    finally:
        os.close(descriptor)


class VersionedReleaseBundle:
    """A release-bundle directory: frozen policy + sketches + released CSV.

    Instances are lightweight views over the on-disk manifest; use
    :meth:`create` / :meth:`open` instead of the constructor.
    """

    def __init__(self, path: str | Path, manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest

    # ------------------------------------------------------------------ #
    # Manifest accessors
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """The current (monotonically increasing) release version."""
        return int(self.manifest["current"]["version"])

    @property
    def total_rows(self) -> int:
        """Rows in the current released matrix."""
        return int(self.manifest["current"]["total_rows"])

    @property
    def columns(self) -> tuple[str, ...]:
        """Attribute names the bundle was created with (appends must match)."""
        return tuple(self.manifest["columns"])

    @property
    def id_column(self) -> str | None:
        return self.manifest["id_column"]

    @property
    def carry_ids(self) -> bool:
        return bool(self.manifest["carry_ids"])

    @property
    def released_path(self) -> Path:
        """The current released CSV."""
        return self.path / self.manifest["current"]["released_file"]

    @property
    def sketches_path(self) -> Path:
        return self.path / self.manifest["current"]["sketches_file"]

    def version_rows(self) -> tuple[int, ...]:
        """Cumulative released row counts, one entry per version (v1..vK)."""
        return tuple(int(entry["total_rows"]) for entry in self.manifest["versions"])

    # ------------------------------------------------------------------ #
    # Creation / opening
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        input_path: str | Path,
        bundle_dir: str | Path,
        *,
        rbt: RBT | None = None,
        normalizer=None,
        chunk_rows: int | None = None,
        memory_budget_bytes: int | None = None,
        ddof: int = 1,
        backend=None,
        id_column: str | None = "id",
        float_format: str | None = None,
        codec: str | None = None,
    ) -> tuple["VersionedReleaseBundle", StreamingReleaseReport]:
        """Release ``input_path`` from scratch and freeze the policy as version 1."""
        bundle_dir = Path(bundle_dir)
        if (bundle_dir / MANIFEST_NAME).exists():
            existing = cls.open(bundle_dir)
            raise BundleError(
                f"{bundle_dir} is already a release bundle (version {existing.version}); "
                "append new rows with --append instead of re-initializing"
            )
        bundle_dir.mkdir(parents=True, exist_ok=True)
        input_path = Path(input_path)
        pipeline = StreamingReleasePipeline(
            rbt if rbt is not None else RBT(),
            normalizer=normalizer if normalizer is not None else ZScoreNormalizer(),
            chunk_rows=chunk_rows,
            memory_budget_bytes=memory_budget_bytes,
            ddof=ddof,
            backend=backend,
            codec=codec,
        )
        columns_all, has_ids = read_matrix_csv_header(input_path, id_column=id_column)
        columns = tuple(columns_all)
        resolved_chunk_rows = resolve_chunk_rows(
            len(columns), chunk_rows=chunk_rows, memory_budget_bytes=memory_budget_bytes
        )
        passes = 0
        with pipeline._passes(input_path, id_column, resolved_chunk_rows, None) as source:
            # Fit + plan exactly like the streamed pipeline (same helpers,
            # same bits), but keep hold of the intermediate state so it can
            # be frozen.
            pipeline.normalizer.fit_stream(
                (chunk for chunk, _ in source.chunks()), backend=backend
            )
            passes += 1
            moment_source = _FileMomentSource(pipeline, source, columns)
            decided, moment_passes = plan_rotations(pipeline.rbt, columns, moment_source)
            passes += moment_passes

            version = 1
            with MatrixCsvWriter(
                bundle_dir / _released_name(version),
                columns,
                include_ids=has_ids,
                float_format=float_format,
                codec=pipeline.codec,
            ) as writer:
                n_objects, privacy_state, achieved_states, records, privacy = _transform_pass(
                    pipeline,
                    source.chunks(),
                    writer,
                    columns,
                    decided,
                    carry_ids=has_ids,
                    backend=backend,
                    prior_sketches=None,
                )
            passes += 1

        sketches = {
            "format": "repro.release-sketches",
            "version": version,
            "n_objects": n_objects,
            "privacy": state_to_jsonable(privacy_state),
            "achieved": [state_to_jsonable(state) for state in achieved_states],
        }
        write_json_atomic(bundle_dir / _sketches_name(version), sketches)
        released_sha256 = file_sha256(bundle_dir / _released_name(version))
        manifest = {
            "format": BUNDLE_FORMAT,
            "format_version": BUNDLE_FORMAT_VERSION,
            "columns": list(columns),
            "id_column": id_column,
            "carry_ids": bool(has_ids),
            "float_format": float_format,
            "ddof": int(ddof),
            "rbt": {
                "solver": pipeline.rbt.solver,
                "resolution": int(pipeline.rbt.resolution),
                "ddof": int(pipeline.rbt.ddof),
            },
            "normalizer": normalizer_to_payload(pipeline.normalizer),
            "plan": plan_to_payload(decided),
            "current": {
                "version": version,
                "total_rows": n_objects,
                "released_file": _released_name(version),
                "released_sha256": released_sha256,
                "sketches_file": _sketches_name(version),
                "sketches_sha256": file_sha256(bundle_dir / _sketches_name(version)),
            },
            "versions": [
                {
                    "version": version,
                    "rows": n_objects,
                    "total_rows": n_objects,
                    "input_sha256": file_sha256(input_path),
                    "released_sha256": released_sha256,
                }
            ],
        }
        write_json_atomic(bundle_dir / MANIFEST_NAME, manifest)
        report = StreamingReleaseReport(
            n_objects=n_objects,
            columns=columns,
            records=records,
            privacy=privacy,
            chunk_rows=resolved_chunk_rows,
            n_passes=passes,
        )
        return cls(bundle_dir, manifest), report

    @classmethod
    def open(cls, bundle_dir: str | Path) -> VersionedReleaseBundle:
        """Open an existing bundle (manifest format-checked; artifacts lazy-checked)."""
        return cls(Path(bundle_dir), load_manifest(bundle_dir))

    def verify(self) -> None:
        """Check the current artifacts against their manifest content hashes."""
        for role in ("released", "sketches"):
            self._check_hash(role, file_sha256(self._artifact_path(role)))

    def _artifact_path(self, role: str) -> Path:
        """Path of the current ``"released"`` or ``"sketches"`` artifact; must exist."""
        file_name = self.manifest["current"][f"{role}_file"]
        path = self.path / file_name
        if not path.is_file():
            raise BundleError(
                f"bundle {self.path} is missing its {_ROLE_NAMES[role]} {file_name}; the "
                "bundle is torn (or another writer advanced it — re-open and retry)"
            )
        return path

    def _check_hash(self, role: str, actual: str) -> None:
        """Refuse a current artifact whose content hash is not the manifest's."""
        current = self.manifest["current"]
        file_name, expected = current[f"{role}_file"], current[f"{role}_sha256"]
        if actual != expected:
            raise BundleError(
                f"bundle {self.path}: content hash of {file_name} does not match "
                f"the manifest (expected {expected[:12]}…, got {actual[:12]}…); "
                "the bundle is torn or was modified outside the release tooling"
            )

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(
        self,
        new_rows: str | Path,
        *,
        expected_version: int | None = None,
        chunk_rows: int | None = None,
        memory_budget_bytes: int | None = None,
        backend=None,
        codec: str | None = None,
    ) -> StreamingReleaseReport:
        """Stream ``new_rows`` through the frozen policy into version K+1.

        Only the new rows are transformed; the released CSV grows by exactly
        their transformed bytes and the persisted sketches absorb their
        moment contributions.  The result is byte-identical to the
        frozen-policy from-scratch replay of the concatenated feed
        (:meth:`reference_pipeline`), for any append schedule, chunk size
        and backend.

        The prior release is read once: the same pass that copies it into
        version K+1 hashes it, and the hash must match the manifest before
        any new row is written (so the verified bytes are the copied bytes).
        The new release's hash continues that digest over the appended bytes
        only.  The checks and their messages are those of :meth:`verify`.

        Appends to one bundle are serialised: the whole append holds an
        exclusive lock on the bundle directory and re-reads the manifest
        under it, so ``expected_version`` is checked against the committed
        version, and without it the rows land on whatever version is
        current when the lock is granted.
        """
        with _locked_directory(self.path):
            self.manifest = load_manifest(self.path)
            if expected_version is not None and self.version != expected_version:
                raise BundleError(
                    f"bundle version mismatch: {self.path} is at version {self.version}, "
                    f"expected {expected_version}; re-open the bundle (another writer may "
                    "have appended) and retry"
                )
            new_rows = Path(new_rows)
            self._check_schema(new_rows)
            columns = self.columns
            resolved_chunk_rows = resolve_chunk_rows(
                len(columns), chunk_rows=chunk_rows, memory_budget_bytes=memory_budget_bytes
            )
            decided = plan_from_payload(self.manifest["plan"])
            pipeline = StreamingReleasePipeline(
                self._frozen_rbt(decided),
                normalizer=normalizer_from_payload(self.manifest["normalizer"]),
                chunk_rows=resolved_chunk_rows,
                ddof=int(self.manifest["ddof"]),
                backend=backend,
                refit=False,
                codec=codec,
            )
            version = self.version + 1
            digest = hashlib.sha256()
            with MatrixCsvWriter(
                self.path / _released_name(version),
                columns,
                include_ids=self.carry_ids,
                float_format=self.manifest["float_format"],
                append_from=self._artifact_path("released"),
                digest=digest,
                codec=pipeline.codec,
            ) as writer:
                self._check_hash("released", digest.hexdigest())
                self._check_hash("sketches", file_sha256(self._artifact_path("sketches")))
                # One pass over the delta: read it directly, never spilled.
                delta_chunks = (
                    (chunk.values, chunk.ids)
                    for chunk in iter_matrix_csv(
                        new_rows,
                        chunk_rows=resolved_chunk_rows,
                        id_column=self.id_column,
                        codec=pipeline.codec,
                    )
                )
                delta_rows, privacy_state, achieved_states, records, privacy = _transform_pass(
                    pipeline,
                    delta_chunks,
                    writer,
                    columns,
                    decided,
                    carry_ids=self.carry_ids,
                    backend=backend,
                    prior_sketches=self._load_sketches(),
                )
            total_rows = self.total_rows + delta_rows

            new_sketches = {
                "format": "repro.release-sketches",
                "version": version,
                "n_objects": total_rows,
                "privacy": state_to_jsonable(privacy_state),
                "achieved": [state_to_jsonable(state) for state in achieved_states],
            }
            write_json_atomic(self.path / _sketches_name(version), new_sketches)
            previous = dict(self.manifest["current"])
            manifest = dict(self.manifest)
            manifest["current"] = {
                "version": version,
                "total_rows": total_rows,
                "released_file": _released_name(version),
                "released_sha256": digest.hexdigest(),
                "sketches_file": _sketches_name(version),
                "sketches_sha256": file_sha256(self.path / _sketches_name(version)),
            }
            manifest["versions"] = list(self.manifest["versions"]) + [
                {
                    "version": version,
                    "rows": delta_rows,
                    "total_rows": total_rows,
                    "input_sha256": file_sha256(new_rows),
                    "released_sha256": manifest["current"]["released_sha256"],
                }
            ]
            # The manifest flip is the commit point; a crash before it leaves the
            # previous version's artifact set referenced and intact.
            write_json_atomic(self.path / MANIFEST_NAME, manifest)
            self.manifest = manifest
            for stale in (previous["released_file"], previous["sketches_file"]):
                (self.path / stale).unlink(missing_ok=True)
            return StreamingReleaseReport(
                n_objects=total_rows,
                columns=columns,
                records=records,
                privacy=privacy,
                chunk_rows=resolved_chunk_rows,
                n_passes=1,
            )

    def _check_schema(self, new_rows: Path) -> None:
        """Refuse an appended file whose header drifts from the bundle's."""
        new_columns, new_has_ids = read_matrix_csv_header(new_rows, id_column=self.id_column)
        if tuple(new_columns) != self.columns:
            raise BundleError(
                f"schema drift: bundle {self.path} was created with columns "
                f"{list(self.columns)} but {new_rows} has columns {list(new_columns)}; "
                "appended files must ship the exact same header, in the same order"
            )
        if bool(new_has_ids) != self.carry_ids:
            expected_header = "an id column" if self.carry_ids else "no id column"
            raise BundleError(
                f"schema drift: bundle {self.path} carries {expected_header} but "
                f"{new_rows} does not match; appended files must keep the id layout "
                "of the original feed"
            )

    # ------------------------------------------------------------------ #
    # Frozen-policy replay and reporting
    # ------------------------------------------------------------------ #
    def _frozen_rbt(self, decided=None) -> RBT:
        """An RBT configured with the bundle's frozen pairs, thresholds and angles."""
        if decided is None:
            decided = plan_from_payload(self.manifest["plan"])
        rbt_config = self.manifest["rbt"]
        return RBT(
            thresholds=[threshold.as_tuple() for _, threshold, _, _ in decided],
            pairs=[pair for pair, _, _, _ in decided],
            angles=[theta for _, _, _, theta in decided],
            solver=rbt_config["solver"],
            resolution=int(rbt_config["resolution"]),
            ddof=int(rbt_config["ddof"]),
        )

    def reference_pipeline(
        self,
        *,
        chunk_rows: int | None = None,
        memory_budget_bytes: int | None = None,
        backend=None,
        codec: str | None = None,
    ) -> StreamingReleasePipeline:
        """The from-scratch replay of the frozen policy (the byte-identity oracle).

        Running the returned pipeline over the concatenated feed produces a
        released CSV byte-identical to this bundle's — that replay re-reads
        the whole history, which is exactly the cost :meth:`append` avoids.
        """
        return StreamingReleasePipeline(
            self._frozen_rbt(),
            normalizer=normalizer_from_payload(self.manifest["normalizer"]),
            chunk_rows=chunk_rows,
            memory_budget_bytes=memory_budget_bytes,
            ddof=int(self.manifest["ddof"]),
            backend=backend,
            refit=False,
            codec=codec,
        )

    def _load_sketches(self) -> dict:
        import json

        try:
            sketches = json.loads(self.sketches_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BundleError(f"cannot read bundle sketches {self.sketches_path}: {exc}") from exc
        if sketches.get("format") != "repro.release-sketches":
            raise BundleError(f"{self.sketches_path} is not a release-sketches file")
        return sketches

    def report(self) -> StreamingReleaseReport:
        """Rebuild the owner's report (records + privacy) from the persisted sketches."""
        sketches = self._load_sketches()
        decided = plan_from_payload(self.manifest["plan"])
        achieved = [
            StreamingMoments.from_state(state_from_jsonable(state))
            for state in sketches["achieved"]
        ]
        records = build_rotation_records(
            decided, achieved, ddof=int(self.manifest["rbt"]["ddof"])
        )
        privacy = privacy_report_from_moments(
            self.columns,
            StreamingMoments.from_state(state_from_jsonable(sketches["privacy"])),
            ddof=int(self.manifest["ddof"]),
        )
        return StreamingReleaseReport(
            n_objects=int(sketches["n_objects"]),
            columns=self.columns,
            records=records,
            privacy=privacy,
            chunk_rows=0,
            n_passes=0,
        )

    def secret(self) -> RBTSecret:
        """The owner's invertible secret (pairs + angles) from the frozen plan."""
        return self.report().secret()


def _transform_pass(
    pipeline: StreamingReleasePipeline,
    chunks: Iterable[tuple[np.ndarray, tuple | None]],
    writer: MatrixCsvWriter,
    columns: Sequence[str],
    decided,
    *,
    carry_ids: bool,
    backend,
    prior_sketches: dict | None,
):
    """Normalize + rotate ``(values, ids)`` chunks into ``writer``; fold + report evidence.

    With ``prior_sketches`` the pass's accumulators then absorb the
    persisted states, so the drained evidence covers the whole feed — the
    merge is exact, hence identical to accumulating the concatenated rows.
    """
    if prior_sketches is not None:
        prior_privacy = state_from_jsonable(prior_sketches["privacy"])
        prior_achieved = [state_from_jsonable(state) for state in prior_sketches["achieved"]]
        if len(prior_achieved) != len(decided):
            raise BundleError(
                "bundle sketches do not match the rotation plan "
                f"({len(prior_achieved)} achieved states for {len(decided)} rotations)"
            )
    n_rows, privacy_moments, achieved_moments = transform_pass(
        chunks, pipeline.normalizer, decided, columns, writer, carry_ids=carry_ids, backend=backend
    )
    if prior_sketches is not None:
        privacy_moments._merge_state(prior_privacy)
        for accumulator, state in zip(achieved_moments, prior_achieved):
            accumulator._merge_state(state)
    # Export the sketch states *before* draining statistics: a drained
    # accumulator refuses to export (its exactness guarantee has been spent).
    privacy_state = privacy_moments.state()
    achieved_states = [accumulator.state() for accumulator in achieved_moments]
    records = build_rotation_records(decided, achieved_moments, ddof=pipeline.rbt.ddof)
    privacy = privacy_report_from_moments(columns, privacy_moments, ddof=pipeline.ddof)
    return n_rows, privacy_state, achieved_states, records, privacy


# --------------------------------------------------------------------------- #
# Module-level conveniences (the names the issue tracker uses)
# --------------------------------------------------------------------------- #
def create_release(input_path, bundle_dir, **options):
    """Create a bundle from ``input_path``; returns ``(bundle, report)``."""
    return VersionedReleaseBundle.create(input_path, bundle_dir, **options)


def open_release(bundle_dir) -> VersionedReleaseBundle:
    """Open an existing bundle directory."""
    return VersionedReleaseBundle.open(bundle_dir)


def append_release(bundle, new_rows, **options) -> StreamingReleaseReport:
    """Append ``new_rows`` to ``bundle`` (a :class:`VersionedReleaseBundle` or a path)."""
    if not isinstance(bundle, VersionedReleaseBundle):
        bundle = VersionedReleaseBundle.open(bundle)
    return bundle.append(new_rows, **options)


def sequential_attack_params(bundle: VersionedReleaseBundle) -> dict:
    """Parameters for the ``sequential_release`` attack against this bundle.

    The attack observes the version boundaries (releases are append-only, so
    release v*k* is exactly the first ``version_rows[k-1]`` rows of the
    current release) and intersects the angle hypotheses consistent with
    every prefix.
    """
    return {"version_rows": list(bundle.version_rows())}
