"""Threat models, the attack-suite runner and paper-style audit reports.

The paper's Section 5.2 security argument is evidence the data owner should
be able to regenerate against *their own* release — at the same scale, and
under the same memory budget, as the release itself.  This module packages
that workflow:

* :class:`ThreatModel` — a declarative, JSON-round-tripping description of
  an adversary: which registry attacks to run, with which parameters, under
  which seed, and the privacy threshold the release must clear.
* :class:`AttackSuite` — runs a threat model against evidence of either
  kind: an in-memory :class:`~repro.pipeline.ReleaseBundle` /
  :class:`~repro.data.DataMatrix` pair (dense attack engine), or released /
  original **CSV paths**, audited chunk-wise via
  :class:`~repro.data.io.MatrixPasses` (each file parsed once, later passes
  replayed) with the moment-space engine of :mod:`repro.attacks.streamed` —
  the matrices are never materialized.
* :class:`AuditReport` — the attack-error-vs-work-factor table, the
  Table-5-style re-normalization diagnostic, per-attribute ``Var(X − X')``
  with threshold verdicts, as canonical JSON and paper-style Markdown.

Caching and determinism
-----------------------
Every (attack, evidence) cell is keyed by a SHA-256 content hash — the
attack's canonical parameters, its derived seed and the evidence
fingerprints — and cached on disk exactly like the experiment runner's
trials.  Results are built from the JSON-safe row (not the live numpy
objects), so a cold run, a warm run and any mix of the two emit
**byte-identical** reports; and because the streamed engine is
chunk-invariant, the chunking knobs are deliberately *not* part of the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..attacks import build_attack, plan_attack, plan_known_sample
from ..attacks.base import distance_change_diagnostics
from ..attacks.streamed import MomentSketch
from ..data import DataMatrix
from ..data.io import MatrixPasses, atomic_write_text, read_matrix_csv_header
from ..exceptions import AttackError, ValidationError
from ..metrics import privacy_report
from ..perf.cache import DistanceCache
from ..perf.streaming import StreamingMoments
from .streaming import resolve_chunk_rows

__all__ = [
    "AttackOutcome",
    "AttackSuite",
    "AuditReport",
    "ThreatModel",
    "BUILTIN_THREAT_MODELS",
    "builtin_threat_model",
    "federated_threat_model",
]

#: Bump to invalidate cached audit rows when their payload or execution
#: semantics change.  v2: the exact bucket-accumulator sketches changed
#: streamed evidence at the ulp level, and ``known_sample`` grew the
#: ``index_ranges`` (colluding-parties) parameter.
AUDIT_CACHE_SCHEMA_VERSION = 2


def _canonical_json(payload) -> str:
    from ..experiments.spec import canonical_json

    return canonical_json(payload)


def _content_hash(payload) -> str:
    from ..experiments.spec import content_hash

    return content_hash(payload)


def _derive_seed(seed: int, *parts: str) -> int:
    from ..experiments.registry import derive_seed

    return derive_seed(seed, *parts)


def _jsonable(value):
    """Recursively convert a details payload to plain JSON types."""
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and np.isnan(value):
        return None
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


# --------------------------------------------------------------------------- #
# Threat models
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ThreatModel:
    """A declarative adversary: named attacks, parameters, seed, threshold.

    Attributes
    ----------
    name:
        Model name; used for output filenames.
    attacks:
        The attacks to run, as ``AxisSpec``-shaped entries (registry name
        plus keyword parameters).
    seed:
        Master seed; each attack's randomness is derived from it and the
        attack's name/position, so a model audits identically everywhere.
    privacy_threshold:
        The per-attribute ``Var(X − X')`` level every attribute must clear
        for the privacy verdict (the paper's ρ).
    description:
        Free-text note carried into the report.
    """

    name: str
    attacks: tuple
    seed: int = 0
    privacy_threshold: float = 0.25
    description: str = ""

    def __post_init__(self) -> None:
        from ..experiments.spec import AxisSpec, canonical_json

        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("a threat model needs a non-empty name")
        if any(sep in self.name for sep in ("/", "\\", "..")) or self.name.startswith("."):
            raise ValidationError(
                f"threat model names must not contain path separators, got {self.name!r}"
            )
        entries = tuple(
            entry if isinstance(entry, AxisSpec) else AxisSpec.parse(entry, axis="attacks")
            for entry in self.attacks
        )
        if not entries:
            raise ValidationError(f"threat model {self.name!r}: attacks must not be empty")
        cells = [canonical_json(entry.canonical()) for entry in entries]
        if len(set(cells)) != len(cells):
            raise ValidationError(f"threat model {self.name!r}: attacks contains duplicates")
        object.__setattr__(self, "attacks", entries)
        object.__setattr__(self, "seed", int(self.seed))
        threshold = float(self.privacy_threshold)
        if threshold <= 0:
            raise ValidationError(f"privacy_threshold must be positive, got {threshold}")
        object.__setattr__(self, "privacy_threshold", threshold)

    def canonical(self) -> dict:
        """JSON-ready form of the model (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "privacy_threshold": self.privacy_threshold,
            "attacks": [entry.canonical() for entry in self.attacks],
        }

    def attack_seed(self, index: int) -> int:
        """The derived seed for the attack at position ``index``."""
        entry = self.attacks[index]
        return _derive_seed(self.seed, "attack", entry.name, str(index))

    @classmethod
    def from_dict(cls, payload: Mapping) -> ThreatModel:
        """Build a model from parsed JSON, validating the schema."""
        if not isinstance(payload, Mapping):
            raise ValidationError(f"a threat model must be a JSON object, got {payload!r}")
        known = {"name", "description", "seed", "privacy_threshold", "attacks"}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"threat model has unknown keys {sorted(unknown)}")
        missing = {"name", "attacks"} - set(payload)
        if missing:
            raise ValidationError(f"threat model is missing keys {sorted(missing)}")
        attacks = payload["attacks"]
        if not isinstance(attacks, Sequence) or isinstance(attacks, (str, bytes)):
            raise ValidationError("attacks must be a JSON array")
        return cls(
            name=payload["name"],
            description=str(payload.get("description", "")),
            seed=int(payload.get("seed", 0)),
            privacy_threshold=float(payload.get("privacy_threshold", 0.25)),
            attacks=tuple(attacks),
        )

    @classmethod
    def from_json(cls, text: str) -> ThreatModel:
        """Parse a model from a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid threat model JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path) -> ThreatModel:
        """Load a model from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def save(self, path) -> None:
        """Write the model as indented JSON (the reviewable artifact form).

        Published atomically so an interrupted save never leaves a torn
        threat-model file for a later audit to misread.
        """
        atomic_write_text(path, json.dumps(self.canonical(), indent=2) + "\n")


def _paper_public() -> ThreatModel:
    return ThreatModel(
        name="paper_public",
        description=(
            "Section 5.2 adversaries with public knowledge only: the Table 5 "
            "re-normalization shortcut, the variance-fingerprint matcher and "
            "the brute-force pairing/angle search."
        ),
        attacks=(
            {"name": "renormalization"},
            {"name": "variance_fingerprint", "params": {"angle_resolution": 90}},
            {
                "name": "brute_force_angle",
                "params": {"angle_resolution": 24, "max_pairings": 8},
            },
        ),
    )


def _insider() -> ThreatModel:
    return ThreatModel(
        name="insider",
        description=(
            "The known-sample regression adversary (beyond the paper): an "
            "insider who knows a handful of original records."
        ),
        attacks=({"name": "known_sample", "params": {"n_known": 8}},),
    )


def _full() -> ThreatModel:
    return ThreatModel(
        name="full",
        description="Every registered adversary, public and insider.",
        attacks=(
            {"name": "renormalization"},
            {"name": "variance_fingerprint", "params": {"angle_resolution": 90}},
            {
                "name": "brute_force_angle",
                "params": {"angle_resolution": 24, "max_pairings": 8},
            },
            {"name": "known_sample", "params": {"n_known": 8}},
        ),
    )


BUILTIN_THREAT_MODELS = {
    "paper_public": _paper_public,
    "insider": _insider,
    "full": _full,
}


def builtin_threat_model(name: str) -> ThreatModel:
    """Return a fresh copy of the built-in threat model called ``name``."""
    try:
        factory = BUILTIN_THREAT_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_THREAT_MODELS))
        raise ValidationError(f"unknown threat model {name!r}; known: {known}") from None
    return factory()


def federated_threat_model(
    party_rows: Sequence[int],
    *,
    seed: int = 0,
    privacy_threshold: float = 0.25,
    project_to_orthogonal: bool = True,
    success_tolerance: float = 0.1,
) -> ThreatModel:
    """Colluding-parties adversaries for a horizontally-federated release.

    In a :class:`~repro.distributed.DistributedReleasePipeline` release each
    party's rows occupy one contiguous block, in party order, and every
    party knows its *own* original rows.  The strongest realistic insider is
    therefore a coalition of all parties but one running the known-sample
    regression with their combined blocks as side information, trying to
    reconstruct the remaining victim's rows.  This factory builds one such
    leave-one-out attack per victim party (skipping victims whose coalition
    would be empty of rows), so the audit reports per-victim evidence
    through the ordinary :class:`AttackSuite` machinery — cached, seeded
    and rendered like any other threat model.

    ``party_rows`` is the per-party row count in release order (the
    ``party_rows`` field of the distributed report).
    """
    rows = [int(count) for count in party_rows]
    if len(rows) < 2:
        raise ValidationError(
            "federated_threat_model needs at least two parties (no coalition otherwise)"
        )
    if any(count < 0 for count in rows):
        raise ValidationError(f"party_rows must be non-negative, got {rows}")
    offsets = [0]
    for count in rows:
        offsets.append(offsets[-1] + count)
    attacks = []
    for victim in range(len(rows)):
        if rows[victim] == 0:
            # An empty shard has no rows to reconstruct (and its coalition
            # would duplicate another victim's).
            continue
        coalition = [
            [offsets[party], offsets[party + 1]]
            for party in range(len(rows))
            if party != victim and rows[party] > 0
        ]
        if not coalition:
            continue
        attacks.append(
            {
                "name": "known_sample",
                "params": {
                    "index_ranges": coalition,
                    "project_to_orthogonal": project_to_orthogonal,
                    "success_tolerance": success_tolerance,
                },
            }
        )
    if not attacks:
        raise ValidationError(
            f"party_rows {rows} leaves every coalition empty; nothing to audit"
        )
    return ThreatModel(
        name="federated_collusion",
        description=(
            f"Leave-one-out collusion over {len(rows)} federated parties: every "
            "coalition of all-but-one parties runs the known-sample regression "
            "with its combined release blocks as side information."
        ),
        seed=seed,
        privacy_threshold=privacy_threshold,
        attacks=tuple(attacks),
    )


# --------------------------------------------------------------------------- #
# Outcomes and the report
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AttackOutcome:
    """One attack's row of the audit: effort vs. achievement."""

    #: Registry name of the attack.
    attack: str
    #: Human-readable label (name plus parameters).
    label: str
    #: ``dense`` (in-memory matrices) or ``moment`` (streamed evidence).
    engine: str
    #: Hypotheses scored / records used — the work factor.
    work: int
    #: Reconstruction RMSE against the original (``nan`` without ground truth).
    error: float
    #: Breach flag under the attack's own tolerance.
    succeeded: bool
    #: Per-attribute RMSE profile, or ``None`` without ground truth.
    per_attribute_errors: tuple[float, ...] | None
    #: JSON-safe attack-specific extras (hypothesis, diagnostics).
    details: dict = field(default_factory=dict)
    #: Content hash of the (attack, evidence) cell this row was computed
    #: for; an incremental re-audit reuses the row while the hash matches.
    evidence_hash: str | None = None

    @property
    def worst_attribute_error(self) -> float:
        """The largest per-attribute RMSE (``nan`` without ground truth)."""
        if not self.per_attribute_errors:
            return float("nan")
        return max(self.per_attribute_errors)

    def as_dict(self) -> dict:
        """JSON-ready row (``nan`` encoded as ``None``)."""
        return {
            "attack": self.attack,
            "label": self.label,
            "engine": self.engine,
            "work": self.work,
            "error": None if np.isnan(self.error) else self.error,
            "succeeded": self.succeeded,
            "per_attribute_errors": (
                None
                if self.per_attribute_errors is None
                else list(self.per_attribute_errors)
            ),
            "details": self.details,
            "evidence_hash": self.evidence_hash,
        }


def _fmt(value, digits: int = 4) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


@dataclass(frozen=True)
class AuditReport:
    """Everything one :class:`AttackSuite` run established about a release."""

    #: Canonical dict of the threat model that was run.
    threat_model: dict
    #: ``in_memory`` or ``streamed``.
    mode: str
    #: Released shape and attribute names.
    n_objects: int
    n_attributes: int
    columns: tuple[str, ...]
    #: One row per attack, in threat-model order.
    outcomes: tuple[AttackOutcome, ...]
    #: Per-attribute privacy evidence (``None`` without an original).
    privacy: dict | None
    #: Threshold verdicts derived from the outcomes and the privacy evidence.
    verdicts: dict
    #: Bookkeeping (excluded from the canonical JSON so re-runs are bitwise).
    executed: int = 0
    cached: int = 0
    #: Rows served from a ``prior_report`` instead of the cache or execution.
    reused: int = 0
    elapsed_seconds: float = 0.0

    @property
    def breached(self) -> bool:
        """Whether any attack breached the release."""
        return bool(self.verdicts.get("breached", False))

    def work_factor_table(self) -> list[dict]:
        """The attack-error-vs-work rows (the Section 5.2 argument as data)."""
        return [
            {
                "attack": outcome.label,
                "engine": outcome.engine,
                "work": outcome.work,
                "error": None if np.isnan(outcome.error) else outcome.error,
                "succeeded": outcome.succeeded,
            }
            for outcome in self.outcomes
        ]

    def to_json(self) -> str:
        """Canonical JSON: identical bits for cached and uncached runs."""
        payload = {
            "threat_model": self.threat_model,
            "mode": self.mode,
            "n_objects": self.n_objects,
            "n_attributes": self.n_attributes,
            "columns": list(self.columns),
            "attacks": [outcome.as_dict() for outcome in self.outcomes],
            "privacy": self.privacy,
            "verdicts": self.verdicts,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        """Paper-style Markdown audit report."""
        model = self.threat_model
        lines = [f"# Security audit — {model['name']}", ""]
        if model.get("description"):
            lines += [model["description"], ""]
        lines += [
            f"Release: {self.n_objects} objects x {self.n_attributes} attributes "
            f"({self.mode} evidence); seed {model['seed']}.",
            "",
            "## Attack error vs. work factor",
            "",
            "| attack | engine | work | RMSE | worst attribute RMSE | breach |",
            "|---|---|---|---|---|---|",
        ]
        for outcome in self.outcomes:
            lines.append(
                "| "
                + " | ".join(
                    [
                        outcome.label,
                        outcome.engine,
                        str(outcome.work),
                        _fmt(outcome.error),
                        _fmt(outcome.worst_attribute_error),
                        _fmt(outcome.succeeded),
                    ]
                )
                + " |"
            )
        lines.append("")

        renorm = next(
            (o for o in self.outcomes if "max_distance_change" in o.details), None
        )
        if renorm is not None:
            lines += [
                "## Re-normalization diagnostic (Table 5)",
                "",
                "| attack | max abs Δd | distances preserved |",
                "|---|---|---|",
                "| "
                + " | ".join(
                    [
                        renorm.label,
                        _fmt(float(renorm.details["max_distance_change"])),
                        _fmt(bool(renorm.details["distances_preserved"])),
                    ]
                )
                + " |",
                "",
            ]

        if self.privacy is not None:
            threshold = self.verdicts["privacy_threshold"]
            lines += [
                f"## Privacy evidence (threshold ρ = {threshold})",
                "",
                "| attribute | Var(X−X′) | released variance | clears ρ |",
                "|---|---|---|---|",
            ]
            for name in self.columns:
                item = self.privacy["attributes"][name]
                lines.append(
                    "| "
                    + " | ".join(
                        [
                            name,
                            _fmt(item["variance_difference"]),
                            _fmt(item["released_variance"]),
                            _fmt(bool(item["variance_difference"] >= threshold)),
                        ]
                    )
                    + " |"
                )
            lines.append("")

        lines += ["## Verdict", ""]
        if self.verdicts.get("privacy_satisfied") is not None:
            lines.append(
                f"- privacy threshold: "
                f"{'satisfied' if self.verdicts['privacy_satisfied'] else 'VIOLATED'} "
                f"(min Var(X−X′) = {_fmt(self.verdicts.get('min_variance_difference'))})"
            )
        if self.breached:
            lines.append(
                f"- breach: YES — {', '.join(self.verdicts['breached_by'])} "
                "reconstructed the data within tolerance"
            )
        else:
            lines.append("- breach: no attack reconstructed the data within tolerance")
        lines.append(
            f"- total attacker work: {int(sum(o.work for o in self.outcomes))} hypotheses"
        )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# The suite runner
# --------------------------------------------------------------------------- #
def _file_fingerprint(path: Path) -> str:
    """SHA-256 of a file's bytes, read in bounded blocks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _matrix_fingerprint(matrix: DataMatrix) -> str:
    digest = hashlib.sha256()
    digest.update(DistanceCache.fingerprint(matrix.values).encode())
    digest.update("\x1f".join(matrix.columns).encode())
    return digest.hexdigest()


def _run_dense_attack(payload: dict) -> dict:
    """Execute one dense attack trial (module-level so process pools pickle it)."""
    released = DataMatrix(payload["released"], columns=payload["columns"])
    original = (
        None
        if payload["original"] is None
        else DataMatrix(payload["original"], columns=payload["columns"])
    )
    attack = build_attack(
        payload["attack"]["name"],
        payload["attack"].get("params", {}),
        random_state=payload["attack_seed"],
    )
    result = attack.run(released, original)
    return {
        "work": int(result.work),
        "error": None if np.isnan(result.error) else float(result.error),
        "succeeded": bool(result.succeeded),
        "per_attribute_errors": (
            None
            if result.per_attribute_errors is None
            else [float(value) for value in result.per_attribute_errors]
        ),
        "details": _jsonable(dict(result.details)),
    }


def _prior_rows(prior_report) -> dict[str, dict]:
    """Index a previous report's attack rows by their (attack, evidence) hash.

    Accepts an :class:`AuditReport`, the dict of its canonical JSON, or a
    path to the JSON file.  Rows without an ``evidence_hash`` (reports from
    before the field existed) are simply not reusable.
    """
    if prior_report is None:
        return {}
    if isinstance(prior_report, AuditReport):
        attacks = [outcome.as_dict() for outcome in prior_report.outcomes]
    elif isinstance(prior_report, Mapping):
        attacks = prior_report.get("attacks", [])
    else:
        try:
            payload = json.loads(Path(prior_report).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read prior audit report {prior_report}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValidationError(f"{prior_report} is not an audit-report JSON object")
        attacks = payload.get("attacks", [])
    rows: dict[str, dict] = {}
    for entry in attacks:
        key = entry.get("evidence_hash")
        if not key:
            continue
        rows[key] = {
            "hash": key,
            "work": entry["work"],
            "error": entry["error"],
            "succeeded": entry["succeeded"],
            "per_attribute_errors": entry["per_attribute_errors"],
            "details": entry.get("details", {}),
        }
    return rows


class AttackSuite:
    """Run a threat model against release evidence, with an on-disk cache.

    Parameters
    ----------
    threat_model:
        A :class:`ThreatModel`, a built-in name (``paper_public``,
        ``insider``, ``full``) or a dict in the JSON schema.
    workers, executor:
        Pool configuration.  Dense (in-memory) attacks are independent and
        parallelize like experiment trials; the streamed engine is
        pass-structured but fans its per-attack planning stage over a
        thread pool (``executor`` applies to the dense engine only).
        Any pool size produces byte-identical reports.
    cache_dir:
        Directory for per-attack result JSON, keyed by content hash
        (attack + seed + evidence fingerprints).  ``None`` disables
        caching.  Because both engines are chunk-invariant, the chunking
        knobs are not part of the key: a re-run with any ``chunk_rows``
        is a 100% cache hit.
    distance_sample_rows:
        Row-sample size for the streamed Table-5 distance diagnostic (the
        full ``O(m²)`` matrix would defeat the memory budget).
    backend:
        Execution backend spec for the kernels underneath the audit — the
        streamed evidence accumulators, the dense engine's distance cache
        and the angle-grid scans of attacks that accept one (see
        :mod:`repro.perf.backends`).  Serial and process-pool audits are
        byte identical, which is why the backend is *not* part of the
        cache key.  With ``executor="process"`` the dense attacks already
        run in their own worker processes, which force the serial backend
        internally — the two parallelism schemes never nest.
    """

    def __init__(
        self,
        threat_model="paper_public",
        *,
        workers: int = 1,
        executor: str = "thread",
        cache_dir=None,
        distance_sample_rows: int = 256,
        backend=None,
        codec: str | None = None,
    ) -> None:
        from ..perf.csv_codec import resolve_codec
        if isinstance(threat_model, str):
            threat_model = builtin_threat_model(threat_model)
        elif isinstance(threat_model, Mapping):
            threat_model = ThreatModel.from_dict(threat_model)
        if not isinstance(threat_model, ThreatModel):
            raise ValidationError(
                f"threat_model must be a ThreatModel, a built-in name or a dict, "
                f"got {type(threat_model).__name__}"
            )
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if executor not in ("thread", "process"):
            raise ValidationError(f"executor must be 'thread' or 'process', got {executor!r}")
        self.threat_model = threat_model
        self.workers = int(workers)
        self.executor = executor
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.distance_sample_rows = int(distance_sample_rows)
        self.backend = backend
        # Decode lane for the streamed engine; fast and python parse the
        # same bits, so (like the backend) it is not part of the cache key.
        self.codec = resolve_codec(codec)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        released,
        original=None,
        *,
        id_column: str | None = "id",
        chunk_rows: int | None = None,
        memory_budget_bytes: int | None = None,
        ddof: int = 1,
        prior_report=None,
        profiler=None,
    ) -> AuditReport:
        """Audit ``released`` (a :class:`DataMatrix` or a CSV path).

        With matrices the dense attack engine runs; with paths the evidence
        is streamed chunk-wise and the moment-space engine runs.  Mixing the
        two kinds is rejected.

        ``prior_report`` makes the audit *incremental*: pass a previous
        :class:`AuditReport` (or its JSON dict, or a path to the JSON file)
        and every attack row whose (attack, evidence) content hash still
        matches is reused verbatim instead of re-executed — only evidence
        that actually changed is recomputed.  Reused rows are counted in
        :attr:`AuditReport.reused` and the emitted report stays
        byte-identical to a from-scratch run.
        """
        prior_rows = _prior_rows(prior_report)
        if isinstance(released, DataMatrix):
            if original is not None and not isinstance(original, DataMatrix):
                raise ValidationError(
                    "released is a DataMatrix, so original must be one too"
                )
            return self._run_in_memory(released, original, ddof=ddof, prior_rows=prior_rows)
        if isinstance(original, DataMatrix):
            raise ValidationError("released is a path, so original must be a path too")
        return self._run_streamed(
            Path(released),
            None if original is None else Path(original),
            id_column=id_column,
            chunk_rows=chunk_rows,
            memory_budget_bytes=memory_budget_bytes,
            ddof=ddof,
            prior_rows=prior_rows,
            profiler=profiler,
        )

    def run_bundle(self, bundle, *, ddof: int = 1) -> AuditReport:
        """Audit a :class:`~repro.pipeline.ReleaseBundle` (released vs. normalized)."""
        return self.run(bundle.released, bundle.normalized, ddof=ddof)

    # ------------------------------------------------------------------ #
    # Shared plumbing
    # ------------------------------------------------------------------ #
    def _attack_key(
        self,
        index: int,
        mode: str,
        released_fp: str,
        original_fp: str | None,
        extra: dict | None = None,
    ) -> str:
        entry = self.threat_model.attacks[index]
        return _content_hash(
            {
                "schema": AUDIT_CACHE_SCHEMA_VERSION,
                "kind": "attack",
                "attack": entry.canonical(),
                "seed": self.threat_model.attack_seed(index),
                "mode": mode,
                "released": released_fp,
                "original": original_fp,
                **(extra or {}),
            }
        )

    def _cache_load(self, key: str) -> dict | None:
        if self.cache_dir is None:
            return None
        try:
            row = json.loads((self.cache_dir / f"{key}.json").read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(row, dict) or row.get("hash") != key:
            return None
        return row

    def _cache_store(self, key: str, row: dict) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.cache_dir / f"{key}.json"
        temporary = path.with_suffix(f".tmp.{os.getpid()}")
        temporary.write_text(_canonical_json(row), encoding="utf-8")
        os.replace(temporary, path)

    def _outcome(self, index: int, engine: str, row: dict) -> AttackOutcome:
        entry = self.threat_model.attacks[index]
        return AttackOutcome(
            attack=entry.name,
            label=entry.label,
            engine=engine,
            work=int(row["work"]),
            error=float("nan") if row["error"] is None else float(row["error"]),
            succeeded=bool(row["succeeded"]),
            per_attribute_errors=(
                None
                if row["per_attribute_errors"] is None
                else tuple(float(value) for value in row["per_attribute_errors"])
            ),
            details=row.get("details", {}),
            evidence_hash=row.get("hash"),
        )

    def _verdicts(self, outcomes: Sequence[AttackOutcome], privacy: dict | None) -> dict:
        breached_by = [outcome.label for outcome in outcomes if outcome.succeeded]
        verdicts: dict = {
            "breached": bool(breached_by),
            "breached_by": breached_by,
            "privacy_threshold": self.threat_model.privacy_threshold,
            "privacy_satisfied": None,
            "min_variance_difference": None,
        }
        if privacy is not None:
            minimum = privacy["min_variance_difference"]
            verdicts["min_variance_difference"] = minimum
            verdicts["privacy_satisfied"] = bool(
                minimum >= self.threat_model.privacy_threshold
            )
        return verdicts

    def _report(
        self,
        mode: str,
        n_objects: int,
        columns: Sequence[str],
        outcomes: Sequence[AttackOutcome],
        privacy: dict | None,
        executed: int,
        cached: int,
        elapsed: float,
        reused: int = 0,
    ) -> AuditReport:
        return AuditReport(
            threat_model=self.threat_model.canonical(),
            mode=mode,
            n_objects=int(n_objects),
            n_attributes=len(columns),
            columns=tuple(columns),
            outcomes=tuple(outcomes),
            privacy=privacy,
            verdicts=self._verdicts(outcomes, privacy),
            executed=executed,
            cached=cached,
            reused=reused,
            elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------ #
    # Dense (in-memory) engine
    # ------------------------------------------------------------------ #
    def _run_in_memory(
        self,
        released: DataMatrix,
        original: DataMatrix | None,
        *,
        ddof: int,
        prior_rows: dict[str, dict] | None = None,
    ) -> AuditReport:
        started = time.perf_counter()
        if original is not None and released.shape != original.shape:
            raise ValidationError(
                f"released and original must have the same shape, "
                f"got {released.shape} and {original.shape}"
            )
        released_fp = _matrix_fingerprint(released)
        original_fp = None if original is None else _matrix_fingerprint(original)

        indices = range(len(self.threat_model.attacks))
        keys = {i: self._attack_key(i, "in_memory", released_fp, original_fp) for i in indices}
        rows: dict[int, dict] = {}
        pending: list[int] = []
        reused = 0
        for i in indices:
            prior = (prior_rows or {}).get(keys[i])
            if prior is not None:
                rows[i] = prior
                reused += 1
                continue
            row = self._cache_load(keys[i])
            if row is None:
                pending.append(i)
            else:
                rows[i] = row

        cache = DistanceCache(backend=self.backend)
        for i, row in self._execute_dense(pending, released, original, cache):
            row = {"hash": keys[i], "schema": AUDIT_CACHE_SCHEMA_VERSION, **row}
            self._cache_store(keys[i], row)
            rows[i] = row

        privacy = None
        if original is not None:
            report = privacy_report(original, released, ddof=ddof)
            privacy = {
                "attributes": report.as_dict(),
                "min_variance_difference": report.minimum_variance_difference,
                "mean_variance_difference": report.mean_variance_difference,
            }
        outcomes = [self._outcome(i, "dense", rows[i]) for i in indices]
        return self._report(
            "in_memory",
            released.n_objects,
            released.columns,
            outcomes,
            privacy,
            executed=len(pending),
            cached=len(self.threat_model.attacks) - len(pending) - reused,
            reused=reused,
            elapsed=time.perf_counter() - started,
        )

    def _execute_dense(self, pending, released, original, cache):
        """Yield ``(index, row)`` for every pending dense attack."""
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for i in pending:
                yield i, self._dense_row(i, released, original, cache)
            return
        if self.executor == "thread":
            with ThreadPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
                futures = {
                    pool.submit(self._dense_row, i, released, original, cache): i
                    for i in pending
                }
                outstanding = set(futures)
                while outstanding:
                    finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in finished:
                        yield futures[future], future.result()
            return
        payload_base = {
            "released": np.asarray(released.values),
            "columns": list(released.columns),
            "original": None if original is None else np.asarray(original.values),
        }
        with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
            futures = {
                pool.submit(
                    _run_dense_attack,
                    {
                        **payload_base,
                        "attack": self.threat_model.attacks[i].canonical(),
                        "attack_seed": self.threat_model.attack_seed(i),
                    },
                ): i
                for i in pending
            }
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    yield futures[future], future.result()

    def _dense_row(self, index: int, released, original, cache: DistanceCache) -> dict:
        entry = self.threat_model.attacks[index]
        attack = build_attack(
            entry.name, entry.params, random_state=self.threat_model.attack_seed(index)
        )
        # Lend the suite's distance cache to attacks that compute the Table 5
        # diagnostic, so the original's matrix is built once per audit, and
        # the suite's kernel backend to attacks that scan angle grids.
        if getattr(attack, "distance_cache", False) is None:
            attack.distance_cache = cache
        if self.backend is not None and getattr(attack, "backend", False) is None:
            attack.backend = self.backend
        result = attack.run(released, original)
        return {
            "work": int(result.work),
            "error": None if np.isnan(result.error) else float(result.error),
            "succeeded": bool(result.succeeded),
            "per_attribute_errors": (
                None
                if result.per_attribute_errors is None
                else [float(value) for value in result.per_attribute_errors]
            ),
            "details": _jsonable(dict(result.details)),
        }

    # ------------------------------------------------------------------ #
    # Streamed (moment-space) engine
    # ------------------------------------------------------------------ #
    def _run_streamed(
        self,
        released_path: Path,
        original_path: Path | None,
        *,
        id_column: str | None,
        chunk_rows: int | None,
        memory_budget_bytes: int | None,
        ddof: int,
        prior_rows: dict[str, dict] | None = None,
        profiler=None,
    ) -> AuditReport:
        started = time.perf_counter()
        released_fp = _file_fingerprint(released_path)
        original_fp = None if original_path is None else _file_fingerprint(original_path)
        # The chunking knobs are deliberately absent from every key (the
        # engine is chunk-invariant), but knobs that DO change the parsed
        # values or the recorded diagnostics must invalidate: the id-column
        # interpretation and the Table-5 sample size.
        evidence_key = _content_hash(
            {
                "schema": AUDIT_CACHE_SCHEMA_VERSION,
                "kind": "evidence",
                "released": released_fp,
                "original": original_fp,
                "id_column": id_column,
                "ddof": ddof,
                "distance_sample_rows": self.distance_sample_rows,
            }
        )
        indices = range(len(self.threat_model.attacks))
        streamed_extra = {
            "id_column": id_column,
            "distance_sample_rows": self.distance_sample_rows,
        }
        keys = {
            i: self._attack_key(i, "streamed", released_fp, original_fp, streamed_extra)
            for i in indices
        }
        rows: dict[int, dict] = {}
        pending: list[int] = []
        reused = 0
        for i in indices:
            prior = (prior_rows or {}).get(keys[i])
            if prior is not None:
                rows[i] = prior
                reused += 1
                continue
            row = self._cache_load(keys[i])
            if row is None:
                pending.append(i)
            else:
                rows[i] = row
        evidence = self._cache_load(evidence_key)

        if pending or evidence is None:
            evidence, executed_rows = self._stream_execute(
                released_path,
                original_path,
                pending,
                id_column=id_column,
                chunk_rows=chunk_rows,
                memory_budget_bytes=memory_budget_bytes,
                ddof=ddof,
                profiler=profiler,
            )
            evidence = {"hash": evidence_key, "schema": AUDIT_CACHE_SCHEMA_VERSION, **evidence}
            self._cache_store(evidence_key, evidence)
            for i, row in executed_rows.items():
                row = {"hash": keys[i], "schema": AUDIT_CACHE_SCHEMA_VERSION, **row}
                self._cache_store(keys[i], row)
                rows[i] = row

        outcomes = [self._outcome(i, "moment", rows[i]) for i in indices]
        return self._report(
            "streamed",
            evidence["n_objects"],
            evidence["columns"],
            outcomes,
            evidence.get("privacy"),
            executed=len(pending),
            cached=len(self.threat_model.attacks) - len(pending) - reused,
            reused=reused,
            elapsed=time.perf_counter() - started,
        )

    def _stream_execute(
        self,
        released_path: Path,
        original_path: Path | None,
        pending: list[int],
        *,
        id_column: str | None,
        chunk_rows: int | None,
        memory_budget_bytes: int | None,
        ddof: int,
        profiler=None,
    ) -> tuple[dict, dict[int, dict]]:
        """Run the pass-structured streamed audit for the pending attacks.

        Each file is parsed once: the moments pass spills its decoded blocks
        and the gather and scoring passes replay them.
        """
        columns, _ = read_matrix_csv_header(released_path, id_column=id_column)
        n = len(columns)
        resolved_chunk_rows = resolve_chunk_rows(
            n, chunk_rows=chunk_rows, memory_budget_bytes=memory_budget_bytes
        )
        options = {
            "chunk_rows": resolved_chunk_rows,
            "id_column": id_column,
            "codec": self.codec,
            "ids": False,
        }
        with ExitStack() as sources:
            released = sources.enter_context(MatrixPasses(released_path, **options))
            original = original_columns = None
            if original_path is not None:
                original = sources.enter_context(MatrixPasses(original_path, **options))
                original_columns, _ = read_matrix_csv_header(original_path, id_column=id_column)

            # ---- Pass 1: chunk-invariant moments (and a head sample for the
            # sampled Table 5 diagnostic), over released and original together.
            released_acc = StreamingMoments(n, cross=True, backend=self.backend)
            original_acc = (
                StreamingMoments(n, backend=self.backend) if original is not None else None
            )
            difference_acc = (
                StreamingMoments(n, backend=self.backend) if original is not None else None
            )
            head_released: list[np.ndarray] = []
            head_original: list[np.ndarray] = []
            head_rows = 0
            n_objects = 0
            paired = self._paired_chunks(released, original, columns, original_columns)
            if profiler is not None:
                paired = profiler.wrap_iter("read", paired)
            for released_chunk, original_chunk in paired:
                with profiler.section("compute") if profiler is not None else nullcontext():
                    released_acc.update(released_chunk)
                    if original_chunk is not None:
                        original_acc.update(original_chunk)
                        difference_acc.update(original_chunk - released_chunk)
                if head_rows < self.distance_sample_rows:
                    take = min(self.distance_sample_rows - head_rows, released_chunk.shape[0])
                    head_released.append(released_chunk[:take].copy())
                    if original_chunk is not None:
                        head_original.append(original_chunk[:take].copy())
                    head_rows += take
                n_objects += released_chunk.shape[0]
            sketch = MomentSketch.from_accumulator(released_acc, ddof=1)
            sample_released = np.vstack(head_released) if head_released else np.empty((0, n))
            sample_original = np.vstack(head_original) if head_original else None

            privacy = None
            if original is not None:
                original_variances = original_acc.variances(ddof=ddof)
                released_variances_d = released_acc.variances(ddof=ddof)
                difference_variances = difference_acc.variances(ddof=ddof)
                attributes = {}
                for index, name in enumerate(columns):
                    original_variance = float(original_variances[index])
                    difference_variance = float(difference_variances[index])
                    attributes[name] = {
                        "variance_difference": difference_variance,
                        "scale_invariant": (
                            difference_variance / original_variance
                            if not np.isclose(original_variance, 0.0)
                            else None
                        ),
                        "original_variance": original_variance,
                        "released_variance": float(released_variances_d[index]),
                    }
                privacy = {
                    "attributes": attributes,
                    "min_variance_difference": min(
                        item["variance_difference"] for item in attributes.values()
                    ),
                    "mean_variance_difference": float(
                        np.mean([item["variance_difference"] for item in attributes.values()])
                    ),
                }

            # ---- Pass 2 (only if an insider attack is pending): gather the
            # known record pairs at their absolute row positions.
            known_needs: dict[int, list[int]] = {}
            for i in pending:
                entry = self.threat_model.attacks[i]
                if entry.name != "known_sample":
                    continue
                if original is None:
                    raise AttackError(
                        "the known-sample attack needs the original CSV (--original)"
                    )
                attack = build_attack(
                    entry.name, entry.params, random_state=self.threat_model.attack_seed(i)
                )
                known_needs[i] = attack.resolve_indices(n_objects)
            known_rows = (
                self._gather_rows(
                    released,
                    original,
                    columns,
                    original_columns,
                    sorted({idx for need in known_needs.values() for idx in need}),
                )
                if known_needs
                else {}
            )

            # ---- Planning: moment-space (row-count-free) per pending attack.
            # Plans are independent, so they fan out over the suite's worker
            # pool; results are keyed by position, so any pool size produces
            # the same report.
            def _plan(i: int) -> tuple:
                entry = self.threat_model.attacks[i]
                attack = build_attack(
                    entry.name, entry.params, random_state=self.threat_model.attack_seed(i)
                )
                if entry.name == "known_sample":
                    gathered = known_needs[i]
                    released_rows = np.vstack([known_rows[idx][0] for idx in gathered])
                    original_rows = np.vstack([known_rows[idx][1] for idx in gathered])
                    reconstruction, work, details = plan_known_sample(
                        attack, released_rows, original_rows
                    )
                    details["known_indices"] = [int(idx) for idx in gathered]
                else:
                    reconstruction, work, details = plan_attack(attack, sketch)
                return attack, reconstruction, work, details

            plans: dict[int, tuple] = {}
            if self.workers > 1 and len(pending) > 1:
                with ThreadPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
                    futures = {pool.submit(_plan, i): i for i in pending}
                    for future, i in futures.items():
                        plans[i] = future.result()
            else:
                for i in pending:
                    plans[i] = _plan(i)

            # ---- Pass 3: one shared scoring pass applying every planned map.
            scores: dict[int, StreamingMoments] = {}
            if original is not None and plans:
                for i in plans:
                    scores[i] = StreamingMoments(n, backend=self.backend)
                scoring = self._paired_chunks(released, original, columns, original_columns)
                if profiler is not None:
                    scoring = profiler.wrap_iter("read", scoring)
                for released_chunk, original_chunk in scoring:
                    with profiler.section("compute") if profiler is not None else nullcontext():
                        for i, (_, reconstruction, _, _) in plans.items():
                            scores[i].update(original_chunk - reconstruction.apply(released_chunk))

            executed_rows: dict[int, dict] = {}
            for i, (attack, reconstruction, work, details) in plans.items():
                error = None
                per_attribute = None
                succeeded = False
                if i in scores:
                    accumulator = scores[i]
                    mean_squared = accumulator.variances(ddof=0) + accumulator.means() ** 2
                    per_attribute = [float(value) for value in np.sqrt(mean_squared)]
                    error = float(np.sqrt(np.mean(mean_squared)))
                    succeeded = bool(error <= attack.success_tolerance)
                if sample_original is not None and (
                    attack.name == "renormalization"
                    or getattr(attack, "check_distances", False)
                ):
                    # The sampled Table 5 diagnostic for attacks that would
                    # compute it dense (re-normalization, opted-in insiders).
                    diagnostics = distance_change_diagnostics(
                        sample_original, reconstruction.apply(sample_released)
                    )
                    diagnostics["distance_sample_rows"] = int(sample_released.shape[0])
                    details = {**details, **diagnostics}
                executed_rows[i] = {
                    "work": int(work),
                    "error": error,
                    "succeeded": succeeded,
                    "per_attribute_errors": per_attribute,
                    "details": _jsonable(details),
                }

            evidence = {
                "n_objects": int(n_objects),
                "columns": list(columns),
                "privacy": privacy,
            }
            return evidence, executed_rows

    def _paired_chunks(
        self,
        released: MatrixPasses,
        original: MatrixPasses | None,
        columns: Sequence[str],
        original_columns: Sequence[str] | None,
    ):
        """One pass zipping released (and original) chunks, validating alignment."""
        released_iter = released.chunks()
        if original is None:
            for values, _ in released_iter:
                yield values, None
            return
        columns, original_columns = tuple(columns), tuple(original_columns)
        shared = set(columns) == set(original_columns)
        # Align original columns to the released order by name.
        order = None
        if shared and columns != original_columns:
            order = [original_columns.index(name) for name in columns]
        original_iter = original.chunks()
        while True:
            released_chunk = next(released_iter, None)
            original_chunk = next(original_iter, None)
            if released_chunk is None and original_chunk is None:
                return
            if released_chunk is None or original_chunk is None:
                raise ValidationError(
                    "released and original CSVs have different row counts"
                )
            released_values, original_values = released_chunk[0], original_chunk[0]
            if released_values.shape != original_values.shape:
                raise ValidationError(
                    "released and original CSVs have different shapes in a chunk: "
                    f"{released_values.shape} vs {original_values.shape}"
                )
            if not shared:
                raise ValidationError(
                    f"released and original CSVs must share columns, got "
                    f"{columns} and {original_columns}"
                )
            yield released_values, (
                original_values if order is None else original_values[:, order]
            )

    def _gather_rows(
        self,
        released: MatrixPasses,
        original: MatrixPasses,
        columns: Sequence[str],
        original_columns: Sequence[str],
        indices: list[int],
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Collect specific absolute rows from both CSVs in one pass (stops early)."""
        wanted = set(indices)
        gathered: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        position = 0
        for released_chunk, original_chunk in self._paired_chunks(
            released, original, columns, original_columns
        ):
            stop = position + released_chunk.shape[0]
            for index in sorted(wanted):
                if position <= index < stop:
                    local = index - position
                    gathered[index] = (
                        released_chunk[local].copy(),
                        original_chunk[local].copy(),
                    )
            wanted -= set(gathered)
            position = stop
            if not wanted:
                break
        if wanted:
            raise AttackError(f"known indices {sorted(wanted)} are beyond the release")
        return gathered
