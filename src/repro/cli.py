"""Command-line interface for the RBT release workflow.

The CLI wraps the library for the data-owner and data-receiver roles so the
full Figure 1 workflow can be driven from a shell without writing Python:

``transform``
    Read a CSV of confidential numeric attributes, normalize it, apply RBT
    and write the released CSV plus (optionally) the rotation secret and a
    JSON privacy report.

``distributed``
    Multi-party: release the union of per-party horizontal shards without
    any party revealing a raw row — only mergeable moment sketches and
    masked partials cross the (simulated) wire, and the output is
    byte-identical to ``transform`` run on the concatenated shards.

``invert``
    Owner-side: undo a release using a saved secret.

``evaluate``
    Compare an original (normalized) CSV with a released CSV: distance
    preservation, per-attribute Var(X − X'), and cluster agreement under
    k-means.

``cluster``
    Receiver-side: cluster a released CSV with one of the library's
    algorithms and write the labels.

``experiment``
    Run a declarative evaluation grid (datasets × transforms × clustering
    algorithms × attacks × seeds) in parallel with an incremental on-disk
    result cache, and emit paper-style JSON and Markdown tables.  Accepts a
    spec JSON path or a built-in name (``paper_grid`` reproduces the
    paper's Section 5 evaluation in one command; ``security_grid`` audits
    every distortion method under every adversary).

``audit``
    Owner-side: adversarially audit a released CSV under a declarative
    threat model (Section 5.2's security argument, regenerated against
    *your* release).  The evidence is streamed chunk-wise — the matrices
    are never materialized — so a release produced under a memory budget
    can be audited under the same budget; results are cached by content
    hash, so repeat audits are instant and bit-for-bit identical.  With
    ``--incremental`` a prior report is consulted first and only the
    attacks whose evidence hash changed are recomputed.

``release``
    Owner-side versioned releases: ``--init`` fits the normalizer, plans
    the rotations once and publishes release v1 into a bundle directory;
    ``--append`` streams *only the new rows* through the frozen policy and
    publishes vK+1 byte-identical to a from-scratch release of the
    concatenated feed.  Without either flag the bundle's manifest is
    verified and summarized.

``bench diff``
    Developer-side: compare two ``BENCH_perf*.json`` benchmark reports and
    print a per-scenario speedup/regression table, exiting non-zero when a
    gated ratio regressed beyond the CI threshold.

``lint``
    Developer-side: statically check the source tree against the repo's
    reproducibility contracts (seeded RNGs, exact accumulation, atomic
    persistence, shape-invariant BLAS — see ``docs/LINTING.md``).  CI runs
    this with ``--fail-on-unused-suppression``.

Examples
--------
::

    python -m repro transform vitals.csv released.csv --threshold 0.4 \
        --secret secret.json --report privacy.json --id-column mrn
    python -m repro distributed site_a.csv site_b.csv site_c.csv released.csv \
        --threshold 0.4 --secret secret.json --report release.json
    python -m repro distributed vitals.csv released.csv --parties 4
    python -m repro cluster released.csv labels.csv --algorithm kmeans --k 3
    python -m repro evaluate normalized.csv released.csv --k 3
    python -m repro invert released.csv restored.csv --secret secret.json
    python -m repro experiment paper_grid --workers 4
    python -m repro experiment my_grid.json --output-dir results/
    python -m repro audit released.csv --original normalized.csv \
        --threat-model full --chunk-rows 4096
    python -m repro audit released.csv --attacks renormalization,known_sample
    python -m repro release bundle/ --init january.csv --threshold 0.4
    python -m repro release bundle/ --append february.csv --expect-version 1
    python -m repro audit bundle/ --incremental
    python -m repro lint --fail-on-unused-suppression
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .clustering import DBSCAN, AgglomerativeClustering, KMeans, KMedoids
from .core import RBT, RBTSecret
from .data import DataMatrix
from .data.io import matrix_from_csv, matrix_to_csv
from .distributed import DistributedReleasePipeline, split_csv_shards
from .exceptions import ReproError, ValidationError
from .experiments import BUILTIN_SPECS, ExperimentSpec, builtin_spec, run_experiment
from .lint import cli as lint_cli
from .metrics import (
    adjusted_rand_index,
    misclassification_error,
    privacy_report,
)
from .perf.backends import get_backend
from .perf.kernels import max_abs_distance_difference
from .perf.profiling import StageProfiler
from .pipeline.audit import (
    BUILTIN_THREAT_MODELS,
    AttackSuite,
    ThreatModel,
    builtin_threat_model,
)
from .pipeline.bundle_format import MANIFEST_NAME
from .pipeline.streaming import StreamingReleasePipeline, stream_invert
from .pipeline.versioned import VersionedReleaseBundle
from .preprocessing import MinMaxNormalizer, ZScoreNormalizer

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _add_backend_options(subparser: argparse.ArgumentParser) -> None:
    """The kernel-backend knobs shared by the compute-heavy subcommands."""
    subparser.add_argument(
        "--backend",
        choices=["serial", "process-pool"],
        default=None,
        help=(
            "execution backend for the chunked kernels (default: REPRO_BACKEND "
            "or serial); serial and process-pool output identical bytes"
        ),
    )
    subparser.add_argument(
        "--kernel-workers",
        type=int,
        default=None,
        help=(
            "worker processes for the kernel backend (default: "
            "REPRO_KERNEL_WORKERS or the CPU count); implies "
            "--backend process-pool when given alone"
        ),
    )


def _resolve_backend(args: argparse.Namespace):
    """The backend instance the flags ask for, or ``None`` to keep defaults."""
    if args.backend is None and args.kernel_workers is None:
        return None
    return get_backend(args.backend, workers=args.kernel_workers)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rotation-Based Transformation (RBT) for privacy-preserving clustering.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    transform = subparsers.add_parser(
        "transform", help="normalize a CSV and release an RBT-transformed copy"
    )
    transform.add_argument("input", type=Path, help="CSV with one row per object")
    transform.add_argument("output", type=Path, help="where to write the released CSV")
    transform.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="pairwise-security threshold rho applied to every pair (default 0.25)",
    )
    transform.add_argument(
        "--normalizer",
        choices=["zscore", "minmax"],
        default="zscore",
        help="normalization applied before the rotation (default zscore)",
    )
    transform.add_argument(
        "--strategy",
        choices=["interleaved", "sequential", "random", "max_variance"],
        default="interleaved",
        help="attribute pair-selection strategy (default interleaved)",
    )
    transform.add_argument("--seed", type=int, default=None, help="random seed")
    transform.add_argument(
        "--id-column",
        default="id",
        help=(
            "name of the identifier column to carry as object ids "
            "(default 'id'; ignored when the CSV has no such leading column)"
        ),
    )
    transform.add_argument(
        "--secret", type=Path, default=None, help="write the rotation secret (JSON) here"
    )
    transform.add_argument(
        "--report", type=Path, default=None, help="write a JSON privacy report here"
    )
    transform.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help=(
            "stream the release in blocks of this many rows (out-of-core path; "
            "the output is byte-identical to the default in-memory path)"
        ),
    )
    transform.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-stage read/compute/write wall-clock and peak-RSS "
            "breakdown (routes through the streamed path)"
        ),
    )
    _add_backend_options(transform)

    distributed = subparsers.add_parser(
        "distributed",
        help="multi-party release of horizontal shards (byte-identical to transform)",
    )
    distributed.add_argument(
        "shards",
        type=Path,
        nargs="+",
        help=(
            "per-party horizontal shard CSVs (identical headers); with "
            "--parties, a single source CSV to split"
        ),
    )
    distributed.add_argument("output", type=Path, help="where to write the released CSV")
    distributed.add_argument(
        "--parties",
        type=int,
        default=None,
        help=(
            "simulation mode: split one source CSV into this many near-even "
            "shards before running the protocol"
        ),
    )
    distributed.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="pairwise-security threshold rho applied to every pair (default 0.25)",
    )
    distributed.add_argument(
        "--normalizer",
        choices=["zscore", "minmax"],
        default="zscore",
        help="normalization applied before the rotation (default zscore)",
    )
    distributed.add_argument(
        "--strategy",
        choices=["interleaved", "sequential", "random", "max_variance"],
        default="interleaved",
        help="attribute pair-selection strategy (default interleaved)",
    )
    distributed.add_argument("--seed", type=int, default=None, help="random seed for the RBT")
    distributed.add_argument(
        "--protocol-seed",
        type=int,
        default=None,
        help=(
            "seed for the secure-sum masks; the masks cancel exactly, so this "
            "never changes the released bytes"
        ),
    )
    distributed.add_argument(
        "--id-column",
        default="id",
        help=(
            "name of the identifier column to carry as object ids "
            "(default 'id'; ignored when the CSVs have no such leading column)"
        ),
    )
    distributed.add_argument(
        "--secret", type=Path, default=None, help="write the rotation secret (JSON) here"
    )
    distributed.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write a JSON release report (privacy + communication costs) here",
    )
    distributed.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="rows per streamed block at every party (any value gives the same bytes)",
    )

    invert = subparsers.add_parser("invert", help="undo a release using a saved secret")
    invert.add_argument("input", type=Path, help="released CSV")
    invert.add_argument("output", type=Path, help="where to write the restored (normalized) CSV")
    invert.add_argument("--secret", type=Path, required=True, help="rotation secret JSON")
    invert.add_argument("--id-column", default="id", help="identifier column name (default 'id')")
    invert.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help=(
            "restore in blocks of this many rows (out-of-core path; the output "
            "is byte-identical to the default in-memory path)"
        ),
    )
    _add_backend_options(invert)

    evaluate = subparsers.add_parser(
        "evaluate", help="compare an original (normalized) CSV with a released CSV"
    )
    evaluate.add_argument("original", type=Path, help="normalized original CSV")
    evaluate.add_argument("released", type=Path, help="released CSV")
    evaluate.add_argument(
        "--k", type=int, default=3, help="clusters for the k-means agreement check"
    )
    evaluate.add_argument("--seed", type=int, default=0, help="k-means seed")
    evaluate.add_argument("--id-column", default="id", help="identifier column name (default 'id')")

    cluster = subparsers.add_parser("cluster", help="cluster a released CSV")
    cluster.add_argument("input", type=Path, help="released CSV")
    cluster.add_argument("output", type=Path, help="where to write the labels CSV")
    cluster.add_argument(
        "--algorithm",
        choices=["kmeans", "kmedoids", "hierarchical", "dbscan"],
        default="kmeans",
        help="clustering algorithm (default kmeans)",
    )
    cluster.add_argument("--k", type=int, default=3, help="number of clusters (ignored by dbscan)")
    cluster.add_argument("--eps", type=float, default=0.5, help="dbscan neighbourhood radius")
    cluster.add_argument("--min-samples", type=int, default=5, help="dbscan core-point threshold")
    cluster.add_argument("--seed", type=int, default=0, help="random seed")
    cluster.add_argument("--id-column", default="id", help="identifier column name (default 'id')")

    experiment = subparsers.add_parser(
        "experiment", help="run a declarative evaluation grid (parallel, cached)"
    )
    experiment.add_argument(
        "spec",
        nargs="?",
        default="paper_grid",
        help=(
            "path to a spec JSON, or a built-in name "
            f"({', '.join(sorted(BUILTIN_SPECS))}; default paper_grid)"
        ),
    )
    experiment.add_argument(
        "--workers", type=int, default=1, help="pool size; 1 runs in-process (default 1)"
    )
    experiment.add_argument(
        "--executor",
        choices=["process", "thread"],
        default="process",
        help="pool flavour used when workers > 1 (default process)",
    )
    experiment.add_argument(
        "--output-dir",
        type=Path,
        default=Path("experiments_out"),
        help="where the JSON and Markdown reports are written (default experiments_out/)",
    )
    experiment.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="trial result cache (default <output-dir>/cache)",
    )
    experiment.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk trial cache"
    )
    experiment.add_argument(
        "--format",
        choices=["markdown", "json", "both"],
        default="both",
        help="report format(s) to write (default both)",
    )
    experiment.add_argument(
        "--quiet", action="store_true", help="suppress the Markdown table on stdout"
    )
    _add_backend_options(experiment)

    release = subparsers.add_parser(
        "release",
        help="versioned release bundle: publish v1, then append-only deltas",
    )
    release.add_argument(
        "bundle",
        type=Path,
        help="bundle directory (created by --init, grown by --append)",
    )
    release_mode = release.add_mutually_exclusive_group()
    release_mode.add_argument(
        "--init",
        type=Path,
        default=None,
        metavar="INPUT",
        help="fit the policy on this CSV and publish release v1 into the bundle",
    )
    release_mode.add_argument(
        "--append",
        type=Path,
        default=None,
        metavar="NEW_ROWS",
        help=(
            "stream only these new rows through the frozen policy and publish "
            "vK+1 (byte-identical to a from-scratch release of the full feed)"
        ),
    )
    release.add_argument(
        "--expect-version",
        type=int,
        default=None,
        metavar="K",
        help=(
            "fail --append unless the bundle is still at version K "
            "(optimistic-concurrency guard against a racing writer)"
        ),
    )
    release.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="pairwise-security threshold rho for --init (default 0.25)",
    )
    release.add_argument(
        "--normalizer",
        choices=["zscore", "minmax"],
        default="zscore",
        help="normalization fitted (and frozen) by --init (default zscore)",
    )
    release.add_argument(
        "--strategy",
        choices=["interleaved", "sequential", "random", "max_variance"],
        default="interleaved",
        help="attribute pair-selection strategy for --init (default interleaved)",
    )
    release.add_argument("--seed", type=int, default=None, help="random seed for --init")
    release.add_argument(
        "--id-column",
        default="id",
        help="identifier column name for --init (default 'id')",
    )
    release.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="stream in blocks of this many rows (any value gives the same bytes)",
    )
    _add_backend_options(release)

    audit = subparsers.add_parser(
        "audit", help="adversarially audit a released CSV under a threat model"
    )
    audit.add_argument(
        "released",
        type=Path,
        help="released CSV to attack, or a release-bundle directory",
    )
    audit.add_argument(
        "--original",
        type=Path,
        default=None,
        help=(
            "the owner's normalized original CSV; enables reconstruction-error "
            "scoring, privacy-threshold verdicts and the known-sample attack"
        ),
    )
    audit.add_argument(
        "--threat-model",
        default="paper_public",
        help=(
            "path to a threat-model JSON, or a built-in name "
            f"({', '.join(sorted(BUILTIN_THREAT_MODELS))}; default paper_public)"
        ),
    )
    audit.add_argument(
        "--attacks",
        default=None,
        help=(
            "comma-separated attack names overriding the threat model's list "
            "(e.g. renormalization,known_sample)"
        ),
    )
    audit.add_argument(
        "--seed", type=int, default=None, help="override the threat model's seed"
    )
    audit.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="stream the evidence in blocks of this many rows",
    )
    audit.add_argument(
        "--memory-budget-mib",
        type=int,
        default=None,
        help="derive --chunk-rows from a peak-memory budget (MiB)",
    )
    audit.add_argument(
        "--workers",
        type=int,
        default=1,
        help="thread-pool size for the per-attack planning stage (default 1)",
    )
    audit.add_argument(
        "--output-dir",
        type=Path,
        default=Path("audit_out"),
        help="where the JSON and Markdown reports are written (default audit_out/)",
    )
    audit.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="attack result cache (default <output-dir>/cache)",
    )
    audit.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk attack cache"
    )
    audit.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "reuse rows from the previous report in --output-dir whose "
            "evidence hash is unchanged; only recompute the rest"
        ),
    )
    audit.add_argument(
        "--prior",
        type=Path,
        default=None,
        metavar="REPORT_JSON",
        help=(
            "prior audit report to reuse rows from (implies --incremental; "
            "default <output-dir>/<model>_audit.json)"
        ),
    )
    audit.add_argument(
        "--format",
        choices=["markdown", "json", "both"],
        default="both",
        help="report format(s) to write (default both)",
    )
    audit.add_argument(
        "--quiet", action="store_true", help="suppress the Markdown report on stdout"
    )
    audit.add_argument("--id-column", default="id", help="identifier column name (default 'id')")
    audit.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-stage read/compute/write wall-clock and peak-RSS "
            "breakdown of the streamed evidence passes"
        ),
    )
    _add_backend_options(audit)

    bench = subparsers.add_parser(
        "bench", help="benchmark-report utilities (diff two BENCH_perf*.json reports)"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    bench_diff = bench_commands.add_parser(
        "diff",
        help="per-scenario speedup/regression table between two bench reports",
    )
    bench_diff.add_argument("old", type=Path, help="baseline BENCH_perf*.json report")
    bench_diff.add_argument("new", type=Path, help="candidate BENCH_perf*.json report")
    bench_diff.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum tolerated fractional drop in any gated ratio (default 0.30)",
    )
    bench_diff.add_argument(
        "--verbose",
        action="store_true",
        help="also list unchanged informational metrics",
    )

    lint = subparsers.add_parser(
        "lint", help="statically check the source tree against the repro contracts"
    )
    lint_cli.configure_parser(lint)

    return parser


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def _command_transform(args: argparse.Namespace) -> int:
    normalizer = ZScoreNormalizer() if args.normalizer == "zscore" else MinMaxNormalizer()
    transformer = RBT(thresholds=args.threshold, strategy=args.strategy, random_state=args.seed)
    backend = _resolve_backend(args)

    profiler = StageProfiler() if args.profile else None

    # A parallel backend (or --profile, which instruments the streamed
    # stages) routes through the streaming path even without --chunk-rows:
    # that is where the backend-threaded kernels live, and the streamed
    # output is byte-identical to the in-memory branch anyway.
    if (
        args.chunk_rows is not None
        or profiler is not None
        or (backend is not None and backend.workers > 1)
    ):
        # Out-of-core path: constant memory in the number of rows, output
        # byte-identical to the in-memory branch below.
        pipeline = StreamingReleasePipeline(
            transformer,
            normalizer=normalizer,
            chunk_rows=args.chunk_rows,
            backend=backend,
        )
        streamed = pipeline.run(
            args.input, args.output, id_column=args.id_column, profiler=profiler
        )
        n_objects, n_attributes = streamed.n_objects, streamed.n_attributes
        records = streamed.records
        pairs = streamed.pairs
        secret = streamed.secret()
        report = streamed.privacy
    else:
        matrix = matrix_from_csv(args.input, id_column=args.id_column)
        normalized = normalizer.fit(matrix).transform(matrix)
        result = transformer.transform(normalized)
        matrix_to_csv(result.matrix, args.output)
        n_objects, n_attributes = result.matrix.n_objects, result.matrix.n_attributes
        records = result.records
        pairs = result.pairs
        secret = RBTSecret.from_result(result)
        report = privacy_report(normalized, result.matrix) if args.report is not None else None

    print(f"released {n_objects} objects x {n_attributes} attributes -> {args.output}")

    if args.secret is not None:
        secret.save(args.secret)
        print(f"rotation secret written to {args.secret} (keep it private)")
    if args.report is not None:
        payload = {
            "threshold": args.threshold,
            "pairs": [list(pair) for pair in pairs],
            "min_variance_difference": report.minimum_variance_difference,
            "attributes": report.as_dict(),
        }
        args.report.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"privacy report written to {args.report}")
    for record in records:
        print(
            f"  pair {record.pair}: theta drawn from "
            f"[{record.security_range.lower_bound:.2f}, {record.security_range.upper_bound:.2f}] deg, "
            f"Var(X - X') = ({record.achieved_variances[0]:.4f}, {record.achieved_variances[1]:.4f})"
        )
    if profiler is not None:
        print(profiler.format_table())
    return 0


def _command_distributed(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    normalizer = ZScoreNormalizer() if args.normalizer == "zscore" else MinMaxNormalizer()
    transformer = RBT(thresholds=args.threshold, strategy=args.strategy, random_state=args.seed)
    shard_paths = list(args.shards)
    with contextlib.ExitStack() as stack:
        if args.parties is not None:
            if len(shard_paths) != 1:
                raise ValidationError(
                    "--parties splits a single source CSV; pass one input path"
                )
            if args.parties < 1:
                raise ValidationError(f"--parties must be >= 1, got {args.parties}")
            scratch = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            source = shard_paths[0]
            shard_paths = [scratch / f"party-{index}.csv" for index in range(args.parties)]
            written = split_csv_shards(source, shard_paths, id_column=args.id_column)
            print(f"split {source} into {len(written)} shard(s): {list(written)} rows")
        pipeline = DistributedReleasePipeline(
            transformer,
            normalizer=normalizer,
            chunk_rows=args.chunk_rows,
            protocol_seed=args.protocol_seed,
        )
        report = pipeline.run(shard_paths, args.output, id_column=args.id_column)

    communication = report.ledger.summary()
    print(
        f"released {report.n_objects} objects x {report.n_attributes} attributes "
        f"from {report.n_parties} part(ies) -> {args.output}"
    )
    print(
        f"  communication: {communication['n_messages']} messages, "
        f"{communication['n_bytes']} bytes over {communication['rounds']} rounds "
        f"(largest payload {communication['max_message_values']} values)"
    )
    if args.secret is not None:
        report.secret().save(args.secret)
        print(f"rotation secret written to {args.secret} (keep it private)")
    if args.report is not None:
        payload = {
            "threshold": args.threshold,
            "pairs": [list(pair) for pair in report.pairs],
            "min_variance_difference": report.privacy.minimum_variance_difference,
            "attributes": report.privacy.as_dict(),
            "n_parties": report.n_parties,
            "party_rows": list(report.party_rows),
            "communication": communication,
        }
        args.report.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"release report written to {args.report}")
    for record in report.records:
        print(
            f"  pair {record.pair}: theta drawn from "
            f"[{record.security_range.lower_bound:.2f}, {record.security_range.upper_bound:.2f}] deg, "
            f"Var(X - X') = ({record.achieved_variances[0]:.4f}, {record.achieved_variances[1]:.4f})"
        )
    return 0


def _command_invert(args: argparse.Namespace) -> int:
    secret = RBTSecret.load(args.secret)
    backend = _resolve_backend(args)
    if args.chunk_rows is not None or (backend is not None and backend.workers > 1):
        stream_invert(
            args.input,
            args.output,
            secret,
            chunk_rows=args.chunk_rows,
            id_column=args.id_column,
            backend=backend,
        )
    else:
        released = matrix_from_csv(args.input, id_column=args.id_column)
        restored = secret.invert(released)
        matrix_to_csv(restored, args.output)
    print(f"restored matrix written to {args.output}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    original = matrix_from_csv(args.original, id_column=args.id_column)
    released = matrix_from_csv(args.released, id_column=args.id_column)
    if original.shape != released.shape:
        print(
            f"error: shape mismatch {original.shape} vs {released.shape}",
            file=sys.stderr,
        )
        return 2

    max_distortion = max_abs_distance_difference(original.values, released.values)
    report = privacy_report(original, released)
    labels_original = KMeans(args.k, random_state=args.seed).fit_predict(original)
    labels_released = KMeans(args.k, random_state=args.seed).fit_predict(released)
    error = misclassification_error(labels_original, labels_released)
    ari = adjusted_rand_index(labels_original, labels_released)

    print(f"max |delta pairwise distance| : {max_distortion:.3e}")
    print(f"distances preserved           : {max_distortion < 1e-8}")
    print(f"min Var(X - X')               : {report.minimum_variance_difference:.4f}")
    print(f"mean Var(X - X')              : {report.mean_variance_difference:.4f}")
    print(f"k-means misclassification     : {error:.4f}")
    print(f"k-means adjusted Rand index   : {ari:.4f}")
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    matrix = matrix_from_csv(args.input, id_column=args.id_column)
    if args.algorithm == "kmeans":
        algorithm = KMeans(args.k, random_state=args.seed)
    elif args.algorithm == "kmedoids":
        algorithm = KMedoids(args.k, random_state=args.seed)
    elif args.algorithm == "hierarchical":
        algorithm = AgglomerativeClustering(args.k)
    else:
        algorithm = DBSCAN(eps=args.eps, min_samples=args.min_samples)
    result = algorithm.fit(matrix)

    _write_labels(args.output, matrix, result.labels)
    sizes = np.bincount(result.labels[result.labels >= 0]) if result.n_clusters else np.array([])
    print(f"found {result.n_clusters} cluster(s); sizes: {sizes.tolist()}")
    print(f"labels written to {args.output}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # A local file wins over a built-in of the same name, so saved specs are
    # never silently shadowed.
    spec_path = Path(args.spec)
    if spec_path.is_file():
        spec = ExperimentSpec.load(spec_path)
    elif args.spec in BUILTIN_SPECS:
        spec = builtin_spec(args.spec)
    else:
        print(
            f"error: {args.spec!r} is neither a spec file nor a built-in "
            f"({', '.join(sorted(BUILTIN_SPECS))})",
            file=sys.stderr,
        )
        return 1

    cache_dir = None if args.no_cache else (args.cache_dir or args.output_dir / "cache")
    report = run_experiment(
        spec,
        workers=args.workers,
        executor=args.executor,
        cache_dir=cache_dir,
        backend=args.backend,
        kernel_workers=args.kernel_workers,
    )

    args.output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    markdown = None
    if args.format in ("markdown", "both") or not args.quiet:
        markdown = report.results.to_markdown()
    if args.format in ("json", "both"):
        json_path = args.output_dir / f"{spec.name}.json"
        json_path.write_text(report.results.to_json(), encoding="utf-8")
        written.append(json_path)
    if args.format in ("markdown", "both"):
        markdown_path = args.output_dir / f"{spec.name}.md"
        markdown_path.write_text(markdown + "\n", encoding="utf-8")
        written.append(markdown_path)

    if not args.quiet:
        print(markdown)
    rate = f", {report.trials_per_second:.1f} executed trials/s" if report.executed else ""
    print(
        f"{report.total} trials ({report.executed} executed, {report.cached} from cache) "
        f"in {report.elapsed_seconds:.2f}s with {args.workers} worker(s){rate}"
    )
    for path in written:
        print(f"report written to {path}")
    return 0


def _command_release(args: argparse.Namespace) -> int:
    backend = _resolve_backend(args)
    if args.init is not None:
        normalizer = ZScoreNormalizer() if args.normalizer == "zscore" else MinMaxNormalizer()
        transformer = RBT(
            thresholds=args.threshold, strategy=args.strategy, random_state=args.seed
        )
        bundle, report = VersionedReleaseBundle.create(
            args.init,
            args.bundle,
            rbt=transformer,
            normalizer=normalizer,
            chunk_rows=args.chunk_rows,
            backend=backend,
            id_column=args.id_column,
        )
        print(
            f"release v{bundle.version}: {bundle.total_rows} objects x "
            f"{len(bundle.columns)} attributes -> {bundle.released_path}"
        )
        print(f"bundle manifest written to {args.bundle / MANIFEST_NAME}")
        for record in report.records:
            print(
                f"  pair {record.pair}: theta drawn from "
                f"[{record.security_range.lower_bound:.2f}, "
                f"{record.security_range.upper_bound:.2f}] deg (frozen for appends)"
            )
        return 0

    if args.append is not None:
        bundle = VersionedReleaseBundle.open(args.bundle)
        previous_rows = bundle.total_rows
        bundle.append(
            args.append,
            expected_version=args.expect_version,
            chunk_rows=args.chunk_rows,
            backend=backend,
        )
        print(
            f"release v{bundle.version}: appended "
            f"{bundle.total_rows - previous_rows} objects "
            f"({bundle.total_rows} total) -> {bundle.released_path}"
        )
        print(
            "byte-identical to a from-scratch release of the concatenated feed "
            "(verify with the bundle's reference pipeline)"
        )
        return 0

    # No mode flag: verify and summarize the bundle.
    bundle = VersionedReleaseBundle.open(args.bundle)
    bundle.verify()
    print(f"bundle {args.bundle}: release v{bundle.version} (artifacts verified)")
    print(
        f"  {bundle.total_rows} objects x {len(bundle.columns)} attributes "
        f"-> {bundle.released_path}"
    )
    for entry in bundle.manifest["versions"]:
        print(f"  v{entry['version']}: +{entry['rows']} rows ({entry['total_rows']} total)")
    return 0


def _command_audit(args: argparse.Namespace) -> int:
    released_path = args.released
    if released_path.is_dir():
        # A release-bundle directory: audit its current released version.
        bundle = VersionedReleaseBundle.open(released_path)
        released_path = bundle.released_path
        print(f"auditing release v{bundle.version} of bundle {args.released}")

    # A local file wins over a built-in of the same name (same rule as
    # experiment specs), so saved threat models are never shadowed.
    model_path = Path(args.threat_model)
    if model_path.is_file():
        model = ThreatModel.load(model_path)
    elif args.threat_model in BUILTIN_THREAT_MODELS:
        model = builtin_threat_model(args.threat_model)
    else:
        print(
            f"error: {args.threat_model!r} is neither a threat-model file nor a "
            f"built-in ({', '.join(sorted(BUILTIN_THREAT_MODELS))})",
            file=sys.stderr,
        )
        return 1
    if args.attacks is not None:
        names = [name.strip() for name in args.attacks.split(",") if name.strip()]
        if not names:
            print("error: --attacks must name at least one attack", file=sys.stderr)
            return 1
        model = ThreatModel(
            name="adhoc",
            description=f"ad-hoc attack list: {', '.join(names)}",
            seed=model.seed,
            privacy_threshold=model.privacy_threshold,
            attacks=tuple({"name": name} for name in names),
        )
    if args.seed is not None:
        model = ThreatModel(
            name=model.name,
            description=model.description,
            seed=args.seed,
            privacy_threshold=model.privacy_threshold,
            attacks=tuple(entry.canonical() for entry in model.attacks),
        )

    if args.chunk_rows is not None and args.memory_budget_mib is not None:
        print("error: pass either --chunk-rows or --memory-budget-mib", file=sys.stderr)
        return 1

    prior_report = None
    if args.prior is not None or args.incremental:
        prior_path = args.prior or args.output_dir / f"{model.name}_audit.json"
        if prior_path.is_file():
            prior_report = prior_path
        elif args.prior is not None:
            print(
                f"error: prior report {prior_path} does not exist; run a full "
                "audit first or point --prior at an existing report",
                file=sys.stderr,
            )
            return 1
        else:
            print(f"no prior report at {prior_path}; running a full audit")

    cache_dir = None if args.no_cache else (args.cache_dir or args.output_dir / "cache")
    suite = AttackSuite(
        model,
        workers=args.workers,
        cache_dir=cache_dir,
        backend=_resolve_backend(args),
    )
    profiler = StageProfiler() if args.profile else None
    report = suite.run(
        released_path,
        args.original,
        id_column=args.id_column,
        chunk_rows=args.chunk_rows,
        memory_budget_bytes=(
            None if args.memory_budget_mib is None else args.memory_budget_mib * 2**20
        ),
        prior_report=prior_report,
        profiler=profiler,
    )

    args.output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    markdown = report.to_markdown()
    if args.format in ("json", "both"):
        json_path = args.output_dir / f"{model.name}_audit.json"
        json_path.write_text(report.to_json(), encoding="utf-8")
        written.append(json_path)
    if args.format in ("markdown", "both"):
        markdown_path = args.output_dir / f"{model.name}_audit.md"
        markdown_path.write_text(markdown, encoding="utf-8")
        written.append(markdown_path)

    if not args.quiet:
        print(markdown)
    reused = f", {report.reused} reused from prior" if report.reused else ""
    print(
        f"{len(report.outcomes)} attacks ({report.executed} executed, "
        f"{report.cached} from cache{reused}) in {report.elapsed_seconds:.2f}s"
    )
    for path in written:
        print(f"report written to {path}")
    if profiler is not None:
        print(profiler.format_table())
    return 0


def _write_labels(path: Path, matrix: DataMatrix, labels: np.ndarray) -> None:
    """Write an ``id,label`` CSV (positional ids when the matrix has none).

    Ids are emitted through :mod:`csv` so values containing commas, quotes
    or newlines are quoted correctly instead of corrupting the file.
    """
    ids = matrix.ids if matrix.ids is not None else tuple(range(matrix.n_objects))
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "label"])
        writer.writerows([object_id, int(label)] for object_id, label in zip(ids, labels))


def _command_bench(args: argparse.Namespace) -> int:
    from .perf.benchreport import (
        diff_bench_reports,
        format_bench_diff,
        has_regressions,
        load_bench_report,
    )

    old = load_bench_report(args.old)
    new = load_bench_report(args.new)
    if old.get("mode") != new.get("mode"):
        print(
            f"error: mode mismatch — {args.old} is {old.get('mode')!r}, "
            f"{args.new} is {new.get('mode')!r}; compare like with like",
            file=sys.stderr,
        )
        return 2
    rows = diff_bench_reports(old, new, max_regression=args.max_regression)
    print(f"bench diff ({args.old} -> {args.new}):")
    print(format_bench_diff(rows, verbose=args.verbose))
    return 1 if has_regressions(rows) else 0


def _command_lint(args: argparse.Namespace) -> int:
    # The lint CLI owns its own exit-code contract (0 clean / 1 findings /
    # 2 usage error), including ReproError handling.
    return lint_cli.run(args)


_COMMANDS = {
    "transform": _command_transform,
    "distributed": _command_distributed,
    "invert": _command_invert,
    "evaluate": _command_evaluate,
    "cluster": _command_cluster,
    "experiment": _command_experiment,
    "audit": _command_audit,
    "release": _command_release,
    "bench": _command_bench,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
