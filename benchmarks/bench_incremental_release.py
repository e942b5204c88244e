"""Benchmark for the versioned release-bundle subsystem (delta vs. full cost).

Measures what :mod:`repro.pipeline.versioned` buys on an append-only feed and
*merges* the results into the ``BENCH_perf.json`` report
(``BENCH_perf_quick.json`` in ``--quick`` mode) written by
``bench_perf_hotpaths.py``, so the CI regression gate covers the incremental
release layer alongside the compute kernels:

* ``delta_speedup`` — a 1% append lands release vK+1 by streaming only the
  new rows; the from-scratch frozen-policy replay of the concatenated feed
  re-reads the whole history.  The ratio is the headline perf number and it
  gates against the committed baseline; ``delta_speedup_within_budget``
  additionally pins an acceptance floor unconditionally — >= 10x in full
  mode, >= 4x at the smoke scale where the append's fixed bookkeeping
  dominates its runtime (``delta_speedup_floor`` records which applied).
* ``append_byte_identical`` — every (append schedule x chunk size x
  backend) combination of a small bundle is cross-checked byte-for-byte
  against that schedule's frozen-policy replay, and the large timing bundle
  is checked too.  The flag gates unconditionally in
  ``check_bench_regression.py``.
* ``sketch_state_round_trip_identical`` — every appended bundle of the
  matrix persists its exact sketches in state format 2 (one base64 float64
  block per state); decoding them and sending the states through format 2
  and back gives bit-identical ``state()`` arrays, and the bundle's
  rebuilt report equals the one the append computed in memory.
* ``format1_bundle_append_identical`` — a bundle whose sketches are in the
  older format 1 (one ``float.hex`` string per value, still read) takes an
  append whose release bytes equal the frozen-policy replay and whose
  report equals that of the same append onto a format-2 bundle.  Both flags
  gate unconditionally; ``sketches_bytes`` (the large bundle's sketches
  file after its append) is informational.
* ``audit_reuse_fraction`` — re-auditing an unchanged release with the
  prior report reuses every row whose evidence hash is unchanged;
  ``audit_reuse_within_budget`` pins the >= 90% acceptance floor.

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_incremental_release.py            # full
    PYTHONPATH=src python benchmarks/bench_incremental_release.py --quick    # CI smoke

Headline acceptance number (full mode): a 1% append to a 500k-row bundle is
at least 10x faster than the full re-release, with byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # allow `python benchmarks/bench_incremental_release.py` from anywhere
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# The format-1 sketch oracle is shared with tests/test_versioned_release.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from bench_perf_hotpaths import best_time, ratio
from sketch_format1 import format1_jsonable, report_fingerprint, rewrite_sketches

from repro.core import RBT
from repro.data.io import MatrixCsvWriter
from repro.perf.backends import get_backend
from repro.perf.streaming import StreamingMoments, state_from_jsonable, state_to_jsonable
from repro.pipeline.audit import AttackSuite, builtin_threat_model
from repro.pipeline.versioned import VersionedReleaseBundle, append_release

N_ATTRIBUTES = 4
COLUMNS = [f"x{i}" for i in range(N_ATTRIBUTES)]
CHUNK_ROWS = 4_096


def generate_csv(
    path: Path, n_rows: int, *, seed: int = 0, start: int = 0, block: int = 50_000
) -> None:
    """Write a synthetic confidential CSV without materializing it."""
    rng = np.random.default_rng(seed)
    with MatrixCsvWriter(path, COLUMNS, include_ids=True) as writer:
        written = 0
        while written < n_rows:
            rows = min(block, n_rows - written)
            values = rng.normal(size=(rows, N_ATTRIBUTES)) * [3.0, 1.0, 10.0, 0.5] + [
                50.0,
                0.0,
                -20.0,
                1.0,
            ]
            writer.write_rows(
                values, ids=[f"row-{start + written + i}" for i in range(rows)]
            )
            written += rows


def concatenate_csvs(history: Path, delta: Path, output: Path) -> None:
    """One feed file: the history rows followed by the delta rows."""
    with output.open("w", encoding="utf-8", newline="") as out:
        out.write(history.read_text(encoding="utf-8"))
        with delta.open(encoding="utf-8") as extra:
            next(extra)  # the (identical) header
            shutil.copyfileobj(extra, out)


def sketch_round_trip_identical(bundle: VersionedReleaseBundle, append_report) -> bool:
    """The bundle's format-2 sketches decode and re-encode bit for bit."""
    sketches = json.loads(bundle.sketches_path.read_text(encoding="utf-8"))
    identical = report_fingerprint(bundle.report()) == report_fingerprint(append_report)
    for payload in (sketches["privacy"], *sketches["achieved"]):
        state = StreamingMoments.from_state(state_from_jsonable(payload)).state()
        again = state_from_jsonable(json.loads(json.dumps(state_to_jsonable(state))))
        identical = identical and payload["format"] == 2 and all(
            np.asarray(state[key]).tobytes() == np.asarray(again[key]).tobytes()
            for key in state
        )
    return bool(identical)


def bench_delta_vs_full(workdir: Path, quick: bool) -> dict:
    """Time a 1% append against the from-scratch frozen-policy replay."""
    n_rows = 20_000 if quick else 500_000
    delta_rows = n_rows // 100
    history = workdir / "history.csv"
    delta = workdir / "delta.csv"
    concatenated = workdir / "concatenated.csv"
    generate_csv(history, n_rows, seed=5)
    generate_csv(delta, delta_rows, seed=6, start=n_rows)
    concatenate_csvs(history, delta, concatenated)

    print(f"[bench] incremental_release building {n_rows}-row bundle ...", flush=True)
    bundle, _ = VersionedReleaseBundle.create(
        history, workdir / "bundle", rbt=RBT(random_state=7), chunk_rows=CHUNK_ROWS
    )

    # append() mutates the bundle, so each timing repeat consumes a fresh
    # copy prepared outside the clock.
    repeats = 2
    copies = [workdir / f"bundle_copy{index}" for index in range(repeats)]
    for copy in copies:
        shutil.copytree(bundle.path, copy)
    append_seconds = np.inf
    appended_path = None
    for copy in copies:
        start = time.perf_counter()
        grown = VersionedReleaseBundle.open(copy)
        grown.append(delta, chunk_rows=CHUNK_ROWS)
        append_seconds = min(append_seconds, time.perf_counter() - start)
        appended_path = grown.released_path

    print(f"[bench] incremental_release full replay of {n_rows + delta_rows} rows ...", flush=True)
    reference_path = workdir / "reference.csv"
    replay = bundle.reference_pipeline(chunk_rows=CHUNK_ROWS)
    full_seconds, _ = best_time(
        lambda: replay.run(concatenated, reference_path), repeats=repeats
    )
    byte_identical = appended_path.read_bytes() == reference_path.read_bytes()

    speedup = ratio(full_seconds, append_seconds)
    # The >=10x acceptance floor is the full-mode (500k-row) headline.  At
    # the 20k-row smoke scale the append is pure fixed bookkeeping (~20 ms
    # of bundle open + manifest hashing), so once the fast CSV codec cut
    # the full replay to ~0.2 s the ratio is structurally capped near ~8x;
    # quick mode pins a 4x floor instead, which still catches a delta path
    # that silently degrades into a rescan.
    floor = 4.0 if quick else 10.0
    return {
        "n_rows": n_rows,
        "delta_rows": delta_rows,
        "append_seconds": append_seconds,
        "full_release_seconds": full_seconds,
        "delta_speedup": speedup,
        "delta_speedup_floor": floor,
        "delta_speedup_within_budget": bool(speedup >= floor),
        "large_append_byte_identical": bool(byte_identical),
        "sketches_bytes": grown.sketches_path.stat().st_size,
    }


def bench_byte_identity_matrix(workdir: Path) -> dict:
    """Byte-identity across append schedules x chunk sizes x backends."""
    n_rows = 6_000
    source = workdir / "matrix_source.csv"
    generate_csv(source, n_rows, seed=9)
    schedules = {
        "halves": (3_000, 3_000),
        "thirds": (2_000, 2_000, 2_000),
        "ragged": (2_400, 2_100, 1_500),
    }
    chunk_sizes = (256, 1_024)
    backends = ("serial", "process-pool")

    # Per-schedule slice files (each schedule freezes its policy on its own
    # first slice, so each gets one reference replay all its combos share).
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = lines[0], lines[1:]
    combos = []
    byte_identical = True
    round_trip_identical = True
    for schedule_name, schedule in schedules.items():
        slice_paths = []
        offset = 0
        for index, count in enumerate(schedule):
            path = workdir / f"{schedule_name}_slice{index}.csv"
            path.write_text(header + "".join(rows[offset : offset + count]))
            slice_paths.append(path)
            offset += count

        reference_path = None
        for chunk_rows in chunk_sizes:
            for backend_name in backends:
                backend = get_backend(backend_name, workers=2)
                bundle_dir = workdir / f"{schedule_name}_{chunk_rows}_{backend_name}"
                bundle, _ = VersionedReleaseBundle.create(
                    slice_paths[0],
                    bundle_dir,
                    rbt=RBT(random_state=7),
                    chunk_rows=chunk_rows,
                    backend=backend,
                )
                for path in slice_paths[1:]:
                    report = append_release(bundle, path, chunk_rows=chunk_rows, backend=backend)
                round_trip_identical = round_trip_identical and sketch_round_trip_identical(
                    bundle, report
                )
                if reference_path is None:
                    reference_path = workdir / f"{schedule_name}_reference.csv"
                    bundle.reference_pipeline(chunk_rows=777).run(source, reference_path)
                identical = (
                    bundle.released_path.read_bytes() == reference_path.read_bytes()
                )
                byte_identical = byte_identical and identical
                combos.append(
                    {
                        "schedule": schedule_name,
                        "chunk_rows": chunk_rows,
                        "backend": backend_name,
                        "byte_identical": bool(identical),
                    }
                )
    return {
        "matrix_rows": n_rows,
        "combinations": combos,
        "matrix_byte_identical": bool(byte_identical),
        "sketch_state_round_trip_identical": bool(round_trip_identical),
    }


def bench_format1_append(workdir: Path) -> dict:
    """An append onto a bundle whose sketches are in the older format 1."""
    slices = [workdir / f"halves_slice{index}.csv" for index in range(2)]
    reference = workdir / "halves_reference.csv"
    if not reference.exists():  # pragma: no cover - depends on bench ordering
        raise RuntimeError("bench_byte_identity_matrix must run first")
    bundle, _ = VersionedReleaseBundle.create(
        slices[0], workdir / "format1_bundle", rbt=RBT(random_state=7), chunk_rows=256
    )
    rewrite_sketches(bundle, format1_jsonable)
    reopened = VersionedReleaseBundle.open(bundle.path)
    reopened.verify()
    report = append_release(reopened, slices[1], chunk_rows=256)
    # The release bytes do not depend on the sketches (the policy is frozen),
    # so the evidence is checked too: it must equal the format-2 twin's.
    twin = VersionedReleaseBundle.open(workdir / "halves_256_serial")
    identical = reopened.released_path.read_bytes() == reference.read_bytes() and (
        report_fingerprint(report) == report_fingerprint(twin.report())
    )
    return {"format1_bundle_append_identical": bool(identical)}


def bench_audit_reuse(workdir: Path) -> dict:
    """Incremental re-audit: unchanged evidence rows are served from the prior."""
    released = workdir / "halves_256_serial" / "released-v0002.csv"
    if not released.exists():  # pragma: no cover - depends on bench ordering
        raise RuntimeError("bench_byte_identity_matrix must run first")
    suite = AttackSuite(builtin_threat_model("paper_public"), cache_dir=None)
    first_seconds, first = best_time(lambda: suite.run(released), repeats=1)
    second_seconds, second = best_time(
        lambda: suite.run(released, prior_report=first), repeats=1
    )
    reuse_fraction = second.reused / len(second.outcomes) if second.outcomes else 0.0
    return {
        "n_attacks": len(first.outcomes),
        "full_audit_seconds": first_seconds,
        "incremental_audit_seconds": second_seconds,
        "audit_reuse_fraction": float(reuse_fraction),
        "audit_reuse_within_budget": bool(reuse_fraction >= 0.9),
    }


def run(quick: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_incremental_") as tmp:
        workdir = Path(tmp)
        results = bench_delta_vs_full(workdir, quick)
        matrix = bench_byte_identity_matrix(workdir)
        results.update(matrix)
        results.update(bench_format1_append(workdir))
        results.update(bench_audit_reuse(workdir))
        results["append_byte_identical"] = bool(
            results["large_append_byte_identical"] and results["matrix_byte_identical"]
        )
    return {"incremental_release": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument(
        "--output-dir",
        default=str(Path(__file__).resolve().parent.parent),
        help=(
            "directory of the JSON report to merge into (default: the repo root); "
            "the file is BENCH_perf.json, or BENCH_perf_quick.json in --quick mode"
        ),
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    output = output_dir / ("BENCH_perf_quick.json" if args.quick else "BENCH_perf.json")
    if output.exists():
        report = json.loads(output.read_text(encoding="utf-8"))
        if report.get("mode") != mode:
            print(
                f"error: {output} is a {report.get('mode')!r}-mode report; "
                f"refusing to merge {mode!r}-mode results into it",
                file=sys.stderr,
            )
            return 2
    else:
        report = {"mode": mode, "hot_paths": {}}

    report["hot_paths"].update(run(args.quick))
    report["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\nmerged incremental-release results into {output}")
    scenario = report["hot_paths"]["incremental_release"]
    print(
        f"  1% append to {scenario['n_rows']} rows: {scenario['append_seconds']:.2f}s vs "
        f"{scenario['full_release_seconds']:.2f}s full re-release "
        f"({scenario['delta_speedup']:.1f}x, >={scenario['delta_speedup_floor']:.0f}x "
        f"budget: {scenario['delta_speedup_within_budget']})"
    )
    print(
        f"  byte-identity matrix ({len(scenario['combinations'])} combinations): "
        f"{scenario['append_byte_identical']}"
    )
    print(
        f"  sketch state format 2 round trip: {scenario['sketch_state_round_trip_identical']}; "
        f"format-1 bundle append: {scenario['format1_bundle_append_identical']}; "
        f"sketches file {scenario['sketches_bytes'] / 1024:.0f} KiB"
    )
    print(
        f"  incremental re-audit reuse: {scenario['audit_reuse_fraction']:.0%} "
        f"(>=90% budget: {scenario['audit_reuse_within_budget']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
