"""Benchmark for the fast CSV codec against the csv-module reference path.

Measures the three layers PR 10 added — block decode, block encode and the
streamed end-to-end release — with the ``codec="python"`` reference path as
both the timing baseline and the byte-identity oracle, and *merges* the
results into the ``BENCH_perf.json`` report (``BENCH_perf_quick.json`` in
``--quick`` mode) written by ``bench_perf_hotpaths.py`` so the CI regression
gate covers the I/O layer alongside the compute kernels:

* ``decode`` — ``iter_matrix_csv`` fast vs. python over the same file;
  chunks cross-checked bitwise (``decode_bitwise_identical`` gates).
* ``encode`` — ``MatrixCsvWriter`` fast vs. python writing the same array;
  outputs cross-checked (``encode_byte_identical`` gates).  The fast write
  is repeated pinned to one CPU; ``encode_workers`` records how many
  processes encoded each block unpinned and ``encode_parallel_byte_identical``
  gates that the forked fan-out wrote the same bytes as the one-CPU run.
* ``end_to_end`` — a full streamed release through
  ``StreamingReleasePipeline`` under each codec; released CSVs
  cross-checked (``codec_byte_identical`` gates) and the speedup sits
  under the CI >30% regression gate.  Full mode runs the 500k-row release
  the acceptance criterion names.

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_csv_codec.py            # full
    PYTHONPATH=src python benchmarks/bench_csv_codec.py --quick    # CI smoke

Headline acceptance number (full mode): the 500k-row streamed release
under the default fast codec lands in ~5.5s where the committed pre-codec
``streaming_release.large_scale`` record was ~17.9s (>=3x end-to-end),
byte-identical output.  The same-run fast-vs-python ratio recorded here is
smaller (~1.6-2.4x) because the python comparator inherits the shared
compute improvements; see the CSV-codec section of docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # allow `python benchmarks/bench_csv_codec.py` from anywhere
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_perf_hotpaths import best_time, ratio

from repro.core import RBT
from repro.data.io import MatrixCsvWriter, iter_matrix_csv
from repro.perf.csv_codec import _encode_workers
from repro.pipeline import StreamingReleasePipeline

N_ATTRIBUTES = 4
COLUMNS = [f"x{i}" for i in range(N_ATTRIBUTES)]


def generate_csv(path: Path, n_rows: int, *, seed: int = 0, block: int = 50_000) -> None:
    """Write a synthetic confidential CSV without materializing it."""
    rng = np.random.default_rng(seed)
    with MatrixCsvWriter(path, COLUMNS, include_ids=True) as writer:
        start = 0
        while start < n_rows:
            rows = min(block, n_rows - start)
            values = rng.normal(size=(rows, N_ATTRIBUTES)) * [3.0, 1.0, 10.0, 0.5] + [
                50.0,
                0.0,
                -20.0,
                1.0,
            ]
            writer.write_rows(values, ids=[f"row-{start + i}" for i in range(rows)])
            start += rows


def _drain(path: Path, codec: str, chunk_rows: int):
    chunks = []
    for chunk in iter_matrix_csv(path, chunk_rows=chunk_rows, codec=codec):
        chunks.append((chunk.values, chunk.ids))
    return chunks


def bench_decode(workdir: Path, quick: bool) -> dict:
    n_rows = 20_000 if quick else 500_000
    chunk_rows = 4096
    path = workdir / "decode_input.csv"
    generate_csv(path, n_rows, seed=1)

    fast_seconds, fast_chunks = best_time(lambda: _drain(path, "fast", chunk_rows), repeats=2)
    python_seconds, python_chunks = best_time(
        lambda: _drain(path, "python", chunk_rows), repeats=2
    )
    identical = len(fast_chunks) == len(python_chunks) and all(
        a_ids == b_ids and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for (a, a_ids), (b, b_ids) in zip(fast_chunks, python_chunks)
    )
    assert identical, "fast decode diverged from the csv.reader oracle"
    return {
        "n_rows": n_rows,
        "n_attributes": N_ATTRIBUTES,
        "chunk_rows": chunk_rows,
        "csv_bytes": path.stat().st_size,
        "fast_seconds": fast_seconds,
        "python_seconds": python_seconds,
        "speedup": ratio(python_seconds, fast_seconds),
        "decode_bitwise_identical": bool(identical),
    }


def bench_encode(workdir: Path, quick: bool) -> dict:
    n_rows = 20_000 if quick else 500_000
    rng = np.random.default_rng(2)
    values = rng.normal(size=(n_rows, N_ATTRIBUTES)) * 17.0
    ids = [f"row-{i}" for i in range(n_rows)]

    def write(codec: str, label: str = "") -> Path:
        path = workdir / f"encode_{codec}{label}.csv"
        with MatrixCsvWriter(path, COLUMNS, include_ids=True, codec=codec) as writer:
            for start in range(0, n_rows, 50_000):
                writer.write_rows(
                    values[start : start + 50_000], ids=ids[start : start + 50_000]
                )
        return path

    fast_seconds, fast_path = best_time(lambda: write("fast"), repeats=2)
    python_seconds, python_path = best_time(lambda: write("python"), repeats=2)
    identical = fast_path.read_bytes() == python_path.read_bytes()
    assert identical, "fast encode diverged from the csv.writer oracle"

    # The same array once more with the process pinned to one CPU, which
    # keeps every block serial: the forked fan-out must not change a byte.
    workers = _encode_workers(min(n_rows, 50_000))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, [min(cpus)])
    try:
        pinned_bytes = write("fast", "_pinned").read_bytes()
    finally:
        os.sched_setaffinity(0, cpus)
    parallel_identical = pinned_bytes == fast_path.read_bytes()
    assert parallel_identical, "forked encode diverged from the one-CPU encode"
    return {
        "n_rows": n_rows,
        "n_attributes": N_ATTRIBUTES,
        "fast_seconds": fast_seconds,
        "python_seconds": python_seconds,
        "speedup": ratio(python_seconds, fast_seconds),
        "encode_byte_identical": bool(identical),
        "encode_workers": workers,
        "encode_parallel_byte_identical": bool(parallel_identical),
    }


def bench_end_to_end(workdir: Path, quick: bool) -> dict:
    n_rows = 8_000 if quick else 500_000
    budget = (2**20 // 2) if quick else 192 * 2**20
    input_path = workdir / "release_input.csv"
    generate_csv(input_path, n_rows, seed=3)

    outputs = {}
    seconds = {}
    for codec in ("fast", "python"):
        output = workdir / f"released_{codec}.csv"
        pipeline = StreamingReleasePipeline(
            RBT(random_state=9), memory_budget_bytes=budget, codec=codec
        )
        seconds[codec], _ = best_time(lambda: pipeline.run(input_path, output), repeats=2)
        outputs[codec] = output
    identical = outputs["fast"].read_bytes() == outputs["python"].read_bytes()
    assert identical, "released bytes diverged between codecs"
    return {
        "n_rows": n_rows,
        "n_attributes": N_ATTRIBUTES,
        "memory_budget_bytes": budget,
        "fast_seconds": seconds["fast"],
        "python_seconds": seconds["python"],
        "speedup": ratio(seconds["python"], seconds["fast"]),
        "codec_byte_identical": bool(identical),
    }


def run(quick: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_csv_codec_") as tmp:
        workdir = Path(tmp)
        results: dict = {}
        print("[bench] csv_codec decode ...", flush=True)
        results["decode"] = bench_decode(workdir, quick)
        print("[bench] csv_codec encode ...", flush=True)
        results["encode"] = bench_encode(workdir, quick)
        print("[bench] csv_codec end_to_end ...", flush=True)
        results["end_to_end"] = bench_end_to_end(workdir, quick)
    return {"csv_codec": results}


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

    print(f"\nmerged csv-codec results into {output}")
    scenario = report["hot_paths"]["csv_codec"]
    for name in ("decode", "encode", "end_to_end"):
        entry = scenario[name]
        print(
            f"  {name} m={entry['n_rows']}: fast {entry['fast_seconds']:.2f}s vs "
            f"python {entry['python_seconds']:.2f}s ({entry['speedup']:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
