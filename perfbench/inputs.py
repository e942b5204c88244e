"""Seeded synthetic inputs for the benchmark workloads.

Every file is a pure function of the workload seed (and the row count), so
the same seed gives the same bytes on any machine.  The generator uses numpy
and Python's ``repr`` only; it never imports ``repro``, so the program under
test receives nothing but CSV text.

The source matrix has an ``id`` column and four attributes with the
per-column scales of ``benchmarks/bench_streaming_release.generate_csv``:
``N(50, 3)``, ``N(0, 1)``, ``N(-20, 10)`` and ``N(1, 0.5)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

COLUMNS = ("x0", "x1", "x2", "x3")
SCALES = (3.0, 1.0, 10.0, 0.5)
OFFSETS = (50.0, 0.0, -20.0, 1.0)

#: Rows of each workload's source matrix.
SOURCE_ROWS = {"owner-release": 50_000, "append-feed": 100_000, "federated": 50_000}
#: Rows in one ``append-feed`` delta.
DELTA_ROWS = 1_000
#: Appends per ``append-feed`` round; a verify follows each round.
APPENDS_PER_ROUND = 10
#: Horizontal shards of the ``federated`` workload.
N_SHARDS = 4

HEADER = "id," + ",".join(COLUMNS) + "\n"


def _block(seed: int, stream: int, n_rows: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    return rng.normal(size=(n_rows, len(COLUMNS))) * SCALES + OFFSETS


def _lines(values: np.ndarray, id_prefix: str) -> str:
    return "".join(
        f"{id_prefix}{index},{a!r},{b!r},{c!r},{d!r}\n"
        for index, (a, b, c, d) in enumerate(values.tolist())
    )


def write_source(path: Path, seed: int, n_rows: int) -> None:
    """The owner's confidential matrix: ``n_rows`` rows with ids ``row-<i>``."""
    path.write_text(HEADER + _lines(_block(seed, 0, n_rows), "row-"), encoding="ascii")


def write_delta(path: Path, seed: int, index: int) -> None:
    """The ``index``-th appended batch: ``DELTA_ROWS`` rows with ids ``feed<index>-<i>``."""
    values = _block(seed, 1 + index, DELTA_ROWS)
    path.write_text(HEADER + _lines(values, f"feed{index}-"), encoding="ascii")


def write_feed(path: Path, source: Path, deltas: list[Path]) -> None:
    """The concatenated feed: the source followed by every delta's rows."""
    with path.open("w", encoding="ascii", newline="") as handle:
        handle.write(source.read_text(encoding="ascii"))
        for delta in deltas:
            handle.write(delta.read_text(encoding="ascii").split("\n", 1)[1])


def write_warm_inputs(directory: Path, seed: int) -> None:
    """Tiny inputs for the set-up warm-up cycle: a source, a delta and shards."""
    directory.mkdir(parents=True, exist_ok=True)
    write_source(directory / "source.csv", seed, 64)
    write_delta(directory / "delta.csv", seed, 0)
    for index in range(N_SHARDS):
        values = _block(seed, 10_000 + index, 16)
        (directory / f"shard{index}.csv").write_text(
            HEADER + _lines(values, f"shard{index}-"), encoding="ascii"
        )


def rbt_seed(seed: int) -> int:
    """The ``--seed`` the commands receive (the rotation-angle draw)."""
    return 1000 + seed


def protocol_seed(seed: int) -> int:
    """The ``--protocol-seed`` of the federated release (secure-sum masks)."""
    return 2000 + seed
