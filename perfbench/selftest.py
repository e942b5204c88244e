"""The benchmark's own tests, at a tiny scale.

Run from the root of a checkout (about a minute)::

    python3 -m pytest perfbench/selftest.py -q

Every workload must finish with no failed command, print every metric
``BENCHMARK.json`` names, and count a corrupted output as a failed command.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--rows", "3000"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def result_of(*args: str) -> dict:
    completed = run_bench(*args)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_and_prints_every_end_to_end_metric(workload):
    result = result_of("--workload", workload, "--trace", "0", *TINY)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["value"] > 0
    assert metrics["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_writes_spans(workload):
    result = result_of("--workload", workload, "--trace", "1", *TINY)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in BENCH["per_layer"]}
    for metric in BENCH["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert 0 <= metrics["trace.unattributed_share"]["value"] < 1
    assert metrics["io.decode_s"]["value"] > 0 and metrics["cli.self_s"]["value"] > 0
    spans = (ROOT / ".perfbench" / "trace" / f"{workload}.spans.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert {"id", "name", "start", "end", "parent", "op"} <= set(first)
    assert (ROOT / ".perfbench" / "trace" / f"{workload}.layers.md").is_file()


def test_layer_metrics_land_on_the_workloads_that_exercise_them():
    append = result_of("--workload", "append-feed", "--trace", "1", *TINY)["metrics"]
    assert append["bundle.hash_mb"]["value"] > 0 and append["bundle.copy_mb"]["value"] > 0
    assert append["audit.attack_s"]["value"] == 0 and append["fed.messages"]["value"] == 0
    federated = result_of("--workload", "federated", "--trace", "1", *TINY)["metrics"]
    assert federated["fed.messages"]["value"] > 0 and federated["fed.rounds"]["value"] > 0
    assert federated["bundle.hash_s"]["value"] == 0


def test_only_copies_made_inside_a_command_count_as_the_programs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from spans import SpanRecorder

    source = tmp_path / "source.bin"
    source.write_bytes(b"x" * 1_000_000)
    recorder = SpanRecorder()
    recorder.install()
    try:
        shutil.copytree(tmp_path, tmp_path.parent / f"{tmp_path.name}-copy")
        assert recorder.counters["bundle.copy_mb"] == 0 and not recorder.spans
        with recorder.span("cli"):
            shutil.copyfile(source, tmp_path / "released.bin")
    finally:
        recorder.uninstall()
    assert recorder.counters["bundle.copy_mb"] == 1.0
    assert [span[0] for span in recorder.spans] == ["cli", "bundle.copy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_flipped_output_byte_counts_as_a_failed_command(workload):
    result = result_of("--workload", workload, "--trace", "0", "--corrupt-op", "0", *TINY)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_inputs_are_a_function_of_the_seed(tmp_path):
    inputs.write_source(tmp_path / "a.csv", 5, 100)
    inputs.write_source(tmp_path / "b.csv", 5, 100)
    inputs.write_source(tmp_path / "c.csv", 6, 100)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()
    assert (tmp_path / "a.csv").read_text().splitlines()[0] == "id,x0,x1,x2,x3"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", WORKLOADS[0], "--trace", "0", *TINY, cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
