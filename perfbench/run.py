"""The benchmark's one command: run a workload and print every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload owner-release --seed 1 --seconds 15 --trace 0

It generates the workload's inputs from ``--seed`` (``inputs.py``), computes
the reference outputs in a separate interpreter (``reference.py``), takes
two extra set-up samples in fresh interpreters, then runs the workload in a
fresh interpreter (``workload.py``) with ``REPRO_BACKEND`` and
``REPRO_KERNEL_WORKERS`` removed from its environment, so the program's
defaults are what gets measured.  Every file it writes stays under
``.perfbench/`` in the checkout; the inputs are deleted at the end and the
traced run's span file and layer table are kept in ``.perfbench/trace/``.
``.perfbench/results/`` keeps each run's metrics next to the same figures
before scaling to the reference machine speed, and the raw calibrations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from calibration import REFERENCE_CALIBRATION_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("owner-release", "append-feed", "federated")

#: The command that writes each workload's release, and the commands that
#: read a release back; the end-to-end metrics are defined over these roles.
RELEASE_KIND = {"owner-release": "transform", "append-feed": "append", "federated": "distributed"}
READ_KINDS = {
    "owner-release": ("invert", "audit"),
    "append-feed": ("verify",),
    "federated": ("invert",),
}
#: Fresh interpreters that time set-up only; the workload process is one more.
SETUP_PROBES = 2
#: The whole run must end within 180 s; the workload process gets what is left.
RUN_DEADLINE_S = 170.0


def prepare_inputs(work: Path, workload: str, seed: int, n_rows: int) -> None:
    inputs.write_source(work / "source.csv", seed, n_rows)
    inputs.write_warm_inputs(work / "warm", seed)
    if workload == "append-feed":
        deltas = [work / f"delta{k}.csv" for k in range(inputs.APPENDS_PER_ROUND)]
        for k, delta in enumerate(deltas):
            inputs.write_delta(delta, seed, k)
        inputs.write_feed(work / "feed.csv", work / "source.csv", deltas)


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_KERNEL_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_python(script: str, argv: list[str], *, work: Path, env: dict, deadline: float) -> None:
    """Run ``perfbench/<script>`` in a fresh interpreter; raise on failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left to run {script}")
    completed = subprocess.run(
        [sys.executable, str(HERE / script), *argv],
        cwd=work,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{script} {' '.join(argv)} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _seconds(op: dict, scaled: bool) -> float:
    return op["seconds"] * op["scale"] if scaled else op["seconds"]


def kind_seconds(ops: list[dict], kind: str, scaled: bool = True) -> list[float]:
    """Times of the successful commands of one kind."""
    return [_seconds(op, scaled) for op in ops if op["kind"] == kind and op["ok"]]


def kind_rows(ops: list[dict], kind: str) -> int:
    """Rows one command of this kind handles."""
    return next((op["rows"] for op in ops if op["kind"] == kind), 0)


def rows_per_s(ops: list[dict], kinds, scaled: bool = True) -> float:
    """Σ rows / Σ median time over the command kinds."""
    seconds = sum(_median(kind_seconds(ops, kind, scaled)) for kind in kinds)
    return sum(kind_rows(ops, kind) for kind in kinds) / seconds if seconds else 0.0


def untraced_ops(result: dict) -> list[dict]:
    """The timed commands that ran without the span recorder."""
    return [op for op in result["ops"] if op["cycle"] is not None and not op["traced"]]


def op_counts(result: dict, probes: list[dict]) -> tuple[int, int]:
    """Commands attempted and failed, set-up samples included."""
    ops = [op for sample in [result, *probes] for op in sample["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def end_to_end(workload: str, result: dict, probes: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics from the workload's command records."""
    timed = untraced_ops(result)
    release = _median(kind_seconds(timed, RELEASE_KIND[workload], scaled))
    setup = _median([(sample["import_s"] + sample["warm_s"])
                     * (sample["setup_scale"] if scaled else 1.0)
                     for sample in [result, *probes]])
    if workload == "append-feed":
        setup += _median(kind_seconds(result["ops"], "init", scaled))
    attempted, failed = op_counts(result, probes)
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "release_rows_per_s": (rows_per_s(timed, [RELEASE_KIND[workload]], scaled), "rows/s"),
        "release_p50_ms": (1000 * release, "ms"),
        "read_rows_per_s": (rows_per_s(timed, READ_KINDS[workload], scaled), "rows/s"),
    }


def command_metrics(result: dict, scaled: bool = True) -> dict:
    """Per-command figures from the untraced timed commands of a traced run."""
    untraced = untraced_ops(result)
    appends = kind_seconds(untraced, "append", scaled)
    append_p90 = statistics.quantiles(appends, n=10)[-1] if len(appends) > 1 else 0.0
    return {
        f"cmd.{kind}_rows_per_s": (rows_per_s(untraced, [kind], scaled), "rows/s")
        for kind in ("transform", "invert", "audit", "distributed")
    } | {
        "cmd.append_p50_ms": (1000 * _median(appends), "ms"),
        "cmd.append_p90_ms": (1000 * append_p90, "ms"),
        "cmd.verify_p50_ms": (1000 * _median(kind_seconds(untraced, "verify", scaled)), "ms"),
    }


def as_metrics(figures: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def summary_lines(workload: str, result: dict) -> list[str]:
    """Human-readable sample counts and latencies per command kind."""
    timed = [op for op in result["ops"] if op["cycle"] is not None]
    lines = [
        f"{workload}: {result['cycles']} cycle(s) in {result['timed_s']:.1f} s, "
        f"{len(timed)} timed command(s), one closed-loop client; calibration "
        f"{1000 * statistics.median(result['calibration_s']):.1f} ms median "
        f"(reference {1000 * REFERENCE_CALIBRATION_S:.0f} ms)"
    ]
    for kind in dict.fromkeys(op["kind"] for op in timed):
        seconds = kind_seconds(timed, kind, scaled=False)
        failed = sum(not op["ok"] for op in timed if op["kind"] == kind)
        if not seconds:
            lines.append(f"  {kind:<12} n=0 failed={failed}")
            continue
        scaled = kind_seconds(timed, kind)
        p90 = statistics.quantiles(seconds, n=10)[-1] if len(seconds) > 1 else seconds[0]
        lines.append(
            f"  {kind:<12} n={len(seconds):<4} failed={failed} "
            f"p50={1000 * statistics.median(seconds):.1f} ms p90={1000 * p90:.1f} ms "
            f"(p50 at reference speed {1000 * statistics.median(scaled):.1f} ms)"
        )
    for op in result["ops"]:
        if not op["ok"]:
            lines.append(f"  failed {op['kind']} (cycle {op['cycle']}): {op['error']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Hooks for the self-test: a smaller source, and a corrupted output.
    parser.add_argument("--rows", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-op", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rows is None:
        args.rows = inputs.SOURCE_ROWS[args.workload]

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} holds no repro sources (src/repro/cli.py)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    phases: dict[str, float] = {}
    last = time.monotonic()

    def lap(name: str) -> None:
        nonlocal last
        now = time.monotonic()
        phases[name], last = now - last, now

    try:
        prepare_inputs(work, args.workload, args.seed, args.rows)
        env = child_env(root, work)
        lap("inputs")
        run_python("reference.py", [args.workload, str(args.seed)],
                   work=work, env=env, deadline=deadline)
        lap("reference")
        common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--rows", str(args.rows)]
        probes = []
        for index in range(SETUP_PROBES):
            path = work / f"probe{index}.json"
            run_python("workload.py", [*common, "--probe", "--result", str(path)],
                       work=work, env=env, deadline=deadline)
            probes.append(json.loads(path.read_text(encoding="utf-8")))
        lap("set-up probes")
        extra = ["--trace", str(args.trace), "--result", str(work / "result.json")]
        if args.corrupt_op is not None:
            extra += ["--corrupt-op", str(args.corrupt_op)]
        run_python("workload.py", [*common, *extra], work=work, env=env, deadline=deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            trace = root / ".perfbench" / "trace"
            trace.mkdir(exist_ok=True)
            for name in ("spans.jsonl", "layers.md"):
                shutil.move(work / name, trace / f"{args.workload}.{name}")
        lap("workload process")
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in summary_lines(args.workload, result):
        print(line)
    print("wall time: " + ", ".join(f"{name} {seconds:.1f} s" for name, seconds in phases.items()))
    attempted, failed = op_counts(result, probes)
    if args.trace:
        print(result["layer_table"])
        metrics = {**result["layers"], **as_metrics(command_metrics(result))}
        unscaled = as_metrics(command_metrics(result, scaled=False))
    else:
        metrics = as_metrics(end_to_end(args.workload, result, probes))
        unscaled = as_metrics(end_to_end(args.workload, result, probes, scaled=False))
    print("before scaling to the reference speed: " + ", ".join(
        f"{name} {figure['value']:.6g} {figure['unit']}" for name, figure in unscaled.items()))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = root / ".perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            **line,
            "unscaled": unscaled,
            "calibration_s": result["calibration_s"],
            "setup_samples": [
                {key: sample[key] for key in ("import_s", "warm_s", "setup_scale")}
                for sample in [result, *probes]
            ],
        }, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
