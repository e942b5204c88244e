"""Steadiness report: repeated benchmark runs against each metric's bound.

Runs ``perfbench/run.py`` once per seed for each workload (untraced), then
reports each end-to-end metric's median and quartiles and its spread: the
distance between the first and third quartile as a share of the median,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them.  A spread
must stay within the metric's ``bound`` from ``BENCHMARK.json``; the
benchmark aims for a third of it.  The exit status is 1 if a spread is
beyond its bound or an output was wrong.

Usage, from the root of a checkout (``perfbench/STEADINESS.md`` was made
with the seeds it names)::

    python3 perfbench/steadiness.py --first-seed 1 --seeds 10 [--markdown FILE]

Runs take ``run_seconds`` each plus set-up, so ten seeds on three workloads
take about twenty minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def spread_rows(bench: dict, runs: dict[str, list[dict]]) -> list[dict]:
    rows = []
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for result in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "n": len(values),
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
                "steady": spread <= metric["bound"] / 3,
                "within_bound": spread <= metric["bound"],
                "all_correct": all(result["correct"] for result in results),
            })
    return rows


def markdown(rows: list[dict], seeds: list[int], runs: dict[str, list[dict]]) -> str:
    lines = [
        "# Steadiness report",
        "",
        "Spread = (Q3 - Q1) / median over one untraced run per seed; times are scaled",
        "to the reference machine speed (see README.md).  Made with:",
        "",
        "    python3 perfbench/steadiness.py --first-seed "
        f"{seeds[0]} --seeds {len(seeds)} --markdown perfbench/STEADINESS.md",
        "",
        "| Workload | Metric | Unit | Median | Q1 | Q3 | Spread | Bound | Spread <= bound/3 |",
        "|:---|:---|:---|---:|---:|---:|---:|---:|:---|",
    ]
    for row in rows:
        verdict = "yes" if row["steady"] else ("within bound" if row["within_bound"] else "NO")
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} | {row['median']:.6g} | "
            f"{row['q1']:.6g} | {row['q3']:.6g} | {row['spread']:.4f} | {row['bound']} | "
            f"{verdict} |"
        )
    lines.append("")
    lines.append(f"Seeds: {', '.join(map(str, seeds))}; one untraced run per seed and workload.")
    lines.append("")
    for workload, results in runs.items():
        walls = [result["wall_s"] for result in results]
        lines.append(
            f"- {workload}: wall time per run {statistics.median(walls):.1f} s median, "
            f"{max(walls):.1f} s max; all outputs correct: "
            f"{all(result['correct'] for result in results)}"
        )
    loose = [f"`{row['metric']}` on `{row['workload']}`"
             for row in rows if row["within_bound"] and not row["steady"]]
    if loose:
        lines += ["", f"Within the bound but above a third of it: {', '.join(loose)}."]
    lines += [
        "",
        "Demoted from end-to-end to per-layer, because the `BENCHMARK.json` format needs",
        "every end-to-end metric on every workload: `append_p90_ms` (`cmd.append_p90_ms`;",
        "its ten-samples-beyond rule holds only on `append-feed`), `verify_p50_ms`",
        "(`cmd.verify_p50_ms`; its end-to-end form is `read_rows_per_s` on `append-feed`),",
        "and the other per-command figures (`cmd.*`).  None was dropped for unsteadiness.",
    ]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--markdown", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_once(name, seed, bench["run_seconds"]))
            print(f"{name} seed {seed}: {json.dumps(runs[name][-1])}", flush=True)
    rows = spread_rows(bench, runs)
    table = markdown(rows, seeds, runs)
    print(table)
    if args.markdown is not None:
        args.markdown.write_text(table, encoding="utf-8")
    return 0 if all(row["within_bound"] and row["all_correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
