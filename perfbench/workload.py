"""Run one benchmark workload in a fresh interpreter.

The commands are the ones a data owner types, issued in-process through
``repro.cli.main(argv)`` with default flags: a closed loop with one client,
each command issued after the previous one returns.  Every command's output
is checked against the reference files ``reference.py`` wrote before the
timed phase; a raised error, a non-zero exit or a wrong output counts the
command as failed.

Set-up, per fresh interpreter: ``import repro.cli`` plus one warm-up cycle of
the workload's commands on a tiny input, so lazy imports and first-call
costs land in set-up and not in the first timed sample (``append-feed`` then
runs ``release --init`` three times as well).

Every command records its raw time and a ``scale`` that takes it to the
reference machine speed (``calibration.py``): the calibration loop runs
after every command, except on ``append-feed``, whose appends are
short: it runs after each round's ten appends and after its verifies.

With ``--trace 1`` cycles alternate between untraced and traced; the
traced ones give the per-layer metrics and the untraced ones the
tracing-overhead baseline.  The spans go to ``spans.jsonl`` and the ranked
self-time table to ``layers.md`` in the work directory.

Usage, from the work directory ``run.py`` prepared::

    python3 perfbench/workload.py WORKLOAD --seed S --seconds T --trace 0|1 \\
        --rows N --result result.json [--probe]
"""

import time

_STARTED = time.perf_counter()
import repro.cli  # noqa: E402, I001 - this import is the measured set-up

IMPORT_S = time.perf_counter() - _STARTED

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
from calibration import calibrate, speed_scale  # noqa: E402


def _rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


RSS_IMPORT_MIB = _rss_mib()


def same_bytes(path, reference) -> bool:
    """Whether two files hold identical bytes (compared in 1 MiB blocks)."""
    with open(path, "rb") as left, open(reference, "rb") as right:
        while True:
            a, b = left.read(1 << 20), right.read(1 << 20)
            if a != b:
                return False
            if not a:
                return True


def flip_byte(path: Path) -> None:
    """Corrupt one byte in the middle of ``path`` (the self-test's fault)."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


class Runner:
    """Issues commands, times them, checks their outputs, keeps the records."""

    def __init__(self, recorder=None, corrupt_op: int | None = None) -> None:
        self.recorder = recorder
        self.corrupt_op = corrupt_op
        self.ops: list[dict] = []
        self._timed_ops = 0
        #: Every calibration sample, in order (see ``calibrate``).
        self.calibrations: list[float] = []
        self._scaled = 0

    def op(self, kind, argv, *, rows, check, outputs=(), cycle=None, traced=False) -> bool:
        """Run ``repro <argv>``; ``check(stdout)`` returns an error text or ``None``."""
        for output in outputs:
            Path(output).unlink(missing_ok=True)
        index = len(self.ops)
        if self.recorder is not None:
            self.recorder.op = f"{index}:{kind}"
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        started = time.perf_counter()
        span = self.recorder.span("cli") if traced else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
                status = repro.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raised error is a failed command
            status, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if cycle is not None:
            if self._timed_ops == self.corrupt_op:
                flip_byte(Path(outputs[0]))
            self._timed_ops += 1
        if error is None and status != 0:
            error = f"exit status {status}: {stderr.getvalue().strip()[-300:]}"
        if error is None:
            try:
                error = check(stdout.getvalue())
            except (OSError, ValueError, KeyError) as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        self.ops.append(
            {
                "kind": kind,
                "cycle": cycle,
                "traced": traced,
                "seconds": seconds,
                "rows": rows,
                "ok": error is None,
                "error": error,
            }
        )
        return error is None

    def calibrate(self) -> float:
        """Calibrate now; scale the commands since the last calibration.

        Their scale comes from this calibration and the one before it.
        """
        others = [thread.name for thread in threading.enumerate()
                  if thread is not threading.main_thread()]
        if others:
            raise RuntimeError(f"a command left threads running: {', '.join(others)}")
        gc.collect()
        seconds = calibrate()
        self.calibrations.append(seconds)
        scale = speed_scale(*self.calibrations[-2:])
        for op in self.ops[self._scaled:]:
            op["scale"] = scale
        self._scaled = len(self.ops)
        return seconds


def _expect_same(*pairs):
    def check(_stdout):
        for path, reference in pairs:
            if not same_bytes(path, reference):
                return f"{path} differs from {reference}"
        return None

    return check


def _exit_ok(_stdout):
    return None


# --------------------------------------------------------------------------- #
# Warm-up (part of set-up)
# --------------------------------------------------------------------------- #
def warm_up(workload: str, runner: Runner, seed: int) -> float:
    """One cycle of the workload's commands on the tiny ``warm/`` inputs."""
    warm = Path("warm")
    started = time.perf_counter()
    s = str(inputs.rbt_seed(seed))
    if workload == "append-feed":
        shutil.rmtree(warm / "bundle", ignore_errors=True)
        bundle = str(warm / "bundle")
        runner.op("warm:init", ["release", bundle, "--init", "warm/source.csv", "--seed", s],
                  rows=0, check=_exit_ok)
        runner.op("warm:append", ["release", bundle, "--append", "warm/delta.csv",
                                  "--expect-version", "1"], rows=0, check=_exit_ok)
        runner.op("warm:verify", ["release", bundle], rows=0, check=_exit_ok)
    else:
        if workload == "owner-release":
            runner.op("warm:transform", ["transform", "warm/source.csv", "warm/released.csv",
                                         "--seed", s, "--secret", "warm/secret.json",
                                         "--report", "warm/report.json"],
                      rows=0, check=_exit_ok)
        else:
            shards = [f"warm/shard{index}.csv" for index in range(inputs.N_SHARDS)]
            runner.op("warm:distributed", ["distributed", *shards, "warm/released.csv",
                                           "--seed", s, "--protocol-seed", "1",
                                           "--secret", "warm/secret.json",
                                           "--report", "warm/report.json"],
                      rows=0, check=_exit_ok)
        runner.op("warm:invert", ["invert", "warm/released.csv", "warm/restored.csv",
                                  "--secret", "warm/secret.json"], rows=0, check=_exit_ok)
        if workload == "owner-release":
            runner.op("warm:audit", ["audit", "warm/released.csv", "--original",
                                     "warm/restored.csv", "--threat-model", "full",
                                     "--no-cache", "--output-dir", "warm/audit_out"],
                      rows=0, check=_exit_ok)
    return time.perf_counter() - started


# --------------------------------------------------------------------------- #
# Timed cycles
# --------------------------------------------------------------------------- #
def owner_release_cycle(runner: Runner, seed: int, n_rows: int, **where) -> None:
    """transform, then invert of that release, then audit of the pair."""

    def report_matches(_stdout):
        produced = json.loads(Path("report.json").read_text(encoding="utf-8"))
        expected = json.loads(Path("ref_report.json").read_text(encoding="utf-8"))
        return None if produced == expected else "report.json differs from ref_report.json"

    def release_check(stdout):
        return _expect_same(
            ("released.csv", "ref_released.csv"), ("secret.json", "ref_secret.json")
        )(stdout) or report_matches(stdout)

    runner.op("transform", ["transform", "source.csv", "released.csv",
                            "--seed", str(inputs.rbt_seed(seed)),
                            "--secret", "secret.json", "--report", "report.json"],
              rows=n_rows, check=release_check,
              outputs=("released.csv", "secret.json", "report.json"), **where)
    runner.calibrate()
    runner.op("invert", ["invert", "released.csv", "restored.csv", "--secret", "secret.json"],
              rows=n_rows, check=_expect_same(("restored.csv", "ref_restored.csv")),
              outputs=("restored.csv",), **where)
    runner.calibrate()
    runner.op("audit", ["audit", "released.csv", "--original", "restored.csv",
                        "--threat-model", "full", "--no-cache"],
              rows=n_rows, check=_expect_same(("audit_out/full_audit.json", "ref_audit.json")),
              outputs=("audit_out/full_audit.json",), **where)
    runner.calibrate()


def append_feed_cycle(runner: Runner, seed: int, n_rows: int, **where) -> None:
    """One round: 10 appends onto a fresh copy of the v1 bundle, then 3 verifies.

    The fresh copy is the benchmark's own work: it runs outside any command,
    so a traced run does not count it as the program's copy.
    """
    shutil.rmtree("bundle", ignore_errors=True)
    shutil.copytree("init0", "bundle")
    manifest = Path("bundle") / "manifest.json"

    def current() -> dict:
        return json.loads(manifest.read_text(encoding="utf-8"))["current"]

    for k in range(inputs.APPENDS_PER_ROUND):
        expected_rows = n_rows + (k + 1) * inputs.DELTA_ROWS
        last = k == inputs.APPENDS_PER_ROUND - 1

        def check(_stdout, version=k + 2, expected_rows=expected_rows, last=last):
            state = current()
            if state["version"] != version or state["total_rows"] != expected_rows:
                return f"bundle at v{state['version']} with {state['total_rows']} rows"
            if last and not same_bytes(Path("bundle") / state["released_file"], "ref_final.csv"):
                return "final release differs from the reference replay of the feed"
            return None

        runner.op("append", ["release", "bundle", "--append", f"delta{k}.csv",
                             "--expect-version", str(k + 1)],
                  rows=inputs.DELTA_ROWS, check=check,
                  outputs=(Path("bundle") / f"released-v{k + 2:04d}.csv",), **where)
    runner.calibrate()

    def verified(stdout):
        return None if "artifacts verified" in stdout else "verify did not confirm the artifacts"

    total = n_rows + inputs.APPENDS_PER_ROUND * inputs.DELTA_ROWS
    # A verify takes about 15 ms; three per round give its median enough samples.
    for _ in range(3):
        runner.op("verify", ["release", "bundle"], rows=total, check=verified, **where)
    runner.calibrate()


def federated_cycle(runner: Runner, seed: int, n_rows: int, **where) -> None:
    """The 4-party release of the shards, then invert with its secret."""
    shards = [f"shard{index}.csv" for index in range(inputs.N_SHARDS)]
    runner.op("distributed", ["distributed", *shards, "fed_out.csv",
                              "--seed", str(inputs.rbt_seed(seed)),
                              "--protocol-seed", str(inputs.protocol_seed(seed)),
                              "--report", "fed_report.json", "--secret", "fed_secret.json"],
              rows=n_rows,
              check=_expect_same(("fed_out.csv", "ref_released.csv"),
                                 ("fed_secret.json", "ref_secret.json")),
              outputs=("fed_out.csv", "fed_secret.json", "fed_report.json"), **where)
    runner.calibrate()
    runner.op("invert", ["invert", "fed_out.csv", "fed_restored.csv",
                         "--secret", "fed_secret.json"],
              rows=n_rows, check=_expect_same(("fed_restored.csv", "ref_restored.csv")),
              outputs=("fed_restored.csv",), **where)
    runner.calibrate()


CYCLES = {
    "owner-release": owner_release_cycle,
    "append-feed": append_feed_cycle,
    "federated": federated_cycle,
}
WORKLOADS = tuple(CYCLES)


def init_bundles(runner: Runner, seed: int, n_rows: int) -> None:
    """``release --init`` three times (the append set-up), each one calibrated."""
    for index in range(3):
        shutil.rmtree(f"init{index}", ignore_errors=True)

        def check(_stdout, index=index):
            return _expect_same((Path(f"init{index}") / "released-v0001.csv", "ref_init.csv"))(None)

        runner.op("init", ["release", f"init{index}", "--init", "source.csv",
                           "--seed", str(inputs.rbt_seed(seed))],
                  rows=n_rows, check=check)
        runner.calibrate()


# --------------------------------------------------------------------------- #
# Per-layer metrics (traced runs)
# --------------------------------------------------------------------------- #
#: Span name -> per-layer metric reporting its self time per cycle.
SELF_TIME_METRICS = {
    "io.decode": "io.decode_s",
    "io.encode": "io.encode_s",
    "normalize.fit": "normalize.fit_s",
    "normalize.transform": "normalize.transform_s",
    "sketch.update": "sketch.update_s",
    "sketch.merge": "sketch.merge_s",
    "sketch.state": "sketch.state_s",
    "sketch.stats": "sketch.stats_s",
    "core.plan": "core.plan_s",
    "core.solve": "core.solve_s",
    "core.rotate": "core.rotate_s",
    "core.transform": "core.transform_s",
    "bundle.hash": "bundle.hash_s",
    "bundle.copy": "bundle.copy_s",
    "bundle.commit": "bundle.commit_s",
    "bundle.open": "bundle.open_s",
    "audit.fingerprint": "audit.fingerprint_s",
    "audit.attack": "audit.attack_s",
    "fed.aggregate": "fed.aggregate_s",
    "fed.protocol": "fed.protocol_s",
    "cli": "cli.self_s",
}
COUNTER_METRICS = {
    "io.decode_mb": "MB",
    "io.encode_mb": "MB",
    "codec.parse_passes": "count",
    "codec.replay_passes": "count",
    "sketch.update_rows": "rows",
    "bundle.hash_mb": "MB",
    "bundle.copy_mb": "MB",
    "backend.tasks": "count",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(recorder, ops: list[dict], workload: str, calibrations) -> tuple[dict, str]:
    """Per-layer metrics per traced cycle, and the ranked self-time table."""
    timed = [(index, op) for index, op in enumerate(ops) if op["cycle"] is not None]
    weights = {f"{index}:{op['kind']}": op["scale"] for index, op in timed if op["traced"]}
    n = max(len({op["cycle"] for _, op in timed if op["traced"]}), 1)
    self_seconds = recorder.self_times(weights)
    calls = recorder.call_counts(weights)

    metrics = {name: (self_seconds.get(span, 0.0) / n, "s")
               for span, name in SELF_TIME_METRICS.items()}
    for name, unit in COUNTER_METRICS.items():
        metrics[name] = (recorder.counters.get(name, 0.0) / n, unit)

    party = recorder.party_seconds(weights)
    party_max = max(party.values(), default=0.0)
    party_mean = statistics.mean(party.values()) if party else 0.0
    metrics["fed.party_s_max"] = (party_max / n, "s")
    metrics["fed.party_skew"] = (party_max / party_mean if party_mean else 0.0, "ratio")
    communication = {}
    if workload == "federated" and Path("fed_report.json").is_file():
        report = json.loads(Path("fed_report.json").read_text(encoding="utf-8"))
        communication = report["communication"]
    metrics["fed.messages"] = (float(communication.get("n_messages", 0)), "count")
    metrics["fed.mb_sent"] = (communication.get("n_bytes", 0) / 1e6, "MB")
    metrics["fed.rounds"] = (float(communication.get("rounds", 0)), "count")

    traced_wall = sum(op["seconds"] * op["scale"] for _, op in timed if op["traced"])
    attributed = sum(seconds for span, seconds in self_seconds.items() if span != "cli")
    metrics["trace.unattributed_share"] = (
        (traced_wall - attributed) / traced_wall if traced_wall else 0.0, "ratio")

    def cycle_seconds(traced):
        per_cycle: dict[int, float] = {}
        for _, op in timed:
            if op["traced"] == traced:
                seconds = op["seconds"] * op["scale"]
                per_cycle[op["cycle"]] = per_cycle.get(op["cycle"], 0.0) + seconds
        return list(per_cycle.values())

    untraced = _median(cycle_seconds(False))
    metrics["trace.overhead_share"] = (
        _median(cycle_seconds(True)) / untraced - 1 if untraced else 0.0, "ratio")
    metrics["rss.import_mib"] = (RSS_IMPORT_MIB, "MiB")
    metrics["calibration_ms"] = (1000 * _median(calibrations), "ms")

    from spans import ranked_table

    table = ranked_table(self_seconds, calls, n)
    return metrics, table


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="flip one byte of this timed command's output (self-test)")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    runner = Runner(recorder, args.corrupt_op)
    result = {"import_s": IMPORT_S, "warm_s": warm_up(args.workload, runner, args.seed)}
    calibrations = [runner.calibrate() for _ in range(3)]
    result["setup_scale"] = speed_scale(statistics.median(calibrations))
    if not args.probe:
        run_cycles(args, runner, recorder, result)
    result["ops"] = runner.ops
    args.result.write_text(json.dumps(result), encoding="utf-8")


def run_cycles(args, runner: Runner, recorder, result: dict) -> None:
    """The append set-up, then whole cycles until ``--seconds`` have passed."""
    if args.workload == "append-feed":
        init_bundles(runner, args.seed, args.rows)
    cycle_fn = CYCLES[args.workload]
    min_cycles = 10 if args.workload == "append-feed" else 1
    if args.trace:
        min_cycles = max(min_cycles, 2)
    started = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and cycle % 2 == 1
        if traced:
            recorder.install()
        try:
            cycle_fn(runner, args.seed, args.rows, cycle=cycle, traced=traced)
        finally:
            if traced:
                recorder.uninstall()
        cycle += 1
    result["calibration_s"] = runner.calibrations
    result["timed_s"] = time.perf_counter() - started
    result["cycles"] = cycle
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        metrics, table = layer_metrics(recorder, runner.ops, args.workload, runner.calibrations)
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}
        result["layer_table"] = table
        recorder.write_jsonl(Path("spans.jsonl"))
        Path("layers.md").write_text(
            f"# Per-layer self time: {args.workload}, seed {args.seed}\n\n" + table + "\n",
            encoding="utf-8")

    result["ops"] = runner.ops
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
