"""tradesync benchmark: build a seeded synthetic market with `tradesync synth`,
run `tradesync report` on it as a user would, check the outputs against
independent computations, and print the metrics.

    python3 bench/run.py --workload sparse_sync --seed 1 --seconds 10 --trace 0

Run it from the repository root. With --trace 0 it prints the end-to-end
metrics. With --trace 1 it then runs the same commands once more in-process
under bench/tracer.py and prints the per-layer metrics. `--workload all` runs
every workload that way and prints both sets. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Scratch files go to bench/_work/<workload>/, which each run clears first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_report, load_market  # noqa: E402
from layers import UNITS as LAYER_UNITS, layer_metrics  # noqa: E402
from markets import (WORKLOADS, Workload, merge_trades, report_command,  # noqa: E402
                     synth_command)

# One report at a time, two pool workers (the reference machine's core count)
# and single-threaded BLAS, so no run asks for more threads than cores.
WORKERS = "2"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# Set-up and report times are scaled to the speed at which the calibration
# kernel (bench/calibrate.py, run in one process per pool worker) takes this
# long.
CALIBRATION_PROCS = 2
REFERENCE_CALIBRATION_S = 0.58
PROCESS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "report_s": "s", "report_cpu_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Proc:
    """One finished child process: exit code, wall time, CPU of the whole
    process tree, peak RSS of its largest process, and its stderr."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def child_env(root: Path, workers: str) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TRADESYNC_WORKERS"] = workers
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_measured(cmd: list[str], env: dict, log: Path) -> Proc:
    """Run cmd to completion and take its resource usage from wait4, which
    covers the process and every descendant it waited for (the pool workers).
    The process gets its own session so a timeout can stop its workers too."""
    err_path = log.with_suffix(".err")
    with open(log, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(rc=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                stderr=err_path.read_text())


@dataclass(frozen=True)
class Speed:
    """One calibration: mean wall and CPU seconds of the kernel over the
    calibration processes, which run it at the same time."""

    wall_s: float
    cpu_s: float


class Calibrator:
    """CALIBRATION_PROCS bench/calibrate.py processes, kept for one run and
    asked to run their kernel together on each measure()."""

    def __init__(self, env: dict):
        self.procs: list[subprocess.Popen] = []
        try:
            for _ in range(CALIBRATION_PROCS):
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "calibrate.py")], env=env, text=True,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            self.measure()  # the first run of the kernel is slower; drop it
        except (OSError, BenchError):
            self.close()
            raise

    def measure(self) -> Speed:
        for p in self.procs:
            p.stdin.write("\n")
            p.stdin.flush()
        answers = [p.stdout.readline().split() for p in self.procs]
        if any(len(a) != 2 for a in answers):
            raise BenchError("a calibration process ended early")
        return Speed(wall_s=statistics.mean(float(a[0]) for a in answers),
                     cpu_s=statistics.mean(float(a[1]) for a in answers))

    def close(self) -> None:
        for p in self.procs:
            try:
                p.stdin.close()
            except OSError:
                pass
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def tradesync(*args: str) -> list[str]:
    return [sys.executable, "-m", "tradesync.cli", *args]


def traced(spans: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *args]


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(path)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass(frozen=True)
class Market:
    trades: str
    quotes: list[str]
    truths: list[str]


def build_market(w, seed: int, market_dir: Path, logs: Path, env: dict,
                 spans_dir: Path | None = None) -> Market:
    """Generate every asset with `tradesync synth`, then merge the trades
    files. With spans_dir, synth runs under the tracer."""
    dirs = []
    for asset in w.assets:
        d = market_dir / asset.ticker
        args = synth_command(asset, seed, str(d))
        cmd = tradesync(*args) if spans_dir is None else \
            traced(spans_dir / f"synth_{asset.ticker}.json", *args)
        proc = run_measured(cmd, env, logs / f"synth_{asset.ticker}.log")
        if proc.rc != 0:
            raise BenchError(f"synth {asset.ticker} failed: {proc.stderr.strip()}")
        dirs.append(d)
    trades = market_dir / "trades.csv"
    merge_trades(w, [str(d) for d in dirs], str(trades))
    return Market(trades=str(trades),
                  quotes=[str(d / "quotes.csv") for d in dirs],
                  truths=[str(d / "truth.json") for d in dirs])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def add(self, results, label: str) -> None:
        for r in results:
            self.attempted += 1
            if not r.ok:
                self.failed += 1
                self.correct = self.correct and r.known_fault
                known = " (known fault)" if r.known_fault else ""
                print(f"{label}: {r.name} failed{known}: {r.detail}", file=sys.stderr)

    def flag(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            print(f"check failed: {what}", file=sys.stderr)


def merge_spans(files) -> list[dict]:
    """Concatenate the spans of several traced processes, shifting each
    file's parent indices by the spans that precede it."""
    spans: list[dict] = []
    for f in files:
        offset = len(spans)
        for s in json.loads(Path(f).read_text())["spans"]:
            parent = s["parent"]
            spans.append({**s, "parent": None if parent is None else parent + offset})
    return spans


def calibrated(times: list[float], speeds: list[float]) -> list[float]:
    """Scale times[i] by REFERENCE_CALIBRATION_S over the mean of the
    calibrations just before and just after it (speeds[i] and speeds[i + 1]):
    the time it would take at the reference speed. A slow phase of a shared
    host slows the kernel as well, and so cancels out."""
    return [t * REFERENCE_CALIBRATION_S * 2 / (a + b)
            for t, a, b in zip(times, speeds, speeds[1:])]


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 workers: str = WORKERS) -> dict:
    """Set the market up SETUP_REPEATS times, then run whole rounds of
    report + checks for about `seconds`; with trace, add one traced set-up
    and one traced round. The calibration kernel runs before the first
    set-up, after each set-up, before the first round and after each round.
    Returns the metrics and operation tally."""
    env = child_env(root, workers)
    with Calibrator(env) as calibrator:
        return _run_workload(WORKLOADS[name], seed, seconds, trace, env, calibrator)


def _run_workload(w: Workload, seed: int, seconds: float, trace: bool, env: dict,
                  calibrator: Calibrator) -> dict:
    name = w.name
    work = HERE / "_work" / name
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    tally = Tally()

    setup_times, markets, setup_speeds = [], [], [calibrator.measure()]
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        markets.append(build_market(w, seed, work / f"market{k}", logs, env))
        setup_times.append(time.perf_counter() - start)
        setup_speeds.append(calibrator.measure())
    market = markets[0]
    digest = tree_digest(work / "market0")
    tally.flag(all(tree_digest(work / f"market{k}") == digest for k in range(SETUP_REPEATS)),
               "set-up gave different files for one seed")
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"market{k}")

    models = load_market(w, market.trades, market.quotes, market.truths)
    min_ops = min(m.min_ops_for(w.node_target) for m in models.values())

    def report_round(cmd_of, out: Path, label: str) -> Proc:
        shutil.rmtree(out, ignore_errors=True)
        args = report_command(w, market.trades, market.quotes, min_ops, seed, str(out))
        proc = run_measured(cmd_of(*args), env, logs / f"{label}.log")
        tally.add(check_report(w, models, min_ops, str(out), proc.stderr), label)
        return proc

    # A round starts only if it should end within `seconds`, judged by the
    # longest round so far, so a run lasts about `seconds` whatever the round
    # length. The first round always runs.
    out = work / "out"
    rounds, outputs, longest = [], set(), 0.0
    speeds = [calibrator.measure()]
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        rounds.append(report_round(tradesync, out, f"report{len(rounds)}"))
        outputs.add(tree_digest(out))
        speeds.append(calibrator.measure())
        longest = max(longest, time.perf_counter() - round_start)
    tally.flag(len(outputs) == 1, "report output differs between rounds")

    walls = [p.wall_s for p in rounds]
    cpus = [p.cpu_s for p in rounds]
    result = {
        "rounds": len(rounds), "min_ops": min_ops,
        "setup_walls_s": setup_times,
        "setup_calibration_walls_s": [c.wall_s for c in setup_speeds],
        "report_walls_s": walls,
        "report_cpus_s": cpus,
        "calibration_walls_s": [c.wall_s for c in speeds],
        "calibration_cpus_s": [c.cpu_s for c in speeds],
        "setup_raw_s": statistics.median(setup_times),
        "report_raw_s": statistics.median(walls),
        "report_cpu_raw_s": statistics.median(cpus),
        "end_to_end": {
            "setup_s": statistics.median(
                calibrated(setup_times, [c.wall_s for c in setup_speeds])),
            "report_s": statistics.median(calibrated(walls, [c.wall_s for c in speeds])),
            "report_cpu_s": statistics.median(calibrated(cpus, [c.cpu_s for c in speeds])),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in rounds),
        },
    }
    if trace:
        spans_dir = work / "trace"
        spans_dir.mkdir()
        build_market(w, seed, work / "traced_market", logs, env, spans_dir)
        tally.flag(tree_digest(work / "traced_market") == digest,
                   "traced synth output differs from the untraced one")
        out_traced = work / "out_traced"
        proc = report_round(lambda *a: traced(spans_dir / "report.json", *a),
                            out_traced, "report_traced")
        tally.flag(tree_digest(out_traced) == tree_digest(out),
                   "traced report output differs from the untraced one")
        layers = layer_metrics(merge_spans(sorted(spans_dir.glob("*.json"))))
        layers["cli.output_bytes"] = tree_bytes(out)
        layers["trace.overhead_s"] = proc.wall_s - result["report_raw_s"]
        result["per_layer"] = {k: layers[k] for k in LAYER_UNITS}
    result.update(correct=tally.correct, attempted=tally.attempted, failed=tally.failed)
    with open(work / "result.json", "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    return result


def _print_metrics(prefix: str, values: dict, units: dict) -> None:
    for k, v in values.items():
        print(f"{prefix}{k} = {v!r} {units[k]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tradesync benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tradesync" / "cli.py").is_file():
        print("bench: src/tradesync not found; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, trace, root)
        except (BenchError, OSError, ValueError, RuntimeError) as err:
            print(f"bench: {name}: {err}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"{name}: seed {args.seed}, {res['rounds']} round(s), "
              f"--min-ops {res['min_ops']}, {res['attempted']} operations, "
              f"{res['failed']} failed, correct={res['correct']}; unscaled set-up "
              f"{res['setup_raw_s']:.3f} s, report "
              f"{res['report_raw_s']:.3f} s wall, {res['report_cpu_raw_s']:.3f} s CPU; "
              f"calibration {statistics.median(res['calibration_walls_s']):.3f} s")
        _print_metrics(prefix, res["end_to_end"], END_TO_END_UNITS)
        if trace:
            _print_metrics(prefix, res["per_layer"], LAYER_UNITS)
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        if args.workload == "all":
            shown = ("end_to_end", "per_layer")
        else:
            shown = ("per_layer",) if trace else ("end_to_end",)
        units = {"end_to_end": END_TO_END_UNITS, "per_layer": LAYER_UNITS}
        for key in shown:
            for k, v in res[key].items():
                summary["metrics"][prefix + k] = {"value": v, "unit": units[key][k]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
