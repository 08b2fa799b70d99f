"""perfbench entry point.

Driver contract (BENCHMARK.json), one workload per process, one JSON line::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Full run, all four workloads with interleaved rounds, every metric printed by
name with its unit (README.md)::

    PYTHONPATH=src python -m perfbench.run --seed N [--traced] [--quick]
        [--out FILE] [--append-history]
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    # A directory holding only the benchmark: there is no program to measure.
    sys.stderr.write(f"perfbench: the program under test is missing ({_SRC}/repro)\n")
    raise SystemExit(2)
for _path in (_SRC, _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from perfbench import layers, measure  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import OUT_DIR, WORKLOADS, WORKLOADS_BY_NAME, SpeedMeter  # noqa: E402

HISTORY_PATH = os.path.join(_HERE, "history.jsonl")
#: --quick: one 0.3 s round, one set-up, a token warm-up. Numbers from a
#: quick run only prove the plumbing; they are never compared or recorded.
QUICK_ROUND_SECONDS = 0.3
QUICK_WARMUP_OPS = 20
QUICK_TRACED_SECONDS = 0.4
#: Measuring budget of each workload's traced run in a full run.
FULL_TRACED_SECONDS = 10.0


def _metric_block(values: Dict[str, Tuple[float, str]]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _fail(problems: List[str]) -> int:
    for problem in problems:
        sys.stderr.write(f"perfbench: CHECK FAILED: {problem}\n")
    return 1


def _finish(run: measure.WorkloadRun, corrupt: bool = False) -> List[str]:
    """Output check, teardown, and the failed-operation count of one workload."""
    problems: List[str] = []
    try:
        if corrupt:
            # --corrupt-check: prove the check bites. One replica row is
            # edited behind the controller's back, through its engine session.
            session = run.cluster.env.replica_engines[0].open_session(run.cluster.env.database_name)
            session.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 0")
            session.close()
        problems.extend(run.cluster.verify())
    finally:
        problems.extend(run.cluster.close())
    if run.failed:
        problems.append(
            f"{run.spec.name}: {run.failed} of {run.attempted} operations failed: {run.errors[:3]}"
        )
    return problems


def _span_path(label: str, seed: int) -> str:
    return os.path.join(OUT_DIR, f"spans-{label}-seed{seed}.jsonl")


# -- the driver's contract: one workload, one result line ------------------------------------


def run_contract(args: argparse.Namespace) -> int:
    spec = WORKLOADS_BY_NAME[args.workload]
    if args.trace:
        recorder = SpanRecorder()
        traced = layers.TracedRun(spec, args.seed, args.seconds, spec.warmup_ops, recorder)
        metrics = traced.run()
        recorder.dump(_span_path(spec.name, args.seed), workload=spec.name, seed=args.seed)
        if traced.problems:
            return _fail(traced.problems)
        attempted = traced.attempted
    else:
        rounds, round_seconds = measure.round_plan(args.seconds)
        run = measure.set_up(spec, args.seed, measure.SETUP_REPEATS, spec.warmup_ops)
        try:
            for index in range(rounds):
                measure.timed_round(run, args.seed, index, round_seconds)
        finally:
            problems = _finish(run, corrupt=args.corrupt_check)
        if problems:
            return _fail(problems)
        metrics = run.end_to_end()
        attempted = run.attempted
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": _metric_block(metrics)}))
    return 0


# -- the full run: four workloads, interleaved rounds ----------------------------------------


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_full(args: argparse.Namespace) -> int:
    quick = args.quick
    rounds = 1 if quick else args.rounds
    round_seconds = QUICK_ROUND_SECONDS if quick else measure.ROUND_SECONDS
    repeats = 1 if quick else measure.SETUP_REPEATS
    # --corrupt-check needs one workload to prove the check bites.
    specs = WORKLOADS[:1] if args.corrupt_check else WORKLOADS
    runs: List[measure.WorkloadRun] = []
    handoffs: List[float] = []
    problems: List[str] = []
    try:
        for spec in specs:
            runs.append(measure.set_up(
                spec, args.seed, repeats, QUICK_WARMUP_OPS if quick else spec.warmup_ops))
        # Round r runs every workload once (A B C D, A B C D, ...), so a noisy
        # minute is spread over all four; the canary is read once per round.
        for index in range(rounds):
            meter = SpeedMeter()
            handoffs.append(layers.thread_handoff_us(0.05, meter) * meter.speed())
            for run in runs:
                measure.timed_round(run, args.seed, index, round_seconds)
    finally:
        for run in runs:
            problems.extend(_finish(run, corrupt=args.corrupt_check))
    if problems:
        return _fail(problems)

    result: Dict[str, Any] = {
        "schema": 1,
        "sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_used": args.cpus_used,
        "quick": quick,
        "rounds": rounds,
        "round_seconds": round_seconds,
        # What compare.py checks before it compares anything: the thread
        # hand-off in reference time, and the machine speed the run saw.
        "canaries": {
            "calib.thread_handoff_us": measure.median(handoffs),
            "calib.speed_x": measure.median([run.speed for run in runs]),
        },
        "workloads": {},
    }
    for run in runs:
        end_to_end = dict(run.end_to_end())
        end_to_end["error_share"] = (run.error_share, "fraction")
        result["workloads"][run.spec.name] = {
            "end_to_end": _metric_block(end_to_end),
            "machine_speed_x": run.speed,
            "attempted": run.attempted,
            "failed": run.failed,
            "samples_per_round": [figures.samples for figures in run.rounds],
        }

    if args.traced:
        recorder = SpanRecorder()
        for spec in specs:
            traced = layers.TracedRun(
                spec, args.seed, QUICK_TRACED_SECONDS if quick else FULL_TRACED_SECONDS,
                QUICK_WARMUP_OPS if quick else spec.warmup_ops, recorder,
            )
            metrics = traced.run()
            if traced.problems:
                return _fail(traced.problems)
            result["workloads"][spec.name]["per_layer"] = _metric_block(metrics)
        path = _span_path("full", args.seed)
        recorder.dump(path, seed=args.seed, sha=result["sha"])
        result["span_dump"] = os.path.relpath(path, _ROOT)

    print_report(result)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    if args.append_history:
        if quick:
            sys.stderr.write("perfbench: a --quick run is not recorded in history.jsonl\n")
            return 1
        append_history(result)
    return 0


def print_report(result: Dict[str, Any]) -> None:
    print(f"perfbench  sha={result['sha']} seed={result['seed']} nproc={result['nproc']} "
          f"cpus_used={result['cpus_used']} rounds={result['rounds']}x{result['round_seconds']}s"
          f"{'  (QUICK: plumbing only)' if result['quick'] else ''}")
    print("canaries: " + "  ".join(f"{name}={value:.2f}" for name, value in result["canaries"].items()))
    for name, workload in result["workloads"].items():
        print(f"\n[{name}] end to end (tracing off; median over rounds; reference time, machine "
              f"speed {workload['machine_speed_x']:.3f}), "
              f"{workload['attempted']} operations attempted, {workload['failed']} failed")
        for metric, entry in workload["end_to_end"].items():
            print(f"  {metric:34s} {entry['value']:14.4f} {entry['unit']}")
        if "per_layer" in workload:
            print(f"[{name}] per layer (traced run: one session, timed from outside)")
            for metric, entry in workload["per_layer"].items():
                print(f"  {metric:34s} {entry['value']:14.4f} {entry['unit']}")
    if "span_dump" in result:
        print(f"\nspans written to {result['span_dump']}")
    print("\noutput check: passed on every workload")


def append_history(result: Dict[str, Any]) -> None:
    """One line per PR: the committed trajectory (BENCH_*.json stays ignored)."""
    line = {
        "sha": result["sha"], "date": result["date"], "seed": result["seed"],
        "nproc": result["nproc"], "cpus_used": result["cpus_used"],
        "canaries": result["canaries"],
        "workloads": {
            name: {metric: entry["value"] for metric, entry in workload["end_to_end"].items()}
            for name, workload in result["workloads"].items()
        },
    }
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=[spec.name for spec in WORKLOADS],
                        help="contract mode: run this one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="contract mode: timed seconds (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 = the traced run (per-layer metrics)")
    parser.add_argument("--rounds", type=int, default=10, help="full run: rounds per workload")
    parser.add_argument("--traced", action="store_true",
                        help="full run: add the traced run and write the span dump")
    parser.add_argument("--quick", action="store_true", help="full run: plumbing check only")
    parser.add_argument("--out", help="full run: write the result as JSON to this file")
    parser.add_argument("--append-history", action="store_true",
                        help="full run: append this run's line to perfbench/history.jsonl")
    parser.add_argument("--corrupt-check", action="store_true",
                        help="run one workload and edit one replica row before its output "
                             "check: the run must exit non-zero")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.rounds <= 0:
        parser.error("--seconds and --rounds must be positive")
    args.cpus_used = measure.pin_to_one_cpu()
    return run_contract(args) if args.workload else run_full(args)


if __name__ == "__main__":
    raise SystemExit(main())
