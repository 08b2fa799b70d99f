"""End-to-end measurement: repeated set-up, interleavable timed rounds, and
the statistics every figure is reduced with (tracing off, always)."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from perfbench.workloads import (
    BenchCluster,
    LoadResult,
    WorkloadSpec,
    build_and_warm,
    session_ops,
)

#: Timed seconds per round: long enough for >= 30 samples beyond p95 on the
#: slowest workload; a run shortens by cutting rounds, not this.
ROUND_SECONDS = 3.0
#: Full set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


def pin_to_one_cpu() -> int:
    """Pin this process (every thread it will start) to one CPU and return
    how many CPUs it may now run on.

    On the sandbox a wake-up across vCPUs costs ~60 us against ~10 us on one
    CPU, and which of the two a pair of threads gets is the guest scheduler's
    placement decision: unpinned, identical runs differed by +-13 % in
    throughput (README.md, "Why one CPU"). The GIL lets one thread run Python
    at a time anyway, so one CPU gives up no parallelism the program has."""
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return len(os.sched_getaffinity(0))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class RoundFigures:
    """One timed round reduced to its per-round figures, in reference time
    (wall-clock figures are these divided — throughput: multiplied — by
    ``speed``)."""

    throughput_ops_s: float
    latency_p50_ms: float
    latency_p95_ms: float
    samples: int
    speed: float


@dataclass
class WorkloadRun:
    """Everything one workload produced in one benchmark run."""

    spec: WorkloadSpec
    cluster: BenchCluster
    setup_seconds: List[float]
    rounds: List[RoundFigures] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def absorb(self, load: LoadResult, timed: bool) -> None:
        self.attempted += load.attempted
        self.failed += load.failed
        self.errors.extend(load.errors[: max(0, 5 - len(self.errors))])
        if not timed:
            return
        samples = load.all_latencies()
        speed = load.meter.speed()
        self.rounds.append(
            RoundFigures(
                throughput_ops_s=load.completed / (load.wall_s * speed) if load.wall_s > 0 else 0.0,
                latency_p50_ms=quantile(samples, 0.5) * speed * 1e3,
                latency_p95_ms=quantile(samples, 0.95) * speed * 1e3,
                samples=len(samples),
                speed=speed,
            )
        )

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics, in reference time: each the median over
        rounds of the per-round figure."""
        return {
            "throughput_ops_s": (median([r.throughput_ops_s for r in self.rounds]), "ops/s"),
            "latency_p50_ms": (median([r.latency_p50_ms for r in self.rounds]), "ms"),
            "latency_p95_ms": (median([r.latency_p95_ms for r in self.rounds]), "ms"),
            "setup_s": (median(self.setup_seconds), "s"),
        }

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def speed(self) -> float:
        """Median machine speed over the timed rounds (1.0 = reference)."""
        return median([figures.speed for figures in self.rounds])


def set_up(spec: WorkloadSpec, seed: int, repeats: int, warmup_ops: int) -> WorkloadRun:
    """Set the workload up ``repeats`` times and keep the last cluster for the
    timed rounds. The earlier clusters are checked and closed like any other;
    a failed check or a failed warm-up operation fails the run."""
    seconds: List[float] = []
    for repeat in range(repeats):
        cluster, elapsed, warm = build_and_warm(spec, seed, warmup_ops, phase=f"warmup{repeat}")
        # In reference time, by the machine speed its own warm-up metered.
        seconds.append(elapsed * warm.meter.speed())
        problems: List[str] = []
        if warm.failed:
            problems.append(f"{spec.name}: warm-up failed: {warm.errors[:3]}")
        if problems or repeat < repeats - 1:
            problems.extend(cluster.verify())
            problems.extend(cluster.close())
        if problems:
            raise RuntimeError("; ".join(problems))
    run = WorkloadRun(spec, cluster, seconds)
    run.absorb(warm, timed=False)
    return run


def timed_round(run: WorkloadRun, seed: int, round_index: int, seconds: float) -> None:
    """One timed round of ``run``'s workload; inputs are generated first."""
    cluster = run.cluster
    count = max(1, int(run.spec.generated_ops_per_second * seconds))
    ops = session_ops(run.spec, seed, f"round{round_index}", cluster.sessions, count)
    run.absorb(cluster.run_load(ops, seconds), timed=True)


def round_plan(seconds: float) -> Tuple[int, float]:
    """``(rounds, seconds per round)`` for a timed budget of ``seconds``."""
    rounds = max(1, round(seconds / ROUND_SECONDS))
    return rounds, seconds / rounds
