"""E13b — parallel write broadcast vs sequential on latency-injected backends.

Four simulated replicas each charge a fixed per-statement latency, so a
sequential broadcast pays the latency once per backend per write while
the parallel broadcaster, which sends to every replica before it collects
any reply, pays it roughly once per write.
"""

from benchmarks.conftest import run_and_report
from repro.experiments import policy_matrix


def test_bench_e13b_parallel_beats_sequential_broadcast(benchmark):
    result = run_and_report(
        benchmark,
        policy_matrix.run_broadcast_comparison,
        backends=4,
        writes=25,
        latency_ms=3.0,
    )
    sequential = result.find_row(mode="sequential")
    parallel = result.find_row(mode="parallel")
    assert sequential["backends"] == 4
    # The point of the refactor: parallel broadcast wins wall-clock.
    assert parallel["wall_s"] < sequential["wall_s"]
    # With 4 backends at 3ms each the sequential path costs ~12ms per
    # write and parallel ~3-4ms (typically 3.5-4x faster). Assert a loose
    # margin so a contended CI runner's thread-wakeup latency cannot flake
    # the gate while a real regression (lost parallelism) still fails.
    assert parallel["per_write_ms"] < sequential["per_write_ms"] * 0.75
    assert result.parameters["speedup_x"] >= 1.3
