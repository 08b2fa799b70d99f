#!/usr/bin/env python
"""Observability: trace a mixed workload and read the slow-query table.

This example turns on per-statement tracing
(``ControllerConfig.tracing``), runs a mixed read/write workload through
the sequoia driver — including a writer burst that exercises the write
batcher — and then shows the three outputs the observability subsystem
produces:

1. the driver-side view of one statement (its span tree, returned on the
   RESULT frame because the connection negotiated tracing),
2. the controller's slow-query table with per-stage breakdowns and
   redacted SQL,
3. the unified metrics registry, exported as Prometheus text.

Run with ``PYTHONPATH=src python examples/observability.py``.
"""

import threading

from repro.cluster.driver import ClusterDriverRuntime
from repro.experiments.environments import build_cluster
from repro.obs import Trace


def main() -> None:
    # --- a two-replica cluster with tracing on ---------------------------------
    env = build_cluster(replicas=2, controllers=1, controller_options={"tracing": True})
    controller = env.controllers[0]
    runtime = ClusterDriverRuntime(name="obs-example")

    connection = runtime.connect(env.client_url(), network=env.network, trace="true")
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE orders (id INT PRIMARY KEY, item TEXT)")

    # --- mixed workload: interleaved reads and writes, then a writer burst -----
    for index in range(12):
        cursor.execute(f"INSERT INTO orders VALUES ({index}, 'item-{index}')")
        if index % 3 == 0:
            cursor.execute("SELECT * FROM orders")

    def writer(offset: int) -> None:
        burst = runtime.connect(env.client_url(), network=env.network, trace="true")
        burst_cursor = burst.cursor()
        for index in range(5):
            burst_cursor.execute(
                f"INSERT INTO orders VALUES ({offset + index}, 'burst-{offset}')"
            )
        burst.close()

    threads = [threading.Thread(target=writer, args=(100 + 10 * n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # --- 1. the driver's view of its last statement ------------------------------
    cursor.execute("SELECT * FROM orders")
    trace = connection.last_trace
    print("last statement trace", trace["trace_id"])
    print(f"  driver-observed latency: {trace['latency_s'] * 1000:.3f} ms")
    for span in Trace.spans_from_wire(trace["spans"]):
        indent = "    " if span.parent else "  "
        print(f"{indent}{span.name:<12} {span.duration * 1000:8.3f} ms  {span.attrs}")

    # --- 2. the slow-query table -------------------------------------------------
    print("\nslowest statements (redacted SQL, per-stage ms):")
    print(f"{'ms':>9}  {'stages':<52}  sql")
    for entry in controller.slow_queries.entries()[:5]:
        stages = " ".join(f"{name}={ms:.2f}" for name, ms in entry["stages_ms"].items())
        print(f"{entry['duration_ms']:>9.3f}  {stages:<52}  {entry['sql']}")

    # --- 3. the unified registry, Prometheus-shaped ------------------------------
    text = controller.metrics_text()
    interesting = [
        line
        for line in text.splitlines()
        if not line.startswith("#")
        and any(
            key in line
            for key in (
                "traced_statements",
                "statement_latency_seconds_p",
                "slow_queries_captured",
                "scheduler_statements",
            )
        )
    ]
    print("\nselected Prometheus samples:")
    for line in interesting:
        print(" ", line)

    obs = controller.stats()["obs"]
    assert obs["traced_statements"] > 0
    assert controller.slow_queries.entries(), "workload must populate the slow log"

    connection.close()
    env.close()
    print("\nobservability example done.")


if __name__ == "__main__":
    main()
