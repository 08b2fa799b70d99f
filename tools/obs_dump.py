#!/usr/bin/env python
"""Dump a traced controller's unified metrics.

Builds the in-memory demo cluster with tracing on, drives a small mixed
workload through the sequoia driver, and prints the controller's
observability output in one of three shapes:

- ``--format prom`` (default): Prometheus text exposition, the same
  bytes ``Controller.metrics_text()`` serves. CI validates this output
  round-trips through the strict parser in ``repro.obs``.
- ``--format json``: the registry snapshot as stable-key-order JSON.
- ``--format slow``: the slow-query table with per-stage breakdowns.

Usage::

    PYTHONPATH=src python tools/obs_dump.py [--format prom|json|slow]
                                            [--statements N]
"""

from __future__ import annotations

import argparse
import sys


def run_workload(statements: int):
    """A small mixed read/write workload on a traced two-replica cluster;
    returns the (still running) environment and its controller."""
    from repro.experiments.environments import build_cluster
    from repro.cluster.driver import ClusterDriverRuntime

    env = build_cluster(replicas=2, controllers=1, controller_options={"tracing": True})
    runtime = ClusterDriverRuntime(name="obs-dump")
    connection = runtime.connect(env.client_url(), network=env.network, trace="true")
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE events (id INT PRIMARY KEY, kind TEXT)")
    for index in range(statements):
        if index % 3 == 2:
            cursor.execute("SELECT * FROM events")
        else:
            cursor.execute(f"INSERT INTO events VALUES ({index}, 'kind-{index % 4}')")
    connection.close()
    return env, env.controllers[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("prom", "json", "slow"), default="prom", dest="fmt"
    )
    parser.add_argument("--statements", type=int, default=30)
    args = parser.parse_args(argv)

    env, controller = run_workload(max(1, args.statements))
    try:
        if args.fmt == "prom":
            print(controller.metrics_text(), end="")
        elif args.fmt == "json":
            print(controller.metrics_json())
        else:
            entries = controller.slow_queries.entries()
            print(f"{'ms':>9}  {'trace':<12}  {'stages':<40}  sql")
            for entry in entries:
                stages = " ".join(
                    f"{name}={ms:.2f}" for name, ms in entry["stages_ms"].items()
                )
                # Keep the *tail*: client trace ids share a per-connection
                # prefix and differ in the trailing sequence number.
                trace_id = (entry.get("trace_id") or "-")[-12:]
                print(f"{entry['duration_ms']:>9.3f}  {trace_id:<12}  {stages:<40}  {entry['sql']}")
    finally:
        env.close()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `obs_dump.py | head`
        sys.exit(0)
