"""E12 — Bootloader overhead.

The paper's design argument is that the bootloader "simply intercepts the
connect method call" and passes everything else through, so the overhead
of using Drivolution should be confined to the first connection (driver
download and dynamic load) and be negligible per statement afterwards.
This experiment measures:

- first-connect latency through the bootloader (includes the bootstrap
  protocol round and dynamic load) vs a conventional driver connect,
- subsequent connect latency (driver already loaded),
- per-statement latency through a bootloader-obtained connection vs a
  conventional connection.
"""

from __future__ import annotations

import time
from statistics import mean, median

from repro.core import BootloaderConfig
from repro.dbapi import legacy_driver
from repro.dbapi.driver_factory import build_pydb_driver
from repro.experiments.environments import build_single_database
from repro.experiments.harness import ExperimentResult


def run_experiment(statement_count: int = 200, connect_count: int = 20) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E12",
        title="Bootloader overhead: connect and per-statement latency",
        parameters={"statements": statement_count, "connects": connect_count},
    )
    env = build_single_database(lease_time_ms=600_000)
    try:
        env.admin.install_driver(
            build_pydb_driver("pydb-overhead", driver_version=(1, 0, 0)),
            database=env.database_name,
        )
        session = env.open_sql_session()
        session.execute("CREATE TABLE overhead_events (id INTEGER NOT NULL PRIMARY KEY, v VARCHAR)")
        session.execute("INSERT INTO overhead_events (id, v) VALUES (1, 'x')")

        # First connect through the bootloader (includes download + load).
        bootloader = env.new_bootloader(BootloaderConfig())
        started = time.perf_counter()
        first_connection = bootloader.connect(env.url)
        first_connect_s = time.perf_counter() - started

        # Subsequent connects: driver already loaded.
        subsequent = []
        for _ in range(connect_count):
            started = time.perf_counter()
            connection = bootloader.connect(env.url)
            subsequent.append(time.perf_counter() - started)
            connection.close()

        # Conventional driver connects.
        conventional = []
        for _ in range(connect_count):
            started = time.perf_counter()
            connection = legacy_driver.connect(env.url, network=env.network)
            conventional.append(time.perf_counter() - started)
            connection.close()

        result.add_row(
            metric="connect latency (ms)",
            bootloader_first=round(first_connect_s * 1000, 3),
            bootloader_subsequent=round(mean(subsequent) * 1000, 3),
            conventional_driver=round(mean(conventional) * 1000, 3),
        )

        # Per-statement latency: the two connections take turns, one
        # statement each, so a scheduler stall or GC pause lands on both
        # sides alike, and the medians are compared so one outlier among
        # the wall-clock samples cannot decide the verdict.
        conventional_connection = legacy_driver.connect(env.url, network=env.network)
        cursors = (first_connection.cursor(), conventional_connection.cursor())
        samples: tuple = ([], [])
        for _ in range(statement_count):
            for cursor, side in zip(cursors, samples):
                started = time.perf_counter()
                cursor.execute("SELECT v FROM overhead_events WHERE id = $id", {"id": 1})
                cursor.fetchall()
                side.append(time.perf_counter() - started)
        for cursor in cursors:
            cursor.close()
        via_bootloader, via_conventional = (median(side) for side in samples)
        result.add_row(
            metric="per-statement latency (ms)",
            bootloader_first=round(via_bootloader * 1000, 4),
            bootloader_subsequent=round(via_bootloader * 1000, 4),
            conventional_driver=round(via_conventional * 1000, 4),
        )
        overhead_pct = (
            100.0 * (via_bootloader - via_conventional) / via_conventional
            if via_conventional > 0
            else 0.0
        )
        result.add_note(
            f"per-statement overhead of the Drivolution-delivered driver vs the conventional "
            f"driver: {overhead_pct:.1f}% (medians of interleaved samples; calls pass "
            f"straight through to the loaded driver)"
        )
        result.add_note(
            f"driver bytes downloaded on first connect: {bootloader.stats.bytes_downloaded}"
        )
        first_connection.close()
        conventional_connection.close()
    finally:
        env.close()
    return result
