"""End-to-end integration over real TCP sockets.

Everything else in the suite uses the in-memory network; this module shows
the full Drivolution flow — database server, in-database Drivolution
server, bootloader download, dynamic load, upgrade — working over actual
localhost sockets.
"""

import pytest

from repro.core import Bootloader, BootloaderConfig, DrivolutionAdmin, DrivolutionServer, InDatabaseServerBinding
from repro.core.clock import SimulatedClock
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.netsim import TcpNetwork
from repro.sqlengine import Engine


@pytest.fixture
def tcp_env():
    clock = SimulatedClock()
    network = TcpNetwork()
    engine = Engine(name="tcpdb", clock=clock)
    engine.create_database("appdb")
    # Bind an ephemeral port first so we know the address to put in URLs.
    listener = network.listen("127.0.0.1:0")
    address = listener.address
    listener.close()
    db_server = DatabaseServer(engine, network, address, ServerConfig(name="tcpdb")).start()
    binding = InDatabaseServerBinding(engine, "appdb", clock=clock)
    drivolution = DrivolutionServer(binding, network=network, clock=clock, server_id="drivo-tcp")
    drivolution.attach_to_database_server(db_server)
    admin = DrivolutionAdmin([drivolution], default_lease_time_ms=1_000)
    yield clock, network, engine, db_server, admin, address
    db_server.stop()


class TestTcpEndToEnd:
    def test_bootstrap_and_upgrade_over_tcp(self, tcp_env):
        clock, network, engine, _server, admin, address = tcp_env
        url = f"pydb://{address}/appdb"
        record = admin.install_driver(
            build_pydb_driver("tcp-driver-1.0", driver_version=(1, 0, 0)),
            database="appdb",
            lease_time_ms=1_000,
        )
        bootloader = Bootloader(BootloaderConfig(), network=network, clock=clock)
        connection = bootloader.connect(url)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE tcp_t (id INTEGER PRIMARY KEY, v VARCHAR)")
        cursor.execute("INSERT INTO tcp_t (id, v) VALUES (1, 'over tcp')")
        cursor.execute("SELECT v FROM tcp_t WHERE id = 1")
        assert cursor.fetchone() == ("over tcp",)
        assert bootloader.driver_info()["driver_name"] == "tcp-driver-1.0"

        admin.push_upgrade(
            build_pydb_driver("tcp-driver-2.0", driver_version=(2, 0, 0)),
            old_record=record,
            database="appdb",
            lease_time_ms=1_000,
        )
        clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        upgraded = bootloader.connect(url)
        assert upgraded.driver_info["name"] == "tcp-driver-2.0"
        cursor2 = upgraded.cursor()
        cursor2.execute("SELECT COUNT(*) FROM tcp_t")
        assert cursor2.fetchone() == (1,)
        upgraded.close()
        if not connection.closed:
            connection.close()

    def test_conventional_and_drivolution_clients_share_tcp_port(self, tcp_env):
        clock, network, engine, _server, admin, address = tcp_env
        url = f"pydb://{address}/appdb"
        admin.install_driver(build_pydb_driver("tcp-driver"), database="appdb")
        from repro.dbapi import legacy_driver

        conventional = legacy_driver.connect(url, network=network)
        cursor = conventional.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        bootloader = Bootloader(BootloaderConfig(), network=network, clock=clock)
        managed = bootloader.connect(url)
        cursor = managed.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        conventional.close()
        managed.close()

    def test_concurrent_traffic_during_upgrade_over_tcp(self, tcp_env):
        """The pydb twin of the cluster upgrade-under-traffic test, on
        sockets: the bootloader closes connections other threads are
        using, and closing a socket under a blocked ``recv`` (which the
        in-memory transport cannot show) must not cost a request."""
        import threading

        from repro.workloads import ClientApplication, WorkloadSpec

        clock, network, engine, _server, admin, address = tcp_env
        url = f"pydb://{address}/appdb"
        record = admin.install_driver(
            build_pydb_driver("tcp-conc-1.0", driver_version=(1, 0, 0)),
            database="appdb",
            lease_time_ms=1_000,
        )
        bootloaders = [
            Bootloader(BootloaderConfig(), network=network, clock=clock) for _ in range(3)
        ]
        apps = [
            ClientApplication(
                f"tcp-conc{i}", b.connect, url,
                spec=WorkloadSpec(table="tcp_conc_events"), clock=clock,
            )
            for i, b in enumerate(bootloaders)
        ]
        apps[0].ensure_schema()
        stop = threading.Event()
        crashes = []

        def traffic(app):
            try:
                while not stop.is_set():
                    app.run_requests(1)
            except Exception as exc:
                crashes.append(exc)

        threads = [threading.Thread(target=traffic, args=(app,)) for app in apps]
        for thread in threads:
            thread.start()
        admin.push_upgrade(
            build_pydb_driver("tcp-conc-2.0", driver_version=(2, 0, 0)),
            old_record=record,
            database="appdb",
            lease_time_ms=1_000,
        )
        for _ in range(5):
            clock.advance(2.0)
            for bootloader in bootloaders:
                bootloader.check_for_update()
            if {b.driver_info()["driver_name"] for b in bootloaders} == {"tcp-conc-2.0"}:
                break
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert crashes == []
        assert {b.driver_info()["driver_name"] for b in bootloaders} == {"tcp-conc-2.0"}
        failures = [
            request.error for app in apps for request in app.metrics.records() if not request.ok
        ]
        assert failures == []
        assert sum(app.metrics.summary().succeeded for app in apps) > 0
        for app in apps:
            app.close()
