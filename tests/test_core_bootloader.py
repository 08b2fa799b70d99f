"""Integration tests for the bootloader against a live Drivolution server."""

import pytest

from repro.core import BootloaderConfig, DriverSigner
from repro.core.bootloader import BootloaderError
from repro.core.constants import ExpirationPolicy
from repro.dbapi.driver_factory import build_pydb_driver
from repro.netsim.secure import CertificateAuthority


@pytest.fixture
def env(single_db_env):
    return single_db_env


def _install(env, name, version, **kwargs):
    return env.admin.install_driver(
        build_pydb_driver(name, driver_version=version),
        database=env.database_name,
        lease_time_ms=kwargs.pop("lease_time_ms", 1_000),
        **kwargs,
    )


class TestBootstrap:
    def test_connect_downloads_and_loads_driver(self, env):
        _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url)
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        assert bootloader.driver_info()["driver_name"] == "pydb-1.0.0"
        assert bootloader.stats.driver_downloads == 1
        assert bootloader.stats.bytes_downloaded > 0
        # Second connect reuses the already-loaded driver.
        second = bootloader.connect(env.url)
        assert bootloader.stats.driver_downloads == 1
        connection.close()
        second.close()

    def test_no_driver_available(self, env):
        bootloader = env.new_bootloader()
        with pytest.raises(BootloaderError):
            bootloader.connect(env.url)

    def test_connection_options_pass_through(self, env):
        _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url, application_name="reporting")
        assert not connection.closed
        connection.close()

    def test_server_enforced_driver_options(self, env):
        env.admin.install_driver(
            build_pydb_driver("pydb-opts", driver_version=(1, 0, 0)),
            database=env.database_name,
            driver_options={"application_name": "enforced"},
            lease_time_ms=1_000,
        )
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url)
        assert bootloader.current_lease.driver_options["application_name"] == "enforced"
        connection.close()

    def test_managed_connection_passthrough(self, env):
        _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url)
        session = env.open_sql_session()
        session.execute("CREATE TABLE bl (id INTEGER PRIMARY KEY)")
        connection.begin()
        cursor = connection.cursor()
        cursor.execute("INSERT INTO bl (id) VALUES (1)")
        assert connection.in_transaction
        connection.commit()
        assert not connection.in_transaction
        assert connection.supports("gis") is False
        with connection as conn:
            assert conn is connection
        assert connection.closed
        assert bootloader.active_connections() == []


class TestLeaseRenewalAndUpgrade:
    def test_renew_same_driver(self, env):
        _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        assert bootloader.check_for_update() == "not_due"
        env.clock.advance(2.0)
        assert bootloader.lease_expired()
        assert bootloader.check_for_update() == "renewed"
        assert bootloader.stats.lease_renewals == 1
        assert not bootloader.lease_expired()

    def test_upgrade_on_new_driver(self, env):
        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        old_connection = bootloader.connect(env.url)
        env.admin.push_upgrade(
            build_pydb_driver("pydb-2.0.0", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=1_000,
            expiration_policy=ExpirationPolicy.AFTER_COMMIT,
        )
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        assert bootloader.driver_info()["driver_name"] == "pydb-2.0.0"
        # Idle old connection was closed by the AFTER_COMMIT policy.
        assert old_connection.closed
        new_connection = bootloader.connect(env.url)
        assert new_connection.driver_info["name"] == "pydb-2.0.0"
        new_connection.close()
        assert bootloader.stats.upgrades == 1

    def test_lazy_check_on_connect(self, env):
        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        env.admin.push_upgrade(
            build_pydb_driver("pydb-2.0.0", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=1_000,
        )
        env.clock.advance(2.0)
        # No explicit check: the next connect call triggers the upgrade.
        connection = bootloader.connect(env.url)
        assert connection.driver_info["name"] == "pydb-2.0.0"
        connection.close()

    def test_rollback_to_previous_driver(self, env):
        good = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        bad = env.admin.push_upgrade(
            build_pydb_driver("pydb-2.0.0-broken", driver_version=(2, 0, 0)),
            old_record=good,
            database=env.database_name,
            lease_time_ms=1_000,
        )
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        # The administrator reverts to the known-good version.
        env.admin.rollback_upgrade(
            bad,
            build_pydb_driver("pydb-1.0.0", driver_version=(1, 0, 0)),
            database=env.database_name,
            lease_time_ms=1_000,
        )
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        assert bootloader.driver_info()["driver_name"] == "pydb-1.0.0"

    def test_revocation_blocks_new_connections(self, env):
        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url)
        env.admin.revoke_driver(record.driver_ids, api_name="PYDB-API")
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "revoked"
        assert bootloader.revoked
        with pytest.raises(BootloaderError, match="revoked|no suitable"):
            bootloader.connect(env.url)
        assert bootloader.stats.blocked_connects == 1
        if not connection.closed:
            connection.close()

    def test_server_unreachable_keeps_current_driver(self, env):
        _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url)
        env.network.kill_endpoint(env.db_address)
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "server_unreachable"
        assert not bootloader.revoked
        assert bootloader.current_driver is not None
        # Existing connection keeps working? It cannot: the endpoint is the
        # database itself here; what matters is the driver stayed loaded.
        env.network.revive_endpoint(env.db_address)
        assert bootloader.check_for_update() in ("renewed", "upgraded")
        connection.close()

    def test_renewal_timer_thread(self, env):
        import time

        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        bootloader.start_renewal_timer(poll_interval=0.02)
        env.admin.push_upgrade(
            build_pydb_driver("pydb-2.0.0", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=1_000,
        )
        env.clock.advance(2.0)
        deadline = time.time() + 3.0
        while time.time() < deadline:
            if bootloader.driver_info().get("driver_name") == "pydb-2.0.0":
                break
            time.sleep(0.02)
        bootloader.stop_renewal_timer()
        assert bootloader.driver_info()["driver_name"] == "pydb-2.0.0"

    def test_notification_channel_immediate_upgrade(self, env):
        import time

        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        bootloader.subscribe_for_updates(env.db_address, database=env.database_name)
        assert env.drivolution.subscriber_count() == 1
        env.admin.push_upgrade(
            build_pydb_driver("pydb-2.0.0", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=60_000,
        )
        deadline = time.time() + 3.0
        while time.time() < deadline:
            if bootloader.driver_info().get("driver_name") == "pydb-2.0.0":
                break
            time.sleep(0.02)
        # No simulated-clock advance was needed: the push did it.
        assert bootloader.driver_info()["driver_name"] == "pydb-2.0.0"
        bootloader.shutdown()


class TestSecurityIntegration:
    def test_signed_driver_required_and_verified(self, env):
        signer = DriverSigner(b"distribution-key")
        env.admin.signer = signer
        env.drivolution.signer = signer
        _install(env, "pydb-signed", (1, 0, 0))
        config = BootloaderConfig(signer=signer, require_signature=True)
        bootloader = env.new_bootloader(config)
        connection = bootloader.connect(env.url)
        assert not connection.closed
        connection.close()

    def test_wrong_signing_key_rejected(self, env):
        env.admin.signer = DriverSigner(b"distribution-key")
        env.drivolution.signer = env.admin.signer
        _install(env, "pydb-signed", (1, 0, 0))
        config = BootloaderConfig(signer=DriverSigner(b"other-key"), require_signature=True)
        bootloader = env.new_bootloader(config)
        with pytest.raises(Exception):
            bootloader.connect(env.url)

    def test_secure_channel_to_standalone_server(self, env):
        from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding

        ca = CertificateAuthority(name="corp-ca")
        certificate = ca.issue("drivolution-secure")
        secure_server = DrivolutionServer(
            StandaloneServerBinding(clock=env.clock),
            network=env.network,
            address="drivolution-secure:9000",
            clock=env.clock,
            server_id="drivo-secure",
            certificate=certificate,
            certificate_authority=ca,
            require_secure_channel=True,
        ).start()
        DrivolutionAdmin([secure_server]).install_driver(
            build_pydb_driver("pydb-secure", driver_version=(1, 0, 0)),
            database=env.database_name,
            lease_time_ms=1_000,
        )
        # Insecure bootloader is refused.
        insecure = env.new_bootloader(
            BootloaderConfig(drivolution_servers=["drivolution-secure:9000"])
        )
        with pytest.raises(BootloaderError):
            insecure.connect(env.url)
        # Secure bootloader verifies the certificate and succeeds.
        secure_bootloader = env.new_bootloader(
            BootloaderConfig(
                drivolution_servers=["drivolution-secure:9000"],
                secure=True,
                certificate_authority=ca,
                expected_server_subject="drivolution-secure",
            )
        )
        connection = secure_bootloader.connect(env.url)
        assert not connection.closed
        connection.close()
        secure_server.stop()

    def test_secure_server_refuses_a_client_certificate_it_did_not_issue(self, env):
        from repro.core import DrivolutionServer, StandaloneServerBinding, messages
        from repro.errors import TransportError
        from repro.netsim.secure import SecureChannel

        ca = CertificateAuthority(name="corp-ca")
        secure_server = DrivolutionServer(
            StandaloneServerBinding(clock=env.clock),
            network=env.network,
            address="drivolution-mtls:9000",
            clock=env.clock,
            certificate=ca.issue("drivolution-mtls"),
            certificate_authority=ca,
            require_secure_channel=True,
        ).start()

        def release_over(client_certificate):
            channel = env.network.connect("drivolution-mtls:9000")
            try:
                secure = SecureChannel.client_handshake(
                    channel, ca, client_certificate=client_certificate
                )
                return secure.request(messages.make_release("no-lease", "c"), timeout=5.0)
            finally:
                channel.close()

        try:
            rogue = CertificateAuthority(name="rogue-ca").issue("mallory")
            with pytest.raises(TransportError):
                release_over(rogue)
            # A certificate the server's own authority issued, and the
            # anonymous hello every in-tree bootloader sends, are served.
            assert release_over(ca.issue("app-42"))["type"] == "drivolution_release_ack"
            assert release_over(None)["type"] == "drivolution_release_ack"
        finally:
            secure_server.stop()


class TestDiscovery:
    def test_discover_picks_an_answering_server(self, env):
        from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding

        # A second Drivolution server with the same driver.
        other = DrivolutionServer(
            StandaloneServerBinding(clock=env.clock),
            network=env.network,
            address="drivolution-extra:9000",
            clock=env.clock,
            server_id="drivo-extra",
        ).start()
        DrivolutionAdmin([other]).install_driver(
            build_pydb_driver("pydb-discovered", driver_version=(1, 0, 0)),
            database=env.database_name,
            lease_time_ms=1_000,
        )
        bootloader = env.new_bootloader(BootloaderConfig(use_discovery=True))
        connection = bootloader.connect(env.url)
        assert bootloader.stats.discover_rounds == 1
        assert bootloader.driver_info()["driver_name"] == "pydb-discovered"
        connection.close()
        other.stop()
