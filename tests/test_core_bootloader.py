"""Integration tests for the bootloader against a live Drivolution server."""

import pytest

from repro.core import BootloaderConfig, DriverSigner
from repro.core.bootloader import BootloaderError
from repro.core.constants import ExpirationPolicy, RenewPolicy
from repro.core.loader import DriverLoadError
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
        env.admin.revoke_driver(record)
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
        config = BootloaderConfig(signer=signer)
        bootloader = env.new_bootloader(config)
        connection = bootloader.connect(env.url)
        assert not connection.closed
        connection.close()

    def test_wrong_signing_key_rejected(self, env):
        env.admin.signer = DriverSigner(b"distribution-key")
        env.drivolution.signer = env.admin.signer
        _install(env, "pydb-signed", (1, 0, 0))
        config = BootloaderConfig(signer=DriverSigner(b"other-key"))
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


def _wait_for_driver(bootloader, name, timeout=3.0):
    import time

    deadline = time.time() + timeout
    while time.time() < deadline and bootloader.driver_info().get("driver_name") != name:
        time.sleep(0.02)
    return bootloader.driver_info().get("driver_name")


class TestRevocationIsNotTerminal:
    """Section 3.2: "the administrator can revert the driver" — with no
    intervention on the client machine, so a revoked bootloader asks again."""

    def test_reinstall_after_revocation_serves_the_same_bootloader(self, env):
        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        env.admin.revoke_driver(record, notify=False)
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "revoked"
        with pytest.raises(BootloaderError, match="no suitable driver available"):
            bootloader.connect(env.url)
        assert bootloader.stats.blocked_connects == 1
        assert bootloader.revoked
        # The renewal timer has nothing to poll: no lease, nothing expires.
        assert not bootloader.lease_expired()
        assert bootloader.check_for_update() == "not_due"

        _install(env, "pydb-1.0.1", (1, 0, 1))
        connection = bootloader.connect(env.url)
        assert connection.driver_info["name"] == "pydb-1.0.1"
        assert not bootloader.revoked
        assert bootloader.stats.revocations == 1
        assert bootloader.stats.blocked_connects == 1
        connection.close()

    def test_revoked_subscriber_picks_the_new_driver_up_from_the_push(self, env):
        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        bootloader.subscribe_for_updates(env.db_address, database=env.database_name)
        try:
            env.admin.revoke_driver(record, notify=False)
            assert bootloader.check_for_update(force=True) == "revoked"
            # install_driver notifies subscribers; no connect(), no clock advance.
            _install(env, "pydb-1.0.1", (1, 0, 1))
            assert _wait_for_driver(bootloader, "pydb-1.0.1") == "pydb-1.0.1"
            assert not bootloader.revoked
        finally:
            bootloader.shutdown()

    def test_a_refusal_after_revocation_still_blocks(self, env):
        record = _install(env, "pydb-1.0.0", (1, 0, 0))
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        env.admin.revoke_driver(record, notify=False)
        assert bootloader.check_for_update(force=True) == "revoked"
        for blocked in (1, 2):
            with pytest.raises(BootloaderError, match="revoked"):
                bootloader.connect(env.url)
            assert bootloader.stats.blocked_connects == blocked
        assert bootloader.check_for_update(force=True) == "revoked"
        assert bootloader.stats.revocations == 1


# -- the one transition ------------------------------------------------------------

_POLICIES = [ExpirationPolicy.AFTER_CLOSE, ExpirationPolicy.AFTER_COMMIT, ExpirationPolicy.IMMEDIATE]

#: What the server answers next -> outcome from no driver, outcome from driver A.
_TRANSITIONS = {
    "refused": ("raised", "revoked"),
    "A again": ("installed", "renewed"),
    "B": ("installed", "upgraded"),
    "REVOKE-policy offer": ("raised", "revoked"),
}

_COUNTER_OF = {"renewed": "lease_renewals", "upgraded": "upgrades", "revoked": "revocations"}

#: policy -> (closed_immediately, deferred_to_commit, deferred_to_close, aborted)
#: over one idle and one in-transaction connection.
_REPORT_OF = {
    ExpirationPolicy.AFTER_CLOSE: (0, 0, 2, 0),
    ExpirationPolicy.AFTER_COMMIT: (1, 1, 0, 0),
    ExpirationPolicy.IMMEDIATE: (2, 0, 0, 1),
}


def _lifecycle_counters(bootloader):
    stats = bootloader.stats
    return {name: getattr(stats, name) for name in _COUNTER_OF.values()}


def _idle_and_in_transaction(bootloader, env):
    idle, busy = bootloader.connect(env.url), bootloader.connect(env.url)
    busy.begin()
    assert busy.in_transaction and not idle.in_transaction
    return idle, busy


class TestOneTransition:
    """Every cell of {no driver, driver A} x {refused, A again, B, REVOKE
    offer} x expiration policy goes through ``Bootloader._switch_driver``."""

    @pytest.mark.parametrize("policy", _POLICIES, ids=lambda policy: policy.name)
    @pytest.mark.parametrize("answer", list(_TRANSITIONS))
    @pytest.mark.parametrize("holds_driver", [False, True], ids=["from-none", "from-A"])
    def test_transition_table(self, env, holds_driver, answer, policy):
        expected = _TRANSITIONS[answer][holds_driver]
        bootloader = env.new_bootloader()
        record, connections = None, []
        if holds_driver or answer == "A again":
            record = _install(env, "pydb-A", (1, 0, 0), expiration_policy=policy)
        if holds_driver:
            connections = _idle_and_in_transaction(bootloader, env)
        if answer == "refused" and record is not None:
            env.admin.revoke_driver(record, notify=False)
        elif answer in ("B", "REVOKE-policy offer"):
            env.admin.push_upgrade(
                build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
                old_record=record,
                database=env.database_name,
                lease_time_ms=1_000,
                expiration_policy=policy,
                renew_policy=RenewPolicy.REVOKE if answer.startswith("REVOKE") else RenewPolicy.UPGRADE,
                notify=False,
            )
        env.clock.advance(2.0)
        assert bootloader.lease_expired() == holds_driver
        lease_before, transition_before = bootloader.current_lease, bootloader.last_transition

        if expected == "raised":
            with pytest.raises(BootloaderError):
                bootloader.check_for_update(url=env.url, force=True)
        else:
            assert bootloader.check_for_update(url=env.url, force=True) == expected

        moved = {name: 1 if name == _COUNTER_OF.get(expected) else 0 for name in _COUNTER_OF.values()}
        assert _lifecycle_counters(bootloader) == moved
        assert not bootloader.lease_expired()
        assert bootloader.revoked == (expected == "revoked")
        running = {"installed": "pydb-B" if answer == "B" else "pydb-A", "renewed": "pydb-A", "upgraded": "pydb-B"}
        assert bootloader.driver_info().get("driver_name") == running.get(expected)
        if expected in ("raised", "revoked"):
            assert bootloader.current_lease is None
            assert bootloader.driver_info() == {}
        else:
            assert bootloader.current_lease is not lease_before

        transition = bootloader.last_transition
        if expected in ("raised", "renewed"):
            # The running driver did not change: no connection is touched.
            assert transition is transition_before
            assert all(not conn.closed and not conn.stale for conn in connections)
        else:
            assert transition.policy == policy
            assert transition.total_connections == len(connections)
            report = _REPORT_OF[policy] if connections else (0, 0, 0, 0)
            assert (
                transition.closed_immediately,
                transition.deferred_to_commit,
                transition.deferred_to_close,
                transition.aborted_transactions,
            ) == report
        if holds_driver and expected in ("upgraded", "revoked"):
            idle, busy = connections
            assert idle.closed == (policy != ExpirationPolicy.AFTER_CLOSE)
            assert busy.closed == (policy == ExpirationPolicy.IMMEDIATE)
            if policy == ExpirationPolicy.AFTER_COMMIT:
                # The open transaction finishes, and nothing more.
                busy.commit()
                assert busy.closed
        for conn in connections:
            conn.close()

    @pytest.mark.parametrize("policy", _POLICIES, ids=lambda policy: policy.name)
    def test_failed_load_leaves_driver_lease_and_connections_untouched(self, env, policy):
        signer = DriverSigner(b"distribution-key")
        env.admin.signer = signer
        record = _install(env, "pydb-A", (1, 0, 0), expiration_policy=policy)
        bootloader = env.new_bootloader(BootloaderConfig(signer=signer))
        connections = _idle_and_in_transaction(bootloader, env)
        lease, driver = bootloader.current_lease, bootloader.current_driver
        transition = bootloader.last_transition
        # The replacement is signed with a key the bootloader does not trust.
        env.admin.signer = DriverSigner(b"someone-else")
        env.admin.push_upgrade(
            build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=1_000,
            expiration_policy=policy,
        )
        env.clock.advance(2.0)
        with pytest.raises(DriverLoadError, match="signature"):
            bootloader.check_for_update()
        assert bootloader.current_driver is driver
        assert bootloader.current_lease is lease
        assert bootloader.lease_expired()
        assert bootloader.last_transition is transition
        assert not bootloader.revoked
        assert _lifecycle_counters(bootloader) == {"lease_renewals": 0, "upgrades": 0, "revocations": 0}
        assert all(not conn.closed and not conn.stale for conn in connections)
        assert bootloader.loader.loaded_drivers() == [driver]
        for conn in connections:
            conn.close()

    def test_upgrade_reaches_connections_left_stale_by_an_earlier_after_close_upgrade(self, env):
        first = _install(env, "pydb-A", (1, 0, 0))
        bootloader = env.new_bootloader()
        on_a = bootloader.connect(env.url)
        second = env.admin.push_upgrade(
            build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
            old_record=first,
            database=env.database_name,
            lease_time_ms=1_000,
            expiration_policy=ExpirationPolicy.AFTER_CLOSE,
        )
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        assert on_a.stale and not on_a.closed
        on_b = bootloader.connect(env.url)
        env.admin.push_upgrade(
            build_pydb_driver("pydb-C", driver_version=(3, 0, 0)),
            old_record=second,
            database=env.database_name,
            lease_time_ms=1_000,
            expiration_policy=ExpirationPolicy.IMMEDIATE,
        )
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        assert on_a.closed and on_b.closed
        assert bootloader.last_transition.closed_immediately == 2
        assert bootloader.active_connections() == []


class _Bystander:
    """A listener that is not a Drivolution server and records whatever
    first frame each caller sends it."""

    def __init__(self, network, address):
        from repro.netsim.transport import ChannelServer

        self.first_frames = []
        self._server = ChannelServer(network.listen(address), self._record, name="bystander").start()

    def _record(self, channel):
        self.first_frames.append(channel.recv(timeout=2.0))

    def stop(self):
        self._server.stop()


@pytest.fixture
def secure_server(env):
    from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding

    ca = CertificateAuthority(name="corp-ca")
    server = DrivolutionServer(
        StandaloneServerBinding(clock=env.clock),
        network=env.network,
        address="drivolution-secure:9000",
        clock=env.clock,
        server_id="drivo-secure",
        certificate=ca.issue("drivolution-secure"),
        certificate_authority=ca,
    ).start()
    DrivolutionAdmin([server]).install_driver(
        build_pydb_driver("pydb-secure", driver_version=(1, 0, 0)),
        database=env.database_name,
        lease_time_ms=1_000,
    )
    yield server, ca
    server.stop()


class TestCertificateAuthorityMeansSecure:
    def test_discovery_never_broadcasts_credentials_in_plaintext(self, env, secure_server):
        _server, ca = secure_server
        bystander = _Bystander(env.network, "printer:515")
        try:
            bootloader = env.new_bootloader(
                BootloaderConfig(
                    certificate_authority=ca,
                    expected_server_subject="drivolution-secure",
                    use_discovery=True,
                )
            )
            connection = bootloader.connect(env.url, user="alice", password="s3cret")
            connection.close()
        finally:
            bystander.stop()
        assert bootloader.stats.discover_rounds == 1
        assert bootloader.driver_info()["driver_name"] == "pydb-secure"
        assert bootloader.current_lease.server_id == "drivo-secure"
        assert bystander.first_frames, "the broadcast did reach the bystander"
        for frame in bystander.first_frames:
            assert frame["type"] == "secure_hello"
            assert "password" not in frame and "user" not in frame

    def test_a_certificate_authority_alone_makes_every_channel_secure(self, env, secure_server):
        server, ca = secure_server
        bystander = _Bystander(env.network, "printer:515")
        try:
            bootloader = env.new_bootloader(
                BootloaderConfig(
                    drivolution_servers=["printer:515", "drivolution-secure:9000"],
                    certificate_authority=ca,
                )
            )
            connection = bootloader.connect(env.url, user="alice", password="s3cret")
            connection.close()
            # The notification channel is opened the same way.
            bootloader.subscribe_for_updates("drivolution-secure:9000", database=env.database_name)
            assert server.subscriber_count() == 1
            bootloader.shutdown()
        finally:
            bystander.stop()
        assert bootloader.driver_info()["driver_name"] == "pydb-secure"
        assert [frame["type"] for frame in bystander.first_frames] == ["secure_hello"]


class TestExternalServerReconnect:
    """Section 4.1.3 / Figure 2: upgrading the one legacy driver the external
    Drivolution server uses must not disturb what it serves."""

    def test_reconnect_keeps_serving_new_and_old_clients(self):
        from repro.core import Bootloader, DrivolutionAdmin, DrivolutionServer, ExternalServerBinding
        from repro.core.clock import SimulatedClock
        from repro.dbapi import legacy_driver
        from repro.dbserver import DatabaseServer, ServerConfig
        from repro.netsim import InMemoryNetwork
        from repro.sqlengine import Engine

        clock, network = SimulatedClock(), InMemoryNetwork()
        engine = Engine(name="legacydb", clock=clock)
        engine.create_database("appdb")
        db_server = DatabaseServer(engine, network, "legacydb:5432", ServerConfig(name="legacydb")).start()
        url = "pydb://legacydb:5432/appdb"
        binding = ExternalServerBinding(lambda: legacy_driver.connect(url, network=network), clock=clock)
        server = DrivolutionServer(
            binding, network=network, address="drivolution-ext:8000", clock=clock
        ).start()

        def new_bootloader(client_id):
            config = BootloaderConfig(client_id=client_id, drivolution_servers=["drivolution-ext:8000"])
            return Bootloader(config, network=network, clock=clock)

        try:
            DrivolutionAdmin([server]).install_driver(
                build_pydb_driver("pydb-legacy"), database="appdb", lease_time_ms=1_000
            )
            holder = new_bootloader("holder")
            holder.connect(url).close()
            registry = server.registry

            binding.reconnect()

            newcomer = new_bootloader("newcomer")
            newcomer.connect(url).close()
            assert newcomer.driver_info()["driver_name"] == "pydb-legacy"
            assert server.registry is registry
            assert server.matchmaker._registry is registry and server.registry is registry
            clock.advance(2.0)
            assert holder.check_for_update() == "renewed"
            # Leases granted after the reconnect are still stamped by the
            # simulated clock, not the wall clock.
            assert server.registry.leases_for_client("newcomer")[-1]["granted_at"] == clock() - 2.0
            assert server.registry.leases_for_client("holder")[-1]["granted_at"] == clock()
        finally:
            server.stop()
            db_server.stop()


class TestMalformedFileRequest:
    @pytest.mark.parametrize("location", ["driver:abc", "driver:", "elsewhere:1"])
    def test_bad_location_is_answered_and_the_channel_survives(self, env, location):
        from repro.core import DrivolutionRequest, messages

        _install(env, "pydb-1.0.0", (1, 0, 0))
        with env.network.connect(env.db_address) as channel:
            reply = channel.request(messages.make_file_request(location, ""), timeout=2.0)
            assert reply["type"] == messages.ERROR
            assert reply["code"] == "bad_location"
            request = DrivolutionRequest(
                database=env.database_name, api_name="PYDB-API", client_platform="cpython-any"
            )
            offer = channel.request(request.to_wire(), timeout=2.0)
            assert offer["type"] == messages.OFFER
            data = channel.request(
                messages.make_file_request(offer["driver_location"], offer["lease_id"]), timeout=2.0
            )
            assert data["type"] == messages.FILE_DATA


class TestOneIdentityOneExpiryOneUnload:
    """The lifecycle rules' shells (core/policies.py): the old driver
    leaves with its last connection, a BEGIN in flight is a transaction,
    and one package is one driver on every server."""

    @pytest.mark.parametrize(
        "policy", [ExpirationPolicy.AFTER_CLOSE, ExpirationPolicy.AFTER_COMMIT], ids=lambda p: p.name
    )
    def test_a_superseded_driver_is_unloaded_with_its_last_connection(self, env, policy):
        record = _install(env, "pydb-A", (1, 0, 0), expiration_policy=policy)
        bootloader = env.new_bootloader()
        on_a = bootloader.connect(env.url)
        on_a.begin()
        old = bootloader.current_driver
        env.admin.push_upgrade(
            build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=1_000,
            expiration_policy=policy,
            notify=False,
        )
        env.clock.advance(2.0)
        assert bootloader.check_for_update() == "upgraded"
        new = bootloader.current_driver
        # The connection still runs statements on the old driver.
        on_a.cursor().execute("SELECT 1")
        assert not on_a.closed and on_a.driver_info["name"] == "pydb-A"
        assert bootloader.loader.loaded_drivers() == [old, new]
        on_a.commit()
        assert on_a.closed == (policy == ExpirationPolicy.AFTER_COMMIT)
        on_a.close()
        assert bootloader.loader.loaded_drivers() == [new]

    def test_b_a_begin_in_flight_is_a_transaction_after_commit_lets_finish(self, env):
        import threading

        # A v3 driver sends its BEGIN as a frame of its own, so the flag
        # stays down until that frame is answered: ``_in_flight`` alone
        # says a transaction may be opening. (A v4 driver owes its BEGIN
        # and raises the flag at once; tests/test_client_begin.py.)
        record = env.admin.install_driver(
            build_pydb_driver("pydb-A", driver_version=(1, 0, 0), protocol_version=3),
            database=env.database_name,
            lease_time_ms=1_000,
            expiration_policy=ExpirationPolicy.AFTER_COMMIT,
        )
        env.open_sql_session().execute("CREATE TABLE lifecycle (id INTEGER PRIMARY KEY)")
        bootloader = env.new_bootloader()
        connection = bootloader.connect(env.url)
        inner, sent, answer = connection.inner, threading.Event(), threading.Event()
        execute_locked = inner._execute_locked

        def held_begin(sql, params, begin):
            if sql == "BEGIN":
                sent.set()
                answer.wait(2.0)
            return execute_locked(sql, params, begin)

        inner._execute_locked = held_begin
        app = threading.Thread(target=connection.begin)
        app.start()
        try:
            assert sent.wait(5.0)
            env.admin.push_upgrade(
                build_pydb_driver("pydb-B", driver_version=(2, 0, 0)),
                old_record=record,
                database=env.database_name,
                lease_time_ms=1_000,
                expiration_policy=ExpirationPolicy.AFTER_COMMIT,
                notify=False,
            )
            env.clock.advance(2.0)
            assert bootloader.check_for_update() == "upgraded"
        finally:
            answer.set()
            app.join(5.0)
        # The BEGIN was answered: the transaction runs to its COMMIT...
        assert connection.in_transaction and not connection.closed
        connection.cursor().execute("INSERT INTO lifecycle (id) VALUES (1)")
        connection.commit()
        # ...and the connection closes after it, aborting nothing.
        assert connection.closed
        transition = bootloader.last_transition
        assert (transition.deferred_to_commit, transition.aborted_transactions) == (1, 0)
        assert env.open_sql_session().execute("SELECT COUNT(*) FROM lifecycle").scalar() == 1

    def test_c_renewing_at_a_server_that_numbers_the_package_differently_is_a_renewal(self, env):
        from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding

        addresses = ["drivolution-1:9000", "drivolution-2:9000"]
        d1, d2 = servers = [
            DrivolutionServer(
                StandaloneServerBinding(clock=env.clock),
                network=env.network,
                address=address,
                clock=env.clock,
                server_id=f"d{n}",
            ).start()
            for n, address in enumerate(addresses, start=1)
        ]
        try:
            DrivolutionAdmin([d2]).install_driver(
                build_pydb_driver("pydb-earlier", driver_version=(0, 9, 0)),
                database=env.database_name,
                lease_time_ms=1_000,
            )
            record = DrivolutionAdmin(servers).install_driver(
                build_pydb_driver("pydb-A", driver_version=(1, 0, 0)),
                database=env.database_name,
                lease_time_ms=1_000,
                expiration_policy=ExpirationPolicy.IMMEDIATE,
            )
            # One package, numbered 1 on d1 and 2 on d2.
            assert [d.registry.find_drivers(record.location())[0][0] for d in (d1, d2)] == [1, 2]
            bootloader = env.new_bootloader(BootloaderConfig(drivolution_servers=addresses))
            connection = bootloader.connect(env.url)
            connection.begin()
            downloads, transition = bootloader.stats.driver_downloads, bootloader.last_transition
            d1.stop()
            env.clock.advance(2.0)
            assert bootloader.check_for_update() == "renewed"
            assert bootloader.current_lease.server_id == "d2"
            assert bootloader.driver_info()["driver_name"] == "pydb-A"
            assert bootloader.stats.driver_downloads == downloads
            assert bootloader.last_transition is transition
            assert connection.in_transaction and not connection.closed and not connection.stale
            connection.rollback()
            connection.close()
        finally:
            for server in servers:
                server.stop()
