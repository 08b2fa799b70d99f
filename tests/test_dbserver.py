"""Tests for the database server: handshake, auth, statements, the shared listener."""

import pytest

from repro.core import DrivolutionServer, StandaloneServerBinding, messages
from repro.dbapi import OperationalError, ProgrammingError
from repro.dbapi.runtime import RuntimeDriver
from repro.dbserver import DatabaseServer, PasswordAuthenticator, ServerConfig, TokenAuthenticator
from repro.dbserver.auth import compute_token
from repro.dbserver.wire import PROTOCOL_VERSION, MessageType, make_connect, make_execute
from repro.netsim import InMemoryNetwork
from repro.sqlengine import Engine


@pytest.fixture
def setup():
    network = InMemoryNetwork()
    engine = Engine(name="srv")
    engine.create_database("appdb")
    server = DatabaseServer(engine, network, "srv:5432", ServerConfig(name="srv")).start()
    yield network, engine, server
    server.stop()


class TestHandshake:
    def test_connect_and_execute(self, setup):
        network, _engine, _server = setup
        driver = RuntimeDriver()
        connection = driver.connect("pydb://srv:5432/appdb", network=network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        cursor.execute("INSERT INTO t (id) VALUES (1)")
        cursor.execute("SELECT COUNT(*) FROM t")
        assert cursor.fetchone() == (1,)
        connection.close()

    def test_unknown_database(self, setup):
        network, _engine, _server = setup
        driver = RuntimeDriver()
        with pytest.raises(OperationalError, match="unknown_database"):
            driver.connect("pydb://srv:5432/nope", network=network)

    def test_protocol_version_too_old(self, setup):
        network, _engine, _server = setup
        old_driver = RuntimeDriver(protocol_version=PROTOCOL_VERSION - 2)
        with pytest.raises(OperationalError, match="protocol"):
            old_driver.connect("pydb://srv:5432/appdb", network=network)

    def test_protocol_version_in_accepted_range(self, setup):
        network, _engine, _server = setup
        previous_generation = RuntimeDriver(protocol_version=PROTOCOL_VERSION - 1)
        connection = previous_generation.connect("pydb://srv:5432/appdb", network=network)
        assert not connection.closed
        connection.close()

    def test_server_unreachable(self, setup):
        network, _engine, _server = setup
        driver = RuntimeDriver()
        with pytest.raises(OperationalError):
            driver.connect("pydb://nowhere:5432/appdb", network=network)


class TestAuthentication:
    def test_password_auth_success_and_failure(self):
        network = InMemoryNetwork()
        engine = Engine(name="auth")
        engine.create_database("appdb")
        engine.create_user("alice", "secret")
        server = DatabaseServer(
            engine,
            network,
            "auth:5432",
            ServerConfig(name="auth", authenticators={"password": PasswordAuthenticator()}),
        ).start()
        driver = RuntimeDriver()
        connection = driver.connect("pydb://auth:5432/appdb", network=network, user="alice", password="secret")
        assert not connection.closed
        connection.close()
        with pytest.raises(OperationalError, match="auth_failed"):
            driver.connect("pydb://auth:5432/appdb", network=network, user="alice", password="bad")
        server.stop()

    def test_token_auth_requires_kerberos_extension(self):
        network = InMemoryNetwork()
        engine = Engine(name="kerb")
        engine.create_database("appdb")
        server = DatabaseServer(
            engine,
            network,
            "kerb:5432",
            ServerConfig(name="kerb", authenticators={"token": TokenAuthenticator("realm-secret")}),
        ).start()
        plain_driver = RuntimeDriver()
        # Plain driver only knows password auth, which the server does not offer.
        with pytest.raises(OperationalError, match="auth_method_unsupported"):
            plain_driver.connect("pydb://kerb:5432/appdb", network=network, user="bob")
        kerberos_driver = RuntimeDriver(extensions=["kerberos"])
        connection = kerberos_driver.connect(
            "pydb://kerb:5432/appdb", network=network, user="bob", realm_secret="realm-secret"
        )
        assert not connection.closed
        connection.close()
        wrong_realm = RuntimeDriver(extensions=["kerberos"])
        with pytest.raises(OperationalError, match="auth_failed"):
            wrong_realm.connect(
                "pydb://kerb:5432/appdb", network=network, user="bob", realm_secret="wrong"
            )
        server.stop()

    def test_compute_token_matches_authenticator(self):
        authenticator = TokenAuthenticator("s")
        assert authenticator.expected_token("u") == compute_token("s", "u")


class TestStatementsAndErrors:
    def test_sql_error_maps_to_programming_error(self, setup):
        network, _engine, _server = setup
        connection = RuntimeDriver().connect("pydb://srv:5432/appdb", network=network)
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT * FROM missing_table")
        # The connection survives a statement error.
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        connection.close()

    def test_ill_typed_execute_is_refused_and_the_session_keeps_serving(self, setup):
        # Raising out of the statement loop kills the session's thread:
        # the client reads a closed channel where it is owed an ERROR.
        network, _engine, _server = setup
        with network.connect("srv:5432", timeout=5.0) as channel:
            reply = channel.request(
                make_connect("appdb", PROTOCOL_VERSION), timeout=5.0
            )
            assert reply["type"] == MessageType.CONNECT_OK
            for fields in (
                {"sql": "SELECT ?", "positional": 5},
                {"sql": "SELECT 1", "params": [1]},
                {"sql": "SELECT 1", "params": "x"},
                {"sql": 7},
                {"sql": ["SELECT 1"]},
                {"sql": "SELECT ?", "positional": "ab"},
            ):
                reply = channel.request({"type": MessageType.EXECUTE, **fields}, timeout=5.0)
                assert reply["type"] == MessageType.ERROR, fields
                assert reply["code"] == "bad_message", fields
            # Same channel, well-formed frame: still served.
            reply = channel.request(make_execute("SELECT ?", positional=[5]), timeout=5.0)
            assert reply["type"] == MessageType.RESULT and reply["rows"] == [[5]]

    def test_ping(self, setup):
        network, _engine, _server = setup
        connection = RuntimeDriver().connect("pydb://srv:5432/appdb", network=network)
        assert connection.ping() is True
        connection.close()
        assert connection.ping() is False

    def test_active_session_tracking(self, setup):
        network, _engine, server = setup
        connection = RuntimeDriver().connect("pydb://srv:5432/appdb", network=network)
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert server.active_session_count() >= 1
        connection.close()

    def test_second_listener(self, setup):
        network, _engine, server = setup
        server.listen_also("srv-alt:5432")
        connection = RuntimeDriver().connect("pydb://srv-alt:5432/appdb", network=network)
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        connection.close()


class TestSharedListener:
    def test_drivolution_rows_are_served_on_the_database_listener(self, setup):
        # An attached Drivolution server's frames are rows of the
        # database listener's table, answered in Drivolution's protocol;
        # a type of no row gets the database's own ERROR, and the channel
        # keeps serving.
        network, _engine, server = setup
        DrivolutionServer(StandaloneServerBinding()).attach_to_database_server(server)
        with network.connect("srv:5432") as channel:
            reply = channel.request(messages.make_release("no-lease", "c"), timeout=5.0)
            assert reply == {"type": "drivolution_release_ack", "released": False}
            reply = channel.request({"type": "custom_hello", "x": 1}, timeout=5.0)
            assert reply["type"] == MessageType.ERROR and reply["code"] == "bad_message"
            reply = channel.request(make_connect("appdb", PROTOCOL_VERSION), timeout=5.0)
            assert reply["type"] == MessageType.CONNECT_OK
