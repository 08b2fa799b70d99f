"""Tests for the DB-API layer: URLs, runtime driver behaviour, cursors, pool."""

import threading

import pytest

from repro.dbapi import ConnectionPool, InterfaceError, OperationalError, ProgrammingError, parse_url
from repro.dbapi.runtime import RuntimeDriver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.netsim import InMemoryNetwork
from repro.sqlengine import Engine


class TestUrls:
    def test_basic(self):
        url = parse_url("pydb://host:5432/mydb")
        assert url.scheme == "pydb"
        assert url.hosts == ("host:5432",)
        assert url.database == "mydb"

    def test_multi_host(self):
        url = parse_url("sequoia://c1:25322,c2:25322/vdb")
        assert url.hosts == ("c1:25322", "c2:25322")
        assert url.primary_host == "c1:25322"

    def test_options(self):
        url = parse_url("pydb://h:1/db?network=default&feature=gis")
        assert url.options == {"network": "default", "feature": "gis"}

    def test_render_roundtrip(self):
        original = "pydb://h:1/db?a=1&b=2"
        assert parse_url(parse_url(original).render()).options == {"a": "1", "b": "2"}

    def test_with_database(self):
        url = parse_url("pydb://h:1/db").with_database("other")
        assert url.database == "other"

    def test_invalid_urls(self):
        for bad in ("no-scheme", "pydb://", "://host/db", 42):
            with pytest.raises(InterfaceError):
                parse_url(bad)


@pytest.fixture
def db(network):
    engine = Engine(name="dbapi")
    engine.create_database("appdb")
    server = DatabaseServer(engine, network, "dbapi:5432", ServerConfig(name="dbapi")).start()
    connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v VARCHAR)")
    cursor.close()
    connection.close()
    yield network, engine
    server.stop()


class TestRuntimeConnection:
    def test_cursor_fetch_interfaces(self, db):
        network, _engine = db
        connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        cursor = connection.cursor()
        for index in range(5):
            cursor.execute("INSERT INTO t (id, v) VALUES ($id, 'x')", {"id": index + 1})
        cursor.execute("SELECT id FROM t ORDER BY id")
        assert cursor.rowcount == 5
        assert cursor.description[0][0] == "id"
        assert cursor.fetchone() == (1,)
        assert cursor.fetchmany(2) == [(2,), (3,)]
        assert cursor.fetchall() == [(4,), (5,)]
        assert cursor.fetchone() is None
        connection.close()

    def test_cursor_iteration_and_executemany(self, db):
        network, _engine = db
        connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        cursor = connection.cursor()
        cursor.executemany(
            "INSERT INTO t (id, v) VALUES ($id, $v)",
            [{"id": 10, "v": "a"}, {"id": 11, "v": "b"}],
        )
        cursor.execute("SELECT v FROM t ORDER BY id")
        assert [row[0] for row in cursor] == ["a", "b"]
        connection.close()

    def test_transactions_and_in_transaction_flag(self, db):
        network, _engine = db
        connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        assert not connection.in_transaction
        connection.begin()
        assert connection.in_transaction
        cursor = connection.cursor()
        cursor.execute("INSERT INTO t (id, v) VALUES (1, 'tx')")
        connection.rollback()
        assert not connection.in_transaction
        cursor.execute("SELECT COUNT(*) FROM t")
        assert cursor.fetchone() == (0,)
        connection.close()

    def test_close_rolls_back_open_transaction(self, db):
        network, _engine = db
        connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        connection.begin()
        cursor = connection.cursor()
        cursor.execute("INSERT INTO t (id, v) VALUES (1, 'tx')")
        connection.close()
        check = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        cursor = check.cursor()
        cursor.execute("SELECT COUNT(*) FROM t")
        assert cursor.fetchone() == (0,)
        check.close()

    def test_closed_connection_rejects_use(self, db):
        network, _engine = db
        connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        connection.close()
        with pytest.raises(InterfaceError):
            connection.cursor()

    def test_split_execute_holds_the_exchange_until_collected(self, db):
        """send_execute puts the statement on the wire and returns its
        collect; a close() from another thread waits for that reply, and
        a statement error surfaces at the collect without wedging the
        connection."""
        network, _engine = db
        connection = RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)
        with pytest.raises(ProgrammingError):
            connection.send_execute("SELECT * FROM missing")()
        collect = connection.send_execute("INSERT INTO t (id, v) VALUES ($id, 'x')", {"id": 1})
        closer = threading.Thread(target=connection.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()
        assert collect()[2] == 1
        closer.join(timeout=5.0)
        assert not closer.is_alive() and connection.closed
        with pytest.raises(InterfaceError):
            connection.send_execute("SELECT 1")

    def test_preconfigured_url_overrides_application_url(self, db):
        network, _engine = db
        preconfigured = RuntimeDriver(preconfigured_url="pydb://dbapi:5432/appdb")
        # The application names a host that does not exist; the driver
        # ignores it (paper Section 5.2).
        connection = preconfigured.connect("pydb://ignored-host:1/ignored", network=network)
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        connection.close()

    def test_driver_info_and_supports(self, db):
        network, _engine = db
        driver = RuntimeDriver(name="pydb-x", driver_version=(3, 1, 4), extensions=["gis"])
        connection = driver.connect("pydb://dbapi:5432/appdb", network=network)
        assert connection.driver_info["name"] == "pydb-x"
        assert connection.driver_info["driver_version"] == (3, 1, 4)
        assert connection.supports("gis")
        assert not connection.supports("nls-fr")
        connection.close()

    def test_open_connections_tracking(self, db):
        network, _engine = db
        driver = RuntimeDriver()
        connections = [driver.connect("pydb://dbapi:5432/appdb", network=network) for _ in range(3)]
        assert len(driver.open_connections()) == 3
        driver.close_all()
        assert driver.open_connections() == []
        assert all(connection.closed for connection in connections)


class TestConnectionPool:
    def _factory(self, db):
        network, _engine = db

        def factory():
            return RuntimeDriver().connect("pydb://dbapi:5432/appdb", network=network)

        return factory

    def test_acquire_release_reuses_connections(self, db):
        pool = ConnectionPool(self._factory(db), min_size=1, max_size=3)
        first = pool.acquire()
        pool.release(first)
        second = pool.acquire()
        assert second is first  # reused, not closed
        pool.release(second)
        pool.close()

    def test_max_size_enforced(self, db):
        pool = ConnectionPool(self._factory(db), max_size=2)
        a = pool.acquire()
        b = pool.acquire()
        with pytest.raises(OperationalError):
            pool.acquire(timeout=0.05)
        pool.release(a)
        c = pool.acquire(timeout=1.0)
        assert c is a
        pool.release(b)
        pool.release(c)
        pool.close()

    def test_release_foreign_connection_rejected(self, db):
        pool = ConnectionPool(self._factory(db), max_size=2)
        foreign = self._factory(db)()
        with pytest.raises(InterfaceError):
            pool.release(foreign)
        foreign.close()
        pool.close()

    def test_invalidate_idle_replenishes_to_min_size(self, db):
        pool = ConnectionPool(self._factory(db), min_size=2, max_size=4)
        stale = pool.acquire()
        pool.release(stale)
        assert pool.invalidate_idle() == 2
        # The floor is maintained with fresh connections, not left empty.
        assert pool.stats()["idle"] == 2
        fresh = pool.acquire()
        assert fresh is not stale
        assert not fresh.closed
        pool.release(fresh)
        pool.close()

    def test_invalidate_idle_without_floor_leaves_pool_empty(self, db):
        pool = ConnectionPool(self._factory(db), min_size=0, max_size=4)
        pool.release(pool.acquire())
        assert pool.invalidate_idle() == 1
        assert pool.stats()["idle"] == 0
        pool.close()

    def test_pool_never_shrinks_below_min_size(self, db):
        pool = ConnectionPool(self._factory(db), min_size=2, max_size=4)
        # Kill the idle connections behind the pool's back.
        first = pool.acquire()
        second = pool.acquire()
        first.close()
        second.close()
        pool.release(first)
        pool.release(second)
        stats = pool.stats()
        assert stats["idle"] + stats["busy"] == 2
        # Acquiring still works and hands out live connections.
        replacement = pool.acquire()
        assert not replacement.closed
        pool.release(replacement)
        pool.close()

    def test_acquire_replaces_dead_idle_connections(self, db):
        pool = ConnectionPool(self._factory(db), min_size=1, max_size=2)
        victim = pool.acquire()
        victim.close()
        pool.release(victim)  # dropped: closed connections never go idle
        connection = pool.acquire()
        assert not connection.closed
        stats = pool.stats()
        assert stats["idle"] + stats["busy"] >= 1
        assert stats["min_size"] == 1
        pool.release(connection)
        pool.close()

    def test_pool_close_rejects_acquire(self, db):
        pool = ConnectionPool(self._factory(db), max_size=2)
        pool.close()
        with pytest.raises(InterfaceError):
            pool.acquire()

    def test_invalid_sizing(self, db):
        with pytest.raises(ValueError):
            ConnectionPool(self._factory(db), min_size=5, max_size=2)

    def test_closed_connection_not_returned_to_pool(self, db):
        pool = ConnectionPool(self._factory(db), max_size=2)
        connection = pool.acquire()
        connection.close()
        pool.release(connection)
        assert pool.stats()["idle"] == 0
        pool.close()
