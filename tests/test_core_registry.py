"""Tests for the Drivolution schema, registry, match-making and leases."""

import pytest

from repro.core import (
    DriverPermission,
    ExpirationPolicy,
    Matchmaker,
    DrivolutionRequest,
    RenewPolicy,
    install_drivolution_schema,
)
from repro.core.clock import SimulatedClock
from repro.core.matchmaker import NoMatchingDriver
from repro.core.registry import DriverRegistry, RegistryError, SessionBackend
from repro.dbapi.driver_factory import build_pydb_driver
from repro.sqlengine import Engine


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def registry(clock):
    engine = Engine(clock=clock)
    engine.create_database("db")
    session = engine.open_session("db")
    reg = DriverRegistry(SessionBackend(session), clock=clock)
    reg.install_schema()
    return reg


class TestSchema:
    def test_tables_created(self, registry, clock):
        engine = Engine(clock=clock)
        engine.create_database("db")
        session = engine.open_session("db")
        install_drivolution_schema(session.execute)
        names = session.execute("SELECT table_name FROM information_schema.tables").rows
        flat = {row[0] for row in names}
        assert {"drivers", "driver_permission", "leases"} <= flat
        # Idempotent.
        install_drivolution_schema(session.execute)


class TestDriverCrud:
    def test_install_get_list_remove(self, registry):
        package = build_pydb_driver("pydb-1.0.0", driver_version=(1, 0, 0), platform="cpython-any")
        driver_id = registry.install_driver(package)
        assert driver_id == 1
        restored = registry.get_driver(driver_id)
        assert restored.name == "pydb-1.0.0"
        assert restored.driver_version == (1, 0, 0)
        assert restored.platform == "cpython-any"
        assert restored.decode_source() == package.decode_source()
        assert [name for _id, name in ((i, p.name) for i, p in registry.list_drivers())] == ["pydb-1.0.0"]
        assert registry.remove_driver(driver_id)
        with pytest.raises(RegistryError):
            registry.get_driver(driver_id)

    def test_driver_ids_auto_increment(self, registry):
        first = registry.install_driver(build_pydb_driver("a"))
        second = registry.install_driver(build_pydb_driver("b"))
        assert second == first + 1

    def test_remove_driver_removes_its_permissions_and_leases_first(self, registry):
        """A driver with permission and lease rows is removed with them; a
        bare DELETE of it is refused while they reference it."""
        from repro.core.schema import DRIVERS_TABLE
        from repro.sqlengine import ConstraintViolation

        driver_id = registry.install_driver(build_pydb_driver("held"))
        registry.grant_permission(DriverPermission(driver_id=driver_id))
        registry.record_lease("client-1", driver_id, 1000, RenewPolicy.RENEW, ExpirationPolicy.AFTER_COMMIT)
        with pytest.raises(ConstraintViolation):
            registry._backend.execute(
                f"DELETE FROM {DRIVERS_TABLE} WHERE driver_id = $driver_id", {"driver_id": driver_id}
            )
        assert registry.get_driver(driver_id).name == "held"
        assert registry.remove_driver(driver_id)
        assert registry.list_permissions() == [] and registry.leases_for_client("client-1") == []
        with pytest.raises(RegistryError):
            registry.get_driver(driver_id)

    def test_permission_requires_existing_driver(self, registry):
        from repro.sqlengine import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            registry.grant_permission(DriverPermission(driver_id=42))


class TestPaperQueries:
    def test_query_drivers_preference_and_fallback(self, registry):
        registry.install_driver(
            build_pydb_driver("linux-driver", platform="linux-x86_64", driver_version=(1, 0, 0))
        )
        registry.install_driver(build_pydb_driver("any-driver", platform=None, driver_version=(2, 0, 0)))
        rows = registry.query_drivers("PYDB-API", client_platform="linux-x86_64")
        names = [row["driver_name"] for row in rows]
        assert set(names) == {"linux-driver", "any-driver"}
        # A platform with no specific driver still matches the NULL-platform one.
        rows = registry.query_drivers("PYDB-API", client_platform="windows-i586")
        assert [row["driver_name"] for row in rows] == ["any-driver"]
        # Unknown API: preference and fallback both empty.
        assert registry.query_drivers("ODBC", with_preferences=False) == []

    def test_query_permissions_filters(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        registry.grant_permission(
            DriverPermission(driver_id=driver_id, database="appdb", user="alice")
        )
        assert registry.query_permissions("appdb", "alice", None)
        assert not registry.query_permissions("otherdb", "alice", None)
        assert not registry.query_permissions("appdb", "bob", None)
        # NULL columns match anything.
        registry.grant_permission(DriverPermission(driver_id=driver_id))
        assert registry.query_permissions("anything", "anyone", "10.0.0.1")

    def test_permission_date_window(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        now = clock()
        registry.grant_permission(
            DriverPermission(driver_id=driver_id, start_date=now + 100, end_date=now + 200)
        )
        assert not registry.query_permissions(None, None, None)
        clock.advance(150)
        assert registry.query_permissions(None, None, None)
        clock.advance(100)
        assert not registry.query_permissions(None, None, None)

    def test_revoke_permissions_for_driver(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        registry.grant_permission(DriverPermission(driver_id=driver_id))
        assert registry.query_permissions(None, None, None)
        registry.revoke_permissions_for_driver(driver_id)
        assert not registry.query_permissions(None, None, None)


class TestMatchmaker:
    def test_latest_permission_wins(self, registry, clock):
        old_id = registry.install_driver(build_pydb_driver("old", driver_version=(1, 0, 0)))
        new_id = registry.install_driver(build_pydb_driver("new", driver_version=(2, 0, 0)))
        registry.grant_permission(DriverPermission(driver_id=old_id, database="appdb"))
        registry.grant_permission(DriverPermission(driver_id=new_id, database="appdb"))
        matchmaker = Matchmaker(registry)
        result = matchmaker.match(DrivolutionRequest(database="appdb", api_name="PYDB-API", client_platform="cpython-any"))
        assert result.driver_id == new_id

    def test_no_driver_at_all(self, registry, clock):
        matchmaker = Matchmaker(registry)
        with pytest.raises(NoMatchingDriver):
            matchmaker.match(DrivolutionRequest(database="appdb", api_name="PYDB-API", client_platform="x"))

    def test_distribution_table_governs_when_present(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        registry.grant_permission(DriverPermission(driver_id=driver_id, database="appdb"))
        matchmaker = Matchmaker(registry)
        # Another database is not covered by any permission: refused even
        # though the drivers table has a compatible driver.
        with pytest.raises(NoMatchingDriver):
            matchmaker.match(DrivolutionRequest(database="otherdb", api_name="PYDB-API", client_platform="x"))

    def test_unknown_database_rejected(self, registry, clock):
        registry.install_driver(build_pydb_driver("d"))
        matchmaker = Matchmaker(registry, known_databases=lambda: ["appdb"])
        with pytest.raises(NoMatchingDriver, match="invalid database"):
            matchmaker.match(DrivolutionRequest(database="ghost", api_name="PYDB-API", client_platform="x"))

    def test_policies_come_from_permission(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        registry.grant_permission(
            DriverPermission(
                driver_id=driver_id,
                database="appdb",
                lease_time_in_ms=12_345,
                renew_policy=RenewPolicy.UPGRADE,
                expiration_policy=ExpirationPolicy.IMMEDIATE,
            )
        )
        matchmaker = Matchmaker(registry)
        result = matchmaker.match(DrivolutionRequest(database="appdb", api_name="PYDB-API", client_platform="x"))
        assert result.lease_time_ms == 12_345
        assert result.renew_policy == RenewPolicy.UPGRADE
        assert result.expiration_policy == ExpirationPolicy.IMMEDIATE

    def test_binary_format_preference(self, registry, clock):
        from repro.core.constants import BinaryFormat

        registry.install_driver(build_pydb_driver("plain", binary_format=BinaryFormat.PYSRC))
        registry.install_driver(build_pydb_driver("zipped", binary_format=BinaryFormat.PYSRC_ZLIB))
        matchmaker = Matchmaker(registry)
        result = matchmaker.match(
            DrivolutionRequest(
                database="appdb",
                api_name="PYDB-API",
                client_platform="x",
                preferred_binary_format=BinaryFormat.PYSRC_ZLIB,
            )
        )
        assert result.driver_row["driver_name"] == "zipped"


class TestLeases:
    def test_grant_renew_release(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        lease = registry.record_lease(
            "client-1", driver_id, 10_000, RenewPolicy.RENEW, ExpirationPolicy.AFTER_COMMIT,
            database="appdb", user="alice",
        )
        assert [row["lease_id"] for row in registry.active_leases()] == [lease["lease_id"]]
        assert len(registry.active_leases(driver_id)) == 1
        # A renewal, as the server does it: release the presented lease, record a new one.
        registry.release_lease(lease["lease_id"])
        renewed = registry.record_lease(
            "client-1", driver_id, 10_000, RenewPolicy.RENEW, ExpirationPolicy.AFTER_COMMIT
        )
        assert renewed["lease_id"] != lease["lease_id"]
        assert len(registry.active_leases(driver_id)) == 1  # old one released
        assert registry.release_lease(renewed["lease_id"])
        assert len(registry.active_leases(driver_id)) == 0
        history = registry.leases_for_client("client-1")
        assert len(history) == 2

    def test_expiry_and_failure_detection(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        lease = registry.record_lease(
            "client-1", driver_id, 1_000, RenewPolicy.RENEW, ExpirationPolicy.AFTER_CLOSE
        )
        assert clock() < lease["expires_at"]
        assert lease["expires_at"] - clock() == pytest.approx(1.0)
        clock.advance(2.0)
        (row,) = registry.leases_for_client("client-1")
        assert clock() >= row["expires_at"]
        expired = [row for row in registry.unreleased_leases() if clock() >= row["expires_at"]]
        assert [item["lease_id"] for item in expired] == [lease["lease_id"]]

    def test_invalid_lease_time(self, registry, clock):
        driver_id = registry.install_driver(build_pydb_driver("d"))
        with pytest.raises(RegistryError):
            registry.record_lease("c", driver_id, 0, RenewPolicy.RENEW, ExpirationPolicy.AFTER_CLOSE)
