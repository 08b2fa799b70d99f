"""Tests for the DBA admin operations."""

import threading

import pytest

from repro.core import (
    DriverPackage,
    DriverSigner,
    DrivolutionAdmin,
    DrivolutionRequest,
    DrivolutionServer,
    StandaloneServerBinding,
    messages,
)
from repro.core.constants import ExpirationPolicy, RenewPolicy
from repro.core.registry import RegistryError
from repro.core.schema import PERMISSIONS_TABLE
from repro.dbapi.driver_factory import build_pydb_driver
from repro.errors import DrivolutionError


class TestAdmin:
    def test_requires_at_least_one_server(self):
        with pytest.raises(DrivolutionError):
            DrivolutionAdmin([])

    def test_install_grants_permission_with_policies(self, single_db_env):
        env = single_db_env
        record = env.admin.install_driver(
            build_pydb_driver("pydb-1.0.0"),
            database=env.database_name,
            lease_time_ms=5_000,
            renew_policy=RenewPolicy.RENEW,
            expiration_policy=ExpirationPolicy.AFTER_CLOSE,
        )
        assert record.name == "pydb-1.0.0"
        permissions = env.drivolution.registry.list_permissions()
        assert permissions[-1].lease_time_in_ms == 5_000
        assert permissions[-1].renew_policy == RenewPolicy.RENEW
        assert permissions[-1].expiration_policy == ExpirationPolicy.AFTER_CLOSE
        assert env.admin.installed_drivers()[env.drivolution.server_id] == ["pydb-1.0.0"]

    def test_install_signs_packages_when_signer_configured(self, single_db_env):
        env = single_db_env
        signer = DriverSigner(b"key")
        env.admin.signer = signer
        record = env.admin.install_driver(build_pydb_driver("signed"), database=env.database_name)
        ((_driver_id, stored),) = env.drivolution.registry.find_drivers(record.location())
        assert stored.signature is not None and stored.signature == record.signature
        assert signer.verify(stored)

    def test_push_upgrade_expires_old_driver(self, single_db_env):
        env = single_db_env
        old = env.admin.install_driver(build_pydb_driver("v1"), database=env.database_name)
        env.admin.push_upgrade(build_pydb_driver("v2"), old_record=old, database=env.database_name)
        active_permissions = env.drivolution.registry.query_permissions(
            env.database_name, None, None
        )
        active_driver_ids = {permission.driver_id for permission in active_permissions}
        ((old_driver_id, _),) = env.drivolution.registry.find_drivers(old.location())
        assert old_driver_id not in active_driver_ids

    def test_remove_driver_deletes_rows(self, single_db_env):
        env = single_db_env
        record = env.admin.install_driver(build_pydb_driver("gone"), database=env.database_name)
        env.admin.remove_driver(record)
        assert env.admin.installed_drivers()[env.drivolution.server_id] == []

    def test_operation_log_counts_steps(self, single_db_env):
        env = single_db_env
        before = env.admin.step_count()
        record = env.admin.install_driver(build_pydb_driver("a"), database=env.database_name)
        env.admin.revoke_driver(record)
        assert env.admin.step_count() == before + 2


def _live_driver_ids(server, database):
    return {permission.driver_id for permission in server.registry.query_permissions(database, None, None)}


class TestThePackageIsTheHandle:
    """The admin names a driver by its package; each server numbers its
    own rows, and a package installed twice has two."""

    def test_revoke_and_remove_act_on_every_servers_numbering(self, clock):
        d1, d2 = servers = [
            DrivolutionServer(StandaloneServerBinding(clock=clock), clock=clock, server_id=f"d{n}")
            for n in (1, 2)
        ]
        DrivolutionAdmin([d2]).install_driver(
            build_pydb_driver("pydb-earlier", driver_version=(0, 9, 0)), database="appdb"
        )
        admin = DrivolutionAdmin(servers)
        package = admin.install_driver(
            build_pydb_driver("pydb-A", driver_version=(1, 0, 0)), database="appdb"
        )
        ids = {d.server_id: [row[0] for row in d.registry.find_drivers(package.location())] for d in servers}
        assert ids == {"d1": [1], "d2": [2]}
        assert all(ids[d.server_id][0] in _live_driver_ids(d, "appdb") for d in servers)

        admin.revoke_driver(package, notify=False)
        for server in servers:
            assert not _live_driver_ids(server, "appdb") & set(ids[server.server_id])
        # The other driver on d2 keeps its permission.
        assert _live_driver_ids(d2, "appdb") == {1}

        admin.remove_driver(package)
        assert admin.installed_drivers() == {"d1": [], "d2": ["pydb-earlier"]}

    def test_a_rolled_back_package_has_two_rows_served_and_revoked_together(self, single_db_env):
        env = single_db_env
        server = env.drivolution
        good = env.admin.install_driver(build_pydb_driver("pydb-good"), database=env.database_name)
        bad = env.admin.push_upgrade(
            build_pydb_driver("pydb-bad", driver_version=(2, 0, 0)),
            old_record=good,
            database=env.database_name,
        )
        env.admin.rollback_upgrade(bad, build_pydb_driver("pydb-good"), database=env.database_name)
        rows = server.registry.find_drivers(good.location())
        assert [package.name for _, package in rows] == ["pydb-good", "pydb-good"]
        request = DrivolutionRequest(
            database=env.database_name, api_name="PYDB-API", client_platform="cpython-any"
        )
        with env.network.connect(env.db_address) as channel:
            data = channel.request(messages.make_file_request(good.location(), ""), timeout=2.0)
            assert data["type"] == messages.FILE_DATA
            assert DriverPackage.from_wire(data["package"]).location() == good.location()
            assert channel.request(request.to_wire(), timeout=2.0)["driver_location"] == good.location()

            env.admin.revoke_driver(good, notify=False)
            assert not _live_driver_ids(server, env.database_name) & {driver_id for driver_id, _ in rows}
            answer = channel.request(request.to_wire(), timeout=2.0)
            assert answer.get("driver_location") != good.location()
            assert answer["type"] == messages.ERROR and answer["code"] == "no_driver"


class TestAPermissionRowTheServerCannotRead:
    """A row the server could not serve is refused where it is written; one
    already stored (written around the admin) is a server fault: the
    channel ends and clients keep their driver."""

    def test_a_non_positive_lease_time_is_refused_before_any_row_is_written(self, clock):
        servers = [
            DrivolutionServer(StandaloneServerBinding(clock=clock), clock=clock, server_id=f"d{n}")
            for n in (1, 2)
        ]
        admin = DrivolutionAdmin(servers)
        with pytest.raises(RegistryError, match="lease time"):
            admin.install_driver(build_pydb_driver("pydb-A"), database="appdb", lease_time_ms=-1000)
        with pytest.raises(RegistryError, match="policy"):
            admin.install_driver(build_pydb_driver("pydb-A"), database="appdb", renew_policy=7)
        for server in servers:
            assert server.registry.list_drivers() == []
            assert server.registry.list_permissions() == []

    def test_an_unreadable_stored_policy_leaves_clients_on_their_driver(self, single_db_env, monkeypatch):
        env = single_db_env
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        env.admin.install_driver(build_pydb_driver("pydb-1.0.0"), database=env.database_name)
        bootloader = env.new_bootloader()
        bootloader.connect(env.url).close()
        driver = bootloader.current_driver
        env.open_sql_session().execute(f"UPDATE {PERMISSIONS_TABLE} SET renew_policy = 7")
        assert bootloader.check_for_update(force=True) == "server_unreachable"
        assert bootloader.current_driver is driver and not bootloader.revoked
        assert env.drivolution.stats.errors == 1
        assert crashes == []
