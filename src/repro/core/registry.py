"""Driver registry: SQL-backed management of the Drivolution tables.

The registry is the only component that touches the ``drivers``,
``driver_permission`` and ``leases`` tables, and it does so exclusively
through SQL so that it works identically whether the Drivolution server is

- **in-database** (executing against a local SQL session),
- **external** (executing through a legacy DB-API connection to a remote
  database, Section 4.1.3), or
- **standalone** (executing against its own embedded database,
  Section 4.1.4).

The two entry points used by the match-making logic are
:meth:`DriverRegistry.query_drivers` and
:meth:`DriverRegistry.query_permissions`, which run exactly the SQL of the
paper's Sample code 1 and Sample code 2.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.constants import DEFAULT_LEASE_TIME_MS, ExpirationPolicy, RenewPolicy, TransferMethod
from repro.core.package import DriverPackage
from repro.core.schema import DRIVERS_TABLE, LEASES_TABLE, PERMISSIONS_TABLE, install_drivolution_schema
from repro.errors import DrivolutionError


class RegistryError(DrivolutionError):
    """Driver registry operation failed."""


class SqlBackend:
    """Minimal SQL access interface used by the registry.

    ``query`` returns a list of row dictionaries; ``execute`` returns the
    affected row count. Two adapters are provided: one for local
    :class:`~repro.sqlengine.engine.Session` objects and one for DB-API
    connections (the external-server deployment).
    """

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> int:
        raise NotImplementedError


class SessionBackend(SqlBackend):
    """Backend over a local SQL engine session (in-database / standalone)."""

    def __init__(self, session) -> None:
        self._session = session

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        return self._session.execute(sql, params=params).as_dicts()

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> int:
        return self._session.execute(sql, params=params).rowcount


class ConnectionBackend(SqlBackend):
    """Backend over a DB-API connection (external Drivolution server)."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        cursor = self._connection.cursor()
        cursor.execute(sql, params or {})
        columns = [item[0] for item in (cursor.description or [])]
        rows = cursor.fetchall()
        cursor.close()
        return [dict(zip(columns, row)) for row in rows]

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> int:
        cursor = self._connection.cursor()
        cursor.execute(sql, params or {})
        rowcount = cursor.rowcount
        cursor.close()
        return rowcount


@dataclass
class DriverPermission:
    """One row of the driver_permission (distribution) table — paper Table 2."""

    driver_id: int
    user: Optional[str] = None
    client_ip: Optional[str] = None
    database: Optional[str] = None
    driver_options: Dict[str, Any] = field(default_factory=dict)
    start_date: Optional[float] = None
    end_date: Optional[float] = None
    lease_time_in_ms: int = DEFAULT_LEASE_TIME_MS
    renew_policy: RenewPolicy = RenewPolicy.RENEW
    expiration_policy: ExpirationPolicy = ExpirationPolicy.AFTER_COMMIT
    transfer_method: TransferMethod = TransferMethod.ANY
    permission_id: Optional[int] = None


def _encode_options(options: Dict[str, Any]) -> str:
    """Options travel in a VARCHAR column as ``k=v`` pairs (paper Table 2)."""
    return ";".join(f"{key}={value}" for key, value in sorted(options.items()))


def _decode_options(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    options: Dict[str, str] = {}
    for pair in text.split(";"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        options[key] = value
    return options


class DriverRegistry:
    """CRUD and match-making queries over the Drivolution tables."""

    def __init__(self, backend: SqlBackend, clock: Callable[[], float] = time.time) -> None:
        self._backend = backend
        self._clock = clock

    def rebind(self, backend: SqlBackend) -> None:
        """Continue over ``backend`` (an external server re-opened its
        legacy connection): the registry object, its clock and every
        reference held to it survive."""
        self._backend = backend
        self.install_schema()

    # -- schema ----------------------------------------------------------------

    def install_schema(self) -> None:
        """Create the Drivolution tables if they do not exist."""
        install_drivolution_schema(lambda sql: self._backend.execute(sql))

    # -- drivers (Table 1) --------------------------------------------------------

    def next_driver_id(self) -> int:
        rows = self._backend.query(f"SELECT MAX(driver_id) AS max_id FROM {DRIVERS_TABLE}")
        max_id = rows[0].get("max_id") if rows else None
        return int(max_id) + 1 if max_id is not None else 1

    def install_driver(self, package: DriverPackage, driver_id: Optional[int] = None) -> int:
        """Insert a driver package; returns its driver_id.

        This is the paper's single-step upgrade operation: "Add new driver
        to the Drivolution Server" is one INSERT.
        """
        if driver_id is None:
            driver_id = self.next_driver_id()
        api_major, api_minor = (package.api_version or (None, None))
        major, minor, micro = package.driver_version
        self._backend.execute(
            f"INSERT INTO {DRIVERS_TABLE} (driver_id, api_name, api_version_major, "
            "api_version_minor, platform, driver_version_major, driver_version_minor, "
            "driver_version_micro, binary_code, binary_format, driver_name, signature) "
            "VALUES ($driver_id, $api_name, $api_major, $api_minor, $platform, $major, "
            "$minor, $micro, $binary_code, $binary_format, $driver_name, $signature)",
            params={
                "driver_id": driver_id,
                "api_name": package.api_name,
                "api_major": api_major,
                "api_minor": api_minor,
                "platform": package.platform,
                "major": major,
                "minor": minor,
                "micro": micro,
                "binary_code": package.binary_code,
                "binary_format": package.binary_format,
                "driver_name": package.name,
                "signature": package.signature,
            },
        )
        return driver_id

    def remove_driver(self, driver_id: int) -> bool:
        """Delete a driver and its permissions/leases."""
        self._backend.execute(
            f"DELETE FROM {LEASES_TABLE} WHERE driver_id = $driver_id", {"driver_id": driver_id}
        )
        self._backend.execute(
            f"DELETE FROM {PERMISSIONS_TABLE} WHERE driver_id = $driver_id", {"driver_id": driver_id}
        )
        count = self._backend.execute(
            f"DELETE FROM {DRIVERS_TABLE} WHERE driver_id = $driver_id", {"driver_id": driver_id}
        )
        return count > 0

    def get_driver(self, driver_id: int) -> DriverPackage:
        rows = self._backend.query(
            f"SELECT * FROM {DRIVERS_TABLE} WHERE driver_id = $driver_id", {"driver_id": driver_id}
        )
        if not rows:
            raise RegistryError(f"driver {driver_id} not found")
        return self._row_to_package(rows[0])

    def list_drivers(self) -> List[Tuple[int, DriverPackage]]:
        rows = self._backend.query(f"SELECT * FROM {DRIVERS_TABLE} ORDER BY driver_id")
        return [(int(row["driver_id"]), self._row_to_package(row)) for row in rows]

    def find_drivers(self, location: str) -> List[Tuple[int, DriverPackage]]:
        """The rows holding the package at ``location`` (its one identity;
        a package installed twice, as a rollback does, has two rows)."""
        return [row for row in self.list_drivers() if row[1].location() == location]

    @staticmethod
    def row_version(row: Dict[str, Any]) -> Tuple[int, int, int]:
        """The driver version a ``drivers`` row carries."""
        return (
            int(row.get("driver_version_major") or 1),
            int(row.get("driver_version_minor") or 0),
            int(row.get("driver_version_micro") or 0),
        )

    @staticmethod
    def _row_to_package(row: Dict[str, Any]) -> DriverPackage:
        api_major = row.get("api_version_major")
        api_minor = row.get("api_version_minor")
        api_version = (int(api_major), int(api_minor or 0)) if api_major is not None else None
        return DriverPackage(
            name=str(row.get("driver_name") or f"driver-{row.get('driver_id')}"),
            api_name=str(row["api_name"]),
            binary_code=bytes(row["binary_code"]),
            binary_format=str(row["binary_format"]),
            api_version=api_version,
            platform=row.get("platform"),
            driver_version=DriverRegistry.row_version(row),
            signature=row.get("signature"),
        )

    # -- permissions (Table 2) -------------------------------------------------------

    def next_permission_id(self) -> int:
        rows = self._backend.query(f"SELECT MAX(permission_id) AS max_id FROM {PERMISSIONS_TABLE}")
        max_id = rows[0].get("max_id") if rows else None
        return int(max_id) + 1 if max_id is not None else 1

    @staticmethod
    def check_permission(permission: DriverPermission) -> None:
        """Raise :class:`RegistryError` for a row this server could not
        serve: a lease time that is not positive, or an unknown policy."""
        if permission.lease_time_in_ms <= 0:
            raise RegistryError(f"lease time must be positive, got {permission.lease_time_in_ms}")
        try:
            RenewPolicy.from_value(permission.renew_policy)
            ExpirationPolicy.from_value(permission.expiration_policy)
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"unknown lease policy: {exc}") from exc

    def grant_permission(self, permission: DriverPermission) -> int:
        self.check_permission(permission)
        permission_id = permission.permission_id or self.next_permission_id()
        self._backend.execute(
            f"INSERT INTO {PERMISSIONS_TABLE} (permission_id, user, client_ip, database, "
            "driver_id, driver_options, start_date, end_date, lease_time_in_ms, renew_policy, "
            "expiration_policy, transfer_method) VALUES ($permission_id, $user, $client_ip, "
            "$database, $driver_id, $driver_options, $start_date, $end_date, $lease_time_in_ms, "
            "$renew_policy, $expiration_policy, $transfer_method)",
            params={
                "permission_id": permission_id,
                "user": permission.user,
                "client_ip": permission.client_ip,
                "database": permission.database,
                "driver_id": permission.driver_id,
                "driver_options": _encode_options(permission.driver_options),
                "start_date": permission.start_date,
                "end_date": permission.end_date,
                "lease_time_in_ms": permission.lease_time_in_ms,
                "renew_policy": int(permission.renew_policy),
                "expiration_policy": int(permission.expiration_policy),
                "transfer_method": int(permission.transfer_method),
            },
        )
        return permission_id

    def revoke_permissions_for_driver(self, driver_id: int) -> int:
        """Disable a driver by expiring its distribution entries now.

        The paper: "Obsolete drivers can be disabled by either deleting
        them or setting the end_date to the current_date."
        """
        # A hair before "now" so that a non-advancing simulated clock still
        # sees the permission as expired on the very next query.
        now = self._clock() - 0.001
        return self._backend.execute(
            f"UPDATE {PERMISSIONS_TABLE} SET end_date = $now WHERE driver_id = $driver_id",
            {"now": now, "driver_id": driver_id},
        )

    def list_permissions(self) -> List[DriverPermission]:
        rows = self._backend.query(f"SELECT * FROM {PERMISSIONS_TABLE} ORDER BY permission_id")
        return [self._row_to_permission(row) for row in rows]

    @staticmethod
    def _row_to_permission(row: Dict[str, Any]) -> DriverPermission:
        return DriverPermission(
            permission_id=int(row["permission_id"]),
            user=row.get("user"),
            client_ip=row.get("client_ip"),
            database=row.get("database"),
            driver_id=int(row["driver_id"]),
            driver_options=_decode_options(row.get("driver_options")),
            start_date=row.get("start_date"),
            end_date=row.get("end_date"),
            lease_time_in_ms=int(row.get("lease_time_in_ms") or DEFAULT_LEASE_TIME_MS),
            renew_policy=RenewPolicy.from_value(row.get("renew_policy") or 0),
            expiration_policy=ExpirationPolicy.from_value(row.get("expiration_policy") or 0),
            transfer_method=TransferMethod(int(row.get("transfer_method", -1) if row.get("transfer_method") is not None else -1)),
        )

    # -- the paper's match-making queries ----------------------------------------------

    def query_permissions(
        self,
        database: Optional[str],
        user: Optional[str],
        client_ip: Optional[str],
    ) -> List[DriverPermission]:
        """Sample code 2: driver retrieval based on the distribution table."""
        rows = self._backend.query(
            f"SELECT * FROM {PERMISSIONS_TABLE} "
            "WHERE (database IS NULL OR database LIKE $user_database) "
            "AND (user IS NULL OR user LIKE $client_user) "
            "AND (client_ip IS NULL OR client_ip LIKE $client_client_ip) "
            "AND (start_date IS NULL OR now() >= start_date) "
            "AND (end_date IS NULL OR now() <= end_date) "
            # Most recently granted permission first, so that installing a
            # new driver makes it the one offered at the next renewal.
            "ORDER BY permission_id DESC",
            params={
                "user_database": database if database is not None else "%",
                "client_user": user if user is not None else "%",
                "client_client_ip": client_ip if client_ip is not None else "%",
            },
        )
        return [self._row_to_permission(row) for row in rows]

    def query_drivers(
        self,
        api_name: str,
        client_platform: Optional[str] = None,
        api_version: Optional[Tuple[int, int]] = None,
        driver_version: Optional[Tuple[int, int, int]] = None,
        with_preferences: bool = True,
    ) -> List[Dict[str, Any]]:
        """Sample code 1: driver retrieval based on client preferences.

        With ``with_preferences=False`` the preference clauses (in italics
        in the paper) are omitted — the fallback query issued when the
        strict one returns nothing.
        """
        params: Dict[str, Any] = {
            "client_api_name": api_name,
            "client_platform": client_platform if client_platform is not None else "%",
        }
        sql = (
            f"SELECT * FROM {DRIVERS_TABLE} "
            "WHERE api_name LIKE $client_api_name "
            "AND (platform IS NULL OR platform LIKE $client_platform)"
        )
        if with_preferences:
            params["client_api_version"] = api_version[0] if api_version else None
            params["client_driver_version"] = driver_version[0] if driver_version else None
            sql += (
                " AND ($client_api_version IS NULL OR api_version_major IS NULL "
                "OR $client_api_version = api_version_major)"
                " AND ($client_driver_version IS NULL OR driver_version_major IS NULL "
                "OR $client_driver_version = driver_version_major)"
            )
        sql += " ORDER BY driver_id DESC"
        return self._backend.query(sql, params)

    # -- leases -------------------------------------------------------------------------

    def record_lease(
        self,
        client_id: str,
        driver_id: int,
        lease_time_ms: int,
        renew_policy: RenewPolicy,
        expiration_policy: ExpirationPolicy,
        database: Optional[str] = None,
        user: Optional[str] = None,
        client_ip: Optional[str] = None,
        lease_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Insert one lease row; returns the row as a dict."""
        if lease_time_ms <= 0:
            raise RegistryError(f"lease time must be positive, got {lease_time_ms}")
        lease_id = lease_id or uuid.uuid4().hex
        granted_at = self._clock()
        expires_at = granted_at + lease_time_ms / 1000.0
        self._backend.execute(
            f"INSERT INTO {LEASES_TABLE} (lease_id, client_id, user, client_ip, database, "
            "driver_id, granted_at, expires_at, released_at, renew_policy, expiration_policy) "
            "VALUES ($lease_id, $client_id, $user, $client_ip, $database, $driver_id, "
            "$granted_at, $expires_at, NULL, $renew_policy, $expiration_policy)",
            params={
                "lease_id": lease_id,
                "client_id": client_id,
                "user": user,
                "client_ip": client_ip,
                "database": database,
                "driver_id": driver_id,
                "granted_at": granted_at,
                "expires_at": expires_at,
                "renew_policy": int(renew_policy),
                "expiration_policy": int(expiration_policy),
            },
        )
        return {
            "lease_id": lease_id,
            "client_id": client_id,
            "driver_id": driver_id,
            "granted_at": granted_at,
            "expires_at": expires_at,
        }

    def release_lease(self, lease_id: str) -> bool:
        count = self._backend.execute(
            f"UPDATE {LEASES_TABLE} SET released_at = $now WHERE lease_id = $lease_id "
            "AND released_at IS NULL",
            {"now": self._clock(), "lease_id": lease_id},
        )
        return count > 0

    def active_leases(self, driver_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Leases that have not been released and have not expired."""
        sql = (
            f"SELECT * FROM {LEASES_TABLE} WHERE released_at IS NULL AND expires_at > now()"
        )
        params: Dict[str, Any] = {}
        if driver_id is not None:
            sql += " AND driver_id = $driver_id"
            params["driver_id"] = driver_id
        return self._backend.query(sql, params)

    def unreleased_leases(self) -> List[Dict[str, Any]]:
        """Every lease that has not been voluntarily released (expired or not)."""
        return self._backend.query(
            f"SELECT * FROM {LEASES_TABLE} WHERE released_at IS NULL ORDER BY granted_at"
        )

    def leases_for_client(self, client_id: str) -> List[Dict[str, Any]]:
        return self._backend.query(
            f"SELECT * FROM {LEASES_TABLE} WHERE client_id = $client_id ORDER BY granted_at",
            {"client_id": client_id},
        )
