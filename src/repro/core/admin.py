"""DBA-facing administration operations (paper Sections 3.2, 5.1, 5.2).

The admin wraps a :class:`~repro.core.server.DrivolutionServer` (or a set
of replicated servers) and exposes the operations the case studies
perform:

- install a driver (the one-step upgrade of Section 3.2),
- revoke/disable a driver,
- grant distribution permissions (who gets which driver, with which lease
  time and policies),
- push a pre-configured driver for failover (Section 5.2): mark the old
  driver expired and make the new one the offered driver,
- roll back an upgrade by restoring the previous driver.

Every operation optionally fans out to replica servers (the embedded
Sequoia deployment of Section 5.3.2 replicates the Drivolution state in
each controller) and triggers notification-channel pushes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro.core.constants import DEFAULT_LEASE_TIME_MS, ExpirationPolicy, RenewPolicy
from repro.core.package import DriverPackage, DriverSigner
from repro.core.registry import DriverPermission, DriverRegistry
from repro.core.server import DrivolutionServer
from repro.errors import DrivolutionError


class DrivolutionAdmin:
    """Administration console for one or more (replicated) Drivolution servers.

    A driver is named by its package: each server numbers its own rows,
    and every operation acts on the rows whose package has the same
    ``location()``.
    """

    def __init__(
        self,
        servers: Sequence[DrivolutionServer],
        signer: Optional[DriverSigner] = None,
        default_lease_time_ms: int = DEFAULT_LEASE_TIME_MS,
    ) -> None:
        if not servers:
            raise DrivolutionError("admin needs at least one Drivolution server")
        self.servers = list(servers)
        self.signer = signer
        self.default_lease_time_ms = default_lease_time_ms
        #: Ordered log of administrative steps, used by the lifecycle
        #: experiments to count operations (paper Table 5).
        self.operation_log: List[str] = []

    # -- install / upgrade -------------------------------------------------------

    def install_driver(
        self,
        package: DriverPackage,
        database: Optional[str] = None,
        user: Optional[str] = None,
        client_ip: Optional[str] = None,
        driver_options: Optional[Dict[str, Any]] = None,
        lease_time_ms: Optional[int] = None,
        renew_policy: RenewPolicy = RenewPolicy.UPGRADE,
        expiration_policy: ExpirationPolicy = ExpirationPolicy.AFTER_COMMIT,
        start_date: Optional[float] = None,
        end_date: Optional[float] = None,
        notify: bool = True,
    ) -> DriverPackage:
        """Install a driver and grant its distribution permission; returns
        the installed package (signed when this admin has a signer).

        This is the paper's single-step client-wide upgrade: one INSERT into
        the drivers table (plus its permission row) on the Drivolution
        server, replicated to every peer server given at construction time.
        """
        if self.signer is not None and package.signature is None:
            package = package.signed_by(self.signer)
        permission = DriverPermission(
            driver_id=0,
            database=database,
            user=user,
            client_ip=client_ip,
            driver_options=dict(driver_options or {}),
            start_date=start_date,
            end_date=end_date,
            lease_time_in_ms=(
                lease_time_ms if lease_time_ms is not None else self.default_lease_time_ms
            ),
            renew_policy=renew_policy,
            expiration_policy=expiration_policy,
        )
        # Refused before any server holds a driver row for it.
        DriverRegistry.check_permission(permission)
        for server in self.servers:
            driver_id = server.registry.install_driver(package)
            server.registry.grant_permission(replace(permission, driver_id=driver_id))
        self.operation_log.append(f"install_driver:{package.name}")
        if notify:
            for server in self.servers:
                server.notify_update(package.api_name, database)
        return package

    def _driver_ids(self, server: DrivolutionServer, package: DriverPackage) -> List[int]:
        return [driver_id for driver_id, _ in server.registry.find_drivers(package.location())]

    def revoke_driver(self, package: DriverPackage, notify: bool = True) -> None:
        """Disable a driver on every server by expiring its permissions."""
        for server in self.servers:
            for driver_id in self._driver_ids(server, package):
                server.registry.revoke_permissions_for_driver(driver_id)
        self.operation_log.append(f"revoke_driver:{package.name}")
        if notify:
            for server in self.servers:
                server.notify_update(package.api_name)

    def remove_driver(self, package: DriverPackage) -> None:
        """Delete a driver entirely (permissions and leases included)."""
        for server in self.servers:
            for driver_id in self._driver_ids(server, package):
                server.registry.remove_driver(driver_id)
        self.operation_log.append(f"remove_driver:{package.name}")

    def push_upgrade(
        self, new_package: DriverPackage, old_record: Optional[DriverPackage] = None, **install: Any
    ) -> DriverPackage:
        """Upgrade clients to ``new_package``: expire the old driver's
        permissions and install the new driver (``install`` is passed to
        :meth:`install_driver`) in one administrative step.

        Used by the master/slave failover case study: ``new_package`` is the
        pre-configured DBslave driver and ``old_record`` the DBmaster one.
        """
        if old_record is not None:
            self.revoke_driver(old_record, notify=False)
        return self.install_driver(new_package, **install)

    def rollback_upgrade(
        self, bad_record: DriverPackage, good_package: DriverPackage, **install: Any
    ) -> DriverPackage:
        """Revert a faulty upgrade: expire the bad driver and re-offer the
        known-good package (paper Section 3.2: "the administrator can revert
        the driver in the Drivolution server")."""
        package = self.push_upgrade(good_package, old_record=bad_record, **install)
        self.operation_log.append(f"rollback_to:{good_package.name}")
        return package

    # -- observability --------------------------------------------------------------

    def installed_drivers(self) -> Dict[str, List[str]]:
        """Driver names installed on each server (sanity-check helper)."""
        return {
            server.server_id: [package.name for _id, package in server.registry.list_drivers()]
            for server in self.servers
        }

    def step_count(self) -> int:
        """Number of administrative operations performed so far."""
        return len(self.operation_log)
