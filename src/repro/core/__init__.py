"""Drivolution core — the paper's contribution.

The subpackages follow the paper's structure:

- :mod:`repro.core.package` — the driver package format stored as a BLOB in
  the database (Table 1) plus signing (Section 3.1).
- :mod:`repro.core.schema` — the ``drivers``, ``driver_permission`` and
  ``leases`` information-schema tables (Tables 1 and 2).
- :mod:`repro.core.messages` — the DHCP-inspired bootstrap protocol:
  ``DRIVOLUTION_REQUEST``, ``OFFER``, ``ERROR``, ``DISCOVER`` and the FILE
  transfer messages (Tables 3 and 4).
- :mod:`repro.core.matchmaker` — driver match-making with the SQL of
  Sample code 1 and 2.
- :mod:`repro.core.registry` — the one reader and writer of the driver,
  permission and lease tables.
- :mod:`repro.core.server` — the Drivolution Server in its in-database,
  external and standalone deployments (Section 4).
- :mod:`repro.core.loader` — dynamic loading of driver code blobs.
- :mod:`repro.core.bootloader` — the client-side bootloader (Section 3.1.1):
  one driver transition (``Bootloader._switch_driver``) for acquisition,
  lease renewal, upgrade and revocation; broadcast discovery of replicated
  Drivolution servers is ``Bootloader._discover``.
- :mod:`repro.core.policies` — RENEW/UPGRADE/REVOKE and
  AFTER_CLOSE/AFTER_COMMIT/IMMEDIATE policy machinery (Section 3.3).
- :mod:`repro.core.assembly` — on-demand driver assembly (Section 5.4.1).
- :mod:`repro.core.license_server` — license management (Section 5.4.2).
- :mod:`repro.core.admin` — DBA operations used by the case studies.
"""

from repro.core.constants import (
    RenewPolicy,
    ExpirationPolicy,
    TransferMethod,
    BinaryFormat,
)
from repro.core.package import DriverPackage, DriverSigner, PackageError
from repro.core.schema import install_drivolution_schema, DRIVERS_TABLE, PERMISSIONS_TABLE, LEASES_TABLE
from repro.core.messages import (
    DrivolutionRequest,
    DrivolutionOffer,
    DrivolutionErrorMessage,
    DrivolutionDiscover,
)
from repro.core.registry import DriverRegistry, DriverPermission
from repro.core.matchmaker import Matchmaker
from repro.core.server import DrivolutionServer, InDatabaseServerBinding, StandaloneServerBinding, ExternalServerBinding
from repro.core.loader import DriverLoader, LoadedDriver
from repro.core.bootloader import Bootloader, BootloaderConfig
from repro.core.admin import DrivolutionAdmin
from repro.core.assembly import DriverAssembler
from repro.core.license_server import LicenseServer, LicensePolicy
from repro.errors import DrivolutionError

__all__ = [
    "RenewPolicy",
    "ExpirationPolicy",
    "TransferMethod",
    "BinaryFormat",
    "DriverPackage",
    "DriverSigner",
    "PackageError",
    "install_drivolution_schema",
    "DRIVERS_TABLE",
    "PERMISSIONS_TABLE",
    "LEASES_TABLE",
    "DrivolutionRequest",
    "DrivolutionOffer",
    "DrivolutionErrorMessage",
    "DrivolutionDiscover",
    "DriverRegistry",
    "DriverPermission",
    "Matchmaker",
    "DrivolutionServer",
    "InDatabaseServerBinding",
    "StandaloneServerBinding",
    "ExternalServerBinding",
    "DriverLoader",
    "LoadedDriver",
    "Bootloader",
    "BootloaderConfig",
    "DrivolutionAdmin",
    "DriverAssembler",
    "LicenseServer",
    "LicensePolicy",
    "DrivolutionError",
]
