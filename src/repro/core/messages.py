"""Drivolution bootstrap protocol messages (paper Section 3.4, Tables 3 and 4).

The protocol is deliberately DHCP-like and has only a handful of message
types:

- ``DRIVOLUTION_REQUEST`` — sent by the bootloader with the database name,
  user, API name and optional version, client platform and optional
  preferences (no secret: it goes only to the database that checks it),
- ``DRIVOLUTION_OFFER`` — sent back by the server with the lease, the
  policies and the driver location/format (the driver itself travels in a
  ``FILE_DATA`` message after a ``FILE_REQUEST``),
- ``DRIVOLUTION_ERROR`` — no matching driver / invalid database / lease
  revoked, with an optional plain-text detail,
- ``DRIVOLUTION_DISCOVER`` — broadcast variant of the request used with
  replicated servers,
- ``FILE_REQUEST`` / ``FILE_DATA`` — the driver file transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import DrivolutionError

REQUEST = "drivolution_request"
OFFER = "drivolution_offer"
ERROR = "drivolution_error"
DISCOVER = "drivolution_discover"
FILE_REQUEST = "drivolution_file_request"
FILE_DATA = "drivolution_file_data"
RELEASE = "drivolution_release"
SUBSCRIBE = "drivolution_subscribe"
UPDATE_AVAILABLE = "drivolution_update_available"

#: Prefix shared by every Drivolution message type.
MESSAGE_PREFIX = "drivolution_"


class ProtocolError(DrivolutionError):
    """Malformed or unexpected Drivolution protocol message."""


@dataclass
class DrivolutionRequest:
    """``DRIVOLUTION_REQUEST`` payload."""

    database: str
    api_name: str
    client_platform: str
    user: Optional[str] = None
    api_version: Optional[Tuple[int, int]] = None
    preferred_binary_format: Optional[str] = None
    preferred_driver_version: Optional[Tuple[int, int, int]] = None
    client_id: str = ""
    client_ip: str = ""
    current_lease_id: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        return {
            "type": REQUEST,
            "database": self.database,
            "api_name": self.api_name,
            "client_platform": self.client_platform,
            "user": self.user,
            "api_version": list(self.api_version) if self.api_version else None,
            "preferred_binary_format": self.preferred_binary_format,
            "preferred_driver_version": (
                list(self.preferred_driver_version) if self.preferred_driver_version else None
            ),
            "client_id": self.client_id,
            "client_ip": self.client_ip,
            "current_lease_id": self.current_lease_id,
        }

    @staticmethod
    def from_wire(message: Dict[str, Any]) -> "DrivolutionRequest":
        if message.get("type") not in (REQUEST, DISCOVER):
            raise ProtocolError(f"expected {REQUEST}, got {message.get('type')!r}")
        api_version = message.get("api_version")
        driver_version = message.get("preferred_driver_version")
        return DrivolutionRequest(
            database=str(message.get("database", "")),
            api_name=str(message.get("api_name", "")),
            client_platform=str(message.get("client_platform", "")),
            user=message.get("user"),
            api_version=tuple(api_version) if api_version else None,
            preferred_binary_format=message.get("preferred_binary_format"),
            preferred_driver_version=tuple(driver_version) if driver_version else None,
            client_id=str(message.get("client_id", "")),
            client_ip=str(message.get("client_ip", "")),
            current_lease_id=message.get("current_lease_id"),
        )


@dataclass
class DrivolutionDiscover(DrivolutionRequest):
    """``DRIVOLUTION_DISCOVER`` — same payload as a request, broadcast."""

    def to_wire(self) -> Dict[str, Any]:
        wire = super().to_wire()
        wire["type"] = DISCOVER
        return wire


@dataclass
class DrivolutionOffer:
    """``DRIVOLUTION_OFFER`` payload.

    ``driver_location`` names the offered package by content
    (``DriverPackage.location()``) and is what ``FILE_REQUEST`` asks for; an
    offer with ``includes_file`` False ships no file (Table 4: "a
    DRIVOLUTION_OFFER without data file instructs the bootloader to
    continue to use the same driver").
    """

    lease_id: str
    lease_time_ms: int
    driver_id: int
    driver_location: str
    binary_format: str
    renew_policy: int
    expiration_policy: int
    driver_version: Tuple[int, int, int] = (1, 0, 0)
    driver_options: Dict[str, Any] = field(default_factory=dict)
    includes_file: bool = True
    server_id: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return {
            "type": OFFER,
            "lease_id": self.lease_id,
            "lease_time_ms": self.lease_time_ms,
            "driver_id": self.driver_id,
            "driver_location": self.driver_location,
            "binary_format": self.binary_format,
            "renew_policy": int(self.renew_policy),
            "expiration_policy": int(self.expiration_policy),
            "driver_version": list(self.driver_version),
            "driver_options": self.driver_options,
            "includes_file": self.includes_file,
            "server_id": self.server_id,
        }

    @staticmethod
    def from_wire(message: Dict[str, Any]) -> "DrivolutionOffer":
        if message.get("type") != OFFER:
            raise ProtocolError(f"expected {OFFER}, got {message.get('type')!r}")
        return DrivolutionOffer(
            lease_id=str(message.get("lease_id", "")),
            lease_time_ms=int(message.get("lease_time_ms", 0)),
            driver_id=int(message.get("driver_id", -1)),
            driver_location=str(message.get("driver_location", "")),
            binary_format=str(message.get("binary_format", "")),
            renew_policy=int(message.get("renew_policy", 0)),
            expiration_policy=int(message.get("expiration_policy", 0)),
            driver_version=tuple(message.get("driver_version", (1, 0, 0))),
            driver_options=dict(message.get("driver_options") or {}),
            includes_file=bool(message.get("includes_file", True)),
            server_id=str(message.get("server_id", "")),
        )


@dataclass
class DrivolutionErrorMessage:
    """``DRIVOLUTION_ERROR`` payload with an optional plain-text detail."""

    code: str
    detail: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return {"type": ERROR, "code": self.code, "detail": self.detail}

    @staticmethod
    def from_wire(message: Dict[str, Any]) -> "DrivolutionErrorMessage":
        if message.get("type") != ERROR:
            raise ProtocolError(f"expected {ERROR}, got {message.get('type')!r}")
        return DrivolutionErrorMessage(
            code=str(message.get("code", "unknown")), detail=str(message.get("detail", ""))
        )


def make_file_request(driver_location: str, lease_id: str) -> Dict[str, Any]:
    """``FILE_REQUEST(driver_file)``."""
    return {"type": FILE_REQUEST, "driver_location": driver_location, "lease_id": lease_id}


def make_file_data(package_wire: Dict[str, Any]) -> Dict[str, Any]:
    """``FILE_DATA(binary_code)`` carrying a serialised driver package."""
    return {"type": FILE_DATA, "package": package_wire}


def make_release(lease_id: str, client_id: str) -> Dict[str, Any]:
    """Voluntary lease release (used by the license-server case study)."""
    return {"type": RELEASE, "lease_id": lease_id, "client_id": client_id}


def make_subscribe(client_id: str, api_name: str, database: str) -> Dict[str, Any]:
    """Open a dedicated notification channel (paper Section 3.2: the server
    can "immediately signal that a new driver is available")."""
    return {"type": SUBSCRIBE, "client_id": client_id, "api_name": api_name, "database": database}


def make_update_available(api_name: str, database: Optional[str] = None) -> Dict[str, Any]:
    """Pushed by the server to subscribed bootloaders on driver installs."""
    return {"type": UPDATE_AVAILABLE, "api_name": api_name, "database": database}
