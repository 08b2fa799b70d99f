"""Driver package format, encoding and signing.

A driver package is what the paper stores in the ``binary_code`` column of
the drivers table: the driver's code plus the metadata needed to match it
to a client (API name/version, platform, driver version) and to decode and
verify it on the client side (binary format, signature).

In this reproduction the code is Python source which, once loaded by the
bootloader, exposes a module-level ``connect(url, **options)`` callable and
metadata constants (see :mod:`repro.dbapi.driver_factory` for the
templates). Packages can be transported as plain source (``PYSRC``) or
zlib-compressed (``PYSRC-ZLIB``), and can be signed so that bootloaders
configured with a signer reject tampered or unsigned drivers.
"""

from __future__ import annotations

import hashlib
import hmac
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.constants import BinaryFormat
from repro.errors import DrivolutionError


class PackageError(DrivolutionError):
    """Malformed, unsupported or tampered driver package."""


@dataclass(frozen=True)
class DriverPackage:
    """An installable driver: metadata plus encoded code."""

    name: str
    api_name: str
    binary_code: bytes
    binary_format: str = BinaryFormat.PYSRC
    api_version: Optional[Tuple[int, int]] = None
    platform: Optional[str] = None
    driver_version: Tuple[int, int, int] = (1, 0, 0)
    signature: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_source(
        name: str,
        api_name: str,
        source: str,
        binary_format: str = BinaryFormat.PYSRC,
        api_version: Optional[Tuple[int, int]] = None,
        platform: Optional[str] = None,
        driver_version: Tuple[int, int, int] = (1, 0, 0),
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "DriverPackage":
        """Encode Python ``source`` into a package with the given format."""
        if binary_format == BinaryFormat.PYSRC:
            code = source.encode("utf-8")
        elif binary_format == BinaryFormat.PYSRC_ZLIB:
            code = zlib.compress(source.encode("utf-8"), level=6)
        else:
            raise PackageError(f"unsupported binary format {binary_format!r}")
        return DriverPackage(
            name=name,
            api_name=api_name,
            binary_code=code,
            binary_format=binary_format,
            api_version=tuple(api_version) if api_version else None,
            platform=platform,
            driver_version=tuple(driver_version),
            metadata=dict(metadata or {}),
        )

    # -- decoding ---------------------------------------------------------------

    def decode_source(self) -> str:
        """Decode ``binary_code`` back into Python source (Table 3 ``decode``)."""
        if self.binary_format == BinaryFormat.PYSRC:
            try:
                return self.binary_code.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PackageError(f"corrupt PYSRC package {self.name!r}: {exc}") from exc
        if self.binary_format == BinaryFormat.PYSRC_ZLIB:
            try:
                return zlib.decompress(self.binary_code).decode("utf-8")
            except (zlib.error, UnicodeDecodeError) as exc:
                raise PackageError(f"corrupt PYSRC-ZLIB package {self.name!r}: {exc}") from exc
        raise PackageError(f"unsupported binary format {self.binary_format!r}")

    @property
    def size_bytes(self) -> int:
        """Size of the encoded driver code (what travels over the wire)."""
        return len(self.binary_code)

    @property
    def version_string(self) -> str:
        return ".".join(str(part) for part in self.driver_version)

    # -- signing ------------------------------------------------------------------

    def signed_by(self, signer: "DriverSigner") -> "DriverPackage":
        """Return a copy of this package carrying ``signer``'s signature."""
        return replace(self, signature=signer.sign(self.binary_code))

    def tampered(self, payload: bytes = b"# malicious payload\n") -> "DriverPackage":
        """Return a copy with modified code but the original signature.

        Only used by security tests and the security experiment to model a
        man-in-the-middle substituting driver code (Section 3.1).
        """
        return replace(self, binary_code=self.binary_code + payload)

    # -- (de)serialisation -----------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """Serialise for transport inside protocol messages."""
        return {
            "name": self.name,
            "api_name": self.api_name,
            "api_version": list(self.api_version) if self.api_version else None,
            "platform": self.platform,
            "driver_version": list(self.driver_version),
            "binary_format": self.binary_format,
            "binary_code": self.binary_code,
            "signature": self.signature,
            "metadata": self.metadata,
        }

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "DriverPackage":
        try:
            api_version = data.get("api_version")
            return DriverPackage(
                name=str(data["name"]),
                api_name=str(data["api_name"]),
                binary_code=bytes(data["binary_code"]),
                binary_format=str(data["binary_format"]),
                api_version=tuple(api_version) if api_version else None,
                platform=data.get("platform"),
                driver_version=tuple(data.get("driver_version", (1, 0, 0))),
                signature=data.get("signature"),
                metadata=dict(data.get("metadata") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PackageError(f"malformed driver package on the wire: {exc}") from exc

    def fingerprint(self) -> str:
        """Content hash identifying this exact package build."""
        digest = hashlib.sha256()
        digest.update(self.name.encode("utf-8"))
        digest.update(self.binary_format.encode("utf-8"))
        digest.update(self.binary_code)
        return digest.hexdigest()

    def location(self) -> str:
        """Where an offer says this package is: its one identity, whatever id each server gave it."""
        return f"driver:{self.fingerprint()}"


class DriverSigner:
    """Signs driver packages and verifies signatures (code signing, Section 3.1).

    The trusted wrapper in the bootloader holds the same secret (in a real
    deployment this would be a public-key scheme; HMAC keeps the repro
    dependency-free while preserving the accept/reject behaviour).
    """

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise PackageError("signer secret must not be empty")
        self._secret = secret

    def sign(self, code: bytes) -> str:
        return hmac.new(self._secret, code, hashlib.sha256).hexdigest()

    def verify(self, package: DriverPackage) -> bool:
        """Whether ``package`` carries a valid signature for its code."""
        if not package.signature:
            return False
        expected = self.sign(package.binary_code)
        return hmac.compare_digest(expected, package.signature)

    def require_valid(self, package: DriverPackage) -> None:
        """Raise :class:`PackageError` unless the signature verifies."""
        if not self.verify(package):
            raise PackageError(
                f"driver package {package.name!r} failed signature verification"
            )
