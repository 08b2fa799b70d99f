"""Dynamic driver loading (the analogue of Java dynamic class loading).

The bootloader receives driver code as a BLOB, decodes it according to its
``binary_format`` and loads it "dynamically into the application's memory"
(Section 3.1.1). Here the code is Python source executed into a fresh,
isolated module namespace — one namespace per loaded driver, so multiple
driver implementations and versions co-exist without clashing (the paper's
requirement for switching a client from one version to another, and for
per-driver extension bundles not conflicting with the application's own
libraries).

Security: a loader configured with a :class:`DriverSigner` refuses any
package that is unsigned or whose signature does not verify, before
executing anything — the "separate trusted wrapper in the bootloader
[that] verifies signatures".
"""

from __future__ import annotations

import threading
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.package import DriverPackage, DriverSigner, PackageError
from repro.errors import DrivolutionError


class DriverLoadError(DrivolutionError):
    """The driver package could not be verified, decoded or executed."""


@dataclass
class LoadedDriver:
    """A driver package that has been executed into a module namespace."""

    package: DriverPackage
    module: types.ModuleType
    generation: int = 0

    @property
    def name(self) -> str:
        return self.package.name

    @property
    def version(self) -> tuple:
        return self.package.driver_version

    def connect(self, url: str, **options: Any):
        """Open a connection through the loaded driver's ``connect``."""
        connect = getattr(self.module, "connect", None)
        if not callable(connect):
            raise DriverLoadError(f"driver {self.name!r} exposes no connect() callable")
        return connect(url, **options)

    def info(self) -> Dict[str, Any]:
        """Driver metadata constants exported by the loaded module."""
        return {
            "driver_name": getattr(self.module, "DRIVER_NAME", self.name),
            "driver_version": getattr(self.module, "DRIVER_VERSION", self.version),
            "api_name": getattr(self.module, "API_NAME", self.package.api_name),
            "protocol_version": getattr(self.module, "PROTOCOL_VERSION", None),
            "extensions": list(getattr(self.module, "EXTENSIONS", [])),
            "preconfigured_url": getattr(self.module, "PRECONFIGURED_URL", None),
            "generation": self.generation,
        }


class DriverLoader:
    """Loads driver packages into isolated module namespaces."""

    def __init__(
        self,
        signer: Optional[DriverSigner] = None,
        extra_globals: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._signer = signer
        self._extra_globals = dict(extra_globals or {})
        self._loaded: List[LoadedDriver] = []
        self._generation = 0
        self._lock = threading.Lock()

    # -- loading ------------------------------------------------------------

    def load(self, package: DriverPackage) -> LoadedDriver:
        """Verify, decode and execute ``package``; returns the loaded driver."""
        self._verify(package)
        source = package.decode_source()
        with self._lock:
            self._generation += 1
            generation = self._generation
        module_name = f"drivolution_driver_{_sanitize(package.name)}_{generation}"
        module = types.ModuleType(module_name)
        module.__dict__.update(self._extra_globals)
        module.__dict__["__drivolution_package__"] = package.name
        try:
            code = compile(source, filename=f"<driver:{package.name}>", mode="exec")
            exec(code, module.__dict__)  # noqa: S102 - dynamic driver loading is the point
        except PackageError:
            raise
        except Exception as exc:
            raise DriverLoadError(f"driver {package.name!r} failed to load: {exc}") from exc
        if not callable(module.__dict__.get("connect")):
            raise DriverLoadError(
                f"driver {package.name!r} does not define a connect() entry point"
            )
        loaded = LoadedDriver(package=package, module=module, generation=generation)
        with self._lock:
            self._loaded.append(loaded)
        return loaded

    def _verify(self, package: DriverPackage) -> None:
        if self._signer is None:
            return
        if package.signature is None:
            raise DriverLoadError(f"driver {package.name!r} is unsigned")
        try:
            self._signer.require_valid(package)
        except PackageError as exc:
            raise DriverLoadError(str(exc)) from exc

    # -- management ------------------------------------------------------------

    def unload(self, loaded: LoadedDriver) -> None:
        """Drop a loaded driver (its module namespace becomes collectable)."""
        with self._lock:
            if loaded in self._loaded:
                self._loaded.remove(loaded)

    def loaded_drivers(self) -> List[LoadedDriver]:
        with self._lock:
            return list(self._loaded)

    @property
    def load_count(self) -> int:
        with self._lock:
            return self._generation


def _sanitize(name: str) -> str:
    return "".join(char if char.isalnum() else "_" for char in name)
