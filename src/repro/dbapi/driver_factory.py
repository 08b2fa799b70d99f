"""Driver package factory.

Renders the Python source of every driver family used in the experiments
and wraps it into :class:`~repro.core.package.DriverPackage` objects ready
to be inserted into a Drivolution server:

- ``build_pydb_driver`` — a database driver for the ``pydb`` wire
  protocol, parameterised by driver version, protocol version, bundled
  extensions, and optional pre-configured URL (the failover mechanism of
  paper Section 5.2);
- ``build_sequoia_driver`` — a cluster driver for the Sequoia-like
  middleware, with multi-controller failover;
- ``pydb_assembler`` — a :class:`~repro.core.assembly.DriverAssembler`
  preloaded with the GIS / NLS / Kerberos extension packages of paper
  Section 5.4.1.

The generated source follows the same contract the bootloader expects of
any driver package: module-level ``connect(url, **options)`` plus metadata
constants (``DRIVER_NAME``, ``DRIVER_VERSION``, ``API_NAME``,
``PROTOCOL_VERSION``, ``EXTENSIONS``, ``PRECONFIGURED_URL``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.assembly import DriverAssembler, ExtensionPackage
from repro.core.constants import BinaryFormat
from repro.core.package import DriverPackage
from repro.dbserver.wire import PROTOCOL_VERSION

PYDB_API_NAME = "PYDB-API"
SEQUOIA_API_NAME = "SEQUOIA"

#: Per driver family: the import of its runtime as ``Runtime``, and the
#: constructor line only that runtime takes.
_RUNTIMES = {
    PYDB_API_NAME: (
        "from repro.dbapi.runtime import RuntimeDriver as Runtime",
        "\n    extensions=list(EXTENSIONS),",
    ),
    SEQUOIA_API_NAME: ("from repro.cluster.driver import ClusterDriverRuntime as Runtime", ""),
}

_TEMPLATE = '''"""Auto-generated {api_name} driver package: {name} v{version_string}."""

DRIVER_NAME = {name!r}
DRIVER_VERSION = {driver_version!r}
API_NAME = {api_name!r}
PROTOCOL_VERSION = {protocol_version!r}
EXTENSIONS = {extensions!r}
PRECONFIGURED_URL = {preconfigured_url!r}
DEFAULT_OPTIONS = {default_options!r}
FEATURES = {{}}

{runtime_import}

_runtime = Runtime(
    name=DRIVER_NAME,
    driver_version=DRIVER_VERSION,
    protocol_version=PROTOCOL_VERSION,
    preconfigured_url=PRECONFIGURED_URL,
    default_options=dict(DEFAULT_OPTIONS),{runtime_keyword}
)


def connect(url, user=None, password=None, network=None, **options):
    """DB-API entry point used by applications and the bootloader."""
    return _runtime.connect(url, user=user, password=password, network=network, **options)


def driver_runtime():
    """Expose the runtime for tests and diagnostics."""
    return _runtime
'''


def _render_source(
    api_name: str,
    name: str,
    driver_version: Tuple[int, int, int],
    protocol_version: int,
    extensions: Iterable[str],
    preconfigured_url: Optional[str],
    default_options: Optional[Dict[str, Any]],
) -> str:
    runtime_import, runtime_keyword = _RUNTIMES[api_name]
    return _TEMPLATE.format(
        runtime_import=runtime_import,
        runtime_keyword=runtime_keyword,
        name=name,
        version_string=".".join(str(part) for part in driver_version),
        driver_version=tuple(driver_version),
        api_name=api_name,
        protocol_version=protocol_version,
        extensions=list(extensions),
        preconfigured_url=preconfigured_url,
        default_options=dict(default_options or {}),
    )


def render_pydb_source(
    name: str,
    driver_version: Tuple[int, int, int] = (1, 0, 0),
    protocol_version: int = PROTOCOL_VERSION,
    extensions: Iterable[str] = (),
    preconfigured_url: Optional[str] = None,
    default_options: Optional[Dict[str, Any]] = None,
) -> str:
    """Render the Python source of a pydb driver package."""
    return _render_source(
        PYDB_API_NAME, name, driver_version, protocol_version, extensions,
        preconfigured_url, default_options,
    )


def build_pydb_driver(
    name: str,
    driver_version: Tuple[int, int, int] = (1, 0, 0),
    protocol_version: int = PROTOCOL_VERSION,
    extensions: Iterable[str] = (),
    preconfigured_url: Optional[str] = None,
    default_options: Optional[Dict[str, Any]] = None,
    platform: Optional[str] = None,
    api_version: Optional[Tuple[int, int]] = None,
    binary_format: str = BinaryFormat.PYSRC,
) -> DriverPackage:
    """Build a pydb driver package ready to install in a Drivolution server."""
    source = render_pydb_source(
        name=name,
        driver_version=driver_version,
        protocol_version=protocol_version,
        extensions=extensions,
        preconfigured_url=preconfigured_url,
        default_options=default_options,
    )
    return DriverPackage.from_source(
        name=name,
        api_name=PYDB_API_NAME,
        source=source,
        binary_format=binary_format,
        api_version=api_version,
        platform=platform,
        driver_version=driver_version,
        metadata={"extensions": list(extensions)},
    )


def render_sequoia_source(
    name: str,
    driver_version: Tuple[int, int, int] = (1, 0, 0),
    protocol_version: int = 1,
    preconfigured_url: Optional[str] = None,
    default_options: Optional[Dict[str, Any]] = None,
) -> str:
    """Render the Python source of a Sequoia cluster driver package."""
    return _render_source(
        SEQUOIA_API_NAME, name, driver_version, protocol_version, (),
        preconfigured_url, default_options,
    )


def build_sequoia_driver(
    name: str,
    driver_version: Tuple[int, int, int] = (1, 0, 0),
    protocol_version: int = 1,
    preconfigured_url: Optional[str] = None,
    default_options: Optional[Dict[str, Any]] = None,
    platform: Optional[str] = None,
    binary_format: str = BinaryFormat.PYSRC,
) -> DriverPackage:
    """Build a Sequoia cluster driver package."""
    source = render_sequoia_source(
        name=name,
        driver_version=driver_version,
        protocol_version=protocol_version,
        preconfigured_url=preconfigured_url,
        default_options=default_options,
    )
    return DriverPackage.from_source(
        name=name,
        api_name=SEQUOIA_API_NAME,
        source=source,
        binary_format=binary_format,
        platform=platform,
        driver_version=driver_version,
    )


# -- extension packages (paper Section 5.4.1) ---------------------------------------

_GIS_FRAGMENT = '''
def geometry_from_wkt(wkt):
    """Minimal GIS helper: parse 'POINT(x y)' well-known text."""
    text = wkt.strip()
    if not text.upper().startswith("POINT"):
        raise ValueError("only POINT geometries are supported by this extension")
    coords = text[text.index("(") + 1 : text.rindex(")")].split()
    return {"type": "Point", "coordinates": [float(coords[0]), float(coords[1])]}

FEATURES["gis"] = geometry_from_wkt
'''

_KERBEROS_FRAGMENT = '''
import hashlib as _hashlib

def kerberos_token(realm_secret, user):
    """Compute the token expected by the server's token authenticator."""
    return _hashlib.sha256(f"{realm_secret}:{user}".encode("utf-8")).hexdigest()

FEATURES["kerberos"] = kerberos_token
'''


def _nls_fragment(locale: str, messages: Dict[str, str]) -> str:
    return (
        f"\nNLS_MESSAGES_{locale.upper()} = {messages!r}\n"
        f"FEATURES['nls-{locale}'] = NLS_MESSAGES_{locale.upper()}\n"
    )


def _nls_messages(locale: str) -> Dict[str, str]:
    catalog = {
        "fr": {"connection_refused": "connexion refusée", "timeout": "délai dépassé"},
        "de": {"connection_refused": "Verbindung abgelehnt", "timeout": "Zeitüberschreitung"},
        "ja": {"connection_refused": "接続が拒否されました", "timeout": "タイムアウト"},
    }
    return catalog.get(locale, {"connection_refused": "connection refused", "timeout": "timeout"})


def pydb_assembler(
    base_name: str = "pydb-base",
    driver_version: Tuple[int, int, int] = (2, 0, 0),
    protocol_version: int = PROTOCOL_VERSION,
    payload_size: int = 4096,
    locales: Iterable[str] = ("fr", "de", "ja"),
) -> DriverAssembler:
    """A driver assembler preloaded with GIS, Kerberos and NLS extensions.

    ``payload_size`` controls how many bytes of bulk data each extension
    carries, so that delivered-size comparisons are meaningful without
    being enormous.
    """
    base_source = render_pydb_source(
        name=base_name, driver_version=driver_version, protocol_version=protocol_version
    )
    assembler = DriverAssembler(
        base_name=base_name,
        api_name=PYDB_API_NAME,
        base_source=base_source,
        driver_version=driver_version,
    )
    assembler.register_extension(
        ExtensionPackage(
            name="gis",
            source_fragment=_GIS_FRAGMENT,
            payload=os.urandom(payload_size),
            description="Geographic Information System extension",
        )
    )
    assembler.register_extension(
        ExtensionPackage(
            name="kerberos",
            source_fragment=_KERBEROS_FRAGMENT,
            payload=os.urandom(payload_size * 3),
            description="Kerberos security libraries",
        )
    )
    for locale in locales:
        assembler.register_extension(
            ExtensionPackage(
                name=f"nls-{locale}",
                source_fragment=_nls_fragment(locale, _nls_messages(locale)),
                payload=os.urandom(payload_size // 2),
                description=f"National Language Support ({locale})",
            )
        )
    return assembler


def driver_family(
    count: int,
    base_name: str = "pydb",
    start_version: Tuple[int, int, int] = (1, 0, 0),
    protocol_version: int = PROTOCOL_VERSION,
    **kwargs: Any,
) -> List[DriverPackage]:
    """Generate ``count`` successive versions of the same driver.

    Used by upgrade experiments that need a stream of releases.
    """
    packages: List[DriverPackage] = []
    major, minor, micro = start_version
    for index in range(count):
        version = (major, minor + index, micro)
        packages.append(
            build_pydb_driver(
                name=f"{base_name}-{major}.{minor + index}.{micro}",
                driver_version=version,
                protocol_version=protocol_version,
                **kwargs,
            )
        )
    return packages
