"""Tests for dynamic driver loading."""

from dataclasses import replace

import pytest

from repro.core import DriverLoader, DriverPackage, DriverSigner
from repro.core.loader import DriverLoadError
from repro.dbapi.driver_factory import build_pydb_driver, render_pydb_source

SIMPLE_SOURCE = """
DRIVER_NAME = "toy"
DRIVER_VERSION = (1, 2, 3)
API_NAME = "TOY-API"
PROTOCOL_VERSION = 9
EXTENSIONS = ["gis"]
PRECONFIGURED_URL = None

def connect(url, **options):
    return {"url": url, "options": options}
"""


class TestLoading:
    def test_load_and_call_connect(self):
        loader = DriverLoader()
        package = DriverPackage.from_source("toy", "TOY-API", SIMPLE_SOURCE)
        loaded = loader.load(package)
        result = loaded.connect("pydb://x/db", user="u")
        assert result == {"url": "pydb://x/db", "options": {"user": "u"}}
        info = loaded.info()
        assert info["driver_name"] == "toy"
        assert info["driver_version"] == (1, 2, 3)
        assert info["protocol_version"] == 9
        assert info["extensions"] == ["gis"]

    def test_multiple_versions_coexist_in_isolated_namespaces(self):
        loader = DriverLoader()
        v1 = loader.load(DriverPackage.from_source("toy", "A", SIMPLE_SOURCE))
        v2_source = SIMPLE_SOURCE.replace("(1, 2, 3)", "(2, 0, 0)")
        v2 = loader.load(DriverPackage.from_source("toy", "A", v2_source))
        assert v1.module is not v2.module
        assert v1.info()["driver_version"] == (1, 2, 3)
        assert v2.info()["driver_version"] == (2, 0, 0)
        assert loader.load_count == 2
        assert len(loader.loaded_drivers()) == 2
        loader.unload(v1)
        assert len(loader.loaded_drivers()) == 1

    def test_missing_connect_rejected(self):
        loader = DriverLoader()
        package = DriverPackage.from_source("bad", "A", "X = 1\n")
        with pytest.raises(DriverLoadError, match="connect"):
            loader.load(package)

    def test_broken_source_rejected(self):
        loader = DriverLoader()
        package = DriverPackage.from_source("bad", "A", "def connect(:\n")
        with pytest.raises(DriverLoadError):
            loader.load(package)

    def test_generated_pydb_driver_loads(self):
        loader = DriverLoader()
        package = build_pydb_driver("pydb-gen", driver_version=(1, 0, 0))
        loaded = loader.load(package)
        assert callable(loaded.module.connect)
        assert loaded.info()["api_name"] == "PYDB-API"

    def test_rendered_source_contains_metadata(self):
        source = render_pydb_source("pydb-9", driver_version=(9, 8, 7), extensions=["gis"])
        assert "DRIVER_VERSION = (9, 8, 7)" in source
        assert "'gis'" in source


class TestSignatureEnforcement:
    def test_signed_package_accepted(self):
        signer = DriverSigner(b"secret")
        loader = DriverLoader(signer=signer)
        package = DriverPackage.from_source("toy", "A", SIMPLE_SOURCE).signed_by(signer)
        assert loader.load(package).name == "toy"

    def test_unsigned_package_rejected_when_required(self):
        signer = DriverSigner(b"secret")
        loader = DriverLoader(signer=signer)
        package = DriverPackage.from_source("toy", "A", SIMPLE_SOURCE)
        with pytest.raises(DriverLoadError, match="unsigned"):
            loader.load(package)

    def test_tampered_package_rejected(self):
        signer = DriverSigner(b"secret")
        loader = DriverLoader(signer=signer)
        package = DriverPackage.from_source("toy", "A", SIMPLE_SOURCE).signed_by(signer).tampered()
        with pytest.raises(DriverLoadError, match="signature"):
            loader.load(package)

    def test_signature_stripped_off_tampered_code_rejected(self):
        signer = DriverSigner(b"secret")
        signed = DriverPackage.from_source("toy", "A", SIMPLE_SOURCE).signed_by(signer)
        stripped = replace(signed.tampered(), signature=None)
        with pytest.raises(DriverLoadError, match="unsigned"):
            DriverLoader(signer=signer).load(stripped)

    def test_bootloader_with_a_signer_refuses_a_stripped_package(self, single_db_env):
        from repro.core import BootloaderConfig, DriverPermission

        env = single_db_env
        signer = DriverSigner(b"secret")
        signed = build_pydb_driver("pydb-x", driver_version=(1, 0, 0)).signed_by(signer)
        # The server (no signer of its own) serves what its table holds.
        registry = env.drivolution.registry
        driver_id = registry.install_driver(replace(signed.tampered(), signature=None))
        registry.grant_permission(DriverPermission(driver_id=driver_id, database=env.database_name))
        bootloader = env.new_bootloader(BootloaderConfig(signer=signer))
        with pytest.raises(DriverLoadError, match="unsigned"):
            bootloader.connect(env.url)
        assert bootloader.current_driver is None
        assert bootloader.loader.load_count == 0
