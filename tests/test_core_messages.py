"""Unit tests for the Drivolution protocol messages (Tables 3 and 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages
from repro.core.messages import (
    DrivolutionDiscover,
    DrivolutionErrorMessage,
    DrivolutionOffer,
    DrivolutionRequest,
    ProtocolError,
)
from repro.netsim.framing import decode_message, encode_message


class TestRequest:
    def test_wire_roundtrip(self):
        request = DrivolutionRequest(
            database="appdb",
            api_name="PYDB-API",
            client_platform="cpython-any",
            user="alice",
            api_version=(3, 0),
            preferred_binary_format="PYSRC",
            preferred_driver_version=(1, 2, 3),
            client_id="client-1",
            client_ip="10.0.0.1",
            current_lease_id="lease-9",
        )
        restored = DrivolutionRequest.from_wire(request.to_wire())
        assert restored == request

    def test_wire_roundtrip_with_defaults(self):
        request = DrivolutionRequest(database="db", api_name="A", client_platform="p")
        restored = DrivolutionRequest.from_wire(request.to_wire())
        assert restored.api_version is None
        assert restored.current_lease_id is None

    def test_discover_has_its_own_type_tag(self):
        discover = DrivolutionDiscover(database="db", api_name="A", client_platform="p")
        wire = discover.to_wire()
        assert wire["type"] == messages.DISCOVER
        # A discover parses back as a request payload.
        assert DrivolutionRequest.from_wire(wire).database == "db"

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError):
            DrivolutionRequest.from_wire({"type": "something_else"})

    def test_survives_the_network_codec(self):
        request = DrivolutionRequest(database="db", api_name="A", client_platform="p")
        assert DrivolutionRequest.from_wire(decode_message(encode_message(request.to_wire()))) == request


class TestOfferAndError:
    def test_offer_roundtrip(self):
        offer = DrivolutionOffer(
            lease_id="lease-1",
            lease_time_ms=3_600_000,
            driver_id=4,
            driver_location="driver:4",
            binary_format="PYSRC",
            renew_policy=1,
            expiration_policy=2,
            driver_version=(2, 1, 0),
            driver_options={"application_name": "reporting"},
            includes_file=False,
            server_id="drivo-1",
        )
        restored = DrivolutionOffer.from_wire(offer.to_wire())
        assert restored == offer

    def test_offer_wrong_type(self):
        with pytest.raises(ProtocolError):
            DrivolutionOffer.from_wire({"type": messages.ERROR})

    def test_error_roundtrip(self):
        error = DrivolutionErrorMessage(code="no_driver", detail="no driver for ODBC on hp-ux")
        assert DrivolutionErrorMessage.from_wire(error.to_wire()) == error

    def test_error_wrong_type(self):
        with pytest.raises(ProtocolError):
            DrivolutionErrorMessage.from_wire({"type": messages.OFFER})


class TestFileAndControlMessages:
    def test_file_request_and_data(self):
        file_request = messages.make_file_request("driver:7", "lease-1")
        assert file_request["type"] == messages.FILE_REQUEST
        assert file_request["driver_location"] == "driver:7"
        file_data = messages.make_file_data({"name": "d", "binary_code": b"x"})
        assert file_data["type"] == messages.FILE_DATA
        assert file_data["package"]["binary_code"] == b"x"

    def test_release_subscribe_update(self):
        assert messages.make_release("lease-1", "client-1")["type"] == messages.RELEASE
        subscribe = messages.make_subscribe("client-1", "PYDB-API", "appdb")
        assert subscribe["type"] == messages.SUBSCRIBE
        update = messages.make_update_available("PYDB-API", "appdb")
        assert update["type"] == messages.UPDATE_AVAILABLE

    def test_all_message_types_share_the_extension_prefix(self):
        for message_type in (
            messages.REQUEST,
            messages.OFFER,
            messages.ERROR,
            messages.DISCOVER,
            messages.FILE_REQUEST,
            messages.FILE_DATA,
            messages.RELEASE,
            messages.SUBSCRIBE,
            messages.UPDATE_AVAILABLE,
        ):
            assert message_type.startswith(messages.MESSAGE_PREFIX)


@settings(max_examples=50, deadline=None)
@given(
    database=st.text(min_size=1, max_size=16),
    api_name=st.text(min_size=1, max_size=16),
    platform=st.text(min_size=1, max_size=16),
    lease_ms=st.integers(min_value=1, max_value=10**9),
    driver_id=st.integers(min_value=1, max_value=10**6),
)
def test_property_request_offer_roundtrip(database, api_name, platform, lease_ms, driver_id):
    """Requests and offers survive wire serialisation for arbitrary field values."""
    request = DrivolutionRequest(database=database, api_name=api_name, client_platform=platform)
    assert DrivolutionRequest.from_wire(decode_message(encode_message(request.to_wire()))) == request
    offer = DrivolutionOffer(
        lease_id="l",
        lease_time_ms=lease_ms,
        driver_id=driver_id,
        driver_location=f"driver:{driver_id}",
        binary_format="PYSRC",
        renew_policy=1,
        expiration_policy=0,
    )
    assert DrivolutionOffer.from_wire(decode_message(encode_message(offer.to_wire()))) == offer
