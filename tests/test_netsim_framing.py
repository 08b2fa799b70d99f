"""Unit tests for the message codec and framing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.netsim.framing import (
    MessageCodecError,
    decode_message,
    encode_message,
    frame,
    read_frame,
)


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        message = {"type": "hello", "count": 3, "ok": True, "ratio": 1.5, "none": None}
        assert decode_message(encode_message(message)) == message

    def test_roundtrip_bytes(self):
        message = {"blob": b"\x00\x01\xffdata", "nested": {"inner": b"x"}}
        assert decode_message(encode_message(message)) == message

    def test_roundtrip_lists_and_nesting(self):
        message = {"items": [1, "two", [3, {"four": b"5"}], None]}
        decoded = decode_message(encode_message(message))
        assert decoded == message

    def test_tuple_becomes_list(self):
        decoded = decode_message(encode_message({"t": (1, 2)}))
        assert decoded["t"] == [1, 2]

    def test_non_dict_message_rejected(self):
        with pytest.raises(MessageCodecError):
            encode_message(["not", "a", "dict"])

    def test_unsupported_value_rejected(self):
        with pytest.raises(MessageCodecError):
            encode_message({"bad": object()})

    def test_bad_magic_rejected(self):
        with pytest.raises(MessageCodecError):
            decode_message(b"XXXX{}")

    def test_truncated_payload_rejected(self):
        data = encode_message({"a": 1})
        with pytest.raises(MessageCodecError):
            decode_message(data[:-3])

    def test_non_bytes_input_rejected(self):
        with pytest.raises(MessageCodecError):
            decode_message("a string")

    @pytest.mark.parametrize("tagged", [5, None, "not base64!", ["x"]])
    def test_malformed_bytes_value_rejected(self, tagged):
        # A sender controls the tag's value; a decode that raised anything
        # but the codec's error would kill the receiving server's thread.
        with pytest.raises(MessageCodecError):
            decode_message(encode_message({"blob": {"__bytes_b64__": tagged}}))


class TestFraming:
    def test_frame_roundtrip(self):
        payload = b"hello world"
        framed = frame(payload)
        buffer = bytearray(framed)

        def read_exactly(n):
            chunk = bytes(buffer[:n])
            del buffer[:n]
            return chunk

        assert read_frame(read_exactly) == payload

    def test_read_frame_closed_peer(self):
        with pytest.raises(TransportError):
            read_frame(lambda n: b"")


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=-(2**31), max_value=2**31),
            st.text(max_size=20),
            st.binary(max_size=64),
            st.booleans(),
            st.none(),
        ),
        max_size=6,
    )
)
def test_property_codec_roundtrip(message):
    """Any well-typed message survives an encode/decode round trip."""
    assert decode_message(encode_message(message)) == message
