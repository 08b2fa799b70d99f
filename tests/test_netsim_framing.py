"""Unit tests for the message codec and framing."""

import base64
import json
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.netsim.framing import (
    MessageCodecError,
    decode_message,
    encode_message,
    frame,
    read_frame,
)

_TAG = "__bytes_b64__"


# -- the reference oracle ---------------------------------------------------
# The codec as it was before it became one C json pass each way: a Python
# walk of the message before json.dumps and another after json.loads. The
# one-pass codec must give the same bytes, equal decodes and
# MessageCodecError for the same inputs (test_one_pass_codec_*).


def _reference_encode_value(value):
    if isinstance(value, bytes):
        return {_TAG: base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        return {key: _reference_encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_encode_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise MessageCodecError(f"unsupported message value type: {type(value)!r}")


def _reference_decode_value(value):
    if isinstance(value, dict):
        if set(value.keys()) == {_TAG}:
            try:
                return base64.b64decode(value[_TAG], validate=True)
            except (TypeError, ValueError) as exc:
                raise MessageCodecError(f"malformed bytes value: {exc}") from exc
        return {key: _reference_decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_reference_decode_value(item) for item in value]
    return value


def reference_encode(message):
    if not isinstance(message, dict):
        raise MessageCodecError(f"message must be a dict, got {type(message)!r}")
    try:
        payload = json.dumps(_reference_encode_value(message), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise MessageCodecError(f"cannot encode message: {exc}") from exc
    return b"RPRO" + payload.encode("utf-8")


def reference_decode(data):
    if not data.startswith(b"RPRO"):
        raise MessageCodecError("bad magic prefix (corrupted or foreign frame)")
    try:
        decoded = json.loads(data[4:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageCodecError(f"cannot decode message: {exc}") from exc
    if not isinstance(decoded, dict):
        raise MessageCodecError("decoded message is not a dict")
    return _reference_decode_value(decoded)


def _outcome(codec, value):
    """``codec(value)`` as a comparable record: its result's repr (exact
    types and order, which ``==`` would blur: ``1 == 1.0 == True``), or
    the fact that it raised the codec's error."""
    try:
        return ("ok", repr(codec(value)))
    except MessageCodecError:
        return ("MessageCodecError", None)


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

    @pytest.mark.parametrize("tagged", [5, None, "not base64!", ["x"], {_TAG: "AA=="}])
    def test_malformed_bytes_value_rejected(self, tagged):
        # A sender controls the tag's value; a decode that raised anything
        # but the codec's error would kill the receiving server's thread.
        # Only a str is base64 text: a nested tag decodes to bytes first.
        with pytest.raises(MessageCodecError):
            decode_message(encode_message({"blob": {"__bytes_b64__": tagged}}))

    def test_a_frame_that_is_one_bytes_value_is_no_message(self):
        # A message is a dict. A frame whose whole body is the bytes tag
        # decodes to bytes, which a listener would then ask for its "type".
        with pytest.raises(MessageCodecError):
            decode_message(b'RPRO{"__bytes_b64__":"AA=="}')

    @pytest.mark.parametrize("body", [b' {"a":1}', b'{"a":1}\n', b'\r\n{"a":1}\t '])
    def test_whitespace_around_the_document_is_refused(self, body):
        # A frame is RPRO and one JSON document, nothing around it: no
        # encoder in the tree writes whitespace, and the decoder's one
        # scanner call must consume the whole body. (The codec before it
        # was one scanner call accepted this.)
        assert reference_decode(b"RPRO" + body) == {"a": 1}
        with pytest.raises(MessageCodecError):
            decode_message(b"RPRO" + body)

    def test_a_cyclic_message_is_a_codec_error(self):
        # The prebuilt encoder keeps no circular-reference markers: a cycle
        # recurses until RecursionError, which the codec maps. (The
        # reference's Python walk cannot state this case: it recurses.)
        message = {"type": "x"}
        message["self"] = message
        with pytest.raises(MessageCodecError):
            encode_message(message)
        rows = []
        rows.append(rows)
        with pytest.raises(MessageCodecError):
            encode_message({"type": "x", "rows": rows})

    def test_an_integer_too_long_to_convert_is_a_codec_error(self):
        # The interpreter refuses int() of more than 4300 digits with a
        # ValueError, which is no TransportError: it would escape every
        # listener's recv handling, as RecursionError would.
        with pytest.raises(MessageCodecError):
            decode_message(b'RPRO{"type":' + b"1" * 5000 + b"}")

    def test_nesting_too_deep_for_the_codec_is_a_codec_error(self):
        # How deep a frame nests is the sender's choice; RecursionError is no
        # TransportError, so it would escape every listener's recv handling.
        depth = 5000
        with pytest.raises(MessageCodecError):
            decode_message(b'RPRO{"type":' + b"[" * depth + b"]" * depth + b"}")
        nested = []
        for _ in range(depth):
            nested = [nested]
        with pytest.raises(MessageCodecError):
            encode_message({"type": nested})


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


# -- the one-pass codec against the reference ------------------------------


class _Int(int):
    pass


class _Str(str):
    pass


_json_keys = st.one_of(
    st.text(max_size=6),
    st.sampled_from([_TAG, "_" + _TAG, "type"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.integers().map(_Int),
    st.text(max_size=4).map(_Str),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=24),
    st.integers().map(_Int),
    st.text(max_size=8).map(_Str),
)


def _messages(keys, leaves):
    values = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=20,
    )
    return st.one_of(st.dictionaries(keys, values, max_size=5), values)


# Half the examples hold only what a message may; the other half may also
# hold keys and values the codec refuses.
_any_messages = st.one_of(
    _messages(_json_keys, _scalars),
    _messages(
        st.one_of(_json_keys, st.sampled_from([(1, 2), b"k"])),
        st.one_of(_scalars, st.sampled_from([object(), bytearray(b"x"), {1}, 1j, Decimal("1.5")])),
    ),
)


_JSON_WHITESPACE = b" \t\n\r"


def _reference_decode_outcome(data):
    """The reference's decode, less the two intended differences: a body
    with whitespace around its JSON document, and a body that is nothing
    but the tag, decode there and are no message here
    (test_whitespace_around_the_document_is_refused,
    test_a_frame_that_is_one_bytes_value_is_no_message)."""
    expected = _outcome(reference_decode, data)
    if expected[0] == "ok" and data[4:] != data[4:].strip(_JSON_WHITESPACE):
        return ("MessageCodecError", None)
    if expected[0] == "ok" and not expected[1].startswith("{"):
        assert set(json.loads(data[4:])) == {_TAG}
        return ("MessageCodecError", None)
    return expected


@settings(max_examples=300, deadline=None)
@given(_any_messages)
@example({_TAG: ""})
def test_one_pass_codec_encodes_as_the_two_walk_codec(message):
    """Same bytes (or both refuse), and the same decode of those bytes."""
    expected = _outcome(reference_encode, message)
    assert _outcome(encode_message, message) == expected
    if expected[0] == "ok":
        data = encode_message(message)
        assert _outcome(decode_message, data) == _reference_decode_outcome(data)


_tag_values = st.one_of(
    st.binary(max_size=12).map(lambda raw: base64.b64encode(raw).decode("ascii")),
    st.sampled_from(["", "AA==", "AA=", "A===", "not base64!", "YQ==\n", "é", "QQ"]),
    st.text(max_size=8),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from([_TAG, "_" + _TAG, _TAG + "_", "a"]), children, max_size=3),
        # Tag-shaped: the value is base64 text, anything else, or a nested tag.
        st.builds(lambda value: {_TAG: value}, st.one_of(_tag_values, children)),
    ),
    max_leaves=15,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.dictionaries(st.text(max_size=4), _json, max_size=4), _json), st.booleans())
def test_one_pass_codec_decodes_adversarial_text_as_the_two_walk_codec(document, escape_tag):
    """Over JSON texts a peer could send: tag-shaped dicts, nested tags, the
    tag key spelt with a JSON escape, and tag values that are not base64
    text — equal decodes, or MessageCodecError from both."""
    text = json.dumps(document, separators=(",", ":"))
    if escape_tag:
        text = text.replace('"' + _TAG, '"\\u005f' + _TAG[1:])
    data = b"RPRO" + text.encode("utf-8")
    assert _outcome(decode_message, data) == _reference_decode_outcome(data)


_whitespace = st.text(alphabet=" \t\n\r", min_size=1, max_size=3).map(str.encode)
_garbage = st.one_of(
    st.sampled_from([b"x", b"}", b"]", b",", b"null", b"0", b'"', b"\x00", b"/* */"]),
    st.binary(min_size=1, max_size=6),
)


def _body_edits(text):
    """Frame bodies a peer could send around one JSON text ``text``."""
    body = text.encode("utf-8")
    nonfinite = st.sampled_from([b"NaN", b"Infinity", b"-Infinity"])
    return st.one_of(
        st.builds(lambda ws: ws + body, _whitespace),
        st.builds(lambda ws: body + ws, _whitespace),
        st.builds(lambda junk: body + junk, _garbage),
        st.just(body + body),
        st.builds(lambda ws: body + ws + body, _whitespace),
        st.builds(lambda literal: b'{"type":' + literal + b',"v":' + body + b"}", nonfinite),
        st.builds(lambda literal: b'{"v":[' + literal + b"]}", nonfinite),
        st.builds(
            lambda cut, bad: body[:cut] + bad + body[cut:],
            st.integers(min_value=0, max_value=len(body)),
            st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80", b"\xf4\x90\x80\x80"]),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _json, max_size=4).map(
    lambda document: json.dumps(document, separators=(",", ":"))).flatmap(_body_edits))
@example(b' {"a":1}')
@example(b'{"a":1}{"a":1}')
@example(b'{"a":NaN}')
@example(b'{"a":"\xff"}')
def test_one_pass_codec_decodes_adversarial_bodies_as_the_two_walk_codec(body):
    """Over bodies that are not one bare JSON document — whitespace around
    it, trailing garbage, two documents back to back, non-finite literals,
    invalid UTF-8 — the same outcome as the reference, whitespace aside."""
    data = b"RPRO" + body
    assert _outcome(decode_message, data) == _reference_decode_outcome(data)
