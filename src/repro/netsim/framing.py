"""Message codec and length-prefixed framing.

All protocols in the repro (database wire protocol, Sequoia cluster
protocol, Drivolution bootstrap protocol) exchange *messages*: plain
dictionaries whose values are JSON types plus ``bytes``. Bytes values are
needed because driver packages travel as binary blobs
(``FILE_DATA(binary_code)`` in the paper's Table 3).

The codec encodes a message to a compact ``bytes`` representation and
back. Bytes values are tagged and base64 encoded so the envelope itself
remains JSON; a short magic prefix guards against framing bugs.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Dict

from repro.errors import TransportError

_MAGIC = b"RPRO"
_BYTES_TAG = "__bytes_b64__"


class MessageCodecError(TransportError):
    """A message could not be encoded or decoded."""


def _encode_value(value: Any) -> Any:
    """Recursively convert a message value into a JSON-compatible value."""
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise MessageCodecError(f"unsupported message value type: {type(value)!r}")


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value`."""
    if isinstance(value, dict):
        if set(value.keys()) == {_BYTES_TAG}:
            try:
                return base64.b64decode(value[_BYTES_TAG], validate=True)
            except (TypeError, ValueError) as exc:
                raise MessageCodecError(f"malformed bytes value: {exc}") from exc
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize a message dictionary to bytes.

    Raises :class:`MessageCodecError` if the message is not a dict or
    contains values that cannot be represented.
    """
    if not isinstance(message, dict):
        raise MessageCodecError(f"message must be a dict, got {type(message)!r}")
    try:
        payload = json.dumps(_encode_value(message), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise MessageCodecError(f"cannot encode message: {exc}") from exc
    return _MAGIC + payload.encode("utf-8")


def decode_message(data: bytes) -> Dict[str, Any]:
    """Deserialize bytes produced by :func:`encode_message`."""
    if not isinstance(data, (bytes, bytearray)):
        raise MessageCodecError(f"expected bytes, got {type(data)!r}")
    if not data.startswith(_MAGIC):
        raise MessageCodecError("bad magic prefix (corrupted or foreign frame)")
    try:
        decoded = json.loads(data[len(_MAGIC):].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageCodecError(f"cannot decode message: {exc}") from exc
    if not isinstance(decoded, dict):
        raise MessageCodecError("decoded message is not a dict")
    return _decode_value(decoded)


def frame(data: bytes) -> bytes:
    """Prefix ``data`` with its 4-byte big-endian length."""
    if len(data) > 0xFFFFFFFF:
        raise MessageCodecError("frame too large")
    return struct.pack(">I", len(data)) + data


def read_frame(read_exactly) -> bytes:
    """Read one length-prefixed frame using ``read_exactly(n) -> bytes``.

    ``read_exactly`` must either return exactly ``n`` bytes or raise; an
    empty return signals a closed peer and raises :class:`TransportError`.
    """
    header = read_exactly(4)
    if not header or len(header) < 4:
        raise TransportError("connection closed while reading frame header")
    (length,) = struct.unpack(">I", header)
    body = read_exactly(length)
    if body is None or len(body) < length:
        raise TransportError("connection closed while reading frame body")
    return body
