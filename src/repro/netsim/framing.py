"""Message codec and length-prefixed framing.

All protocols in the repro (database wire protocol, Sequoia cluster
protocol, Drivolution bootstrap protocol) exchange *messages*: plain
dictionaries whose values are JSON types plus ``bytes``. Bytes values are
needed because driver packages travel as binary blobs
(``FILE_DATA(binary_code)`` in the paper's Table 3).

The codec encodes a message to a compact ``bytes`` representation and
back in one C ``json`` call each way: an encoder built once at import,
and one call of the decoder's C scanner, which must consume the whole
body (so whitespace around the JSON document is refused). Bytes values are tagged and base64
encoded so the envelope stays JSON; a magic prefix catches framing bugs.
"""

from __future__ import annotations

import base64
import json
import struct
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict

from repro.errors import TransportError

_MAGIC = b"RPRO"
_BYTES_TAG = "__bytes_b64__"


class MessageCodecError(TransportError):
    """A message could not be encoded or decoded."""


def _tag_bytes(value: Any) -> Dict[str, str]:
    """The encoder's ``default``: ``bytes`` becomes the tag; no other non-JSON value may travel."""
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    raise MessageCodecError(f"unsupported message value type: {type(value)!r}")


def _untag_bytes(obj: Dict[str, Any]) -> Any:
    """The decoder's ``object_hook``, innermost first: a dict whose one key is the tag is bytes."""
    if len(obj) != 1 or _BYTES_TAG not in obj:
        return obj
    text = obj[_BYTES_TAG]
    if type(text) is not str:  # a nested tag is bytes by now: only a str is base64 text
        raise MessageCodecError(f"malformed bytes value: {type(text).__name__}, not a str")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise MessageCodecError(f"malformed bytes value: {exc}") from exc


#: The frame encoder, built once: ``_iterencode(message, 0)`` gives the
#: JSON text's chunks. It is ``JSONEncoder.encode``'s own C encoder with no
#: circular-reference ``markers`` dict (a cyclic message ends in
#: ``RecursionError``). An interpreter without ``_json`` fails here, at
#: import. Arguments: markers, default, encoder, indent, key_separator,
#: item_separator, sort_keys, skipkeys, allow_nan.
_iterencode = c_make_encoder(None, _tag_bytes, encode_basestring_ascii, None, ":", ",", False, False, True)
#: The decoder's C scanner: ``scan_once(text, index)`` is ``(value, end)``,
#: or StopIteration when no JSON value starts at ``index``.
_scan_once = json.JSONDecoder(object_hook=_untag_bytes).scan_once


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize a message dictionary to bytes.

    Raises :class:`MessageCodecError` if the message is not a dict, contains
    values that cannot be represented, or nests too deeply to encode.
    """
    if not isinstance(message, dict):
        raise MessageCodecError(f"message must be a dict, got {type(message)!r}")
    try:
        payload = "".join(_iterencode(message, 0))
    except (TypeError, ValueError, RecursionError) as exc:
        raise MessageCodecError(f"cannot encode message: {exc}") from exc
    return _MAGIC + payload.encode("utf-8")


def decode_message(data: bytes) -> Dict[str, Any]:
    """Deserialize bytes produced by :func:`encode_message`; anything else,
    a frame nested too deeply or with anything (whitespace too) after or
    before its one JSON document included, raises :class:`MessageCodecError`."""
    if not isinstance(data, (bytes, bytearray)):
        raise MessageCodecError(f"expected bytes, got {type(data)!r}")
    if not data.startswith(_MAGIC):
        raise MessageCodecError("bad magic prefix (corrupted or foreign frame)")
    try:
        text = data.decode("utf-8")
        decoded, end = _scan_once(text, len(_MAGIC))
    except StopIteration as exc:
        raise MessageCodecError(f"cannot decode message: no JSON value at character {exc.value}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an integer too long to convert.
        raise MessageCodecError(f"cannot decode message: {exc}") from exc
    if end != len(text):
        raise MessageCodecError(f"cannot decode message: extra data at character {end}")
    if not isinstance(decoded, dict):
        raise MessageCodecError("decoded message is not a dict")
    return decoded


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
