"""The value codec as it stood before the one-pass rewrite — a test oracle.

``_encode_into`` / ``_decode_from`` (and their helpers) are copied
verbatim from ``repro/transport/frames.py`` at commit 9ebb2e9: one call
per value, a nine-way ``isinstance`` ladder.  Slow and obviously right;
``tests/property/test_codec_differential.py`` holds the production codec
to it byte for byte.  Never imported from ``src/``.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.transport.errors import CodecError

__all__ = ["decode_value", "encode_value"]

_MAX_DEPTH = 32
_MAX_CONTAINER = 1_000_000

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_TUPLE = 0x09

_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")


def encode_value(value: Any) -> bytes:
    """Encode a plain value to bytes.  Raises CodecError on foreign types."""
    out = bytearray()
    _encode_into(value, out, depth=0)
    return bytes(out)


def _encode_into(value: Any, out: bytearray, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        # Ints are unbounded (RSA material travels in handshakes).
        out.append(_T_INT)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_T_BYTES)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        if len(value) > _MAX_CONTAINER:
            raise CodecError(f"container too large: {len(value)}")
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif isinstance(value, dict):
        if len(value) > _MAX_CONTAINER:
            raise CodecError(f"container too large: {len(value)}")
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(key, out, depth + 1)
            _encode_into(item, out, depth + 1)
    else:
        raise CodecError(f"cannot encode type {type(value).__name__}")


def decode_value(data) -> Any:
    """Decode a bytes-like buffer produced by :func:`encode_value`.

    Rejects trailing garbage: a frame header must be exactly one value.
    Accepts memoryviews (zero-copy frame payloads feed straight in);
    every decoded str/bytes owns its data, so decoded values are safe
    to keep past the view's lifetime.
    """
    value, offset = _decode_from(data, 0, depth=0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def _decode_from(data, offset: int, depth: int) -> tuple[Any, int]:
    # Hot path: called once per header value per frame, so length reads and
    # bounds checks are inlined rather than delegated.
    size = len(data)
    if depth > _MAX_DEPTH:
        raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
    if offset >= size:
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_FLOAT:
        end = offset + _F64.size
        if end > size:
            raise CodecError("truncated value")
        return _F64.unpack_from(data, offset)[0], end
    if tag == _T_INT:
        if offset + 4 > size:
            raise CodecError("truncated value")
        end = offset + 4 + _U32.unpack_from(data, offset)[0]
        offset += 4
        if end > size:
            raise CodecError("truncated value")
        return int.from_bytes(data[offset:end], "big", signed=True), end
    if tag == _T_STR:
        if offset + 4 > size:
            raise CodecError("truncated value")
        end = offset + 4 + _U32.unpack_from(data, offset)[0]
        offset += 4
        if end > size:
            raise CodecError("truncated value")
        try:
            # bytes(bytes) is identity, so only memoryview input copies.
            return bytes(data[offset:end]).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from exc
    if tag == _T_BYTES:
        if offset + 4 > size:
            raise CodecError("truncated value")
        end = offset + 4 + _U32.unpack_from(data, offset)[0]
        offset += 4
        if end > size:
            raise CodecError("truncated value")
        # Copy out of memoryviews: decoded values must own their data
        # (a sub-view would dangle once the decoder buffer is reused).
        return bytes(data[offset:end]), end
    if tag in (_T_LIST, _T_TUPLE):
        count, offset = _read_length(data, offset)
        if count > _MAX_CONTAINER:
            raise CodecError(f"container too large: {count}")
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    if tag == _T_DICT:
        count, offset = _read_length(data, offset)
        if count > _MAX_CONTAINER:
            raise CodecError(f"container too large: {count}")
        result: dict[str, Any] = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset, depth + 1)
            if not isinstance(key, str):
                raise CodecError("dict key is not a string")
            value, offset = _decode_from(data, offset, depth + 1)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown type tag 0x{tag:02x}")


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    end = offset + _U32.size
    _check_bounds(data, end)
    return _U32.unpack_from(data, offset)[0], end


def _check_bounds(data: bytes, end: int) -> None:
    if end > len(data):
        raise CodecError("truncated value")
