"""Wire format: value codec and length-delimited frames.

Two pieces live here:

* **gridcodec** — a small self-describing binary codec for the value types
  the middleware exchanges (None, bool, int, float, str, bytes, list,
  tuple, dict).  Frames arriving from remote sites are untrusted input, so
  pickle is deliberately not used; the codec can only construct plain data.
* **frames** — the unit of traffic between middleware endpoints.  A frame
  has a *kind* (the paper separates control and data channels), a *channel
  id* for multiplexing several logical streams over one connection (the
  proxy multiplexes every MPI slave through one tunnel), a header dict and
  a binary payload.

Wire layout of a frame (network byte order)::

    magic    2 bytes   0x47 0x58  ("GX")
    version  1 byte    0x01
    kind     1 byte    FrameKind
    channel  4 bytes   unsigned
    hlen     4 bytes   header blob length
    plen     4 bytes   payload length
    header   hlen bytes (gridcodec-encoded dict)
    payload  plen bytes (opaque)
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.obs.racesan import shared_state
from repro.transport.errors import CodecError, FrameError

__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameKind",
    "MAX_FRAME_PAYLOAD",
    "MAX_FRAME_WIRE_SIZE",
    "carrier_prefix",
    "decode_frame",
    "decode_value",
    "encode_frame",
    "encode_frame_views",
    "encode_value",
    "encoded_size",
]

_MAGIC = b"GX"
_VERSION = 1
_HEADER_STRUCT = struct.Struct("!2sBBIII")

#: Upper bound on a single frame payload; larger transfers are chunked by
#: the data-channel layer.  Guards against hostile length fields.
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024
_MAX_HEADER = 1 * 1024 * 1024
_MAX_DEPTH = 32
_MAX_CONTAINER = 1_000_000
#: One record cipher slice (the cipher XORs at most this much at a time).
#: Bytes leaves and frames larger than this are encoded and decoded
#: without an intermediate copy.
BULK_SLICE = 64 * 1024

#: Largest possible encoded frame: fixed prefix + max header blob + max
#: payload.  Layers wrapping whole frames (the record cipher) use this to
#: bound hostile length fields before doing any work.
MAX_FRAME_WIRE_SIZE = _HEADER_STRUCT.size + _MAX_HEADER + MAX_FRAME_PAYLOAD


class FrameKind(enum.IntEnum):
    """Traffic classes; the paper's architecture separates control and data."""

    CONTROL = 1  # inter-proxy control protocol
    DATA = 2  # application traffic (tunneled site-to-site)
    HANDSHAKE = 3  # security-layer handshake records
    HEARTBEAT = 4  # failure-detector probes
    MPI = 5  # multiplexed MPI traffic through virtual slaves


_KINDS = {int(kind): kind for kind in FrameKind}

# ---------------------------------------------------------------------------
# gridcodec: self-describing value encoding
# ---------------------------------------------------------------------------

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

_B_INT, _B_STR, _B_BYTES = b"\x03", b"\x05", b"\x06"  # those tags, ready to concatenate
#: encode_value({}): what a frame without headers carries
_NO_HEADERS = b"\x08\x00\x00\x00\x00"

_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")
_pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from

#: Wire form (tag + length + utf-8) of dict keys already encoded.  Control
#: traffic repeats a few dozen keys for ever; a forwarded dict can carry
#: arbitrary remote keys, so the table is emptied when it reaches its
#: bound rather than allowed to grow.
_KEY_BLOBS: dict[str, bytes] = {}
_MAX_KEYS = 1024


def _key_blob(key: str) -> bytes:
    raw = key.encode("utf-8")
    blob = _B_STR + _pack_u32(len(raw)) + raw
    if len(_KEY_BLOBS) >= _MAX_KEYS:
        _KEY_BLOBS.clear()
    _KEY_BLOBS[key] = blob
    return blob


def encode_value(value: Any) -> bytes:
    """Encode a plain value to bytes.  Raises CodecError on foreign types."""
    out = bytearray()
    bulk: list[tuple[int, bytes]] = []
    _encode_into(value, out, 0, bulk)
    if not bulk:
        return bytes(out)
    # Bulk leaves were left out of ``out``: one join copies each byte once.
    view = memoryview(out)
    pieces: list[bytes | memoryview] = []
    start = 0
    for at, leaf in bulk:
        pieces += (view[start:at], leaf)
        start = at
    pieces.append(view[start:])
    return b"".join(pieces)


def _encode_into(
    value: Any, out: bytearray, depth: int, bulk: list[tuple[int, bytes]]
) -> None:
    # One call per container, not per value: a dict writes its exact-type
    # str/int/bytes leaves in place; everything else — other containers,
    # None/bool/float, every subclass — goes through the ladder below.
    # A bytes leaf over one slice is not copied into ``out``: its offset
    # there and the leaf go on ``bulk``, for encode_value's one join.
    if depth > _MAX_DEPTH:
        raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
    if isinstance(value, dict):
        count = len(value)
        if count > _MAX_CONTAINER:
            raise CodecError(f"container too large: {count}")
        if count and depth == _MAX_DEPTH:  # its leaves would sit one deeper
            raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
        out.append(_T_DICT)
        out += _pack_u32(count)
        depth += 1
        for key, item in value.items():
            if type(key) is str:
                out += _KEY_BLOBS.get(key) or _key_blob(key)
            elif isinstance(key, str):
                _encode_into(key, out, depth, bulk)
            else:
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            kind = type(item)
            if kind is str:
                raw = item.encode("utf-8")
                out += _B_STR + _pack_u32(len(raw)) + raw
            elif kind is int:
                raw = item.to_bytes((item.bit_length() + 8) // 8 + 1, "big", signed=True)
                out += _B_INT + _pack_u32(len(raw)) + raw
            elif kind is bytes:
                out += _B_BYTES + _pack_u32(len(item))
                if len(item) > BULK_SLICE:
                    bulk.append((len(out), item))
                else:
                    out += item
            else:
                _encode_into(item, out, depth, bulk)
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        # Ints are unbounded (RSA material travels in handshakes).
        out.append(_T_INT)
        out += _pack_u32(len(raw))
        out += raw
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _pack_u32(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_T_BYTES)
        out += _pack_u32(len(raw))
        if len(raw) > BULK_SLICE:
            bulk.append((len(out), raw))
        else:
            out += raw
    elif isinstance(value, (list, tuple)):
        if len(value) > _MAX_CONTAINER:
            raise CodecError(f"container too large: {len(value)}")
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += _pack_u32(len(value))
        for item in value:
            _encode_into(item, out, depth + 1, bulk)
    else:
        raise CodecError(f"cannot encode type {type(value).__name__}")


def encoded_size(value: Any) -> int:
    """``len(encode_value(value))`` without building the bytes (only a
    non-ASCII string is encoded, to count it); the same CodecErrors."""
    return _size_of(value, 0)


def _size_of(value: Any, depth: int) -> int:
    # _encode_into's walk, branch for branch, so the errors match.
    if depth > _MAX_DEPTH:
        raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
    if isinstance(value, dict):
        if len(value) > _MAX_CONTAINER:
            raise CodecError(f"container too large: {len(value)}")
        if value and depth == _MAX_DEPTH:
            raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
        size = 5
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            size += _size_of(key, depth + 1) + _size_of(item, depth + 1)
        return size
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        return 6 + (value.bit_length() + 8) // 8
    if isinstance(value, float):
        return 1 + _F64.size
    if isinstance(value, str):
        return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 5 + memoryview(value).nbytes
    if isinstance(value, (list, tuple)):
        if len(value) > _MAX_CONTAINER:
            raise CodecError(f"container too large: {len(value)}")
        return 5 + sum([_size_of(item, depth + 1) for item in value])
    raise CodecError(f"cannot encode type {type(value).__name__}")


def decode_value(data: "bytes | bytearray | memoryview") -> Any:
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


def _decode_from(
    data: "bytes | bytearray | memoryview", offset: int, depth: int
) -> tuple[Any, int]:
    # Mirror of _encode_into: one call per container, a dict reads its
    # keys and its int/str/bytes leaves in place.  Length reads and bounds
    # checks are inlined; every length is checked before it is used.
    size = len(data)
    if depth > _MAX_DEPTH:
        raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
    if offset >= size:
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _T_DICT:
        if offset + 4 > size:
            raise CodecError("truncated value")
        count = _unpack_u32(data, offset)[0]
        offset += 4
        if count > _MAX_CONTAINER:
            raise CodecError(f"container too large: {count}")
        if count and depth == _MAX_DEPTH:  # its leaves would sit one deeper
            raise CodecError(f"value nesting exceeds {_MAX_DEPTH}")
        depth += 1
        result: dict[str, Any] = {}
        try:
            for _ in range(count):
                if offset + 5 > size:
                    raise CodecError("truncated value")
                if data[offset] != _T_STR:
                    raise CodecError("dict key is not a string")
                end = offset + 5 + _unpack_u32(data, offset + 1)[0]
                if end >= size:  # the key and at least the value's tag
                    raise CodecError("truncated value")
                # bytes(bytes) is identity, so only memoryview input copies
                # — and must: decoded values own their data.
                key = bytes(data[offset + 5 : end]).decode("utf-8")
                tag = data[end]
                offset = end + 1
                if tag == _T_STR or tag == _T_BYTES or tag == _T_INT:
                    if offset + 4 > size:
                        raise CodecError("truncated value")
                    end = offset + 4 + _unpack_u32(data, offset)[0]
                    if end > size:
                        raise CodecError("truncated value")
                    if tag == _T_INT:
                        result[key] = int.from_bytes(data[offset + 4 : end], "big", signed=True)
                    elif tag == _T_BYTES:
                        result[key] = bytes(data[offset + 4 : end])
                    else:
                        result[key] = bytes(data[offset + 4 : end]).decode("utf-8")
                    offset = end
                else:
                    result[key], offset = _decode_from(data, end, depth)
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from exc
        return result, offset
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
    if tag == _T_INT or tag == _T_STR or tag == _T_BYTES:
        if offset + 4 > size:
            raise CodecError("truncated value")
        end = offset + 4 + _unpack_u32(data, offset)[0]
        offset += 4
        if end > size:
            raise CodecError("truncated value")
        if tag == _T_INT:
            return int.from_bytes(data[offset:end], "big", signed=True), end
        if tag == _T_BYTES:
            return bytes(data[offset:end]), end
        try:
            return bytes(data[offset:end]).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from exc
    if tag == _T_LIST or tag == _T_TUPLE:
        if offset + 4 > size:
            raise CodecError("truncated value")
        count = _unpack_u32(data, offset)[0]
        offset += 4
        if count > _MAX_CONTAINER:
            raise CodecError(f"container too large: {count}")
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    raise CodecError(f"unknown type tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


@dataclass
class Frame:
    """One unit of middleware traffic."""

    kind: FrameKind
    channel: int = 0
    headers: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""

    def __post_init__(self) -> None:
        if type(self.kind) is not FrameKind:
            self.kind = FrameKind(self.kind)
        if not 0 <= self.channel <= 0xFFFFFFFF:
            raise FrameError(f"channel id out of range: {self.channel}")
        if type(self.payload) is bytes:
            return
        if isinstance(self.payload, bytearray):
            self.payload = bytes(self.payload)
        elif not isinstance(self.payload, (bytes, memoryview)):
            # memoryview payloads are the zero-copy receive path: the
            # decoder hands out views into its reassembly buffer (see
            # FrameDecoder.next_frame_view for the lifetime contract).
            # memoryview == bytes compares contents, so consumers that
            # only read or compare payloads never notice the difference.
            raise FrameError(
                f"payload must be bytes, got {type(self.payload).__name__}"
            )

    def wire_size(self) -> int:
        """Bytes this frame occupies on the wire."""
        return sum(len(view) for view in encode_frame_views(self))


def encode_frame_views(frame: Frame) -> list[bytes]:
    """Serialise a frame to an iovec-style list of buffers.

    The concatenation of the views is the wire representation; the payload
    rides as-is (zero-copy) so vectored socket writes never duplicate large
    bodies.  :func:`encode_frame` joins the views for callers that need one
    contiguous blob.
    """
    headers = frame.headers
    bare = type(headers) is dict and not headers  # every sealed record's carrier frame
    header_blob = _NO_HEADERS if bare else encode_value(headers)
    if len(header_blob) > _MAX_HEADER:
        raise FrameError(f"header blob too large: {len(header_blob)}")
    if len(frame.payload) > MAX_FRAME_PAYLOAD:
        raise FrameError(f"payload too large: {len(frame.payload)}")
    prefix = _HEADER_STRUCT.pack(
        _MAGIC,
        _VERSION,
        int(frame.kind),
        frame.channel,
        len(header_blob),
        len(frame.payload),
    )
    return [prefix + header_blob, frame.payload]


#: a sealed record's carrier: a header-less DATA frame
_CARRIER = struct.Struct("!4sIII5s")
_CARRIER_HEAD = _MAGIC + bytes((_VERSION, FrameKind.DATA))


def carrier_prefix(channel: int, record_len: int) -> bytes:
    """``encode_frame_views(Frame(DATA, channel, {}, record))[0]``, no frame built."""
    if record_len > MAX_FRAME_PAYLOAD:
        raise FrameError(f"payload too large: {record_len}")
    return _CARRIER.pack(_CARRIER_HEAD, channel, len(_NO_HEADERS), record_len, _NO_HEADERS)


def encode_frame(frame: Frame) -> bytes:
    """Serialise a frame to its wire representation."""
    return b"".join(encode_frame_views(frame))


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame; rejects trailing bytes.

    Over one slice, a ``bytes`` blob's payload is a view of it (immutable,
    so safe to keep): a bulk value is then copied once, by
    :func:`decode_value`'s leaf copy.
    """
    if type(data) is bytes and len(data) > BULK_SLICE:
        frame, consumed = _decode_frame_at(memoryview(data), 0, copy=False)
    else:
        frame, consumed = _decode_frame_at(data, 0)
    if frame is None:
        raise FrameError("truncated frame")
    if consumed != len(data):
        raise FrameError(f"{len(data) - consumed} trailing bytes after frame")
    return frame


def _decode_frame_at(
    data: "bytes | bytearray | memoryview",
    offset: int,
    limit: Optional[int] = None,
    copy: bool = True,
) -> tuple[Optional[Frame], int]:
    """Try to decode a frame starting at ``offset`` in ``data``.

    ``data`` may be bytes, bytearray or memoryview; nothing before
    ``offset`` is touched or copied.  ``limit`` caps how far into ``data``
    the decoder may read (logical length; defaults to ``len(data)``).
    With ``copy=False`` the returned frame's payload is a memoryview into
    ``data`` — valid only as long as the caller keeps the backing buffer
    stable (see :meth:`FrameDecoder.next_frame_view`).  Returns
    (frame, bytes_consumed_from_offset) or (None, 0) when more bytes are
    needed.
    """
    available = (len(data) if limit is None else limit) - offset
    if available < _HEADER_STRUCT.size:
        return None, 0
    magic, version, kind_raw, channel, hlen, plen = _HEADER_STRUCT.unpack_from(
        data, offset
    )
    if magic != _MAGIC:
        raise FrameError(f"bad magic: {magic!r}")
    if version != _VERSION:
        raise FrameError(f"unsupported version: {version}")
    if hlen > _MAX_HEADER:
        raise FrameError(f"header length too large: {hlen}")
    if plen > MAX_FRAME_PAYLOAD:
        raise FrameError(f"payload length too large: {plen}")
    kind = _KINDS.get(kind_raw)
    if kind is None:
        raise FrameError(f"unknown frame kind: {kind_raw}")
    total = _HEADER_STRUCT.size + hlen + plen
    if available < total:
        return None, 0
    body_start = offset + _HEADER_STRUCT.size
    if isinstance(data, bytes):
        header_blob = data[body_start : body_start + hlen]
        payload = data[body_start + hlen : offset + total]
    else:
        view = memoryview(data)
        # Headers are small and must be bytes for the value codec; the
        # payload is the bulk, so that is where copy=False pays off.
        header_blob = bytes(view[body_start : body_start + hlen])
        if copy:
            # One copy per field (a plain bytearray slice would copy twice).
            payload = bytes(view[body_start + hlen : offset + total])
            view.release()
        elif plen:
            payload = view[body_start + hlen : offset + total]
        else:
            payload = b""  # empty views would pin the buffer for nothing
    if header_blob == _NO_HEADERS:
        headers: Any = {}
    else:
        try:
            headers = decode_value(header_blob)
        except CodecError as exc:
            # Corrupt header bytes are a framing error: the stream cannot be
            # resynchronised, so the decoder must poison itself, not leak a
            # CodecError past its FrameError contract.
            raise FrameError(f"corrupt frame headers: {exc}") from exc
        if not isinstance(headers, dict):
            raise FrameError("frame headers are not a dict")
    # Every field is validated above, so Frame.__post_init__ is skipped.
    frame = object.__new__(Frame)
    frame.kind, frame.channel, frame.headers, frame.payload = kind, channel, headers, payload
    return frame, total


#: Consumed prefix beyond which the decoder buffer is compacted eagerly;
#: below it, compaction waits until the buffer fully drains (the common
#: case), so steady-state decoding never memmoves the tail per frame.
_COMPACT_THRESHOLD = 256 * 1024


@shared_state
class FrameDecoder:
    """Incremental decoder for a byte stream (TCP reassembly).

    Feed arbitrary chunks with :meth:`feed` (bytes, bytearray or
    memoryview — no intermediate ``bytes()`` copy is made), or read
    straight off a socket with :meth:`feed_into`; iterate complete frames
    off the decoder.  Corrupt input raises :class:`FrameError` and poisons
    the decoder (a stream with a framing error cannot be resynchronised).

    Internally one bytearray holds the stream with a consumed offset and
    reserved tail capacity, so reassembly cost is linear in bytes received
    even under one-byte TCP reads; consumed space is reclaimed at feed
    time only, never between decodes.

    **Zero-copy lifetime contract.** :meth:`next_frame_view` returns
    frames whose payload is a memoryview into the reassembly buffer.
    Such views are valid until the next ``feed``/``feed_into`` call on
    this decoder; consume (or copy) them before feeding again.  A caller
    that violates the contract never sees corruption — feeding while
    views are still exported makes the decoder abandon the old buffer to
    those views and continue in a fresh one (the views stay correct, the
    decoder just pays the copy the caller was trying to avoid).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._len = 0  # logical bytes fed (buffer may hold spare capacity)
        self._offset = 0  # bytes of the logical prefix already decoded
        self._poisoned = False
        self._views_out = False  # next_frame_view handed out buffer views
        #: wire size of the frame most recently returned by next_frame
        self.last_frame_wire_size = 0

    # -- feeding ---------------------------------------------------------

    def feed(self, chunk: "bytes | bytearray | memoryview") -> None:
        """Append a received chunk (any bytes-like object, uncopied)."""
        if self._poisoned:
            raise FrameError("decoder poisoned by earlier framing error")
        self._compact()
        clen = len(chunk)
        if clen:
            self._reserve(clen)
            # Equal-length slice assignment copies straight from the
            # source buffer — legal even while old views are exported
            # (no resize), and never materialises an intermediate bytes.
            self._buffer[self._len : self._len + clen] = chunk
            self._len += clen

    def feed_into(self, readinto, max_bytes: int = 64 * 1024) -> int:
        """Read from ``readinto`` straight into the reassembly buffer.

        ``readinto(view)`` must fill the writable view and return the
        byte count (``socket.recv_into`` has exactly this shape), so the
        kernel-to-decoder hop is the only copy on the receive path.
        Returns the byte count (0 means EOF).  A ``BlockingIOError`` or
        other exception from ``readinto`` leaves the decoder unchanged.

        With a frame's header buffered and its lengths in bounds, the read
        asks for the rest of that frame, up to ``4 * max_bytes``: the most
        an unauthenticated header can make the decoder reserve ahead.
        """
        if self._poisoned:
            raise FrameError("decoder poisoned by earlier framing error")
        self._compact()
        pending = self._len - self._offset
        if pending >= _HEADER_STRUCT.size:
            hlen, plen = _HEADER_STRUCT.unpack_from(self._buffer, self._offset)[4:]
            if hlen <= _MAX_HEADER and plen <= MAX_FRAME_PAYLOAD:
                rest = _HEADER_STRUCT.size + hlen + plen - pending
                max_bytes = max(max_bytes, min(rest, 4 * max_bytes))
        self._reserve(max_bytes)
        with memoryview(self._buffer) as whole:
            n = readinto(whole[self._len : self._len + max_bytes])
        if n:
            self._len += n
        return n or 0

    def _reserve(self, extra: int) -> None:
        """Grow physical capacity so ``extra`` more bytes fit."""
        need = self._len + extra
        cap = len(self._buffer)
        if need <= cap:
            return
        grow = max(need, cap * 2, 64 * 1024) - cap
        try:
            self._buffer += bytes(grow)
        except BufferError:
            # A leaked view pins the old buffer: abandon it (its content
            # stays stable for the view holders) and continue in a copy.
            fresh = bytearray(max(need, cap * 2, 64 * 1024))
            fresh[: self._len] = memoryview(self._buffer)[: self._len]
            self._buffer = fresh
            self._views_out = False

    def _compact(self) -> None:
        offset = self._offset
        if not offset:
            return
        if offset >= self._len:
            # Fully drained: rewind and reuse the buffer — unless views
            # into it may still be alive, in which case reusing the space
            # would silently corrupt them.  The append probe is how a
            # bytearray reports live exports; on the common path (views
            # consumed before the next feed) it costs one branch.
            if self._views_out:
                try:
                    self._buffer.append(0)
                    del self._buffer[-1:]
                except BufferError:
                    self._buffer = bytearray(len(self._buffer))
                self._views_out = False
            self._len = 0
            self._offset = 0
        elif offset >= _COMPACT_THRESHOLD:
            try:
                del self._buffer[:offset]
            except BufferError:
                self._buffer = bytearray(
                    memoryview(self._buffer)[offset : self._len]
                )
                self._views_out = False
            self._len -= offset
            self._offset = 0

    # -- decoding --------------------------------------------------------

    def __iter__(self) -> Iterator[Frame]:
        return self

    def __next__(self) -> Frame:
        frame = self.next_frame()
        if frame is None:
            raise StopIteration
        return frame

    def next_frame(self) -> Optional[Frame]:
        """Pop one complete frame (payload copied), or None if starved."""
        return self._next(copy=True)

    def next_frame_view(self) -> Optional[Frame]:
        """Pop one complete frame with a zero-copy memoryview payload.

        The payload view is valid until the next ``feed``/``feed_into``
        on this decoder — see the class docstring for the full contract.
        """
        return self._next(copy=False)

    def _next(self, copy: bool) -> Optional[Frame]:
        if self._poisoned:
            raise FrameError("decoder poisoned by earlier framing error")
        try:
            frame, consumed = _decode_frame_at(
                self._buffer, self._offset, limit=self._len, copy=copy
            )
        except FrameError:
            self._poisoned = True
            raise
        if frame is None:
            return None
        if not copy and isinstance(frame.payload, memoryview):
            self._views_out = True
        self._offset += consumed
        self.last_frame_wire_size = consumed
        return frame

    @property
    def pending_bytes(self) -> int:
        """Bytes fed but not yet decoded into a returned frame."""
        return self._len - self._offset
