"""Authenticated symmetric records: the tunnel's bulk cipher.

Once the handshake agrees on session keys, every tunneled frame body is
protected by :class:`RecordCipher`: a SHAKE-128 keystream for
confidentiality and HMAC-SHA-256 over (sequence number, ciphertext) for
integrity, composed encrypt-then-MAC.  Sequence numbers are bound into
both keystream and MAC, so replayed, reordered or truncated records are
rejected — the properties SSL gave the paper.

Record layout::

    seq      8 bytes   big-endian record sequence number
    mac     32 bytes   HMAC-SHA-256 tag
    body     n bytes   ciphertext

The keystream is ``SHAKE128(key || seq)``, SHAKE-128 used as an
extendable-output function: the whole record keystream is one C call.
It is the only suite, so nothing is negotiated.  It was chosen over
SHA-256 in counter mode (one hash per 32 bytes) because it is an order
of magnitude cheaper per byte from the standard library alone; an AES
suite would need a third-party dependency.  The same construction seals
session tickets (:func:`keystream_xor`).

The data path XORs the whole buffer as one big integer and clones a
pre-keyed HMAC template per record (two hash updates instead of a full
key schedule).  ``benchmarks/e2e`` reports the measured cost per
workload as the ``security.cipher.*`` metrics.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass

from repro.transport.frames import MAX_FRAME_WIRE_SIZE

__all__ = [
    "CipherError",
    "MAX_RECORD_BODY",
    "RecordCipher",
    "SessionKeys",
    "derive_session_keys",
    "keystream_xor",
]

_SEQ = struct.Struct("!Q")
_MAC_LEN = 32
_HEADER_LEN = _SEQ.size + _MAC_LEN

#: Largest ciphertext a well-formed peer can produce: a record body is an
#: encoded frame, bounded by the frame wire format.  Anything larger is
#: rejected *before* the MAC is computed so a hostile peer cannot force
#: unbounded hashing work.
MAX_RECORD_BODY = MAX_FRAME_WIRE_SIZE


class CipherError(Exception):
    """Raised on MAC failure, replay, or malformed records."""


@dataclass(frozen=True)
class SessionKeys:
    """Directional key material derived from a handshake secret."""

    encrypt_key: bytes
    mac_key: bytes

    def __post_init__(self) -> None:
        if len(self.encrypt_key) != 32 or len(self.mac_key) != 32:
            raise CipherError("session keys must be 32 bytes each")


def derive_session_keys(master_secret: bytes, direction: str) -> SessionKeys:
    """Expand a master secret into directional encrypt/MAC keys.

    ``direction`` is a label ("client" or "server") so each flow direction
    gets independent keys, as TLS does.
    """
    if not master_secret:
        raise CipherError("empty master secret")
    enc = hashlib.sha256(b"enc|" + direction.encode() + b"|" + master_secret).digest()
    mac = hashlib.sha256(b"mac|" + direction.encode() + b"|" + master_secret).digest()
    return SessionKeys(encrypt_key=enc, mac_key=mac)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length buffers as one big-integer operation."""
    n = len(data)
    if n == 0:
        return b""
    return (int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")).to_bytes(
        n, "little"
    )


def keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with ``SHAKE128(key || nonce)``; seal and open alike.

    The record construction for one-off buffers such as session tickets,
    where there is no per-direction key to pre-hash.
    """
    return _xor_bytes(data, hashlib.shake_128(key + nonce).digest(len(data)))


class RecordCipher:
    """One direction of an established secure channel.

    The sender and receiver each hold a RecordCipher built from the same
    :class:`SessionKeys`; ``seal`` increments the send sequence, ``open``
    enforces strictly increasing receive sequence (replay protection).
    """

    def __init__(self, keys: SessionKeys):
        self.keys = keys
        self._send_seq = 0
        self._recv_seq = -1
        # Pre-keyed templates: cloning skips the HMAC key schedule (two
        # SHA-256 inits + key XORs) and the keystream prefix hash per record.
        self._mac_template = hmac.new(keys.mac_key, digestmod=hashlib.sha256)
        self._ks_base = hashlib.shake_128(keys.encrypt_key)

    def _keystream(self, seq: int, nbytes: int) -> bytes:
        """SHAKE-128 as an XOF: the whole keystream in one squeeze."""
        if nbytes <= 0:
            return b""
        h = self._ks_base.copy()
        h.update(_SEQ.pack(seq))
        return h.digest(nbytes)

    def _mac(self, seq_raw: bytes, ciphertext: bytes) -> bytes:
        m = self._mac_template.copy()
        m.update(seq_raw)
        m.update(ciphertext)
        return m.digest()

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt and authenticate one record."""
        seq = self._send_seq
        self._send_seq += 1
        seq_raw = _SEQ.pack(seq)
        ciphertext = _xor_bytes(plaintext, self._keystream(seq, len(plaintext)))
        return seq_raw + self._mac(seq_raw, ciphertext) + ciphertext

    def open(self, record: bytes) -> bytes:
        """Verify and decrypt one record; raises CipherError on any fault."""
        if len(record) < _HEADER_LEN:
            raise CipherError(f"record too short: {len(record)} bytes")
        body_len = len(record) - _HEADER_LEN
        if body_len > MAX_RECORD_BODY:
            # Reject before MACing: no hashing work for absurd lengths.
            raise CipherError(f"record body too large: {body_len} bytes")
        seq = _SEQ.unpack_from(record, 0)[0]
        mac = record[_SEQ.size : _HEADER_LEN]
        ciphertext = record[_HEADER_LEN:]
        expected = self._mac(record[: _SEQ.size], ciphertext)
        if not hmac.compare_digest(mac, expected):
            raise CipherError("record MAC verification failed")
        if seq <= self._recv_seq:
            raise CipherError(f"replayed or reordered record: seq {seq}")
        self._recv_seq = seq
        return _xor_bytes(ciphertext, self._keystream(seq, body_len))

    @staticmethod
    def overhead() -> int:
        """Fixed bytes added to every record."""
        return _HEADER_LEN


def random_master_secret() -> bytes:
    """Fresh 32-byte master secret, for tests and benchmarks that build a
    :class:`RecordCipher` pair without running a handshake."""
    return secrets.token_bytes(32)
