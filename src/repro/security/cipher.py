"""Authenticated symmetric records: the tunnel's bulk cipher.

Once the handshake agrees on session keys, every tunneled frame body is
protected by :class:`RecordCipher`: a counter-mode keystream for
confidentiality and HMAC-SHA-256 over (sequence number, ciphertext) for
integrity, composed encrypt-then-MAC.  Sequence numbers are bound into
both keystream and MAC, so replayed, reordered or truncated records are
rejected — the properties SSL gave the paper.

Record layout (identical for every suite)::

    seq      8 bytes   big-endian record sequence number
    mac     32 bytes   HMAC-SHA-256 tag
    body     n bytes   ciphertext

Two keystream suites share that layout (the handshake negotiates one,
exactly as it negotiates the key-exchange mode):

* ``"sha256ctr"`` — the original SHA-256 counter mode,
  ``KS_i = H(key || seq || i)``.  Byte-for-byte compatible with
  pre-fast-path peers, and the default when the peer negotiates nothing.
* ``"shake128"`` — SHAKE-128 as an extendable-output function,
  ``KS = SHAKE128(key || seq)``; the whole record keystream is one C
  call instead of one hash per 32 bytes, an order of magnitude faster.

Both run the fast data path: whole-buffer big-integer XOR and a
pre-keyed HMAC template cloned per record (two hash updates instead of a
full key schedule).  ``benchmarks/e2e`` reports the measured cost per
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
    "CIPHER_SUITES",
    "CipherError",
    "MAX_RECORD_BODY",
    "RecordCipher",
    "SessionKeys",
    "derive_session_keys",
]

_SEQ = struct.Struct("!Q")
_MAC_LEN = 32
_HEADER_LEN = _SEQ.size + _MAC_LEN
_BLOCK = 32  # SHA-256 output size drives the sha256ctr keystream block

#: Keystream suites, best first.  ``sha256ctr`` must stay last: it is the
#: wire-compatible fallback every peer supports.
CIPHER_SUITES = ("shake128", "sha256ctr")

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


class RecordCipher:
    """One direction of an established secure channel.

    The sender and receiver each hold a RecordCipher built from the same
    :class:`SessionKeys` and suite; ``seal`` increments the send sequence,
    ``open`` enforces strictly increasing receive sequence (replay
    protection).
    """

    def __init__(self, keys: SessionKeys, suite: str = "sha256ctr"):
        if suite not in CIPHER_SUITES:
            raise CipherError(f"unknown cipher suite: {suite!r}")
        self.keys = keys
        self.suite = suite
        self._send_seq = 0
        self._recv_seq = -1
        # Pre-keyed templates: cloning skips the HMAC key schedule (two
        # SHA-256 inits + key XORs) and the keystream prefix hash per record.
        self._mac_template = hmac.new(keys.mac_key, digestmod=hashlib.sha256)
        if suite == "shake128":
            self._ks_base = hashlib.shake_128(keys.encrypt_key)
            self._keystream = self._keystream_shake128
        else:
            self._ks_base = hashlib.sha256(keys.encrypt_key)
            self._keystream = self._keystream_sha256ctr

    def _keystream_sha256ctr(self, seq: int, nbytes: int) -> bytes:
        """SHA-256 in counter mode: KS_i = H(key || seq || i).

        The per-block hash input shares the (key || seq) prefix, so a
        partially-updated hash object is cloned per block instead of
        re-hashing the prefix; output is identical to hashing the full
        concatenation, i.e. byte-compatible with the seed implementation.
        """
        if nbytes <= 0:
            return b""
        base = self._ks_base.copy()
        base.update(_SEQ.pack(seq))
        blocks = []
        append = blocks.append
        for counter in range((nbytes + _BLOCK - 1) // _BLOCK):
            h = base.copy()
            h.update(counter.to_bytes(8, "big"))
            append(h.digest())
        stream = b"".join(blocks)
        return stream if len(stream) == nbytes else stream[:nbytes]

    def _keystream_shake128(self, seq: int, nbytes: int) -> bytes:
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
    """Fresh 32-byte master secret (used by tests and the RSA key-transport
    handshake variant, where the client generates the secret)."""
    return secrets.token_bytes(32)
