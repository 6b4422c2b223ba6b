"""RSA key pairs and signatures.

Substitutes for the asymmetric half of OpenSSL in the paper's security
layer.  RSA only signs here: CA certificates, the handshake transcripts
and login by signature.  Session keys come from Diffie–Hellman, never
from RSA key transport.  Signatures use the classic "hash, pad, modexp"
construction (PKCS#1 v1.5 style padding over SHA-256).

The implementation favours clarity over side-channel resistance — this is
a research reproduction, **not** production cryptography.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.security.numbers import generate_prime, modinv

__all__ = ["RsaError", "RsaKeyPair", "RsaPublicKey", "DEFAULT_KEY_BITS"]

#: 1024-bit keys were the contemporary choice in 2003 and keep pure-Python
#: keygen fast; tests use smaller keys, benches sweep sizes.
DEFAULT_KEY_BITS = 1024

_PUBLIC_EXPONENT = 65537
_SIG_MARKER = b"\x01"  # PKCS#1 v1.5 signature block type


class RsaError(Exception):
    """Raised for malformed keys and keys too small to sign with."""


@dataclass(frozen=True)
class RsaPublicKey:
    """The public half (n, e): verify signatures."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Stable short identifier for logs and certificate subjects."""
        blob = self.to_bytes()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_bytes(self) -> bytes:
        n_raw = self.n.to_bytes(self.byte_length, "big")
        e_raw = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return (
            len(n_raw).to_bytes(4, "big")
            + n_raw
            + len(e_raw).to_bytes(4, "big")
            + e_raw
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RsaPublicKey":
        try:
            n_len = int.from_bytes(blob[:4], "big")
            n = int.from_bytes(blob[4 : 4 + n_len], "big")
            offset = 4 + n_len
            e_len = int.from_bytes(blob[offset : offset + 4], "big")
            e = int.from_bytes(blob[offset + 4 : offset + 4 + e_len], "big")
            if offset + 4 + e_len != len(blob):
                raise RsaError("trailing bytes in public key")
        except (IndexError, OverflowError) as exc:
            raise RsaError(f"malformed public key: {exc}") from exc
        if n <= 0 or e <= 0:
            raise RsaError("non-positive key components")
        return cls(n=n, e=e)

    # -- verification ---------------------------------------------------------

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a signature produced by the matching private key."""
        if len(signature) != self.byte_length:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        expected = int.from_bytes(_pad_digest(message, self.byte_length), "big")
        return recovered == expected


@dataclass(frozen=True)
class RsaKeyPair:
    """A full RSA key: sign.  Create with :meth:`generate`."""

    n: int
    e: int
    d: int

    @classmethod
    def generate(cls, bits: int = DEFAULT_KEY_BITS) -> "RsaKeyPair":
        if bits < 256:
            raise RsaError(f"key too small: {bits} bits (minimum 256)")
        while True:
            p = generate_prime(bits // 2)
            q = generate_prime(bits - bits // 2)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if phi % _PUBLIC_EXPONENT == 0:
                continue
            d = modinv(_PUBLIC_EXPONENT, phi)
            return cls(n=n, e=_PUBLIC_EXPONENT, d=d)

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """Sign SHA-256(message) with deterministic padding."""
        padded = _pad_digest(message, self.byte_length)
        m = int.from_bytes(padded, "big")
        return pow(m, self.d, self.n).to_bytes(self.byte_length, "big")


def _pad_digest(message: bytes, k: int) -> bytes:
    """PKCS#1 v1.5-style signature block: 00 01 FF..FF 00 || SHA-256."""
    digest = hashlib.sha256(message).digest()
    pad_len = k - len(digest) - 3
    if pad_len < 8:
        raise RsaError(f"key too small for SHA-256 signature: {k} bytes")
    return b"\x00" + _SIG_MARKER + b"\xff" * pad_len + b"\x00" + digest
