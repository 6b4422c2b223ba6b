"""Finite-field Diffie–Hellman key agreement.

The SSL-like handshake's only key exchange: it derives every tunnel's
session keys with forward secrecy (see :mod:`repro.security.handshake`).

The group is fixed: the 2048-bit MODP group 14 from RFC 3526 — a
well-known safe prime, so there is no parameter-generation cost, no
parameter to agree on, and no possibility of a weak modulus sneaking in.
"""

from __future__ import annotations

import hashlib
import secrets

__all__ = ["DiffieHellman", "DhError", "MODP_2048", "MODP_GENERATOR"]

#: RFC 3526 group 14 prime (2048-bit MODP).
MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_GENERATOR = 2


class DhError(Exception):
    """Raised for out-of-range peer values (small-subgroup defence)."""


class DiffieHellman:
    """One party's ephemeral DH state.

    >>> alice, bob = DiffieHellman(), DiffieHellman()
    >>> alice.shared_secret(bob.public) == bob.shared_secret(alice.public)
    True
    """

    prime = MODP_2048

    def __init__(self) -> None:
        # 256-bit exponents give ~128-bit security in a 2048-bit group.
        self._exponent = secrets.randbits(256) | 1
        self.public = pow(MODP_GENERATOR, self._exponent, MODP_2048)

    def shared_secret(self, peer_public: int) -> bytes:
        """Derive the 32-byte shared secret from the peer's public value."""
        if not 2 <= peer_public <= MODP_2048 - 2:
            raise DhError("peer public value out of range")
        shared = pow(peer_public, self._exponent, MODP_2048)
        raw = shared.to_bytes((MODP_2048.bit_length() + 7) // 8, "big")
        return hashlib.sha256(raw).digest()
