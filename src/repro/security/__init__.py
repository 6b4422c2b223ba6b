"""Layer 2 — Security.

The paper's security layer provides host authentication through digital
certificates issued by a grid-wide Certification Authority, user
authentication (userid/password and digital signatures), per-user/per-group
access permissions validated at the originating and destination proxies,
and SSL tunneling of inter-site traffic.

The paper used OpenSSL [8]; offline reproduction substitutes a from-scratch
implementation with the same structure (see DESIGN.md §2):

* :mod:`repro.security.numbers` — modular arithmetic and prime generation;
* :mod:`repro.security.rsa` — RSA keypairs and signatures;
* :mod:`repro.security.dh` — finite-field Diffie–Hellman (RFC 3526
  group 14), the handshake's only key exchange;
* :mod:`repro.security.cipher` — authenticated symmetric records
  (SHAKE-128 keystream + HMAC-SHA-256, encrypt-then-MAC);
* :mod:`repro.security.certs` / :mod:`repro.security.ca` — certificates
  and the grid CA;
* :mod:`repro.security.handshake` — the SSL-like channel handshake, one
  configuration with nothing negotiated;
* :mod:`repro.security.auth` — users, passwords, groups, permissions;
* :mod:`repro.security.tokens` — bearer tokens: the paper's foreseen
  "single authentication per session, with the access rights stored
  safely in a ticket".

**This code is for research reproduction, not production use.**
"""

from repro.security.auth import (
    AccessControlList,
    AuthenticationError,
    PermissionDenied,
    UserDirectory,
)
from repro.security.ca import CertificationAuthority
from repro.security.certs import Certificate, CertificateError
from repro.security.cipher import CipherError, RecordCipher, SessionKeys
from repro.security.dh import DiffieHellman
from repro.security.handshake import (
    HandshakeError,
    SecureChannel,
    accept_secure,
    connect_secure,
)
from repro.security.rsa import RsaKeyPair, RsaPublicKey

__all__ = [
    "AccessControlList",
    "AuthenticationError",
    "Certificate",
    "CertificateError",
    "CertificationAuthority",
    "CipherError",
    "DiffieHellman",
    "HandshakeError",
    "PermissionDenied",
    "RecordCipher",
    "RsaKeyPair",
    "RsaPublicKey",
    "SecureChannel",
    "SessionKeys",
    "UserDirectory",
    "accept_secure",
    "connect_secure",
]
