"""The grid-wide Certification Authority.

The paper recommends "the creation of a Certification Authority (CA) for
the entire grid, providing greater autonomy for the creation and management
of certificates".  :class:`CertificationAuthority` issues, tracks and
revokes certificates; every proxy holds the CA's self-signed certificate
as its trust anchor.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.security.certs import Certificate, CertificateError
from repro.security.rsa import RsaKeyPair, RsaPublicKey

__all__ = ["CertificationAuthority"]

#: Ten years: the CA outlives every subject certificate.
_CA_LIFETIME = 10 * 365 * 24 * 3600.0
_DEFAULT_LIFETIME = 365 * 24 * 3600.0


class CertificationAuthority:
    """Issues certificates for proxies, nodes, users and services.

    ``clock`` is a zero-argument callable returning the current time; pass
    ``lambda: sim.now`` for simulated grids and ``time.time`` for live ones.
    """

    def __init__(
        self,
        name: str = "grid-ca",
        key_bits: int = 1024,
        clock: Callable[[], float] = None,
        keypair: Optional[RsaKeyPair] = None,
    ):
        self.name = name
        self.clock = clock or (lambda: 0.0)
        self.keypair = keypair or RsaKeyPair.generate(key_bits)
        self._serial = 0
        self._issued: dict[int, Certificate] = {}
        self._revoked: set[int] = set()
        self.certificate = self._self_sign()

    def _self_sign(self) -> Certificate:
        now = self.clock()
        self._serial += 1
        cert = Certificate(
            subject=self.name,
            role="ca",
            public_key=self.keypair.public,
            issuer=self.name,
            serial=self._serial,
            not_before=now,
            not_after=now + _CA_LIFETIME,
            signature=b"",
        )
        signed = Certificate(
            **{**cert.__dict__, "signature": self.keypair.sign(cert.tbs_bytes())}
        )
        self._issued[signed.serial] = signed
        return signed

    @property
    def public_key(self) -> RsaPublicKey:
        return self.keypair.public

    def issue(
        self,
        subject: str,
        role: str,
        public_key: RsaPublicKey,
        lifetime: float = _DEFAULT_LIFETIME,
    ) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``."""
        if lifetime <= 0:
            raise ValueError(f"lifetime must be positive: {lifetime}")
        if not subject:
            raise ValueError("empty subject")
        now = self.clock()
        self._serial += 1
        unsigned = Certificate(
            subject=subject,
            role=role,
            public_key=public_key,
            issuer=self.name,
            serial=self._serial,
            not_before=now,
            not_after=now + lifetime,
            signature=b"",
        )
        cert = Certificate(
            **{**unsigned.__dict__, "signature": self.keypair.sign(unsigned.tbs_bytes())}
        )
        self._issued[cert.serial] = cert
        return cert

    def revoke(self, serial: int) -> None:
        """Add a serial to the revocation list."""
        if serial not in self._issued:
            raise KeyError(f"unknown serial: {serial}")
        self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    def validate(
        self, cert: Certificate, expected_role: Optional[str] = None
    ) -> None:
        """Validate signature, validity window, role and revocation status."""
        cert.check(self.public_key, self.clock(), expected_role=expected_role)
        if cert.serial in self._revoked:
            raise CertificateError(
                f"certificate for {cert.subject!r}: revoked (serial {cert.serial})"
            )
