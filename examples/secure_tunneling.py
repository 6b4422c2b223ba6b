"""The security layer, piece by piece.

Demonstrates the paper's layer 2 using the library's primitives directly:

1. a grid-wide Certification Authority issues proxy certificates;
2. two proxies run the SSL-like handshake (ephemeral DH, RSA-signed)
   over a raw channel and derive a secure tunnel, then redial and
   resume the session from a ticket without the DH exchange;
3. tunneled traffic is confidential (headers included) and
   tamper-evident;
4. a revoked certificate is refused at handshake time;
5. Kerberos-style tickets (bearer tokens) authenticate once per session.

Run:  python examples/secure_tunneling.py
"""

import threading
import time

from repro.security.auth import UserDirectory
from repro.security.ca import CertificationAuthority
from repro.security.handshake import (
    SessionTicketKeeper,
    accept_secure,
    connect_secure,
)
from repro.security.rsa import RsaKeyPair
from repro.security.tokens import TokenService
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import channel_pair

KEY_BITS = 512  # small keys keep the demo snappy; see benchmarks for sweeps


def handshake_pair(ca, clock, identities, keeper, resumption=None):
    (key_a, cert_a), (key_b, cert_b) = identities
    raw_a, raw_b = channel_pair("demo")
    result = {}

    def server():
        result["b"] = accept_secure(
            raw_b, key_b, cert_b, ca.public_key, clock, ticket_keeper=keeper
        )

    thread = threading.Thread(target=server)
    thread.start()
    secure_a = connect_secure(
        raw_a, key_a, cert_a, ca.public_key, clock, resumption=resumption
    )
    thread.join()
    return secure_a, result["b"], raw_b


def main() -> None:
    clock = time.time
    print("== the grid CA ==")
    ca = CertificationAuthority(name="grid-ca", key_bits=KEY_BITS, clock=clock)
    print(f"CA self-signed root: {ca.certificate.subject!r}, "
          f"fingerprint {ca.public_key.fingerprint()}")

    identities = []
    for subject in ["proxy.siteA", "proxy.siteB"]:
        key = RsaKeyPair.generate(KEY_BITS)
        identities.append((key, ca.issue(subject, "proxy", key.public)))
    keeper = SessionTicketKeeper(clock)  # B's session-ticket key
    resumption = None
    for kind in ["full", "resumed"]:
        print(f"\n== {kind} handshake ==")
        start = time.perf_counter()
        secure_a, secure_b, raw_b = handshake_pair(
            ca, clock, identities, keeper, resumption=resumption
        )
        elapsed = time.perf_counter() - start
        if secure_a.resumed != (kind == "resumed"):
            raise SystemExit(f"expected a {kind} handshake")
        print(f"mutual authentication in {elapsed * 1000:.1f} ms "
              f"(resumed: {secure_a.resumed}); "
              f"A sees peer {secure_a.peer.subject!r}, "
              f"B sees peer {secure_b.peer.subject!r}")
        resumption = secure_a.resumption_ticket  # rotated on every handshake

        secure_a.send(
            Frame(kind=FrameKind.CONTROL,
                  headers={"op": "TOP_SECRET_OPERATION"},
                  payload=b"the payload")
        )
        carrier = raw_b.recv(timeout=5.0)  # what a wire-tapper sees
        leaked = b"TOP_SECRET_OPERATION" in carrier.payload
        print(f"on the wire: {len(carrier.payload)} opaque bytes; "
              f"header leaked? {leaked}")

    print("\n== revocation ==")
    key_c = RsaKeyPair.generate(KEY_BITS)
    cert_c = ca.issue("proxy.compromised", "proxy", key_c.public)
    ca.revoke(cert_c.serial)
    key_b = RsaKeyPair.generate(KEY_BITS)
    cert_b = ca.issue("proxy.siteB2", "proxy", key_b.public)
    raw_c, raw_b2 = channel_pair("revoked")

    def strict_server():
        try:
            accept_secure(
                raw_b2, key_b, cert_b, ca.public_key, clock,
                revocation_check=lambda cert: ca.is_revoked(cert.serial),
            )
        except Exception as exc:
            print(f"server refused the revoked peer: {exc}")

    thread = threading.Thread(target=strict_server)
    thread.start()
    try:
        connect_secure(raw_c, key_c, cert_c, ca.public_key, clock)
    except Exception:
        pass
    thread.join()

    print("\n== session tickets (single authentication per session) ==")
    users = UserDirectory()
    users.add_user("alice", "pw")
    origin = TokenService(users, clock, issuer="proxy.A")
    destination = TokenService(users, clock, key=origin.key, issuer="proxy.B")
    token = origin.login("alice", "pw", scopes=["jobs:submit", "wms:read"])
    print(f"token for {token.userid!r}, scopes {token.scopes}, "
          f"valid {token.expires_at - token.issued_at:.0f}s")
    ticket = token.to_bytes()
    for request in range(3):
        # no password involved, no hop back to the issuing proxy
        destination.verify_blob(ticket, required_scope="jobs:submit")
    print("3 requests verified at another proxy — zero re-authentications")


if __name__ == "__main__":
    main()
