"""Unit tests for certificates, the CA, handshake and auth."""

import pytest

from repro.security.auth import (
    AccessControlList,
    AuthenticationError,
    PermissionDenied,
    UserDirectory,
)
from repro.security.ca import CertificationAuthority
from repro.security.certs import Certificate, CertificateError
from repro.security.handshake import (
    HandshakeError,
    accept_secure,
    connect_secure,
)
from repro.security.rsa import RsaKeyPair
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import channel_pair

KEY_BITS = 512


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def proxy_key():
    return RsaKeyPair.generate(KEY_BITS)


@pytest.fixture(scope="module")
def node_key():
    return RsaKeyPair.generate(KEY_BITS)


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def ca(clock):
    return CertificationAuthority(key_bits=KEY_BITS, clock=clock)


class TestCertificates:
    def test_issue_and_validate(self, ca, proxy_key, clock):
        cert = ca.issue("proxy.siteA", "proxy", proxy_key.public)
        ca.validate(cert, expected_role="proxy")  # no exception
        assert cert.subject == "proxy.siteA"
        assert cert.issuer == ca.name

    def test_serialisation_round_trip(self, ca, proxy_key):
        cert = ca.issue("proxy.siteA", "proxy", proxy_key.public)
        restored = Certificate.from_bytes(cert.to_bytes())
        assert restored.subject == cert.subject
        assert restored.public_key == cert.public_key
        assert restored.signature == cert.signature

    def test_expired_certificate_rejected(self, ca, proxy_key, clock):
        cert = ca.issue("proxy.siteA", "proxy", proxy_key.public, lifetime=10.0)
        clock.now += 11.0
        with pytest.raises(CertificateError, match="expired"):
            ca.validate(cert)

    def test_not_yet_valid_rejected(self, ca, proxy_key, clock):
        cert = ca.issue("proxy.siteA", "proxy", proxy_key.public)
        clock.now -= 100.0
        with pytest.raises(CertificateError, match="not yet valid"):
            ca.validate(cert)

    def test_wrong_role_rejected(self, ca, proxy_key):
        cert = ca.issue("node.1", "node", proxy_key.public)
        with pytest.raises(CertificateError, match="role"):
            ca.validate(cert, expected_role="proxy")

    def test_forged_signature_rejected(self, ca, proxy_key, clock):
        cert = ca.issue("proxy.siteA", "proxy", proxy_key.public)
        forged = Certificate(**{**cert.__dict__, "subject": "proxy.evil"})
        with pytest.raises(CertificateError, match="signature"):
            forged.check(ca.public_key, clock())

    def test_wrong_ca_rejected(self, proxy_key, clock):
        ca1 = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
        ca2 = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
        cert = ca1.issue("proxy.siteA", "proxy", proxy_key.public)
        with pytest.raises(CertificateError):
            cert.check(ca2.public_key, clock())

    def test_revocation(self, ca, proxy_key):
        cert = ca.issue("proxy.siteA", "proxy", proxy_key.public)
        ca.revoke(cert.serial)
        assert ca.is_revoked(cert.serial)
        with pytest.raises(CertificateError, match="revoked"):
            ca.validate(cert)

    def test_revoke_unknown_serial(self, ca):
        with pytest.raises(KeyError):
            ca.revoke(9999)

    def test_ca_self_signed_root(self, ca, clock):
        ca.certificate.check(ca.public_key, clock())
        assert ca.certificate.role == "ca"

    def test_malformed_certificate_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_bytes(b"garbage")

    def test_issue_validates_arguments(self, ca, proxy_key):
        with pytest.raises(ValueError):
            ca.issue("", "proxy", proxy_key.public)
        with pytest.raises(ValueError):
            ca.issue("x", "proxy", proxy_key.public, lifetime=0)


def run_handshake(ca, clock, client_key, server_key, **server_kwargs):
    """Drive both handshake ends over an in-process pair; returns channels."""
    import threading

    client_cert = ca.issue("proxy.siteA", "proxy", client_key.public)
    server_cert = ca.issue("proxy.siteB", "proxy", server_key.public)
    a, b = channel_pair("hs")
    result = {}

    def server():
        result["server"] = accept_secure(
            b, server_key, server_cert, ca.public_key, clock, **server_kwargs
        )

    thread = threading.Thread(target=server)
    thread.start()
    client = connect_secure(a, client_key, client_cert, ca.public_key, clock)
    thread.join(timeout=10.0)
    return client, result["server"]


class TestHandshake:
    def test_secure_round_trip(self, ca, clock, proxy_key, node_key):
        client, server = run_handshake(ca, clock, proxy_key, node_key)
        client.send(Frame(kind=FrameKind.CONTROL, headers={"op": "PING"}))
        frame = server.recv(timeout=5.0)
        assert frame.headers == {"op": "PING"}
        server.send(Frame(kind=FrameKind.CONTROL, headers={"op": "PONG"}))
        assert client.recv(timeout=5.0).headers == {"op": "PONG"}

    def test_peer_identity_exposed(self, ca, clock, proxy_key, node_key):
        client, server = run_handshake(ca, clock, proxy_key, node_key)
        assert client.peer.subject == "proxy.siteB"
        assert server.peer.subject == "proxy.siteA"

    def test_headers_are_confidential(self, ca, clock, proxy_key, node_key):
        """Tunneled frame headers must not appear on the inner channel."""
        import threading

        client_cert = ca.issue("c", "proxy", proxy_key.public)
        server_cert = ca.issue("s", "proxy", node_key.public)
        a, b = channel_pair("hs")
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                server=accept_secure(b, node_key, server_cert, ca.public_key, clock)
            )
        )
        thread.start()
        client = connect_secure(a, proxy_key, client_cert, ca.public_key, clock)
        thread.join(timeout=10.0)
        client.send(
            Frame(kind=FrameKind.CONTROL, headers={"op": "SECRET_OPERATION"})
        )
        carrier = b.recv(timeout=5.0)  # read the raw record from the inner side
        assert b"SECRET_OPERATION" not in carrier.payload
        assert carrier.headers == {}

    def test_untrusted_client_rejected(self, ca, clock, proxy_key, node_key):
        import threading

        rogue_ca = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
        client_cert = rogue_ca.issue("evil", "proxy", proxy_key.public)
        server_cert = ca.issue("s", "proxy", node_key.public)
        a, b = channel_pair("hs")
        errors = []

        def server():
            try:
                accept_secure(b, node_key, server_cert, ca.public_key, clock)
            except HandshakeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(HandshakeError):
            # Client trusts the rogue CA, so it rejects the server's cert
            # (signed by the real CA) — either side may fail first.
            connect_secure(a, proxy_key, client_cert, rogue_ca.public_key, clock)
        thread.join(timeout=10.0)

    def test_expired_server_cert_rejected(self, ca, clock, proxy_key, node_key):
        import threading

        client_cert = ca.issue("c", "proxy", proxy_key.public)
        server_cert = ca.issue("s", "proxy", node_key.public, lifetime=10.0)
        clock.now += 100.0
        a, b = channel_pair("hs")

        def server():
            try:
                accept_secure(b, node_key, server_cert, ca.public_key, clock)
            except HandshakeError:
                pass

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(HandshakeError, match="certificate"):
            connect_secure(a, proxy_key, client_cert, ca.public_key, clock)
        thread.join(timeout=10.0)

    def test_role_enforcement(self, ca, clock, proxy_key, node_key):
        client, server = run_handshake(
            ca, clock, proxy_key, node_key, expected_peer_role="proxy"
        )
        assert server.peer.role == "proxy"

    def test_revocation_check_blocks_client(self, ca, clock, proxy_key, node_key):
        import threading

        client_cert = ca.issue("c", "proxy", proxy_key.public)
        server_cert = ca.issue("s", "proxy", node_key.public)
        ca.revoke(client_cert.serial)
        a, b = channel_pair("hs")
        errors = []

        def server():
            try:
                accept_secure(
                    b,
                    node_key,
                    server_cert,
                    ca.public_key,
                    clock,
                    revocation_check=lambda cert: ca.is_revoked(cert.serial),
                )
            except HandshakeError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(HandshakeError):
            connect_secure(a, proxy_key, client_cert, ca.public_key, clock)
        thread.join(timeout=10.0)
        assert any("revoked" in e for e in errors)


class TestUserDirectory:
    def test_password_authentication(self):
        users = UserDirectory()
        users.add_user("alice", "s3cret")
        users.authenticate_password("alice", "s3cret")

    def test_wrong_password_rejected(self):
        users = UserDirectory()
        users.add_user("alice", "s3cret")
        with pytest.raises(AuthenticationError):
            users.authenticate_password("alice", "wrong")

    def test_unknown_user_rejected(self):
        users = UserDirectory()
        with pytest.raises(AuthenticationError):
            users.authenticate_password("nobody", "x")

    def test_disabled_user_rejected(self):
        users = UserDirectory()
        users.add_user("alice", "pw")
        users.disable_user("alice")
        with pytest.raises(AuthenticationError):
            users.authenticate_password("alice", "pw")

    def test_duplicate_user_rejected(self):
        users = UserDirectory()
        users.add_user("alice", "pw")
        with pytest.raises(ValueError):
            users.add_user("alice", "pw2")

    def test_password_change(self):
        users = UserDirectory()
        users.add_user("alice", "old")
        users.set_password("alice", "new")
        users.authenticate_password("alice", "new")
        with pytest.raises(AuthenticationError):
            users.authenticate_password("alice", "old")

    def test_signature_verification(self, proxy_key):
        users = UserDirectory()
        users.add_user("alice", "pw", public_key=proxy_key.public)
        message = b"submit job 42"
        users.verify_signature("alice", message, proxy_key.sign(message))
        with pytest.raises(AuthenticationError):
            users.verify_signature("alice", b"other", proxy_key.sign(message))

    def test_signature_without_key_rejected(self):
        users = UserDirectory()
        users.add_user("alice", "pw")
        with pytest.raises(AuthenticationError):
            users.verify_signature("alice", b"m", b"sig")

    def test_remove_user_clears_groups(self):
        users = UserDirectory()
        users.add_user("alice", "pw")
        users.create_group("physics")
        users.add_to_group("physics", "alice")
        users.remove_user("alice")
        assert users.groups_of("alice") == set()

    def test_group_membership(self):
        users = UserDirectory()
        users.add_user("alice", "pw")
        users.create_group("physics")
        users.create_group("admins")
        users.add_to_group("physics", "alice")
        assert users.groups_of("alice") == {"physics"}
        users.remove_from_group("physics", "alice")
        assert users.groups_of("alice") == set()

    def test_group_errors(self):
        users = UserDirectory()
        users.create_group("g")
        with pytest.raises(ValueError):
            users.create_group("g")
        with pytest.raises(KeyError):
            users.add_to_group("nope", "alice")
        with pytest.raises(KeyError):
            users.add_to_group("g", "ghost")


class TestAcl:
    def make(self):
        users = UserDirectory()
        users.add_user("alice", "pw")
        users.add_user("bob", "pw")
        users.create_group("physics")
        users.add_to_group("physics", "alice")
        return users, AccessControlList(users)

    def test_deny_by_default(self):
        _, acl = self.make()
        assert not acl.is_allowed("alice", "site:A", "submit")

    def test_user_grant(self):
        _, acl = self.make()
        acl.grant("user:alice", "site:A", "submit")
        assert acl.is_allowed("alice", "site:A", "submit")
        assert not acl.is_allowed("bob", "site:A", "submit")

    def test_group_grant(self):
        _, acl = self.make()
        acl.grant("group:physics", "site:*", "submit")
        assert acl.is_allowed("alice", "site:B", "submit")
        assert not acl.is_allowed("bob", "site:B", "submit")

    def test_wildcard_action(self):
        _, acl = self.make()
        acl.grant("user:alice", "mpi:run", "*")
        assert acl.is_allowed("alice", "mpi:run", "anything")

    def test_deny_overrides_grant(self):
        _, acl = self.make()
        acl.grant("group:physics", "site:*", "submit")
        acl.deny("user:alice", "site:secret", "submit")
        assert acl.is_allowed("alice", "site:open", "submit")
        assert not acl.is_allowed("alice", "site:secret", "submit")

    def test_check_raises(self):
        _, acl = self.make()
        with pytest.raises(PermissionDenied):
            acl.check("alice", "site:A", "submit")

    def test_bad_principal_rejected(self):
        _, acl = self.make()
        with pytest.raises(ValueError):
            acl.grant("alice", "site:A", "submit")
        with pytest.raises(ValueError):
            acl.grant("user:", "site:A", "submit")

