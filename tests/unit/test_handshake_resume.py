"""Session-ticket resumption tests for the secure handshake.

A full handshake issues an opaque ticket inside the server FINISH; a
later dial presents it in HELLO and, if the server redeems it, both
ends skip the asymmetric exchange entirely.  Any rejection must fall
back to the full handshake on the same connection — resumption is an
optimisation, never a new failure mode.
"""

from __future__ import annotations

import inspect
import threading
from collections import Counter

import pytest

from repro.security import handshake
from repro.security.ca import CertificationAuthority
from repro.security.handshake import (
    TICKET_LIFETIME,
    HandshakeError,
    ResumptionTicket,
    SessionTicketKeeper,
    accept_secure,
    connect_secure,
)
from repro.security.rsa import RsaKeyPair, RsaPublicKey
from repro.transport.frames import Frame, FrameKind, decode_value, encode_value
from repro.transport.inproc import channel_pair

KEY_BITS = 512


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def client_key():
    return RsaKeyPair.generate(KEY_BITS)


@pytest.fixture(scope="module")
def server_key():
    return RsaKeyPair.generate(KEY_BITS)


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def ca(clock):
    return CertificationAuthority(key_bits=KEY_BITS, clock=clock)


@pytest.fixture()
def keeper(clock):
    return SessionTicketKeeper(clock)


def run_handshake(
    ca,
    clock,
    client_key,
    server_key,
    keeper=None,
    resumption=None,
    client_cert=None,
    server_cert=None,
    outcome=None,
    **server_kwargs,
):
    """Drive both ends over an in-process pair; returns (client, server).

    Fresh certificates are issued unless given; ``outcome`` (a dict)
    receives the server's result or ``"error"``.
    """
    if client_cert is None:
        client_cert = ca.issue("proxy.siteA", "proxy", client_key.public)
    if server_cert is None:
        server_cert = ca.issue("proxy.siteB", "proxy", server_key.public)
    a, b = channel_pair("hs-resume")
    result = outcome if outcome is not None else {}

    def server():
        try:
            result["server"] = accept_secure(
                b,
                server_key,
                server_cert,
                ca.public_key,
                clock,
                ticket_keeper=keeper,
                **server_kwargs,
            )
        except Exception as exc:
            result["error"] = exc
            b.close()  # unblock the client instead of letting it time out

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    try:
        client = connect_secure(
            a,
            client_key,
            client_cert,
            ca.public_key,
            clock,
            resumption=resumption,
        )
    except Exception:
        a.close()  # unblock the server thread
        raise
    thread.join(timeout=10.0)
    return client, result["server"]


def assert_round_trip(client, server):
    client.send(Frame(kind=FrameKind.CONTROL, headers={"op": "PING"}))
    assert server.recv(timeout=5.0).headers == {"op": "PING"}
    server.send(Frame(kind=FrameKind.CONTROL, headers={"op": "PONG"}))
    assert client.recv(timeout=5.0).headers == {"op": "PONG"}


class TestTicketIssue:
    def test_full_handshake_banks_a_ticket(self, ca, clock, client_key, server_key, keeper):
        client, server = run_handshake(ca, clock, client_key, server_key, keeper)
        assert client.resumed is False
        ticket = client.resumption_ticket
        assert isinstance(ticket, ResumptionTicket)
        assert ticket.peer_cert.subject == "proxy.siteB"
        assert keeper.issued == 1
        assert_round_trip(client, server)

    def test_no_keeper_no_ticket(self, ca, clock, client_key, server_key):
        client, _ = run_handshake(ca, clock, client_key, server_key, keeper=None)
        assert client.resumption_ticket is None


class TestResumption:
    def test_resumed_dial_skips_asymmetric_path(
        self, ca, clock, client_key, server_key, keeper
    ):
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        second, server = run_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=first.resumption_ticket,
        )
        assert second.resumed is True
        assert server.resumed is True
        assert second.peer.subject == "proxy.siteB"
        assert keeper.redeemed == 1
        assert_round_trip(second, server)

    def test_each_resumption_rotates_the_ticket(
        self, ca, clock, client_key, server_key, keeper
    ):
        client, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        seen = {client.resumption_ticket.blob}
        for _ in range(3):
            client, _ = run_handshake(
                ca, clock, client_key, server_key, keeper,
                resumption=client.resumption_ticket,
            )
            assert client.resumed is True
            assert client.resumption_ticket is not None
            assert client.resumption_ticket.blob not in seen
            seen.add(client.resumption_ticket.blob)
        assert keeper.redeemed == 3

    def test_resumed_channel_keys_ratchet(
        self, ca, clock, client_key, server_key, keeper
    ):
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        second, _ = run_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=first.resumption_ticket,
        )
        # The rotated ticket seals a *new* master, not the cached one.
        assert second.resumption_ticket.master != first.resumption_ticket.master


class TestCertificateExpiry:
    """A resumed session never outlives the certificates it rests on.

    Each resumption rotates in a fresh ticket with a new issue time, so
    without these checks a proxy could keep resuming forever on a
    certificate that expired after its last full handshake.
    """

    def test_server_refuses_resumption_past_client_cert_expiry(
        self, ca, clock, client_key, server_key, keeper
    ):
        # Issued at t = 1000, expires at t = 1600; redial every 500 s.
        client_cert = ca.issue(
            "proxy.siteA", "proxy", client_key.public, lifetime=600
        )
        client, _ = run_handshake(
            ca, clock, client_key, server_key, keeper, client_cert=client_cert
        )
        clock.now += 500.0
        client, _ = run_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=client.resumption_ticket, client_cert=client_cert,
        )
        assert client.resumed is True
        clock.now += 500.0  # t = 2000: the client certificate has expired
        outcome = {}
        with pytest.raises(HandshakeError):
            run_handshake(
                ca, clock, client_key, server_key, keeper,
                resumption=client.resumption_ticket, client_cert=client_cert,
                outcome=outcome,
            )
        # The server disqualified the ticket, ran the full handshake and
        # refused the expired certificate there.
        assert "expired" in str(outcome.get("error"))

    def test_client_stops_offering_ticket_past_server_cert_expiry(
        self, ca, clock, client_key, server_key, keeper
    ):
        server_cert = ca.issue(
            "proxy.siteB", "proxy", server_key.public, lifetime=600
        )
        first, _ = run_handshake(
            ca, clock, client_key, server_key, keeper, server_cert=server_cert
        )
        clock.now += 1000.0  # t = 2000: the server certificate has expired
        with pytest.raises(HandshakeError, match="expired"):
            run_handshake(
                ca, clock, client_key, server_key, keeper,
                resumption=first.resumption_ticket, server_cert=server_cert,
            )
        assert keeper.redeemed == 0  # the stale ticket was never offered


class TestFallback:
    def test_expired_ticket_falls_back_to_full(
        self, ca, clock, client_key, server_key, keeper
    ):
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        clock.now += TICKET_LIFETIME + 1.0
        client, server = run_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=first.resumption_ticket,
        )
        assert client.resumed is False
        assert keeper.rejected == 1
        assert_round_trip(client, server)

    def test_garbage_ticket_falls_back(self, ca, clock, client_key, server_key, keeper):
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        bogus = ResumptionTicket(
            b"not-a-ticket",
            first.resumption_ticket.master,
            first.resumption_ticket.peer_cert,
        )
        client, server = run_handshake(
            ca, clock, client_key, server_key, keeper, resumption=bogus
        )
        assert client.resumed is False
        assert keeper.rejected == 1
        assert_round_trip(client, server)

    def test_server_restart_invalidates_tickets(
        self, ca, clock, client_key, server_key
    ):
        keeper1 = SessionTicketKeeper(clock)
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper1)
        keeper2 = SessionTicketKeeper(clock)  # fresh STEK after "restart"
        client, server = run_handshake(
            ca, clock, client_key, server_key, keeper2,
            resumption=first.resumption_ticket,
        )
        assert client.resumed is False
        assert keeper2.rejected == 1
        assert_round_trip(client, server)

    def test_unusable_cached_certificate_disqualifies_after_redeem(
        self, ca, clock, client_key, server_key, keeper
    ):
        # A ticket that redeems but carries an unusable cached certificate
        # is disqualified *before any send*, so the full handshake
        # proceeds cleanly on the same connection.
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        stale = ResumptionTicket(
            keeper.seal(b"m" * 32, b"not-a-certificate"),
            first.resumption_ticket.master,
            first.resumption_ticket.peer_cert,
        )
        client, server = run_handshake(
            ca, clock, client_key, server_key, keeper, resumption=stale
        )
        assert client.resumed is False
        assert keeper.redeemed == 1  # it *did* redeem, then got vetoed
        assert_round_trip(client, server)

    def test_tampered_master_fails_loudly(
        self, ca, clock, client_key, server_key, keeper
    ):
        # A client whose cached master diverges (simulated corruption)
        # must not silently negotiate garbage keys: the FINISH MACs
        # disagree and the handshake errors out.
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
        corrupt = ResumptionTicket(
            first.resumption_ticket.blob,
            b"\x00" * 32,
            first.resumption_ticket.peer_cert,
        )
        with pytest.raises(HandshakeError, match="FINISH"):
            run_handshake(
                ca, clock, client_key, server_key, keeper, resumption=corrupt
            )


def relay_handshake(
    ca, clock, client_key, server_key, keeper, resumption=None, rewrite=None,
    probe=None,
):
    """Run a handshake through a relay that decodes every handshake body.

    ``rewrite(direction, step, body)`` may edit a body in flight (an
    active attacker).  Returns ``(log, result)``: ``log`` lists
    ``(direction, step, keys)`` for each handshake frame as sent, and
    ``result`` holds ``client``/``server`` or ``client_error``/``server_error``.
    ``probe(result)`` runs while the relay still carries frames.
    """
    client_cert = ca.issue("proxy.siteA", "proxy", client_key.public)
    server_cert = ca.issue("proxy.siteB", "proxy", server_key.public)
    c_a, c_b = channel_pair("relay-client")
    s_a, s_b = channel_pair("relay-server")
    log, result = [], {}

    def pump(src, dst, direction):
        while True:
            try:
                frame = src.recv(timeout=10.0)
                if frame.kind == FrameKind.HANDSHAKE:
                    body = decode_value(frame.payload)
                    log.append((direction, frame.headers["step"], frozenset(body)))
                    if rewrite is not None:
                        rewrite(direction, frame.headers["step"], body)
                    frame = Frame(
                        kind=FrameKind.HANDSHAKE,
                        headers=frame.headers,
                        payload=encode_value(body),
                    )
                dst.send(frame)
            except Exception:
                return

    def server():
        try:
            result["server"] = accept_secure(
                s_b, server_key, server_cert, ca.public_key, clock,
                ticket_keeper=keeper, timeout=5.0,
            )
        except Exception as exc:
            result["server_error"] = exc
            for ch in (c_a, c_b, s_a, s_b):
                ch.close()  # unblock the client waiting on a dead server

    def client():
        try:
            result["client"] = connect_secure(
                c_a, client_key, client_cert, ca.public_key, clock,
                resumption=resumption, timeout=5.0,
            )
        except Exception as exc:
            result["client_error"] = exc

    threads = [
        threading.Thread(target=pump, args=(c_b, s_a, "c>s"), daemon=True),
        threading.Thread(target=pump, args=(s_a, c_b, "s>c"), daemon=True),
        threading.Thread(target=server, daemon=True),
        threading.Thread(target=client, daemon=True),
    ]
    for t in threads:
        t.start()
    threads[3].join(timeout=10.0)
    if "client_error" in result:
        for ch in (c_a, c_b, s_a, s_b):
            ch.close()  # unblock the server waiting on a dead client
    threads[2].join(timeout=10.0)
    try:
        if probe is not None:
            probe(result)
    finally:
        for ch in (c_a, c_b, s_a, s_b):
            ch.close()
    return log, result


class TestTamper:
    """Every cleartext handshake field is covered: rewriting one fails."""

    def test_tampered_resumed_random_is_rejected(
        self, ca, clock, client_key, server_key, keeper
    ):
        # The server random rides the resumed hello in cleartext; the
        # FINISH MACs cover the value each side used.
        first, _ = run_handshake(ca, clock, client_key, server_key, keeper)

        def rewrite(direction, step, body):
            if direction == "s>c" and step == "hello":
                assert body.get("resumed") is True
                body["random"] = bytes(32)

        _, result = relay_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=first.resumption_ticket, rewrite=rewrite,
        )
        err = result.get("client_error")
        assert isinstance(err, HandshakeError)
        assert "FINISH" in str(err)

    def test_tampered_full_dh_public_is_rejected(
        self, ca, clock, client_key, server_key, keeper
    ):
        # The server's DH public value is signed with its certified key.
        def rewrite(direction, step, body):
            if direction == "s>c" and step == "hello":
                body["dh_public"] ^= 1

        _, result = relay_handshake(
            ca, clock, client_key, server_key, keeper, rewrite=rewrite
        )
        err = result.get("client_error")
        assert isinstance(err, HandshakeError)
        assert "signature" in str(err)


class TestHandshakeCensus:
    """The exact key set of every handshake message, full and resumed.

    There is one key exchange and one record suite, so no message offers,
    prefers or chooses anything; a new negotiation knob must change this.
    """

    FULL = Counter([
        ("c>s", "hello", frozenset({"random"})),
        ("s>c", "hello", frozenset({"random", "certificate", "dh_public", "signature"})),
        ("c>s", "keyex", frozenset({"certificate", "dh_public", "signature"})),
        ("s>c", "finish", frozenset({"mac", "ticket"})),
        ("c>s", "finish", frozenset({"mac"})),
    ])
    RESUMED = Counter([
        ("c>s", "hello", frozenset({"random", "ticket"})),
        ("s>c", "hello", frozenset({"resumed", "random"})),
        ("s>c", "finish", frozenset({"mac", "ticket"})),
        ("c>s", "finish", frozenset({"mac"})),
    ])

    def test_full_and_resumed_message_keys(
        self, ca, clock, client_key, server_key, keeper
    ):
        log, result = relay_handshake(ca, clock, client_key, server_key, keeper)
        assert result["client"].resumed is False
        assert Counter(log) == self.FULL
        log, result = relay_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=result["client"].resumption_ticket,
        )
        assert result["client"].resumed is True
        assert Counter(log) == self.RESUMED
        negotiated = {"modes", "preferred", "ciphers", "mode", "cipher"}
        assert not any(keys & negotiated for _, _, keys in self.FULL + self.RESUMED)

    def test_no_negotiation_knobs_in_the_api(self):
        from repro.core.proxy import ProxyServer
        from repro.core.tunnel import Tunnel
        from repro.security.cipher import RecordCipher
        from repro.security.dh import DiffieHellman

        for fn in (
            connect_secure,
            Tunnel.establish_client,
            Tunnel.dial_with_retry,
            ProxyServer.connect_to_peer,
        ):
            assert "mode" not in inspect.signature(fn).parameters, fn
        assert list(inspect.signature(RecordCipher).parameters) == ["keys"]
        assert not inspect.signature(DiffieHellman).parameters


class TestKeeper:
    def test_redeem_counts(self, keeper):
        assert keeper.redeem(b"junk") is None
        assert keeper.rejected == 1
        blob = keeper.seal(b"m" * 32, b"cert-bytes")
        state = keeper.redeem(blob)
        assert state is not None
        assert state["master"] == b"m" * 32
        assert keeper.issued == 1
        assert keeper.redeemed == 1

    def test_ticket_blob_hides_master(self, keeper):
        master = b"super-secret-master-secret-32byt"
        blob = keeper.seal(master, b"cert-bytes")
        assert master not in blob


def _census_cases():
    """Every field of every message, full and resumed, plus one ticket
    offered to a server that holds no keeper (nothing rewritten)."""
    for path, messages in (
        ("full", TestHandshakeCensus.FULL),
        ("resumed", TestHandshakeCensus.RESUMED),
    ):
        for direction, step, keys in sorted(messages, key=repr):
            for key in sorted(keys):
                yield pytest.param(
                    path, direction, step, key, id=f"{path}-{direction}-{step}-{key}"
                )
    yield pytest.param("keeperless", None, None, None, id="keeperless-ticket")


def _tampered(value):
    """The same field with different content."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    return bytes([value[0] ^ 0xFF]) + value[1:]


class TestTamperCensus:
    """Rewriting any one handshake field in flight ends in a typed
    failure or in a channel that works and names the right peers."""

    #: Opaque to the side that receives it: a rewritten client ticket is
    #: refused and the full handshake runs; a rewritten server ticket only
    #: spoils the next resumption.
    HARMLESS = {("c>s", "hello", "ticket"), ("s>c", "finish", "ticket")}

    @pytest.mark.parametrize("path,direction,step,key", list(_census_cases()))
    def test_rewriting_one_field(
        self, ca, clock, client_key, server_key, keeper, path, direction, step, key
    ):
        ticket = None
        if path != "full":
            first, _ = run_handshake(ca, clock, client_key, server_key, keeper)
            ticket = first.resumption_ticket
        rewritten = []

        def rewrite(d, s, body):
            if (d, s) == (direction, step):
                body[key] = _tampered(body[key])
                rewritten.append(key)

        def probe(result):
            if "client" in result and "server" in result:
                assert_round_trip(result["client"], result["server"])
                assert result["client"].peer.subject == "proxy.siteB"
                assert result["server"].peer.subject == "proxy.siteA"

        _, result = relay_handshake(
            ca, clock, client_key, server_key,
            None if path == "keeperless" else keeper,
            resumption=ticket, rewrite=rewrite, probe=probe,
        )
        for side in ("client", "server"):
            error = result.get(f"{side}_error")
            assert error is None or isinstance(error, HandshakeError), repr(error)
        completed = "client" in result and "server" in result
        if path == "keeperless":
            assert completed and not result["client"].resumed
            assert result["client"].resumption_ticket is None
            return
        assert rewritten == [key]
        assert completed == ((direction, step, key) in self.HARMLESS)
        if (direction, step, key) == ("c>s", "hello", "ticket"):
            assert not result["client"].resumed and not result["server"].resumed


class TestAsymmetricWork:
    """A full handshake pays one DH keypair and one RSA signature per
    side; a resumed one pays no public-key operation at all."""

    @pytest.fixture()
    def work(self, monkeypatch):
        counts = Counter()

        def side():
            main = threading.current_thread() is threading.main_thread()
            return "client" if main else "server"

        class CountingDiffieHellman(handshake.DiffieHellman):
            def __init__(self):
                counts[side(), "dh"] += 1
                super().__init__()

        sign, verify = RsaKeyPair.sign, RsaPublicKey.verify

        def counting_sign(self, message):
            counts[side(), "sign"] += 1
            return sign(self, message)

        def counting_verify(self, message, signature):
            counts[side(), "verify"] += 1
            return verify(self, message, signature)

        monkeypatch.setattr(handshake, "DiffieHellman", CountingDiffieHellman)
        monkeypatch.setattr(RsaKeyPair, "sign", counting_sign)
        monkeypatch.setattr(RsaPublicKey, "verify", counting_verify)
        return counts

    def test_full_then_resumed(self, ca, clock, client_key, server_key, keeper, work):
        client_cert = ca.issue("proxy.siteA", "proxy", client_key.public)
        server_cert = ca.issue("proxy.siteB", "proxy", server_key.public)
        work.clear()  # the CA signed both certificates
        first, _ = run_handshake(
            ca, clock, client_key, server_key, keeper,
            client_cert=client_cert, server_cert=server_cert,
        )
        assert first.resumed is False
        # Each side: one DH keypair, one signature, and two verifications
        # (the peer certificate's CA signature and the peer's own).
        assert work == Counter({
            (side, op): n
            for side in ("client", "server")
            for op, n in (("dh", 1), ("sign", 1), ("verify", 2))
        })
        work.clear()
        second, server = run_handshake(
            ca, clock, client_key, server_key, keeper,
            resumption=first.resumption_ticket,
            client_cert=client_cert, server_cert=server_cert,
        )
        assert second.resumed is True and server.resumed is True
        assert work == Counter()
