"""SSL-like handshake establishing a secure channel between sites.

The paper tunnels inter-site traffic over SSL with mutual host
authentication via CA-issued certificates.  This module reproduces that
structure over any :class:`~repro.transport.channel.Channel`, in exactly
one configuration — nothing is negotiated:

==========  =======================================================
Message     Content
==========  =======================================================
HELLO  →    client random
HELLO  ←    server random, server certificate,
            server DH public + signature over (randoms, DH public)
KEYEX  →    client certificate, client DH public,
            signature over the transcript
FINISH ←    HMAC over the transcript under the server write key
FINISH →    HMAC over the transcript under the client write key
==========  =======================================================

The key exchange is ephemeral Diffie–Hellman over RFC 3526 group 14
(forward secret); RSA only signs.  After FINISH verification both ends
hold directional :class:`~repro.security.cipher.RecordCipher` pairs,
wrapped in a :class:`SecureChannel` that seals *entire frames* (headers
included) so tunnel observers see only record lengths — matching the
paper's "traffic tunneling" design where the proxy encrypts whole flows,
not payloads.

**Session resumption** (TLS-session-ticket style, DESIGN.md §14): a
server holding a :class:`SessionTicketKeeper` seals ``{master secret,
peer certificate}`` into an opaque ticket issued inside its FINISH.  A
later dial presents the ticket in HELLO.  A resumed handshake is the
full one without the certificate, the DH exchange and KEYEX: the server
answers a redeemed ticket with a bare ``{resumed, random}`` HELLO, both
ends ratchet the cached master with the new randoms, and the same
FINISH exchange follows.  Any rejection (expired ticket or certificate,
tampered, unknown STEK after a restart) falls back to the full
handshake transparently, because a full HELLO is the same message with
the ticket ignored.  Each FINISH from a server with a keeper carries a
fresh ticket sealing the *new* master, so secrets ratchet forward;
neither side resumes on a certificate that has since expired.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import threading
from typing import Callable, Iterable, Optional

from repro.obs.racesan import shared_state
from repro.security.certs import Certificate, CertificateError
from repro.security.cipher import RecordCipher, SessionKeys, derive_session_keys, keystream_xor
from repro.security.dh import DiffieHellman
from repro.security.rsa import RsaKeyPair, RsaPublicKey
from repro.transport.channel import Channel
from repro.transport.errors import TransportError
from repro.transport.frames import (
    Frame,
    FrameKind,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)

__all__ = [
    "HandshakeError",
    "PeerIdentity",
    "ResumptionTicket",
    "SecureChannel",
    "SessionTicketKeeper",
    "TICKET_LIFETIME",
    "accept_secure",
    "connect_secure",
]


class HandshakeError(Exception):
    """Any failure to establish the secure channel."""


class PeerIdentity:
    """What the handshake authenticated about the other end."""

    def __init__(self, certificate: Certificate):
        self.certificate = certificate

    @property
    def subject(self) -> str:
        return self.certificate.subject

    @property
    def role(self) -> str:
        return self.certificate.role

    def __repr__(self) -> str:
        return f"PeerIdentity({self.subject!r}, role={self.role!r})"


class SecureChannel(Channel):
    """A channel whose frames are sealed end-to-end.

    Wraps an established plaintext channel: every outgoing frame is
    serialised, encrypted and authenticated as one record carried in a
    DATA frame; incoming records are verified, decrypted and re-parsed.
    """

    def __init__(
        self,
        inner: Channel,
        send_cipher: RecordCipher,
        recv_cipher: RecordCipher,
        peer: PeerIdentity,
        name: str = "secure",
    ):
        super().__init__(name=name)
        self._inner = inner
        self._send_cipher = send_cipher
        self._recv_cipher = recv_cipher
        self.peer = peer
        #: True when this channel was rebound from a resumption ticket
        #: (no asymmetric exchange was paid for it).
        self.resumed = False
        #: Ticket for the *next* dial to this server, when one issued.
        self.resumption_ticket: Optional["ResumptionTicket"] = None

    # The record sequences already need sends (a Tunnel's send lock) and
    # opens (one thread) serialised, so stats are booked without a lock.

    def send(self, frame: Frame) -> None:
        record = self._send_cipher.seal(encode_frame(frame))
        self._inner.send_records([(frame.channel, record)])
        self.stats.on_send(len(record))

    def send_many(self, frames: Iterable[Frame]) -> None:
        """Seal a burst of frames and hand the records down as one batch.

        Each frame still becomes its own record (the wire format is the
        same as :meth:`send`); the win is that the inner transport writes
        all of them with one vectored syscall.
        """
        seal = self._send_cipher.seal
        records = [(frame.channel, seal(encode_frame(frame))) for frame in frames]
        if not records:
            return
        self._inner.send_records(records)
        self.stats.frames_sent += len(records)
        self.stats.bytes_sent += sum([len(record) for _, record in records])

    def recv(self, timeout: Optional[float] = None) -> Frame:
        carrier = self._inner.recv(timeout=timeout)
        try:
            frame = decode_frame(self._recv_cipher.open(carrier.payload))
        except Exception as exc:
            raise HandshakeError(f"record verification failed: {exc}") from exc
        self.stats.on_receive(len(carrier.payload))
        return frame

    # -- reactor protocol: records open wherever the inner transport polls --

    poll_recv = Channel._poll_one

    def poll_batch(self, limit: int) -> tuple[list[Frame], Optional[Exception]]:
        """Open one batch of the inner transport's records.  A record that
        fails ends it: the frames before it come back with the error, and
        the records behind it, on an untrustworthy stream, are dropped."""
        carriers, error = self._inner.poll_batch(limit)
        frames: list[Frame] = []
        open_record = self._recv_cipher.open
        nbytes = 0
        for carrier in carriers:
            try:
                frames.append(decode_frame(open_record(carrier.payload)))
            except Exception as exc:
                error = HandshakeError(f"record verification failed: {exc}")
                error.__cause__ = exc
                break
            nbytes += len(carrier.payload)
        if frames:
            self.stats.frames_received += len(frames)
            self.stats.bytes_received += nbytes
        return frames, error

    def set_ready_callback(self, callback) -> None:
        self._inner.set_ready_callback(callback)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


# ---------------------------------------------------------------------------
# Session resumption tickets
# ---------------------------------------------------------------------------


class ResumptionTicket:
    """Client-held resumption state from a completed handshake.

    ``blob`` is opaque (sealed to the server's STEK); the rest is the
    client's half of the cached session: the master secret to derive
    fresh keys from, and the server certificate the original handshake
    authenticated (resumption re-uses, never re-proves, that identity).
    """

    __slots__ = ("blob", "master", "peer_cert")

    def __init__(self, blob: bytes, master: bytes, peer_cert: Certificate) -> None:
        self.blob = blob
        self.master = master
        self.peer_cert = peer_cert

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResumptionTicket(peer={self.peer_cert.subject!r}, {len(self.blob)}B)"


#: Seconds a ticket can be redeemed after it was sealed.
TICKET_LIFETIME = 3600.0


@shared_state
class SessionTicketKeeper:
    """Server-side session-ticket encryption key (a STEK).

    The key is fresh random bytes, so a restarted server redeems none of
    its old tickets.  ``seal`` wraps ``{master, peer cert, issued_at}``
    into an opaque, authenticated blob, encrypted with the record
    layer's SHAKE-128 keystream (tickets carry the master secret across
    the cleartext handshake, so they must be confidential); ``redeem``
    opens one and returns the state, or ``None`` for anything older
    than :data:`TICKET_LIFETIME`, tampered, or sealed under a different
    key — the caller then simply runs the full handshake.  Stateless on
    the server like TLS tickets: no session cache to size or shard.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._key = secrets.token_bytes(32)
        # Counters feed the auth benchmarks and observability dumps.
        # One keeper serves every accept thread concurrently, so the
        # bumps below take this lock: `+= 1` is read-modify-write, and
        # two threads racing it lose increments.
        self._count_lock = threading.Lock()
        self.issued = 0
        self.redeemed = 0
        self.rejected = 0

    def seal(self, master: bytes, peer_cert: bytes) -> bytes:
        state = encode_value({"master": master, "cert": peer_cert, "iat": self.clock()})
        nonce = secrets.token_bytes(16)
        sealed = keystream_xor(self._key, nonce, state)
        mac = hmac.new(
            self._key, b"ticket|" + nonce + sealed, hashlib.sha256
        ).digest()
        with self._count_lock:
            self.issued += 1
        return encode_value({"n": nonce, "b": sealed, "m": mac})

    def redeem(self, blob: bytes) -> Optional[dict]:
        try:
            outer = decode_value(blob)
            nonce, sealed, mac = outer["n"], outer["b"], outer["m"]
            expected = hmac.new(
                self._key, b"ticket|" + nonce + sealed, hashlib.sha256
            ).digest()
            if not hmac.compare_digest(mac, expected):
                raise ValueError("ticket MAC mismatch")
            state = decode_value(keystream_xor(self._key, nonce, sealed))
            if not isinstance(state, dict):
                raise ValueError("ticket state is not a dict")
            if self.clock() - float(state["iat"]) > TICKET_LIFETIME:
                raise ValueError("ticket expired")
        except Exception:
            # Hostile or stale input: never an error, always a fallback.
            with self._count_lock:
                self.rejected += 1
            return None
        with self._count_lock:
            self.redeemed += 1
        return state


def _resumed_master(
    master: bytes, client_random: bytes, server_random: bytes
) -> bytes:
    """Ratchet the cached master forward with this dial's randoms."""
    return hashlib.sha256(
        b"resume|" + master + client_random + server_random
    ).digest()


def _redeem(
    keeper: Optional[SessionTicketKeeper],
    blob: object,
    expected_role: Optional[str],
    revocation_check: Optional[Callable[[Certificate], bool]],
) -> Optional[tuple[Certificate, dict]]:
    """The client certificate and ticket state to resume from, or ``None``.

    This is the server's one veto point, and it runs before anything is
    sent, so ``None`` simply means the full handshake.  The stored
    certificate was CA-validated at the original handshake; within the
    ticket lifetime this re-checks what can have changed since — the
    expected role, the certificate's validity window and explicit
    revocation.  An expired certificate thus meets the full handshake,
    which refuses it.
    """
    if keeper is None or not isinstance(blob, bytes):
        return None
    state = keeper.redeem(blob)
    if state is None:
        return None
    try:
        cert = Certificate.from_bytes(state["cert"])
    except Exception:
        return None
    if not isinstance(state.get("master"), bytes):
        return None
    if expected_role is not None and cert.role != expected_role:
        return None
    if not cert.is_valid_at(keeper.clock()):
        return None
    if revocation_check is not None and revocation_check(cert):
        return None
    return cert, state


# ---------------------------------------------------------------------------
# Handshake driver
# ---------------------------------------------------------------------------


def _hs_frame(step: str, body: dict) -> Frame:
    return Frame(
        kind=FrameKind.HANDSHAKE, headers={"step": step}, payload=encode_value(body)
    )


def _expect(channel: Channel, step: str, timeout: float) -> dict:
    try:
        frame = channel.recv(timeout=timeout)
    except TransportError as exc:
        raise HandshakeError(f"handshake interrupted waiting for {step}: {exc}") from exc
    if frame.kind != FrameKind.HANDSHAKE:
        raise HandshakeError(f"expected HANDSHAKE frame, got {frame.kind.name}")
    got = frame.headers.get("step")
    if got != step:
        raise HandshakeError(f"expected handshake step {step!r}, got {got!r}")
    try:
        body = decode_value(frame.payload)
    except Exception as exc:  # hostile peers send arbitrary bytes
        raise HandshakeError(f"malformed handshake body for {step!r}: {exc}") from exc
    if not isinstance(body, dict):
        raise HandshakeError(f"handshake body for {step!r} is not a dict")
    return body


def _master_secret(pre_master: bytes, client_random: bytes, server_random: bytes) -> bytes:
    return hashlib.sha256(
        b"master|" + pre_master + client_random + server_random
    ).digest()


def _transcript_digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


def _validate_peer_cert(
    blob: bytes,
    trust_anchor: RsaPublicKey,
    now: float,
    expected_role: Optional[str],
) -> Certificate:
    try:
        cert = Certificate.from_bytes(blob)
        cert.check(trust_anchor, now, expected_role=expected_role)
    except CertificateError as exc:
        raise HandshakeError(f"peer certificate rejected: {exc}") from exc
    return cert




def _finish_mac(keys: SessionKeys, transcript: bytes) -> bytes:
    return hmac.new(keys.mac_key, transcript, hashlib.sha256).digest()


def connect_secure(
    channel: Channel,
    keypair: RsaKeyPair,
    certificate: Certificate,
    trust_anchor: RsaPublicKey,
    clock: Callable[[], float],
    expected_peer_role: Optional[str] = None,
    timeout: float = 30.0,
    resumption: Optional[ResumptionTicket] = None,
) -> SecureChannel:
    """Run the client side of the handshake on ``channel``.

    ``resumption`` offers a ticket from an earlier handshake with this
    server; acceptance skips the asymmetric exchange, rejection falls
    back to the full handshake on the same connection.  A ticket whose
    cached server certificate has expired is not offered.  Every
    failure — protocol violation, malformed field, peer disconnect —
    closes ``channel``, so the peer fails at once too, and surfaces as
    :class:`HandshakeError`: handshake input is untrusted by definition.
    """
    try:
        if resumption is not None and not resumption.peer_cert.is_valid_at(clock()):
            resumption = None
        client_random = secrets.token_bytes(32)
        hello_body: dict = {"random": client_random}
        if resumption is not None:
            # A server that rejects the ticket continues the full handshake
            # without a second round trip.
            hello_body["ticket"] = resumption.blob
        channel.send(_hs_frame("hello", hello_body))

        server_hello = _expect(channel, "hello", timeout)
        server_random = server_hello["random"]
        ticket = resumption if server_hello.get("resumed") else None
        if ticket is not None:
            # Authentication is possession of the cached master on both
            # sides: the server proved it by opening the ticket (sealed
            # under its STEK), the client proves it by its FINISH MAC.  The
            # server random rides this hello in the clear; the FINISH MACs
            # cover the value each side *uses*.
            server_cert = ticket.peer_cert
            master = _resumed_master(ticket.master, client_random, server_random)
            transcript = _transcript_digest(
                b"resume", client_random, server_random, ticket.blob
            )
        else:
            server_cert = _validate_peer_cert(
                server_hello["certificate"], trust_anchor, clock(), expected_peer_role
            )
            server_dh_public = server_hello["dh_public"]
            signed_blob = _transcript_digest(
                client_random, server_random, encode_value(server_dh_public)
            )
            if not server_cert.public_key.verify(signed_blob, server_hello["signature"]):
                raise HandshakeError("server key-exchange signature invalid")
            dh = DiffieHellman()
            pre_master = dh.shared_secret(server_dh_public)
            transcript = _transcript_digest(
                client_random,
                server_random,
                certificate.to_bytes(),
                encode_value(dh.public),
            )
            channel.send(
                _hs_frame(
                    "keyex",
                    {
                        "certificate": certificate.to_bytes(),
                        "dh_public": dh.public,
                        "signature": keypair.sign(transcript),
                    },
                )
            )
            master = _master_secret(pre_master, client_random, server_random)

        client_keys = derive_session_keys(master, "client")
        server_keys = derive_session_keys(master, "server")
        finish = _expect(channel, "finish", timeout)
        if not hmac.compare_digest(finish["mac"], _finish_mac(server_keys, transcript)):
            raise HandshakeError("server FINISH verification failed")
        channel.send(_hs_frame("finish", {"mac": _finish_mac(client_keys, transcript)}))

        secure = SecureChannel(
            inner=channel,
            send_cipher=RecordCipher(client_keys),
            recv_cipher=RecordCipher(server_keys),
            peer=PeerIdentity(server_cert),
            name=f"secure:{certificate.subject}->{server_cert.subject}",
        )
        secure.resumed = ticket is not None
        ticket_blob = finish.get("ticket")
        if isinstance(ticket_blob, bytes):
            # Single-use rotation: the fresh ticket seals *this* master.
            secure.resumption_ticket = ResumptionTicket(ticket_blob, master, server_cert)
        return secure
    except Exception as exc:
        channel.close()  # the server's next read fails now, not at its timeout
        if isinstance(exc, HandshakeError):
            raise
        raise HandshakeError(f"handshake failed: {exc}") from exc


def accept_secure(
    channel: Channel,
    keypair: RsaKeyPair,
    certificate: Certificate,
    trust_anchor: RsaPublicKey,
    clock: Callable[[], float],
    expected_peer_role: Optional[str] = None,
    timeout: float = 30.0,
    revocation_check: Optional[Callable[[Certificate], bool]] = None,
    ticket_keeper: Optional[SessionTicketKeeper] = None,
) -> SecureChannel:
    """Run the server side of the handshake on ``channel``.

    ``revocation_check`` (cert → bool) lets a proxy consult the CA's
    revocation list for client certificates.  ``ticket_keeper`` enables
    session resumption: every FINISH issues a ticket, and a HELLO
    presenting a ticket that :func:`_redeem` accepts skips the
    asymmetric exchange.  All failures surface as
    :class:`HandshakeError` (see :func:`connect_secure`).
    """
    try:
        hello = _expect(channel, "hello", timeout)
        client_random = hello["random"]
        server_random = secrets.token_bytes(32)
        resume = _redeem(
            ticket_keeper, hello.get("ticket"), expected_peer_role, revocation_check
        )
        if resume is not None:
            client_cert, state = resume
            client_cert_blob = state["cert"]
            master = _resumed_master(state["master"], client_random, server_random)
            transcript = _transcript_digest(
                b"resume", client_random, server_random, hello["ticket"]
            )
            channel.send(_hs_frame("hello", {"resumed": True, "random": server_random}))
        else:
            dh = DiffieHellman()
            channel.send(
                _hs_frame(
                    "hello",
                    {
                        "random": server_random,
                        "certificate": certificate.to_bytes(),
                        "dh_public": dh.public,
                        "signature": keypair.sign(
                            _transcript_digest(
                                client_random, server_random, encode_value(dh.public)
                            )
                        ),
                    },
                )
            )
            keyex = _expect(channel, "keyex", timeout)
            client_cert_blob = keyex["certificate"]
            client_cert = _validate_peer_cert(
                client_cert_blob, trust_anchor, clock(), expected_peer_role
            )
            if revocation_check is not None and revocation_check(client_cert):
                raise HandshakeError(
                    f"peer certificate rejected: revoked ({client_cert.subject!r})"
                )
            client_dh_public = keyex["dh_public"]
            transcript = _transcript_digest(
                client_random,
                server_random,
                client_cert_blob,
                encode_value(client_dh_public),
            )
            if not client_cert.public_key.verify(transcript, keyex["signature"]):
                raise HandshakeError("client transcript signature invalid")
            pre_master = dh.shared_secret(client_dh_public)
            master = _master_secret(pre_master, client_random, server_random)

        client_keys = derive_session_keys(master, "client")
        server_keys = derive_session_keys(master, "server")
        finish_body: dict = {"mac": _finish_mac(server_keys, transcript)}
        if ticket_keeper is not None:
            # Issue, or on resumption rotate, the ticket for the next dial.
            finish_body["ticket"] = ticket_keeper.seal(master, client_cert_blob)
        channel.send(_hs_frame("finish", finish_body))
        finish = _expect(channel, "finish", timeout)
        if not hmac.compare_digest(finish["mac"], _finish_mac(client_keys, transcript)):
            raise HandshakeError("client FINISH verification failed")

        secure = SecureChannel(
            inner=channel,
            send_cipher=RecordCipher(server_keys),
            recv_cipher=RecordCipher(client_keys),
            peer=PeerIdentity(client_cert),
            name=f"secure:{certificate.subject}->{client_cert.subject}",
        )
        secure.resumed = resume is not None
        return secure
    except Exception as exc:
        channel.close()  # the client's next read fails now, not at its timeout
        if isinstance(exc, HandshakeError):
            raise
        raise HandshakeError(f"handshake failed: {exc}") from exc
