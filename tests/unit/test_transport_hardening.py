"""Hardening tests for the data-plane fast path under hostile sockets.

The loop's vectored flush, the write queue's group commit and the
secure handshake all have to survive what real kernels do on a bad day: ``sendmsg`` returning partway through a buffer, writes trickling
out a few bytes at a time, and message boundaries landing anywhere in
the TCP stream.
"""

import threading
import time

import pytest

from repro.security.ca import CertificationAuthority
from repro.security.handshake import accept_secure, connect_secure
from repro.security.rsa import RsaKeyPair
from repro.transport.errors import ChannelClosed
from repro.transport.frames import (
    Frame,
    FrameDecoder,
    FrameKind,
    encode_frame,
)
from repro.transport.reactor import ReactorTcpChannel, ReactorTcpListener
from repro.transport.tcp import connect_tcp


# ---------------------------------------------------------------------------
# ReactorTcpChannel group commit over a trickling socket
# ---------------------------------------------------------------------------


class TrickleSock:
    """Delegates to a real socket but sends at most ``limit`` bytes per
    sendmsg — every frame crosses the wire in many partial writes."""

    def __init__(self, sock, limit=3):
        self._sock = sock
        self.limit = limit
        self.sendmsg_calls = 0

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        data = b"".join(bytes(b) for b in buffers)
        return self._sock.send(data[: self.limit])

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TrickleListener(ReactorTcpListener):
    """Accepted channels write through a :class:`TrickleSock`."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def _make_channel(self, conn, name):
        return super()._make_channel(TrickleSock(conn, self.limit), name)


def tcp_pair(limit):
    """Connected reactor channels; both ends trickle ``limit`` bytes a write.

    The sockets are wrapped before the channels exist, so the loop never
    sees ``_sock`` change under it.
    """
    listener = TrickleListener(limit)
    dialed = TrickleSock(connect_tcp(listener.host, listener.port), limit)
    sender = ReactorTcpChannel(dialed, name="trickle-sender")
    receiver = listener.accept(timeout=5.0)
    listener.close()
    return sender, receiver


def make_frames(start, count):
    return [
        Frame(
            kind=FrameKind.DATA,
            headers={"n": n},
            payload=bytes([n % 256]) * 33,
        )
        for n in range(start, start + count)
    ]


def test_send_many_group_commit_over_trickling_socket():
    sender, receiver = tcp_pair(limit=3)
    try:
        workers = [
            threading.Thread(
                target=lambda s=start: sender.send_many(make_frames(s, 10))
            )
            for start in range(0, 40, 10)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        got = {}
        for _ in range(40):
            frame = receiver.recv(timeout=10.0)
            got[frame.headers["n"]] = frame.payload
        assert sorted(got) == list(range(40))
        for n, payload in got.items():
            assert payload == bytes([n % 256]) * 33
        assert sender._sock.sendmsg_calls > 40  # really did trickle
    finally:
        sender.close()
        receiver.close()


def test_send_on_dead_peer_raises_channel_closed():
    sender, receiver = tcp_pair(limit=3)
    receiver.close()
    try:
        with pytest.raises(ChannelClosed):
            # The first writes land in kernel buffers; keep pushing until
            # the RST surfaces.  Bounded: the channel closes itself on
            # the first OSError.
            for _ in range(1000):
                sender.send_many(make_frames(0, 5))
                time.sleep(0.001)
    finally:
        sender.close()


# ---------------------------------------------------------------------------
# Handshakes with hellos split across reads
# ---------------------------------------------------------------------------


def test_hello_survives_any_split():
    """Reassembling a hello from any two TCP segments preserves its
    step header and body byte for byte."""
    hello = Frame(
        kind=FrameKind.HANDSHAKE,
        headers={"step": "hello"},
        payload=b"\x00" * 10,
    )
    wire = encode_frame(hello)
    for cut in range(len(wire) + 1):
        decoder = FrameDecoder()
        decoder.feed(wire[:cut])
        early = decoder.next_frame()
        decoder.feed(wire[cut:])
        frame = early or decoder.next_frame()
        assert frame is not None
        assert frame.headers == {"step": "hello"}
        assert frame.payload == hello.payload


def test_handshake_over_trickling_sockets():
    """Full handshake with both directions trickling 16 bytes per write:
    the hellos arrive in dozens of fragments and both ends still derive
    the same keys."""
    clock = time.time
    ca = CertificationAuthority(key_bits=512, clock=clock)
    client_keys = RsaKeyPair.generate(512)
    server_keys = RsaKeyPair.generate(512)
    client_cert = ca.issue("client", "proxy", client_keys.public)
    server_cert = ca.issue("server", "proxy", server_keys.public)

    client_channel, server_channel = tcp_pair(limit=16)

    result = {}

    def serve():
        result["server"] = accept_secure(
            server_channel,
            server_keys,
            server_cert,
            ca.public_key,
            clock,
            expected_peer_role="proxy",
        )

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        client = connect_secure(
            client_channel,
            client_keys,
            client_cert,
            ca.public_key,
            clock,
            expected_peer_role="proxy",
        )
        thread.join(timeout=30.0)
        server = result["server"]
        # Records sealed under the derived keys flow both ways over the trickle.
        client.send(Frame(kind=FrameKind.DATA, payload=b"after-split"))
        assert server.recv(timeout=10.0).payload == b"after-split"
        server.send(Frame(kind=FrameKind.DATA, payload=b"and-back"))
        assert client.recv(timeout=10.0).payload == b"and-back"
    finally:
        client_channel.close()
        server_channel.close()
