"""Integration: the secure tunnel running over the reliable-UDP transport.

Because every transport implements the same Channel contract, the
SSL-like handshake and record layer run unchanged over UDP + ARQ — even
with datagram loss underneath.
"""

import struct
import threading
import time

import pytest

from repro.core.tunnel import Tunnel, TunnelError
from repro.security.ca import CertificationAuthority
from repro.security.handshake import accept_secure, connect_secure
from repro.security.rsa import RsaKeyPair
from repro.transport.frames import Frame, FrameKind
from repro.transport.udp import udp_pair

KEY_BITS = 512


@pytest.fixture(scope="module")
def pki():
    clock = time.time
    ca = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
    key_a = RsaKeyPair.generate(KEY_BITS)
    key_b = RsaKeyPair.generate(KEY_BITS)
    return {
        "ca": ca,
        "clock": clock,
        "a": (key_a, ca.issue("proxy.A", "proxy", key_a.public)),
        "b": (key_b, ca.issue("proxy.B", "proxy", key_b.public)),
    }


def secure_over_udp(pki, loss_injector_a=None):
    raw_a, raw_b = udp_pair(loss_injector_a=loss_injector_a)
    result = {}

    def server():
        key, cert = pki["b"]
        result["b"] = accept_secure(
            raw_b, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
        )

    thread = threading.Thread(target=server)
    thread.start()
    key, cert = pki["a"]
    secure_a = connect_secure(
        raw_a, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
    )
    thread.join(timeout=60.0)
    return secure_a, result["b"], (raw_a, raw_b)


def test_handshake_and_records_over_udp(pki):
    secure_a, secure_b, raws = secure_over_udp(pki)
    try:
        secure_a.send(
            Frame(kind=FrameKind.CONTROL, headers={"op": "PING"}, payload=b"x" * 2048)
        )
        frame = secure_b.recv(timeout=10.0)
        assert frame.headers == {"op": "PING"}
        assert frame.payload == b"x" * 2048
    finally:
        for raw in raws:
            raw.close()


def test_tunnel_start_refuses_a_channel_the_reactor_cannot_poll(pki):
    """UDP is a Channel for SecureChannel, not a tunnel host: start() says
    so instead of spawning a receiver thread of its own."""
    secure_a, _secure_b, raws = secure_over_udp(pki)
    try:
        before = set(threading.enumerate())
        tunnel = Tunnel(secure_a, "proxy.A")
        with pytest.raises(TunnelError, match="secure:proxy.A->proxy.B"):
            tunnel.start()
        assert set(threading.enumerate()) <= before
        assert tunnel.join(timeout=0.0)  # never started: nothing to wait for
    finally:
        for raw in raws:
            raw.close()


def test_handshake_survives_datagram_loss(pki):
    """Drop every 4th DATA datagram; ARQ masks it from the handshake."""
    counter = {"n": 0}

    def lossy(datagram):
        if struct.unpack_from("!B", datagram, 0)[0] != 1:
            return False
        counter["n"] += 1
        return counter["n"] % 4 == 0

    secure_a, secure_b, raws = secure_over_udp(pki, loss_injector_a=lossy)
    try:
        for i in range(10):
            secure_a.send(Frame(kind=FrameKind.DATA, headers={"seq": i}))
        got = [secure_b.recv(timeout=30.0).headers["seq"] for _ in range(10)]
        assert got == list(range(10))
        assert counter["n"] > 0  # loss actually happened
    finally:
        for raw in raws:
            raw.close()


def test_replay_protection_intact_over_udp(pki):
    """ARQ-level retransmissions must not look like record replays."""
    # Force heavy duplication by dropping half the ACKs coming back.
    counter = {"n": 0}

    def drop_acks(datagram):
        if struct.unpack_from("!B", datagram, 0)[0] != 2:
            return False
        counter["n"] += 1
        return counter["n"] % 2 == 0

    raw_a, raw_b = udp_pair(loss_injector_b=drop_acks)
    result = {}

    def server():
        key, cert = pki["b"]
        result["b"] = accept_secure(
            raw_b, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
        )

    thread = threading.Thread(target=server)
    thread.start()
    key, cert = pki["a"]
    secure_a = connect_secure(
        raw_a, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
    )
    thread.join(timeout=60.0)
    secure_b = result["b"]
    try:
        for i in range(20):
            secure_a.send(Frame(kind=FrameKind.DATA, headers={"seq": i}))
        got = [secure_b.recv(timeout=30.0).headers["seq"] for _ in range(20)]
        assert got == list(range(20))
    finally:
        raw_a.close()
        raw_b.close()
