"""Adversarial fuzzing of the handshake server.

A proxy's accept path processes bytes from unauthenticated peers, so any
input whatsoever must produce a clean HandshakeError — never a hang and
never an exception of another type escaping into the accept thread.
"""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.security.ca import CertificationAuthority
from repro.security.handshake import HandshakeError, accept_secure
from repro.security.rsa import RsaKeyPair
from repro.transport.frames import Frame, FrameKind, encode_value
from repro.transport.inproc import channel_pair

KEY_BITS = 512


@pytest.fixture(scope="module")
def server_identity():
    clock = time.time
    ca = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
    key = RsaKeyPair.generate(KEY_BITS)
    cert = ca.issue("proxy.victim", "proxy", key.public)
    return {"ca": ca, "clock": clock, "key": key, "cert": cert}


def run_server(identity, attacker_script):
    """Feed attacker frames to accept_secure; return its outcome."""
    attacker, server_end = channel_pair("fuzz")
    outcome = {}

    def server():
        try:
            accept_secure(
                server_end,
                identity["key"],
                identity["cert"],
                identity["ca"].public_key,
                identity["clock"],
                timeout=2.0,
            )
            outcome["result"] = "accepted"
        except HandshakeError as exc:
            outcome["result"] = f"rejected: {exc}"
        except BaseException as exc:  # the bug class we are hunting
            outcome["result"] = f"LEAKED {type(exc).__name__}: {exc}"

    thread = threading.Thread(target=server)
    thread.start()
    try:
        attacker_script(attacker)
    except Exception:
        pass  # attacker errors are irrelevant
    thread.join(timeout=20.0)
    assert not thread.is_alive(), "handshake server hung on hostile input"
    attacker.close()
    return outcome.get("result", "no outcome")


# Strategies for hostile handshake bodies.
hostile_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**64), max_value=2**64),
        st.binary(max_size=64),
        st.text(max_size=32),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)
hostile_bodies = st.dictionaries(
    st.sampled_from(["random", "ticket", "resumed", "certificate",
                     "dh_public", "signature", "mac", "junk"]),
    hostile_values,
    max_size=6,
)

FUZZ_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ_SETTINGS
@given(hostile_bodies)
def test_arbitrary_hello_body_rejected_cleanly(server_identity, body):
    def attack(channel):
        channel.send(
            Frame(kind=FrameKind.HANDSHAKE, headers={"step": "hello"},
                  payload=encode_value(body))
        )

    result = run_server(server_identity, attack)
    assert result.startswith("rejected"), result


@FUZZ_SETTINGS
@given(st.binary(max_size=256))
def test_arbitrary_payload_bytes_rejected_cleanly(server_identity, blob):
    def attack(channel):
        channel.send(
            Frame(kind=FrameKind.HANDSHAKE, headers={"step": "hello"},
                  payload=blob)
        )

    result = run_server(server_identity, attack)
    assert result.startswith("rejected"), result


@FUZZ_SETTINGS
@given(st.sampled_from(list(FrameKind)), st.binary(max_size=64))
def test_wrong_frame_kind_rejected_cleanly(server_identity, kind, blob):
    def attack(channel):
        channel.send(Frame(kind=kind, headers={"step": "hello"}, payload=blob))

    result = run_server(server_identity, attack)
    if kind == FrameKind.HANDSHAKE:
        assert result.startswith("rejected"), result
    else:
        assert "LEAKED" not in result, result


def test_immediate_disconnect_rejected_cleanly(server_identity):
    result = run_server(server_identity, lambda channel: channel.close())
    assert result.startswith("rejected"), result


def test_valid_hello_then_garbage_keyex(server_identity):
    def attack(channel):
        channel.send(
            Frame(
                kind=FrameKind.HANDSHAKE,
                headers={"step": "hello"},
                payload=encode_value(
                    {"random": b"\x00" * 32}
                ),
            )
        )
        channel.recv(timeout=5.0)  # server hello
        channel.send(
            Frame(
                kind=FrameKind.HANDSHAKE,
                headers={"step": "keyex"},
                payload=encode_value(
                    {"certificate": b"forged", "dh_public": 2, "signature": b"x"}
                ),
            )
        )

    result = run_server(server_identity, attack)
    assert result.startswith("rejected"), result


def test_valid_hello_then_silence_times_out(server_identity):
    def attack(channel):
        channel.send(
            Frame(
                kind=FrameKind.HANDSHAKE,
                headers={"step": "hello"},
                payload=encode_value(
                    {"random": b"\x00" * 32}
                ),
            )
        )
        # ...and never speak again.

    result = run_server(server_identity, attack)
    assert result.startswith("rejected"), result
