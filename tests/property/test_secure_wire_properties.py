"""The secure channel's send path writes the bytes the frame format defines.

``SecureChannel.send``/``send_many`` hand each sealed record to the TCP
transport with a carrier prefix built beside it, not through a carrier
``Frame``; the bytes on the socket must still be exactly the encoded
carrier frame of the sealed, encoded frame.  The record MAC, computed
from pre-keyed SHA-256 pads, must be exactly HMAC-SHA-256.
"""

import hashlib
import hmac
import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.cipher import RecordCipher, SessionKeys
from repro.security.handshake import PeerIdentity, SecureChannel
from repro.transport.frames import Frame, FrameKind, encode_frame
from repro.transport.reactor import Reactor, ReactorTcpListener

keys = st.builds(
    SessionKeys,
    encrypt_key=st.binary(min_size=32, max_size=32),
    mac_key=st.binary(min_size=32, max_size=32),
)

frames = st.builds(
    Frame,
    kind=st.sampled_from(list(FrameKind)),
    channel=st.integers(0, 2**32 - 1),
    headers=st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.integers(), st.text(max_size=16), st.binary(max_size=16)),
        max_size=4,
    ),
    payload=st.binary(max_size=3000),
)


@given(keys, st.binary(max_size=4096))
def test_record_mac_is_hmac_sha256(session_keys, plaintext):
    record = RecordCipher(session_keys).seal(plaintext)
    seq, mac, ciphertext = record[:8], record[8:40], record[40:]
    assert len(ciphertext) == len(plaintext)
    assert mac == hmac.new(session_keys.mac_key, seq + ciphertext, hashlib.sha256).digest()


def _read_exactly(raw: socket.socket, nbytes: int) -> bytes:
    got = bytearray()
    raw.settimeout(10.0)
    while len(got) < nbytes:
        chunk = raw.recv(nbytes - len(got))
        assert chunk, f"peer closed after {len(got)} of {nbytes} bytes"
        got += chunk
    return bytes(got)


@settings(max_examples=25, deadline=None)
@given(keys, st.lists(frames, min_size=1, max_size=6), st.booleans())
def test_secure_send_puts_the_carrier_frames_on_the_socket(session_keys, burst, many):
    twin = RecordCipher(session_keys)
    expected = b"".join(
        encode_frame(Frame(FrameKind.DATA, f.channel, {}, twin.seal(encode_frame(f))))
        for f in burst
    )
    reactor = Reactor(name="secure-wire").start()
    listener = ReactorTcpListener(reactor=reactor)
    raw = socket.create_connection((listener.host, listener.port))
    server = listener.accept(timeout=5.0)
    secure = SecureChannel(
        server, RecordCipher(session_keys), RecordCipher(session_keys), PeerIdentity(None)
    )
    try:
        if many:
            secure.send_many(burst)
        else:
            for frame in burst:
                secure.send(frame)
        assert _read_exactly(raw, len(expected)) == expected
        assert server.stats.frames_sent == len(burst)
        assert server.stats.bytes_sent == len(expected)
        assert secure.stats.frames_sent == len(burst)
    finally:
        server.close()
        raw.close()
        listener.close()
        reactor.stop()
