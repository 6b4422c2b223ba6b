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
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ControlMessage, Op
from repro.security.cipher import CipherError, RecordCipher, SessionKeys, _xor_slices
from repro.security.handshake import PeerIdentity, SecureChannel
from repro.transport.frames import Frame, FrameKind, carrier_prefix, encode_frame
from repro.transport.inproc import channel_pair
from repro.transport.reactor import Reactor, ReactorTcpListener, connect_tcp_reactor

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
    record = b"".join(RecordCipher(session_keys).seal(plaintext))
    seq, mac, ciphertext = record[:8], record[8:40], record[40:]
    assert len(ciphertext) == len(plaintext)
    assert mac == hmac.new(session_keys.mac_key, seq + ciphertext, hashlib.sha256).digest()


_SLICE = 64 * 1024


@settings(max_examples=30, deadline=None)
@given(keys, st.integers(_SLICE + 1, 3 * _SLICE + 7), st.data())
def test_large_record_rejects_a_flip_in_any_slice_and_a_replay(session_keys, size, data):
    """A record over one 64 KiB XOR slice is MACed slice by slice; a flipped
    byte in any slice, the short last one included, must still fail."""
    plaintext = hashlib.shake_128(size.to_bytes(4, "big")).digest(size)
    record = b"".join(RecordCipher(session_keys).seal(plaintext))
    seq, mac, ciphertext = record[:8], record[8:40], record[40:]
    assert mac == hmac.new(session_keys.mac_key, seq + ciphertext, hashlib.sha256).digest()
    last = (size - 1) // _SLICE
    index = data.draw(st.one_of(st.just(last), st.integers(0, last)), label="slice")
    start = 40 + index * _SLICE
    pos = data.draw(st.integers(start, min(start + _SLICE, len(record)) - 1), label="pos")
    tampered = bytearray(record)
    tampered[pos] ^= data.draw(st.integers(1, 255), label="flip")
    receiver = RecordCipher(session_keys)
    with pytest.raises(CipherError):
        receiver.open(bytes(tampered))
    assert receiver.open(record) == plaintext
    with pytest.raises(CipherError):
        receiver.open(record)


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
        encode_frame(Frame(FrameKind.DATA, f.channel, {}, b"".join(twin.seal(encode_frame(f)))))
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


# ---------------------------------------------------------------------------
# Large records: sealed as slices, written as iovecs, byte-identical
# ---------------------------------------------------------------------------

#: around and past every slice boundary up to the sizes the grid sends
_RECORD_SIZES = [0, 1, 65535, 65536, 65537, 131071, 131072, 131073, 262204, 1048579]


def _seed_record(session_keys: SessionKeys, seq: int, plaintext: bytes) -> bytes:
    """The record construction written out in full: seq‖mac‖ciphertext."""
    seq_raw = seq.to_bytes(8, "big")
    n = len(plaintext)
    stream = hashlib.shake_128(session_keys.encrypt_key + seq_raw).digest(n)
    ciphertext = (
        (int.from_bytes(plaintext, "little") ^ int.from_bytes(stream, "little")).to_bytes(
            n, "little"
        )
        if n
        else b""
    )
    mac = hmac.new(session_keys.mac_key, seq_raw + ciphertext, hashlib.sha256).digest()
    return seq_raw + mac + ciphertext


@settings(max_examples=30, deadline=None)
@given(keys, st.sampled_from(_RECORD_SIZES), st.binary(max_size=8), st.integers(0, 2))
def test_joined_record_is_the_seed_record_and_opens(session_keys, size, seed, skip):
    plaintext = hashlib.shake_128(seed).digest(size)
    sender, receiver = RecordCipher(session_keys), RecordCipher(session_keys)
    for _ in range(skip):
        sender.seal(b"")
    parts = sender.seal(plaintext)
    record = b"".join(parts)
    assert record == _seed_record(session_keys, skip, plaintext)
    assert receiver.open(record) == plaintext
    # seq‖mac, then one buffer per 64 KiB ciphertext slice
    assert len(parts) == (1 if size <= _SLICE else 1 + -(-size // _SLICE))


def _fixed_keys() -> SessionKeys:
    return SessionKeys(encrypt_key=b"k" * 32, mac_key=b"m" * 32)


def test_large_frame_is_its_carrier_prefix_then_the_sealed_slices_on_the_socket():
    frame = Frame(FrameKind.CONTROL, 7, {"op": 1}, bytes(range(256)) * 1200)  # 300 KiB
    twin = RecordCipher(_fixed_keys())
    record = b"".join(twin.seal(encode_frame(frame)))
    expected = carrier_prefix(7, len(record)) + record
    reactor = Reactor(name="secure-wire-large").start()
    listener = ReactorTcpListener(reactor=reactor)
    raw = socket.create_connection((listener.host, listener.port))
    server = listener.accept(timeout=5.0)
    secure = SecureChannel(
        server, RecordCipher(_fixed_keys()), RecordCipher(_fixed_keys()), PeerIdentity(None)
    )
    try:
        secure.send(frame)
        assert _read_exactly(raw, len(expected)) == expected
        assert secure.stats.bytes_sent == len(record)
        assert server.stats.bytes_sent == len(expected)
    finally:
        server.close()
        raw.close()
        listener.close()
        reactor.stop()


def test_large_echo_over_an_inproc_secure_channel():
    """The base ``send_records`` joins a record's slices into one carrier."""
    a, b = channel_pair("secure-echo")
    left = SecureChannel(
        a, RecordCipher(_fixed_keys()), RecordCipher(_fixed_keys()), PeerIdentity(None)
    )
    right = SecureChannel(
        b, RecordCipher(_fixed_keys()), RecordCipher(_fixed_keys()), PeerIdentity(None)
    )
    body = {"blob": hashlib.shake_128(b"echo").digest(200_000), "n": 3}
    try:
        left.send(ControlMessage(op=Op.PING, body=body).to_frame())
        request = ControlMessage.from_frame(right.recv(timeout=5.0))
        right.send_many([request.reply(Op.PONG, request.body).to_frame()])
        reply = ControlMessage.from_frame(left.recv(timeout=5.0))
    finally:
        left.close()
        right.close()
    assert request.body == body
    assert reply.reply_to == request.message_id
    assert reply.body == body
    assert type(reply.body["blob"]) is bytes  # owns its bytes


# ---------------------------------------------------------------------------
# The copy counter: large buffers made per bulk message
# ---------------------------------------------------------------------------

_LARGE_BLOCK = 64 * 1024


def _live_large_blocks() -> Counter:
    counts: Counter = Counter()
    for trace in tracemalloc.take_snapshot().traces:
        if trace.size >= _LARGE_BLOCK:
            counts[trace.traceback, trace.size] += 1
    return counts


def _count_large_allocations(fn):
    """``fn()`` and the number of blocks of 64 KiB or more it allocated.

    tracemalloc is snapshotted at every call and return on this thread; a
    block counts when its (allocation line, size) has more live blocks
    than at the previous event.  A block made and freed between two
    events (an XOR's result int, consumed by the ``to_bytes`` call after
    it) is not seen, so the count is of buffers a call hands back.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    seen = _live_large_blocks()
    new: Counter = Counter()

    def probe(frame, event, arg):
        nonlocal seen
        now = _live_large_blocks()
        new.update(now - seen)
        seen = now

    try:
        sys.setprofile(probe)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        probe(None, "end", None)
    finally:
        if started:
            tracemalloc.stop()
    return result, sum(new.values())


def test_a_bulk_message_is_copied_three_times_each_way_beside_the_xor():
    """One control frame with a 256 KiB body, sent through SecureChannel
    over TCP and received as the grid receives it.

    Both halves run on the loop thread, so no other thread allocates
    while they are counted.  The cipher's XOR arithmetic (per full
    64 KiB slice, two ``int.from_bytes`` and one ``to_bytes``: 12 blocks
    here on CPython 3.11) is counted the same way on the same plaintext
    and subtracted, so what is pinned is the message's own buffers.
    Send: the SHAKE keystream, ``encode_value``'s one join and
    ``encode_frame``'s join.  Receive: the keystream, ``open``'s joined
    plaintext and the body's one owning copy in ``decode_value``.
    """
    reactor = Reactor(name="copy-counter").start()
    listener = ReactorTcpListener(reactor=reactor)
    client = connect_tcp_reactor(listener.host, listener.port, reactor=reactor)
    server = listener.accept(timeout=5.0)
    sender = SecureChannel(
        client, RecordCipher(_fixed_keys()), RecordCipher(_fixed_keys()), PeerIdentity(None)
    )
    receiver = SecureChannel(
        server, RecordCipher(_fixed_keys()), RecordCipher(_fixed_keys()), PeerIdentity(None)
    )
    payload = bytes(range(256)) * 1024

    def counted_on_loop(fn):
        out: list = []
        done = threading.Event()

        def on_loop():
            try:
                out.append(_count_large_allocations(fn))
            finally:
                done.set()

        reactor.loop.schedule(on_loop)
        assert done.wait(timeout=10.0)
        return out[0]

    def round_trip(message):
        _, sent = counted_on_loop(lambda: sender.send(message.to_frame()))
        wire = len(encode_frame(message.to_frame())) + RecordCipher.overhead() + 21
        deadline = time.monotonic() + 10.0
        while True:  # until the loop has read all of it
            with server._rx_lock:  # the decoder's lock
                if server._decoder.pending_bytes >= wire:
                    break
            assert time.monotonic() < deadline
            time.sleep(0.005)
        got, received = counted_on_loop(
            lambda: ControlMessage.from_frame(receiver.poll_batch(1)[0][0])
        )
        assert got.body == message.body
        return sent, received

    try:
        # Warm-ups grow the reassembly buffer past any later need, so
        # only the message's own buffers are counted.
        round_trip(ControlMessage(op=Op.PING, body={"blob": bytes(1 << 20)}))
        round_trip(ControlMessage(op=Op.PING, body={"blob": payload}))
        message = ControlMessage(op=Op.PING, body={"blob": payload}, message_id=1)
        plaintext = encode_frame(message.to_frame())
        stream = hashlib.shake_128(b"stream").digest(len(plaintext))
        _, xor = counted_on_loop(lambda: list(_xor_slices(plaintext, stream)))
        sent, received = round_trip(message)
        assert (sent - xor, received - xor) == (3, 3)
    finally:
        client.close()
        server.close()
        listener.close()
        reactor.stop()
