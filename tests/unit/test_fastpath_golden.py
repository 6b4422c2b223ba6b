"""Wire-compatibility oracle for the data plane.

The golden frame blobs below were produced by the seed implementation
(copying codec) *before* the fast path landed; the golden records were
sealed by the ``shake128`` record suite every tunnel runs.  The code
must emit byte-identical frames and records and accept these bytes, so
a peer built before a change and one built after it interoperate.
"""

import binascii

import pytest

from repro.security.cipher import CipherError, RecordCipher, SessionKeys
from repro.transport.frames import (
    Frame,
    FrameDecoder,
    FrameKind,
    decode_frame,
    encode_frame,
    encode_frame_views,
)

# (frame fields, seed-encoded hex) — covers every kind, empty and busy
# headers, nested values, unicode, big ints, and binary payloads.
GOLDEN_FRAMES = [
    (
        dict(kind=FrameKind.CONTROL, channel=0, headers={}, payload=b""),
        "475801010000000000000005000000000800000000",
    ),
    (
        dict(
            kind=FrameKind.DATA,
            channel=7,
            headers={"op": "PUT", "seq": 3},
            payload=b"body-bytes",
        ),
        "4758010200000007000000230000000a080000000205000000026f70050000000350"
        "5554050000000373657103000000020003626f64792d6279746573",
    ),
    (
        dict(
            kind=FrameKind.HANDSHAKE,
            channel=0,
            headers={"step": "hello"},
            payload=bytes(range(64)),
        ),
        "475801030000000000000018000000400800000001050000000473746570050000000568"
        "656c6c6f000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
    ),
    (
        dict(
            kind=FrameKind.HEARTBEAT,
            channel=4294967295,
            headers={"t": 1.5, "big": 2**100, "u": "açã"},
            payload=b"\x00" * 33,
        ),
        "47580104ffffffff0000003f000000210800000003050000000174043ff8000000000000"
        "0500000003626967030000000e0010000000000000000000000000050000000175"
        "050000000561c3a7c3a3" + "00" * 33,
    ),
    (
        dict(
            kind=FrameKind.MPI,
            channel=12,
            headers={
                "rank": 2,
                "nest": {"a": [1, (2, b"x")], "none": None, "flag": True},
            },
            payload=b"Z" * 100,
        ),
        "475801050000000c0000005b0000006408000000020500000004"
        "72616e6b0300000002000205000000046e65737408000000030500000001"
        "6107000000020300000002000109000000020300000002000206000000017805"
        "000000046e6f6e65000500000004666c616701" + "5a" * 100,
    ),
]

# Records sealed by the shake128 RecordCipher under fixed keys, sequences 0..4.
GOLDEN_KEYS = SessionKeys(encrypt_key=bytes(range(32)), mac_key=bytes(range(32, 64)))
GOLDEN_PLAINTEXTS = [b"", b"a", b"x" * 31, b"y" * 32, b"z" * 33]
GOLDEN_SHAKE_RECORDS = [
    "000000000000000048317b1d19db4290655946a2a2353d347c105fd577f8e43ec0a288f0fdd07436",
    "00000000000000012de04b99d3e1e89d2e85d6995fe6469ff73ea372ef645191363f36ad13a31c2869",
    "00000000000000024fa288163068fcae5ee69aeb644fdf35819c359058d6d40eac98320de0f956bc"
    "7808fa91786aa3694350e2f120dc8a42c4bd61f7a59e534cdc0afae7c31439",
    "000000000000000300042f869ce8d82aa2ec212e182cfe9fcb9f63d7b5dbcb85c0bc38e6c498f8ef"
    "bb3077e1d343f3de57af696ead54d77ad3e34d5ef538a96162304b571ce52b19",
    "000000000000000440ea6d4cb07a2cd1803877e6b3ede2fd528888bd7e5d20b9100e95a304fe8f8d"
    "a466c7d6b9ce510f8caafbf2d0aa7199998db4d9a66613ab2f9289ffd2cb29f112",
]


def _golden_frame_blobs():
    for fields, *hex_parts in GOLDEN_FRAMES:
        yield Frame(**fields), binascii.unhexlify("".join(hex_parts))


class TestGoldenFrames:
    def test_encode_matches_seed_bytes(self):
        for frame, blob in _golden_frame_blobs():
            assert encode_frame(frame) == blob

    def test_views_concatenate_to_seed_bytes(self):
        for frame, blob in _golden_frame_blobs():
            views = encode_frame_views(frame)
            assert b"".join(views) == blob
            # payload rides zero-copy as the final view
            assert views[-1] == frame.payload

    def test_decode_accepts_seed_bytes(self):
        for frame, blob in _golden_frame_blobs():
            decoded = decode_frame(blob)
            assert decoded.kind == frame.kind
            assert decoded.channel == frame.channel
            assert decoded.headers == frame.headers
            assert decoded.payload == frame.payload

    def test_decoder_reassembles_seed_stream(self):
        stream = b"".join(blob for _, blob in _golden_frame_blobs())
        decoder = FrameDecoder()
        for i in range(0, len(stream), 5):
            decoder.feed(stream[i : i + 5])
        decoded = list(decoder)
        assert [f.kind for f in decoded] == [f.kind for f, _ in _golden_frame_blobs()]
        assert decoder.pending_bytes == 0


class TestGoldenRecords:
    def test_shake_seal_matches_golden_bytes(self):
        sender = RecordCipher(GOLDEN_KEYS)
        for plaintext, golden in zip(GOLDEN_PLAINTEXTS, GOLDEN_SHAKE_RECORDS):
            assert sender.seal(plaintext) == binascii.unhexlify(golden)

    def test_shake_open_accepts_golden_records(self):
        receiver = RecordCipher(GOLDEN_KEYS)
        for plaintext, golden in zip(GOLDEN_PLAINTEXTS, GOLDEN_SHAKE_RECORDS):
            assert receiver.open(binascii.unhexlify(golden)) == plaintext

    def test_open_accepts_sequence_gap(self):
        # Dropped carriers must not wedge the stream: only monotonicity
        # is enforced, exactly as in the seed.
        receiver = RecordCipher(GOLDEN_KEYS)
        assert receiver.open(binascii.unhexlify(GOLDEN_SHAKE_RECORDS[0])) == b""
        assert receiver.open(binascii.unhexlify(GOLDEN_SHAKE_RECORDS[3])) == b"y" * 32
        with pytest.raises(CipherError):
            receiver.open(binascii.unhexlify(GOLDEN_SHAKE_RECORDS[1]))  # behind now


class TestDecoderInvariants:
    def test_pending_bytes_tracks_fed_minus_consumed(self):
        frames = [
            Frame(kind=FrameKind.DATA, headers={"i": i}, payload=bytes([i]) * (i * 7))
            for i in range(12)
        ]
        stream = b"".join(encode_frame(f) for f in frames)
        sizes = [f.wire_size() for f in frames]
        decoder = FrameDecoder()
        fed = consumed = 0
        out = []
        for i in range(0, len(stream), 9):
            chunk = stream[i : i + 9]
            decoder.feed(chunk)
            fed += len(chunk)
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                out.append(frame)
                consumed += decoder.last_frame_wire_size
                assert decoder.pending_bytes == fed - consumed
            assert decoder.pending_bytes == fed - consumed
        assert [f.headers["i"] for f in out] == list(range(12))
        assert consumed == sum(sizes) == len(stream)
        assert decoder.pending_bytes == 0

    def test_compaction_across_large_consumed_prefix(self):
        # Push the consumed offset past the lazy-compaction threshold and
        # confirm frame boundaries stay intact.
        big = Frame(kind=FrameKind.DATA, payload=b"\xab" * (300 * 1024))
        tail = Frame(kind=FrameKind.CONTROL, headers={"done": True})
        stream = encode_frame(big) + encode_frame(tail)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), 4096):
            decoder.feed(stream[i : i + 4096])
            out.extend(decoder)
        assert len(out) == 2
        assert out[0].payload == big.payload
        assert out[1].headers == {"done": True}
        assert decoder.pending_bytes == 0
