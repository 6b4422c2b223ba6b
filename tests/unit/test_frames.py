"""Unit tests for the wire codec and frame format."""

import pytest

from repro.transport.errors import CodecError, FrameError
from repro.transport.frames import (
    MAX_FRAME_PAYLOAD,
    Frame,
    FrameDecoder,
    FrameKind,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**200,
            -(2**200),
            0.0,
            3.14,
            float("inf"),
            "",
            "hello",
            "unicode: ação ∑",
            b"",
            b"\x00\xff" * 10,
            [],
            [1, "two", 3.0],
            (),
            (1, 2),
            {},
            {"a": 1, "b": [True, None]},
            {"nested": {"deep": {"deeper": [1, (2, {"x": b"y"})]}}},
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_distinct_from_list(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)

    def test_bool_distinct_from_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_rejects_foreign_types(self):
        with pytest.raises(CodecError):
            encode_value(object())
        with pytest.raises(CodecError):
            encode_value({1: "non-string key"})
        with pytest.raises(CodecError):
            encode_value(set())

    def test_rejects_excessive_nesting(self):
        value = []
        for _ in range(100):
            value = [value]
        with pytest.raises(CodecError):
            encode_value(value)

    def test_rejects_trailing_garbage(self):
        blob = encode_value(42) + b"junk"
        with pytest.raises(CodecError):
            decode_value(blob)

    def test_rejects_truncation(self):
        blob = encode_value("hello world")
        with pytest.raises(CodecError):
            decode_value(blob[:-3])

    def test_rejects_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_value(b"\xfe")

    def test_rejects_empty_input(self):
        with pytest.raises(CodecError):
            decode_value(b"")

    def test_rejects_bad_utf8(self):
        blob = bytearray(encode_value("ab"))
        blob[-1] = 0xFF  # corrupt the string body
        with pytest.raises(CodecError):
            decode_value(bytes(blob))

    def test_hostile_length_field(self):
        # A list claiming 2**32-1 elements must not allocate.
        blob = b"\x07\xff\xff\xff\xff"
        with pytest.raises(CodecError):
            decode_value(blob)


class TestFrame:
    def test_round_trip(self):
        frame = Frame(
            kind=FrameKind.CONTROL,
            channel=7,
            headers={"op": "JOB_SUBMIT", "seq": 3},
            payload=b"body",
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind == FrameKind.CONTROL
        assert decoded.channel == 7
        assert decoded.headers == {"op": "JOB_SUBMIT", "seq": 3}
        assert decoded.payload == b"body"

    def test_empty_frame(self):
        frame = Frame(kind=FrameKind.HEARTBEAT)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.headers == {}
        assert decoded.payload == b""

    def test_all_kinds_round_trip(self):
        for kind in FrameKind:
            decoded = decode_frame(encode_frame(Frame(kind=kind)))
            assert decoded.kind == kind

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Frame(kind=99)

    def test_channel_range_enforced(self):
        with pytest.raises(FrameError):
            Frame(kind=FrameKind.DATA, channel=-1)
        with pytest.raises(FrameError):
            Frame(kind=FrameKind.DATA, channel=2**32)

    def test_payload_must_be_bytes(self):
        with pytest.raises(FrameError):
            Frame(kind=FrameKind.DATA, payload="text")

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_frame(Frame(kind=FrameKind.DATA)))
        blob[0] = 0x00
        with pytest.raises(FrameError):
            decode_frame(bytes(blob))

    def test_bad_version_rejected(self):
        blob = bytearray(encode_frame(Frame(kind=FrameKind.DATA)))
        blob[2] = 99
        with pytest.raises(FrameError):
            decode_frame(bytes(blob))

    def test_unknown_wire_kind_rejected(self):
        blob = bytearray(encode_frame(Frame(kind=FrameKind.DATA)))
        blob[3] = 200
        with pytest.raises(FrameError):
            decode_frame(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = encode_frame(Frame(kind=FrameKind.DATA)) + b"x"
        with pytest.raises(FrameError):
            decode_frame(blob)

    def test_truncated_frame_rejected(self):
        blob = encode_frame(Frame(kind=FrameKind.DATA, payload=b"abcdef"))
        with pytest.raises(FrameError):
            decode_frame(blob[:-2])

    def test_oversized_payload_rejected(self):
        frame = Frame(kind=FrameKind.DATA)
        frame.payload = b"\x00" * (MAX_FRAME_PAYLOAD + 1)
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_hostile_payload_length_rejected(self):
        blob = bytearray(encode_frame(Frame(kind=FrameKind.DATA)))
        blob[12:16] = (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(FrameError):
            decode_frame(bytes(blob))

    def test_wire_size(self):
        frame = Frame(kind=FrameKind.DATA, payload=b"1234")
        assert frame.wire_size() == len(encode_frame(frame))


class TestFrameDecoder:
    def test_reassembles_split_frames(self):
        frames = [
            Frame(kind=FrameKind.CONTROL, headers={"n": i}, payload=bytes([i]) * i)
            for i in range(5)
        ]
        blob = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        # Feed one byte at a time: worst-case fragmentation.
        for i in range(0, len(blob), 3):
            decoder.feed(blob[i : i + 3])
            out.extend(decoder)
        assert [f.headers["n"] for f in out] == [0, 1, 2, 3, 4]
        assert decoder.pending_bytes == 0

    def test_coalesced_frames_in_one_chunk(self):
        blob = encode_frame(Frame(kind=FrameKind.DATA, payload=b"a")) + encode_frame(
            Frame(kind=FrameKind.DATA, payload=b"b")
        )
        decoder = FrameDecoder()
        decoder.feed(blob)
        frames = list(decoder)
        assert [f.payload for f in frames] == [b"a", b"b"]

    def test_incomplete_frame_returns_none(self):
        blob = encode_frame(Frame(kind=FrameKind.DATA, payload=b"abc"))
        decoder = FrameDecoder()
        decoder.feed(blob[:-1])
        assert decoder.next_frame() is None
        decoder.feed(blob[-1:])
        assert decoder.next_frame() is not None

    def test_corrupt_stream_poisons_decoder(self):
        decoder = FrameDecoder()
        decoder.feed(b"XXXXXXXXXXXXXXXXXXXX")
        with pytest.raises(FrameError):
            decoder.next_frame()
        with pytest.raises(FrameError):
            decoder.feed(b"more")
        with pytest.raises(FrameError):
            decoder.next_frame()


class TestZeroCopyDecoder:
    """The memoryview receive path: no-copy feeds, view-payload decode,
    and the lifetime contract (views are valid until the next feed)."""

    def _frame(self, n, size=32):
        return Frame(
            kind=FrameKind.DATA, headers={"n": n}, payload=bytes([n % 256]) * size
        )

    def test_feed_accepts_bytes_like_without_conversion(self):
        blob = encode_frame(self._frame(1))
        for chunk in (bytearray(blob), memoryview(blob), memoryview(bytearray(blob))):
            decoder = FrameDecoder()
            decoder.feed(chunk)
            frame = decoder.next_frame()
            assert frame.headers["n"] == 1
            assert frame.payload == self._frame(1).payload

    def test_next_frame_view_returns_memoryview_payload(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(self._frame(7)))
        frame = decoder.next_frame_view()
        assert isinstance(frame.payload, memoryview)
        assert bytes(frame.payload) == self._frame(7).payload
        assert decoder.last_frame_wire_size == len(encode_frame(self._frame(7)))

    def test_view_payload_empty_frame_is_bytes(self):
        # Zero-length views would pin the buffer for nothing.
        decoder = FrameDecoder()
        decoder.feed(encode_frame(Frame(kind=FrameKind.DATA, payload=b"")))
        frame = decoder.next_frame_view()
        assert frame.payload == b""
        assert isinstance(frame.payload, bytes)

    def test_view_content_survives_contract_violation(self):
        # The documented lifetime is "until the next feed"; holding a view
        # longer must degrade to a copy (the decoder abandons the buffer
        # to the leaked view), never to corruption.
        decoder = FrameDecoder()
        decoder.feed(encode_frame(self._frame(1)))
        frame = decoder.next_frame_view()
        retained = frame.payload
        expected = bytes(retained)
        for n in range(2, 30):
            decoder.feed(encode_frame(self._frame(n)))
            nxt = decoder.next_frame_view()
            assert nxt.headers["n"] == n
        assert bytes(retained) == expected

    def test_views_interleave_with_copying_decode(self):
        decoder = FrameDecoder()
        blob = b"".join(encode_frame(self._frame(n)) for n in range(6))
        decoder.feed(blob)
        for n in range(6):
            frame = decoder.next_frame_view() if n % 2 else decoder.next_frame()
            assert frame.headers["n"] == n
            assert bytes(frame.payload) == self._frame(n).payload
        assert decoder.pending_bytes == 0

    def test_feed_into_reads_via_readinto(self):
        import io

        blob = b"".join(encode_frame(self._frame(n)) for n in range(4))
        source = io.BytesIO(blob)
        decoder = FrameDecoder()
        seen = []
        while True:
            n = decoder.feed_into(source.readinto, max_bytes=7)
            if not n:
                break
            seen.extend(f.headers["n"] for f in decoder)
        assert seen == [0, 1, 2, 3]
        assert decoder.feed_into(source.readinto) == 0  # EOF stays EOF

    @staticmethod
    def _recording_source(blob):
        """A ``readinto`` over ``blob`` that records each request's size."""
        import io

        source = io.BytesIO(blob)
        asked = []

        def readinto(view):
            asked.append(len(view))
            return source.readinto(view)

        return readinto, asked

    def test_feed_into_reads_a_buffered_frames_rest_in_one_call(self):
        chunk = 64 * 1024
        frame = Frame(kind=FrameKind.DATA, payload=b"\x5a" * (300 * 1024))
        blob = encode_frame(frame)
        readinto, asked = self._recording_source(blob)
        decoder = FrameDecoder()
        while decoder.feed_into(readinto, chunk):
            pass
        # The first read finds no header; the second asks for the whole
        # rest of the frame (under the cap); the third meets EOF.
        assert asked[:2] == [chunk, len(blob) - chunk]
        assert len(blob) - chunk <= 4 * chunk
        assert decoder.next_frame().payload == frame.payload

    def test_feed_into_caps_a_frame_sized_read(self):
        chunk = 64 * 1024
        frame = Frame(kind=FrameKind.DATA, payload=bytes(1024 * 1024))
        readinto, asked = self._recording_source(encode_frame(frame))
        decoder = FrameDecoder()
        while decoder.feed_into(readinto, chunk):
            pass
        assert asked[0] == chunk
        assert max(asked) == 4 * chunk
        assert decoder.next_frame().payload == frame.payload

    def test_hostile_header_reserves_at_most_the_cap(self):
        import struct

        chunk = 64 * 1024
        # A well-formed 21-byte header claiming the largest legal payload.
        def header(plen):
            return struct.pack("!2sBBIII", b"GX", 1, int(FrameKind.DATA), 0, 0, plen)

        decoder = FrameDecoder()
        decoder.feed(header(MAX_FRAME_PAYLOAD))
        before = len(decoder._buffer)
        readinto, asked = self._recording_source(b"")
        assert decoder.feed_into(readinto, chunk) == 0
        assert asked == [4 * chunk]
        assert len(decoder._buffer) - before <= 4 * chunk
        # An over-long claim fails the header checks: no frame-sized read,
        # and decoding raises.
        decoder = FrameDecoder()
        decoder.feed(header(MAX_FRAME_PAYLOAD + 1))
        readinto, asked = self._recording_source(b"")
        decoder.feed_into(readinto, chunk)
        assert asked == [chunk]
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_small_frames_read_in_chunk_sized_requests(self):
        chunk = 64 * 1024
        frames = [self._frame(n) for n in range(2000)]
        blob = b"".join(encode_frame(f) for f in frames)
        assert len(blob) > 2 * chunk
        readinto, asked = self._recording_source(blob)
        decoder = FrameDecoder()
        seen = []
        while decoder.feed_into(readinto, chunk):
            seen.extend(f.headers["n"] for f in decoder)
        assert seen == list(range(2000))
        # A small frame's rest is under one chunk, so no read grows.
        assert set(asked) == {chunk}

    def test_decoded_values_own_their_data(self):
        # decode_value over a memoryview must copy str/bytes leaves out:
        # the buffer is reused after the view dies.
        buffer = bytearray(encode_value({"key": b"payload", "s": "text"}))
        value = decode_value(memoryview(buffer))
        buffer[:] = bytes(len(buffer))  # clobber the backing storage
        assert value == {"key": b"payload", "s": "text"}
        assert isinstance(value["key"], bytes)

    def test_codec_round_trip_through_memoryview(self):
        for value in (None, 1, "x", b"y", [1, {"k": (2.5, b"z")}]):
            assert decode_value(memoryview(encode_value(value))) == value
