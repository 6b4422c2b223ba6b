"""Property-based tests for the wire codec and frame format."""

import array
import enum
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.transport.errors import CodecError
from repro.transport.frames import (
    Frame,
    FrameDecoder,
    FrameKind,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
    encoded_size,
)

# Values the codec supports (floats restricted to non-NaN: NaN != NaN
# breaks equality-based round-trip checking, and the middleware never
# sends NaN).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**256), max_value=2**256),
    st.floats(allow_nan=False),
    st.text(max_size=64),
    st.binary(max_size=64),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=16), children, max_size=6),
    ),
    max_leaves=25,
)


@given(values)
def test_codec_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(values)
def test_codec_deterministic(value):
    assert encode_value(value) == encode_value(value)


@given(
    st.sampled_from(list(FrameKind)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.dictionaries(st.text(max_size=16), scalars, max_size=8),
    st.binary(max_size=1024),
)
def test_frame_round_trip(kind, channel, headers, payload):
    frame = Frame(kind=kind, channel=channel, headers=headers, payload=payload)
    decoded = decode_frame(encode_frame(frame))
    assert decoded.kind == frame.kind
    assert decoded.channel == frame.channel
    assert decoded.headers == frame.headers
    assert decoded.payload == frame.payload


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(FrameKind)),
            st.binary(max_size=200),
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=1, max_value=37),
)
def test_decoder_reassembles_any_fragmentation(frames_spec, chunk_size):
    """Frames survive arbitrary TCP fragmentation and coalescing."""
    frames = [Frame(kind=k, payload=p) for k, p in frames_spec]
    blob = b"".join(encode_frame(f) for f in frames)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(blob), chunk_size):
        decoder.feed(blob[i : i + chunk_size])
        out.extend(decoder)
    assert len(out) == len(frames)
    for got, want in zip(out, frames):
        assert got.kind == want.kind
        assert got.payload == want.payload
    assert decoder.pending_bytes == 0


def _drain_in_chunks(blob, chunk_sizes):
    """Feed ``blob`` to a fresh decoder in the given chunk sizes."""
    decoder = FrameDecoder()
    out = []
    pos = 0
    i = 0
    while pos < len(blob):
        size = chunk_sizes[i % len(chunk_sizes)]
        decoder.feed(blob[pos : pos + size])
        out.extend(decoder)
        pos += size
        i += 1
    assert decoder.pending_bytes == 0
    return out


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(FrameKind)),
            st.dictionaries(st.text(max_size=8), scalars, max_size=4),
            st.binary(max_size=300),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.integers(min_value=1, max_value=97), min_size=1, max_size=8),
)
def test_chunking_is_invisible(frames_spec, random_chunks):
    """The decoder is a pure function of the byte stream: feeding the same
    stream byte-wise, in 7-byte slices, or in arbitrary random slices must
    yield identical frames.  This is exactly the guarantee the zero-copy
    offset buffer must preserve."""
    frames = [Frame(kind=k, headers=h, payload=p) for k, h, p in frames_spec]
    blob = b"".join(encode_frame(f) for f in frames)
    runs = [
        _drain_in_chunks(blob, [1]),
        _drain_in_chunks(blob, [7]),
        _drain_in_chunks(blob, random_chunks),
    ]
    for out in runs:
        assert len(out) == len(frames)
    for a, b, c in zip(*runs):
        for got in (b, c):
            assert got.kind == a.kind
            assert got.channel == a.channel
            assert got.headers == a.headers
            assert got.payload == a.payload


# -- encoded_size: the byte count of encode_value, without the bytes ---------


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 70000


class _Name(str):
    pass


#: what encode_value accepts in more shapes than it decodes back to, and
#: what it refuses (foreign leaves, non-str dict keys)
sized_leaves = st.one_of(
    scalars,
    st.integers(-70000, 70000),
    st.binary(max_size=16).map(bytearray),
    st.binary(max_size=16).map(memoryview),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=4).map(
        lambda xs: memoryview(array.array("i", xs))
    ),
    st.sampled_from(list(_Level)),
    st.text(max_size=8).map(_Name),
    st.sampled_from([object(), {1, 2}, 1j]),
)

sized_values = st.recursive(
    sized_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.text(max_size=8).map(_Name), st.integers(0, 3)),
            children,
            max_size=5,
        ),
    ),
    max_leaves=20,
)


def _same_outcome(value):
    try:
        expected = len(encode_value(value))
    except CodecError as exc:
        with pytest.raises(CodecError, match=re.escape(str(exc))):
            encoded_size(value)
    else:
        assert encoded_size(value) == expected


@given(sized_values)
@example(0)
@example({"k": [-1, 127, 128, 255, -129, 2**63, "é", b""]})
def test_encoded_size_is_the_encoded_length(value):
    _same_outcome(value)


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=28, max_size=36),
    st.one_of(scalars, st.just([]), st.just({})),
)
def test_encoded_size_keeps_the_depth_bound(shells, leaf):
    value = leaf
    for shell in shells:
        value = {"k": value} if shell == "dict" else [value] if shell == "list" else (value,)
    _same_outcome(value)


def test_encoded_size_keeps_the_container_bound():
    _same_outcome([None] * 1_000_001)
