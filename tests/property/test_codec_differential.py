"""The one-pass value codec against the codec it replaced.

``tests/_reference_codec.py`` is the pre-rewrite ``_encode_into`` /
``_decode_from``, verbatim.  Everything here holds the production codec
to it: same bytes out, same values back, same refusals — on arbitrary
values, at the depth boundary, and on every truncation and single-byte
corruption of real control frames.
"""

import collections
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ControlMessage, Op, ProtocolError
from repro.transport import frames
from repro.transport.errors import CodecError, FrameError
from repro.transport.frames import decode_frame, decode_value, encode_frame, encode_value
from tests import _reference_codec as oracle

DIFF_SETTINGS = settings(max_examples=2000, deadline=None, derandomize=True)


class Colour(enum.IntEnum):
    RED = 1
    HUGE = 2**70
    NEGATIVE = -3


class Label(str):
    pass


class Bag(dict):
    pass


keys = st.one_of(
    st.sampled_from(["op", "id", "sender", "reply_to", "trace", "auth", "", "ключ", "鍵"]),
    st.text(max_size=12),
    st.text(max_size=6).map(Label),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.sampled_from(list(Colour)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=32),
    st.text(max_size=8).map(Label),
    st.binary(max_size=48),
    st.binary(max_size=16).map(bytearray),
    st.binary(max_size=16).map(memoryview),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=6),
        st.dictionaries(keys, children, max_size=4).map(Bag),
        st.dictionaries(keys, children, max_size=4).map(collections.OrderedDict),
    ),
    max_leaves=30,
)


def outcome(fn, *args):
    """``("ok", repr)`` or ``("error", class)`` — repr tells 1 from True, nan from nan."""
    try:
        return "ok", repr(fn(*args))
    except (CodecError, FrameError) as exc:
        return "error", type(exc)


@DIFF_SETTINGS
@given(values)
def test_same_bytes_and_same_values(value):
    wire = encode_value(value)
    assert wire == oracle.encode_value(value)
    expected = outcome(oracle.decode_value, wire)
    assert expected[0] == "ok"
    assert outcome(decode_value, wire) == expected
    assert outcome(decode_value, memoryview(bytearray(wire))) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.binary(max_size=64))
def test_same_verdict_on_arbitrary_bytes(blob):
    assert outcome(decode_value, blob) == outcome(oracle.decode_value, blob)


@pytest.mark.parametrize(
    "bad",
    [
        {1: "int key"},
        {"ok": 1, b"bytes": 2},
        {None: 1},
        {"nested": {("t",): 1}},
        object(),
        {"leaf": {1, 2}},
        [1, 2, 3j],
        {"fn": len},
    ],
    ids=repr,
)
def test_foreign_types_and_keys_refused_by_both(bad):
    with pytest.raises(CodecError):
        encode_value(bad)
    with pytest.raises(CodecError):
        oracle.encode_value(bad)


def test_oversized_containers_refused_by_both(monkeypatch):
    too_many = [None] * 1_000_001
    for encode in (encode_value, oracle.encode_value):
        with pytest.raises(CodecError, match="too large"):
            encode(too_many)
        with pytest.raises(CodecError, match="too large"):
            encode({"k": tuple(too_many)})
    for tag in (0x07, 0x08, 0x09):
        blob = bytes([tag]) + (1_000_001).to_bytes(4, "big")
        for decode in (decode_value, oracle.decode_value):
            with pytest.raises(CodecError, match="too large"):
                decode(blob)
    # A million-key dict costs ~100 MB; the same branch with the bound lowered.
    monkeypatch.setattr(frames, "_MAX_CONTAINER", 3)
    monkeypatch.setattr(oracle, "_MAX_CONTAINER", 3)
    for encode in (encode_value, oracle.encode_value):
        encode({"a": 1, "b": 2, "c": 3})
        with pytest.raises(CodecError, match="too large"):
            encode({"a": 1, "b": 2, "c": 3, "d": 4})


# -- the depth limit agrees at the boundary ---------------------------------

LEAVES = [None, True, 7, -(2**80), 1.5, "s", b"b", Colour.RED, Label("l"), {}, [], ()]
WRAPS = {
    "dict": (lambda inner: {"k": inner}, b"\x08\x00\x00\x00\x01\x05\x00\x00\x00\x01k"),
    "list": (lambda inner: [inner], b"\x07\x00\x00\x00\x01"),
    "tuple": (lambda inner: (inner,), b"\x09\x00\x00\x00\x01"),
}


@pytest.mark.parametrize("wrap", sorted(WRAPS))
@pytest.mark.parametrize("leaf", LEAVES, ids=repr)
def test_depth_limit_agrees_at_the_boundary(wrap, leaf):
    build, prefix = WRAPS[wrap]
    value = leaf
    for _ in range(32):
        value = build(value)
    # leaf at depth 32: accepted, identically
    wire = encode_value(value)
    assert wire == oracle.encode_value(value)
    assert outcome(decode_value, wire) == outcome(oracle.decode_value, wire)
    assert outcome(decode_value, wire)[0] == "ok"
    # leaf at depth 33: refused by both encoders and, hand-built, both decoders
    for encode in (encode_value, oracle.encode_value):
        with pytest.raises(CodecError, match="nesting"):
            encode(build(value))
    for decode in (decode_value, oracle.decode_value):
        with pytest.raises(CodecError, match="nesting"):
            decode(prefix + wire)
        with pytest.raises(CodecError, match="nesting"):
            decode(memoryview(prefix + wire))


# -- real control frames, damaged --------------------------------------------


def control_frames():
    token = bytes(range(256)) + b"\x00" * 44
    trace = {"tid": "a" * 16, "sid": "b" * 8}
    messages = [
        ControlMessage(op=Op.PING, sender="proxy.A"),
        ControlMessage(
            op=Op.JOB_SUBMIT, sender="proxy.B", trace=trace, auth=token,
            body={"task": "echo", "params": {"value": "x" * 16, "n": -5}, "user": "u3",
                  "flags": [True, None, 2.5], "ключ": ("t", b"\xff")},
        ),
        ControlMessage(
            op=Op.JOB_RESULT, sender="proxy.C", reply_to=77, trace=trace,
            body={"ok": True, "result": 2**65, "node": "C.n0", "elapsed": 0.0012},
        ),
        ControlMessage(op=Op.ERROR, reply_to=9, body={"error": "boom", "cancelled": True}),
    ]
    return [encode_frame(message.to_frame()) for message in messages]


def parse(wire):
    return ControlMessage.from_frame(decode_frame(wire))


@pytest.mark.parametrize("wire", control_frames(), ids=lambda w: f"{len(w)}B")
def test_truncated_and_corrupted_control_frames_fail_cleanly(wire):
    frame = decode_frame(wire)
    blobs = [wire[16 : len(wire) - len(frame.payload)], frame.payload]
    assert [decode_value(b) for b in blobs] == [frame.headers, decode_value(frame.payload)]
    for cut in range(len(wire)):
        with pytest.raises(FrameError):
            decode_frame(wire[:cut])
    for blob in blobs:
        for cut in range(len(blob)):
            for decode in (decode_value, oracle.decode_value):
                with pytest.raises(CodecError):
                    decode(blob[:cut])
        for position in range(len(blob)):
            for flip in (0x01, 0x08, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[position] ^= flip
                verdict = outcome(decode_value, bytes(damaged))
                assert verdict == outcome(oracle.decode_value, bytes(damaged))
                assert verdict == outcome(decode_value, memoryview(damaged))
    for position in range(len(wire)):
        damaged = bytearray(wire)
        damaged[position] ^= 0xFF
        try:
            parse(bytes(damaged))
        except (FrameError, CodecError, ProtocolError):
            pass  # anything else (IndexError, struct.error, …) fails the test


def test_key_table_stays_bounded():
    for i in range(5000):
        wire = encode_value({f"key-{i}": i})
        assert wire == oracle.encode_value({f"key-{i}": i})
        assert decode_value(wire) == {f"key-{i}": i}
        assert len(frames._KEY_BLOBS) <= 1024
    # a flushed table refills and still answers correctly
    assert decode_value(encode_value({"op": 1, "key-7": 2})) == {"op": 1, "key-7": 2}


def test_subclass_keys_never_enter_the_table():
    before = dict(frames._KEY_BLOBS)
    key = Label("never-seen-subclass-key")
    assert encode_value({key: 1}) == oracle.encode_value({key: 1})
    assert frames._KEY_BLOBS == before
