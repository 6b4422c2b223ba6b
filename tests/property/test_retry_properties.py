"""Property-based tests: retry policy schedules and frame-decoder fuzzing.

The retry properties pin the contract the whole stack leans on — backoff
grows monotonically up to its cap, jitter stays inside its declared
band, and a deadline budget is never overspent.  The decoder properties
feed a frame stream through every split, truncation and corruption a
faulty transport can produce: the decoder must yield the right frames or
raise :class:`FrameError`, never crash and never invent data.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.retry import Deadline, RetryError, RetryPolicy
from repro.transport.errors import TransportError
from repro.transport.frames import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameKind,
    encode_frame,
)

# ---------------------------------------------------------------------------
# RetryPolicy schedules
# ---------------------------------------------------------------------------

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay=st.floats(min_value=0.0, max_value=1.0),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    max_delay=st.floats(min_value=1.0, max_value=10.0),
    jitter=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
)


@settings(max_examples=100, deadline=None)
@given(policies)
def test_nominal_delays_monotone_and_capped(policy):
    delays = list(policy.nominal_delays())
    assert len(delays) == policy.max_attempts - 1
    assert all(d <= policy.max_delay for d in delays)
    assert delays == sorted(delays)
    if delays:
        assert delays[0] == min(policy.base_delay, policy.max_delay)


@settings(max_examples=100, deadline=None)
@given(policies, st.integers(min_value=0, max_value=2**32))
def test_jittered_delays_stay_in_band(policy, seed):
    rng = random.Random(seed)
    for nominal, jittered in zip(policy.nominal_delays(), policy.delays(rng=rng)):
        band = policy.jitter * nominal
        assert nominal - band <= jittered <= nominal + band
        assert jittered >= 0.0


def test_tiny_jitter_does_not_round_out_of_band():
    """A jitter near one ulp: ``nominal * (1 + u)`` rounded past
    ``nominal + jitter * nominal`` on this seed."""
    policy = RetryPolicy(
        max_attempts=4, base_delay=0.21875, multiplier=1.0, max_delay=1.0,
        jitter=4.165923104751504e-16,
    )
    rng = random.Random(11)
    for nominal, jittered in zip(policy.nominal_delays(), policy.delays(rng=rng)):
        band = policy.jitter * nominal
        assert nominal - band <= jittered <= nominal + band


@settings(max_examples=100, deadline=None)
@given(policies, st.integers(min_value=0, max_value=2**32))
def test_jitter_replays_from_seed(policy, seed):
    first = list(policy.delays(rng=random.Random(seed)))
    second = list(policy.delays(rng=random.Random(seed)))
    assert first == second


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_deadline_budget_never_overspent(max_attempts, budget):
    """Simulated clock: the policy stops before sleeping past the deadline."""
    policy = RetryPolicy(
        max_attempts=max_attempts,
        base_delay=0.05,
        multiplier=2.0,
        max_delay=1.0,
        jitter=0.0,
        deadline=budget,
    )
    now = [0.0]

    def clock():
        return now[0]

    def sleep(duration):
        now[0] += duration

    def always_fails(deadline):
        now[0] += 0.01  # each attempt costs a little simulated time
        raise TransportError("injected")

    with pytest.raises(RetryError) as info:
        policy.call(always_fails, clock=clock, sleep=sleep)
    assert now[0] <= budget + 0.01  # never sleeps past the budget
    assert 1 <= info.value.attempts <= max_attempts


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_non_idempotent_runs_exactly_once(max_attempts):
    policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.0, max_delay=0.0)
    calls = []

    def fails(deadline):
        calls.append(1)
        raise TransportError("injected")

    with pytest.raises(RetryError):
        policy.call(fails, idempotent=False, sleep=lambda _: None)
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10))
def test_attempt_count_is_exact(max_attempts, succeed_on):
    policy = RetryPolicy(
        max_attempts=max_attempts, base_delay=0.0, max_delay=0.0, jitter=0.0
    )
    calls = []

    def flaky(deadline):
        calls.append(1)
        if len(calls) <= succeed_on:
            raise TransportError("injected")
        return "done"

    if succeed_on < max_attempts:
        assert policy.call(flaky, sleep=lambda _: None) == "done"
        assert len(calls) == succeed_on + 1
    else:
        with pytest.raises(RetryError) as info:
            policy.call(flaky, sleep=lambda _: None)
        assert len(calls) == max_attempts
        assert info.value.attempts == max_attempts


def test_deadline_clamp_basic():
    now = [0.0]
    deadline = Deadline(2.0, clock=lambda: now[0])
    assert deadline.clamp(5.0) == 2.0
    assert deadline.clamp(1.0) == 1.0
    now[0] = 1.5
    assert abs(deadline.clamp(5.0) - 0.5) < 1e-9
    now[0] = 3.0
    assert deadline.clamp(5.0) == 0.0
    assert deadline.expired()


# ---------------------------------------------------------------------------
# FrameDecoder under hostile byte streams
# ---------------------------------------------------------------------------

frames_strategy = st.lists(
    st.builds(
        Frame,
        kind=st.sampled_from(list(FrameKind)),
        channel=st.integers(min_value=0, max_value=2**16),
        headers=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(min_value=-(2**31), max_value=2**31), st.text(max_size=16)),
            max_size=3,
        ),
        payload=st.binary(max_size=256),
    ),
    min_size=1,
    max_size=5,
)


def drain(decoder):
    out = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            return out
        out.append(frame)


@settings(max_examples=100, deadline=None)
@given(frames_strategy, st.data())
def test_decoder_reassembles_any_split(frames, data):
    """Feeding the stream in arbitrary chunks reproduces every frame."""
    stream = b"".join(encode_frame(f) for f in frames)
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)), max_size=8
            )
        )
    )
    decoder = FrameDecoder()
    got = []
    previous = 0
    for cut in cuts + [len(stream)]:
        decoder.feed(stream[previous:cut])
        got.extend(drain(decoder))
        previous = cut
    assert [(f.kind, f.channel, f.headers, f.payload) for f in got] == [
        (f.kind, f.channel, f.headers, f.payload) for f in frames
    ]
    assert decoder.pending_bytes == 0


@settings(max_examples=150, deadline=None)
@given(frames_strategy, st.data())
def test_decoder_truncation_never_crashes(frames, data):
    """A stream cut anywhere yields only complete frames, then waits."""
    stream = b"".join(encode_frame(f) for f in frames)
    cut = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
    decoder = FrameDecoder()
    decoder.feed(stream[:cut])
    got = drain(decoder)
    # Only fully-encoded frames come out; the tail stays pending.
    assert len(got) <= len(frames)
    for expected, actual in zip(frames, got):
        assert actual.payload == expected.payload
    # next_frame() stays None rather than raising on the incomplete tail.
    assert decoder.next_frame() is None


@settings(max_examples=150, deadline=None)
@given(frames_strategy, st.data())
def test_decoder_corruption_is_contained(frames, data):
    """Flip any byte: the decoder either raises FrameError or yields
    frames — never another exception type — and once it raises, it stays
    poisoned."""
    stream = bytearray(b"".join(encode_frame(f) for f in frames))
    position = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
    stream[position] ^= 0xFF
    decoder = FrameDecoder()
    try:
        decoder.feed(bytes(stream))
        while True:
            frame = decoder.next_frame()
            if frame is None:
                break
            assert isinstance(frame, Frame)  # decoded garbage is still typed
    except FrameError:
        with pytest.raises(FrameError):
            decoder.feed(b"\x00")
        with pytest.raises(FrameError):
            decoder.next_frame()
