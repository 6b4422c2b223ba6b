"""Unit tests for the shared reactor: loops, timers, channels, backpressure."""

import select
import selectors
import socket
import sys
import threading
import time

import pytest

from repro.transport.errors import ChannelBusy, ChannelClosed
from repro.transport.faulty import FaultInjector, FaultPlan, FaultyChannel
from repro.transport.frames import Frame, FrameDecoder, FrameKind, encode_frame
from repro.transport.inproc import channel_pair
from repro.transport.reactor import (
    Reactor,
    ReactorTcpChannel,
    ReactorTcpListener,
    connect_tcp_reactor,
    on_reactor_thread,
)


@pytest.fixture
def reactor():
    r = Reactor(name="test-reactor").start()
    yield r
    r.stop()


def _frame(payload: bytes = b"x", kind=FrameKind.CONTROL) -> Frame:
    return Frame(kind=kind, payload=payload)


def _each(on_frame):
    """A batch callback that hands each frame of the batch to ``on_frame``."""
    return lambda frames: [on_frame(frame) for frame in frames]


def _queued(channel: ReactorTcpChannel) -> tuple:
    """(frames, bytes) in a channel's write queue, read under its lock."""
    with channel._wq_cond:
        return len(channel._wq), channel._wq_bytes


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------


class TestTimers:
    def test_call_later_fires_once(self, reactor):
        fired = threading.Event()
        reactor.call_later(0.01, fired.set)
        assert fired.wait(timeout=2.0)

    def test_call_later_cancel(self, reactor):
        fired = threading.Event()
        handle = reactor.call_later(0.05, fired.set)
        handle.cancel()
        assert not fired.wait(timeout=0.2)

    def test_call_every_is_periodic(self, reactor):
        ticks = []
        done = threading.Event()

        def tick():
            ticks.append(time.monotonic())
            if len(ticks) >= 5:
                done.set()

        handle = reactor.call_every(0.02, tick)
        assert done.wait(timeout=5.0)
        handle.cancel()

    def test_call_every_cancel_stops_firing(self, reactor):
        count = [0]
        handle = reactor.call_every(0.01, lambda: count.__setitem__(0, count[0] + 1))
        deadline = time.monotonic() + 2.0
        while count[0] < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert count[0] >= 2
        handle.cancel()
        settled = count[0]
        time.sleep(0.08)
        # at most one in-flight firing after cancel
        assert count[0] <= settled + 1

    def test_jitter_stays_within_bounds(self, reactor):
        handle = reactor.call_every(1.0, lambda: None, jitter=0.1)
        delays = {handle._next_delay() for _ in range(50)}
        assert all(0.9 <= d <= 1.1 for d in delays)
        assert len(delays) > 1  # actually jittered, not constant

    def test_timer_exception_does_not_kill_loop(self, reactor):
        fired = threading.Event()

        def bad():
            raise RuntimeError("boom")

        reactor.call_later(0.0, bad)
        reactor.call_later(0.02, fired.set)
        assert fired.wait(timeout=2.0)


# ---------------------------------------------------------------------------
# Channel adapters on the loop
# ---------------------------------------------------------------------------


class TestAddChannel:
    def test_inproc_frames_arrive_via_callback(self, reactor):
        a, b = channel_pair("t")
        got = []
        done = threading.Event()

        def on_frame(frame):
            got.append(frame.payload)
            if len(got) == 5:
                done.set()

        reactor.add_channel(b, _each(on_frame))
        for i in range(5):
            a.send(_frame(b"m%d" % i))
        assert done.wait(timeout=2.0)
        assert got == [b"m0", b"m1", b"m2", b"m3", b"m4"]

    def test_frames_buffered_before_registration_are_drained(self, reactor):
        a, b = channel_pair("t")
        for i in range(3):
            a.send(_frame(b"%d" % i))
        got = []
        done = threading.Event()
        reactor.add_channel(
            b, _each(lambda f: (got.append(f.payload), len(got) == 3 and done.set()))
        )
        assert done.wait(timeout=2.0)
        assert got == [b"0", b"1", b"2"]

    def test_on_close_fires_once_when_peer_closes(self, reactor):
        a, b = channel_pair("t")
        closes = []
        closed = threading.Event()
        reactor.add_channel(
            b, lambda fs: None, on_close=lambda ch, exc: (closes.append(exc), closed.set())
        )
        a.close()
        assert closed.wait(timeout=2.0)
        time.sleep(0.05)
        assert len(closes) == 1
        assert isinstance(closes[0], ChannelClosed)

    def test_channel_without_poll_protocol_cannot_be_instantiated(self):
        """poll_recv / set_ready_callback are part of the Channel
        interface: a transport the loop could not poll fails at
        construction, not at add_channel."""
        from repro.transport.channel import Channel

        class BlockingOnly(Channel):
            def send(self, frame):
                pass

            def recv(self, timeout=None):
                raise NotImplementedError

            def close(self):
                pass

            @property
            def closed(self):
                return False

        with pytest.raises(TypeError, match="poll_recv.*set_ready_callback"):
            BlockingOnly(name="blocking-only")

    def test_faulty_channel_drops_on_the_loop(self, reactor):
        """A fault-injected wrapper runs on the loop; dropped frames never
        surface and the rest keep their order."""
        a, b = channel_pair("chaos")
        plan = FaultPlan(drop=0.5, max_faults=None)
        faulty = FaultyChannel(b, FaultInjector(seed=42, plan=plan), on_recv=True)
        # Replay the schedule to know exactly which of the 20 survive.
        oracle = FaultInjector(seed=42, plan=plan)
        expected = [
            b"m%d" % i
            for i in range(20)
            if oracle.decide("recv", i)[0] != "drop"
        ]
        got = []
        done = threading.Event()

        def on_frame(frame):
            got.append(frame.payload)
            if len(got) == len(expected):
                done.set()

        reactor.add_channel(faulty, _each(on_frame))
        for i in range(20):
            a.send(_frame(b"m%d" % i))
        assert done.wait(timeout=5.0)
        assert got == expected

    def test_handler_exception_does_not_stop_delivery(self, reactor):
        """A raising batch callback costs only its own batch: the loop
        lives on and the next batch still arrives."""
        a, b = channel_pair("t")
        got = []
        raised = threading.Event()
        done = threading.Event()

        def on_batch(frames):
            got.extend(frame.payload for frame in frames)
            if frames[-1].payload == b"last":
                done.set()
                return
            raised.set()
            raise RuntimeError("handler fault")

        reactor.add_channel(b, on_batch)
        a.send(_frame(b"bad"))
        assert raised.wait(timeout=2.0)
        a.send(_frame(b"last"))
        assert done.wait(timeout=2.0)
        assert got == [b"bad", b"last"]


# ---------------------------------------------------------------------------
# Reactor TCP transport
# ---------------------------------------------------------------------------


class TestReactorTcp:
    def test_round_trip_via_callbacks(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        client = connect_tcp_reactor(listener.host, listener.port, reactor=reactor)
        server = listener.accept(timeout=5.0)
        try:
            got = []
            done = threading.Event()
            reactor.add_channel(
                server,
                _each(lambda f: (got.append(f.payload), len(got) == 10 and done.set())),
            )
            client.send_many(_frame(b"n%d" % i) for i in range(10))
            assert done.wait(timeout=5.0)
            assert got == [b"n%d" % i for i in range(10)]
        finally:
            client.close()
            server.close()
            listener.close()

    def test_blocking_recv_works_before_registration(self, reactor):
        """The synchronous handshake path: recv blocks without a callback."""
        listener = ReactorTcpListener(reactor=reactor)
        client = connect_tcp_reactor(listener.host, listener.port, reactor=reactor)
        server = listener.accept(timeout=5.0)
        try:
            client.send(_frame(b"hello", kind=FrameKind.HANDSHAKE))
            frame = server.recv(timeout=5.0)
            assert frame.payload == b"hello"
            server.send(_frame(b"olleh", kind=FrameKind.HANDSHAKE))
            assert client.recv(timeout=5.0).payload == b"olleh"
        finally:
            client.close()
            server.close()
            listener.close()

    def test_close_propagates_to_peer(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        client = connect_tcp_reactor(listener.host, listener.port, reactor=reactor)
        server = listener.accept(timeout=5.0)
        listener.close()
        client.close()
        with pytest.raises(ChannelClosed):
            for _ in range(100):
                server.recv(timeout=1.0)
        server.close()


# ---------------------------------------------------------------------------
# Backpressure: bounded write queues made deterministic
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_slow_tcp_peer_raises_channel_busy(self, reactor):
        """A peer that never reads fills the socket buffer, then the
        bounded write queue, then ``send`` fails fast with ChannelBusy."""
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        server = listener.accept(timeout=5.0)
        assert isinstance(server, ReactorTcpChannel)
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        server.max_write_queue = 64 * 1024
        server.send_timeout = 0.2
        payload = b"\x5a" * 4096
        try:
            with pytest.raises(ChannelBusy):
                for _ in range(1000):
                    server.send(_frame(payload))
            # Bounded: the queue never exceeded its cap plus one frame.
            assert _queued(server)[1] <= server.max_write_queue + 5000
            assert not server.closed  # backpressure is not failure
        finally:
            server.close()
            raw.close()
            listener.close()

    def test_send_unblocks_when_peer_drains(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        server = listener.accept(timeout=5.0)
        # A bounded kernel buffer: the write queue fills, not the ~4 MB
        # the kernel would otherwise absorb from inline writes.
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        server.max_write_queue = 32 * 1024
        server.send_timeout = 10.0
        payload = b"\x5a" * 4096
        try:
            # Fill until a send would have to wait.
            while _queued(server)[1] + 5000 <= server.max_write_queue:
                server.send(_frame(payload))

            def drain():
                time.sleep(0.1)
                while True:
                    try:
                        if not raw.recv(65536):
                            return
                    except OSError:
                        return

            drainer = threading.Thread(target=drain, daemon=True)
            drainer.start()
            start = time.monotonic()
            for _ in range(30):
                server.send(_frame(payload))  # blocks, then proceeds
            assert time.monotonic() - start < 8.0
        finally:
            server.close()
            raw.close()
            listener.close()

    def test_frame_queued_while_write_interest_drops_is_flushed(self, reactor):
        """A frame sent while the loop is dropping write interest must
        still reach the peer: nothing may strand it behind an interest
        that will never fire again."""
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        server = listener.accept(timeout=5.0)
        loop = server.reactor_loop
        real_modify = loop.modify_fd

        def modify_with_a_sender_slipping_in(fileobj, events, callback):
            if not events & selectors.EVENT_WRITE:
                server.send(_frame(b"late"))
            real_modify(fileobj, events, callback)

        def arm_then_disarm():
            server._set_write_interest(True)
            loop.modify_fd = modify_with_a_sender_slipping_in
            server._set_write_interest(False)
            loop.modify_fd = real_modify

        try:
            loop.schedule(arm_then_disarm)
            raw.settimeout(5.0)
            assert b"late" in raw.recv(65536)
        finally:
            server.close()
            raw.close()
            listener.close()

    def test_partial_write_accounting_returns_to_zero(self, reactor):
        """Partial writes must not leak queued-byte accounting: once the
        peer drains everything, ``_wq_bytes`` returns to exactly zero and
        later sends see no phantom backpressure."""
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        server = listener.accept(timeout=5.0)
        # Tiny send buffer + large frames force partial sendmsg writes.
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        server.max_write_queue = 1024 * 1024
        server.send_timeout = 5.0
        payload = b"\x5a" * 32768
        stop = threading.Event()

        def drain():
            raw.settimeout(0.2)
            while not stop.is_set():
                try:
                    if not raw.recv(65536):
                        return
                except socket.timeout:
                    continue
                except OSError:
                    return

        drainer = threading.Thread(target=drain, daemon=True)
        try:
            for _ in range(8):
                server.send(_frame(payload))
            drainer.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and _queued(server)[0]:
                time.sleep(0.01)
            assert _queued(server) == (0, 0)
            server.send(_frame(b"still healthy"))  # no phantom ChannelBusy
        finally:
            stop.set()
            server.close()
            raw.close()
            listener.close()

    def test_bounded_inproc_buffer_raises_channel_busy(self):
        a, b = channel_pair("bounded", maxsize=4, send_timeout=0.05)
        for _ in range(4):
            a.send(_frame(b"x"))
        with pytest.raises(ChannelBusy):
            a.send(_frame(b"overflow"))
        # Draining one slot lets the next send through.
        b.recv(timeout=1.0)
        a.send(_frame(b"fits-now"))
        assert b.pending_frames() == 4


# ---------------------------------------------------------------------------
# Batch delivery, burst writes and the one write rule
# ---------------------------------------------------------------------------


class TestBatchDelivery:
    def test_buffered_frames_arrive_as_one_batch(self, reactor):
        """Frames queued before registration drain in a single
        ``on_batch`` call, not five ``on_frame`` calls."""
        a, b = channel_pair("t")
        for i in range(5):
            a.send(_frame(b"m%d" % i))
        batches = []
        done = threading.Event()
        reactor.add_channel(
            b, on_batch=lambda fs: (batches.append(fs), done.set())
        )
        assert done.wait(timeout=2.0)
        assert len(batches) == 1
        assert [f.payload for f in batches[0]] == [b"m0", b"m1", b"m2", b"m3", b"m4"]

    def test_batch_delivered_before_close_notice(self, reactor):
        """A death notice must not eat drained frames: the final batch is
        handed over before ``on_close`` fires."""
        a, b = channel_pair("t")
        for i in range(3):
            a.send(_frame(b"%d" % i))
        a.close()
        order = []
        closed = threading.Event()
        reactor.add_channel(
            b,
            on_batch=lambda fs: order.append(("batch", len(fs))),
            on_close=lambda ch, exc: (order.append(("close", type(exc))), closed.set()),
        )
        assert closed.wait(timeout=2.0)
        assert order == [("batch", 3), ("close", ChannelClosed)]

    def test_add_channel_requires_a_callback(self, reactor):
        a, b = channel_pair("t")
        with pytest.raises(TypeError):
            reactor.add_channel(b)

    def test_tcp_round_trip_via_batch(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        client = ReactorTcpChannel(
            socket.create_connection((listener.host, listener.port)),
            reactor=reactor,
        )
        server = listener.accept(timeout=5.0)
        got = []
        done = threading.Event()
        # Zero-copy delivery hands out memoryview payloads valid only for
        # the duration of the batch: copy before retaining.
        reactor.add_channel(
            server,
            on_batch=lambda fs: (
                got.extend(bytes(f.payload) for f in fs),
                len(got) >= 4 and done.set(),
            ),
        )
        try:
            client.send_many([_frame(b"b%d" % i) for i in range(4)])
            assert done.wait(timeout=5.0)
            assert sorted(got) == [b"b0", b"b1", b"b2", b"b3"]
        finally:
            client.close()
            server.close()
            listener.close()


class TestWriteCoalescing:
    def test_send_many_burst_rejects_eagerly_without_partial_queue(self, reactor):
        """Satellite regression: under a full write queue a burst must
        raise ChannelBusy *before* queuing anything — a partial batch
        left behind would be sent later, violating all-or-nothing."""
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        server = listener.accept(timeout=5.0)
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        server.max_write_queue = 64 * 1024
        server.send_timeout = 0.2
        payload = b"\x5a" * 4096
        try:
            with pytest.raises(ChannelBusy):
                for _ in range(1000):
                    server.send(_frame(payload))
            time.sleep(0.3)  # let in-flight flushes settle against the full peer
            before = _queued(server)
            with pytest.raises(ChannelBusy):
                server.send_many([_frame(payload) for _ in range(8)])
            # All-or-nothing: the rejected burst left no partial batch.
            assert _queued(server) == before
            assert not server.closed
        finally:
            server.close()
            raw.close()
            listener.close()


def _read_frames(raw: socket.socket, count: int, timeout: float = 20.0) -> list:
    """Decode ``count`` frames off a plain socket (the peer's view)."""
    decoder = FrameDecoder()
    frames: list = []
    raw.settimeout(timeout)
    while len(frames) < count:
        chunk = raw.recv(65536)
        assert chunk, f"peer closed after {len(frames)} of {count} frames"
        decoder.feed(chunk)
        frames.extend(decoder)
    return frames


class TestInlineWrite:
    """The write rule: a sender that finds the queue empty writes itself;
    only a refused tail waits for the owning loop, which finishes it."""

    def test_idle_send_from_another_thread_schedules_nothing(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        server = listener.accept(timeout=5.0)
        loop = server.reactor_loop
        scheduled = []
        real_schedule = loop.schedule
        try:
            loop.schedule = lambda fn: (scheduled.append(fn), real_schedule(fn))
            for i in range(50):
                server.send(_frame(b"idle-%d" % i))
            got = [f.payload for f in _read_frames(raw, 50)]
            assert got == [b"idle-%d" % i for i in range(50)]
            assert scheduled == []
        finally:
            loop.schedule = real_schedule
            server.close()
            raw.close()
            listener.close()

    def test_concurrent_senders_never_interleave_or_reorder(self, reactor):
        """A small kernel buffer makes inline writes partial, so tails,
        appends behind them and loop flushes all interleave in time —
        but never on the wire."""
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        server = listener.accept(timeout=5.0)
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        senders, per_sender, filler = 4, 40, 12 * 1024
        together = threading.Barrier(senders)
        errors = []

        def payload(t: int, i: int) -> bytes:
            return b"%d:%d:" % (t, i) + bytes([(t * per_sender + i) % 256]) * filler

        def sender(t: int) -> None:
            try:
                together.wait(timeout=10.0)
                for i in range(per_sender):
                    server.send(_frame(payload(t, i)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        workers = [threading.Thread(target=sender, args=(t,)) for t in range(senders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt senders mid-write
        try:
            for w in workers:
                w.start()
            frames = _read_frames(raw, senders * per_sender)
            for w in workers:
                w.join(timeout=10.0)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
            server.close()
            raw.close()
            listener.close()
        assert not errors
        seen = {t: [] for t in range(senders)}
        for frame in frames:
            t, i, _ = bytes(frame.payload).split(b":", 2)
            assert frame.payload == payload(int(t), int(i))  # intact
            seen[int(t)].append(int(i))
        assert seen == {t: list(range(per_sender)) for t in range(senders)}

    def test_close_after_partial_inline_write_gets_the_final_flush(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        raw = socket.create_connection((listener.host, listener.port))
        server = listener.accept(timeout=5.0)
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        # Hold the loop so only close() — not write interest — can
        # finish the tail the kernel refused.
        held, release = threading.Event(), threading.Event()
        server.reactor_loop.schedule(lambda: (held.set(), release.wait(10.0)))
        try:
            assert held.wait(timeout=5.0)
            frame = _frame(bytes(range(256)) * 4096)  # 1 MiB
            wire = encode_frame(frame)
            server.send(frame)
            written = len(wire) - _queued(server)[1]
            assert 0 < written < len(wire)  # inline, and partial
            server.close()
            raw.settimeout(10.0)
            got = b""
            while len(got) < written:
                got += raw.recv(written - len(got))
            release.set()
            while chunk := raw.recv(65536):
                got += chunk
            assert len(got) > written  # the close flush wrote more of the tail
            assert got == wire[: len(got)]
        finally:
            release.set()
            raw.close()
            listener.close()


# ---------------------------------------------------------------------------
# Lifecycle and loop-thread detection
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_restart_after_stop_runs_timers(self):
        """A stopped reactor must not silently drop work handed to dead
        loops: the next use restarts with fresh loops."""
        r = Reactor(name="restart-test").start()
        r.stop()
        fired = threading.Event()
        r.call_later(0.0, fired.set)  # the loop restarts transparently
        assert fired.wait(timeout=5.0)
        r.stop()

    def test_on_reactor_thread_detection(self, reactor):
        assert on_reactor_thread() is False  # the test runner's thread
        result = {}
        done = threading.Event()

        def probe():
            result["on_loop"] = on_reactor_thread()
            done.set()

        reactor.loop.schedule(probe)
        assert done.wait(timeout=5.0)
        assert result["on_loop"] is True


# ---------------------------------------------------------------------------
# The wake gate: at most one byte in flight, none from the loop itself
# ---------------------------------------------------------------------------


class _CountingSender:
    """Stands in for a loop's ``_wake_send`` socket; counts the bytes written."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0

    def send(self, data):
        self.sent += len(data)
        return self._sock.send(data)

    def close(self):
        self._sock.close()


def _count_wakes(reactor):
    loop = reactor.loop
    loop._wake_send = _CountingSender(loop._wake_send)
    return loop, loop._wake_send


def _at_rest(loop) -> bool:
    readable, _, _ = select.select([loop._wake_recv], [], [], 0)
    return not loop._wake_sent and not readable


class TestWakeGate:
    def test_concurrent_schedules_all_run_in_order_and_gate_rests_open(self, reactor):
        """The stranded-flag regression: if ``_on_wake`` re-opened the gate
        before its read, a second waker's byte could be swallowed by the
        same ``recv`` and the flag would stay set over an empty pipe — the
        loop then sleeps on pending callbacks and this never completes."""
        loop = reactor.loop
        threads, per_thread = 8, 2000
        seen = [[] for _ in range(threads)]
        remaining = [threads * per_thread]
        done = threading.Event()

        def record(t, i):
            seen[t].append(i)
            if i % 500 == 0:
                time.sleep(0.001)  # a busy loop: wakers pile up behind it
            remaining[0] -= 1  # loop thread only
            if not remaining[0]:
                done.set()

        together = threading.Barrier(threads)

        def producer(t):
            for i in range(per_thread):
                if i % 4 == 0:
                    # The loop drains and goes idle while the producers
                    # regroup, then all eight wake it at once: one byte
                    # is being read while the other seven race the gate.
                    together.wait(timeout=30.0)
                loop.schedule(lambda t=t, i=i: record(t, i))

        workers = [threading.Thread(target=producer, args=(t,)) for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt inside the few-bytecode windows
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
                assert not w.is_alive()
            assert done.wait(timeout=30.0), f"{remaining[0]} callbacks stranded"
        finally:
            sys.setswitchinterval(interval)
        assert seen == [list(range(per_thread))] * threads
        deadline = time.monotonic() + 5.0
        while not _at_rest(loop) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _at_rest(loop)

    def test_loop_callbacks_write_no_wake_bytes(self, reactor):
        loop, sender = _count_wakes(reactor)
        ran = [0]
        done = threading.Event()

        def inner():
            ran[0] += 1
            if ran[0] == 200:
                done.set()

        def outer():
            for _ in range(100):
                loop.schedule(inner)
                loop.call_later(0.0, inner)

        loop.schedule(outer)  # the only off-loop call
        assert done.wait(timeout=5.0)
        assert sender.sent == 1

    def test_echo_writes_at_most_one_wake_byte_per_off_loop_send(self, reactor):
        listener = ReactorTcpListener(reactor=reactor)
        client = connect_tcp_reactor(listener.host, listener.port, reactor=reactor)
        server = listener.accept(timeout=5.0)
        try:
            reactor.add_channel(server, server.send_many)  # echo, on the loop
            client.send(_frame(b"warm"))
            assert client.recv(timeout=5.0).payload == b"warm"
            _, sender = _count_wakes(reactor)
            rounds = 200
            for i in range(rounds):
                client.send(_frame(b"n%d" % i))
                assert client.recv(timeout=5.0).payload == b"n%d" % i
            assert sender.sent <= rounds
        finally:
            client.close()
            server.close()
            listener.close()


# ---------------------------------------------------------------------------
# Thread budget
# ---------------------------------------------------------------------------


class TestThreadBudget:
    def test_many_channels_one_loop_thread(self, reactor):
        """50 registered channels must not add 50 threads: that is the
        whole point of the migration."""
        before = threading.active_count()
        pairs = [channel_pair(f"p{i}") for i in range(50)]
        seen = [0]
        done = threading.Event()
        lock = threading.Lock()

        def on_frame(frame):
            with lock:
                seen[0] += 1
                if seen[0] == 50:
                    done.set()

        for a, b in pairs:
            reactor.add_channel(b, _each(on_frame))
        assert threading.active_count() <= before + 1
        for a, _ in pairs:
            a.send(_frame(b"ping"))
        assert done.wait(timeout=5.0)
        for a, b in pairs:
            a.close()
