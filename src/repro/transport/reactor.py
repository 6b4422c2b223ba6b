"""Shared reactor I/O: a selectors-based event loop for the whole stack.

The seed runtime spent one thread per TCP connection (socket reader)
plus one per :class:`~repro.core.tunnel.Tunnel` (receive loop), so a
proxy serving N tunnels burned O(N) threads and its time
context-switching.  This module replaced that: one event-loop thread
owns every socket, and all higher layers register *callbacks* instead
of spawning threads.

Two pieces live here, plus :func:`get_global_reactor`, which hands out
the shared process-wide reactor:

* :class:`Reactor` — one event-loop thread with a ``selectors``
  selector, a gated socketpair for cross-thread wakeups (at most one
  byte in flight, none from the loop itself), and a timer heap
  (one-shot :meth:`call_later` and jittered periodic :meth:`call_every`
  — heartbeats and deadline expiry ride these).  Channels of *any*
  transport join via :meth:`add_channel`, which drives the uniform
  ``poll_recv``/``set_ready_callback`` protocol declared on
  :class:`~repro.transport.channel.Channel`; in-process and
  fault-injected channels therefore run on the loop unchanged.  Each
  wakeup hands a channel's whole decoded backlog to its one delivery
  callback as a list.
* :class:`ReactorTcpChannel` — a non-blocking TCP channel owned by a
  loop: the loop reads and feeds the frame decoder; a sender writes its
  own frames with one vectored ``sendmsg`` while nothing is queued, and
  only the tail the kernel refuses waits in a **bounded per-channel
  write queue** that the loop finishes.  When a slow peer fills the queue,
  ``send`` blocks up to ``send_timeout`` and then raises
  :class:`~repro.transport.errors.ChannelBusy` — bounded memory,
  deterministic backpressure.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.obs import racesan
from repro.obs.metrics import get_global_registry
from repro.transport.channel import Channel
from repro.transport.errors import (
    ChannelBusy,
    ChannelClosed,
    FrameError,
    TransportTimeout,
)
from repro.transport.frames import Frame, FrameDecoder, encode_frame_views
from repro.transport.tcp import TcpListener, _set_nodelay, connect_tcp

__all__ = [
    "Reactor",
    "ReactorTcpChannel",
    "ReactorTcpListener",
    "TimerHandle",
    "connect_tcp_reactor",
    "current_owner",
    "get_global_reactor",
    "io_mode",
    "on_reactor_thread",
    "reset_global_reactor",
]

_RECV_CHUNK = 64 * 1024
#: iovec entries per ``sendmsg`` (Linux ``IOV_MAX``)
_IOV_MAX = 1024
_EOF = object()
#: frames delivered per drain pass before yielding to other channels
_DRAIN_BATCH = 128
_timer_seq = itertools.count()
#: idents of every live event-loop thread, across all reactors
_loop_thread_idents: set = set()
#: ident -> loop name for those same threads (the racesan ownership token)
_loop_owner_names: dict = {}


def on_reactor_thread() -> bool:
    """True when the calling thread is any reactor event-loop thread.

    Senders must never *block* on a loop thread — a blocked loop cannot
    flush the very queue the sender is waiting on (nor any other channel
    it owns).  Backpressure paths use this to fail fast instead.
    """
    return threading.get_ident() in _loop_thread_idents


def current_owner() -> Optional[str]:
    """The reactor-ownership token for the calling thread, or ``None``.

    Loop-confined state (decoder buffers, write queues between flushes)
    is synchronized by loop ownership rather than by a mutex; the race
    sanitizer treats this token — ``"loop:<name>"`` — as a pseudo-lock
    held for the entire life of the loop thread, so accesses serialized
    on one loop never look unlocked to the lockset refinement.
    """
    name = _loop_owner_names.get(threading.get_ident())
    return None if name is None else f"loop:{name}"


# racesan cannot import this module (obs must stay transport-free), so
# the ownership hook is pushed to it from here at import time.
racesan.set_owner_resolver(current_owner)


def io_mode() -> str:
    # benchmarks/e2e/harness.py records this as provenance; ROADMAP item 1 deletes it.
    return "reactor"


class TimerHandle:
    """Cancellation handle for a scheduled (possibly periodic) callback."""

    __slots__ = ("interval", "jitter", "callback", "_cancelled", "_loop")

    def __init__(self, callback, interval: Optional[float], jitter: float, loop):
        self.callback = callback
        self.interval = interval
        self.jitter = jitter
        self._cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _next_delay(self) -> float:
        """Period until the next firing, jittered ±``jitter``·interval.

        Jitter decorrelates periodic work (every proxy heartbeating at
        the same instant is a thundering herd); the bound keeps the
        failure detector's timing assumptions valid.
        """
        assert self.interval is not None
        if not self.jitter:
            return self.interval
        spread = self.interval * self.jitter
        return max(0.0, self.interval + random.uniform(-spread, spread))


class _Registration:
    """One channel's membership on a loop: ready-flag + drain bookkeeping."""

    __slots__ = ("channel", "on_batch", "on_close", "_loop",
                 "_lock", "_scheduled", "_closed")

    def __init__(self, channel: Channel, on_batch, on_close, loop: "_Loop"):
        self.channel = channel
        self.on_batch = on_batch
        self.on_close = on_close
        self._loop = loop
        self._lock = threading.Lock()
        self._scheduled = False
        self._closed = False

    # -- producer side (any thread) ------------------------------------

    def ready(self) -> None:
        with self._lock:
            if self._scheduled or self._closed:
                return
            self._scheduled = True
        self._loop.schedule(self._drain)

    # -- loop side -------------------------------------------------------

    def _drain(self) -> None:
        """Collect the whole decoder backlog, deliver it as one batch.

        One loop wakeup → one ``on_batch(frames)`` call → one dispatch
        pass downstream, so per-frame scheduling overhead (ready-flag
        churn, handler indirection, reply syscalls) is paid per burst.
        Frames already drained are always delivered before a terminal
        condition is surfaced — a death notice must not eat data.
        """
        with self._lock:
            self._scheduled = False
            if self._closed:
                return
        batch: list = []
        error: Optional[Exception] = None
        for _ in range(_DRAIN_BATCH):
            try:
                frame = self.channel.poll_recv()
            except Exception as exc:  # ChannelClosed, FrameError, record MAC…
                error = exc
                break
            if frame is None:
                break
            batch.append(frame)
        if batch:
            try:
                self.on_batch(batch)
            except Exception:
                pass  # a faulty consumer must not kill the shared loop
        if error is not None:
            self._finish(error)
        elif len(batch) == _DRAIN_BATCH:
            self.ready()  # backlog may run deeper: yield, then continue

    def _finish(self, exc: Exception) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.channel.set_ready_callback(None)
        except Exception:
            pass
        if self.on_close is not None:
            try:
                self.on_close(self.channel, exc)
            except Exception:
                pass

    def unregister(self) -> None:
        """Detach without firing ``on_close`` (the owner is closing)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.channel.set_ready_callback(None)
        except Exception:
            pass


class _Loop:
    """One event-loop thread: selector + wake pair + pending queue + timers.

    Wake protocol (DESIGN §9): the loop never wakes itself, other threads
    keep at most one byte in flight (``_wake_sent``), and the gate
    re-opens after ``_on_wake``'s read, before that pass drains the queue.
    """

    def __init__(self, name: str):
        self.name = name
        self._selector = selectors.DefaultSelector()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, self._on_wake)
        self._pending: deque = deque()
        self._pending_lock = threading.Lock()
        self._wake_sent = False  # a wake byte is in flight (under _pending_lock)
        self._timers: list = []  # heap of (deadline, seq, handle)
        self._timer_lock = threading.Lock()
        self._running = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.thread_ident: Optional[int] = None
        # Shared-infrastructure instruments (the reactor belongs to the
        # process, not to any one proxy): timer lag is the loop-health
        # signal — how late the loop gets to work it promised to run.
        metrics = get_global_registry()
        self._m_timer_lag = metrics.histogram("reactor.timer_lag_s")
        self._m_callbacks = metrics.counter("reactor.callbacks")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._running.set()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=self.name
        )
        self._thread.start()

    def stop(self) -> None:
        self._running.clear()
        self.wake()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self.thread_ident

    @property
    def defunct(self) -> bool:
        """True once the loop has been told to stop: it drops new work."""
        return self._thread is not None and not self._running.is_set()

    # -- cross-thread entry points --------------------------------------

    def wake(self) -> None:
        """Make the loop re-read its queue and timers; at most one byte in flight."""
        if self.on_loop_thread():
            return  # _run re-reads both before it blocks again
        with self._pending_lock:
            if self._wake_sent:
                return  # that byte's _on_wake precedes the next _run_pending
            self._wake_sent = True
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass  # loop already stopped and closed the pair

    def schedule(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread at the next iteration."""
        with self._pending_lock:
            self._pending.append(fn)
        self.wake()

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(fn, interval=None, jitter=0.0, loop=self)
        self._push_timer(max(0.0, delay), handle)
        return handle

    def call_every(
        self, interval: float, fn: Callable[[], None], jitter: float = 0.0
    ) -> TimerHandle:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        handle = TimerHandle(fn, interval=interval, jitter=jitter, loop=self)
        self._push_timer(handle._next_delay(), handle)
        return handle

    def _push_timer(self, delay: float, handle: TimerHandle) -> None:
        deadline = time.monotonic() + delay
        with self._timer_lock:
            heapq.heappush(self._timers, (deadline, next(_timer_seq), handle))
        self.wake()

    # -- fd management (loop thread only; use schedule() from outside) ---

    def register_fd(self, fileobj, events: int, callback) -> None:
        self._selector.register(fileobj, events, callback)

    def modify_fd(self, fileobj, events: int, callback) -> None:
        self._selector.modify(fileobj, events, callback)

    def unregister_fd(self, fileobj) -> None:
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):
            pass

    # -- the loop --------------------------------------------------------

    def _on_wake(self, mask: int) -> None:
        try:
            self._wake_recv.recv(64)  # gridlint: disable=GL101 -- wake pair is non-blocking; an empty read raises BlockingIOError
        except (BlockingIOError, OSError):
            pass
        # Only after the read: cleared first, a second waker's byte could
        # land in the same recv, leaving the flag set over an empty pipe.
        with self._pending_lock:
            self._wake_sent = False

    def _next_timeout(self) -> Optional[float]:
        with self._pending_lock:
            if self._pending:
                return 0.0
        with self._timer_lock:
            if not self._timers:
                return None
            return max(0.0, self._timers[0][0] - time.monotonic())

    def _run(self) -> None:
        self.thread_ident = threading.get_ident()
        _loop_thread_idents.add(self.thread_ident)
        _loop_owner_names[self.thread_ident] = self.name
        try:
            while self._running.is_set():
                timeout = self._next_timeout()
                try:
                    events = self._selector.select(timeout)
                except OSError:
                    events = []
                if events:
                    self._m_callbacks.inc(len(events))
                for key, mask in events:
                    try:
                        key.data(mask)
                    except Exception:
                        pass  # one channel's fault must not kill the loop
                self._run_due_timers()
                self._run_pending()
            # Drain once more so close/unregister tasks queued during stop run.
            self._run_pending()
        finally:
            _loop_thread_idents.discard(self.thread_ident)
            _loop_owner_names.pop(self.thread_ident, None)
            self._selector.close()
            self._wake_recv.close()
            self._wake_send.close()

    def _run_pending(self) -> None:
        while True:
            with self._pending_lock:
                if not self._pending:
                    return
                fn = self._pending.popleft()
            try:
                fn()
            except Exception:
                pass

    def _run_due_timers(self) -> None:
        now = time.monotonic()
        due: list[TimerHandle] = []
        with self._timer_lock:
            while self._timers and self._timers[0][0] <= now:
                deadline, _, handle = heapq.heappop(self._timers)
                if not handle.cancelled:
                    # Loop lag: how far past its deadline the loop got to
                    # this timer.  A busy loop (slow handler, storming
                    # channel) shows up here before anything else.
                    self._m_timer_lag.observe(now - deadline)
                    due.append(handle)
        for handle in due:
            try:
                handle.callback()
            except Exception:
                pass
            if handle.interval is not None and not handle.cancelled:
                self._push_timer(handle._next_delay(), handle)


class Reactor:
    """One event loop serving any number of channels and timers.

    One reactor serves every proxy and tunnel in a process: one thread,
    not one per connection, which is the whole point.  With the GIL a
    second loop would only help when I/O itself saturates a core.
    """

    def __init__(self, name: str = "reactor"):
        self.name = name
        self._loop = _Loop(f"{name}-loop")
        self._started = False
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Reactor":
        with self._lock:
            if not self._started:
                # A stopped loop's thread is gone and its selector closed;
                # restarting the reactor must hand out a live loop, not
                # silently drop work on the dead one.
                if self._loop.defunct:
                    self._loop = _Loop(self._loop.name)
                self._loop.start()
                self._started = True
        return self

    def stop(self, join: bool = True) -> None:
        with self._lock:
            self._started = False
            loop = self._loop
        loop.stop()
        if join:
            loop.join(timeout=5.0)

    @property
    def loop(self) -> _Loop:
        """The event loop, restarted first if the reactor was stopped."""
        return self.start()._loop

    @staticmethod
    def current_owner() -> Optional[str]:
        """Hook form of :func:`current_owner` (racesan's resolver)."""
        return current_owner()

    # -- timers ----------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        return self.loop.call_later(delay, fn)

    def call_every(
        self, interval: float, fn: Callable[[], None], jitter: float = 0.0
    ) -> TimerHandle:
        """Periodic callback every ``interval`` seconds, jittered ±10% by
        default conventions of the callers (pass ``jitter`` explicitly)."""
        return self.loop.call_every(interval, fn, jitter=jitter)

    # -- channels --------------------------------------------------------

    def add_channel(
        self,
        channel: Channel,
        on_batch: Callable[[list], None],
        on_close: Optional[Callable[[Channel, Exception], None]] = None,
    ) -> _Registration:
        """Drive ``channel`` from the loop: every backlog → ``on_batch``.

        Works for any :class:`Channel` (``poll_recv``/``set_ready_callback``
        are part of the interface) — reactor TCP, in-process pairs,
        fault-injected wrappers, and secure channels layered over any of
        them.  Each loop wakeup drains the channel's decoded backlog (up
        to an internal cap) and hands it to ``on_batch(frames)`` as one
        list, letting the consumer dispatch and reply in bulk.  A raising
        ``on_batch`` loses nothing but the rest of its own call; keeping
        one frame's fault away from the frames beside it is the
        consumer's job.  ``on_close(channel, exc)`` fires once, after the
        last batch, when the channel dies (peer gone, framing error,
        record MAC failure).
        """
        registration = _Registration(channel, on_batch, on_close, self.loop)
        channel.set_ready_callback(registration.ready)
        registration.ready()  # drain anything buffered before we attached
        return registration


# ---------------------------------------------------------------------------
# Reactor-native TCP transport
# ---------------------------------------------------------------------------


def _advance(views: list, n: int) -> list:
    """The iovec list ``views`` without its first ``n`` bytes."""
    for i, view in enumerate(views):
        if n < len(view):
            return [memoryview(view)[n:], *views[i + 1:]]
        n -= len(view)
    return []


@racesan.shared_state
class ReactorTcpChannel(Channel):
    """A frame channel over one non-blocking TCP socket owned by a loop.

    Inbound is the **zero-copy receive path**: the loop only
    ``recv_into``'s the decoder's reassembly buffer (kernel→buffer is the
    sole copy) and notifies consumers; frames are decoded lazily at
    :meth:`poll_recv` / :meth:`recv` time.  ``poll_recv`` on the owning
    loop thread returns frames whose payload is a memoryview into the
    decoder buffer — valid until the loop's next read, which is safe
    because reads and loop-side consumption are the same thread and
    layered consumers (the record cipher) open each frame before the
    drain continues.  Cross-thread blocking ``recv`` always copies.

    Outbound has **one write rule**: frames are encoded to iovec views,
    and a sender — loop thread or not — that finds the write queue empty
    writes them itself with one vectored ``sendmsg`` (a ``send_many``
    burst shares the syscall).  Only the tail the kernel refuses is
    queued, with write interest armed on the owning loop; senders that
    arrive behind a tail append to it, and the loop finishes the tail —
    it never makes a write a sender could have made.  The queue is
    bounded (``max_write_queue`` bytes): a full queue blocks ``send`` up
    to ``send_timeout`` seconds, then raises :class:`ChannelBusy`; on
    the loop thread itself ``send`` never blocks — it raises immediately
    so a handler can't deadlock its own loop.  Backpressure is checked
    eagerly, *before* anything is queued: a ``send_many`` burst that
    doesn't fit leaves no partial batch behind.
    """

    def __init__(
        self,
        sock: socket.socket,
        reactor: Optional[Reactor] = None,
        name: str = "rtcp",
        max_write_queue: int = 4 * 1024 * 1024,
        send_timeout: Optional[float] = 10.0,
    ):
        super().__init__(name=name)
        reactor = reactor or get_global_reactor()
        self._sock = sock
        _set_nodelay(sock)
        self._sock.setblocking(False)
        self.reactor_loop = reactor.loop
        self.max_write_queue = max_write_queue
        self.send_timeout = send_timeout
        # inbound: raw bytes land in the decoder on the loop thread;
        # decode happens at consumption time under _rx_cond.
        self._decoder = FrameDecoder()
        self._rx_cond = threading.Condition()
        self._rx_eof = False
        self._rx_error: Optional[Exception] = None
        self._ready_cb: Optional[Callable[[], None]] = None
        # outbound
        self._wq: deque = deque()  # (views, frame_size)
        self._wq_bytes = 0
        self._wq_cond = threading.Condition()
        # Process-level backlog gauge: the sum of every channel's pending
        # write bytes.  A rising value means peers are not keeping up.
        self._m_wq_gauge = get_global_registry().gauge("reactor.write_queue_bytes")
        self._closed = threading.Event()
        self.reactor_loop.schedule(self._register_read)

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- loop side: reads ------------------------------------------------

    def _register_read(self) -> None:
        if self._closed.is_set():
            return
        try:
            self.reactor_loop.register_fd(
                self._sock, selectors.EVENT_READ, self._on_io
            )
        except (OSError, ValueError, KeyError):
            self._mark_eof()

    def _on_io(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush_on_loop()
        if mask & selectors.EVENT_READ:
            self._on_readable()

    def _on_readable(self) -> None:
        with self._rx_cond:
            try:
                n = self._decoder.feed_into(self._sock.recv_into, _RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                return
            except (OSError, FrameError):
                # OSError: socket died under us.  FrameError: the decoder
                # was poisoned by a consumer-side decode; either way the
                # stream is over.
                n = 0
            if n:
                self._rx_cond.notify_all()
            else:
                self._rx_eof = True
                self._rx_cond.notify_all()
            # Read under _rx_cond (its publication lock); call outside —
            # the callback re-enters poll_recv, which takes _rx_cond.
            cb = self._ready_cb
        if not n:
            self.reactor_loop.unregister_fd(self._sock)
        if cb is not None:
            cb()

    def _mark_eof(self) -> None:
        with self._rx_cond:
            self._rx_eof = True
            self._rx_cond.notify_all()
            cb = self._ready_cb
        if cb is not None:
            cb()

    # -- consumer side: blocking recv + reactor protocol ------------------

    def recv(self, timeout: Optional[float] = None) -> Frame:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._rx_cond:
            while True:
                frame = self._try_decode()
                if frame is not None:
                    return frame
                if self._rx_error is not None or self._rx_eof:
                    self._raise_terminal()
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TransportTimeout(f"{self.name}: recv timed out")
                self._rx_cond.wait(timeout=remaining)

    def poll_recv(self) -> Optional[Frame]:
        with self._rx_cond:
            frame = self._try_decode()
            if frame is not None:
                return frame
            if self._rx_error is not None or self._rx_eof:
                self._raise_terminal()
            return None

    def _try_decode(self) -> Optional[Frame]:
        """Decode the next buffered frame; caller holds ``_rx_cond``.

        Zero-copy (memoryview payload) only on the owning loop thread,
        where decode is serialised with the loop's own reads; any other
        thread gets a copying decode, immune to later buffer reuse.
        """
        if self._rx_error is not None:
            return None
        zero = self.reactor_loop.on_loop_thread()
        try:
            frame = (
                self._decoder.next_frame_view()
                if zero
                else self._decoder.next_frame()
            )
        except FrameError as exc:
            self._rx_error = exc
            self.reactor_loop.schedule(self._detach_read)
            return None
        if frame is not None:
            self.stats.on_receive(self._decoder.last_frame_wire_size)
        return frame

    def _raise_terminal(self):
        # Caller holds _rx_cond; decoder is drained.
        if self._rx_error is not None:
            exc, self._rx_error = self._rx_error, None
            self._rx_eof = True  # later recvs see a closed channel
            raise exc
        raise ChannelClosed(f"{self.name}: connection closed")

    def _detach_read(self) -> None:
        self.reactor_loop.unregister_fd(self._sock)

    def set_ready_callback(self, callback) -> None:
        # Registration thread publishes; the loop thread reads in
        # _on_readable/_mark_eof.  _rx_cond is the publication lock —
        # add_channel's immediate ready() drain covers frames that
        # landed before the callback became visible.
        with self._rx_cond:
            self._ready_cb = callback

    # -- writes -----------------------------------------------------------

    def send(self, frame: Frame) -> None:
        self._enqueue([encode_frame_views(frame)])

    def send_many(self, frames: Iterable[Frame]) -> None:
        batch = [encode_frame_views(frame) for frame in frames]
        if batch:
            self._enqueue(batch)

    def _enqueue(self, frame_views: list) -> None:
        sizes = [sum(map(len, views)) for views in frame_views]
        need = sum(sizes)
        # Any loop thread — not just our own — must fail fast rather than
        # wait: blocking loop A on loop B's queue stalls all of A's channels.
        on_loop = on_reactor_thread()
        deadline = (
            None if self.send_timeout is None
            else time.monotonic() + self.send_timeout
        )
        with self._wq_cond:
            if self._closed.is_set():
                raise ChannelClosed(f"{self.name}: send on closed channel")
            while (
                self._wq_bytes and self._wq_bytes + need > self.max_write_queue
            ):
                if on_loop:
                    raise ChannelBusy(
                        f"{self.name}: write queue full "
                        f"({self._wq_bytes}B) on loop thread"
                    )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ChannelBusy(
                        f"{self.name}: write queue full ({self._wq_bytes}B) "
                        f"for {self.send_timeout}s"
                    )
                self._wq_cond.wait(timeout=remaining)
                if self._closed.is_set():
                    raise ChannelClosed(f"{self.name}: send on closed channel")
            # The write rule: an empty queue means no tail waits on the
            # loop, so this sender writes its frames itself; behind a
            # tail it only appends, and the loop's flush keeps the order.
            before = self._wq_bytes
            for views, size in zip(frame_views, sizes):
                self._wq.append((views, size))
                self.stats.on_send(size)
            self._wq_bytes += need
            error = None if before else self._write_locked()
            if self._wq_bytes != before:
                self._m_wq_gauge.add(self._wq_bytes - before)
            tail = not before and bool(self._wq)
        if error is not None:
            self.close()
        elif tail:
            # Selector mutation is loop-affine: the owning loop arms
            # write interest and finishes what the kernel refused.
            self.reactor_loop.schedule(
                functools.partial(self._set_write_interest, True)
            )

    def _write_locked(self) -> Optional[OSError]:
        """Hand the queue to the kernel until it is empty or refused.

        The only ``sendmsg`` on this socket.  Lock discipline: the caller
        holds ``_wq_cond`` — an inline sender on any thread, or the owning
        loop finishing a tail — so two writers never interleave the bytes
        of their frames, and the queue is trimmed in the same critical
        section that wrote it.  The socket is non-blocking, so the lock
        is held across a copy into the kernel, never across a wait.
        Returns the error that ended the stream, if one did.
        """
        wq = self._wq
        try:
            while wq:
                views: list = []
                offered = 0
                for frame_views, size in wq:
                    if len(views) + len(frame_views) > _IOV_MAX:
                        break
                    views += frame_views
                    offered += size
                sent = self._sock.sendmsg(views)
                self._wq_bytes -= sent
                refused = sent < offered
                while sent:
                    frame_views, size = wq[0]
                    if sent < size:
                        wq[0] = (_advance(frame_views, sent), size - sent)
                        break
                    wq.popleft()
                    sent -= size
                if refused:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError as exc:
            return exc
        return None

    def _flush_on_loop(self, closing: bool = False) -> None:
        """Finish the tail the kernel refused a sender: the owning loop's
        ``EVENT_WRITE`` handler, and ``_close_on_loop``'s one final pass."""
        with self._wq_cond:
            if self._closed.is_set() and not closing:
                return
            before = self._wq_bytes
            error = self._write_locked()
            if self._wq_bytes != before:
                self._m_wq_gauge.add(self._wq_bytes - before)
                self._wq_cond.notify_all()  # room for senders in backpressure
            drained = not self._wq
        if error is not None:
            self.close()
        elif drained:
            self._set_write_interest(False)

    def _set_write_interest(self, armed: bool) -> None:
        # Owning loop only.  Armed after a sender queued a refused tail,
        # dropped by the flush that drained it; a sender arriving between
        # that drain and this call finds the queue empty and writes
        # itself, so a dropped interest can strand nothing.
        if self._closed.is_set():
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if armed else 0)
        try:
            self.reactor_loop.modify_fd(self._sock, events, self._on_io)
        except (KeyError, ValueError, OSError):
            if armed:
                # The fd is no longer registered (read side hit EOF and
                # unregistered it), so the tail can never drain — fail
                # pending senders now instead of letting them time out.
                self.close()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        # Under _wq_cond: a sender has either queued its frame or sees the flag.
        with self._wq_cond:
            if self._closed.is_set():
                return
            self._closed.set()
            self._wq_cond.notify_all()  # blocked senders raise ChannelClosed
        self.reactor_loop.schedule(self._close_on_loop)

    def _close_on_loop(self) -> None:
        # Frames queued before close() get one non-blocking write; the rest is dropped.
        self._flush_on_loop(closing=True)
        with self._wq_cond:
            self._wq.clear()
            self._m_wq_gauge.add(-self._wq_bytes)
            self._wq_bytes = 0
        self.reactor_loop.unregister_fd(self._sock)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._mark_eof()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class ReactorTcpListener(TcpListener):
    """Listening socket producing loop-owned :class:`ReactorTcpChannel`.

    Accept itself stays a blocking call (the proxy keeps one accept
    thread per listener — O(listeners), not O(connections)); only the
    per-connection I/O moves onto the reactor.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 64,
        reactor: Optional[Reactor] = None,
    ):
        super().__init__(host=host, port=port, backlog=backlog)
        self._reactor = reactor

    def _make_channel(self, conn: socket.socket, name: str) -> Channel:
        return ReactorTcpChannel(conn, reactor=self._reactor, name=name)


def connect_tcp_reactor(
    host: str,
    port: int,
    timeout: float = 10.0,
    reactor: Optional[Reactor] = None,
) -> ReactorTcpChannel:
    """Dial a listener and return a loop-owned client channel."""
    sock = connect_tcp(host, port, timeout)
    return ReactorTcpChannel(sock, reactor=reactor, name=f"rtcp->{host}:{port}")


# ---------------------------------------------------------------------------
# The process-wide shared reactor
# ---------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_reactor: Optional[Reactor] = None


def get_global_reactor() -> Reactor:
    """The shared reactor every proxy/tunnel in this process registers on."""
    global _global_reactor
    with _global_lock:
        if _global_reactor is None:
            _global_reactor = Reactor(name="grid-reactor")
        return _global_reactor.start()


def reset_global_reactor() -> None:
    """Stop and discard the shared reactor (tests only)."""
    global _global_reactor
    with _global_lock:
        reactor, _global_reactor = _global_reactor, None
    if reactor is not None:
        reactor.stop()
