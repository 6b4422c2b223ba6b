"""In-process transport: thread-safe channel pairs and a named fabric.

The single-process runtime (examples, integration tests, MPI ranks as
threads) uses these channels.  Semantics match TCP: ordered, reliable,
close propagates to the peer, receive drains buffered frames before
reporting closure.

The channel is reactor-capable: frames can be consumed with blocking
``recv`` or drained non-blocking via ``poll_recv`` under a ready
callback, so tunnels over in-process pairs run on the shared event loop
exactly like tunnels over TCP.  An optional ``maxsize`` bounds the
peer's inbound buffer — a slow consumer then exerts real backpressure
(``send`` blocks up to ``send_timeout`` and raises
:class:`~repro.transport.errors.ChannelBusy`), mirroring a full TCP
socket buffer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

from repro.transport.channel import Channel, Listener
from repro.transport.errors import ChannelBusy, ChannelClosed, TransportTimeout
from repro.transport.frames import Frame, encode_frame

__all__ = ["InprocChannel", "InprocFabric", "InprocListener", "channel_pair"]

#: Sentinel placed in the accept queue when a listener closes.
_EOF = object()


class InprocChannel(Channel):
    """One endpoint of an in-process channel pair."""

    def __init__(
        self,
        name: str = "inproc",
        maxsize: int = 0,
        send_timeout: Optional[float] = 10.0,
    ):
        super().__init__(name=name)
        self._buf: deque[Frame] = deque()
        self._cond = threading.Condition()
        self._eof = False  # peer is gone; drain _buf then report closure
        self._peer: Optional["InprocChannel"] = None
        self._closed = threading.Event()
        self._ready_cb: Optional[Callable[[], None]] = None
        #: bound on buffered inbound frames (0 = unbounded)
        self.maxsize = maxsize
        self.send_timeout = send_timeout
        #: count wire bytes as the encoded frame size so in-proc and TCP
        #: report comparable traffic volumes
        self._measure_wire = True

    def _bind(self, peer: "InprocChannel") -> None:
        self._peer = peer

    # -- send path ---------------------------------------------------------

    def send(self, frame: Frame) -> None:
        if self._closed.is_set():
            raise ChannelClosed(f"{self.name}: send on closed channel")
        peer = self._peer
        if peer is None:
            raise ChannelClosed(f"{self.name}: channel is unbound")
        deadline = (
            None if self.send_timeout is None
            else time.monotonic() + self.send_timeout
        )
        with peer._cond:
            while peer.maxsize and len(peer._buf) >= peer.maxsize:
                if peer._eof or peer._closed.is_set():
                    break  # closure wins over backpressure
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ChannelBusy(
                        f"{self.name}: peer buffer full "
                        f"({peer.maxsize} frames) for {self.send_timeout}s"
                    )
                peer._cond.wait(timeout=remaining)
            if peer._closed.is_set() or peer._eof:
                raise ChannelClosed(f"{self.name}: peer has closed")
            peer._buf.append(frame)
            peer._cond.notify_all()
            cb = peer._ready_cb
        nbytes = len(encode_frame(frame)) if self._measure_wire else len(frame.payload)
        self.stats.on_send(nbytes)
        if cb is not None:
            cb()

    # -- receive path ------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Frame:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._buf:
                if self._eof:
                    raise ChannelClosed(f"{self.name}: peer closed")
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TransportTimeout(f"{self.name}: recv timed out")
                self._cond.wait(timeout=remaining)
            frame = self._buf.popleft()
            self._cond.notify_all()  # a bounded buffer just freed a slot
        nbytes = len(encode_frame(frame)) if self._measure_wire else len(frame.payload)
        self.stats.on_receive(nbytes)
        return frame

    def poll_recv(self) -> Optional[Frame]:
        with self._cond:
            if not self._buf:
                if self._eof:
                    raise ChannelClosed(f"{self.name}: peer closed")
                return None
            frame = self._buf.popleft()
            self._cond.notify_all()
        nbytes = len(encode_frame(frame)) if self._measure_wire else len(frame.payload)
        self.stats.on_receive(nbytes)
        return frame

    def set_ready_callback(self, callback: Optional[Callable[[], None]]) -> None:
        self._ready_cb = callback

    def pending_frames(self) -> int:
        with self._cond:
            return len(self._buf)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        callbacks = []
        for endpoint in (self._peer, self):
            if endpoint is None:
                continue
            with endpoint._cond:
                endpoint._eof = True
                endpoint._cond.notify_all()
                if endpoint._ready_cb is not None:
                    callbacks.append(endpoint._ready_cb)
        for cb in callbacks:
            cb()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


def channel_pair(
    name: str = "pair", maxsize: int = 0, send_timeout: Optional[float] = 10.0
) -> tuple[InprocChannel, InprocChannel]:
    """Create a connected channel pair (like socketpair)."""
    a = InprocChannel(name=f"{name}.a", maxsize=maxsize, send_timeout=send_timeout)
    b = InprocChannel(name=f"{name}.b", maxsize=maxsize, send_timeout=send_timeout)
    a._bind(b)
    b._bind(a)
    return a, b


class InprocListener(Listener):
    """Accept side of a named in-process endpoint."""

    def __init__(self, fabric: "InprocFabric", address: str):
        self._fabric = fabric
        self.address = address
        self._pending: deque = deque()
        self._cond = threading.Condition()
        self._closed = threading.Event()

    def accept(self, timeout: Optional[float] = None) -> Channel:
        if self._closed.is_set():
            raise ChannelClosed(f"listener {self.address!r} is closed")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._pending:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TransportTimeout(
                        f"accept timed out on {self.address!r}"
                    )
                self._cond.wait(timeout=remaining)
            item = self._pending.popleft()
        if item is _EOF:
            with self._cond:
                self._pending.appendleft(_EOF)
            raise ChannelClosed(f"listener {self.address!r} is closed")
        return item

    def _offer(self, channel: Channel) -> None:
        with self._cond:
            self._pending.append(channel)
            self._cond.notify_all()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._fabric._unregister(self.address)
        with self._cond:
            self._pending.append(_EOF)
            self._cond.notify_all()


class InprocFabric:
    """Registry of named in-process endpoints (the "network" of one process).

    Proxies bind listeners at string addresses ("siteA.proxy.control");
    clients connect by address and get back a channel whose peer is handed
    to the listener's accept loop.
    """

    def __init__(self):
        self._listeners: dict[str, InprocListener] = {}
        self._lock = threading.Lock()

    def listen(self, address: str) -> InprocListener:
        with self._lock:
            if address in self._listeners:
                raise ValueError(f"address already bound: {address!r}")
            listener = InprocListener(self, address)
            self._listeners[address] = listener
            return listener

    def connect(self, address: str, name: str = "") -> InprocChannel:
        with self._lock:
            listener = self._listeners.get(address)
        if listener is None or listener._closed.is_set():
            raise ChannelClosed(f"no listener at {address!r}")
        client, server = channel_pair(name=name or f"conn:{address}")
        listener._offer(server)
        return client

    def addresses(self) -> list[str]:
        with self._lock:
            return sorted(self._listeners)

    def _unregister(self, address: str) -> None:
        with self._lock:
            self._listeners.pop(address, None)
