"""Real TCP transport over localhost sockets.

Demonstrates that the middleware's frame protocol runs on an actual network
stack: a :class:`TcpListener` accepts connections and wraps each socket in
a :class:`TcpChannel` with a background reader thread feeding a
:class:`~repro.transport.frames.FrameDecoder`.

The send path is the data-plane fast path: frames are encoded to
iovec-style view lists (payloads ride zero-copy) and written with one
vectored ``sendmsg`` syscall; concurrent senders group-commit, so bursts
of small control/MPI frames queued while another thread holds the socket
share a single syscall.

The grid examples and integration tests bind to 127.0.0.1 with ephemeral
ports; nothing here assumes a particular address family beyond IPv4.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import deque
from itertools import islice
from typing import Iterable, Optional

from repro.transport.channel import Channel, Listener
from repro.transport.errors import ChannelClosed, FrameError, TransportTimeout
from repro.transport.frames import Frame, FrameDecoder, encode_frame_views

__all__ = ["TcpChannel", "TcpListener", "connect_tcp"]

_RECV_CHUNK = 64 * 1024
_EOF = object()
_IOV_MAX = 1024  # conservative bound on buffers per sendmsg call


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle where the transport is actually TCP.

    The channel classes wrap whatever connected stream socket they are
    handed; on a non-TCP one (a Unix socketpair) TCP options don't apply
    and the ``setsockopt`` fails with ``OSError``, which is harmless.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


def _sendall_views(sock: socket.socket, views: list) -> None:
    """Write every buffer in ``views`` in order, without concatenating.

    Uses vectored ``sendmsg`` where available (everywhere we run), looping
    over partial sends; falls back to one joined ``sendall`` otherwise.
    """
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - exotic platforms
        sock.sendall(b"".join(views))
        return
    pending = deque(memoryview(v) for v in views if len(v))
    while pending:
        sent = sendmsg(list(islice(pending, _IOV_MAX)))
        while sent > 0:
            head = pending[0]
            if sent >= len(head):
                sent -= len(head)
                pending.popleft()
            else:
                pending[0] = head[sent:]
                sent = 0


class TcpChannel(Channel):
    """A frame channel over one TCP connection."""

    def __init__(self, sock: socket.socket, name: str = "tcp"):
        super().__init__(name=name)
        self._sock = sock
        _set_nodelay(sock)
        self._send_lock = threading.Lock()
        # Encoded-but-unsent frames: (views, wire_size).  Whoever holds the
        # send lock drains the whole queue in one vectored write, so frames
        # queued by other threads piggyback on that syscall (group commit).
        self._pending_lock = threading.Lock()
        self._pending: deque = deque()
        self._frames: "queue.Queue" = queue.Queue()
        self._closed = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True, name=f"{name}-reader"
        )
        self._reader.start()

    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                # recv_into the decoder's reserved tail: the kernel copy
                # is the only one before frame decode (no per-chunk bytes).
                if not decoder.feed_into(self._sock.recv_into, _RECV_CHUNK):
                    break
                while True:
                    frame = decoder.next_frame()
                    if frame is None:
                        break
                    self._frames.put((frame, decoder.last_frame_wire_size))
        except FrameError as exc:
            self._frames.put(exc)
        except OSError:
            pass  # socket closed under us
        finally:
            self._frames.put(_EOF)

    def send(self, frame: Frame) -> None:
        self._enqueue_and_flush([encode_frame_views(frame)])

    def send_many(self, frames: Iterable[Frame]) -> None:
        batch = [encode_frame_views(frame) for frame in frames]
        if batch:
            self._enqueue_and_flush(batch)

    def _enqueue_and_flush(self, frame_views: list) -> None:
        if self._closed.is_set():
            raise ChannelClosed(f"{self.name}: send on closed channel")
        with self._pending_lock:
            for views in frame_views:
                self._pending.append((views, sum(map(len, views))))
        with self._send_lock:
            with self._pending_lock:
                if not self._pending:
                    return  # flushed by whoever held the lock before us
                batch = list(self._pending)
                self._pending.clear()
            flat = [view for views, _ in batch for view in views]
            try:
                _sendall_views(self._sock, flat)
            except OSError as exc:
                self.close()
                raise ChannelClosed(f"{self.name}: peer gone ({exc})") from exc
            for _, size in batch:
                self.stats.on_send(size)

    def recv(self, timeout: Optional[float] = None) -> Frame:
        try:
            item = self._frames.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout(f"{self.name}: recv timed out") from None
        if item is _EOF:
            self._frames.put(_EOF)
            raise ChannelClosed(f"{self.name}: connection closed")
        if isinstance(item, FrameError):
            self._frames.put(_EOF)
            raise item
        frame, wire_size = item
        self.stats.on_receive(wire_size)
        return frame

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class TcpListener(Listener):
    """Listening socket producing :class:`TcpChannel` per connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 64,
    ):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._closed = threading.Event()
        self.host, self.port = self._sock.getsockname()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def accept(self, timeout: Optional[float] = None) -> Channel:
        if self._closed.is_set():
            raise ChannelClosed("listener is closed")
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout("accept timed out") from None
        except OSError as exc:
            raise ChannelClosed(f"listener closed ({exc})") from exc
        conn.settimeout(None)
        return self._make_channel(conn, f"tcp:{peer[0]}:{peer[1]}")

    def _make_channel(self, conn: socket.socket, name: str) -> Channel:
        """Wrap one accepted socket; the reactor listener overrides this."""
        return TcpChannel(conn, name=name)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # close() alone leaves a thread blocked in accept() asleep until
        # its timeout; shutdown() wakes it with an error straight away.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def connect_tcp(host: str, port: int, timeout: float = 10.0) -> TcpChannel:
    """Dial a TcpListener and return the client channel."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpChannel(sock, name=f"tcp->{host}:{port}")
