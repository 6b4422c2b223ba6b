"""Abstract channel and listener interfaces.

Every concrete transport (in-process, TCP, and the secure tunnel built on
top of either) presents the same surface — ``send(frame)`` /
``recv(timeout)`` for blocking callers, ``poll_recv()`` /
``set_ready_callback()`` for the event loop — so the middleware layers
above are transport-agnostic.  This is what lets the proxy interpose
transparently: an MPI rank talking to a "local" virtual slave uses the same
channel type as the tunnel between two sites.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Iterable, Optional

from repro.transport.frames import Frame, FrameKind

__all__ = ["Channel", "Listener", "ChannelStats"]


class ChannelStats:
    """Per-channel traffic accounting, booked by the channel under the
    lock (or on the one thread) that already orders that direction."""

    def __init__(self):
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def on_send(self, nbytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes

    def on_receive(self, nbytes: int) -> None:
        self.frames_received += 1
        self.bytes_received += nbytes


class Channel(abc.ABC):
    """A bidirectional, ordered, reliable frame pipe."""

    def __init__(self, name: str = "channel"):
        self.name = name
        self.stats = ChannelStats()

    @abc.abstractmethod
    def send(self, frame: Frame) -> None:
        """Send one frame.  Raises ChannelClosed if the pipe is down."""

    def send_many(self, frames: Iterable[Frame]) -> None:
        """Send a burst of frames in order.

        Transports that can coalesce writes (TCP vectored I/O, sealed
        record batches) override this so a burst shares one syscall; the
        default is a plain loop with identical semantics.
        """
        for frame in frames:
            self.send(frame)

    def send_records(self, records: list[tuple[int, list[bytes], int]]) -> None:
        """Send sealed ``(channel id, record buffers, size)`` triples, each
        record joined once as the payload of a header-less DATA frame; TCP
        writes the buffers behind a :func:`~repro.transport.frames.carrier_prefix`."""
        self.send_many([Frame(FrameKind.DATA, ch, {}, b"".join(rec)) for ch, rec, _ in records])

    @abc.abstractmethod
    def recv(self, timeout: Optional[float] = None) -> Frame:
        """Receive the next frame.

        Blocks up to ``timeout`` seconds (None = forever); raises
        TransportTimeout on expiry and ChannelClosed when the peer is gone
        and no buffered frames remain.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Close both directions; idempotent."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True once the channel can no longer send."""

    # -- reactor protocol ---------------------------------------------------
    #
    # Every channel can be driven by the shared event loop; layered
    # channels (secure, faulty) delegate to their inner transport.

    @abc.abstractmethod
    def poll_recv(self) -> Optional[Frame]:
        """Non-blocking receive: next frame, or None when nothing is ready.

        Raises exactly what :meth:`recv` raises on terminal conditions
        (ChannelClosed, FrameError, ...) but never TransportTimeout.
        """

    @abc.abstractmethod
    def set_ready_callback(self, callback: Optional[Callable[[], None]]) -> None:
        """Install ``callback`` to fire whenever frames *may* be readable.

        The callback must be cheap and thread-safe: it is invoked from
        whatever thread delivered the data (a peer's send, the event
        loop's socket reader, a close).  Spurious invocations are fine —
        the consumer drains with :meth:`poll_batch`.  A transport's own
        loop read calls ``callback.readable()`` instead, if it exists, to
        drain in place; a sender's signal never may.
        """

    def poll_batch(self, limit: int) -> tuple[list[Frame], Optional[Exception]]:
        """Up to ``limit`` ready frames, then what :meth:`poll_recv` would
        raise next (returned, so the frames before it are delivered
        first): the loop's one receive call per drain.  Layered
        transports override it to pass one batch through each layer."""
        frames: list[Frame] = []
        try:
            while len(frames) < limit and (frame := self.poll_recv()) is not None:
                frames.append(frame)
        except Exception as exc:  # ChannelClosed, FrameError, record MAC…
            return frames, exc
        return frames, None

    def _poll_one(self) -> Optional[Frame]:
        """``poll_recv`` for a transport that overrides ``poll_batch``."""
        frames, error = self.poll_batch(1)
        if error is not None:
            raise error
        return frames[0] if frames else None

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Listener(abc.ABC):
    """Accepts inbound channels, like a listening socket."""

    @abc.abstractmethod
    def accept(self, timeout: Optional[float] = None) -> Channel:
        """Wait for the next inbound channel."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop accepting; idempotent."""

    def serve(
        self, handler: Callable[[Channel], None], daemon: bool = True
    ) -> threading.Thread:
        """Spawn a thread accepting channels and handing each to ``handler``.

        The loop exits when the listener is closed.  Returns the thread.
        """
        from repro.transport.errors import ChannelClosed, TransportError

        def loop() -> None:
            while True:
                try:
                    channel = self.accept()
                except (ChannelClosed, TransportError, OSError):
                    return
                handler(channel)

        thread = threading.Thread(target=loop, daemon=daemon, name="listener-serve")
        thread.start()
        return thread
