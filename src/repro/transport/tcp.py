"""Real TCP sockets: the listening socket and the plain dial.

:class:`TcpListener` binds, accepts and closes; what an accepted
connection becomes is decided by its subclass
:class:`~repro.transport.reactor.ReactorTcpListener`, which wraps each
socket in the loop-owned frame channel.  :func:`connect_tcp` is the
matching client-side dial.

The grid examples and integration tests bind to 127.0.0.1 with ephemeral
ports; nothing here assumes a particular address family beyond IPv4.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.transport.channel import Channel, Listener
from repro.transport.errors import ChannelClosed, TransportTimeout

__all__ = ["TcpListener", "connect_tcp"]


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


class TcpListener(Listener):
    """The listening socket: bind, accept, close.

    Turning an accepted connection into a frame channel is the
    subclass's job (:meth:`_make_channel`).
    """

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
        """Wrap one accepted socket; the reactor listener implements this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not make channels; "
            "use ReactorTcpListener"
        )

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


def connect_tcp(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    """Dial a listener and return the connected socket."""
    return socket.create_connection((host, port), timeout=timeout)
