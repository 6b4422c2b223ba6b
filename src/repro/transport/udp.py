"""Reliable frame transport over real UDP datagrams.

The paper's layer diagram lists *UDP/TCP* as "the net protocols that
supply the basis for communication".  TCP gives the frame layer ordering
and reliability for free; this module supplies the same channel contract
over UDP by implementing a small ARQ protocol:

* each frame travels in one datagram, prefixed with a type and a
  sequence number;
* the receiver delivers strictly in order, buffers out-of-order
  arrivals, discards duplicates, and returns cumulative ACKs;
* the sender keeps a window of unacknowledged frames and retransmits on
  a timer;
* FIN datagrams close both directions (best-effort, repeated).

Datagram layout::

    type  1 byte   1=DATA 2=ACK 3=FIN
    seq   8 bytes  sequence number (DATA: frame seq; ACK: cumulative)
    body  n bytes  encoded frame (DATA only)

Frames must fit one datagram (~60 KiB); the middleware's data layer
already chunks larger transfers.  A ``loss_injector`` hook drops chosen
outgoing datagrams so tests can prove retransmission works.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from typing import Callable, Optional

from repro.transport.channel import Channel
from repro.transport.errors import ChannelClosed, FrameError, TransportTimeout
from repro.transport.frames import Frame, decode_frame, encode_frame

__all__ = ["UdpChannel", "udp_pair"]

_TYPE_DATA = 1
_TYPE_ACK = 2
_TYPE_FIN = 3
_HEADER = struct.Struct("!BQ")

#: Maximum encoded-frame size that fits a localhost datagram.
MAX_UDP_FRAME = 60 * 1024
_RETRANSMIT_INTERVAL = 0.05
_MAX_RETRANSMITS = 100  # ~5s of trying before the peer is declared gone
_WINDOW = 64


class UdpChannel(Channel):
    """One endpoint of a reliable UDP frame pipe."""

    def __init__(
        self,
        sock: socket.socket,
        peer: tuple[str, int],
        name: str = "udp",
        loss_injector: Optional[Callable[[bytes], bool]] = None,
    ):
        super().__init__(name=name)
        self._sock = sock
        self._peer = peer
        self.loss_injector = loss_injector
        self._closed = threading.Event()
        self._delivered: "queue.Queue" = queue.Queue()
        # sender state
        self._send_lock = threading.Lock()
        self._next_seq = 0
        self._unacked: dict[int, bytes] = {}
        self._window_free = threading.Condition(self._send_lock)
        # receiver state
        self._expected_seq = 0
        self._out_of_order: dict[int, bytes] = {}
        self._fin_sent = False
        self._receiver = threading.Thread(
            target=self._rx_loop, daemon=True, name=f"{name}-rx"
        )
        self._retransmitter = threading.Thread(
            target=self._retransmit_loop, daemon=True, name=f"{name}-arq"
        )
        self._receiver.start()
        self._retransmitter.start()

    # -- datagram plumbing ---------------------------------------------------

    def _emit(self, datagram: bytes) -> None:
        if self.loss_injector is not None and self.loss_injector(datagram):
            return  # simulated network loss
        try:
            self._sock.sendto(datagram, self._peer)
        except OSError:
            pass  # socket gone: the retransmitter/receiver will wind down

    def _rx_loop(self) -> None:
        while not self._closed.is_set():
            try:
                datagram, _addr = self._sock.recvfrom(MAX_UDP_FRAME + 64)
            except OSError:
                break
            if len(datagram) < _HEADER.size:
                continue  # runt datagram: drop
            dtype, seq = _HEADER.unpack_from(datagram, 0)
            body = datagram[_HEADER.size :]
            if dtype == _TYPE_DATA:
                self._on_data(seq, body)
            elif dtype == _TYPE_ACK:
                self._on_ack(seq)
            elif dtype == _TYPE_FIN:
                self._delivered.put(None)  # EOF sentinel
                break
        self._delivered.put(None)

    def _on_data(self, seq: int, body: bytes) -> None:
        # Always (re-)ACK cumulatively: the ACK for an earlier frame may
        # have been lost, and this datagram may itself be a duplicate.
        if seq < self._expected_seq:
            self._emit(_HEADER.pack(_TYPE_ACK, self._expected_seq))
            return
        self._out_of_order[seq] = body
        while self._expected_seq in self._out_of_order:
            in_order = self._out_of_order.pop(self._expected_seq)
            self._expected_seq += 1
            self._delivered.put(in_order)
        self._emit(_HEADER.pack(_TYPE_ACK, self._expected_seq))

    def _on_ack(self, cumulative: int) -> None:
        with self._send_lock:
            for seq in [s for s in self._unacked if s < cumulative]:
                del self._unacked[seq]
            self._window_free.notify_all()

    def _retransmit_loop(self) -> None:
        attempts = 0
        while not self._closed.is_set():
            self._closed.wait(timeout=_RETRANSMIT_INTERVAL)
            with self._send_lock:
                pending = list(self._unacked.values())
            if not pending:
                attempts = 0
                continue
            attempts += 1
            if attempts > _MAX_RETRANSMITS:
                self.close()  # peer unreachable
                return
            for datagram in pending:
                self._emit(datagram)

    # -- channel interface -------------------------------------------------------

    def send(self, frame: Frame) -> None:
        if self._closed.is_set():
            raise ChannelClosed(f"{self.name}: send on closed channel")
        blob = encode_frame(frame)
        if len(blob) > MAX_UDP_FRAME:
            raise FrameError(
                f"frame too large for UDP transport: {len(blob)} B "
                f"(max {MAX_UDP_FRAME})"
            )
        with self._window_free:
            while len(self._unacked) >= _WINDOW and not self._closed.is_set():
                self._window_free.wait(timeout=0.5)
            if self._closed.is_set():
                raise ChannelClosed(f"{self.name}: closed while waiting on window")
            seq = self._next_seq
            self._next_seq += 1
            datagram = _HEADER.pack(_TYPE_DATA, seq) + blob
            self._unacked[seq] = datagram
        self._emit(datagram)
        self.stats.on_send(len(datagram))

    def recv(self, timeout: Optional[float] = None) -> Frame:
        try:
            body = self._delivered.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout(f"{self.name}: recv timed out") from None
        if body is None:
            self._delivered.put(None)
            raise ChannelClosed(f"{self.name}: peer closed")
        frame = decode_frame(body)
        self.stats.on_receive(len(body) + _HEADER.size)
        return frame

    def close(self) -> None:
        if self._closed.is_set():
            return
        if not self._fin_sent:
            self._fin_sent = True
            for _ in range(3):  # FIN is unreliable too: repeat
                self._emit(_HEADER.pack(_TYPE_FIN, 0))
        self._closed.set()
        with self._send_lock:
            self._window_free.notify_all()
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


def udp_pair(
    host: str = "127.0.0.1",
    loss_injector_a: Optional[Callable[[bytes], bool]] = None,
    loss_injector_b: Optional[Callable[[bytes], bool]] = None,
) -> tuple[UdpChannel, UdpChannel]:
    """Two connected reliable-UDP channels over real localhost sockets."""
    sock_a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock_b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock_a.bind((host, 0))
    sock_b.bind((host, 0))
    addr_a = sock_a.getsockname()
    addr_b = sock_b.getsockname()
    a = UdpChannel(sock_a, addr_b, name="udp.a", loss_injector=loss_injector_a)
    b = UdpChannel(sock_b, addr_a, name="udp.b", loss_injector=loss_injector_b)
    return a, b
