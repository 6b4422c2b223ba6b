"""Secure inter-site tunnels between proxies.

The paper: "Traffic tunneling was chosen, using SSL only among the sites.
By default, the local communication at each site is not encrypted, based
on the assumption that communication inside the site is already safe."

A :class:`Tunnel` is the secure pipe between two proxies: it runs the
SSL-like handshake over whatever raw channel connects them (in-process or
TCP), then carries control, MPI and data frames with record protection.
Inbound frames are demultiplexed to registered handlers by frame kind, so
one tunnel serves the control protocol and any number of multiplexed MPI
applications concurrently.

Delivery is event-driven: :meth:`Tunnel.start` registers the secure
channel on the shared reactor, so N tunnels cost O(loops) threads
instead of one receiver thread each.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.control.retry import RetryError, RetryPolicy
from repro.security.certs import Certificate
from repro.security.handshake import (
    HandshakeError,
    ResumptionTicket,
    SecureChannel,
    SessionTicketKeeper,
    accept_secure,
    connect_secure,
)
from repro.security.rsa import RsaKeyPair, RsaPublicKey
from repro.transport.channel import Channel
from repro.transport.errors import ChannelBusy, TransportError
from repro.transport.frames import Frame, FrameKind
from repro.transport.reactor import get_global_reactor, on_reactor_thread

__all__ = ["Tunnel", "TunnelBusy", "TunnelError"]


class TunnelError(Exception):
    """Handshake failure or use of a dead tunnel."""


class TunnelBusy(TunnelError):
    """The peer is slow and the tunnel's write queue is full.

    Unlike every other :class:`TunnelError`, the tunnel is still *up*:
    backpressure is congestion, not failure, so the send is simply
    refused and may be retried.  Closing the tunnel here would turn a
    slow consumer into an outage.
    """


class Tunnel:
    """An authenticated, encrypted link between two proxies.

    Build with :meth:`establish_client` / :meth:`establish_server`, then
    :meth:`start` inbound delivery.  ``on_frame(kind, handler)`` registers
    the demultiplexer targets; ``on_close(fn)`` fires when the link dies
    (feeds the failure detector).
    """

    def __init__(self, secure: SecureChannel, local_name: str):
        self._secure = secure
        self.local_name = local_name
        self.peer_name = secure.peer.subject
        self._handlers: dict[FrameKind, Callable[[Frame], None]] = {}
        self._batch_handlers: dict[FrameKind, Callable[[list], None]] = {}
        self._close_callbacks: list[Callable[["Tunnel"], None]] = []
        self._registration = None  # reactor membership, once started
        self._closed = threading.Event()
        self._finalized = threading.Event()
        self._finalize_lock = threading.Lock()
        self._send_lock = threading.Lock()
        #: owning proxy's metrics registry; set by the proxy on install,
        #: None for bare tunnels (tests, benchmarks baseline)
        self.metrics = None
        self._m_sent = None
        self._m_busy = None
        self._m_send_errors = None

    def bind_metrics(self, registry) -> None:
        """Attach the owner's registry; send-path counters go there."""
        self.metrics = registry
        if registry is not None:
            self._m_sent = registry.counter("tunnel.frames_sent")
            self._m_busy = registry.counter("tunnel.backpressure")
            self._m_send_errors = registry.counter("tunnel.send_errors")

    # -- construction ---------------------------------------------------------

    @classmethod
    def establish_client(
        cls,
        raw: Channel,
        local_name: str,
        keypair: RsaKeyPair,
        certificate: Certificate,
        trust_anchor: RsaPublicKey,
        clock: Callable[[], float],
        resumption: Optional[ResumptionTicket] = None,
    ) -> "Tunnel":
        """Dial-side tunnel establishment (handshake as client).

        ``resumption`` offers a session ticket from an earlier tunnel to
        the same peer — accepted, the handshake skips its asymmetric
        exchange; rejected, it falls back to the full exchange in-band.
        """
        try:
            secure = connect_secure(
                raw,
                keypair,
                certificate,
                trust_anchor,
                clock,
                expected_peer_role="proxy",
                resumption=resumption,
            )
        except HandshakeError as exc:
            raw.close()
            raise TunnelError(f"tunnel handshake failed: {exc}") from exc
        return cls(secure, local_name)

    @classmethod
    def dial_with_retry(
        cls,
        dial: Callable[[], Channel],
        local_name: str,
        keypair: RsaKeyPair,
        certificate: Certificate,
        trust_anchor: RsaPublicKey,
        clock: Callable[[], float],
        retry: Optional[RetryPolicy] = None,
        resumption: Optional[ResumptionTicket] = None,
    ) -> "Tunnel":
        """Dial-side establishment with handshake retry.

        A handshake interrupted by transport faults (truncated or dropped
        hellos, a mid-handshake disconnect) poisons the raw channel, so
        each attempt dials a *fresh* channel via ``dial``.  Retrying is
        safe — an incomplete handshake has no side effects beyond the
        dead channel.  Raises :class:`TunnelError` when every attempt
        fails.
        """
        retry = retry or RetryPolicy(retryable=(TunnelError,))
        if TunnelError not in retry.retryable:
            retry = RetryPolicy(
                max_attempts=retry.max_attempts,
                base_delay=retry.base_delay,
                multiplier=retry.multiplier,
                max_delay=retry.max_delay,
                jitter=retry.jitter,
                deadline=retry.deadline,
                retryable=retry.retryable + (TunnelError,),
            )

        def attempt(_deadline) -> "Tunnel":
            try:
                raw = dial()
            except Exception as exc:
                raise TunnelError(f"dial failed: {exc}") from exc
            return cls.establish_client(
                raw, local_name, keypair, certificate, trust_anchor, clock,
                resumption=resumption,
            )

        try:
            return retry.call(attempt, idempotent=True)
        except RetryError as exc:
            raise TunnelError(
                f"tunnel establishment failed after {exc.attempts} attempts: "
                f"{exc.last}"
            ) from exc.last

    @classmethod
    def establish_server(
        cls,
        raw: Channel,
        local_name: str,
        keypair: RsaKeyPair,
        certificate: Certificate,
        trust_anchor: RsaPublicKey,
        clock: Callable[[], float],
        revocation_check: Optional[Callable[[Certificate], bool]] = None,
        expected_peer_role: str = "proxy",
        ticket_keeper: Optional[SessionTicketKeeper] = None,
    ) -> "Tunnel":
        """Accept-side tunnel establishment (handshake as server).

        Peers are proxies by default; a site-local secure channel accepts
        role ``"node"`` instead.  ``ticket_keeper`` turns on session
        resumption: tickets are issued on full handshakes and redeemed
        on later dials.
        """
        try:
            secure = accept_secure(
                raw,
                keypair,
                certificate,
                trust_anchor,
                clock,
                expected_peer_role=expected_peer_role,
                revocation_check=revocation_check,
                ticket_keeper=ticket_keeper,
            )
        except HandshakeError as exc:
            raw.close()
            raise TunnelError(f"tunnel handshake failed: {exc}") from exc
        return cls(secure, local_name)

    # -- demultiplexing ---------------------------------------------------------

    def on_frame(self, kind: FrameKind, handler: Callable[[Frame], None]) -> None:
        """Register the handler for one frame kind (replacing any previous)."""
        self._handlers[kind] = handler

    def on_frame_batch(
        self, kind: FrameKind, handler: Callable[[list], None]
    ) -> None:
        """Register a bulk handler: a drained backlog of ``kind`` frames
        arrives as one list.  Kinds without a batch handler fall back
        to per-frame delivery, so registering one is purely an
        optimisation, never a semantic change."""
        self._batch_handlers[kind] = handler

    def on_close(self, callback: Callable[["Tunnel"], None]) -> None:
        self._close_callbacks.append(callback)

    def start(self) -> None:
        """Start inbound delivery; idempotent.

        The secure channel joins the shared event loop and frames arrive
        as loop callbacks.
        """
        if self._registration is not None:
            return
        self._registration = get_global_reactor().add_channel(
            self._secure,
            on_frame=self._deliver,
            on_batch=self._deliver_batch,
            on_close=lambda channel, exc: self._finalize(),
        )

    def _deliver(self, frame: Frame) -> None:
        handler = self._handlers.get(frame.kind)
        if handler is not None:
            handler(frame)
        # Unhandled kinds are dropped: "discarding unauthorized
        # traffic" is the security layer's default posture.

    def _deliver_batch(self, frames: list) -> None:
        """Demultiplex a drained backlog, preserving arrival order.

        Consecutive frames of one kind go to that kind's batch handler
        as a single list; runs are never reordered across kinds, so the
        per-frame ordering contract is unchanged.
        """
        i, n = 0, len(frames)
        while i < n:
            kind = frames[i].kind
            j = i + 1
            while j < n and frames[j].kind == kind:
                j += 1
            handler = self._batch_handlers.get(kind)
            if handler is not None:
                handler(frames[i:j] if (i, j) != (0, n) else frames)
            else:
                for k in range(i, j):
                    self._deliver(frames[k])
            i = j

    def _finalize(self) -> None:
        """Mark the tunnel dead and fire close callbacks exactly once."""
        with self._finalize_lock:
            if self._finalized.is_set():
                return
            self._finalized.set()
        self._closed.set()
        for callback in list(self._close_callbacks):
            callback(self)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until inbound delivery has fully stopped.

        Returns True once close callbacks have fired (or the tunnel was
        never started).  Shutdown paths use this so no loop registration
        outlives its proxy.
        """
        if self._registration is None:
            return True
        return self._finalized.wait(timeout=timeout)

    # -- traffic -------------------------------------------------------------------

    def _acquire_send_lock(self) -> None:
        """Take the send lock, but never by blocking an event-loop thread.

        A worker blocked in backpressure holds the lock for up to the
        channel's send timeout; if a loop thread (heartbeat timer, inline
        handler reply) then waited here, the only flusher would stall and
        every channel on that loop would freeze until the waiter timed
        out.  On loop threads contention is therefore congestion: fail
        fast with :class:`TunnelBusy` and let the caller retry.
        """
        if on_reactor_thread():
            if not self._send_lock.acquire(blocking=False):
                raise TunnelBusy(
                    f"tunnel {self.local_name}->{self.peer_name} send "
                    f"refused: channel busy on event-loop thread"
                )
            return
        self._send_lock.acquire()

    def send(self, frame: Frame) -> None:
        if not self.alive:
            raise TunnelError(
                f"tunnel {self.local_name}->{self.peer_name} is down"
            )
        self._acquire_send_lock()
        try:
            self._secure.send(frame)
        except ChannelBusy as exc:
            # Backpressure: the tunnel is congested, not broken.
            if self._m_busy is not None:
                self._m_busy.inc()
            raise TunnelBusy(f"tunnel send refused: {exc}") from exc
        except TransportError as exc:
            if self._m_send_errors is not None:
                self._m_send_errors.inc()
            self.close()
            raise TunnelError(f"tunnel send failed: {exc}") from exc
        finally:
            self._send_lock.release()
        if self._m_sent is not None:
            self._m_sent.inc()

    def send_many(self, frames) -> None:
        """Send a burst of frames, coalescing records into one socket write.

        Control chatter and multiplexed MPI traffic (heartbeats,
        virtual-slave bursts) sent together share a single syscall; each
        frame keeps its own record so the wire format is unchanged.
        """
        frames = list(frames)
        if not frames:
            return
        if not self.alive:
            raise TunnelError(
                f"tunnel {self.local_name}->{self.peer_name} is down"
            )
        self._acquire_send_lock()
        try:
            self._secure.send_many(frames)
        except ChannelBusy as exc:
            if self._m_busy is not None:
                self._m_busy.inc()
            raise TunnelBusy(f"tunnel send refused: {exc}") from exc
        except TransportError as exc:
            if self._m_send_errors is not None:
                self._m_send_errors.inc()
            self.close()
            raise TunnelError(f"tunnel send failed: {exc}") from exc
        finally:
            self._send_lock.release()
        if self._m_sent is not None:
            self._m_sent.inc(len(frames))

    @property
    def alive(self) -> bool:
        return not self._closed.is_set() and not self._secure.closed

    @property
    def peer_certificate(self) -> Certificate:
        """The certificate the peer authenticated with during the handshake."""
        return self._secure.peer.certificate

    @property
    def stats(self):
        """Traffic accounting from the secure channel (record bytes)."""
        return self._secure.stats

    @property
    def cipher_suite(self) -> str:
        """The record-cipher suite: every tunnel runs ``shake128``."""
        return "shake128"

    @property
    def resumed(self) -> bool:
        """True when the handshake was a ticket resumption (no DH exchange)."""
        return getattr(self._secure, "resumed", False)

    @property
    def resumption_ticket(self) -> Optional[ResumptionTicket]:
        """Ticket for the next dial to this peer, when the server issued one."""
        return getattr(self._secure, "resumption_ticket", None)

    def close(self) -> None:
        self._closed.set()
        self._secure.close()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"Tunnel({self.local_name}->{self.peer_name}, {state})"
