"""Message routing between MPI ranks — the proxy's interposition seam.

A :class:`Router` moves :class:`~repro.mpi.datatypes.Envelope` objects
between rank endpoints.  The application-visible API
(:class:`~repro.mpi.communicator.Communicator`) only ever talks to a
router, so swapping :class:`LocalRouter` (direct mailbox delivery — the
paper's Fig. 3a) for the proxy's multiplexing router (Fig. 3b) is
invisible to MPI code.  That is precisely the paper's transparency claim,
and experiment E3 measures the difference between the two.
"""

from __future__ import annotations

import abc
import threading
import time
from typing import Callable, Optional

from repro.mpi.datatypes import Envelope

__all__ = ["Endpoint", "LocalRouter", "Router", "RouterError"]


class RouterError(Exception):
    """Unknown destination rank or delivery to a finished job."""


class Endpoint:
    """A rank's mailbox: thread-safe, with (source, tag) matching.

    MPI receive semantics: messages from the same source arrive in send
    order; ``match`` returns the *first* pending message satisfying the
    (source, tag) pattern, where -1 acts as a wildcard on either field.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._pending: list[Envelope] = []
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        #: async receivers: (source, tag, callback) in registration order
        self._waiters: list[tuple[int, int, Callable]] = []
        self._closed = False

    def deliver(self, envelope: Envelope) -> None:
        callback = None
        with self._arrival:
            if self._closed:
                raise RouterError(f"endpoint {self.rank} is closed")
            # Async receivers take precedence: the first registered
            # waiter whose (source, tag) pattern matches consumes the
            # envelope directly, without it ever entering the mailbox.
            for index, (source, tag, cb) in enumerate(self._waiters):
                if source in (-1, envelope.source) and tag in (-1, envelope.tag):
                    callback = cb
                    del self._waiters[index]
                    break
            else:
                self._pending.append(envelope)
                self._arrival.notify_all()
        if callback is not None:
            callback(envelope, None)

    def close(self) -> None:
        with self._arrival:
            self._closed = True
            waiters, self._waiters = self._waiters, []
            self._arrival.notify_all()
        error = RouterError(f"endpoint {self.rank} closed while receiving")
        for _, _, callback in waiters:
            callback(None, error)

    def _find(self, source: int, tag: int) -> Optional[int]:
        for index, envelope in enumerate(self._pending):
            if source not in (-1, envelope.source):
                continue
            if tag not in (-1, envelope.tag):
                continue
            return index
        return None

    def match(
        self, source: int, tag: int, timeout: Optional[float] = None
    ) -> Envelope:
        """Block until a matching message arrives, then remove and return it."""
        with self._arrival:
            remaining = timeout
            start = time.monotonic()
            while True:
                index = self._find(source, tag)
                if index is not None:
                    return self._pending.pop(index)
                if self._closed:
                    raise RouterError(f"endpoint {self.rank} closed while receiving")
                if timeout is not None:
                    remaining = timeout - (time.monotonic() - start)
                    if remaining <= 0:
                        raise TimeoutError(
                            f"rank {self.rank}: no message from source={source} "
                            f"tag={tag} within {timeout}s"
                        )
                self._arrival.wait(timeout=remaining)

    def match_async(
        self, source: int, tag: int, callback: Callable
    ) -> None:
        """Event-driven receive: ``callback(envelope, error)`` fires once.

        If a matching message is already pending it is consumed and the
        callback runs immediately on the caller's thread; otherwise the
        waiter is parked and :meth:`deliver` completes it on the
        deliverer's thread (the reactor loop, for tunnel traffic).  This
        is what lets ``irecv`` cost a list entry instead of a thread.
        """
        with self._arrival:
            if not self._closed:
                index = self._find(source, tag)
                if index is not None:
                    envelope = self._pending.pop(index)
                    error = None
                else:
                    self._waiters.append((source, tag, callback))
                    return
            else:
                envelope = None
                error = RouterError(f"endpoint {self.rank} closed while receiving")
        callback(envelope, error)

    def peek(self, source: int, tag: int) -> Optional[Envelope]:
        """Non-destructive probe for a matching message."""
        with self._lock:
            index = self._find(source, tag)
            return self._pending[index] if index is not None else None

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)


class Router(abc.ABC):
    """Moves envelopes between ranks."""

    @abc.abstractmethod
    def send(self, envelope: Envelope) -> int:
        """Deliver (or forward) one envelope toward its destination rank.

        Returns the payload's serialised size (``Envelope.wire_size()``),
        which the communicator counts as ``bytes_sent``; a router that
        encodes the payload anyway returns that blob's length.
        """

    @abc.abstractmethod
    def endpoint(self, rank: int) -> Endpoint:
        """The local mailbox for a rank hosted by this router."""


class LocalRouter(Router):
    """Direct delivery inside one process — a single cluster's MPI fabric.

    An optional ``on_send`` hook observes every envelope (benchmarks count
    traffic with it) without perturbing delivery.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"world size must be positive: {size}")
        self.size = size
        self._endpoints = [Endpoint(rank) for rank in range(size)]
        self.on_send: Optional[Callable[[Envelope], None]] = None

    def send(self, envelope: Envelope) -> int:
        if not 0 <= envelope.dest < self.size:
            raise RouterError(
                f"destination rank {envelope.dest} outside world of {self.size}"
            )
        if self.on_send is not None:
            self.on_send(envelope)
        self._endpoints[envelope.dest].deliver(envelope)
        return envelope.wire_size()

    def endpoint(self, rank: int) -> Endpoint:
        if not 0 <= rank < self.size:
            raise RouterError(f"rank {rank} outside world of {self.size}")
        return self._endpoints[rank]

    def close(self) -> None:
        for endpoint in self._endpoints:
            endpoint.close()
