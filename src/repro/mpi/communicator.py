"""The application-facing MPI communicator.

Provides the familiar surface: ``rank``/``size``, blocking ``send``/
``recv`` with tags and wildcards, non-blocking ``isend``/``irecv`` with
:class:`Request`, ``probe``, ``sendrecv``, and the collectives (delegated
to :mod:`repro.mpi.collectives`).

A user tag is any non-negative int; the collective algorithms use an
internal negative tag space derived from a per-communicator operation
counter, so user traffic can never be confused with collective traffic
(all ranks execute collectives in the same program order, which is what
MPI itself requires).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi import collectives as _collectives
from repro.mpi.datatypes import Envelope, ReduceOp
from repro.mpi.router import Router

__all__ = ["ANY_SOURCE", "ANY_TAG", "Communicator", "MpiError", "Request", "Status"]

ANY_SOURCE = -1
ANY_TAG = -1

#: Collective tags live at COLLECTIVE_TAG_BASE - op_index; always negative.
_COLLECTIVE_TAG_BASE = -1000


class MpiError(Exception):
    """Invalid rank, tag, or communicator misuse."""


@dataclass(frozen=True)
class Status:
    """Metadata about a received message (MPI_Status)."""

    source: int
    tag: int
    envelope_id: int


class Request:
    """Handle for a non-blocking operation; ``wait`` returns its value."""

    def __init__(self):
        self._done = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _complete(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        self._done.set()

    def test(self) -> bool:
        """True once the operation has completed."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._done.wait(timeout=timeout):
            raise TimeoutError("request not complete within timeout")
        if self._error is not None:
            raise self._error
        return self._value


class Communicator:
    """One rank's view of the MPI world."""

    def __init__(self, rank: int, size: int, router: Router):
        if not 0 <= rank < size:
            raise MpiError(f"rank {rank} outside world of {size}")
        self.rank = rank
        self.size = size
        self._router = router
        self._endpoint = router.endpoint(rank)
        self._collective_op = 0
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- point-to-point ------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send (buffered: never deadlocks here)."""
        self._check_peer(dest)
        self._check_tag(tag)
        self._post(payload, dest, tag)

    def _post(self, payload: Any, dest: int, tag: int) -> None:
        envelope = Envelope(source=self.rank, dest=dest, tag=tag, payload=payload)
        self.bytes_sent += self._router.send(envelope)
        self.messages_sent += 1

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
        with_status: bool = False,
    ) -> Any:
        """Blocking receive; returns the payload (or (payload, Status))."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        if tag != ANY_TAG:
            self._check_tag(tag)
        envelope = self._endpoint.match(source, tag, timeout=timeout)
        if with_status:
            status = Status(
                source=envelope.source, tag=envelope.tag, envelope_id=envelope.envelope_id
            )
            return envelope.payload, status
        return envelope.payload

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (delivery is immediate in this implementation,
        so the request completes synchronously; the API matches MPI)."""
        request = Request()
        try:
            self.send(payload, dest, tag)
        except BaseException as exc:
            request._complete(error=exc)
        else:
            request._complete()
        return request

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive, completed by message arrival.

        No helper thread: the request is parked on the endpoint and the
        delivering thread (a local sender or the reactor loop carrying
        tunnel traffic) completes it.  ``wait`` blocks as before, and —
        matching the original thread-based contract — an invalid source
        or tag surfaces from ``wait``, never from ``irecv`` itself.
        """
        request = Request()
        try:
            if source != ANY_SOURCE:
                self._check_peer(source)
            if tag != ANY_TAG:
                self._check_tag(tag)
        except MpiError as exc:
            request._complete(error=exc)
            return request

        def on_match(envelope, error) -> None:
            if error is not None:
                request._complete(error=error)
            else:
                request._complete(value=envelope.payload)

        self._endpoint.match_async(source, tag, on_match)
        return request

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking probe; Status of the first matching pending message."""
        envelope = self._endpoint.peek(source, tag)
        if envelope is None:
            return None
        return Status(
            source=envelope.source, tag=envelope.tag, envelope_id=envelope.envelope_id
        )

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Any:
        """Combined send+receive, safe against pairwise exchange deadlock."""
        self.send(payload, dest, tag=send_tag)
        return self.recv(source=source, tag=recv_tag, timeout=timeout)

    # -- collectives -----------------------------------------------------------

    def _next_collective_tag(self) -> int:
        tag = _COLLECTIVE_TAG_BASE - self._collective_op
        self._collective_op += 1
        return tag

    def _collective_send(self, payload: Any, dest: int, tag: int) -> None:
        """Internal send bypassing user-tag validation."""
        self._check_peer(dest)
        self._post(payload, dest, tag)

    def _collective_recv(self, source: int, tag: int, timeout: Optional[float]) -> Any:
        envelope = self._endpoint.match(source, tag, timeout=timeout)
        return envelope.payload

    def barrier(self, timeout: Optional[float] = None) -> None:
        _collectives.barrier(self, timeout=timeout)

    def bcast(self, payload: Any = None, root: int = 0, timeout: Optional[float] = None) -> Any:
        return _collectives.bcast(self, payload, root=root, timeout=timeout)

    def reduce(
        self, value: Any, op: ReduceOp, root: int = 0, timeout: Optional[float] = None
    ) -> Optional[Any]:
        return _collectives.reduce(self, value, op, root=root, timeout=timeout)

    def allreduce(self, value: Any, op: ReduceOp, timeout: Optional[float] = None) -> Any:
        return _collectives.allreduce(self, value, op, timeout=timeout)

    def gather(
        self, value: Any, root: int = 0, timeout: Optional[float] = None
    ) -> Optional[list]:
        return _collectives.gather(self, value, root=root, timeout=timeout)

    def allgather(self, value: Any, timeout: Optional[float] = None) -> list:
        return _collectives.allgather(self, value, timeout=timeout)

    def scatter(
        self, values: Optional[list] = None, root: int = 0, timeout: Optional[float] = None
    ) -> Any:
        return _collectives.scatter(self, values, root=root, timeout=timeout)

    def alltoall(self, values: list, timeout: Optional[float] = None) -> list:
        return _collectives.alltoall(self, values, timeout=timeout)

    def scan(self, value: Any, op: ReduceOp, timeout: Optional[float] = None) -> Any:
        return _collectives.scan(self, value, op, timeout=timeout)

    # -- validation ----------------------------------------------------------------

    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MpiError(f"peer rank {rank} outside world of {self.size}")

    def _check_tag(self, tag: int) -> None:
        if tag < 0:
            raise MpiError(f"user tags must be non-negative: {tag}")

    def __repr__(self) -> str:
        return f"Communicator(rank={self.rank}, size={self.size})"
