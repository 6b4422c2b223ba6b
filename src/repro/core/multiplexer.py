"""The MPI multiplexer: local delivery vs proxy forwarding.

"To support the MPI applications and allow them to be executed in the
entire grid, the proxy acts as a multiplexer of the communication between
the root process and its respective slaves. … This mapping done by the
proxy is transparent for the application and can be seen as a
multiplexion of the communication between the source and the
destination."

:class:`GridRouter` realises that: it implements the same
:class:`~repro.mpi.router.Router` interface as the plain
:class:`~repro.mpi.router.LocalRouter`, so MPI applications cannot tell
the difference (the paper's transparency).  Envelopes between ranks at
the same site are delivered directly over the "LAN" in cleartext
(Fig. 3a); envelopes to remote ranks are serialised, accounted against
the rank's virtual slave, and forwarded through the proxy's secure
tunnel to the destination proxy (Fig. 3b).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.virtual_slave import AppSpace
from repro.mpi.datatypes import Envelope
from repro.mpi.router import Endpoint, Router, RouterError
from repro.transport.frames import decode_value, encode_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.proxy import ProxyServer

__all__ = ["GridRouter"]


class GridRouter(Router):
    """Per-site, per-application router backed by the site's proxy."""

    def __init__(self, proxy: "ProxyServer", space: AppSpace):
        self.proxy = proxy
        self.space = space
        self._endpoints: dict[int, Endpoint] = {
            rank: Endpoint(rank) for rank in space.local_ranks
        }
        self._lock = threading.Lock()
        #: traffic that stayed on the site LAN (messages, bytes)
        self.local_messages = 0

    # -- Router interface -----------------------------------------------------

    def send(self, envelope: Envelope) -> int:
        if self.space.is_local(envelope.dest):
            # Fig. 3a: direct local delivery, no encryption, no proxy hop.
            with self._lock:
                self.local_messages += 1
            self._endpoints[envelope.dest].deliver(envelope)
            return envelope.wire_size()
        # Fig. 3b: hand the envelope to the virtual slave's forwarding path.
        slave = self.space.slave_for(envelope.dest)
        if slave is None:
            raise RouterError(
                f"app {self.space.app_id!r}: no virtual slave for rank "
                f"{envelope.dest}"
            )
        payload_blob = encode_value(envelope.payload)
        slave.account(len(payload_blob))
        self.proxy.forward_mpi(
            app_id=self.space.app_id,
            peer_proxy=slave.peer_proxy,
            source=envelope.source,
            dest=envelope.dest,
            tag=envelope.tag,
            payload_blob=payload_blob,
        )
        return len(payload_blob)

    def endpoint(self, rank: int) -> Endpoint:
        try:
            return self._endpoints[rank]
        except KeyError:
            raise RouterError(
                f"rank {rank} is not hosted at site {self.space.site!r}"
            ) from None

    # -- inbound from the tunnel ------------------------------------------------

    def deliver_remote(
        self, source: int, dest: int, tag: int, payload_blob: bytes
    ) -> None:
        """Deliver a tunneled envelope to a local rank (called by the proxy)."""
        endpoint = self._endpoints.get(dest)
        if endpoint is None:
            raise RouterError(
                f"app {self.space.app_id!r}: rank {dest} not local to "
                f"{self.space.site!r}"
            )
        envelope = Envelope(
            source=source, dest=dest, tag=tag, payload=decode_value(payload_blob)
        )
        endpoint.deliver(envelope)

    def close(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.close()
