"""The proxy server: the paper's central entity.

"This entity acts similarly to a gateway, serving as an interconnecting
point between the sites that make up the computational grid. … The
control and the functionalities of the grid are introduced at the site's
border rather than individually in each node."

One :class:`ProxyServer` fronts one site.  It owns:

* **Layer 1** — a listener for inbound tunnels plus outbound dials to peer
  proxies; control and data share each tunnel, demultiplexed by frame
  kind.
* **Layer 2** — its CA-issued certificate and key (host authentication),
  the site's user directory and ACL (user authentication and permissions,
  checked at the originating *and* destination proxy), and the token
  service: a login buys a bearer token, each hop gets an attenuated
  delegation the destination verifies offline.
* **Layer 3** — local site monitoring and the control protocol's
  status/locate services; per-site collection with on-demand global
  compilation.
* **Layer 4** — MPI application address spaces with virtual slaves, and
  the forwarding path the :class:`~repro.core.multiplexer.GridRouter`
  uses.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

from repro.control.failure import FailureDetector, PeerState
from repro.control.retry import RetryError, RetryPolicy
from repro.control.wms import JobSpec, site_capability
from repro.core.dispatch import (
    DROP,
    GUARDED_OP_SCOPES,
    DispatchPipeline,
    TokenAuthGuard,
)
from repro.core.multiplexer import GridRouter
from repro.core.protocol import (
    IDEMPOTENT_OPS,
    ControlMessage,
    Op,
    ProtocolError,
    RequestTracker,
)
from repro.core.routing import GridDirectory
from repro.core.site import Site
from repro.obs import ObsHub, racesan
from repro.obs.metrics import enabled as obs_enabled
from repro.obs.trace import current_trace, head_sample, use_trace
from repro.core.tunnel import Tunnel, TunnelBusy, TunnelError
from repro.core.virtual_slave import AppSpace
from repro.security.auth import (
    AccessControlList,
    AuthenticationError,
    PermissionDenied,
    UserDirectory,
)
from repro.security.certs import Certificate
from repro.security.handshake import ResumptionTicket, SessionTicketKeeper
from repro.security.rsa import RsaKeyPair
from repro.security.tokens import Token, TokenError, TokenService
from repro.transport.channel import Channel, Listener
from repro.transport.errors import TransportError
from repro.transport.frames import Frame, FrameKind

__all__ = ["PeerUnavailable", "ProxyError", "ProxyServer", "RequestTimeout"]


class ProxyError(Exception):
    """Submission, authentication or forwarding failure at a proxy."""


class PeerUnavailable(ProxyError):
    """No live tunnel to the peer (down, closed mid-request, or never up).

    Not retryable against the same peer — the tunnel is gone and this
    layer does not redial — but it is precisely the signal the failover
    paths (job submission, status queries, MPI forwarding) react to by
    trying the site's next proxy.
    """


class RequestTimeout(ProxyError):
    """A control request got no reply within its per-attempt timeout.

    Retryable for idempotent ops (the peer may be slow, the request or
    reply may have been dropped); indeterminate for everything else —
    the request may have executed.
    """


#: The retry policy of every idempotent control request: a few quick
#: attempts with exponential backoff, retrying timeouts and tunnel send
#: failures.
DEFAULT_REQUEST_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=0.5,
    retryable=(RequestTimeout, TunnelError),
)

#: Failure-detector thresholds (seconds of silence) for every peer.
SUSPECT_AFTER = 3.0
DEAD_AFTER = 10.0

#: Size of each proxy's pool for blocking control-plane handlers.
DISPATCH_WORKERS = 4

#: Most jobs one JOB_CLAIM grants: the claim runs on the event loop, so
#: its length is bounded however large a ``count`` the pilot asks for.
MAX_CLAIM_PER_REQUEST = 64

#: Guarded ops the request path stamps with this proxy's *service* token
#: automatically.  JOB_SUBMIT is excluded: it carries end-user identity,
#: so callers must supply the user's (delegated) token explicitly — a
#: service stamp there would launder user jobs into proxy identity.
_AUTO_STAMP_OPS = frozenset(GUARDED_OP_SCOPES) - {Op.JOB_SUBMIT}


class ProxyServer:
    """One site's border proxy."""

    def __init__(
        self,
        name: str,
        site: Site,
        keypair: RsaKeyPair,
        certificate: Certificate,
        trust_anchor,
        clock: Callable[[], float],
        directory: GridDirectory,
        tokens: TokenService,
        users: UserDirectory,
        acl: AccessControlList,
    ):
        self.name = name
        self.site = site
        site.proxy_name = site.proxy_name or name
        self.keypair = keypair
        self.certificate = certificate
        self.trust_anchor = trust_anchor
        self.clock = clock
        self.directory = directory
        self.users = users
        self.acl = acl
        self._tunnels: dict[str, Tunnel] = {}
        self._tunnel_lock = threading.Lock()
        self._tracker = RequestTracker()
        self._inflight_by_peer: dict[str, set[int]] = {}
        self._inflight_lock = threading.Lock()
        self._listener: Optional[Listener] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handshake_threads: list[threading.Thread] = []
        self._handshake_lock = threading.Lock()
        self._heartbeat_timer = None
        self._routers: dict[str, GridRouter] = {}
        self._spaces: dict[str, AppSpace] = {}
        self._space_lock = threading.Lock()
        self._closing = threading.Event()
        #: pluggable hooks (the failure detector and tests subscribe here)
        self.on_peer_lost: list[Callable[[str], None]] = []
        #: this proxy's observability hub — its own site's telemetry
        #: only, per the paper's layer-3 model; the grid view is compiled
        #: on demand over OBS_DUMP, never pushed.
        self.obs = ObsHub(name, clock=clock)
        _m = self.obs.metrics
        self._m_req_sent = _m.counter("request.sent")
        self._m_req_retries = _m.counter("request.retries")
        self._m_req_timeouts = _m.counter("request.timeouts")
        self._m_req_unavailable = _m.counter("request.peer_unavailable")
        #: per-op count of the trace roots :meth:`request` head-samples
        self._trace_roots: defaultdict[int, Iterator[int]] = defaultdict(itertools.count)
        #: token control plane: this proxy's replica of the grid's token
        #: service (shared key, own revocation list converging by gossip)
        self.tokens = tokens
        self._service_token: Optional[Token] = None
        #: revocation-gossip bookkeeping: peers we are already pulling
        #: the revocation list from (dedups bursts of repoch heartbeats)
        self._rlist_pulling: set[str] = set()
        self._rlist_lock = threading.Lock()
        self._m_auth_pulls = _m.counter("auth.rlist.pulls")
        self._m_auth_merged = _m.counter("auth.rlist.merged")
        #: handshake resumption: server-side ticket keeper plus the
        #: client-side cache of tickets issued to us, keyed by peer name
        self.ticket_keeper = SessionTicketKeeper(clock)
        self._resumption: dict[str, ResumptionTicket] = {}
        #: the layered control-plane pipeline: decode → authorize →
        #: handler lookup → respond, blocking handlers on a sized pool
        self.pipeline = DispatchPipeline(
            name=f"{name}-dispatch", workers=DISPATCH_WORKERS, obs=self.obs
        )
        self._register_handlers()
        #: extension op handlers: op code -> fn(message, peer) -> reply |
        #: None.  Checked before the built-ins; always run on the pool.
        self.extension_handlers = self.pipeline.overrides
        #: optional usage ledger (reward mechanisms); set by the Grid
        self.ledger = None
        #: optional workload manager (set by attach_wms): this proxy is
        #: then the grid's queue authority for the JOB_QSUBMIT/JOB_CLAIM
        #: /JOB_STATUS/JOB_DONE ops
        self.wms = None
        self._wms_claim_ids = itertools.count(1)
        #: peer health, fed by inbound traffic and tunnel-close events;
        #: failover paths order candidate peers by this detector's verdict
        self.health = FailureDetector(
            clock=clock, suspect_after=SUSPECT_AFTER, dead_after=DEAD_AFTER
        )
        # Failure-detector transitions are rare and load-bearing: count
        # every one, so a flapping peer is visible in the OBS_DUMP view.
        _m_suspect = _m.counter("health.transitions.suspect")
        _m_dead = _m.counter("health.transitions.dead")
        _m_recover = _m.counter("health.transitions.recover")
        self.health.on_suspect.append(lambda peer: _m_suspect.inc())
        self.health.on_dead.append(lambda peer: _m_dead.inc())
        self.health.on_recover.append(lambda peer: _m_recover.inc())

    # ------------------------------------------------------------------
    # Layer 1: tunnels
    # ------------------------------------------------------------------

    def listen(self, listener: Listener) -> None:
        """Start accepting inbound tunnel connections on ``listener``."""
        if self._listener is not None:
            raise ProxyError(f"proxy {self.name!r} is already listening")
        self._listener = listener

        def accept_loop() -> None:
            while not self._closing.is_set():
                try:
                    raw = listener.accept(timeout=0.5)
                except TransportError:
                    if self._closing.is_set():
                        return
                    continue
                if self._closing.is_set():
                    raw.close()
                    return
                # Handshakes run off the accept loop (a slow or hostile
                # dialer must not block other connections); the threads
                # are tracked so shutdown can join them.
                worker = threading.Thread(  # gridlint: disable=GL102 -- handshake does blocking crypto I/O off the accept loop; tracked and joined on shutdown
                    target=self._accept_tunnel,
                    args=(raw,),
                    daemon=True,
                    name=f"{self.name}-accept",
                )
                with self._handshake_lock:
                    self._handshake_threads = [
                        t for t in self._handshake_threads if t.is_alive()
                    ]
                    self._handshake_threads.append(worker)
                worker.start()

        self._accept_thread = threading.Thread(  # gridlint: disable=GL102 -- accept loop owns the blocking listener socket; joined on shutdown
            target=accept_loop, daemon=True, name=f"{self.name}-listener"
        )
        self._accept_thread.start()

    def _accept_tunnel(self, raw: Channel) -> None:
        try:
            tunnel = Tunnel.establish_server(
                raw,
                self.name,
                self.keypair,
                self.certificate,
                self.trust_anchor,
                self.clock,
                ticket_keeper=self.ticket_keeper,
            )
        except TunnelError:
            return  # unauthenticated peers are silently discarded
        self._install_tunnel(tunnel)

    def connect_to_peer(
        self,
        raw: Optional[Channel] = None,
        *,
        dial: Optional[Callable[[], Channel]] = None,
        retry: Optional[RetryPolicy] = None,
        peer: Optional[str] = None,
    ) -> Tunnel:
        """Dial a peer proxy.

        Pass an established ``raw`` channel for a single handshake
        attempt, or a ``dial`` factory to retry interrupted handshakes on
        a fresh channel per attempt (see :meth:`Tunnel.dial_with_retry`).

        ``peer`` is an optional *hint* naming who we expect to reach: if
        a resumption ticket from an earlier handshake with that peer is
        cached, it is offered and the dial skips the DH key exchange
        (the server falls back to a full handshake if it declines).  The
        tunnel still authenticates the peer — a hint can never pick the
        wrong certificate, only waste one ticket offer.
        """
        if (raw is None) == (dial is None):
            raise ProxyError("connect_to_peer needs exactly one of raw/dial")
        resumption = self._resumption.get(peer) if peer else None
        if dial is not None:
            tunnel = Tunnel.dial_with_retry(
                dial,
                self.name,
                self.keypair,
                self.certificate,
                self.trust_anchor,
                self.clock,
                retry=retry,
                resumption=resumption,
            )
        else:
            tunnel = Tunnel.establish_client(
                raw,
                self.name,
                self.keypair,
                self.certificate,
                self.trust_anchor,
                self.clock,
                resumption=resumption,
            )
        self._install_tunnel(tunnel)
        # Introduce ourselves so the peer can map tunnel -> proxy name.
        self._send_control(
            tunnel, ControlMessage(op=Op.HELLO, body={"site": self.site.name}, sender=self.name)
        )
        return tunnel

    def _install_tunnel(self, tunnel: Tunnel) -> None:
        if self._closing.is_set():
            # A handshake that completed mid-shutdown must not resurrect
            # the proxy: refuse the tunnel instead of installing it.
            tunnel.close()
            return
        tunnel.on_frame(FrameKind.CONTROL, lambda f: self._on_control(tunnel, f))
        tunnel.on_frame_batch(
            FrameKind.CONTROL, lambda fs: self._on_control_batch(tunnel, fs)
        )
        tunnel.on_frame(FrameKind.MPI, lambda f: self._on_mpi(tunnel, f))
        tunnel.on_frame(FrameKind.HEARTBEAT, lambda f: self._on_heartbeat(tunnel, f))
        tunnel.on_close(self._on_tunnel_close)
        # A dead tunnel must not strand request() callers mid-wait — but
        # only requests sent over *this* tunnel are affected.
        tunnel.on_close(self._cancel_inflight_for_peer)
        tunnel.bind_metrics(self.obs.metrics)
        # Client side of a handshake: bank the session ticket (if the
        # server issued one) so the *next* dial to this peer can resume.
        ticket = tunnel.resumption_ticket
        if ticket is not None:
            self._resumption[tunnel.peer_name] = ticket
        with self._tunnel_lock:
            self._tunnels[tunnel.peer_name] = tunnel
        self.health.watch(tunnel.peer_name)
        tunnel.start()

    def _cancel_inflight_for_peer(self, tunnel: Tunnel) -> None:
        with self._inflight_lock:
            pending = list(self._inflight_by_peer.get(tunnel.peer_name, ()))
        for message_id in pending:
            self._tracker.cancel(
                message_id, f"tunnel to {tunnel.peer_name} closed"
            )

    def _on_tunnel_close(self, tunnel: Tunnel) -> None:
        with self._tunnel_lock:
            current = self._tunnels.get(tunnel.peer_name)
            stale = current is tunnel
            if stale:
                del self._tunnels[tunnel.peer_name]
        if stale:
            # A closed tunnel is a hard liveness signal: skip the
            # heartbeat timeout and degrade immediately.
            self.health.mark_dead(tunnel.peer_name)
        for callback in list(self.on_peer_lost):
            callback(tunnel.peer_name)

    def tunnel_to(self, peer_proxy: str) -> Tunnel:
        with self._tunnel_lock:
            tunnel = self._tunnels.get(peer_proxy)
        if tunnel is None or not tunnel.alive:
            raise PeerUnavailable(
                f"proxy {self.name!r} has no live tunnel to {peer_proxy!r}"
            )
        return tunnel

    def ranked_peers(self, candidates: list[str]) -> list[str]:
        """Order candidate peers by health: alive, then unknown, then dead.

        Dead peers stay in the list — last — so callers still reach them
        when every healthier option fails (the detector can be stale),
        but degraded sites are routed around first.
        """
        alive: list[str] = []
        unknown: list[str] = []
        dead: list[str] = []
        for peer in candidates:
            try:
                state = self.health.state_of(peer)
            except KeyError:
                unknown.append(peer)
                continue
            if state is PeerState.ALIVE:
                alive.append(peer)
            elif state is PeerState.DEAD:
                dead.append(peer)
            else:
                unknown.append(peer)
        return alive + unknown + dead

    def peers(self) -> list[str]:
        with self._tunnel_lock:
            return sorted(self._tunnels)

    # ------------------------------------------------------------------
    # Control protocol
    # ------------------------------------------------------------------

    def _send_control(self, tunnel: Tunnel, message: ControlMessage) -> None:
        message.sender = self.name
        tunnel.send(message.to_frame())

    def _send_control_many(
        self, tunnel: Tunnel, messages: list
    ) -> None:
        """Group-commit a burst of replies: one vectored write for all."""
        for message in messages:
            message.sender = self.name
        tunnel.send_many([message.to_frame() for message in messages])

    def request(
        self,
        peer_proxy: str,
        op: int,
        body: Optional[dict] = None,
        timeout: float = 30.0,
        auth: Optional[bytes] = None,
    ) -> ControlMessage:
        """Send a control request to a peer and wait for the reply.

        Idempotent ops (see :data:`~repro.core.protocol.IDEMPOTENT_OPS`)
        are retried under :data:`DEFAULT_REQUEST_RETRY` on per-attempt
        timeouts and tunnel send failures; ``timeout`` is the *total*
        deadline budget across attempts.  Everything else runs exactly
        once — a duplicated JOB_SUBMIT would execute twice.

        ``auth`` is an opaque token blob stamped on the outgoing message
        for the peer's :class:`TokenAuthGuard`.  When omitted and this
        proxy has a token service, guarded infrastructure ops are
        stamped with the proxy's own service token automatically.

        A head-sampled request (the ambient trace's decision, or per op
        at this proxy outside any trace) runs inside a span whose context
        is stamped on the outgoing message, so the peer's handler span
        becomes its child; an unsampled one records no span, no header.
        """
        self._m_req_sent.inc()
        ctx = current_trace()
        sampled = head_sample(self._trace_roots[op]) if ctx is None else ctx.sampled
        if not (sampled and obs_enabled()):
            return self._request_with_retry(peer_proxy, op, body, timeout, auth)
        span = self.obs.spans.start(
            f"request.{Op.name_of(op)}",
            parent=ctx,
            tags={"peer": peer_proxy},
        )
        try:
            with use_trace(span.context):
                return self._request_with_retry(peer_proxy, op, body, timeout, auth)
        except ProxyError as exc:
            span.tags["error"] = str(exc)
            raise
        finally:
            span.finish()

    def _request_with_retry(
        self,
        peer_proxy: str,
        op: int,
        body: Optional[dict],
        timeout: float,
        auth: Optional[bytes] = None,
    ) -> ControlMessage:
        if op not in IDEMPOTENT_OPS:
            return self._request_once(peer_proxy, op, body, timeout, auth)
        # Each attempt gets an equal slice of the budget so a swallowed
        # request leaves room for its retries within ``timeout``.
        slice_timeout = timeout / DEFAULT_REQUEST_RETRY.max_attempts
        policy = dataclasses.replace(DEFAULT_REQUEST_RETRY, deadline=timeout)
        attempts = 0

        def attempt(deadline):
            nonlocal attempts
            attempts += 1
            if attempts > 1:
                self._m_req_retries.inc()
            return self._request_once(
                peer_proxy,
                op,
                body,
                max(deadline.clamp(slice_timeout), 0.001),
                auth,
            )

        try:
            return policy.call(attempt, idempotent=True)
        except RetryError as exc:
            raise exc.last

    def _request_once(
        self,
        peer_proxy: str,
        op: int,
        body: Optional[dict],
        timeout: float,
        auth: Optional[bytes] = None,
    ) -> ControlMessage:
        try:
            tunnel = self.tunnel_to(peer_proxy)
        except PeerUnavailable:
            self._m_req_unavailable.inc()
            raise
        message = ControlMessage(op=op, body=body or {}, sender=self.name)
        if auth is None and op in _AUTO_STAMP_OPS:
            auth = self._service_token_blob()
        if auth is not None:
            message.auth = auth
        ctx = current_trace()
        if ctx is not None and ctx.sampled and obs_enabled():
            message.trace = ctx.to_wire()
        self._tracker.expect(message)
        with self._inflight_lock:
            self._inflight_by_peer.setdefault(peer_proxy, set()).add(
                message.message_id
            )
        try:
            try:
                self._send_control(tunnel, message)
            except TunnelError as exc:
                self._m_req_unavailable.inc()
                raise PeerUnavailable(
                    f"send to {peer_proxy!r} failed: tunnel closed ({exc})"
                ) from exc
            try:
                reply = self._tracker.wait(message.message_id, timeout=timeout)
            except ProtocolError as exc:
                self._m_req_timeouts.inc()
                raise RequestTimeout(
                    f"{Op.name_of(op)} to {peer_proxy!r} got no reply "
                    f"within {timeout:.3f}s"
                ) from exc
        finally:
            self._tracker.discard(message.message_id)  # a failed send never waits
            with self._inflight_lock:
                self._inflight_by_peer.get(peer_proxy, set()).discard(
                    message.message_id
                )
        if reply.op == Op.ERROR:
            if reply.body.get("cancelled"):
                self._m_req_unavailable.inc()
                raise PeerUnavailable(
                    f"request to {peer_proxy!r} cancelled: "
                    f"{reply.body.get('error')}"
                )
            raise ProxyError(
                f"peer {peer_proxy!r} reported error: {reply.body.get('error')}"
            )
        return reply

    def _on_control(self, tunnel: Tunnel, frame: Frame) -> None:
        message = self.pipeline.decode(frame)
        if message is None:
            return  # corrupt control traffic is discarded
        self.health.heard_from(tunnel.peer_name)
        if message.is_reply():
            self._tracker.fulfil(message)
            return
        self.pipeline.dispatch(
            message,
            tunnel.peer_name,
            respond=lambda reply: self._send_control(tunnel, reply),
        )

    def _on_control_batch(self, tunnel: Tunnel, frames: list) -> None:
        """One drained backlog of control frames → one dispatch pass.

        Liveness bookkeeping is amortised over the burst, replies and
        fulfilments happen in arrival order, and every inline reply goes
        back through one ``send_many`` group commit instead of a syscall
        per message.
        """
        requests: list = []
        fulfilled = False
        for frame in frames:
            message = self.pipeline.decode(frame)
            if message is None:
                continue  # corrupt control traffic is discarded
            if message.is_reply():
                self._tracker.fulfil(message)
                fulfilled = True
            else:
                requests.append(message)
        if not requests and not fulfilled:
            return
        self.health.heard_from(tunnel.peer_name)
        if not requests:
            return
        self.pipeline.dispatch_batch(
            requests,
            tunnel.peer_name,
            respond=lambda reply: self._send_control(tunnel, reply),
            respond_many=lambda replies: self._send_control_many(tunnel, replies),
        )

    def _register_handlers(self) -> None:
        """Wire the op registry (built-ins) and the authorize guards.

        The :class:`TokenAuthGuard` makes every guarded op (jobs, WMS,
        MPI control, revoke) require a valid bearer token.
        The rule for ``blocking=True`` is "runs user code or costs
        milliseconds".  ``JOB_SUBMIT`` runs user task code, which must
        never stall the shared event loop (and could deadlock it by
        waiting on traffic the same loop delivers); ``AUTH_LOGIN`` pays
        PBKDF2; ``AUTH_REVOKE`` fans heartbeats out to every tunnel.
        Everything else, the WMS ops of :meth:`attach_wms` included, is
        a bounded operation of microseconds and runs inline.
        """
        pipe = self.pipeline
        pipe.add_guard(self._guard_sender_identity)
        pipe.add_guard(TokenAuthGuard(self.tokens, obs=self.obs))
        pipe.register(Op.HELLO, lambda message, peer: None)
        pipe.register(
            Op.PING,
            lambda message, peer: message.reply(Op.PONG, {"proxy": self.name}),
        )
        pipe.register(
            Op.STATUS_QUERY,
            lambda message, peer: message.reply(
                Op.STATUS_REPORT, {"status": self.local_status()}
            ),
        )
        pipe.register(Op.LOCATE_RESOURCE, self._handle_locate)
        pipe.register(Op.OBS_DUMP, self._handle_obs_dump)
        pipe.register(Op.AUTH_LOGIN, self._handle_auth_login, blocking=True)
        pipe.register(Op.AUTH_REFRESH, self._handle_auth_refresh)
        pipe.register(Op.AUTH_REVOKE, self._handle_auth_revoke, blocking=True)
        pipe.register(Op.AUTH_RLIST, self._handle_auth_rlist)
        pipe.register(Op.JOB_SUBMIT, self._handle_job_submit, blocking=True)
        pipe.register(
            Op.MPI_START, lambda message, peer: self._handle_mpi_start(message)
        )
        pipe.register(Op.MPI_END, self._handle_mpi_end)
        pipe.set_default(
            lambda message, peer: message.reply(
                Op.ERROR, {"error": f"unhandled op {Op.name_of(message.op)}"}
            )
        )

    def _guard_sender_identity(self, message: ControlMessage, peer: str):
        """Authorize stage: the claimed sender must be the handshake peer.

        The tunnel already authenticated ``peer`` cryptographically; a
        message claiming to be from someone else is spoofed and silently
        discarded ("discarding unauthorized traffic").  Anonymous
        messages (empty sender) pass — identity then rests solely on the
        tunnel's certificate, which is what handlers key on anyway.
        """
        if message.sender and message.sender != peer:
            return DROP
        return None

    def _handle_locate(
        self, message: ControlMessage, peer: str
    ) -> ControlMessage:
        node = message.body.get("node", "")
        site = self.directory.find_node(node)
        return message.reply(Op.RESOURCE_FOUND, {"node": node, "site": site})

    def _handle_mpi_end(
        self, message: ControlMessage, peer: str
    ) -> ControlMessage:
        self.end_app(message.body.get("app", ""))
        return message.reply(Op.MPI_ENDED, {})

    def _handle_obs_dump(
        self, message: ControlMessage, peer: str
    ) -> ControlMessage:
        dump = self.observability(
            trace_id=message.body.get("trace"),
            max_spans=message.body.get("max_spans"),
        )
        return message.reply(Op.OBS_DATA, {"obs": dump})

    def observability(
        self,
        trace_id: Optional[str] = None,
        max_spans: Optional[int] = None,
    ) -> dict[str, Any]:
        """This proxy's full telemetry view: metrics, spans, link traffic.

        The body served to ``OBS_DUMP`` peers and to the local UI; only
        this site's data, compiled fresh on each call.
        """
        dump = self.obs.dump(trace_id=trace_id, max_spans=max_spans)
        with self._tunnel_lock:
            tunnels = dict(self._tunnels)
        dump["tunnels"] = {
            peer_name: {
                "alive": tunnel.alive,
                "cipher_suite": tunnel.cipher_suite,
                "frames_sent": tunnel.stats.frames_sent,
                "frames_received": tunnel.stats.frames_received,
                "bytes_sent": tunnel.stats.bytes_sent,
                "bytes_received": tunnel.stats.bytes_received,
            }
            for peer_name, tunnel in tunnels.items()
        }
        dump["health"] = {
            peer_name: self.health.state_of(peer_name).value
            for peer_name in tunnels
            if self.health.is_watching(peer_name)
        }
        dump["auth"] = {
            "revocation_epoch": self.tokens.epoch,
            "tickets": {
                "issued": self.ticket_keeper.issued,
                "redeemed": self.ticket_keeper.redeemed,
                "rejected": self.ticket_keeper.rejected,
            },
        }
        sanitizer = racesan.active()
        dump["racesan"] = (
            sanitizer.stats() if sanitizer is not None else {"enabled": False}
        )
        return dump

    def attach_wms(self, wms) -> None:
        """Adopt a :class:`~repro.control.wms.WorkloadManager`.

        This proxy becomes the grid's queue authority: it serves the
        JOB_QSUBMIT/JOB_CLAIM/JOB_STATUS/JOB_DONE ops inline on the event
        loop (each is a lock, a dict update and one journal write and
        flush per job; a claim grants at most
        :data:`MAX_CLAIM_PER_REQUEST` jobs), and wires the failure
        detector so a claiming peer's death releases its leases back to
        the queue.
        """
        if self.wms is not None:
            raise ProxyError(
                f"proxy {self.name!r} already has a workload manager"
            )
        self.wms = wms
        pipe = self.pipeline
        pipe.register(Op.JOB_QSUBMIT, self._handle_wms_submit)
        pipe.register(Op.JOB_CLAIM, self._handle_wms_claim)
        pipe.register(Op.JOB_STATUS, self._handle_wms_status)
        pipe.register(Op.JOB_DONE, self._handle_wms_done)
        self.health.on_dead.append(self._wms_pilot_lost)

    def _wms_pilot_lost(self, peer: str) -> None:
        """Requeue-on-site-death: a dead peer's claims return to the queue.

        The detector fires this exactly once per alive→dead transition;
        ``release_pilot`` is idempotent anyway (a peer that never
        claimed, or already reported, releases nothing).
        """
        if self.wms is not None:
            self.wms.release_pilot(peer, error=f"pilot {peer} declared dead")

    # ------------------------------------------------------------------
    # Layer 2: token control plane (login once → HMAC bearer tokens)
    # ------------------------------------------------------------------

    def _service_token_blob(self) -> bytes:
        """This proxy's own bearer token, re-minted shortly before expiry.

        Stamped on guarded infrastructure requests (WMS claims, MPI
        control) so proxy-to-proxy traffic passes peers' token guards
        without a per-request login round trip.
        """
        token = self._service_token
        if token is None or token.expires_at - self.clock() < 30.0:
            # Benign race: two threads may re-mint concurrently; both
            # tokens are valid and the last write wins.
            token = self.tokens.mint_service_token(self.name)
            self._service_token = token
        return token.to_bytes()

    def _handle_auth_login(self, message: ControlMessage, peer: str) -> ControlMessage:
        body = message.body
        userid = body.get("userid", "")
        scopes = body.get("scopes")
        try:
            if "signature" in body:
                token = self.tokens.login_signature(
                    userid,
                    body.get("message", b""),
                    body["signature"],
                    scopes=scopes,
                )
            else:
                token = self.tokens.login(
                    userid, body.get("password", ""), scopes=scopes
                )
        except (AuthenticationError, TokenError) as exc:
            return message.reply(Op.AUTH_DENIED, {"reason": str(exc)})
        return message.reply(
            Op.AUTH_TOKEN,
            {"token": token.to_bytes(), "expires_at": token.expires_at},
        )

    def _handle_auth_refresh(self, message: ControlMessage, peer: str) -> ControlMessage:
        try:
            token = self.tokens.refresh(message.body.get("token", b""))
        except TokenError as exc:
            return message.reply(Op.AUTH_DENIED, {"reason": str(exc)})
        return message.reply(
            Op.AUTH_TOKEN,
            {"token": token.to_bytes(), "expires_at": token.expires_at},
        )

    def _handle_auth_revoke(self, message: ControlMessage, peer: str) -> ControlMessage:
        body = message.body
        try:
            if "token" in body:
                changed = self.tokens.revoke(body["token"])
            elif "userid" in body:
                changed = self.tokens.revoke_user(body["userid"])
            else:
                return message.reply(
                    Op.ERROR, {"error": "revoke needs a token or a userid"}
                )
        except TokenError as exc:
            return message.reply(Op.ERROR, {"error": str(exc)})
        if changed:
            # Push the bumped epoch out now rather than waiting for the
            # next heartbeat tick: peers see it and pull within one round
            # trip, which is what bounds accept-after-revoke exposure.
            self.send_heartbeats()
        return message.reply(Op.AUTH_REVOKED, {"epoch": self.tokens.epoch})

    def _handle_auth_rlist(self, message: ControlMessage, peer: str) -> ControlMessage:
        return message.reply(
            Op.AUTH_RLIST_DATA, {"rlist": self.tokens.rlist_wire()}
        )

    def auth_login(
        self,
        peer_proxy: str,
        userid: str,
        password: str,
        scopes=None,
        timeout: float = 30.0,
    ) -> bytes:
        """Log in at a remote proxy; returns the issued token blob."""
        body: dict[str, Any] = {"userid": userid, "password": password}
        if scopes is not None:
            body["scopes"] = list(scopes)
        reply = self.request(peer_proxy, Op.AUTH_LOGIN, body, timeout=timeout)
        if reply.op != Op.AUTH_TOKEN:
            raise AuthenticationError(
                str(reply.body.get("reason", "login denied"))
            )
        return reply.body["token"]

    def auth_refresh(
        self, peer_proxy: str, token_blob: bytes, timeout: float = 30.0
    ) -> bytes:
        """Swap a live token for a fresh one at the issuing proxy."""
        reply = self.request(
            peer_proxy, Op.AUTH_REFRESH, {"token": token_blob}, timeout=timeout
        )
        if reply.op != Op.AUTH_TOKEN:
            raise AuthenticationError(
                str(reply.body.get("reason", "refresh denied"))
            )
        return reply.body["token"]

    def auth_revoke(
        self,
        peer_proxy: str,
        token_blob: Optional[bytes] = None,
        userid: Optional[str] = None,
        timeout: float = 30.0,
    ) -> int:
        """Revoke a token (or a user's whole fleet) at a remote proxy.

        Returns the peer's revocation epoch after the revoke; gossip
        carries it to the rest of the grid from there.
        """
        body: dict[str, Any] = {}
        if token_blob is not None:
            body["token"] = token_blob
        if userid is not None:
            body["userid"] = userid
        reply = self.request(peer_proxy, Op.AUTH_REVOKE, body, timeout=timeout)
        if reply.op != Op.AUTH_REVOKED:
            # The peer's token guard answers {"error": …}, its handlers {"reason": …}.
            reason = reply.body.get("reason") or reply.body.get("error")
            raise AuthenticationError(str(reason or "revoke denied"))
        return int(reply.body.get("epoch", 0))

    def _schedule_rlist_pull(self, peer: str) -> None:
        """Bounce a revocation-list pull off the delivery thread.

        Heartbeats arrive on the I/O loop; the pull is a blocking
        request/reply, so it must run on the dispatch pool.  An in-flight
        set dedups the burst of repoch heartbeats a revocation causes.
        """
        with self._rlist_lock:
            if peer in self._rlist_pulling:
                return
            self._rlist_pulling.add(peer)
        try:
            self.pipeline.submit_blocking(
                lambda: self._pull_revocations(peer)
            )
        except RuntimeError:
            with self._rlist_lock:
                self._rlist_pulling.discard(peer)

    def _pull_revocations(self, peer: str) -> None:
        """Anti-entropy pull: fetch the peer's revocation list and merge."""
        try:
            if self._closing.is_set():
                return
            self._m_auth_pulls.inc()
            try:
                reply = self.request(peer, Op.AUTH_RLIST, timeout=10.0)
            except ProxyError:
                return  # peer died mid-pull; the next heartbeat retriggers
            wire = reply.body.get("rlist")
            if isinstance(wire, dict):
                try:
                    if self.tokens.merge_rlist(wire):
                        self._m_auth_merged.inc()
                except TokenError:
                    pass  # malformed gossip is discarded, never fatal
        finally:
            with self._rlist_lock:
                self._rlist_pulling.discard(peer)

    # ------------------------------------------------------------------
    # Layer 3: monitoring and jobs
    # ------------------------------------------------------------------

    def local_status(self) -> list[dict[str, Any]]:
        """This site's station states (the per-proxy collection duty)."""
        return [
            {
                "node": s.node,
                "site": s.site,
                "cpu_speed": s.cpu_speed,
                "ram_free": s.ram_free,
                "disk_free": s.disk_free,
                "running_tasks": s.running_tasks,
                "tasks_completed": s.tasks_completed,
                "alive": s.alive,
            }
            for s in self.site.statuses()
        ]

    def query_peer_status(self, peer_proxy: str, timeout: float = 30.0) -> list[dict]:
        reply = self.request(peer_proxy, Op.STATUS_QUERY, timeout=timeout)
        return reply.body["status"]

    def pick_node(self) -> str:
        """Least-loaded alive node at this site."""
        candidates = self.site.alive_nodes()
        if not candidates:
            raise ProxyError(f"site {self.site.name!r} has no alive nodes")
        return min(candidates, key=lambda n: (n.running_tasks, n.name)).name

    def submit_job_with_token(
        self,
        token_blob: bytes,
        task: str,
        params: Optional[dict] = None,
        target_site: Optional[str] = None,
        timeout: float = 60.0,
    ) -> Any:
        """Login-once job path: authorise by bearer token, delegate to hop.

        The origin checks the token (scope ``jobs:submit``) and the ACL;
        a remote target receives an *attenuated* delegation — scoped to
        job submission only and recording this proxy in the chain — so a
        compromised destination cannot replay the user's full token.
        """
        service = self.tokens
        target_site = target_site or self.site.name
        claims = service.verify_blob(token_blob, required_scope="jobs:submit")
        self.acl.check(claims.userid, f"site:{target_site}", "submit")
        if target_site == self.site.name:
            node = self.pick_node()
            result, elapsed = self._timed_execute(node, task, params, timeout)
            self._account(claims.userid, self.site.name, node, task, elapsed)
            return result
        # Already verified: hand it over parsed; the child is reused while it lives.
        delegated = service.delegate(
            claims, delegate_to=self.name, scopes=("jobs:submit",)
        )
        body = {
            "task": task,
            "params": params or {},
            "origin": self.site.name,
        }
        # Sites may run several proxies; fail over on connectivity errors
        # (a policy rejection from a live proxy is final, not retried).
        # Peers the failure detector has declared dead are tried last, so
        # a degraded site is routed around without waiting for errors.
        last_error: Optional[ProxyError] = None
        for peer in self.ranked_peers(self.directory.proxies_of_site(target_site)):
            try:
                reply = self.request(
                    peer,
                    Op.JOB_SUBMIT,
                    body,
                    timeout=timeout,
                    auth=delegated.to_bytes(),
                )
            except ProxyError as exc:
                last_error = exc
                continue
            if reply.op in (Op.JOB_REJECTED, Op.AUTH_DENIED):
                if reply.op == Op.AUTH_DENIED:
                    # It may know of a revocation we do not: never re-send this child.
                    service.forget_delegation(delegated)
                reason = reply.body.get("reason") or reply.body.get("error")
                raise ProxyError(f"job rejected by {peer!r}: {reason}")
            return reply.body.get("result")
        raise ProxyError(
            f"no proxy of site {target_site!r} reachable: {last_error}"
        )

    def _handle_job_submit(self, message: ControlMessage, peer: str) -> ControlMessage:
        # The guard already verified signature, expiry, revocation and
        # the jobs:submit scope.  The ACL check is the destination's own
        # policy say — the paper's check-at-both-ends rule — so its
        # subject is this site, never a resource the sender names.
        userid = message.auth_claims.userid  # type: ignore[attr-defined]
        try:
            self.acl.check(userid, f"site:{self.site.name}", "submit")
        except PermissionDenied as exc:
            return message.reply(Op.JOB_REJECTED, {"reason": str(exc)})
        try:
            node = self.pick_node()
            result, elapsed = self._timed_execute(
                node,
                message.body.get("task", "noop"),
                message.body.get("params", {}),
                timeout=60.0,
            )
        except Exception as exc:
            return message.reply(Op.JOB_REJECTED, {"reason": f"execution: {exc}"})
        self._account(
            userid,
            message.body.get("origin", ""),
            node,
            message.body.get("task", "noop"),
            elapsed,
        )
        return message.reply(Op.JOB_RESULT, {"result": result, "node": node})

    def _timed_execute(self, node, task, params, timeout):
        start = time.perf_counter()
        result = self.site.nodes[node].execute(task, params, timeout=timeout)
        return result, time.perf_counter() - start

    def _account(self, userid, origin_site, node, task, elapsed) -> None:
        """Record executed work in the usage ledger, if one is attached.

        Wall time stands in for CPU seconds — the single-worker node
        model makes them equivalent for accounting purposes.
        """
        if self.ledger is None:
            return
        self.ledger.record(
            userid=userid,
            origin_site=origin_site or self.site.name,
            executed_site=self.site.name,
            node=node,
            task=task,
            cpu_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Workload manager: authority handlers and pilot-side helpers
    # ------------------------------------------------------------------

    # A WmsError (malformed spec, unknown job) propagates: the pipeline
    # turns any handler exception into the ERROR reply.

    def _handle_wms_submit(self, message: ControlMessage, peer: str) -> ControlMessage:
        result = self.wms.submit(JobSpec.from_wire(message.body))
        return message.reply(Op.JOB_QUEUED, result)

    def _handle_wms_claim(self, message: ControlMessage, peer: str) -> ControlMessage:
        body = message.body
        # The pilot identity is the *authenticated* tunnel peer, not a
        # body field: it is the name the failure detector will report
        # dead, so leases key on it.
        assigned = self.wms.claim(
            pilot=peer,
            site=body.get("site", ""),
            capability=body.get("capability"),
            count=min(int(body.get("count", 1)), MAX_CLAIM_PER_REQUEST),
            claim_id=body.get("claim_id"),
            gap=body.get("gap"),
        )
        return message.reply(Op.JOB_ASSIGN, {"assigned": assigned})

    def _handle_wms_status(self, message: ControlMessage, peer: str) -> ControlMessage:
        result = self.wms.status(message.body.get("job_id"))
        return message.reply(Op.JOB_STATE, result)

    def _handle_wms_done(self, message: ControlMessage, peer: str) -> ControlMessage:
        body = message.body
        job_id, token = body.get("job_id", ""), body.get("token", "")
        if body.get("ok", True):
            result = self.wms.complete(job_id, token)
        else:
            result = self.wms.fail(job_id, token, body.get("error", ""))
        return message.reply(Op.JOB_DONE_ACK, result)

    def wms_submit(
        self, authority: str, spec: JobSpec, timeout: float = 30.0
    ) -> dict[str, Any]:
        """Enqueue a job at the authority proxy (idempotent on job_id)."""
        reply = self.request(authority, Op.JOB_QSUBMIT, spec.to_wire(), timeout=timeout)
        return reply.body

    def wms_claim(
        self,
        authority: str,
        count: int = 1,
        gap: Optional[float] = None,
        timeout: float = 30.0,
    ) -> list[dict[str, Any]]:
        """Pilot-style claim: ask the authority for work this site fits.

        The capability travels with the claim — compiled fresh from this
        site's Layer-3 status — and a generated ``claim_id`` makes the
        round trip idempotent: the retry policy may re-send the same
        claim, and the authority will replay the same assignment.
        """
        body: dict[str, Any] = {
            "site": self.site.name,
            "capability": site_capability(self.local_status()),
            "count": count,
            "claim_id": f"{self.name}:c{next(self._wms_claim_ids)}",
        }
        if gap is not None:
            body["gap"] = gap
        reply = self.request(authority, Op.JOB_CLAIM, body, timeout=timeout)
        return reply.body["assigned"]

    def wms_done(
        self,
        authority: str,
        job_id: str,
        token: str,
        ok: bool = True,
        error: str = "",
        timeout: float = 30.0,
    ) -> dict[str, Any]:
        """Report one attempt's outcome (idempotent on the claim token)."""
        body: dict[str, Any] = {"job_id": job_id, "token": token, "ok": ok}
        if error:
            body["error"] = error
        reply = self.request(authority, Op.JOB_DONE, body, timeout=timeout)
        return reply.body

    def wms_status(
        self,
        authority: str,
        job_id: Optional[str] = None,
        timeout: float = 30.0,
    ) -> dict[str, Any]:
        """Queue counters (default) or one job's state from the authority."""
        body = {} if job_id is None else {"job_id": job_id}
        reply = self.request(authority, Op.JOB_STATUS, body, timeout=timeout)
        return reply.body

    # ------------------------------------------------------------------
    # Layer 4: MPI multiplexing
    # ------------------------------------------------------------------

    def start_app(
        self,
        app_id: str,
        rank_to_site: dict[int, str],
        rank_to_node: dict[int, str],
        announce: bool = True,
    ) -> GridRouter:
        """Create this proxy's address space (and tell the peers to).

        Called on the originating proxy; with ``announce`` it sends
        MPI_START to every other participating site's proxy so they build
        their own address spaces before any rank starts talking.  If a
        site refuses, the spaces this call created go before it raises.
        """
        router = self._create_space(app_id, rank_to_site, rank_to_node)
        if not announce:
            return router
        participating = {s for s in rank_to_site.values() if s != self.site.name}
        wire_sites = {str(r): s for r, s in rank_to_site.items()}
        wire_nodes = {str(r): n for r, n in rank_to_node.items()}
        started: list[str] = []
        try:
            for site in sorted(participating):
                # Announce to *every* proxy of the site, not just the
                # primary: backups then hold the address space too, so
                # MPI traffic can fail over to them mid-application.
                site_started = False
                last_error: Optional[ProxyError] = None
                for peer in self.directory.proxies_of_site(site):
                    try:
                        reply = self.request(
                            peer,
                            Op.MPI_START,
                            {"app": app_id, "sites": wire_sites, "nodes": wire_nodes},
                        )
                    except ProxyError as exc:
                        last_error = exc
                        continue
                    if reply.op == Op.MPI_STARTED:
                        started.append(peer)
                        site_started = True
                if not site_started:
                    raise ProxyError(
                        f"no proxy of site {site!r} started app {app_id!r}: "
                        f"{last_error}"
                    )
        except BaseException:
            # Undo exactly what this call created: a space some peer
            # already held under this id belongs to someone else.
            self.end_app(app_id)
            self._end_at(app_id, started)
            raise
        return router

    def _create_space(
        self, app_id: str, rank_to_site: dict[int, str], rank_to_node: dict[int, str]
    ) -> GridRouter:
        with self._space_lock:
            if app_id in self._spaces:
                raise ProxyError(f"app {app_id!r} already started at {self.name!r}")
            space = AppSpace(app_id=app_id, site=self.site.name)
            space.populate(
                rank_to_site, rank_to_node, self.directory.site_to_proxy_map()
            )
            router = GridRouter(self, space)
            self._spaces[app_id] = space
            self._routers[app_id] = router
        # First proxy of the site to start the app owns the canonical
        # router (ranks bind to it); backups route inbound frames to it.
        self.site.register_app_router(app_id, router)
        return router

    def _handle_mpi_start(self, message: ControlMessage) -> ControlMessage:
        app_id = message.body["app"]
        rank_to_site = {int(r): s for r, s in message.body["sites"].items()}
        rank_to_node = {int(r): n for r, n in message.body["nodes"].items()}
        self._create_space(app_id, rank_to_site, rank_to_node)
        return message.reply(Op.MPI_STARTED, {"app": app_id})

    def router_for(self, app_id: str) -> GridRouter:
        with self._space_lock:
            try:
                return self._routers[app_id]
            except KeyError:
                raise ProxyError(
                    f"no app {app_id!r} at proxy {self.name!r}"
                ) from None

    def app_space(self, app_id: str) -> AppSpace:
        with self._space_lock:
            try:
                return self._spaces[app_id]
            except KeyError:
                raise ProxyError(
                    f"no app {app_id!r} at proxy {self.name!r}"
                ) from None

    def forward_mpi(
        self,
        app_id: str,
        peer_proxy: str,
        source: int,
        dest: int,
        tag: int,
        payload_blob: bytes,
    ) -> None:
        """Send one multiplexed MPI message through the secure tunnel.

        The virtual slave's preferred peer goes first; if its tunnel is
        down, the message fails over to the destination site's other
        proxies (every participating proxy holds the app's address space
        and delivers through the site-level router), so one proxy death
        degrades only its own site.  A full tunnel (:class:`TunnelBusy`)
        is congestion, not a dead route: it reaches the caller, because
        failing over would let this frame overtake the earlier ones still
        queued on the live tunnel — MPI's non-overtaking order.
        """
        frame = Frame(
            kind=FrameKind.MPI,
            headers={"app": app_id, "src": source, "dst": dest, "tag": tag},
            payload=payload_blob,
        )
        last_error: Optional[Exception] = None
        for peer in self._mpi_routes(app_id, dest, peer_proxy):
            try:
                self.tunnel_to(peer).send(frame)
                return
            except TunnelBusy:
                raise
            except (PeerUnavailable, TunnelError) as exc:
                last_error = exc
        raise PeerUnavailable(
            f"no route for MPI app {app_id!r} rank {dest}: {last_error}"
        )

    def _mpi_routes(
        self, app_id: str, dest: int, preferred: str
    ) -> Iterator[str]:
        """``preferred``, then — only once it has failed — the destination
        site's other proxies, healthiest first."""
        yield preferred
        try:
            dest_site = self.app_space(app_id).rank_to_site.get(dest)
            alternates = (
                [] if dest_site is None
                else self.ranked_peers(self.directory.proxies_of_site(dest_site))
            )
        except Exception:
            return  # directory gaps: the preferred peer was the only route
        for alt in alternates:
            if alt != preferred:
                yield alt

    def _on_mpi(self, tunnel: Tunnel, frame: Frame) -> None:
        self.health.heard_from(tunnel.peer_name)
        try:
            app_id = frame.headers["app"]
            # Prefer the site-level router: if this proxy is a backup for
            # its site, the ranks are blocked on the endpoints of the
            # proxy that originated the space, not on this proxy's own.
            router = self.site.app_router(app_id) or self.router_for(app_id)
            router.deliver_remote(
                source=frame.headers["src"],
                dest=frame.headers["dst"],
                tag=frame.headers["tag"],
                payload_blob=frame.payload,
            )
        except (KeyError, ProxyError):
            pass  # traffic for unknown apps is discarded

    def end_app(self, app_id: str, announce: bool = False) -> None:
        """Tear down an application's address space."""
        with self._space_lock:
            space = self._spaces.pop(app_id, None)
            router = self._routers.pop(app_id, None)
        if router is not None:
            self.site.unregister_app_router(app_id, router)
            router.close()
        if announce and space is not None:
            remote = {s for s in space.rank_to_site.values() if s != self.site.name}
            self._end_at(
                app_id,
                [p for site in remote for p in self.directory.proxies_of_site(site)],
            )

    def _end_at(self, app_id: str, peers: list[str]) -> None:
        for peer in peers:
            try:
                self.request(peer, Op.MPI_END, {"app": app_id})
            except Exception:
                pass  # best-effort teardown

    # ------------------------------------------------------------------
    # Explicit secure local channels
    # ------------------------------------------------------------------

    def open_secure_local_channel(self, node_keypair, node_certificate):
        """Give one local node an encrypted channel to its proxy.

        Intra-site traffic is cleartext by default ("based on the
        assumption that communication inside the site is already safe"),
        but the paper adds: "If a node in the site requires a safe
        channel, it can be made available by the proxy through an
        explicit call."  This is that call: the node presents its own
        CA-issued certificate, both ends run the standard handshake, and
        the node receives a secure channel on which the proxy services
        control requests (PING, STATUS_QUERY, LOCATE_RESOURCE, ...)
        exactly as it does for peer proxies.

        Returns the node-side :class:`SecureChannel`.
        """
        from repro.security.handshake import connect_secure
        from repro.transport.inproc import channel_pair

        node_raw, proxy_raw = channel_pair(
            name=f"{self.name}.local:{node_certificate.subject}"
        )
        result: dict = {}

        def proxy_side() -> None:
            try:
                tunnel = Tunnel.establish_server(
                    proxy_raw,
                    self.name,
                    self.keypair,
                    self.certificate,
                    self.trust_anchor,
                    self.clock,
                    expected_peer_role="node",
                )
            except TunnelError:
                return
            tunnel.on_frame(
                FrameKind.CONTROL, lambda f: self._on_control(tunnel, f)
            )
            tunnel.on_frame_batch(
                FrameKind.CONTROL, lambda fs: self._on_control_batch(tunnel, fs)
            )
            tunnel.start()
            result["tunnel"] = tunnel

        server = threading.Thread(  # gridlint: disable=GL102 -- one-shot peer for the loopback secure handshake; both sides block until it completes
            target=proxy_side, daemon=True, name=f"{self.name}-local-secure"
        )
        server.start()
        try:
            secure = connect_secure(
                node_raw,
                node_keypair,
                node_certificate,
                self.trust_anchor,
                self.clock,
                expected_peer_role="proxy",
            )
        except Exception as exc:
            server.join(timeout=30.0)
            raise ProxyError(
                f"proxy {self.name!r} rejected the local secure channel for "
                f"{node_certificate.subject!r}: {exc}"
            ) from exc
        server.join(timeout=30.0)
        if "tunnel" not in result:
            secure.close()
            raise ProxyError(
                f"proxy {self.name!r} rejected the local secure channel for "
                f"{node_certificate.subject!r}"
            )
        return secure

    # ------------------------------------------------------------------
    # Heartbeats (feeds the failure detector)
    # ------------------------------------------------------------------

    def send_heartbeats(self) -> None:
        """Emit one heartbeat on every live tunnel (callers own the period).

        The heartbeat also carries this proxy's revocation **epoch**
        (``repoch``) — the gossip digest.  Peers behind it pull the full
        list over AUTH_RLIST; peers without the header ignore it, which
        is the control protocol's expandable-header rule at work.
        """
        headers: dict[str, Any] = {"from": self.name, "repoch": self.tokens.epoch}
        with self._tunnel_lock:
            tunnels = list(self._tunnels.values())
        for tunnel in tunnels:
            try:
                tunnel.send(
                    Frame(kind=FrameKind.HEARTBEAT, headers=dict(headers))
                )
            except TunnelError:
                pass

    def start_heartbeats(self, interval: float, jitter: float = 0.1):
        """Heartbeat on a reactor timer instead of caller discipline.

        Every ``interval`` seconds (jittered ±``jitter``·interval so a
        grid of proxies doesn't beat in lockstep) the proxy emits
        heartbeats on all tunnels *and* re-evaluates the failure
        detector — silent peers transition to SUSPECT/DEAD on the timer,
        with no monitor thread and no manual ``check()`` calls.
        Idempotent; returns the timer handle.
        """
        if self._heartbeat_timer is None:
            from repro.transport.reactor import get_global_reactor

            self._heartbeat_timer = get_global_reactor().call_every(
                interval, self._heartbeat_tick, jitter=jitter
            )
        return self._heartbeat_timer

    def stop_heartbeats(self) -> None:
        timer, self._heartbeat_timer = self._heartbeat_timer, None
        if timer is not None:
            timer.cancel()

    def _heartbeat_tick(self) -> None:
        if self._closing.is_set():
            return
        self.send_heartbeats()
        self.health.check()

    def _on_heartbeat(self, tunnel: Tunnel, frame: Frame) -> None:
        self.health.heard_from(tunnel.peer_name)
        repoch = frame.headers.get("repoch")
        if isinstance(repoch, int) and repoch > self.tokens.epoch:
            # The peer has revocations we lack.  This callback runs on
            # the delivery thread, so the pull (a blocking request) is
            # bounced onto the dispatch pool.
            self._schedule_rlist_pull(tunnel.peer_name)

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """False once shutdown began — this proxy serves no new traffic."""
        return not self._closing.is_set()

    def shutdown(self) -> None:
        """Stop serving, in dependency order, and reap every worker.

        Listener first (no new connections), then the accept loop and
        any in-flight handshakes are joined, *then* tunnels close and
        their delivery paths are joined, and finally the dispatch pool
        stops.  The old ordering closed the listener and tunnels in one
        breath with no joins, so a shutdown could race its own accept
        loop into installing a fresh tunnel on a half-dead proxy.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        self.stop_heartbeats()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._handshake_lock:
            handshakes = list(self._handshake_threads)
            self._handshake_threads = []
        for worker in handshakes:
            worker.join(timeout=5.0)
        with self._tunnel_lock:
            tunnels = list(self._tunnels.values())
        for tunnel in tunnels:
            tunnel.close()
        for tunnel in tunnels:
            tunnel.join(timeout=5.0)
        self.pipeline.close()
        with self._space_lock:
            for router in self._routers.values():
                router.close()
            self._routers.clear()
            self._spaces.clear()

    def __repr__(self) -> str:
        return f"ProxyServer({self.name!r}, site={self.site.name!r})"
