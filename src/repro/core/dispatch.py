"""The control-plane dispatch pipeline: decode → authorize → lookup → respond.

The seed's :class:`~repro.core.proxy.ProxyServer` buried the whole
inbound control path in one ``_dispatch`` method: an if/elif ladder over
op codes, executed on whichever thread happened to deliver the frame.
With the reactor owning delivery, that thread is a *shared event loop* —
a handler that blocks (job execution, a slow extension) would stall every
tunnel on the loop, and a handler that waits for a reply arriving over
the same loop would deadlock it outright.

This module makes the stages explicit and gives blocking work somewhere
safe to run:

1. **decode** — :meth:`DispatchPipeline.decode` turns a frame into a
   :class:`~repro.core.protocol.ControlMessage`, discarding garbage (the
   security posture for unauthenticated noise is silence, not errors).
2. **authorize** — registered guards run before any handler; a guard can
   veto a message with a reply (e.g. "proxy is shutting down") or raise,
   which becomes an ERROR reply.  This stage is where per-request auth
   lives: :class:`TokenAuthGuard`
   verifies the bearer token riding the control header (at worst one
   HMAC + a revocation-epoch check, at best a hit in the token service's
   cache of verified blobs — the guard keeps none of its own — and never
   asymmetric crypto; gridlint GL105 enforces that budget).
3. **lookup** — the handler registry maps op → handler; ops registered
   ``blocking=True`` (job execution, any extension handler) are
   bounced to a **sized worker pool** so the event loop never stalls.
4. **respond** — the handler's reply (or the ERROR built from its
   exception) goes back through the caller-supplied ``respond`` sink;
   handlers returning ``None`` answer nothing (HELLO, notifications).

The pipeline is transport-agnostic: it never touches tunnels or sockets.
The proxy wires ``respond`` to the tunnel the request arrived on.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.protocol import ControlMessage, Op, ProtocolError
from repro.obs.metrics import enabled as obs_enabled
from repro.obs.trace import TraceContext, swap_trace
from repro.security.tokens import TokenError, TokenService
from repro.transport.frames import Frame
from repro.transport.reactor import on_reactor_thread

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import ObsHub

__all__ = [
    "DROP",
    "DispatchPipeline",
    "GUARDED_OP_SCOPES",
    "Handler",
    "TokenAuthGuard",
]

#: Guard verdict for silent discard — the unauthorized-traffic posture.
#: Returning a reply vetoes loudly; returning DROP vetoes silently.
DROP = object()

#: Guards and handlers both take (message, peer); a guard returning a
#: reply (or DROP) short-circuits the pipeline (the message is vetoed).
Guard = Callable[[ControlMessage, str], Optional[ControlMessage]]
Respond = Callable[[ControlMessage], None]


class Handler:
    """One registered op handler and its execution constraints."""

    __slots__ = ("fn", "blocking")

    def __init__(
        self,
        fn: Callable[[ControlMessage, str], Optional[ControlMessage]],
        blocking: bool = False,
    ):
        self.fn = fn
        self.blocking = blocking


class DispatchPipeline:
    """Layered dispatch for one proxy's control plane.

    ``workers`` bounds the pool that blocking handlers run on; the pool
    is created lazily (a proxy that never executes jobs never pays for
    it) and joined by :meth:`close`.
    """

    def __init__(
        self,
        name: str = "dispatch",
        workers: int = 4,
        obs: Optional["ObsHub"] = None,
    ):
        if workers <= 0:
            raise ValueError(f"worker pool needs at least one thread: {workers}")
        self.name = name
        self.workers = workers
        #: owner's observability hub; None runs the pipeline dark (zero
        #: instrument cost, used by benchmarks as the baseline)
        self.obs = obs
        # Hot-path instruments are resolved once, not per message.
        self._m_messages = obs.metrics.counter("dispatch.messages") if obs else None
        self._m_vetoed = obs.metrics.counter("dispatch.vetoed") if obs else None
        # op → (span name, latency histogram): the per-message f-string
        # and registry lookup are paid once per op, not per message.
        # Benignly racy: losers re-derive the same pair.
        self._op_instruments: dict[int, tuple[str, Any]] = {}
        self._handlers: dict[int, Handler] = {}
        #: live extension registry, consulted *before* the built-in
        #: handlers so deployments can override any op ("the codes used
        #: in this protocol can be expanded").  Extension code is
        #: unknown code: it always runs on the worker pool.
        self.overrides: dict[
            int, Callable[[ControlMessage, str], Optional[ControlMessage]]
        ] = {}
        self._guards: list[Guard] = []
        self._default: Optional[Handler] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = threading.Event()

    # -- registry --------------------------------------------------------

    def register(
        self,
        op: int,
        fn: Callable[[ControlMessage, str], Optional[ControlMessage]],
        blocking: bool = False,
    ) -> None:
        """Map ``op`` to ``fn`` (replacing any previous handler).

        ``blocking=True`` routes execution to the worker pool — required
        for anything that runs user code, does I/O, or waits on replies
        that arrive over the same event loop.
        """
        self._handlers[op] = Handler(fn, blocking=blocking)

    def unregister(self, op: int) -> None:
        self._handlers.pop(op, None)

    def set_default(
        self, fn: Callable[[ControlMessage, str], Optional[ControlMessage]]
    ) -> None:
        """Handler for ops with no registration (the ERROR-reply fallback)."""
        self._default = Handler(fn, blocking=False)

    def add_guard(self, guard: Guard) -> None:
        """Install an authorize-stage check run before every handler."""
        self._guards.append(guard)

    def registered_ops(self) -> list[int]:
        return sorted(self._handlers)

    # -- stage 1: decode -------------------------------------------------

    def decode(self, frame: Frame) -> Optional[ControlMessage]:
        """Frame → message, or ``None`` for undecodable traffic."""
        try:
            return ControlMessage.from_frame(frame)
        except ProtocolError:
            return None

    # -- stages 2-4: authorize, lookup, respond --------------------------

    def dispatch(
        self, message: ControlMessage, peer: str, respond: Respond
    ) -> None:
        """Run one decoded request through guards and its handler.

        Never raises: handler faults become ERROR replies, and respond
        failures (peer vanished mid-reply) are swallowed — the control
        plane's callers retry on timeout, not on our exceptions.
        """
        if self._closed.is_set():
            return
        if self._m_messages is not None:
            self._m_messages.inc()
        for guard in self._guards:
            try:
                veto = guard(message, peer)
            except Exception as exc:
                veto = message.reply(Op.ERROR, {"error": str(exc)})
            if veto is DROP:
                if self._m_vetoed is not None:
                    self._m_vetoed.inc()
                return
            if veto is not None:
                if self._m_vetoed is not None:
                    self._m_vetoed.inc()
                self._respond(veto, respond)
                return
        override = self.overrides.get(message.op)
        if override is not None:
            handler = Handler(override, blocking=True)
        else:
            handler = self._handlers.get(message.op, self._default)
        if handler is None:
            return
        if handler.blocking:
            try:
                self._ensure_pool().submit(
                    self._run_handler, handler, message, peer, respond
                )
            except RuntimeError:
                pass  # pool shut down mid-dispatch: the proxy is closing
        else:
            self._run_handler(handler, message, peer, respond)

    def dispatch_batch(
        self,
        messages: list,
        peer: str,
        respond: Respond,
        respond_many: Optional[Callable[[list], None]] = None,
    ) -> None:
        """Dispatch a drained backlog of requests in one pass.

        Semantics are identical to calling :meth:`dispatch` per message;
        the optimisation is reply **group commit**: replies produced
        inline (non-blocking handlers, guard vetoes) are collected and
        flushed through ``respond_many`` as one burst — one vectored
        socket write for the whole backlog.  Blocking handlers finish on
        the worker pool after this call returns and respond singly, as
        they always did.  If the burst flush fails, every reply falls
        back to the per-reply path (which retries once off-loop), so no
        reply is lost that ``dispatch`` would have delivered.
        """
        if respond_many is None or len(messages) <= 1:
            for message in messages:
                self.dispatch(message, peer, respond)
            return
        window_open = True
        window_lock = threading.Lock()
        batch: list = []

        def sink(reply: ControlMessage) -> None:
            # Inline replies land in the batch; late replies (a blocking
            # handler completing after the flush) go out singly.  The
            # lock closes the window atomically — a pool thread racing
            # the flush either makes the batch or responds itself, never
            # falls between.
            with window_lock:
                if window_open:
                    batch.append(reply)
                    return
            respond(reply)

        for message in messages:
            self.dispatch(message, peer, sink)
        with window_lock:
            window_open = False
        if not batch:
            return
        if len(batch) == 1:
            self._respond(batch[0], respond)
            return
        try:
            respond_many(batch)
        except Exception:
            for reply in batch:
                self._respond(reply, respond)

    def _run_handler(
        self, handler: Handler, message: ControlMessage, peer: str, respond: Respond
    ) -> None:
        # Obs on: a per-op latency histogram for every message, and for a
        # sampled one (it carries a trace header) a child span whose context
        # nested requests inherit; an unsampled handler's start new roots.
        obs = self.obs
        histogram = span = previous = None
        start = 0.0
        if obs is not None and obs_enabled():
            cached = self._op_instruments.get(message.op)
            if cached is None:
                op_name = Op.name_of(message.op)
                cached = (
                    f"handle.{op_name}",
                    obs.metrics.histogram(  # gridlint: disable=GL301 -- per-op cache: lookup paid once per op code, then served from _op_instruments
                        f"dispatch.latency_s.{op_name}"
                    ),
                )
                self._op_instruments[message.op] = cached
            span_name, histogram = cached
            parent = TraceContext.from_wire(message.trace)
            if parent is not None:
                span = obs.spans.start(span_name, parent=parent, tags={"peer": peer})
                previous = swap_trace(span.context)
            start = time.perf_counter()
        try:
            reply = handler.fn(message, peer)
        except Exception as exc:  # any handler fault becomes an ERROR reply
            reply = message.reply(Op.ERROR, {"error": str(exc)})
            if span is not None:
                span.tags["error"] = str(exc)
        finally:
            if span is not None:
                swap_trace(previous)
        if histogram is not None:
            histogram.observe(time.perf_counter() - start)
        if span is not None:
            span.finish()
        if reply is not None:
            self._respond(reply, respond)

    def _respond(
        self, reply: ControlMessage, respond: Respond, requeued: bool = False
    ) -> None:
        try:
            respond(reply)
        except Exception:
            # Tunnels refuse to block an event-loop thread: an inline
            # handler's reply fails fast (TunnelBusy) whenever a worker
            # momentarily holds the send lock.  That is congestion, not
            # failure — dropping the reply here silently costs the peer
            # its full request timeout (fatal for non-idempotent ops,
            # which never retry).  Retry once from the worker pool,
            # where a blocking send is safe; a failure there (peer
            # vanished mid-reply) stays swallowed — callers retry on
            # timeout, not on our exceptions.
            if requeued or not on_reactor_thread():
                return
            try:
                self._ensure_pool().submit(self._respond, reply, respond, True)
            except RuntimeError:
                pass  # pool shut down mid-dispatch: the proxy is closing

    # -- the worker pool -------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                if self._closed.is_set():
                    raise RuntimeError(f"{self.name}: pipeline closed")
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=f"{self.name}-worker",
                )
            return self._pool

    def submit_blocking(self, fn: Callable[[], None]) -> None:
        """Run arbitrary blocking work on the pool (off-pipeline users)."""
        self._ensure_pool().submit(fn)

    def pool_started(self) -> bool:
        with self._pool_lock:
            return self._pool is not None

    def close(self) -> None:
        """Stop accepting work and join the pool (idempotent)."""
        self._closed.set()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


#: Which ops require which token scope.
#: Everything that executes or mutates work is here; pure liveness and
#: telemetry ops (PING, STATUS_QUERY, OBS_DUMP, …) stay open — they are
#: how the grid notices problems, auth problems included.  AUTH_LOGIN /
#: AUTH_REFRESH / AUTH_RLIST stay open by construction: they are how a
#: principal *gets* a token.  AUTH_REVOKE requires a scope so a stolen
#: user token cannot be used to revoke everyone else's.
GUARDED_OP_SCOPES: dict[int, str] = {
    Op.JOB_SUBMIT: "jobs:submit",
    Op.JOB_QSUBMIT: "wms:submit",
    Op.JOB_CLAIM: "wms:claim",
    Op.JOB_STATUS: "wms:read",
    Op.JOB_DONE: "wms:done",
    Op.MPI_START: "mpi:start",
    Op.MPI_END: "mpi:end",
    Op.AUTH_REVOKE: "auth:revoke",
}


class TokenAuthGuard:
    """Authorize-stage bearer-token check for guarded ops.

    Every proxy installs one with :meth:`DispatchPipeline.add_guard`
    over its :class:`~repro.security.tokens.TokenService`.  The guard
    budget is strict — it runs on every guarded message, often on the
    event-loop thread — so the verdict is one HMAC at worst and a cache
    hit at best, never an asymmetric-crypto call (gridlint GL105 walks
    the call graph from guards to enforce exactly that).

    The guard keeps no cache: the service's epoch-stamped LRU of verified
    blobs serves every verification on this proxy (origin submits,
    delegation, refresh), so a token is decoded and HMAC-checked once per
    proxy and epoch.  A hit counts as ``auth.token.cache_hits`` and still
    runs ``check_claims`` (expiry, skew, depth, revocation, this op's scope).

    On success the verified :class:`~repro.security.tokens.Token` is
    stashed on the message as ``auth_claims`` for the handler.
    """

    def __init__(
        self,
        service: TokenService,
        scopes: Optional[dict[int, str]] = None,
        obs: Optional["ObsHub"] = None,
    ) -> None:
        self.service = service
        self.scopes = dict(GUARDED_OP_SCOPES if scopes is None else scopes)
        self.obs = obs
        # Instruments resolved once at construction (GL301).
        metrics = obs.metrics if obs is not None else None
        self._m_ok = metrics.counter("auth.token.ok") if metrics else None
        self._m_denied = metrics.counter("auth.token.denied") if metrics else None
        self._m_hits = metrics.counter("auth.token.cache_hits") if metrics else None
        self._h_verify = metrics.histogram("auth.verify_s") if metrics else None

    def _deny(self, message: ControlMessage, reason: str) -> ControlMessage:
        if self._m_denied is not None:
            self._m_denied.inc()
        return message.reply(Op.AUTH_DENIED, {"error": reason})

    def __call__(
        self, message: ControlMessage, peer: str
    ) -> Optional[ControlMessage]:
        required = self.scopes.get(message.op)
        if required is None:
            return None
        blob = message.auth
        if not blob:
            return self._deny(
                message,
                f"{Op.name_of(message.op)} requires a token "
                f"with scope {required!r}",
            )
        token = self.service.cached(blob)
        if token is not None:
            # Signature already proven; re-check the claims that can
            # drift (clock moved past expiry, different op → scope).
            try:
                self.service.check_claims(token, required_scope=required)
            except TokenError as exc:
                return self._deny(message, str(exc))
            if self._m_hits is not None:
                self._m_hits.inc()
            if self._m_ok is not None:
                self._m_ok.inc()
            message.auth_claims = token  # type: ignore[attr-defined]
            return None
        # Cache miss: the full verify, timed, and under a span if sampled.
        obs = self.obs
        span = None
        parent = TraceContext.from_wire(message.trace)
        if obs is not None and parent is not None and obs_enabled():
            span = obs.spans.start(
                "request.auth",
                parent=parent,
                tags={"peer": peer, "op": Op.name_of(message.op)},
            )
        start = time.perf_counter()
        try:
            token = self.service.verify_blob(blob, required_scope=required)
        except TokenError as exc:
            if span is not None:
                span.tags["error"] = str(exc)
            return self._deny(message, str(exc))
        finally:
            if self._h_verify is not None:
                self._h_verify.observe(time.perf_counter() - start)
            if span is not None:
                span.finish()
        if self._m_ok is not None:
            self._m_ok.inc()
        message.auth_claims = token  # type: ignore[attr-defined]
        return None
