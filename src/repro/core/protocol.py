"""The inter-proxy control protocol.

The paper standardised control communication "through the creation of a
protocol used among the proxies.  The codes used in this protocol can be
expanded to deal with a new situation."  This module implements that:

* :class:`Op` — the operation-code registry.  Core codes are predefined;
  :func:`register_op` adds new ones at runtime without touching the
  dispatcher, which is the expandability the paper calls for.
* :data:`OP_SPECS` — the op table: one :class:`OpSpec` row per request
  op, the only place its reply, retry, scope and stamp are written.
* :class:`ControlMessage` — a request or reply with a correlation id,
  carried in a CONTROL frame.
* :class:`RequestTracker` — matches replies to outstanding requests on a
  proxy's control channel.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from repro.transport.frames import Frame, FrameKind, decode_value, encode_value

__all__ = [
    "ControlMessage",
    "OP_SPECS",
    "Op",
    "OpSpec",
    "ProtocolError",
    "RequestTracker",
    "UNLISTED",
    "register_op",
]


class ProtocolError(Exception):
    """Malformed control traffic or unknown op-code."""


class Op:
    """Well-known control operation codes.

    Codes are small ints on the wire; names exist for logs and dispatch
    tables.  100–999 are reserved for the core protocol; 1000+ belong to
    extensions registered with :func:`register_op`.
    """

    # -- session / liveness
    HELLO = 100  # proxy introduces itself after the tunnel comes up
    PING = 101
    PONG = 102
    # 103 is retired (a goodbye op nothing ever sent): do not reuse the number
    # -- monitoring / control (layer 3)
    STATUS_QUERY = 200  # "send me your site's status"
    STATUS_REPORT = 201
    LOCATE_RESOURCE = 202  # resource location service
    RESOURCE_FOUND = 203
    OBS_DUMP = 210  # "send me your metrics and trace spans"
    OBS_DATA = 211
    # 212 is retired (a removed worker-stats op): do not reuse the number
    # -- authentication / permissions (layer 2)
    # 300/301 are retired (the per-request RSA credential check and its
    # ack, replaced by the token plane): do not reuse the numbers
    AUTH_DENIED = 302
    # -- token control plane (login once → HMAC bearer tokens)
    AUTH_LOGIN = 310  # userid+password (or signature) → AUTH_TOKEN
    AUTH_TOKEN = 311
    AUTH_REFRESH = 312  # live token → fresh token with the same claims
    AUTH_REVOKE = 313  # kill one token (or every token of a user)
    AUTH_REVOKED = 314
    AUTH_RLIST = 315  # anti-entropy pull of the revocation list
    AUTH_RLIST_DATA = 316
    # -- jobs
    JOB_SUBMIT = 400
    # 401 is retired (an accept ack nothing ever sent): do not reuse the number
    JOB_REJECTED = 402
    JOB_RESULT = 403
    # -- workload manager (durable queue + pilot claims)
    JOB_QSUBMIT = 410  # enqueue a JobSpec at the WMS authority
    JOB_QUEUED = 411
    JOB_CLAIM = 412  # pilot asks for work, carrying its capability
    JOB_ASSIGN = 413
    JOB_STATUS = 414  # queue counters, or one job's state
    JOB_STATE = 415
    JOB_DONE = 416  # attempt outcome report (ok or failed)
    JOB_DONE_ACK = 417
    # -- MPI support (layer 4)
    MPI_START = 500  # create the application address space
    MPI_STARTED = 501
    MPI_END = 502
    MPI_ENDED = 503
    # -- generic
    ERROR = 900

    _names: dict[int, str] = {}

    @classmethod
    def name_of(cls, code: int) -> str:
        return cls._names.get(code, f"op:{code}")

    @classmethod
    def is_known(cls, code: int) -> bool:
        return code in cls._names


# Populate the registry from the class attributes.
Op._names = {
    value: name
    for name, value in vars(Op).items()
    if isinstance(value, int) and not name.startswith("_")
}


class OpSpec(NamedTuple):
    """One request op's row: the ``reply`` a served request gets (``None``:
    a notification, answered with nothing), whether the request path may
    re-send it (``idempotent``), the token ``scope`` a peer's guard
    demands (``None``: open), and whether the request path ``stamp``s the
    proxy's own service token on it when the caller passes none."""

    reply: Optional[int] = None
    idempotent: bool = False
    scope: Optional[str] = None
    stamp: bool = False


#: The row of an op the table does not list (a reply op): no reply owed,
#: never re-sent, open, unstamped.
UNLISTED = OpSpec()

#: The op table: the only place an op's reply, retry, scope and stamp are
#: written.  Reads re-send safely; the WMS ops carry their own dedup keys
#: (job_id, claim_id, the per-attempt token); a repeated AUTH_LOGIN or
#: AUTH_REFRESH mints another valid token and AUTH_REVOKE grows a
#: grow-only set.  A repeated JOB_SUBMIT would run the job twice and
#: MPI_START / MPI_END change address spaces, so their timeouts are
#: indeterminate.  What executes or mutates work is guarded; liveness and
#: telemetry stay open (they are how the grid notices problems), as do
#: the ops that get a principal a token.  Every guarded op but JOB_SUBMIT
#: is stamped: a job carries the user's delegated token, and a service
#: stamp would launder it into proxy identity.
OP_SPECS: dict[int, OpSpec] = {
    Op.HELLO: OpSpec(None, idempotent=True),
    Op.PING: OpSpec(Op.PONG, idempotent=True),
    Op.STATUS_QUERY: OpSpec(Op.STATUS_REPORT, idempotent=True),
    Op.LOCATE_RESOURCE: OpSpec(Op.RESOURCE_FOUND, idempotent=True),
    Op.OBS_DUMP: OpSpec(Op.OBS_DATA, idempotent=True),
    Op.AUTH_LOGIN: OpSpec(Op.AUTH_TOKEN, idempotent=True),
    Op.AUTH_REFRESH: OpSpec(Op.AUTH_TOKEN, idempotent=True),
    Op.AUTH_REVOKE: OpSpec(Op.AUTH_REVOKED, idempotent=True, scope="auth:revoke", stamp=True),
    Op.AUTH_RLIST: OpSpec(Op.AUTH_RLIST_DATA, idempotent=True),
    Op.JOB_SUBMIT: OpSpec(Op.JOB_RESULT, scope="jobs:submit"),
    Op.JOB_QSUBMIT: OpSpec(Op.JOB_QUEUED, idempotent=True, scope="wms:submit", stamp=True),
    Op.JOB_CLAIM: OpSpec(Op.JOB_ASSIGN, idempotent=True, scope="wms:claim", stamp=True),
    Op.JOB_STATUS: OpSpec(Op.JOB_STATE, idempotent=True, scope="wms:read", stamp=True),
    Op.JOB_DONE: OpSpec(Op.JOB_DONE_ACK, idempotent=True, scope="wms:done", stamp=True),
    Op.MPI_START: OpSpec(Op.MPI_STARTED, scope="mpi:start", stamp=True),
    Op.MPI_END: OpSpec(Op.MPI_ENDED, scope="mpi:end", stamp=True),
}

_extension_codes = itertools.count(1000)
_registry_lock = threading.Lock()


def register_op(name: str, code: Optional[int] = None, spec: OpSpec = UNLISTED) -> int:
    """Register an extension op-code and its :data:`OP_SPECS` row;
    returns the assigned code.

    New situations get new codes without modifying the core protocol —
    the paper's expandability requirement.
    """
    with _registry_lock:
        if code is None:
            code = next(_extension_codes)
        if code in Op._names:
            raise ProtocolError(
                f"op code {code} already registered as {Op._names[code]!r}"
            )
        if not name:
            raise ProtocolError("empty op name")
        Op._names[code] = name
        OP_SPECS[code] = spec
        return code


_message_ids = itertools.count(1)


@dataclass
class ControlMessage:
    """A control request or reply between proxies.

    ``trace`` is the expandable-header trace context (``{"tid", "sid"}``
    as produced by :meth:`repro.obs.trace.TraceContext.to_wire`): the
    originating proxy stamps it on requests, the dispatch pipeline
    copies it onto replies, and peers that predate it simply ignore the
    extra header key — the expandability the paper calls for.

    ``auth`` rides the same expandable header: an opaque bearer-token
    blob (:meth:`repro.security.tokens.Token.to_bytes`, which embeds the
    delegation chain) stamped on guarded requests.  Like ``trace`` it is
    advisory at this layer — a malformed value decodes to ``None`` and
    the auth *decision* belongs to the dispatch guard.  Replies never
    carry it: the credential authorises the request, not the answer.
    """

    op: int
    body: dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_ids))
    reply_to: Optional[int] = None
    sender: str = ""
    trace: Optional[dict[str, str]] = None
    auth: Optional[bytes] = None

    def is_reply(self) -> bool:
        return self.reply_to is not None

    def reply(self, op: int, body: Optional[dict[str, Any]] = None, sender: str = "") -> "ControlMessage":
        """Construct the reply correlated to this message.

        The reply inherits the request's trace context, so the round
        trip stays linkable at both ends.
        """
        return ControlMessage(
            op=op, body=body or {}, reply_to=self.message_id, sender=sender,
            trace=self.trace,
        )

    def to_frame(self) -> Frame:
        if not Op.is_known(self.op):
            raise ProtocolError(f"cannot send unknown op code {self.op}")
        headers = {
            "op": self.op,
            "id": self.message_id,
            "sender": self.sender,
        }
        if self.reply_to is not None:
            headers["reply_to"] = self.reply_to
        if self.trace is not None:
            headers["trace"] = self.trace
        if self.auth is not None:
            headers["auth"] = self.auth
        return Frame(FrameKind.CONTROL, 0, headers, encode_value(self.body))

    @classmethod
    def from_frame(cls, frame: Frame) -> "ControlMessage":
        if frame.kind != FrameKind.CONTROL:
            raise ProtocolError(f"not a control frame: {frame.kind.name}")
        try:
            op = frame.headers["op"]
            message_id = frame.headers["id"]
        except KeyError as exc:
            raise ProtocolError(f"control frame missing header: {exc}") from exc
        if not isinstance(op, int) or not Op.is_known(op):
            raise ProtocolError(f"unknown op code: {op!r}")
        body = decode_value(frame.payload)
        if not isinstance(body, dict):
            raise ProtocolError("control body is not a dict")
        trace = frame.headers.get("trace")
        if not isinstance(trace, dict):
            trace = None  # advisory header: malformed context is dropped
        auth = frame.headers.get("auth")
        if not isinstance(auth, bytes):
            auth = None  # ditto; the guard treats "absent" as "deny"
        return cls(
            op=op,
            body=body,
            message_id=message_id,
            reply_to=frame.headers.get("reply_to"),
            sender=frame.headers.get("sender", ""),
            trace=trace,
            auth=auth,
        )

    def __repr__(self) -> str:
        kind = f"reply_to={self.reply_to}" if self.is_reply() else "request"
        return f"ControlMessage({Op.name_of(self.op)}, id={self.message_id}, {kind})"


class _ReplyWaiter(queue.SimpleQueue):
    """One expected reply's mailbox, tagged with the tunnel it was sent on.

    The reply (or a locally built cancellation) is put on it, and the
    requester's ``get`` waits in C (Event's Condition is Python).
    """

    __slots__ = ("tunnel",)

    def __init__(self, tunnel: object):
        self.tunnel = tunnel


class RequestTracker:
    """Correlates replies with a proxy's outstanding requests, to any peer."""

    def __init__(self):
        self._waiting: dict[int, _ReplyWaiter] = {}
        self._lock = threading.Lock()

    def expect(self, request: ControlMessage, tunnel: object = None) -> int:
        """Register interest in the reply to ``request``, sent on ``tunnel``."""
        with self._lock:
            self._waiting[request.message_id] = _ReplyWaiter(tunnel)
        return request.message_id

    def fulfil(self, reply: ControlMessage) -> bool:
        """Deliver a reply; returns False if nobody was waiting."""
        if reply.reply_to is None:
            return False
        with self._lock:
            waiter = self._waiting.get(reply.reply_to)
            if waiter is None:
                return False
            waiter.put(reply)
            return True

    def wait(self, message_id: int, timeout: float = 30.0) -> ControlMessage:
        """Block until the reply arrives."""
        with self._lock:
            waiter = self._waiting.get(message_id)
        if waiter is None:
            raise ProtocolError(f"no outstanding request {message_id}")
        try:
            return waiter.get(timeout=timeout)
        except queue.Empty:
            pass
        finally:
            with self._lock:
                self._waiting.pop(message_id, None)
        try:
            # Read after the pop: a reply that raced the timeout is kept.
            return waiter.get_nowait()
        except queue.Empty:
            raise ProtocolError(
                f"request {message_id} timed out after {timeout}s"
            ) from None

    def discard(self, message_id: int) -> None:
        """Forget a request whose reply will never be waited for."""
        with self._lock:
            self._waiting.pop(message_id, None)

    def cancel_tunnel(self, tunnel: object, reason: str = "link down") -> None:
        """Wake every request sent on ``tunnel`` (not its peer's requests
        on a redial's replacement) with an ERROR reply.

        ``"cancelled"`` marks the reply as synthesised here (the link
        died), distinguishable from a peer-reported ERROR, so retry
        layers treat it as peer-unavailable, not application failure.
        A reply already delivered stays first in its waiter's queue.
        """
        with self._lock:
            for message_id, waiter in self._waiting.items():
                if waiter.tunnel is tunnel:
                    waiter.put(
                        ControlMessage(
                            op=Op.ERROR,
                            body={"error": reason, "cancelled": True},
                            reply_to=message_id,
                        )
                    )
