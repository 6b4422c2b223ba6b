"""Cross-site trace propagation: trace/span ids and per-hop span records.

A request that crosses the grid touches several proxies: the originator
sends a control message through its tunnel, the destination's dispatch
pipeline runs the handler, and the reply rides back.  To see *where*
time went, the originating proxy mints a :class:`TraceContext` (a
trace id plus the current span id), carries it in the control message's
expandable header, and every hop records a :class:`Span` into its own
proxy's :class:`SpanRecorder` — local collection, exactly like the
paper's status model; the grid-wide trace is compiled on demand by
asking each proxy for its spans over ``OBS_DUMP``.

Propagation uses a thread-local "current trace": the dispatch pipeline
installs the inbound context around the handler (:func:`use_trace`), so
any nested request the handler makes links into the same trace.
Traces are head-sampled at their root (:func:`head_sample`); every hop
follows, and an unsampled request records no span and sends no header.
"""

from __future__ import annotations

import itertools
import random
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, Iterator, Optional

from repro.obs.metrics import enabled

__all__ = [
    "SAMPLE_EVERY",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "current_trace",
    "head_sample",
    "mint_trace",
    "swap_trace",
    "use_trace",
]


_id_local = threading.local()


def _new_id(nbytes: int) -> str:
    """A random hex id.  Ids are identifiers, not secrets: a per-thread
    PRNG seeded once from the OS (so processes and threads don't collide)
    is half the cost of ``secrets`` per call, and span minting sits on
    the dispatch hot path."""
    rng = getattr(_id_local, "rng", None)
    if rng is None:
        rng = _id_local.rng = random.Random(secrets.randbits(64))
    return "%0*x" % (nbytes * 2, rng.getrandbits(nbytes * 8))


@dataclass(frozen=True)
class TraceContext:
    """What travels on the wire: the trace id and the sender's span id."""

    trace_id: str
    span_id: str
    sampled: bool = True  # never sent: only a sampled request has a header

    def to_wire(self) -> dict[str, str]:
        """The expandable-header form carried in control messages."""
        return {"tid": self.trace_id, "sid": self.span_id}

    @classmethod
    def from_wire(cls, blob: Any) -> Optional["TraceContext"]:
        """Parse a header blob; malformed or absent context is ``None``.

        Trace headers are advisory — a peer sending garbage loses its
        trace linkage, never the request.
        """
        if not isinstance(blob, dict):
            return None
        trace_id = blob.get("tid")
        span_id = blob.get("sid")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if not trace_id or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


#: One trace root in this many is recorded (the first always is).
SAMPLE_EVERY = 64

_roots = itertools.count()


def head_sample(roots: Iterator[int]) -> bool:
    """Whether to record the next root counted by ``roots`` (an
    :func:`itertools.count`, atomic under the GIL): the first, then one
    in :data:`SAMPLE_EVERY`; none with obs disabled."""
    return enabled() and next(roots) % SAMPLE_EVERY == 0


def mint_trace() -> TraceContext:
    """A fresh root context (new trace, new root span id), head-sampled
    over a process-wide count of roots; every hop follows the decision."""
    return TraceContext(_new_id(8), _new_id(4), head_sample(_roots))


_tls = threading.local()


def current_trace() -> Optional[TraceContext]:
    """The context installed on this thread, if any."""
    return getattr(_tls, "context", None)


@contextmanager
def use_trace(
    context: Optional[TraceContext],
) -> Iterator[Optional[TraceContext]]:
    """Install ``context`` as this thread's current trace for the block."""
    previous = swap_trace(context)
    try:
        yield context
    finally:
        swap_trace(previous)


def swap_trace(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``context`` and return the previous one (hot-path form of
    :func:`use_trace` — pair with a ``try/finally`` restore)."""
    previous = getattr(_tls, "context", None)
    _tls.context = context
    return previous


class Span:
    """One timed hop of a trace at one proxy."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "origin",
                 "started_at", "ended_at", "tags", "_recorder")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        origin: str,
        started_at: float,
        tags: Optional[dict[str, Any]] = None,
        recorder: Optional["SpanRecorder"] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.origin = origin
        self.started_at = started_at
        self.ended_at: Optional[float] = None
        self.tags = dict(tags) if tags else {}
        self._recorder = recorder

    @property
    def context(self) -> TraceContext:
        """The context a child hop should inherit from this span."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def finish(self, **tags: Any) -> None:
        """End the span (idempotent) and commit it to the recorder."""
        if self.ended_at is not None:
            return
        recorder = self._recorder
        self.ended_at = recorder.clock() if recorder is not None else time.time()
        if tags:
            self.tags.update(tags)
        if recorder is not None:
            recorder._commit(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc is not None:
            self.tags.setdefault("error", str(exc))
        self.finish()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "origin": self.origin,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "elapsed_s": (
                None if self.ended_at is None else self.ended_at - self.started_at
            ),
            "tags": dict(self.tags),
        }


class SpanRecorder:
    """Bounded store of finished spans at one proxy.

    Callers open spans only for head-sampled traces, and ``capacity``
    bounds memory: past it the recorder keeps the most recent spans and
    counts what it dropped.  Only finished spans are kept — a span
    abandoned mid-flight never surfaces half-recorded.
    """

    def __init__(
        self,
        origin: str,
        capacity: int = 2048,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.origin = origin
        self.clock = clock
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0
        self._dropped = 0

    def start(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        tags: Optional[dict[str, Any]] = None,
    ) -> Span:
        """Open a span: child of ``parent`` when given, else a new root.

        With the obs layer disabled (``REPRO_OBS=off`` /
        :func:`~repro.obs.metrics.set_enabled`), returns a detached span:
        no id minting, no clock read, and ``finish`` commits nothing —
        the same kill switch the metrics instruments honour.
        """
        if not enabled():
            return Span(
                name=name, trace_id="", span_id="", parent_id=None,
                origin=self.origin, started_at=0.0, tags=tags, recorder=None,
            )
        if parent is None:
            trace_id, parent_id = _new_id(8), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(4),
            parent_id=parent_id,
            origin=self.origin,
            started_at=self.clock(),
            tags=tags,
            recorder=self,
        )

    def _commit(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)
            self._recorded += 1

    def records(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> list[dict[str, Any]]:
        """Finished spans, oldest first, optionally filtered by trace."""
        with self._lock:
            spans = list(self._spans)
        out = [
            span.to_dict()
            for span in spans
            if trace_id is None or span.trace_id == trace_id
        ]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped
