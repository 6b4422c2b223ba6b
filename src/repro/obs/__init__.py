"""Grid observability: per-proxy metrics, spans, on-demand aggregation.

The paper's Layer 3 design — per-site collection, global compilation
only on demand — applied to the middleware's *own* telemetry.  Each
proxy owns an :class:`ObsHub` (a metrics registry plus a span
recorder); shared infrastructure (the reactor) reports into the
process-level registry; nothing is pushed anywhere.  The grid view is
compiled over the control plane via the ``OBS_DUMP`` op when a UI or
operator asks for it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    get_global_registry,
    reset_global_registry,
    set_enabled,
)
from repro.obs.lockwatch import LockOrderError, LockOrderWatchdog
from repro.obs.racesan import (
    RaceError,
    RaceSanitizer,
    shared_state,
    watch,
)
from repro.obs.trace import (
    Span,
    SpanRecorder,
    TraceContext,
    current_trace,
    mint_trace,
    swap_trace,
    use_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LockOrderError",
    "LockOrderWatchdog",
    "MetricsRegistry",
    "ObsHub",
    "RaceError",
    "RaceSanitizer",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "current_trace",
    "enabled",
    "get_global_registry",
    "mint_trace",
    "reset_global_registry",
    "set_enabled",
    "shared_state",
    "swap_trace",
    "use_trace",
    "watch",
]


class ObsHub:
    """One owner's observability bundle: metrics + spans + dump."""

    def __init__(
        self,
        name: str,
        clock: Callable[[], float] = time.time,
        span_capacity: int = 2048,
    ) -> None:
        self.name = name
        self.metrics = MetricsRegistry(name=name)
        self.spans = SpanRecorder(origin=name, capacity=span_capacity, clock=clock)

    def dump(
        self,
        trace_id: Optional[str] = None,
        max_spans: Optional[int] = None,
        include_process: bool = True,
    ) -> dict[str, Any]:
        """The ``OBS_DUMP`` body: plain dicts only, wire- and JSON-safe.

        ``include_process`` folds in the process-level registry (reactor
        loop lag, shared write queues) — every proxy in this process
        reports the same shared-infrastructure view, which is accurate:
        they really do share those loops.
        """
        out: dict[str, Any] = {
            "name": self.name,
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.records(trace_id=trace_id, limit=max_spans),
            "spans_recorded": self.spans.recorded,
            "spans_dropped": self.spans.dropped,
        }
        if include_process:
            out["process"] = get_global_registry().snapshot()
        return out
