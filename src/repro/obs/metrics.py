"""Lock-cheap metrics: counters, gauges, fixed-bucket histograms.

The paper's Layer 3 keeps status collection *local* — "each proxy
responsible for the collection and control of the site where it is
located" — and compiles the global view only on demand.  The metrics
layer follows the same shape: every proxy owns a
:class:`MetricsRegistry` of its own hot-path instruments, nothing is
pushed anywhere, and the grid-wide view is compiled by the control
plane (``OBS_DUMP``) only when someone asks.

Instruments are deliberately primitive:

* :class:`Counter` — monotone add-only total (sends, retries, drops).
* :class:`Gauge` — a level that moves both ways (write-queue bytes).
* :class:`Histogram` — fixed upper-bound buckets with quantile
  estimates read off the bucket edges (loop lag, dispatch latency).
  Fixed buckets keep ``observe`` O(log buckets) with one short lock —
  no allocation, no reservoir, no rebalancing on the hot path.

Each instrument takes one uncontended ``threading.Lock`` per update
(CPython's ``+=`` on an attribute is not atomic under preemption), and
the whole layer can be switched off — ``REPRO_OBS=off`` or
:func:`set_enabled` — turning every update into a single flag check,
which is what the ``bench_obs`` overhead gate measures against.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Callable, Optional, Sequence, TypeVar

from repro.obs.racesan import shared_state

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "get_global_registry",
    "reset_global_registry",
    "set_enabled",
]

#: Latency bucket upper bounds in seconds: 10µs to 10s, roughly
#: log-spaced.  Values above the last edge land in the overflow bucket.
DEFAULT_LATENCY_BUCKETS = (
    0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01,
    0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)

_enabled = os.environ.get("REPRO_OBS", "on").lower() not in ("off", "0", "false")

#: Get-or-create type parameter: the registry stores heterogeneous
#: instruments but each name resolves to exactly one concrete kind.
_InstrumentT = TypeVar("_InstrumentT", "Counter", "Gauge", "Histogram")


def set_enabled(flag: bool) -> None:
    """Globally enable/disable every instrument (benchmarks toggle this)."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    return _enabled


class Counter:
    """Monotone counter; ``inc`` never loses updates across threads."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A level: set absolutely or moved by deltas (queue depths)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantiles read off the bucket edges.

    ``bounds`` are inclusive upper edges; an observation lands in the
    first bucket whose edge is >= the value, or the overflow bucket past
    the last edge.  Quantiles report the edge of the bucket containing
    the requested rank — coarse, but stable and allocation-free.
    """

    __slots__ = ("name", "bounds", "_counts", "_overflow", "_sum", "_count",
                 "_max", "_lock")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * len(self.bounds)
        self._overflow = 0
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            if index >= len(self.bounds):
                self._overflow += 1
            else:
                self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding the ``q``-th observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = q * total
            seen = 0
            for edge, count in zip(self.bounds, self._counts):
                seen += count
                if count and seen >= rank:
                    return edge
            return self._max  # rank fell in the overflow bucket

    def to_dict(self) -> dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            overflow = self._overflow
            total = self._count
            total_sum = self._sum
            observed_max = self._max
        out: dict[str, object] = {
            "count": total,
            "sum": total_sum,
            "max": observed_max,
            "buckets": [[edge, count] for edge, count in zip(self.bounds, counts)],
            "overflow": overflow,
        }
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            out[label] = self.quantile(q)
        return out


@shared_state
class MetricsRegistry:
    """Named instruments for one owner (a proxy, or the process).

    ``counter``/``gauge``/``histogram`` get-or-create, so callers on the
    hot path cache the instrument once and everyone else can look it up
    by name.  :meth:`snapshot` emits plain dicts — gridcodec- and
    JSON-encodable with no middleware types — because snapshots travel
    in ``OBS_DUMP`` replies.
    """

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, name: str, kind: type[_InstrumentT], factory: Callable[[], _InstrumentT]
    ) -> _InstrumentT:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                created = factory()
                self._instruments[name] = created
                return created
            if not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, bounds))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, object]:
        """Point-in-time view: ``{"counters": ..., "gauges": ..., "histograms": ...}``.

        Counter values in successive snapshots are monotone non-decreasing
        (the property suite holds us to that).
        """
        with self._lock:
            items = list(self._instruments.items())
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, object]] = {}
        for name, instrument in items:
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[name] = instrument.to_dict()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


# ---------------------------------------------------------------------------
# The process-wide registry (shared infrastructure: the reactor's loop and
# channels are not owned by any single proxy)
# ---------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_registry: Optional[MetricsRegistry] = None


def get_global_registry() -> MetricsRegistry:
    """Process-level instruments (the reactor loop, shared transports)."""
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = MetricsRegistry(name="process")
        return _global_registry


def reset_global_registry() -> None:
    """Discard the process registry (tests and benchmarks only)."""
    global _global_registry
    with _global_lock:
        _global_registry = None
