"""Load generation and the statistics every workload shares.

Closed loop: each client sends its next request only after the previous
one completed, so a slower grid receives less load.  Open loop: requests
are due on a seeded Poisson schedule whatever the grid does, and latency
counts from the *due* time, so a stall charges every request behind it.
"""

from __future__ import annotations

import itertools
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.obs.trace import mint_trace, use_trace

__all__ = [
    "Phase",
    "closed_loop",
    "open_loop",
    "percentile",
    "poisson_schedule",
]

#: one operation: returns (ok, ops it stands for)
Op = Callable[[], tuple[bool, int]]


@dataclass
class Phase:
    """Samples of one load phase (warm-up or measured)."""

    started: float
    seconds: float
    #: (completion time, latency seconds, ok, ops this sample stands for)
    samples: list[tuple[float, float, bool, int]] = field(default_factory=list)
    #: open loop only: how late each request left the generator (seconds)
    late: list[float] = field(default_factory=list)
    #: paced side reads (wms_drain): latency seconds of the ok ones
    reads: list[float] = field(default_factory=list)
    reads_failed: int = 0
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(s[3] for s in self.samples) + len(self.reads) + self.reads_failed

    @property
    def failed(self) -> int:
        return sum(s[3] for s in self.samples if not s[2]) + self.reads_failed

    @property
    def correct_ops(self) -> int:
        return sum(s[3] for s in self.samples if s[2])

    def windows(self) -> list[int]:
        """Correct ops completed in each full 1-s window of the phase."""
        counts = [0] * int(self.seconds)
        for end, _, ok, weight in self.samples:
            index = int(end - self.started)
            if ok and 0 <= index < len(counts):
                counts[index] += weight
        return counts


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sequence (0 if empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _run_threads(targets: Sequence[Callable[[], None]], name: str) -> None:
    threads = [
        threading.Thread(target=target, name=f"{name}-{i}", daemon=True)
        for i, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _timed(op: Op) -> tuple[bool, int]:
    """Run one op under a fresh trace; a raised error is a failed op."""
    try:
        with use_trace(mint_trace()):
            return op()
    except Exception:
        return False, 1


def closed_loop(ops: Sequence[Op], seconds: float) -> Phase:
    """One client thread per op callable, back-to-back for ``seconds``."""
    clock = time.perf_counter
    phase = Phase(started=clock(), seconds=seconds)
    deadline = phase.started + seconds
    per_client: list[list] = [[] for _ in ops]

    def client(index: int) -> None:
        op, out = ops[index], per_client[index]
        while True:
            begin = clock()
            if begin >= deadline:
                return
            ok, weight = _timed(op)
            end = clock()
            out.append((end, (end - begin) / weight, ok, weight))

    cpu0 = time.process_time()
    _run_threads([lambda i=i: client(i) for i in range(len(ops))], "e2e-client")
    phase.cpu_s = time.process_time() - cpu0
    phase.samples = sorted(itertools.chain.from_iterable(per_client))
    return phase


def poisson_schedule(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)`` at ``rate``/s."""
    due, now = [], rng.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate)
    return due


def open_loop(op: Op, due: Sequence[float], seconds: float, threads: int) -> Phase:
    """Serve a fixed schedule with ``threads`` senders; time from due."""
    clock = time.perf_counter
    phase = Phase(started=clock(), seconds=seconds)
    ticket = itertools.count()
    per_thread: list[list] = [[] for _ in range(threads)]
    late: list[list[float]] = [[] for _ in range(threads)]

    def sender(index: int) -> None:
        out, lateness = per_thread[index], late[index]
        while True:
            slot = next(ticket)
            if slot >= len(due):
                return
            when = phase.started + due[slot]
            delay = when - clock()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, clock() - when))
            ok, weight = _timed(op)
            end = clock()
            out.append((end, end - when, ok, weight))

    cpu0 = time.process_time()
    _run_threads([lambda i=i: sender(i) for i in range(threads)], "e2e-open")
    phase.cpu_s = time.process_time() - cpu0
    phase.samples = sorted(itertools.chain.from_iterable(per_thread))
    phase.late = sorted(itertools.chain.from_iterable(late))
    return phase


def paced(read: Callable[[], bool], hz: float, stop: threading.Event,
          out: list[tuple[float, bool]]) -> None:
    """A side reader at a fixed pace until ``stop``; appends (latency, ok)."""
    clock = time.perf_counter
    start = clock()
    for tick in itertools.count():
        delay = start + tick / hz - clock()
        if (delay > 0 and stop.wait(delay)) or stop.is_set():
            return
        begin = clock()
        try:
            ok = read()
        except Exception:
            ok = False
        out.append((clock() - begin, ok))


def thirds_drift(windows: Sequence[int]) -> Optional[float]:
    """|median(first third) − median(last third)| ÷ median(all), or None."""
    third = len(windows) // 3
    if third < 1:
        return None
    overall = statistics.median(windows)
    if not overall:
        return None
    first = statistics.median(windows[:third])
    last = statistics.median(windows[-third:])
    return abs(first - last) / overall
