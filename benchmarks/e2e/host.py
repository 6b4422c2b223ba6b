"""What the benchmark knows about the machine under it, and does about it.

Measured on the 2-vCPU VM this was written on (see README.md):

* a cross-CPU thread wake-up costs ~6x a same-CPU one, and which one a
  run gets flips between identical runs → :func:`pin_to_one_cpu`;
* the hypervisor withholds the CPU now and then → steal per 1-s window;
* the same bytecode runs up to 1.7x slower for seconds to minutes at a
  time with no steal at all (busy hyper-thread sibling / frequency) →
  a fixed reference kernel timed in *thread CPU time* ten times a second,
  so every time-valued number can be restated at a reference CPU speed.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import struct
import threading
import time
from typing import Optional

__all__ = ["HostSampler", "REFERENCE_KERNEL_NS", "host_pingpong", "pin_to_one_cpu"]

#: thread-CPU nanoseconds :func:`reference_kernel` takes on the
#: development host when nothing disturbs it.  Only a scale: every
#: normalised time is "as if the kernel took this long".
REFERENCE_KERNEL_NS = 500_000
_HASH_BLOCK = bytes(range(256)) * 640  # 160 KiB


def pin_to_one_cpu() -> Optional[int]:
    """Confine this process (and every thread it will start) to one CPU.

    The grid's threads are GIL-bound, so a second CPU buys no parallelism
    — but on a small VM it makes every thread hand-off a cross-CPU wake-up
    (an inter-processor interrupt through the hypervisor), and whether the
    guest scheduler co-locates two threads or not flips between runs:
    unpinned, identical runs of ``rpc_small`` ranged 500–710 ops/s and
    1.4–1.85 ms CPU per op; pinned they run ~1 600 ops/s at ~0.61 ms.
    The highest-numbered allowed CPU is used (CPU 0 tends to collect the
    host's housekeeping).  Returns it, or ``None`` where the platform has
    no affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_pingpong(seconds: float = 1.0) -> float:
    """Cross-thread wake-ups per second: two threads, two ``Event``s.

    The burst guard: unpinned, this host serves wake-ups ~6x cheaper for
    a few seconds after any idle period, so a measured phase only counts
    if this number is the same right before and right after it.
    """
    ping, pong = threading.Event(), threading.Event()
    done = False

    def echo() -> None:
        while True:
            ping.wait()
            ping.clear()
            if done:
                return
            pong.set()

    thread = threading.Thread(target=echo, name="e2e-pingpong", daemon=True)
    thread.start()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    trips = 0
    while clock() < deadline:
        ping.set()
        pong.wait()
        pong.clear()
        trips += 1
    elapsed = clock() - start
    done = True
    ping.set()
    thread.join()
    return trips / elapsed


def stolen_seconds(cpu: Optional[int]) -> float:
    """Seconds the hypervisor has withheld ``cpu`` (all CPUs if None) so far."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == ("cpu" if cpu is None else f"cpu{cpu}"):
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def reference_kernel() -> int:
    """Thread-CPU ns for a fixed piece of work (~3/4 bytecode, ~1/4 C).

    Stdlib only and frozen here, so no change under ``src/`` can speed it
    up; thread CPU time, so neither the GIL nor stolen time stretches it.
    The mix is deliberate: pure bytecode slows more than the grid does
    when the host is disturbed and hashing in C slows less, and the grid
    is both.
    """
    begin = time.thread_time_ns()
    acc = 0
    table: dict[int, int] = {}
    for i in range(1600):
        acc = (acc + i * i) & 0xFFFF
        table[i & 31] = acc
        if struct.pack("!IH", i, acc)[0] == 255:
            acc += 1
    hashlib.sha256(_HASH_BLOCK).digest()
    return time.thread_time_ns() - begin


class HostSampler:
    """Ten times a second: time, stolen seconds, process CPU, kernel ns.

    Runs for the whole pass.  The harness reads it back per interval:
    how much CPU the hypervisor withheld, how much CPU the process got,
    and how fast the CPU was (:meth:`speed`, 1.0 = reference).
    """

    PERIOD_S = 0.1

    def __init__(self, cpu: Optional[int]) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float, float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="e2e-host", daemon=True)

    def _take(self) -> None:
        self.samples.append((
            time.perf_counter(), stolen_seconds(self.cpu), time.process_time(),
            reference_kernel(),
        ))

    def _loop(self) -> None:
        self._take()
        while not self._stop.wait(self.PERIOD_S):
            self._take()
        self._take()

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _at(self, when: float) -> tuple[float, float]:
        """(stolen s, process CPU s) at ``when``, interpolated."""
        samples = self.samples
        index = bisect.bisect_left(samples, (when,))
        if index <= 0:
            return samples[0][1], samples[0][2]
        if index >= len(samples):
            return samples[-1][1], samples[-1][2]
        (t0, s0, c0, _), (t1, s1, c1, _) = samples[index - 1], samples[index]
        share = (when - t0) / (t1 - t0) if t1 > t0 else 0.0
        return s0 + (s1 - s0) * share, c0 + (c1 - c0) * share

    def between(self, start: float, end: float) -> tuple[float, float]:
        """(stolen seconds, process CPU seconds) spent in ``[start, end]``."""
        (stolen0, cpu0), (stolen1, cpu1) = self._at(start), self._at(end)
        return stolen1 - stolen0, cpu1 - cpu0

    def speed(self, start: float, end: float) -> float:
        """CPU speed over ``[start, end]``: reference ÷ median kernel time.

        1.0 is the reference host undisturbed, 0.6 means the same code
        took 1/0.6 as long; a time multiplied by this reads as it would
        at reference speed.  Falls back to the nearest sample for
        intervals shorter than the sampling period.
        """
        samples = self.samples
        low = bisect.bisect_left(samples, (start,))
        high = bisect.bisect_right(samples, (end, float("inf")))
        if high <= low:
            low = max(0, min(low, len(samples) - 1))
            high = low + 1
        kernel = statistics.median(s[3] for s in samples[low:high])
        return REFERENCE_KERNEL_NS / kernel if kernel else 1.0
