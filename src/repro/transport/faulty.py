"""Fault-injection transport: deterministic chaos for any channel.

The paper's robustness claim — per-site proxies confine failures to one
site — is only credible if the stack is exercised under real faults.
:class:`FaultyChannel` wraps any :class:`~repro.transport.channel.Channel`
(in-process, TCP, or the secure channel built on either) and injects
drops, delays, reorders, truncations, corruptions and mid-stream
disconnects according to a :class:`FaultPlan`.

Determinism is the design centre: whether frame *i* on a given direction
is faulted, and how, is a pure function of ``(seed, direction, i)`` — not
of wall time, thread interleaving, or a shared RNG stream.  Two runs
with the same seed and the same per-direction frame sequence therefore
produce the *same fault schedule*, which the chaos suite exploits for
seed replay: a failing test prints its seed, and re-running with that
seed reproduces the exact schedule.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.transport.channel import Channel, Listener
from repro.transport.errors import ChannelClosed, TransportTimeout
from repro.transport.frames import Frame

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultyChannel",
    "FaultyListener",
    "faulty_pair",
]

#: Fault kinds, in the priority order the injector evaluates them.
_ACTIONS = ("drop", "corrupt", "truncate", "reorder", "disconnect", "delay")


@dataclass(frozen=True)
class FaultPlan:
    """Per-frame fault probabilities and bounds.

    Each rate is the probability that a frame suffers that fault; at most
    one fault applies per frame (evaluated in :data:`_ACTIONS` order over
    a single uniform draw, so the rates partition [0, 1)).  ``max_faults``
    bounds the total injected faults per channel so chaotic scenarios
    still terminate.
    """

    drop: float = 0.0
    corrupt: float = 0.0
    truncate: float = 0.0
    reorder: float = 0.0
    disconnect: float = 0.0
    delay: float = 0.0
    delay_range: Tuple[float, float] = (0.001, 0.02)
    max_faults: Optional[int] = None
    #: spare the first ``skip`` frames per direction — lets a chaos test
    #: let the handshake through untouched and fault the record traffic.
    skip: int = 0

    def __post_init__(self):
        total = self.drop + self.corrupt + self.truncate + self.reorder
        total += self.disconnect + self.delay
        if total > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to {total} > 1")
        for name in _ACTIONS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {name} out of [0, 1]: {rate}")
        lo, hi = self.delay_range
        if lo < 0 or hi < lo:
            raise ValueError(f"bad delay_range: {self.delay_range}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0: {self.skip}")


class FaultInjector:
    """Seeded, replayable fault decisions.

    ``decide(direction, index)`` answers "what happens to frame ``index``
    travelling in ``direction``" from a private RNG keyed on
    ``(seed, direction, index)`` — string-seeded :class:`random.Random`
    hashes via SHA-512, so decisions are stable across processes and
    interpreter runs.  Every decision is appended to :attr:`schedule`.
    """

    def __init__(self, seed: int, plan: FaultPlan):
        self.seed = seed
        self.plan = plan
        self._lock = threading.Lock()
        self._faults_done = 0
        #: (direction, index, action, detail) per injected fault
        self.schedule: List[Tuple[str, int, str, float]] = []

    def decide(self, direction: str, index: int) -> Tuple[Optional[str], float]:
        """Return (action, detail) for one frame; (None, 0.0) = no fault.

        ``detail`` is the delay duration for ``delay``, the corruption
        offset fraction for ``corrupt``/``truncate``, else 0.
        """
        plan = self.plan
        if index < plan.skip:
            return None, 0.0
        with self._lock:
            if plan.max_faults is not None and self._faults_done >= plan.max_faults:
                return None, 0.0
        rng = random.Random(f"{self.seed}|{direction}|{index}")
        draw = rng.random()
        threshold = 0.0
        for action in _ACTIONS:
            threshold += getattr(plan, action)
            if draw < threshold:
                if action == "delay":
                    detail = rng.uniform(*plan.delay_range)
                else:
                    detail = rng.random()
                with self._lock:
                    self._faults_done += 1
                    self.schedule.append((direction, index, action, detail))
                return action, detail
        return None, 0.0

    def mutate(self, payload: bytes, fraction: float) -> bytes:
        """Flip one byte at a position derived from ``fraction``."""
        if not payload:
            return payload
        position = min(int(fraction * len(payload)), len(payload) - 1)
        corrupted = bytearray(payload)
        corrupted[position] ^= 0xFF
        return bytes(corrupted)


class FaultyChannel(Channel):
    """A channel that misbehaves on purpose.

    Wraps ``inner`` and applies the injector's decisions on the send path
    (and, with ``on_recv=True``, the receive path).  Fault semantics at
    the frame level:

    * ``drop`` — the frame silently vanishes (upper layers must time out
      and retry);
    * ``corrupt`` — one payload byte is flipped (a sealed record fails
      its MAC; a cleartext control frame decodes to garbage and is
      discarded);
    * ``truncate`` — the payload is cut short (same downstream effect as
      corruption, but exercises length-checking paths);
    * ``reorder`` — the frame is held and sent after its successor;
    * ``delay`` — delivery stalls for a bounded, seed-derived duration;
    * ``disconnect`` — the channel closes mid-stream, exactly as if the
      peer vanished.
    """

    def __init__(
        self,
        inner: Channel,
        injector: FaultInjector,
        on_recv: bool = False,
        sleep=time.sleep,
        name: Optional[str] = None,
    ):
        super().__init__(name=name or f"faulty:{inner.name}")
        self._inner = inner
        self.injector = injector
        self._on_recv = on_recv
        self._sleep = sleep
        self._lock = threading.Lock()
        self._send_index = 0
        self._recv_index = 0
        self._held: Optional[Frame] = None

    # -- send path ---------------------------------------------------------

    def send(self, frame: Frame) -> None:
        for out in self._apply_send(frame):
            self._inner.send(out)
            self.stats.on_send(len(out.payload))

    def send_many(self, frames: Iterable[Frame]) -> None:
        batch: List[Frame] = []
        for frame in frames:
            batch.extend(self._apply_send(frame))
        if batch:
            self._inner.send_many(batch)
            for out in batch:
                self.stats.on_send(len(out.payload))

    def _apply_send(self, frame: Frame) -> List[Frame]:
        """Fault one outgoing frame; returns the frames to actually send."""
        with self._lock:
            index = self._send_index
            self._send_index += 1
        action, detail = self.injector.decide("send", index)
        if action == "drop":
            return self._flush_held()
        if action == "corrupt":
            frame = Frame(
                kind=frame.kind,
                channel=frame.channel,
                headers=frame.headers,
                payload=self.injector.mutate(frame.payload, detail),
            )
        elif action == "truncate":
            cut = int(detail * len(frame.payload))
            frame = Frame(
                kind=frame.kind,
                channel=frame.channel,
                headers=frame.headers,
                payload=frame.payload[:cut],
            )
        elif action == "reorder":
            with self._lock:
                held, self._held = self._held, frame
            return [held] if held is not None else []
        elif action == "disconnect":
            self.close()
            raise ChannelClosed(f"{self.name}: injected disconnect")
        elif action == "delay":
            self._sleep(detail)
        # The current frame goes first, then any held frame: that is what
        # makes a "reorder" visible — the held frame jumps the queue.
        return [frame] + self._flush_held()

    def _flush_held(self) -> List[Frame]:
        with self._lock:
            held, self._held = self._held, None
        return [held] if held is not None else []

    # -- receive path ------------------------------------------------------

    def _apply_recv_fault(self, frame: Frame) -> Optional[Frame]:
        """Fault one inbound frame; None means it was dropped."""
        with self._lock:
            index = self._recv_index
            self._recv_index += 1
        action, detail = self.injector.decide("recv", index)
        if action == "drop":
            return None
        if action == "corrupt":
            frame = Frame(
                kind=frame.kind,
                channel=frame.channel,
                headers=frame.headers,
                payload=self.injector.mutate(frame.payload, detail),
            )
        elif action == "truncate":
            cut = int(detail * len(frame.payload))
            frame = Frame(
                kind=frame.kind,
                channel=frame.channel,
                headers=frame.headers,
                payload=frame.payload[:cut],
            )
        elif action == "disconnect":
            self.close()
            raise ChannelClosed(f"{self.name}: injected disconnect")
        elif action == "delay":
            self._sleep(detail)
        return frame

    def poll_recv(self) -> Optional[Frame]:
        """Non-blocking receive with the same fault schedule as ``recv``.

        Lets the reactor drive a fault-injected channel: dropped frames
        simply never surface (the loop polls again on the next ready
        signal), delays stall briefly (bounded by the plan), and
        disconnects close the channel mid-drain.
        """
        while True:
            frame = self._inner.poll_recv()
            if frame is None:
                return None
            if not self._on_recv:
                self.stats.on_receive(len(frame.payload))
                return frame
            frame = self._apply_recv_fault(frame)
            if frame is None:
                continue  # dropped: the frame never "arrived"
            self.stats.on_receive(len(frame.payload))
            return frame

    def set_ready_callback(self, callback) -> None:
        self._inner.set_ready_callback(callback)

    def recv(self, timeout: Optional[float] = None) -> Frame:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            frame = self._inner.recv(timeout=remaining)
            if not self._on_recv:
                self.stats.on_receive(len(frame.payload))
                return frame
            frame = self._apply_recv_fault(frame)
            if frame is None:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TransportTimeout(f"{self.name}: recv timed out")
                continue  # the frame never "arrived"; keep waiting
            self.stats.on_receive(len(frame.payload))
            return frame

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class FaultyListener(Listener):
    """Wraps a listener so every accepted channel is fault-injected.

    Each accepted channel gets its own injector derived from the base
    seed and the accept ordinal, keeping per-channel schedules
    independent and replayable.
    """

    def __init__(
        self,
        inner: Listener,
        seed: int,
        plan: FaultPlan,
        on_recv: bool = False,
    ):
        self._inner = inner
        self.seed = seed
        self.plan = plan
        self._on_recv = on_recv
        self._accepted = 0
        self._lock = threading.Lock()
        self.injectors: List[FaultInjector] = []

    def accept(self, timeout: Optional[float] = None) -> Channel:
        channel = self._inner.accept(timeout=timeout)
        with self._lock:
            ordinal = self._accepted
            self._accepted += 1
        injector = FaultInjector(seed=self.seed + 7919 * ordinal, plan=self.plan)
        self.injectors.append(injector)
        return FaultyChannel(channel, injector, on_recv=self._on_recv)

    def close(self) -> None:
        self._inner.close()


def faulty_pair(
    seed: int, plan: FaultPlan, name: str = "chaos"
) -> Tuple[FaultyChannel, Channel]:
    """An in-process channel pair whose left end injects faults.

    Convenience for unit/chaos tests: returns ``(faulty_sender, clean
    receiver)``; faults apply to traffic sent by the left end.
    """
    from repro.transport.inproc import channel_pair

    a, b = channel_pair(name=name)
    return FaultyChannel(a, FaultInjector(seed, plan)), b
