"""Heartbeat-based failure detection and recovery bookkeeping.

The paper argues its distributed control "reduces the effect of failures
on a given site or proxy": losing one proxy costs the grid that site's
capacity, not the whole grid.  :class:`FailureDetector` provides the
mechanism — per-peer last-heard timestamps, a suspicion timeout, and
callbacks on suspect/recover transitions.  It is clock-injected so the
live runtime drives it with wall time and experiment E7 with simulated
time.

Transition callbacks fire **exactly once per transition**: state changes
are decided under a lock (the live runtime calls ``heard_from`` from
receiver threads while ``check`` runs on a monitor thread, and the
unlocked implementation could double-fire a callback when both observed
the same stale state), and callbacks run outside the lock so they may
re-enter the detector.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.racesan import shared_state

__all__ = ["FailureDetector", "PeerState", "PeerHealth"]


class PeerState(enum.Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class PeerHealth:
    peer: str
    state: PeerState
    last_heard: float
    suspected_at: Optional[float] = None


@shared_state
class FailureDetector:
    """Timeout-based detector over heartbeat observations.

    A peer is ALIVE while heartbeats arrive within ``suspect_after``
    seconds, SUSPECT between ``suspect_after`` and ``dead_after``, and
    DEAD beyond that.  State changes fire the registered callbacks once
    per transition.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        suspect_after: float = 3.0,
        dead_after: float = 10.0,
    ):
        if suspect_after <= 0 or dead_after <= suspect_after:
            raise ValueError(
                f"need 0 < suspect_after < dead_after, got "
                f"{suspect_after}, {dead_after}"
            )
        self.clock = clock
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self._peers: dict[str, PeerHealth] = {}
        self._lock = threading.Lock()
        self.on_suspect: list[Callable[[str], None]] = []
        self.on_dead: list[Callable[[str], None]] = []
        self.on_recover: list[Callable[[str], None]] = []

    # -- observations ------------------------------------------------------

    def watch(self, peer: str) -> None:
        """Start monitoring a peer (counts as hearing from it now)."""
        with self._lock:
            self._peers[peer] = PeerHealth(
                peer=peer, state=PeerState.ALIVE, last_heard=self.clock()
            )

    def heard_from(self, peer: str) -> None:
        """Record a heartbeat or any authenticated traffic from ``peer``."""
        recovered = False
        with self._lock:
            health = self._peers.get(peer)
            if health is None:
                self._peers[peer] = PeerHealth(
                    peer=peer, state=PeerState.ALIVE, last_heard=self.clock()
                )
                return
            health.last_heard = self.clock()
            if health.state is not PeerState.ALIVE:
                health.state = PeerState.ALIVE
                health.suspected_at = None
                recovered = True
        if recovered:
            for callback in list(self.on_recover):
                callback(peer)

    def mark_dead(self, peer: str) -> None:
        """Declare a peer dead out of band (e.g. its tunnel closed).

        Fires ``on_dead`` once unless the peer was already DEAD; unknown
        peers are ignored.
        """
        with self._lock:
            health = self._peers.get(peer)
            died = health is not None and health.state is not PeerState.DEAD
            if died:
                health.state = PeerState.DEAD
        if died:
            for callback in list(self.on_dead):
                callback(peer)

    # -- evaluation ------------------------------------------------------------

    def check(self) -> list[PeerHealth]:
        """Re-evaluate every peer; fires transition callbacks.

        Call periodically (the runtime) or after advancing simulated time
        (the benchmarks).  Returns the current health list.
        """
        died: list[str] = []
        suspected: list[str] = []
        with self._lock:
            now = self.clock()
            for health in self._peers.values():
                silence = now - health.last_heard
                if silence > self.dead_after:
                    if health.state is not PeerState.DEAD:
                        health.state = PeerState.DEAD
                        died.append(health.peer)
                elif silence > self.suspect_after:
                    if health.state is PeerState.ALIVE:
                        health.state = PeerState.SUSPECT
                        health.suspected_at = now
                        suspected.append(health.peer)
            snapshot = list(self._peers.values())
        for peer in died:
            for callback in list(self.on_dead):
                callback(peer)
        for peer in suspected:
            for callback in list(self.on_suspect):
                callback(peer)
        return snapshot

    def state_of(self, peer: str) -> PeerState:
        with self._lock:
            try:
                return self._peers[peer].state
            except KeyError:
                raise KeyError(f"not watching peer: {peer!r}") from None

    def is_watching(self, peer: str) -> bool:
        with self._lock:
            return peer in self._peers

    def alive_peers(self) -> list[str]:
        return self._peers_in(PeerState.ALIVE)

    def dead_peers(self) -> list[str]:
        return self._peers_in(PeerState.DEAD)

    def _peers_in(self, state: PeerState) -> list[str]:
        self.check()
        with self._lock:
            return sorted(
                peer
                for peer, health in self._peers.items()
                if health.state is state
            )

    def detection_latency(self, failed_at: float, detected_at: float) -> float:
        """Helper for experiments: time from failure to DEAD verdict."""
        return detected_at - failed_at
