"""Simulated network: hosts, links and packet delivery.

The model matches the paper's setting: each *site* is a LAN of nodes behind
a border proxy, and sites are interconnected by WAN links.  A link has a
propagation latency and a bandwidth; transmission time of a packet is
``latency + size / bandwidth`` with FIFO serialisation per link direction
(one packet at a time occupies the transmitter, later packets queue behind
it), which is the behaviour the overhead arguments in the paper depend on.

Hosts deliver packets to registered handlers (the middleware's channel
layer) or, by default, into an inbox queue that a simulation process can
drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.simulation.engine import Queue, Simulator

__all__ = ["Host", "Link", "LinkStats", "Network", "Packet", "LAN_PROFILE", "WAN_PROFILE"]

#: Typical 2003-era site LAN: 100 Mb/s switched Ethernet.
LAN_PROFILE = {"latency": 0.0002, "bandwidth": 12_500_000.0}  # 0.2 ms, 100 Mb/s
#: Typical 2003-era inter-site WAN path.
WAN_PROFILE = {"latency": 0.030, "bandwidth": 1_250_000.0}  # 30 ms, 10 Mb/s


@dataclass
class Packet:
    """A unit of traffic between two simulated hosts."""

    source: str
    destination: str
    size: int  # bytes on the wire
    payload: Any = None
    sent_at: float = 0.0
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative packet size: {self.size}")


@dataclass
class LinkStats:
    packets: int = 0
    bytes: int = 0
    busy_time: float = 0.0


class Link:
    """Unidirectional link with latency, bandwidth and FIFO serialisation."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: float,
        bandwidth: float,
        loss_rate: float = 0.0,
    ):
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.loss_rate = loss_rate
        self.stats = LinkStats()
        #: time at which the transmitter frees up (FIFO serialisation)
        self._transmitter_free_at = 0.0
        #: optional deterministic drop predicate for failure injection
        self.drop_predicate: Optional[Callable[[Packet], bool]] = None

    def transmission_time(self, size: int) -> float:
        return size / self.bandwidth

    def send(self, packet: Packet, deliver: Callable[[Packet], None]) -> float:
        """Schedule delivery of ``packet``; returns the arrival time.

        ``deliver`` is invoked at arrival time.  Dropped packets return
        ``inf`` and never invoke ``deliver``.
        """
        sim = self.sim
        start = max(sim.now, self._transmitter_free_at)
        tx_time = self.transmission_time(packet.size)
        self._transmitter_free_at = start + tx_time
        self.stats.busy_time += tx_time
        if self.drop_predicate is not None and self.drop_predicate(packet):
            return float("inf")
        self.stats.packets += 1
        self.stats.bytes += packet.size
        arrival = start + tx_time + self.latency
        packet.hops += 1

        def fire(_event: Any) -> None:
            deliver(packet)

        timer = sim.timeout(arrival - sim.now)
        timer.callbacks.append(fire)
        return arrival

    def utilisation(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / elapsed)


class Host:
    """A network endpoint: a grid node, a proxy, or a service machine."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.inbox: Queue = sim.queue(name=f"{name}.inbox")
        self._handler: Optional[Callable[[Packet], None]] = None
        self.network: Optional["Network"] = None

    def on_packet(self, handler: Optional[Callable[[Packet], None]]) -> None:
        """Register a synchronous delivery handler (None → use the inbox)."""
        self._handler = handler

    def deliver(self, packet: Packet) -> None:
        if self._handler is not None:
            self._handler(packet)
        else:
            self.inbox.put(packet)

    def send(self, destination: str, size: int, payload: Any = None) -> float:
        """Send a packet via the attached network; returns arrival time."""
        if self.network is None:
            raise RuntimeError(f"host {self.name!r} is not attached to a network")
        packet = Packet(
            source=self.name,
            destination=destination,
            size=size,
            payload=payload,
            sent_at=self.sim.now,
        )
        return self.network.route(packet)


class Network:
    """Topology of hosts and directed links with static shortest-hop routing.

    Routing is precomputed with BFS over the link graph whenever the
    topology changes; the paper's topologies (sites behind proxies) are
    small and static, so recomputation cost is irrelevant.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.packets_sent = 0
        self.bytes_sent = 0
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._next_hop: dict[tuple[str, str], str] = {}
        self._routes_dirty = False

    # -- topology construction ----------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name: {name!r}")
        host = Host(self.sim, name)
        host.network = self
        self.hosts[name] = host
        self._routes_dirty = True
        return host

    def remove_host(self, name: str) -> None:
        """Remove a host and its links (failure injection)."""
        if name not in self.hosts:
            raise KeyError(name)
        self.hosts[name].network = None
        del self.hosts[name]
        self._links = {
            (a, b): link for (a, b), link in self._links.items() if name not in (a, b)
        }
        self._routes_dirty = True

    def connect(
        self,
        a: str,
        b: str,
        latency: float,
        bandwidth: float,
        loss_rate: float = 0.0,
        bidirectional: bool = True,
    ) -> None:
        """Create link(s) between two existing hosts."""
        for endpoint in (a, b):
            if endpoint not in self.hosts:
                raise KeyError(f"unknown host: {endpoint!r}")
        self._links[(a, b)] = Link(
            self.sim, f"{a}->{b}", latency, bandwidth, loss_rate
        )
        if bidirectional:
            self._links[(b, a)] = Link(
                self.sim, f"{b}->{a}", latency, bandwidth, loss_rate
            )
        self._routes_dirty = True

    def disconnect(self, a: str, b: str) -> None:
        self._links.pop((a, b), None)
        self._links.pop((b, a), None)
        self._routes_dirty = True

    def link(self, a: str, b: str) -> Link:
        return self._links[(a, b)]

    def links(self) -> list[Link]:
        return list(self._links.values())

    # -- routing --------------------------------------------------------------

    def _rebuild_routes(self) -> None:
        """All-pairs next-hop via BFS from every host (hop-count metric)."""
        adjacency: dict[str, list[str]] = {name: [] for name in self.hosts}
        for (a, b) in self._links:
            if a in adjacency and b in self.hosts:
                adjacency[a].append(b)
        next_hop: dict[tuple[str, str], str] = {}
        for source in self.hosts:
            # BFS recording the first hop used to reach each destination.
            visited = {source}
            frontier = [(neigh, neigh) for neigh in adjacency[source]]
            for neigh, _ in frontier:
                visited.add(neigh)
            while frontier:
                new_frontier = []
                for node, first in frontier:
                    next_hop[(source, node)] = first
                    for neigh in adjacency[node]:
                        if neigh not in visited:
                            visited.add(neigh)
                            new_frontier.append((neigh, first))
                frontier = new_frontier
        self._next_hop = next_hop
        self._routes_dirty = False

    def reachable(self, a: str, b: str) -> bool:
        if self._routes_dirty:
            self._rebuild_routes()
        return a == b or (a, b) in self._next_hop

    def path(self, a: str, b: str) -> list[str]:
        """Hop-by-hop path from a to b, inclusive of both endpoints."""
        if self._routes_dirty:
            self._rebuild_routes()
        if a == b:
            return [a]
        hops = [a]
        current = a
        while current != b:
            try:
                current = self._next_hop[(current, b)]
            except KeyError:
                raise KeyError(f"no route from {a!r} to {b!r}") from None
            hops.append(current)
        return hops

    def route(self, packet: Packet) -> float:
        """Send a packet along the precomputed path; returns final arrival.

        Each hop is scheduled when the previous one delivers, so queueing on
        intermediate links is modelled naturally.
        """
        if self._routes_dirty:
            self._rebuild_routes()
        if packet.destination not in self.hosts:
            raise KeyError(f"unknown destination: {packet.destination!r}")
        self.packets_sent += 1
        self.bytes_sent += packet.size
        return self._forward(packet, packet.source)

    def _forward(self, packet: Packet, current: str) -> float:
        if current == packet.destination:
            self.hosts[current].deliver(packet)
            return self.sim.now
        try:
            hop = self._next_hop[(current, packet.destination)]
        except KeyError:
            raise KeyError(
                f"no route from {current!r} to {packet.destination!r}"
            ) from None
        link = self._links[(current, hop)]

        def on_hop(pkt: Packet) -> None:
            if self._routes_dirty:
                self._rebuild_routes()
            if pkt.destination not in self.hosts:
                return  # destination died in flight
            if hop == pkt.destination:
                self.hosts[hop].deliver(pkt)
            elif hop in self.hosts:
                self._forward(pkt, hop)

        return link.send(packet, on_hop)
