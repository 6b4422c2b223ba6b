"""Discrete-event simulation substrate.

The paper evaluated its proxy architecture on a real multi-site testbed
(clusters interconnected over a WAN).  This package provides the synthetic
equivalent: a deterministic discrete-event engine plus network, resource and
workload models that let the benchmark harness measure the architecture at
scales (dozens of sites, hundreds of nodes) that a single machine cannot host
as live processes.

Contents
--------
:mod:`repro.simulation.engine`
    Generator-based discrete-event kernel (simulator, processes, timeouts,
    queues, interrupts).
:mod:`repro.simulation.network`
    Link and topology models: LAN/WAN latency, bandwidth sharing, packet
    delivery between simulated hosts.
:mod:`repro.simulation.resources`
    Node resource models: CPU speed, RAM, disk, and the owner-priority
    background load required by the paper ("the priority of the resource's
    utilization by the user of the machine and not by third party
    applications").
:mod:`repro.simulation.randomness`
    Seeded random streams and the distributions used by workload generators.
"""

from repro.simulation.engine import (
    Event,
    Interrupt,
    Process,
    Queue,
    Simulator,
    Timeout,
)
from repro.simulation.network import Host, Link, Network, Packet
from repro.simulation.randomness import RandomStream
from repro.simulation.resources import NodeResources, OwnerActivity, ResourceSnapshot

__all__ = [
    "Event",
    "Host",
    "Interrupt",
    "Link",
    "Network",
    "NodeResources",
    "OwnerActivity",
    "Packet",
    "Process",
    "Queue",
    "RandomStream",
    "ResourceSnapshot",
    "Simulator",
    "Timeout",
]
