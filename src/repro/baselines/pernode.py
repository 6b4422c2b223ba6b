"""Per-node security baseline vs proxy edge-tunneling: the E4 cost model.

The paper's argument, verbatim: "in the traditional approaches, because
the security falls within the MPI application, all the cluster's nodes
reflect the overhead generated by the grid's safe communication and
control.  In the case of the approach proposed here, the information
[will] be tunneled only among cluster edges and not inside them."

This module prices both architectures over the same traffic:

* **per-node** — every message is encrypted by the sending node and
  decrypted by the receiving node, local or not; every node maintains
  authenticated sessions (handshakes) with every distinct peer it talks
  to.
* **proxy** — intra-site messages travel in cleartext; inter-site
  messages are encrypted once at the origin proxy and decrypted once at
  the destination proxy; only proxies hold sessions (one per peer site).

Costs are expressed in CPU-seconds through :class:`CryptoCostModel`,
whose defaults are *calibrated from the real implementation* (see
:func:`calibrate_cost_model`) so the model and the measured
micro-benchmarks agree on relative magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ArchitectureCosts",
    "CryptoCostModel",
    "TrafficSpec",
    "calibrate_cost_model",
    "evaluate_pernode",
    "evaluate_proxy",
]


@dataclass(frozen=True)
class CryptoCostModel:
    """CPU cost of cryptographic operations.

    Defaults approximate the pure-Python implementation measured on the
    development machine; :func:`calibrate_cost_model` re-derives them
    live.  Only *ratios* matter for the experiment's shape.
    """

    handshake_seconds: float = 0.030  # asymmetric ops per session setup
    per_byte_seconds: float = 3.0e-7  # symmetric seal+open per byte
    per_record_seconds: float = 2.0e-5  # fixed per-record overhead (MAC etc.)

    def record_cost(self, nbytes: int) -> float:
        """Cost to seal *or* open one record of ``nbytes``."""
        return self.per_record_seconds + nbytes * self.per_byte_seconds


@dataclass(frozen=True)
class TrafficSpec:
    """One workload's traffic, in the terms both architectures share."""

    sites: int
    nodes_per_site: int
    messages_per_node: int  # messages each node sends
    message_bytes: int
    locality: float  # fraction of each node's messages staying on-site

    def __post_init__(self) -> None:
        if self.sites <= 0 or self.nodes_per_site <= 0:
            raise ValueError("sites and nodes_per_site must be positive")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"locality out of range: {self.locality}")
        if self.messages_per_node < 0 or self.message_bytes < 0:
            raise ValueError("negative traffic parameters")

    @property
    def total_nodes(self) -> int:
        return self.sites * self.nodes_per_site

    @property
    def total_messages(self) -> int:
        return self.total_nodes * self.messages_per_node

    @property
    def intersite_messages(self) -> int:
        return round(self.total_messages * (1.0 - self.locality))

    @property
    def local_messages(self) -> int:
        return self.total_messages - self.intersite_messages


@dataclass(frozen=True)
class ArchitectureCosts:
    """What one architecture spends on the traffic."""

    architecture: str
    handshakes: int
    crypto_operations: int  # seal + open counts
    crypto_seconds: float  # total CPU time in crypto
    nodes_bearing_overhead: int  # how many machines run any crypto
    encrypted_bytes: int

    @property
    def crypto_seconds_per_node(self) -> float:
        if self.nodes_bearing_overhead == 0:
            return 0.0
        return self.crypto_seconds / self.nodes_bearing_overhead


def evaluate_pernode(spec: TrafficSpec, model: CryptoCostModel) -> ArchitectureCosts:
    """Traditional approach: security inside every node's MPI process.

    Every message — local or remote — is sealed at the sender and opened
    at the receiver.  Sessions: each node handshakes with every *other
    node* it exchanges messages with; with uniformly spread traffic we
    charge one session per ordered node pair actually used, approximated
    as min(messages_per_node, total_nodes - 1) peers per node.
    """
    peers_per_node = min(spec.messages_per_node, max(spec.total_nodes - 1, 0))
    handshakes = spec.total_nodes * peers_per_node
    crypto_operations = 2 * spec.total_messages  # seal + open
    crypto_seconds = (
        handshakes * model.handshake_seconds
        + crypto_operations * model.record_cost(spec.message_bytes)
    )
    return ArchitectureCosts(
        architecture="per-node",
        handshakes=handshakes,
        crypto_operations=crypto_operations,
        crypto_seconds=crypto_seconds,
        nodes_bearing_overhead=spec.total_nodes,
        encrypted_bytes=spec.total_messages * spec.message_bytes,
    )


def evaluate_proxy(spec: TrafficSpec, model: CryptoCostModel) -> ArchitectureCosts:
    """The paper's approach: encryption only at site borders.

    Local messages cost nothing; each inter-site message is sealed at the
    origin proxy and opened at the destination proxy.  Sessions: one
    tunnel per site pair (full mesh), regardless of node count.
    """
    handshakes = spec.sites * (spec.sites - 1) // 2
    crypto_operations = 2 * spec.intersite_messages
    crypto_seconds = (
        handshakes * model.handshake_seconds
        + crypto_operations * model.record_cost(spec.message_bytes)
    )
    return ArchitectureCosts(
        architecture="proxy",
        handshakes=handshakes,
        crypto_operations=crypto_operations,
        crypto_seconds=crypto_seconds,
        nodes_bearing_overhead=spec.sites,  # only the proxies
        encrypted_bytes=spec.intersite_messages * spec.message_bytes,
    )


def calibrate_cost_model(sample_bytes: int = 64 * 1024) -> CryptoCostModel:
    """Measure the real implementation to derive the cost constants.

    Runs one DH exchange and a few record seal/open pairs with the actual
    :mod:`repro.security` code and returns a model whose constants
    reflect this machine.  Benchmarks call this so the analytic curves
    and the measured micro-benchmarks share a scale.
    """
    import time

    from repro.security.cipher import (
        RecordCipher,
        derive_session_keys,
        random_master_secret,
    )
    from repro.security.dh import DiffieHellman

    # Handshake cost: dominated by the DH exponentiations.
    start = time.perf_counter()
    alice, bob = DiffieHellman(), DiffieHellman()
    alice.shared_secret(bob.public)
    bob.shared_secret(alice.public)
    handshake_seconds = time.perf_counter() - start

    keys = derive_session_keys(random_master_secret(), "client")
    sender, receiver = RecordCipher(keys), RecordCipher(keys)

    # Fixed per-record cost from an empty record.
    start = time.perf_counter()
    rounds = 50
    for _ in range(rounds):
        receiver.open(b"".join(sender.seal(b"")))
    per_record_seconds = (time.perf_counter() - start) / (2 * rounds)

    # Per-byte cost from a large record.
    blob = b"\x00" * sample_bytes
    start = time.perf_counter()
    receiver.open(b"".join(sender.seal(blob)))
    large = (time.perf_counter() - start) / 2
    per_byte_seconds = max((large - per_record_seconds) / sample_bytes, 1e-10)

    return CryptoCostModel(
        handshake_seconds=handshake_seconds,
        per_byte_seconds=per_byte_seconds,
        per_record_seconds=per_record_seconds,
    )
