"""Seeded random streams for deterministic experiments.

Every experiment draws from named :class:`RandomStream` instances so that the
same seed reproduces the same workload exactly, independent of how other
components consume randomness.  Streams are derived from a root seed and a
label, so adding a new consumer never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

__all__ = ["RandomStream", "derive_seed"]

T = TypeVar("T")


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a child seed from a root seed and a stable label.

    Uses SHA-256 over ``root_seed || label`` so child streams are
    statistically independent and insensitive to creation order.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A named, independently seeded source of random draws."""

    def __init__(self, root_seed: int, label: str):
        self.root_seed = root_seed
        self.label = label
        self._rng = random.Random(derive_seed(root_seed, label))

    def child(self, label: str) -> "RandomStream":
        """Derive a sub-stream, e.g. per-site or per-node."""
        return RandomStream(derive_seed(self.root_seed, self.label), label)

    # -- basic draws -------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(items, k)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    # -- distributions used by the workload models --------------------------

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival times (Poisson arrivals)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def pareto(self, shape: float, minimum: float) -> float:
        """Heavy-tailed sizes (job durations, file sizes)."""
        if shape <= 0 or minimum <= 0:
            raise ValueError("pareto parameters must be positive")
        return minimum * self._rng.paretovariate(shape)

    def normal(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self._rng.random() < p

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Draw an index in [0, n) with Zipf popularity (0 most popular)."""
        if n <= 0:
            raise ValueError("n must be positive")
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        target = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target <= acc:
                return i
        return n - 1

    def weighted_choice(self, items: Sequence[T], weights: Iterable[float]) -> T:
        return self._rng.choices(list(items), weights=list(weights), k=1)[0]
