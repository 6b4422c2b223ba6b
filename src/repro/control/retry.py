"""Uniform retry/timeout/backoff policy for the whole stack.

Before this module every layer improvised its own error handling: the
tunnel raised on first failure, the proxy looped over peers ad hoc, and
callers guessed at timeouts.  :class:`RetryPolicy` centralises the rules:

* **exponential backoff with jitter** — attempt *n* sleeps
  ``base_delay * multiplier**n``, capped at ``max_delay``, with a
  bounded random perturbation so synchronised retry storms decorrelate;
* **deadline budgets** — a :class:`Deadline` caps the *total* time spent
  across all attempts (sleeps included); the policy never starts a sleep
  it cannot afford;
* **idempotency guards** — a non-idempotent operation is executed at
  most once: :meth:`RetryPolicy.call` refuses to re-run it no matter how
  retryable the failure looks.  Callers declare idempotency explicitly;
  for a control request it is the ``idempotent`` column of the op's
  row in :data:`repro.core.protocol.OP_SPECS`.

Jitter randomness is injectable (``rng``) so chaos tests can replay the
exact backoff schedule from a seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type

from repro.transport.errors import TransportError

__all__ = ["Deadline", "RetryError", "RetryPolicy"]


class RetryError(Exception):
    """All attempts failed (or the policy refused to retry).

    ``last`` is the exception from the final attempt; ``attempts`` is how
    many times the operation actually ran.
    """

    def __init__(self, message: str, last: BaseException, attempts: int):
        super().__init__(message)
        self.last = last
        self.attempts = attempts


class Deadline:
    """A total time budget shared across attempts.

    Clock-injected like the rest of the stack so simulated-time tests can
    drive it; ``None`` budget means unlimited.
    """

    def __init__(
        self,
        budget: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget
        self.clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        return self.clock() - self._started

    def remaining(self) -> float:
        if self.budget is None:
            return float("inf")
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def clamp(self, timeout: Optional[float]) -> float:
        """The largest per-attempt timeout the budget still affords."""
        remaining = self.remaining()
        if timeout is None:
            return max(0.0, remaining) if remaining != float("inf") else remaining
        return max(0.0, min(timeout, remaining))


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, how long to wait, and what counts as transient.

    ``retryable`` lists the exception types worth another attempt;
    anything else propagates immediately.  ``deadline`` bounds the total
    wall time across attempts and sleeps.  ``jitter`` is the maximum
    fractional perturbation of each nominal delay (0.1 = ±10%).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    deadline: Optional[float] = None
    retryable: Tuple[Type[BaseException], ...] = (TransportError,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}, {self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    # -- schedule ----------------------------------------------------------

    def nominal_delays(self) -> Iterator[float]:
        """The un-jittered backoff sequence (one delay per retry gap)."""
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """Backoff sequence with jitter applied.

        Every jittered delay lies within ``jitter`` fraction of its
        nominal value, so the sequence stays ordered enough to reason
        about while decorrelating synchronised retriers.
        """
        rng = rng or random
        for nominal in self.nominal_delays():
            if self.jitter == 0.0 or nominal == 0.0:
                yield nominal
            else:
                # not nominal·(1 + u), which can round outside nominal ± jitter·nominal
                yield nominal + nominal * rng.uniform(-self.jitter, self.jitter)

    # -- execution ---------------------------------------------------------

    def call(
        self,
        fn: Callable[[Deadline], object],
        idempotent: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ):
        """Run ``fn`` under this policy; returns its result.

        ``fn`` receives the live :class:`Deadline` so it can clamp its own
        per-attempt timeouts to the remaining budget.  Non-idempotent
        operations run exactly once — the guard exists because a retried
        duplicate of e.g. a job submission could execute twice.

        Raises :class:`RetryError` wrapping the final failure when every
        permitted attempt failed.
        """
        deadline = Deadline(self.deadline, clock=clock)
        attempts = 0
        gaps = self.delays(rng=rng)
        while True:
            attempts += 1
            try:
                return fn(deadline)
            except self.retryable as exc:
                if not idempotent:
                    raise RetryError(
                        f"not retrying non-idempotent operation after: {exc}",
                        last=exc,
                        attempts=attempts,
                    ) from exc
                if attempts >= self.max_attempts:
                    raise RetryError(
                        f"gave up after {attempts} attempts: {exc}",
                        last=exc,
                        attempts=attempts,
                    ) from exc
                pause = next(gaps)
                if deadline.remaining() <= pause:
                    raise RetryError(
                        f"deadline exhausted after {attempts} attempts: {exc}",
                        last=exc,
                        attempts=attempts,
                    ) from exc
                if on_retry is not None:
                    on_retry(attempts, exc)
                if pause > 0:
                    sleep(pause)
