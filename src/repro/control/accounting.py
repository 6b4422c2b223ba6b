"""Usage accounting and reward mechanisms.

The paper lists, among desirable grid services, "resource and task
storage, and reward mechanisms" (citing Buyya's economic grid
scheduling).  This module provides the bookkeeping half: a
:class:`UsageLedger` accounts every job executed through the proxies —
who ran it, whose site donated the cycles — and a :class:`CreditPolicy`
converts the ledger into credits: sites *earn* for hosting foreign work,
users *spend* for consuming it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["CreditPolicy", "RECENT_RECORDS", "UsageLedger", "UsageRecord"]


@dataclass(frozen=True)
class UsageRecord:
    """One executed job, as the destination proxy accounted it."""

    userid: str
    origin_site: str
    executed_site: str
    node: str
    task: str
    cpu_seconds: float
    recorded_at: float

    @property
    def is_foreign(self) -> bool:
        """True when the executing site donated cycles to another site."""
        return self.origin_site != self.executed_site


#: The most recent records a ledger keeps; its totals cover every job.
RECENT_RECORDS = 4096


class UsageLedger:
    """Running totals of grid work (per user, per task, per origin →
    executed site pair of foreign work) plus the last
    :data:`RECENT_RECORDS` records; ``len()`` counts the records held,
    ``sum(jobs_by_task().values())`` every job ever recorded."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or (lambda: 0.0)
        self._recent: deque[UsageRecord] = deque(maxlen=RECENT_RECORDS)
        self._by_user: dict[str, float] = {}
        self._by_task: dict[str, int] = {}
        self._foreign: dict[tuple[str, str], float] = {}
        self._lock = threading.Lock()

    def record(
        self,
        userid: str,
        origin_site: str,
        executed_site: str,
        node: str,
        task: str,
        cpu_seconds: float,
    ) -> UsageRecord:
        if cpu_seconds < 0:
            raise ValueError(f"negative cpu_seconds: {cpu_seconds}")
        entry = UsageRecord(
            userid=userid,
            origin_site=origin_site,
            executed_site=executed_site,
            node=node,
            task=task,
            cpu_seconds=cpu_seconds,
            recorded_at=self.clock(),
        )
        with self._lock:
            self._recent.append(entry)
            self._by_user[userid] = self._by_user.get(userid, 0.0) + cpu_seconds
            self._by_task[task] = self._by_task.get(task, 0) + 1
            if origin_site != executed_site:
                pair = (origin_site, executed_site)
                self._foreign[pair] = self._foreign.get(pair, 0.0) + cpu_seconds
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)

    def records(self) -> list[UsageRecord]:
        with self._lock:
            return list(self._recent)

    # -- aggregations (over every job recorded) ------------------------------

    def usage_by_user(self) -> dict[str, float]:
        """CPU-seconds consumed per user."""
        with self._lock:
            return dict(self._by_user)

    def foreign_usage(self) -> dict[tuple[str, str], float]:
        """CPU-seconds of foreign work per (origin site, executed site)."""
        with self._lock:
            return dict(self._foreign)

    def _foreign_by(self, end: int) -> dict[str, float]:
        totals: dict[str, float] = {}
        for pair, cpu_seconds in self.foreign_usage().items():
            totals[pair[end]] = totals.get(pair[end], 0.0) + cpu_seconds
        return totals

    def contribution_by_site(self) -> dict[str, float]:
        """CPU-seconds each site executed for *other* sites' users."""
        return self._foreign_by(1)

    def consumption_by_site(self) -> dict[str, float]:
        """CPU-seconds each site's users consumed *elsewhere*."""
        return self._foreign_by(0)

    def jobs_by_task(self) -> dict[str, int]:
        with self._lock:
            return dict(self._by_task)


@dataclass
class CreditPolicy:
    """Converts ledger entries into credits.

    ``rate`` is credits per donated CPU-second; hosting foreign work
    earns, consuming foreign cycles costs.  Local work is free — the
    owner's site is serving its own users.
    """

    rate: float = 1.0
    initial_balance: float = 0.0
    _balances: dict[str, float] = field(default_factory=dict)

    def site_balance(self, site: str) -> float:
        return self._balances.get(site, self.initial_balance)

    def apply(self, entry: UsageRecord) -> None:
        if entry.is_foreign:
            self._transfer(entry.origin_site, entry.executed_site, entry.cpu_seconds)

    def _transfer(self, origin: str, executed: str, cpu_seconds: float) -> None:
        amount = cpu_seconds * self.rate
        self._balances[executed] = self.site_balance(executed) + amount
        self._balances[origin] = self.site_balance(origin) - amount

    def settle(self, ledger: UsageLedger) -> dict[str, float]:
        """Recompute all balances from the ledger's foreign-work totals."""
        self._balances.clear()
        for (origin, executed), cpu_seconds in ledger.foreign_usage().items():
            self._transfer(origin, executed, cpu_seconds)
        return dict(self._balances)

    def in_balance(self) -> bool:
        """Credits are zero-sum across the grid."""
        return abs(sum(self._balances.values())) < 1e-9
