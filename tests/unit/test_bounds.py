"""In-memory structures stay bounded however long the grid runs.

Each test drives one structure past its bound and checks both halves of
the contract: memory stops at the bound, and what the structure answers
is still right for everything it has seen.
"""

import random

import pytest

from repro.control.accounting import (
    RECENT_RECORDS,
    CreditPolicy,
    UsageLedger,
    UsageRecord,
)


class TestUsageLedgerBound:
    JOBS = 10_000

    def test_totals_cover_every_job_while_records_stay_bounded(self):
        rng = random.Random(7)
        sites, users, tasks = ["A", "B", "C"], ["u0", "u1", "u2"], ["t0", "t1"]
        ledger = UsageLedger()
        replayed = CreditPolicy(rate=1.5)
        by_user, by_task = {}, {}
        contribution, consumption = {}, {}
        for _ in range(self.JOBS):
            user, task = rng.choice(users), rng.choice(tasks)
            origin, executed = rng.choice(sites), rng.choice(sites)
            cpu = rng.random()
            entry = ledger.record(user, origin, executed, "n0", task, cpu)
            replayed.apply(entry)
            by_user[user] = by_user.get(user, 0.0) + cpu
            by_task[task] = by_task.get(task, 0) + 1
            if origin != executed:
                contribution[executed] = contribution.get(executed, 0.0) + cpu
                consumption[origin] = consumption.get(origin, 0.0) + cpu

        assert RECENT_RECORDS == 4096
        assert len(ledger) == RECENT_RECORDS
        records = ledger.records()
        assert len(records) == RECENT_RECORDS
        assert all(isinstance(r, UsageRecord) for r in records)
        assert sum(ledger.jobs_by_task().values()) == self.JOBS
        assert ledger.jobs_by_task() == by_task
        for totals, reference in (
            (ledger.usage_by_user(), by_user),
            (ledger.contribution_by_site(), contribution),
            (ledger.consumption_by_site(), consumption),
        ):
            assert totals.keys() == reference.keys()
            for key, value in reference.items():
                assert totals[key] == pytest.approx(value, rel=0, abs=1e-9)

        settled = CreditPolicy(rate=1.5).settle(ledger)
        assert settled.keys() == contribution.keys() | consumption.keys()
        for site in sites:
            assert settled.get(site, 0.0) == pytest.approx(
                replayed.site_balance(site), rel=0, abs=1e-9
            )

    def test_records_window_keeps_the_most_recent(self):
        ledger = UsageLedger()
        for i in range(RECENT_RECORDS + 10):
            ledger.record(f"u{i}", "A", "A", "n0", "t", 0.0)
        records = ledger.records()
        assert records[0].userid == "u10"
        assert records[-1].userid == f"u{RECENT_RECORDS + 9}"
