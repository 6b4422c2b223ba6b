"""Unit tests for the usage ledger and credit policy."""

import pytest

from repro.control.accounting import CreditPolicy, UsageLedger, UsageRecord


def make_ledger_with_traffic():
    ledger = UsageLedger()
    # alice (site A) runs work at B twice and at home once.
    ledger.record("alice", "A", "B", "B.n0", "render", 10.0)
    ledger.record("alice", "A", "B", "B.n1", "render", 5.0)
    ledger.record("alice", "A", "A", "A.n0", "render", 7.0)
    # bob (site B) runs work at A.
    ledger.record("bob", "B", "A", "A.n1", "simulate", 4.0)
    return ledger


class TestUsageLedger:
    def test_record_and_len(self):
        ledger = make_ledger_with_traffic()
        assert len(ledger) == 4

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            UsageLedger().record("u", "A", "B", "n", "t", -1.0)

    def test_usage_by_user(self):
        usage = make_ledger_with_traffic().usage_by_user()
        assert usage == {"alice": 22.0, "bob": 4.0}

    def test_contribution_by_site_counts_foreign_only(self):
        contribution = make_ledger_with_traffic().contribution_by_site()
        assert contribution == {"B": 15.0, "A": 4.0}

    def test_consumption_by_site(self):
        consumption = make_ledger_with_traffic().consumption_by_site()
        assert consumption == {"A": 15.0, "B": 4.0}

    def test_jobs_by_task(self):
        counts = make_ledger_with_traffic().jobs_by_task()
        assert counts == {"render": 3, "simulate": 1}

    def test_is_foreign_flag(self):
        record = UsageRecord("u", "A", "B", "n", "t", 1.0, 0.0)
        assert record.is_foreign
        local = UsageRecord("u", "A", "A", "n", "t", 1.0, 0.0)
        assert not local.is_foreign

    def test_records_returns_copy(self):
        ledger = make_ledger_with_traffic()
        ledger.records().clear()
        assert len(ledger) == 4

    def test_clock_stamps_records(self):
        clock_value = [100.0]
        ledger = UsageLedger(clock=lambda: clock_value[0])
        entry = ledger.record("u", "A", "B", "n", "t", 1.0)
        assert entry.recorded_at == 100.0


class TestCreditPolicy:
    def test_hosting_earns_consuming_costs(self):
        policy = CreditPolicy(rate=2.0)
        policy.settle(make_ledger_with_traffic())
        # B hosted 15s of A's work (+30), consumed 4s at A (-8) -> +22.
        assert policy.site_balance("B") == pytest.approx(22.0)
        assert policy.site_balance("A") == pytest.approx(-22.0)

    def test_zero_sum(self):
        policy = CreditPolicy(rate=1.5)
        policy.settle(make_ledger_with_traffic())
        assert policy.in_balance()

    def test_local_work_is_free(self):
        ledger = UsageLedger()
        ledger.record("alice", "A", "A", "A.n0", "t", 100.0)
        policy = CreditPolicy()
        policy.settle(ledger)
        assert policy.site_balance("A") == 0.0

    def test_initial_balance(self):
        policy = CreditPolicy(initial_balance=50.0)
        assert policy.site_balance("anywhere") == 50.0

    def test_settle_is_idempotent(self):
        ledger = make_ledger_with_traffic()
        policy = CreditPolicy()
        first = policy.settle(ledger)
        second = policy.settle(ledger)
        assert first == second


class TestGridIntegration:
    def test_jobs_flow_into_the_grid_ledger(self):
        from repro.core.grid import Grid

        grid = Grid()
        grid.add_site("A", nodes=1)
        grid.add_site("B", nodes=1)
        grid.connect_all()
        grid.add_user("alice", "pw")
        grid.grant("user:alice", "site:*", "submit")
        try:
            token = grid.login("alice", "pw", via_site="A")
            grid.submit_job_with_token(token, "noop", origin_site="A")
            grid.submit_job_with_token(
                token, "sum_range", {"n": 1000},
                origin_site="A", target_site="B",
            )
            records = grid.ledger.records()
            assert len(records) == 2
            local, remote = records
            assert not local.is_foreign
            assert remote.is_foreign
            assert remote.origin_site == "A"
            assert remote.executed_site == "B"
            assert remote.userid == "alice"
            assert remote.cpu_seconds >= 0.0
            policy = CreditPolicy()
            policy.settle(grid.ledger)
            assert policy.in_balance()
            assert policy.site_balance("B") > 0.0 or remote.cpu_seconds == 0.0
        finally:
            grid.shutdown()
