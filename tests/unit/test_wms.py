"""Unit tests for the workload manager (queue, fair share, journal).

Everything here drives :class:`WorkloadManager` directly with a manual
logical clock — the wire path is covered by the integration/parity and
chaos suites.
"""

import itertools
import os

import pytest

from repro.control.wms import (
    FairShare,
    FileJournal,
    JobSpec,
    JobState,
    Matchmaker,
    MemoryJournal,
    WmsError,
    WorkloadManager,
    site_capability,
)


def make_clock(step: float = 1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


def make_wms(**kwargs):
    kwargs.setdefault("clock", make_clock())
    return WorkloadManager(**kwargs)


class TestJobSpec:
    def test_wire_round_trip(self):
        spec = JobSpec(
            job_id="j1", user="ada", group="g", priority=3, work=2.5,
            ram=1 << 20, max_attempts=5,
        )
        assert JobSpec.from_wire(spec.to_wire()) == spec

    def test_validation(self):
        with pytest.raises(WmsError):
            JobSpec(job_id="")
        with pytest.raises(WmsError):
            JobSpec(job_id="j", work=-1.0)
        with pytest.raises(WmsError):
            JobSpec(job_id="j", ram=-1)
        with pytest.raises(WmsError):
            JobSpec(job_id="j", max_attempts=0)
        with pytest.raises(WmsError):
            JobSpec.from_wire({"user": "no-id"})


class TestFairShare:
    def test_decay_half_life(self):
        shares = FairShare(half_life=10.0)
        shares.charge("ada", 8.0, now=0.0)
        assert shares.usage("ada", now=0.0) == pytest.approx(8.0)
        assert shares.usage("ada", now=10.0) == pytest.approx(4.0)
        assert shares.usage("ada", now=20.0) == pytest.approx(2.0)

    def test_unknown_user_is_zero(self):
        assert FairShare().usage("nobody", now=5.0) == 0.0

    def test_charge_accumulates_decayed(self):
        shares = FairShare(half_life=10.0)
        shares.charge("ada", 8.0, now=0.0)
        shares.charge("ada", 1.0, now=10.0)
        assert shares.usage("ada", now=10.0) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(WmsError):
            FairShare(half_life=0.0)


class TestMatchmaker:
    def test_ram_gate(self):
        mm = Matchmaker()
        spec = JobSpec(job_id="j", ram=100)
        assert mm.fits(spec, {"ram_free": 100, "speed": 1.0})
        assert not mm.fits(spec, {"ram_free": 99, "speed": 1.0})

    def test_gap_gate_scales_with_speed(self):
        mm = Matchmaker()
        spec = JobSpec(job_id="j", work=10.0)
        assert not mm.fits(spec, {"ram_free": 0, "speed": 1.0}, gap=5.0)
        assert mm.fits(spec, {"ram_free": 0, "speed": 4.0}, gap=5.0)
        assert not mm.fits(spec, {"ram_free": 0, "speed": 0.0}, gap=5.0)

    def test_no_capability_means_fit(self):
        assert Matchmaker().fits(JobSpec(job_id="j", ram=1 << 40), None)

    def test_site_capability_summary(self):
        entries = [
            {"alive": True, "ram_free": 100, "cpu_speed": 1.0, "running_tasks": 0},
            {"alive": True, "ram_free": 300, "cpu_speed": 2.0, "running_tasks": 1},
            {"alive": False, "ram_free": 900, "cpu_speed": 9.0, "running_tasks": 0},
        ]
        assert site_capability(entries) == {
            "ram_free": 300, "speed": 2.0, "slots": 1,
        }
        assert site_capability([]) == {"ram_free": 0, "speed": 0.0, "slots": 0}


class TestSubmitClaim:
    def test_submit_and_fifo_claim(self):
        wms = make_wms()
        for i in range(3):
            assert wms.submit(JobSpec(job_id=f"j{i}", user="u")) == {
                "job_id": f"j{i}", "state": JobState.PENDING,
            }
        got = wms.claim("p", count=3)
        assert [g["job"]["job_id"] for g in got] == ["j0", "j1", "j2"]
        assert got[0]["token"] == "j0#1"

    def test_submit_is_idempotent_on_job_id(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j0"))
        again = wms.submit(JobSpec(job_id="j0"))
        assert again["duplicate"] is True
        assert wms.status()["submitted"] == 1

    def test_priority_tiers_before_fairness(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="low", user="u", priority=0))
        wms.submit(JobSpec(job_id="high", user="u", priority=9))
        assert wms.claim("p")[0]["job"]["job_id"] == "high"

    def test_fair_share_least_served_user_first(self):
        wms = make_wms()
        for i in range(4):
            wms.submit(JobSpec(job_id=f"a{i}", user="alice", work=10.0))
        wms.submit(JobSpec(job_id="b0", user="bob", work=10.0))
        first = wms.claim("p")[0]["job"]["job_id"]
        # alice ties bob at zero usage and wins alphabetically ...
        assert first == "a0"
        # ... but having been served, she yields to bob next.
        assert wms.claim("p")[0]["job"]["job_id"] == "b0"

    def test_empty_claim_when_nothing_fits(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="big", ram=1 << 30))
        assert wms.claim("p", capability={"ram_free": 1 << 20, "speed": 1.0}) == []
        assert wms.status()["pending"] == 1

    def test_claim_id_replays_assignment(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j0"))
        wms.submit(JobSpec(job_id="j1"))
        first = wms.claim("p", count=1, claim_id="c1")
        again = wms.claim("p", count=1, claim_id="c1")
        assert again == first
        assert wms.status()["claimed"] == 1  # no double claim

    def test_claim_validation(self):
        with pytest.raises(WmsError):
            make_wms().claim("p", count=0)


class TestBackfill:
    def test_small_job_backfills_past_giant_head(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="giant", user="u", ram=1 << 30))
        wms.submit(JobSpec(job_id="small", user="u", ram=0))
        got = wms.claim("p", capability={"ram_free": 1 << 20, "speed": 1.0})
        assert got[0]["job"]["job_id"] == "small"
        assert wms.pending_jobs() == ["giant"]

    def test_backfill_budget_bounds_the_scan(self):
        wms = make_wms(backfill_limit=2)
        wms.submit(JobSpec(job_id="giant", user="u", ram=1 << 30))
        for i in range(3):
            wms.submit(JobSpec(job_id=f"mid{i}", user="u", ram=1 << 30))
        wms.submit(JobSpec(job_id="small", user="u", ram=0))
        # small sits at depth 4; a budget of 2 never reaches it.
        assert wms.claim("p", capability={"ram_free": 1, "speed": 1.0}) == []

    def test_gap_backfill_prefers_short_job(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="long", user="u", work=100.0))
        wms.submit(JobSpec(job_id="short", user="u", work=1.0))
        got = wms.claim("p", capability={"ram_free": 0, "speed": 1.0}, gap=5.0)
        assert got[0]["job"]["job_id"] == "short"


class TestCompletionAndFailure:
    def test_complete_happy_path(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j"))
        [got] = wms.claim("p")
        assert wms.complete("j", got["token"]) == {
            "job_id": "j", "state": JobState.DONE,
        }
        assert wms.status()["done"] == 1

    def test_duplicate_done_is_acknowledged(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j"))
        [got] = wms.claim("p")
        wms.complete("j", got["token"])
        again = wms.complete("j", got["token"])
        assert again["duplicate"] is True
        assert wms.status()["done"] == 1

    def test_stale_token_is_ignored(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j", max_attempts=5))
        [first] = wms.claim("p1")
        wms.fail("j", first["token"], "node died")
        [second] = wms.claim("p2")
        # p1's zombie report arrives late: the current attempt owns it.
        assert wms.complete("j", first["token"])["stale"] is True
        assert wms.status()["claimed"] == 1
        assert wms.complete("j", second["token"])["state"] == JobState.DONE

    def test_fail_requeues_at_front(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j0", user="u", max_attempts=5))
        wms.submit(JobSpec(job_id="j1", user="u"))
        [got] = wms.claim("p")
        wms.fail("j0", got["token"], "boom")
        assert wms.claim("p")[0]["job"]["job_id"] == "j0"

    def test_dead_letter_after_max_attempts(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j", max_attempts=2))
        for _ in range(2):
            [got] = wms.claim("p")
            wms.fail("j", got["token"], "boom")
        status = wms.status("j")
        assert status["state"] == JobState.DEAD
        assert status["error"] == "boom"
        assert wms.claim("p") == []

    def test_unknown_job_raises(self):
        with pytest.raises(WmsError):
            make_wms().complete("ghost", "t")


class TestReleasePilot:
    def test_release_requeues_all_claims(self):
        wms = make_wms()
        for i in range(3):
            wms.submit(JobSpec(job_id=f"j{i}", max_attempts=5))
        wms.claim("p", count=3)
        released = wms.release_pilot("p")
        assert released == ["j0", "j1", "j2"]
        assert wms.status()["pending"] == 3

    def test_release_is_idempotent(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j", max_attempts=5))
        wms.claim("p")
        wms.release_pilot("p")
        assert wms.release_pilot("p") == []
        assert wms.status("j")["attempts"] == 1

    def test_release_respects_dead_letter(self):
        wms = make_wms()
        wms.submit(JobSpec(job_id="j", max_attempts=1))
        wms.claim("p")
        wms.release_pilot("p")
        assert wms.status("j")["state"] == JobState.DEAD


class TestJournalReplay:
    def _drive(self, wms):
        for i in range(4):
            wms.submit(JobSpec(job_id=f"j{i}", user=f"u{i % 2}", max_attempts=2))
        claimed = wms.claim("p1", count=2)
        wms.complete(claimed[0]["job"]["job_id"], claimed[0]["token"])
        wms.fail(claimed[1]["job"]["job_id"], claimed[1]["token"], "boom")
        wms.claim("p2", count=1)
        wms.release_pilot("p2")

    def test_replay_rebuilds_exact_state(self):
        journal = MemoryJournal()
        wms = make_wms(journal=journal)
        self._drive(wms)
        rebuilt = WorkloadManager.replay(journal.events, clock=make_clock())
        assert rebuilt.status() == wms.status()
        assert rebuilt.pending_jobs() == wms.pending_jobs()

    def test_replay_continues_claim_order(self):
        journal = MemoryJournal()
        wms = make_wms(journal=journal)
        self._drive(wms)
        rebuilt = WorkloadManager.replay(journal.events, clock=make_clock())
        a = [g["job"]["job_id"] for g in wms.claim("px", count=10)]
        b = [g["job"]["job_id"] for g in rebuilt.claim("px", count=10)]
        assert a == b

    def test_replay_rejects_unknown_event(self):
        with pytest.raises(WmsError):
            WorkloadManager.replay([{"ev": "mystery", "t": 0.0}])

    def test_file_journal_recover(self, tmp_path):
        path = os.fspath(tmp_path / "wms.jsonl")
        wms = make_wms(journal=FileJournal(path))
        for i in range(5):
            wms.submit(JobSpec(job_id=f"j{i}", max_attempts=3))
        claimed = wms.claim("p", count=2)
        wms.complete(claimed[0]["job"]["job_id"], claimed[0]["token"])
        # No close: the process "crashes" here.
        recovered = WorkloadManager.recover(path, clock=make_clock())
        status = recovered.status()
        assert status["done"] == 1
        assert status["claimed"] == 0  # outstanding lease requeued
        assert status["pending"] == 4
        # The recovered manager journals onward into the same file.
        recovered.claim("p2", count=1)
        recovered.close()
        events = [e["ev"] for e in FileJournal.read(path)]
        assert events.count("claim") == 3

    def test_torn_tail_is_dropped(self, tmp_path):
        path = os.fspath(tmp_path / "wms.jsonl")
        wms = make_wms(journal=FileJournal(path))
        wms.submit(JobSpec(job_id="j0"))
        wms.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "cla')  # crash mid-write
        assert [e["ev"] for e in FileJournal.read(path)] == ["submit"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = os.fspath(tmp_path / "wms.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write('{"ev": "submit"}\n')
        with pytest.raises(WmsError):
            FileJournal.read(path)

    def test_read_missing_file_is_empty(self, tmp_path):
        assert FileJournal.read(os.fspath(tmp_path / "absent.jsonl")) == []


class TestMetrics:
    def test_counters_and_depth_gauge(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry("wms-test")
        wms = make_wms(metrics=registry)
        wms.submit(JobSpec(job_id="j0", max_attempts=1))
        wms.submit(JobSpec(job_id="j1"))
        [got] = wms.claim("p")
        wms.fail("j0", got["token"], "boom")
        [got] = wms.claim("p")
        wms.complete("j1", got["token"])
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["wms.submitted"] == 2
        assert counters["wms.claims"] == 2
        assert counters["wms.jobs_claimed"] == 2
        assert counters["wms.completed"] == 1
        assert counters["wms.dead_lettered"] == 1
        assert snap["gauges"]["wms.queue_depth"] == 0


class SteppedClock:
    """A clock that moves only when the test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestJournalGolden:
    """The journal bytes of a fixed history, pinned as a literal.

    The history touches every journal kind: submits by two users, a
    two-job claim, a completion, a failure that requeues, a pilot loss
    that dead-letters a ``max_attempts=1`` job, and a duplicate report
    (which journals nothing).  Replaying the bytes must rebuild the live
    manager exactly.
    """

    NO_RAM = {"ram_free": 0, "speed": 1.0}
    GOLDEN = (
        '{"ev": "submit", "job": {"group": "", "job_id": "a0", "max_attempts": 3,'
        ' "priority": 0, "ram": 0, "user": "alice", "work": 1.0}, "seq": 1, "t": 0.0}\n'
        '{"ev": "submit", "job": {"group": "", "job_id": "b0", "max_attempts": 3,'
        ' "priority": 0, "ram": 0, "user": "bob", "work": 2.0}, "seq": 2, "t": 0.25}\n'
        '{"ev": "submit", "job": {"group": "", "job_id": "a1", "max_attempts": 1,'
        ' "priority": 0, "ram": 0, "user": "alice", "work": 0.5}, "seq": 3, "t": 0.5}\n'
        '{"ev": "submit", "job": {"group": "", "job_id": "b1", "max_attempts": 3,'
        ' "priority": 0, "ram": 64, "user": "bob", "work": 1.0}, "seq": 4, "t": 0.75}\n'
        '{"ev": "submit", "job": {"group": "", "job_id": "a2", "max_attempts": 3,'
        ' "priority": 0, "ram": 0, "user": "alice", "work": 1.5}, "seq": 5, "t": 1.0}\n'
        '{"attempt": 1, "ev": "claim", "job": "a0", "pilot": "p1", "site": "S1", "t": 1.25}\n'
        '{"attempt": 1, "ev": "claim", "job": "b0", "pilot": "p1", "site": "S1", "t": 1.25}\n'
        '{"attempt": 1, "ev": "done", "job": "a0", "t": 1.75}\n'
        '{"attempt": 1, "error": "boom", "ev": "requeue", "job": "b0", "t": 2.25}\n'
        '{"attempt": 1, "ev": "claim", "job": "a1", "pilot": "p2", "site": "S2", "t": 2.75}\n'
        '{"attempt": 1, "error": "pilot lost", "ev": "dead", "job": "a1", "t": 3.25}\n'
    )

    def _drive(self, path, clock):
        wms = WorkloadManager(clock=clock, journal=FileJournal(path), half_life=10.0)
        for spec in (
            JobSpec(job_id="a0", user="alice", work=1.0),
            JobSpec(job_id="b0", user="bob", work=2.0),
            JobSpec(job_id="a1", user="alice", work=0.5, max_attempts=1),
            JobSpec(job_id="b1", user="bob", ram=64),
            JobSpec(job_id="a2", user="alice", work=1.5),
        ):
            wms.submit(spec)
            clock.now += 0.25
        grants = wms.claim("p1", site="S1", capability=self.NO_RAM, count=2)
        assert [g["token"] for g in grants] == ["a0#1", "b0#1"]
        clock.now += 0.5
        wms.complete("a0", "a0#1")
        clock.now += 0.5
        assert wms.fail("b0", "b0#1", "boom")["state"] == JobState.PENDING
        clock.now += 0.5
        [grant] = wms.claim("p2", site="S2", capability=self.NO_RAM)
        assert grant["token"] == "a1#1"
        clock.now += 0.5
        assert wms.release_pilot("p2") == ["a1"]
        clock.now += 0.5
        assert wms.complete("a0", "a0#1")["duplicate"] is True
        clock.now += 0.5
        return wms

    def test_journal_bytes_and_replay(self, tmp_path):
        path = os.fspath(tmp_path / "wms.jsonl")
        clock = SteppedClock()
        live = self._drive(path, clock)
        try:
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == self.GOLDEN
            rebuilt = WorkloadManager.replay(
                FileJournal.read(path), clock=clock, half_life=10.0
            )
            assert rebuilt.status() == live.status()
            assert rebuilt.pending_jobs() == live.pending_jobs() == ["b0", "b1", "a2"]
            assert rebuilt.fair_shares() == live.fair_shares() == pytest.approx(
                {"alice": 1.2628776276616505, "bob": 1.6245047927124712}, rel=1e-12
            )
            # b0 was requeued ahead of b1: a retried job keeps its seniority.
            order = [g["token"] for g in live.claim("px", count=10)]
            assert order == ["a2#1", "b0#2", "b1#1"]
            assert [g["token"] for g in rebuilt.claim("px", count=10)] == order
        finally:
            live.close()


class TestCorruptJournal:
    """Replay refuses histories the live manager could not have written."""

    def _history(self, max_attempts):
        journal = MemoryJournal()
        wms = make_wms(journal=journal)
        wms.submit(JobSpec(job_id="j", max_attempts=max_attempts))
        wms.submit(JobSpec(job_id="k"))
        [grant] = wms.claim("p")
        wms.fail("j", grant["token"], "boom")
        return journal.events

    def test_requeue_of_a_spent_job_raises(self):
        events = self._history(max_attempts=1)
        assert events[-1]["ev"] == "dead"
        events[-1] = dict(events[-1], ev="requeue")
        with pytest.raises(WmsError):
            WorkloadManager.replay(events)

    def test_dead_letter_of_a_job_with_attempts_left_raises(self):
        events = self._history(max_attempts=2)
        assert events[-1]["ev"] == "requeue"
        events[-1] = dict(events[-1], ev="dead")
        with pytest.raises(WmsError):
            WorkloadManager.replay(events)

    @pytest.mark.parametrize("others", [0, 1], ids=["alone", "with-a-pending-sibling"])
    def test_claim_of_a_job_that_is_not_pending_raises(self, others):
        journal = MemoryJournal()
        wms = make_wms(journal=journal)
        for i in range(1 + others):
            wms.submit(JobSpec(job_id=f"j{i}"))
        wms.claim("p")
        claim = journal.events[-1]
        assert claim["ev"] == "claim" and claim["job"] == "j0"
        with pytest.raises(WmsError):
            WorkloadManager.replay(journal.events + [claim])

    def test_second_submit_of_a_job_raises(self):
        journal = MemoryJournal()
        wms = make_wms(journal=journal)
        wms.submit(JobSpec(job_id="j"))
        with pytest.raises(WmsError):
            WorkloadManager.replay(journal.events * 2)

    def test_report_on_a_job_that_is_not_claimed_raises(self):
        journal = MemoryJournal()
        wms = make_wms(journal=journal)
        wms.submit(JobSpec(job_id="j"))
        done = {"ev": "done", "t": 1.0, "job": "j", "attempt": 1}
        with pytest.raises(WmsError):
            WorkloadManager.replay(journal.events + [done])
