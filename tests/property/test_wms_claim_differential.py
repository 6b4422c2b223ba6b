"""Differential test: the per-claim usage cache changes no decision.

``WorkloadManager.claim`` reads each user's decayed fair-share usage
once per claim and re-reads only the user a grant charges.  The
reference below is the per-pick matchmaker it replaced: every pick
re-reads every user's usage from :class:`FairShare`.  Hypothesis drives
both managers through the same random history — submits, claims of
varying size and capability, completions, failures and clock steps —
and the grants and the journal files must come out byte-identical.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.wms import FileJournal, JobSpec, WorkloadManager

pytestmark = pytest.mark.wms


class PerPickReference(WorkloadManager):
    """The matchmaker as it was: decayed usage re-read on every pick."""

    def _pick_locked(self, capability, gap, now, usage):
        for priority in sorted(self._pending, reverse=True):
            tier = self._pending[priority]
            ordered = sorted(
                tier, key=lambda user: (self._shares.usage(user, now), user)
            )
            for user in ordered:
                record = self._records[tier[user][0]]
                if self.matchmaker.fits(record.spec, capability, gap):
                    self._dequeue_locked(record, 0)
                    return record
            budget = self.backfill_limit
            for user in ordered:
                queue = tier[user]
                for index in range(1, len(queue)):
                    if budget <= 0:
                        break
                    budget -= 1
                    record = self._records[queue[index]]
                    if self.matchmaker.fits(record.spec, capability, gap):
                        self._dequeue_locked(record, index)
                        return record
                if budget <= 0:
                    break
        return None


class SteppedClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


_submit = st.tuples(
    st.just("submit"),
    st.integers(min_value=0, max_value=5),  # user
    st.integers(min_value=0, max_value=2),  # priority
    st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0, 10.0]),  # work
    st.sampled_from([0, 0, 64, 512]),  # ram
)
_claim = st.tuples(
    st.just("claim"),
    st.integers(min_value=1, max_value=12),  # count
    st.sampled_from([None, 0, 64, 1024]),  # ram_free (None: no capability)
    st.sampled_from([None, 0.5, 2.0]),  # backfill gap
    st.just(None),
)
_report = st.tuples(
    st.sampled_from(["done", "fail"]),
    st.integers(min_value=0, max_value=15),  # which outstanding grant
    st.just(None),
    st.just(None),
    st.just(None),
)
_step = st.tuples(
    st.just("step"),
    st.sampled_from([0.001, 0.1, 1.0, 7.5, 60.0]),
    st.just(None),
    st.just(None),
    st.just(None),
)
_histories = st.lists(st.one_of(_submit, _claim, _report, _step), max_size=80)


def _drive(cls, path: str, history) -> list:
    """Run ``history`` against a fresh ``cls`` manager; returns every reply."""
    clock = SteppedClock()
    wms = cls(
        clock=clock, journal=FileJournal(path), half_life=5.0, backfill_limit=3
    )
    replies: list = []
    outstanding: list[dict] = []
    submitted = 0
    try:
        for action, a, b, c, d in history:
            if action == "submit":
                spec = JobSpec(
                    job_id=f"j{submitted}",
                    user=f"u{a}",
                    priority=b,
                    work=c,
                    ram=d,
                    max_attempts=2,
                )
                submitted += 1
                replies.append(wms.submit(spec))
            elif action == "claim":
                capability = None if b is None else {"ram_free": b, "speed": 1.0}
                grants = wms.claim("p", site="S", capability=capability, count=a, gap=c)
                outstanding.extend(grants)
                replies.append(grants)
            elif action == "step":
                clock.now += a
            elif outstanding:
                grant = outstanding.pop(a % len(outstanding))
                job_id = grant["job"]["job_id"]
                if action == "done":
                    replies.append(wms.complete(job_id, grant["token"]))
                else:
                    replies.append(wms.fail(job_id, grant["token"], "boom"))
        replies.append(wms.claim("drain", count=10_000))
        replies.append(wms.status())
        replies.append(wms.fair_shares())
    finally:
        wms.close()
    return replies


@settings(max_examples=150, deadline=None)
@given(_histories)
def test_claims_and_journal_match_the_per_pick_reference(history):
    with tempfile.TemporaryDirectory() as tmp:
        ours = os.path.join(tmp, "ours.jsonl")
        reference = os.path.join(tmp, "reference.jsonl")
        assert _drive(WorkloadManager, ours, history) == _drive(
            PerPickReference, reference, history
        )
        with open(ours, "rb") as fh_ours, open(reference, "rb") as fh_ref:
            assert fh_ours.read() == fh_ref.read()
