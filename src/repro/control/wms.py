"""Grid workload management: durable queue, fair share, late binding.

The paper's named improvement is a scheduler that "provides balanced
process distribution using the grid's status information" instead of
MPI's round-robin.  This module grows that idea to grid scale, following
the DIRAC pilot-job model: jobs are not pushed to nodes — they wait in a
**durable priority queue** at an authority proxy, and *sites claim work*
when they have capacity (late binding).  A claim carries the site's
Layer-3 status data, so matchmaking always runs against the freshest
capability picture a site can give.

Components:

* :class:`JobSpec` / :class:`JobRecord` — one unit of work and its
  lifecycle (``pending → claimed → done``, back to ``pending`` on
  failure, ``dead`` after ``max_attempts``).
* :class:`FairShare` — exponentially-decayed per-user usage; within one
  priority tier, claims go to the user with the smallest decayed usage,
  so a heavy submitter cannot starve light ones and an idle user's
  standing recovers over time (half-life, not hard reset).
* :class:`Matchmaker` — capability matching against the per-site status
  entries the control plane already compiles (``local_status`` /
  ``synthetic_status`` shape), plus **backfill**: when the fair-share
  head job does not fit the claimer (RAM, or the claimer's idle gap), a
  bounded scan finds a smaller job that does, so capacity never idles
  behind a giant.
* :class:`FileJournal` / :class:`MemoryJournal` — an append-only event
  journal.  Every state transition is journaled *before* it is
  acknowledged; :meth:`WorkloadManager.replay` rebuilds the exact queue
  state from the event stream, and :meth:`WorkloadManager.recover`
  restarts from a journal file after a crash (outstanding claims are
  requeued — their leases died with the process).
* :class:`WorkloadManager` — the authority: ``submit`` / ``claim`` /
  ``complete`` / ``fail`` / ``release_pilot``, all idempotent where the
  protocol needs them to be.

Idempotency model (what makes the JOB_* ops safe to retry):

* ``submit`` dedups on ``job_id`` — a re-sent submit acknowledges the
  existing record instead of enqueueing a twin.
* ``claim`` dedups on ``claim_id`` — a re-sent claim returns the same
  assignment from a bounded cache instead of claiming fresh jobs.
* ``complete``/``fail`` are guarded by a per-attempt **token**: each
  claim mints ``job_id#attempt``, and a report carrying a stale token
  (the job was requeued and reclaimed since) is ignored.  This is what
  keeps a job from finishing twice when a site dies after executing but
  before reporting.

Requeue-on-site-death: the proxy wires ``FailureDetector.on_dead`` to
:meth:`WorkloadManager.release_pilot`, so every job claimed through a
dead pilot goes back to the queue (or to the dead-letter set once its
attempts are spent) the moment the tunnel layer declares the peer gone.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.racesan import shared_state

__all__ = [
    "FairShare",
    "FileJournal",
    "JobRecord",
    "JobSpec",
    "JobState",
    "Matchmaker",
    "MemoryJournal",
    "WmsError",
    "WorkloadManager",
    "site_capability",
]


#: Claim ids remembered for JOB_CLAIM replies (a retried claim within
#: this many newer claims replays its grant instead of claiming again).
CLAIM_CACHE_SIZE = 1024

#: One encoder for every journal line: ``json.dumps(..., sort_keys=True)``
#: would build a fresh encoder per event, for the same bytes.
_JOURNAL_ENCODER = json.JSONEncoder(sort_keys=True)


class WmsError(Exception):
    """Malformed job, unknown job id, or journal corruption."""


class JobState:
    """Lifecycle states (plain strings: they travel in wire bodies)."""

    PENDING = "pending"
    CLAIMED = "claimed"
    DONE = "done"
    DEAD = "dead"


@dataclass(frozen=True)
class JobSpec:
    """One unit of grid work, as submitted.

    ``job_id`` is client-assigned and is the submit idempotency key —
    a retried JOB_QSUBMIT with the same id acknowledges the existing
    record.  ``work`` is CPU-seconds on a reference (speed 1.0) node.
    """

    job_id: str
    user: str = "anon"
    group: str = ""
    priority: int = 0
    work: float = 1.0
    ram: int = 0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not self.job_id or not isinstance(self.job_id, str):
            raise WmsError(f"job_id must be a non-empty string: {self.job_id!r}")
        if self.work < 0:
            raise WmsError(f"negative work: {self.work}")
        if self.ram < 0:
            raise WmsError(f"negative ram: {self.ram}")
        if self.max_attempts < 1:
            raise WmsError(f"max_attempts must be >= 1: {self.max_attempts}")

    def to_wire(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "user": self.user,
            "group": self.group,
            "priority": self.priority,
            "work": self.work,
            "ram": self.ram,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_wire(cls, body: dict[str, Any]) -> "JobSpec":
        try:
            return cls(
                job_id=body["job_id"],
                user=body.get("user", "anon"),
                group=body.get("group", ""),
                priority=int(body.get("priority", 0)),
                work=float(body.get("work", 1.0)),
                ram=int(body.get("ram", 0)),
                max_attempts=int(body.get("max_attempts", 3)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WmsError(f"malformed job spec: {exc}") from exc


@dataclass
class JobRecord:
    """One job's authority-side lifecycle state."""

    spec: JobSpec
    seq: int
    submitted_at: float
    state: str = JobState.PENDING
    attempts: int = 0
    pilot: str = ""  # proxy that holds the current claim
    site: str = ""  # site the pilot fronts
    token: str = ""  # per-attempt idempotency token
    error: str = ""  # last failure reason

    def view(self) -> dict[str, Any]:
        return {
            "job_id": self.spec.job_id,
            "state": self.state,
            "attempts": self.attempts,
            "pilot": self.pilot,
            "site": self.site,
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# Fair share
# ---------------------------------------------------------------------------


class FairShare:
    """Exponentially-decayed per-user usage.

    ``charge`` adds work to a user's account; ``usage`` reads it decayed
    to *now* with the configured half-life.  Claims order users by
    decayed usage (ties by name), which is the whole fair-share rule:
    the least-served user goes first, a burst of service raises only the
    burster's usage, and history fades instead of accumulating forever.
    """

    def __init__(self, half_life: float = 300.0):
        if half_life <= 0:
            raise WmsError(f"half_life must be positive: {half_life}")
        self.half_life = half_life
        self._usage: dict[str, float] = {}
        self._stamp: dict[str, float] = {}

    def usage(self, user: str, now: float) -> float:
        raw = self._usage.get(user)
        if raw is None:
            return 0.0
        age = max(0.0, now - self._stamp[user])
        return raw * (0.5 ** (age / self.half_life))

    def charge(self, user: str, work: float, now: float) -> None:
        self._usage[user] = self.usage(user, now) + work
        self._stamp[user] = now

    def snapshot(self, now: float) -> dict[str, float]:
        return {user: self.usage(user, now) for user in sorted(self._usage)}


# ---------------------------------------------------------------------------
# Matchmaking against Layer-3 status data
# ---------------------------------------------------------------------------


def site_capability(status_entries: list[dict[str, Any]]) -> dict[str, Any]:
    """Summarise a site's status rows into a claim capability.

    The rows are exactly what ``ProxyServer.local_status`` (and the
    benchmarks' ``synthetic_status``) produce; the summary is what a
    claim carries: the largest job the site could place right now.
    """
    alive = [e for e in status_entries if e.get("alive", False)]
    if not alive:
        return {"ram_free": 0, "speed": 0.0, "slots": 0}
    return {
        "ram_free": max(int(e.get("ram_free", 0)) for e in alive),
        "speed": max(float(e.get("cpu_speed", 0.0)) for e in alive),
        "slots": sum(1 for e in alive if e.get("running_tasks", 0) == 0),
    }


class Matchmaker:
    """Does a job fit a claimer's capability (and its idle gap)?

    ``gap`` is the backfill window in seconds: a claimer that knows it
    only has *g* seconds of idle capacity (a reservation is coming, a
    drain is scheduled) only receives jobs estimated to finish inside
    it.  ``None`` means unbounded.
    """

    def fits(
        self,
        spec: JobSpec,
        capability: Optional[dict[str, Any]],
        gap: Optional[float] = None,
    ) -> bool:
        if capability is not None:
            if spec.ram > int(capability.get("ram_free", 0)):
                return False
            speed = float(capability.get("speed", 1.0))
        else:
            speed = 1.0
        if gap is not None:
            if speed <= 0:
                return False
            if spec.work / speed > gap:
                return False
        return True


# ---------------------------------------------------------------------------
# Journals
# ---------------------------------------------------------------------------


class MemoryJournal:
    """In-memory event journal — chaos tests compare two runs' events."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def append(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:  # symmetry with FileJournal
        pass


class FileJournal:
    """Append-only JSON-lines journal with crash-recovery replay.

    Every event is written and flushed to the OS before the operation
    that caused it is acknowledged, so an acknowledged transition
    survives process death — the failure mode the test suites exercise.
    It does not survive power loss: nothing forces the OS buffer to
    disk, because appends run on the shared event loop, where a disk
    sync per event would stall every tunnel.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, event: dict[str, Any]) -> None:
        self._fh.write(_JOURNAL_ENCODER.encode(event) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def read(path: str) -> list[dict[str, Any]]:
        """Parse a journal file back into its event list.

        A torn final line (the crash happened mid-write, before the
        flush returned) is discarded: the transition it described was
        never acknowledged, so dropping it is the *correct* recovery.
        Corruption anywhere earlier is an error — acknowledged history
        must not be silently partial.
        """
        events: list[dict[str, Any]] = []
        if not os.path.exists(path):
            return events
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                if index == len(lines) - 1:
                    break  # torn tail: unacknowledged, safe to drop
                raise WmsError(
                    f"corrupt journal {path!r} at line {index + 1}"
                ) from exc
        return events


# ---------------------------------------------------------------------------
# The workload manager
# ---------------------------------------------------------------------------


@shared_state
class WorkloadManager:
    """Durable fair-share job queue with pilot-style late binding.

    One instance is the grid's scheduling authority; a proxy adopts it
    with :meth:`~repro.core.proxy.ProxyServer.attach_wms`, which fronts
    it with the JOB_QSUBMIT/JOB_CLAIM/JOB_STATUS/JOB_DONE control ops
    and wires the failure detector to :meth:`release_pilot`.

    All public methods are thread-safe (the proxy serves them on its
    event loop, the failure detector and local callers from their own
    threads) and deterministic: given the same call sequence and clock
    values, the journal comes out byte-identical — the chaos suite
    holds us to that.
    """

    def __init__(
        self,
        name: str = "wms",
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[Any] = None,
        half_life: float = 300.0,
        backfill_limit: int = 8,
        metrics: Optional[Any] = None,
    ):
        if backfill_limit < 0:
            raise WmsError(f"backfill_limit must be >= 0: {backfill_limit}")
        self.name = name
        self.clock = clock
        self.journal = journal
        self.matchmaker = Matchmaker()
        self.backfill_limit = backfill_limit
        self._shares = FairShare(half_life=half_life)
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        #: priority tier -> user -> FIFO of pending job ids
        self._pending: dict[int, dict[str, deque[str]]] = {}
        self._claimed_by: dict[str, set[str]] = {}  # pilot -> claimed ids
        self._claim_cache: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()
        self._seq = itertools.count(1)
        self._counts = {
            JobState.PENDING: 0,
            JobState.CLAIMED: 0,
            JobState.DONE: 0,
            JobState.DEAD: 0,
        }
        # Instruments are constructed here, once (the GL301 contract);
        # metrics=None runs the manager dark.
        if metrics is not None:
            self._m_submitted = metrics.counter("wms.submitted")
            self._m_claims = metrics.counter("wms.claims")
            self._m_jobs_claimed = metrics.counter("wms.jobs_claimed")
            self._m_completed = metrics.counter("wms.completed")
            self._m_requeued = metrics.counter("wms.requeued")
            self._m_dead = metrics.counter("wms.dead_lettered")
            self._m_stale = metrics.counter("wms.stale_reports")
            self._m_depth = metrics.gauge("wms.queue_depth")
            self._m_wait = metrics.histogram("wms.wait_s")
            self._m_claim_serve = metrics.histogram("wms.claim_serve_s")
        else:
            self._m_submitted = self._m_claims = self._m_jobs_claimed = None
            self._m_completed = self._m_requeued = self._m_dead = None
            self._m_stale = self._m_depth = self._m_wait = None
            self._m_claim_serve = None

    # -- journal helpers -------------------------------------------------

    def _log(self, kind: str, now: float, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append({"ev": kind, "t": now, **fields})

    def _set_depth(self) -> None:
        if self._m_depth is not None:
            self._m_depth.set(self._counts[JobState.PENDING])

    # -- submit ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Enqueue a job; idempotent on ``spec.job_id``."""
        now = self.clock()
        with self._lock:
            existing = self._records.get(spec.job_id)
            if existing is not None:
                return {
                    "job_id": spec.job_id,
                    "state": existing.state,
                    "duplicate": True,
                }
            self._submit_locked(spec, next(self._seq), now)
            if self._m_submitted is not None:
                self._m_submitted.inc()
            self._set_depth()
            return {"job_id": spec.job_id, "state": JobState.PENDING}

    def _submit_locked(self, spec: JobSpec, seq: int, now: float) -> None:
        """New → PENDING, at the back of the user's FIFO."""
        record = JobRecord(spec=spec, seq=seq, submitted_at=now)
        self._records[spec.job_id] = record
        self._counts[JobState.PENDING] += 1
        self._enqueue_locked(record, front=False)
        self._log("submit", now, seq=seq, job=spec.to_wire())

    def _move_locked(self, record: JobRecord, state: str) -> None:
        """The one place a job changes state; the counters follow it."""
        self._counts[record.state] -= 1
        self._counts[state] += 1
        record.state = state

    def _enqueue_locked(self, record: JobRecord, front: bool) -> None:
        tier = self._pending.setdefault(record.spec.priority, {})
        queue = tier.setdefault(record.spec.user, deque())
        if front:
            queue.appendleft(record.spec.job_id)
        else:
            queue.append(record.spec.job_id)

    def _dequeue_locked(self, record: JobRecord, index: int) -> None:
        tier = self._pending[record.spec.priority]
        queue = tier[record.spec.user]
        del queue[index]
        if not queue:
            del tier[record.spec.user]
        if not tier:
            del self._pending[record.spec.priority]

    # -- claim -----------------------------------------------------------

    def claim(
        self,
        pilot: str,
        site: str = "",
        capability: Optional[dict[str, Any]] = None,
        count: int = 1,
        claim_id: Optional[str] = None,
        gap: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        """Late binding: assign up to ``count`` fitting jobs to a pilot.

        Returns ``[{"job": spec, "token": token}, ...]`` — possibly
        empty when nothing pending fits the capability.  With a
        ``claim_id`` the call is idempotent: a retried claim replays the
        cached assignment instead of claiming fresh work (the guard that
        makes JOB_CLAIM safe under the retry policy).
        """
        if count < 1:
            raise WmsError(f"claim count must be >= 1: {count}")
        start = time.perf_counter()
        now = self.clock()
        with self._lock:
            if claim_id is not None:
                cached = self._claim_cache.get(claim_id)
                if cached is not None:
                    self._claim_cache.move_to_end(claim_id)
                    return list(cached)
            assigned: list[dict[str, Any]] = []
            # Decayed usage at ``now``, read once per user per claim; a
            # charge moves only the charged user's value.
            usage: dict[str, float] = {}
            for _ in range(count):
                record = self._pick_locked(capability, gap, now, usage)
                if record is None:
                    break
                self._claim_locked(record, pilot, site, record.attempts + 1, now)
                usage[record.spec.user] = self._shares.usage(record.spec.user, now)
                if record.attempts == 1 and self._m_wait is not None:
                    self._m_wait.observe(max(0.0, now - record.submitted_at))
                assigned.append(
                    {"job": record.spec.to_wire(), "token": record.token}
                )
            if claim_id is not None:
                self._claim_cache[claim_id] = list(assigned)
                while len(self._claim_cache) > CLAIM_CACHE_SIZE:
                    self._claim_cache.popitem(last=False)
            if self._m_claims is not None:
                self._m_claims.inc()
                self._m_jobs_claimed.inc(len(assigned))
                self._m_claim_serve.observe(time.perf_counter() - start)
            self._set_depth()
            return assigned

    def _claim_locked(
        self, record: JobRecord, pilot: str, site: str, attempt: int, now: float
    ) -> None:
        """A dequeued job → CLAIMED by ``pilot``; the claim charges its user."""
        self._move_locked(record, JobState.CLAIMED)
        record.attempts = attempt
        record.pilot = pilot
        record.site = site
        record.token = f"{record.spec.job_id}#{attempt}"
        self._claimed_by.setdefault(pilot, set()).add(record.spec.job_id)
        self._shares.charge(record.spec.user, record.spec.work, now)
        self._log("claim", now, job=record.spec.job_id, pilot=pilot, site=site, attempt=attempt)

    def _pick_locked(
        self,
        capability: Optional[dict[str, Any]],
        gap: Optional[float],
        now: float,
        usage: dict[str, float],
    ) -> Optional[JobRecord]:
        """Choose one pending job: priority, then fair share, then backfill.

        Tiers are scanned highest priority first.  Within a tier, each
        user's *head* job is tried in fair-share order (least decayed
        usage first) — that head choice is the scheduling decision.
        Backfill only engages when heads do not fit the capability/gap:
        a bounded scan (``backfill_limit`` deeper entries) looks for a
        smaller job that does, so a giant at the head of every queue
        cannot idle a small claimer.  A lower tier is only reached when
        nothing in the higher tier fits — the bounded priority
        inversion any backfilling scheduler accepts.  ``usage`` caches
        each user's decayed usage at ``now`` across the picks of one claim.
        """
        for priority in sorted(self._pending, reverse=True):
            tier = self._pending[priority]
            for user in tier:
                if user not in usage:
                    usage[user] = self._shares.usage(user, now)
            ordered = sorted(tier, key=lambda user: (usage[user], user))
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

    # -- completion / failure -------------------------------------------

    def complete(self, job_id: str, token: str) -> dict[str, Any]:
        """Report success; idempotent on the per-attempt token.

        A duplicate report for an already-done job acknowledges quietly;
        a report with a stale token (the job was requeued and reclaimed
        since) is *ignored* — the current attempt owns the outcome.
        """
        now = self.clock()
        with self._lock:
            record = self._require_locked(job_id)
            guard = self._report_guard_locked(record, token)
            if guard is not None:
                return guard
            self._done_locked(record, now)
            if self._m_completed is not None:
                self._m_completed.inc()
            return {"job_id": job_id, "state": JobState.DONE}

    def fail(self, job_id: str, token: str, error: str = "") -> dict[str, Any]:
        """Report failure: requeue, or dead-letter once attempts are spent."""
        now = self.clock()
        with self._lock:
            record = self._require_locked(job_id)
            guard = self._report_guard_locked(record, token)
            if guard is not None:
                return guard
            self._fail_locked(record, error or "reported failure", now)
            self._count_failure_locked(record)
            self._set_depth()
            return {"job_id": job_id, "state": record.state}

    def _require_locked(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise WmsError(f"unknown job: {job_id!r}")
        return record

    def _report_guard_locked(
        self, record: JobRecord, token: str
    ) -> Optional[dict[str, Any]]:
        """The idempotency guard shared by complete/fail; None passes."""
        if record.state in (JobState.DONE, JobState.DEAD):
            return {
                "job_id": record.spec.job_id,
                "state": record.state,
                "duplicate": True,
            }
        if record.state != JobState.CLAIMED or token != record.token:
            if self._m_stale is not None:
                self._m_stale.inc()
            return {
                "job_id": record.spec.job_id,
                "state": record.state,
                "stale": True,
            }
        return None

    def _done_locked(self, record: JobRecord, now: float) -> None:
        """CLAIMED → DONE."""
        self._move_locked(record, JobState.DONE)
        self._release_claim_locked(record)
        self._log("done", now, job=record.spec.job_id, attempt=record.attempts)

    def _fail_locked(self, record: JobRecord, error: str, now: float) -> None:
        """CLAIMED → PENDING (requeue) or DEAD (attempts spent)."""
        self._release_claim_locked(record)
        record.error = error
        record.token = ""
        record.pilot = ""
        record.site = ""
        if record.attempts >= record.spec.max_attempts:
            self._move_locked(record, JobState.DEAD)
        else:
            self._move_locked(record, JobState.PENDING)
            # Requeued at the *front* of the user's FIFO: the job kept
            # its original submit seniority, it just had bad luck.
            self._enqueue_locked(record, front=True)
        self._log(
            "dead" if record.state == JobState.DEAD else "requeue",
            now,
            job=record.spec.job_id,
            attempt=record.attempts,
            error=error,
        )

    def _count_failure_locked(self, record: JobRecord) -> None:
        counter = self._m_dead if record.state == JobState.DEAD else self._m_requeued
        if counter is not None:
            counter.inc()

    def _release_claim_locked(self, record: JobRecord) -> None:
        held = self._claimed_by.get(record.pilot)
        if held is not None:
            held.discard(record.spec.job_id)
            if not held:
                del self._claimed_by[record.pilot]

    # -- site/pilot death ------------------------------------------------

    def release_pilot(self, pilot: str, error: str = "pilot lost") -> list[str]:
        """Requeue (or dead-letter) every job the pilot holds; idempotent.

        Wired to ``FailureDetector.on_dead`` by ``attach_wms``: when the
        tunnel layer declares a claiming proxy dead, its leases are
        revoked in one pass.  The per-attempt token was already spent by
        the claim, so a zombie pilot's late JOB_DONE is ignored by the
        report guard — requeue happens exactly once per claim.
        """
        now = self.clock()
        with self._lock:
            held = sorted(self._claimed_by.get(pilot, ()))
            for job_id in held:
                record = self._records[job_id]
                if record.state == JobState.CLAIMED and record.pilot == pilot:
                    self._fail_locked(record, error, now)
                    self._count_failure_locked(record)
            self._set_depth()
            return held

    # -- introspection ---------------------------------------------------

    def status(self, job_id: Optional[str] = None) -> dict[str, Any]:
        """Queue counters (default) or one job's state (``job_id``)."""
        with self._lock:
            if job_id is not None:
                return self._require_locked(job_id).view()
            return {
                "submitted": len(self._records),
                "pending": self._counts[JobState.PENDING],
                "claimed": self._counts[JobState.CLAIMED],
                "done": self._counts[JobState.DONE],
                "dead": self._counts[JobState.DEAD],
                "pilots": {
                    pilot: len(ids)
                    for pilot, ids in sorted(self._claimed_by.items())
                },
            }

    def fair_shares(self) -> dict[str, float]:
        """Decayed per-user usage, as of now (reporting, not wire state)."""
        with self._lock:
            return self._shares.snapshot(self.clock())

    def pending_jobs(self) -> list[str]:
        """Pending ids in submit order (test/debug helper)."""
        with self._lock:
            pending = [
                record
                for record in self._records.values()
                if record.state == JobState.PENDING
            ]
            return [r.spec.job_id for r in sorted(pending, key=lambda r: r.seq)]

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- replay / recovery ----------------------------------------------

    @classmethod
    def replay(
        cls,
        events: list[dict[str, Any]],
        journal: Optional[Any] = None,
        **kwargs: Any,
    ) -> "WorkloadManager":
        """Rebuild a manager from a journal's event stream.

        Each event runs through the same transition function the live
        operation ran (:meth:`_apply`), on a manager built with
        ``journal=None`` so nothing is re-journaled and no metric moves;
        ``journal`` is attached afterwards so post-replay operations
        append where the history left off.  The rebuilt state is exactly
        the state the journaling manager held after its last acknowledged
        operation — the golden-journal and conservation tests hold us to
        it.
        """
        manager = cls(journal=None, **kwargs)
        for event in events:
            manager._apply(event)
        # The seq allocator must not re-issue replayed numbers.
        top = max((r.seq for r in manager._records.values()), default=0)
        manager._seq = itertools.count(top + 1)
        manager.journal = journal
        return manager

    @classmethod
    def recover(cls, path: str, **kwargs: Any) -> "WorkloadManager":
        """Restart from a journal file after a crash.

        Outstanding claims are requeued (or dead-lettered once their
        attempts are spent) — the leases died with the process, and the
        spent tokens guarantee a surviving executor's late report cannot
        double-complete the job.
        """
        events = FileJournal.read(path)
        manager = cls.replay(events, journal=FileJournal(path), **kwargs)
        for pilot in sorted(manager._claimed_by):
            manager.release_pilot(pilot, error="recovered: lease lost in crash")
        return manager

    def _apply(self, event: dict[str, Any]) -> None:
        """Decode one journaled event and run its transition (replay only).

        A claim first takes the job out of the pending queue, as the live
        pick did.  A failure report re-derives requeue-or-dead from the
        attempt count, so an event whose kind disagrees is corruption.
        """
        kind = event.get("ev")
        now = float(event.get("t", 0.0))
        if kind == "submit":
            spec = JobSpec.from_wire(event["job"])
            if spec.job_id in self._records:
                raise WmsError(f"journal submits job {spec.job_id!r} twice")
            self._submit_locked(spec, int(event["seq"]), now)
        elif kind == "claim":
            record = self._require_locked(event["job"])
            self._dequeue_locked(record, self._pending_index_locked(record))
            pilot, site = event.get("pilot", ""), event.get("site", "")
            self._claim_locked(record, pilot, site, int(event["attempt"]), now)
        elif kind in ("done", "requeue", "dead"):
            record = self._require_locked(event["job"])
            if record.state != JobState.CLAIMED:
                raise WmsError(
                    f"journal reports {kind!r} for job {record.spec.job_id!r}"
                    f" that is {record.state}, not claimed"
                )
            if kind == "done":
                self._done_locked(record, now)
                return
            self._fail_locked(record, event.get("error", ""), now)
            if (record.state == JobState.DEAD) != (kind == "dead"):
                raise WmsError(
                    f"journal says {kind!r} for job {record.spec.job_id!r} at attempt"
                    f" {record.attempts} of {record.spec.max_attempts}"
                )
        else:
            raise WmsError(f"unknown journal event: {kind!r}")

    def _pending_index_locked(self, record: JobRecord) -> int:
        queue = self._pending.get(record.spec.priority, {}).get(record.spec.user, ())
        for index, job_id in enumerate(queue):
            if job_id == record.spec.job_id:
                return index
        raise WmsError(
            f"journal claims job {record.spec.job_id!r} that is not pending"
        )
