"""The benchmark's workloads: what each sends, and how it checks replies.

Names are fixed (later issues cite them); the one-line reason each
exists is in ``BENCHMARK.json``.  Every workload draws its inputs from
the seeded ``rng`` it is handed — the grid only ever sees the generated
inputs — and checks every reply against the value it expects.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Any, Callable, Optional

from repro.control.wms import FileJournal, JobSpec, WorkloadManager
from repro.mpi.datatypes import SUM
from repro.transport.frames import encode_value

from benchmarks.e2e.loadgen import Phase, closed_loop, open_loop, paced, poisson_schedule

__all__ = ["WORKLOADS", "Workload"]

USERS = 20


def user_of(index: int) -> tuple[str, str]:
    return f"u{index:02d}", f"pw-{index:02d}"


class Workload:
    """Base: ``prepare`` once, ``run`` per phase, ``finish`` → violations."""

    name = ""
    #: "closed" or "open" — stated in every output
    loop = "closed"
    clients = 1
    #: request+reply payload bytes one correct op carries (headers excluded)
    payload_bytes_per_op = 0
    #: open loop only: fixed offered rate and latency limit from due time
    rate_per_s: Optional[float] = None
    limit_ms: Optional[float] = None

    def __init__(self, grid: Any, rng: random.Random, journal_path: str) -> None:
        self.grid = grid
        self.rng = rng
        self.journal_path = journal_path
        self.authority = grid.proxy_of("A").name

    def prepare(self) -> None:
        """Seeded inputs, logins, backlog — after set-up, before warm-up."""

    def warm_up(self, seconds: float) -> Phase:
        return self.run(seconds)

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Drain, then return one line per correctness violation."""
        return []

    def queue_depths(self) -> list[int]:
        """Sorted WMS pending counts seen during the last phase (if any)."""
        return []

    def _login(self, via_site: str) -> bytes:
        userid, password = user_of(self.rng.randrange(USERS))
        return self.grid.login(userid, password, via_site=via_site)


class RpcSmall(Workload):
    """Two closed-loop clients, 16-byte echo, B→C and C→A."""

    name = "rpc_small"
    clients = 2
    payload_bytes_per_op = 32
    routes = (("B", "C"), ("C", "A"))

    def prepare(self) -> None:
        self._ops = [self._echo_op(origin, target) for origin, target in self.routes]

    def _echo_op(self, origin: str, target: str) -> Callable[[], tuple[bool, int]]:
        submit = self.grid.proxy_of(origin).submit_job_with_token
        token = self._login(origin)
        rng = random.Random(self.rng.getrandbits(64))

        def op() -> tuple[bool, int]:
            value = rng.randbytes(16)
            reply = submit(token, "echo", {"value": value}, target_site=target)
            return reply == value, 1

        return op

    def run(self, seconds: float) -> Phase:
        return closed_loop(self._ops, seconds)


class RpcSmallOpen(RpcSmall):
    """The same requests on a seeded Poisson schedule at a fixed rate."""

    name = "rpc_small_open"
    loop = "open"
    rate_per_s = 300.0
    limit_ms = 25.0

    def prepare(self) -> None:
        super().prepare()
        turn = itertools.count()
        ops = self._ops

        def alternate() -> tuple[bool, int]:
            return ops[next(turn) % len(ops)]()

        self._alternate = alternate

    def warm_up(self, seconds: float) -> Phase:
        # Closed-loop warm-up: the heavier load gets the host past its
        # wake-up burst; the fixed-rate schedule alone would not.
        return closed_loop(self._ops, seconds)

    def run(self, seconds: float) -> Phase:
        due = poisson_schedule(self.rng, self.rate_per_s, seconds)
        return open_loop(self._alternate, due, seconds, threads=self.clients)


class RpcBulk(Workload):
    """One closed-loop client, 256 KiB echo, B→C."""

    name = "rpc_bulk"
    size = 256 * 1024
    payload_bytes_per_op = 2 * size

    def prepare(self) -> None:
        submit = self.grid.proxy_of("B").submit_job_with_token
        token = self._login("B")
        payloads = itertools.cycle([self.rng.randbytes(self.size) for _ in range(4)])

        def op() -> tuple[bool, int]:
            value = next(payloads)
            reply = submit(token, "echo", {"value": value}, target_site="C")
            return reply == value, 1

        self._op = op

    def run(self, seconds: float) -> Phase:
        return closed_loop([self._op], seconds)


class WmsDrain(Workload):
    """Submit at B, claim and execute at C, against a 2 000-job backlog."""

    name = "wms_drain"
    clients = 2
    backlog = 2000
    batch = 8
    relogin_every = 64
    read_hz = 20.0
    sum_n = 1000

    def prepare(self) -> None:
        self._wms: WorkloadManager = self.grid.proxy_of("A").wms
        self._job_ids = (f"job-{n:07d}" for n in itertools.count())
        self._granted: set[str] = set()
        self._double_grants = 0
        self._jobs_since_login = self.relogin_every
        self._token = b""
        self._depths: list[int] = []
        # Pre-queued in process: the backlog is the matchmaker's working
        # set, not part of the measured path.
        for _ in range(self.backlog):
            self._wms.submit(self._next_spec())
        sample = JobSpec(job_id="job-0000000", user=user_of(0)[0], priority=0, work=1.0)
        self.payload_bytes_per_op = len(encode_value(sample.to_wire())) + 8

    def _next_spec(self) -> JobSpec:
        return JobSpec(
            job_id=next(self._job_ids),
            user=user_of(self.rng.randrange(USERS))[0],
            priority=self.rng.randrange(3),
            work=1.0,
        )

    def _note_grant(self, job_id: str) -> None:
        if job_id in self._granted:
            self._double_grants += 1
        self._granted.add(job_id)

    def _cycle(self) -> tuple[bool, int]:
        """Submit a batch, claim a batch, execute and acknowledge each."""
        submitter, pilot = self.grid.proxy_of("B"), self.grid.proxy_of("C")
        if self._jobs_since_login >= self.relogin_every:
            self._token = self._login("B")
            self._jobs_since_login = 0
        ok = True
        for _ in range(self.batch):
            reply = submitter.wms_submit(self.authority, self._next_spec())
            ok &= reply.get("state") == "pending" and not reply.get("duplicate")
        grants = pilot.wms_claim(self.authority, count=self.batch)
        ok &= len(grants) == self.batch
        expected = sum(range(self.sum_n))
        for grant in grants:
            job_id = grant["job"]["job_id"]
            self._note_grant(job_id)
            result = pilot.submit_job_with_token(
                self._token, "sum_range", {"n": self.sum_n}, target_site="C"
            )
            ack = pilot.wms_done(self.authority, job_id, grant["token"])
            ok &= result == expected and ack.get("state") == "done"
        self._jobs_since_login += self.batch
        return ok, max(1, len(grants))

    def _read(self) -> bool:
        status = self.grid.global_status(via_site="B")
        queue = self.grid.proxy_of("B").wms_status(self.authority)
        self._depths.append(queue["pending"])
        return (
            sorted(status) == ["A", "B", "C"]
            and all(len(rows) == 2 for rows in status.values())
            and queue["submitted"] >= self.backlog
        )

    def run(self, seconds: float) -> Phase:
        stop = threading.Event()
        reads: list[tuple[float, bool]] = []
        self._depths = []
        reader = threading.Thread(
            target=paced, args=(self._read, self.read_hz, stop, reads),
            name="e2e-reader", daemon=True,
        )
        reader.start()
        try:
            phase = closed_loop([self._cycle], seconds)
        finally:
            stop.set()
            reader.join()
        phase.reads = sorted(latency for latency, ok in reads if ok)
        phase.reads_failed = sum(1 for _, ok in reads if not ok)
        return phase

    def queue_depths(self) -> list[int]:
        """Pending counts the reader saw during the last phase."""
        return sorted(self._depths)

    def finish(self) -> list[str]:
        wms = self._wms
        while True:
            grants = wms.claim(pilot="e2e-drain", site="C", count=256)
            if not grants:
                break
            for grant in grants:
                job_id = grant["job"]["job_id"]
                self._note_grant(job_id)
                wms.complete(job_id, grant["token"])
        violations = []
        status = wms.status()
        if status["submitted"] != status["done"]:
            violations.append(
                f"wms: submitted {status['submitted']} != done {status['done']}"
            )
        if status["pending"] or status["claimed"] or status["dead"]:
            violations.append(f"wms: jobs left behind after drain: {status}")
        if self._double_grants:
            violations.append(f"wms: {self._double_grants} job ids granted twice")
        if len(self._granted) != status["submitted"]:
            violations.append(
                f"wms: {len(self._granted)} distinct grants for "
                f"{status['submitted']} submitted jobs"
            )
        replayed = WorkloadManager.replay(
            FileJournal.read(self.journal_path), clock=self.grid.clock
        ).status()
        counters = ("submitted", "pending", "claimed", "done", "dead")
        if any(replayed[key] != status[key] for key in counters):
            violations.append(f"wms: journal replay {replayed} != live {status}")
        return violations


class MpiCollectives(Workload):
    """Six ranks round-robin over three sites: allreduce + 16 KiB bcast."""

    name = "mpi_collectives"
    clients = 6
    nprocs = 6
    bcast_bytes = 16 * 1024
    payload_bytes_per_op = bcast_bytes * (nprocs - 1) + 8 * nprocs

    def prepare(self) -> None:
        self._payload = self.rng.randbytes(self.bcast_bytes)

    @staticmethod
    def _app(comm: Any, seconds: float, payload: bytes) -> Any:
        """Rank 0 times each iteration and carries the stop flag."""
        clock = time.perf_counter
        rank, size = comm.rank, comm.size
        base = size * (size - 1) // 2
        samples: list[tuple[float, float, bool, int]] = []
        wrong = 0
        deadline = clock() + seconds
        for i in itertools.count():
            begin = clock()
            total = comm.allreduce(rank + i, SUM, timeout=30.0)
            message = (clock() >= deadline, payload) if rank == 0 else None
            stop, echoed = comm.bcast(message, root=0, timeout=30.0)
            ok = total == base + size * i and echoed == payload
            if rank == 0:
                end = clock()
                samples.append((end, end - begin, ok, 1))
            elif not ok:
                wrong += 1
            if stop:
                return samples if rank == 0 else wrong

    def run(self, seconds: float) -> Phase:
        phase = Phase(started=time.perf_counter(), seconds=seconds)
        cpu0 = time.process_time()
        result = self.grid.run_mpi(
            self._app, nprocs=self.nprocs, args=(seconds, self._payload),
            timeout=seconds + 60.0,
        )
        phase.cpu_s = time.process_time() - cpu0
        phase.samples = result.returns[0] or [(time.perf_counter(), seconds, False, 1)]
        # A rank that died or saw a wrong value fails that many ops.
        wrong = len(result.errors) + sum(
            r for r in result.returns[1:] if isinstance(r, int)
        )
        for index in range(min(wrong, len(phase.samples))):
            end, latency, _, weight = phase.samples[index]
            phase.samples[index] = (end, latency, False, weight)
        return phase


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (RpcSmall, RpcSmallOpen, RpcBulk, WmsDrain, MpiCollectives)
}
