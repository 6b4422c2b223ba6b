"""Ablations: the cost of each design choice, varied in isolation.

A1 — monitoring cache TTL: the distributed monitor's query savings come
     from per-site caching; sweep the TTL to show the traffic/staleness
     trade-off the paper's "not always necessary to check" argument buys.
(A2 swept the in-process DFS, deleted because it reached no proxy.)
A3 — collective algorithm: the binomial-tree broadcast against a naive
     linear broadcast (root sends to everyone), in rounds and messages —
     why minimpi uses trees.
A4 — record overhead: the secure tunnel's fixed 40-byte record framing
     as a fraction of payload, across payload sizes (why the proxy
     batches whole frames rather than encrypting field-by-field).
"""

import math

import pytest

from benchmarks.common import save_table
from repro.control.monitor import GlobalStatusCompiler
from repro.security.cipher import RecordCipher
from repro.simulation.randomness import RandomStream
from repro.workloads.generators import synthetic_status


# ---------------------------------------------------------------------------
# A1: monitoring TTL
# ---------------------------------------------------------------------------


class SteppingClock:
    def __init__(self, step: float):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        return self.now

    def advance(self) -> None:
        self.now += self.step


def ablation_ttl() -> list[dict]:
    status = synthetic_status(8, 32, RandomStream(5, "a1"))
    sites = sorted(status)
    rows = []
    for ttl in [0.0, 5.0, 30.0, 120.0]:
        clock = SteppingClock(step=5.0)
        compiler = GlobalStatusCompiler(
            sites, lambda s: status[s], clock, ttl=ttl
        )
        rng = RandomStream(9, f"a1-queries-{ttl}")
        staleness_samples = []
        for _ in range(200):
            site = rng.choice(sites)
            compiler.site_status(site)
            record = compiler.cache.get_any_age(site)
            staleness_samples.append(clock() - record.collected_at)
            clock.advance()
        rows.append(
            {
                "ttl_s": ttl,
                "queries_sent": compiler.queries_sent,
                "mean_staleness_s": sum(staleness_samples) / len(staleness_samples),
                "max_staleness_s": max(staleness_samples),
            }
        )
    return rows


def check_ttl(rows: list[dict]) -> None:
    queries = [row["queries_sent"] for row in rows]
    staleness = [row["mean_staleness_s"] for row in rows]
    # Longer TTL: fewer queries, staler answers — strictly monotone both ways.
    assert queries == sorted(queries, reverse=True)
    assert staleness == sorted(staleness)
    assert rows[0]["max_staleness_s"] == 0.0  # ttl 0: always fresh


# ---------------------------------------------------------------------------
# A3: broadcast algorithm
# ---------------------------------------------------------------------------


def bcast_costs(n: int) -> dict:
    """Rounds and messages for tree vs linear broadcast of one value."""
    tree_rounds = math.ceil(math.log2(n)) if n > 1 else 0
    tree_messages = n - 1
    linear_rounds = n - 1  # root sends serially
    linear_messages = n - 1
    return {
        "ranks": n,
        "tree_rounds": tree_rounds,
        "linear_rounds": linear_rounds,
        "round_advantage_x": linear_rounds / max(tree_rounds, 1),
        "messages_either": tree_messages,
    }


def ablation_bcast() -> list[dict]:
    analytic = [bcast_costs(n) for n in [2, 8, 32, 128]]
    # Confirm the implementation's message count matches the analytic tree.
    from repro.mpi.launcher import mpirun
    from repro.mpi.router import LocalRouter

    for row in analytic[:3]:  # measure the sizes that are cheap to run
        n = row["ranks"]
        router = LocalRouter(n)
        sent = []
        router.on_send = sent.append

        def app(comm):
            return comm.bcast("x" if comm.rank == 0 else None, root=0, timeout=30.0)

        result = mpirun(app, n, router=router, timeout=60.0)
        assert result.ok
        row["measured_messages"] = len(sent)
        router.close()
    return analytic


def check_bcast(rows: list[dict]) -> None:
    for row in rows:
        if "measured_messages" in row:
            assert row["measured_messages"] == row["messages_either"]
    # Tree depth advantage grows with scale.
    advantages = [row["round_advantage_x"] for row in rows]
    assert advantages == sorted(advantages)
    assert advantages[-1] > 15.0


# ---------------------------------------------------------------------------
# A4: record framing overhead
# ---------------------------------------------------------------------------


def ablation_record_overhead() -> list[dict]:
    rows = []
    fixed = RecordCipher.overhead()
    for payload in [16, 64, 256, 1024, 16 * 1024]:
        rows.append(
            {
                "payload_B": payload,
                "record_B": payload + fixed,
                "overhead_fraction": fixed / (payload + fixed),
            }
        )
    return rows


def check_record_overhead(rows: list[dict]) -> None:
    fractions = [row["overhead_fraction"] for row in rows]
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[0] > 0.5  # tiny payloads drown in framing
    assert fractions[-1] < 0.01  # large frames amortise it away


# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablations")
def test_a1_monitoring_ttl(benchmark):
    rows = benchmark.pedantic(ablation_ttl, rounds=1, iterations=1)
    check_ttl(rows)
    save_table("a1_ttl", "A1: monitoring cache TTL — traffic vs staleness", rows)


@pytest.mark.benchmark(group="ablations")
def test_a3_broadcast_algorithm(benchmark):
    rows = benchmark.pedantic(ablation_bcast, rounds=1, iterations=1)
    check_bcast(rows)
    save_table("a3_bcast", "A3: binomial-tree vs linear broadcast", rows)


@pytest.mark.benchmark(group="ablations")
def test_a4_record_overhead(benchmark):
    rows = benchmark.pedantic(ablation_record_overhead, rounds=1, iterations=1)
    check_record_overhead(rows)
    save_table("a4_records", "A4: fixed record overhead vs payload size", rows)
