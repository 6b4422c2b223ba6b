"""E7 — failure containment: distributed vs centralised control.

"This distributed control reduces the effect of failures on a given site
or proxy."

Two measurements:

* **capacity surviving a failure** — kill one site (or the central
  controller) in an N-site grid under each architecture;
* **detection latency** — heartbeat-driven failure detector on the
  simulator: how long until a dead proxy is declared DEAD, versus the
  heartbeat period.

Expected shape: distributed control loses ~1/N capacity per site
failure and has no total-outage component; the centralised controller is
a total outage.  Detection latency tracks the configured timeout, not
grid size.
"""

import pytest

from benchmarks.common import save_table
from repro.baselines.central import availability_after_failure
from repro.control.failure import FailureDetector, PeerState
from repro.simulation.engine import Simulator


def sweep_capacity() -> list[dict]:
    rows = []
    for n_sites in [2, 4, 8, 16]:
        sites = {f"s{i}": 32 for i in range(n_sites)}
        dist_site = availability_after_failure(sites, "s0", "distributed")
        cent_site = availability_after_failure(sites, "s0", "centralized")
        cent_ctrl = availability_after_failure(sites, "controller", "centralized")
        rows.append(
            {
                "sites": n_sites,
                "dist_lose_site": dist_site.capacity_remaining,
                "cent_lose_site": cent_site.capacity_remaining,
                "cent_lose_controller": cent_ctrl.capacity_remaining,
                "dist_controllable": dist_site.controllable,
                "cent_ctrl_controllable": cent_ctrl.controllable,
            }
        )
    return rows


def detection_latency(heartbeat_period: float, dead_after: float, fail_at: float) -> float:
    """Simulate heartbeats then silence; returns detection delay."""
    sim = Simulator()
    detector = FailureDetector(
        lambda: sim.now,
        suspect_after=dead_after / 3,
        dead_after=dead_after,
    )
    detector.watch("proxy.victim")
    detected = {}
    last_heartbeat = {"at": 0.0}

    def heartbeats(sim):
        while sim.now < fail_at:
            yield sim.timeout(heartbeat_period)
            if sim.now < fail_at:
                detector.heard_from("proxy.victim")
                last_heartbeat["at"] = sim.now

    def checker(sim):
        while not detected:
            yield sim.timeout(heartbeat_period / 2)
            detector.check()
            if detector.state_of("proxy.victim") is PeerState.DEAD:
                detected["at"] = sim.now

    sim.spawn(heartbeats(sim))
    sim.spawn(checker(sim))
    sim.run(until=fail_at + dead_after * 10)
    assert "at" in detected, "failure was never detected"
    # The failure is effective from the victim's final heartbeat: that is
    # the last instant the grid provably saw it alive.
    return detected["at"] - last_heartbeat["at"]


def sweep_detection() -> list[dict]:
    rows = []
    for heartbeat, dead_after in [(1.0, 5.0), (1.0, 10.0), (5.0, 30.0)]:
        latency = detection_latency(heartbeat, dead_after, fail_at=100.0)
        rows.append(
            {
                "heartbeat_s": heartbeat,
                "dead_after_s": dead_after,
                "detection_latency_s": latency,
                "latency_vs_timeout": latency / dead_after,
            }
        )
    return rows


def check_shape(capacity_rows: list[dict], detection_rows: list[dict]) -> None:
    for row in capacity_rows:
        # Distributed: lose exactly 1/N; centralised controller: lose all.
        assert row["dist_lose_site"] == pytest.approx(1 - 1 / row["sites"])
        assert row["cent_lose_controller"] == 0.0
        assert row["dist_controllable"]
        assert not row["cent_ctrl_controllable"]
    # Larger grids shrink the per-site blast radius under distributed control.
    assert capacity_rows[-1]["dist_lose_site"] > capacity_rows[0]["dist_lose_site"]
    for row in detection_rows:
        # Detection happens just past the timeout, never before.
        assert 1.0 <= row["latency_vs_timeout"] < 1.5


@pytest.mark.benchmark(group="e7-failures")
def test_e7_failure_containment(benchmark):
    def run():
        return sweep_capacity(), sweep_detection()

    capacity_rows, detection_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check_shape(capacity_rows, detection_rows)
    save_table(
        "e7_capacity",
        "E7a: capacity surviving one failure (site or controller)",
        capacity_rows,
    )
    save_table(
        "e7_detection",
        "E7b: heartbeat failure-detection latency (simulated)",
        detection_rows,
    )


@pytest.mark.benchmark(group="e7-failures")
def test_e7_live_tunnel_failure_detected(benchmark):
    """On the real runtime: killing a proxy drops its peers' tunnels."""
    import time as _time

    from repro.core.grid import Grid

    def run():
        grid = Grid()
        grid.add_site("A", nodes=1)
        grid.add_site("B", nodes=1)
        grid.connect_all()
        try:
            lost = []
            grid.proxy_of("A").health.on_dead.append(lost.append)
            grid.proxy_of("B").shutdown()
            deadline = _time.monotonic() + 10.0
            while not lost and _time.monotonic() < deadline:
                _time.sleep(0.02)
            assert lost == ["proxy.B"]
        finally:
            grid.shutdown()

    benchmark.pedantic(run, rounds=1, iterations=1)
