"""Chaos suite, grid level: proxies under injected transport faults.

Every dialed inter-proxy channel is wrapped in a :class:`FaultyChannel`
whose schedule derives from the test seed, so each scenario asserts the
paper's robustness claim the only way that counts: the operation either
*completes* or fails with a *clean, typed error* — never a hang, never a
stack trace from the bowels of the stack.  A mid-stream proxy kill must
cost the grid exactly that site, nothing more.
"""

import itertools
import threading
import time

import pytest

from repro.control.retry import RetryPolicy
from repro.core.grid import Grid, GridError
from repro.core.protocol import Op
from repro.core.proxy import PeerUnavailable, ProxyError, RequestTimeout
from repro.core.tunnel import TunnelError
from repro.transport.faulty import FaultInjector, FaultPlan, FaultyChannel

from tests.chaos.conftest import chaos_seeds, replaying

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

#: Fast handshake retry so injected dial failures do not slow the suite.
FAST_REDIAL = RetryPolicy(max_attempts=6, base_delay=0.005, max_delay=0.05)

#: Skip the dial-side connection setup (3 handshake frames + HELLO) so
#: faults land on record traffic, not mid-handshake.
RECORD_TRAFFIC = 5


def chaos_wrapper(seed: int, plan: FaultPlan):
    """One injector per dialed channel, seeds derived from the base seed."""
    ordinals = itertools.count()

    def wrap(raw):
        return FaultyChannel(raw, FaultInjector(seed + 7919 * next(ordinals), plan))

    return wrap


def build_grid(seed: int, plan: FaultPlan, transport: str = "tcp") -> Grid:
    grid = Grid(
        transport=transport,
        channel_wrapper=chaos_wrapper(seed, plan),
        handshake_retry=FAST_REDIAL,
    )
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    return grid


def test_grid_builds_despite_handshake_disconnects(chaos_seed):
    """Mid-handshake disconnects are survived by redialing fresh channels."""
    plan = FaultPlan(disconnect=0.08, delay=0.08, delay_range=(0.0, 0.002),
                     max_faults=1)
    with replaying(chaos_seed):
        try:
            grid = build_grid(chaos_seed, plan)
        except (GridError, TunnelError, ProxyError) as exc:
            pytest.fail(f"redial should have absorbed the faults: {exc}")
        try:
            result = grid.submit_job_with_token(
                grid.login("alice", "pw", via_site="A"), "echo", {"value": chaos_seed},
                origin_site="A", target_site="B",
            )
            assert result == chaos_seed
        finally:
            grid.shutdown()


def drop_scenario_outcomes(seed: int) -> list[str]:
    """Fire status queries at a peer whose request frames get dropped."""
    plan = FaultPlan(drop=0.3, skip=RECORD_TRAFFIC, max_faults=4)
    grid = build_grid(seed, plan)
    origin = grid.proxy_of("A")
    outcomes = []
    try:
        for _ in range(6):
            try:
                reply = origin.request(
                    "proxy.B", Op.STATUS_QUERY, timeout=1.2
                )
                assert reply.op == Op.STATUS_REPORT
                assert isinstance(reply.body["status"], list)
                outcomes.append("ok")
            except (RequestTimeout, PeerUnavailable) as exc:
                outcomes.append(type(exc).__name__)
    finally:
        grid.shutdown()
    return outcomes


def test_requests_survive_record_drops(chaos_seed):
    """Dropped request frames: retries recover, or the error is typed."""
    with replaying(chaos_seed):
        outcomes = drop_scenario_outcomes(chaos_seed)
        assert len(outcomes) == 6
        # max_faults bounds the losses, so retries must pull most through.
        assert outcomes.count("ok") >= 3


@pytest.mark.parametrize("chaos_seed", chaos_seeds()[:2])
def test_drop_outcomes_replay_exactly(chaos_seed):
    """Same chaos_seed, same fault schedule, same outcome — the replay contract."""
    with replaying(chaos_seed):
        assert drop_scenario_outcomes(chaos_seed) == drop_scenario_outcomes(chaos_seed)


def test_corruption_degrades_cleanly(chaos_seed):
    """A corrupted record kills the tunnel's MAC check — the peer must
    degrade to unavailable, not wedge."""
    plan = FaultPlan(corrupt=0.3, skip=RECORD_TRAFFIC, max_faults=3)
    with replaying(chaos_seed):
        grid = build_grid(chaos_seed, plan)
        origin = grid.proxy_of("A")
        try:
            for _ in range(5):
                try:
                    reply = origin.request(
                        "proxy.B", Op.STATUS_QUERY, timeout=1.2
                    )
                    assert reply.op == Op.STATUS_REPORT
                except (RequestTimeout, PeerUnavailable):
                    pass  # clean, typed degradation is the requirement
            status = grid.global_status(via_site="A", allow_partial=True)
            assert isinstance(status["A"], list)
            assert status["B"] is None or isinstance(status["B"], list)
        finally:
            grid.shutdown()


def test_midstream_proxy_kill_degrades_one_site_only():
    """Kill a proxy while its site has work in flight: that site degrades,
    every other site keeps completing jobs — the paper's failure
    confinement, end to end."""
    grid = Grid()
    grid.add_site("A", nodes=2)
    grid.add_site("B", nodes=2)
    grid.add_extra_proxy("B")
    grid.add_site("C", nodes=2)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    try:
        in_flight: dict = {"error": None, "done": threading.Event()}

        def slow_job_to_c():
            try:
                grid.submit_job_with_token(
                    grid.login("alice", "pw", via_site="A"), "sleep", {"duration": 5.0},
                    origin_site="A", target_site="C", timeout=10.0,
                )
            except ProxyError as exc:
                in_flight["error"] = exc
            finally:
                in_flight["done"].set()

        worker = threading.Thread(target=slow_job_to_c)
        worker.start()
        time.sleep(0.2)  # let the request reach proxy.C
        grid.proxies["proxy.C"].shutdown()

        # The in-flight request dies promptly with a typed error — it
        # does not sit out the full job timeout.
        assert in_flight["done"].wait(timeout=5.0)
        assert isinstance(in_flight["error"], ProxyError)

        # Surviving sites keep completing work.
        assert grid.submit_job_with_token(
            grid.login("alice", "pw", via_site="A"), "echo", {"value": "B lives"},
            origin_site="A", target_site="B",
        ) == "B lives"

        # Partial global status: C degrades to None, the rest report.
        status = grid.global_status(via_site="A", allow_partial=True)
        assert status["C"] is None
        assert len(status["A"]) == 2 and len(status["B"]) == 2

        # New work for the dead site fails cleanly.
        with pytest.raises(ProxyError):
            grid.submit_job_with_token(
                grid.login("alice", "pw", via_site="A"), "noop",
                origin_site="A", target_site="C", timeout=5.0,
            )

        # MPI routes around the unreachable site: C's stations are
        # healthy but nothing can tunnel their traffic, so placement
        # skips them and the application runs on the survivors.
        result = grid.run_mpi(lambda comm: comm.rank, nprocs=4, timeout=30.0)
        assert result.ok and result.returns == [0, 1, 2, 3]
        assert all(not node.startswith("C.") for node in result.placement)
    finally:
        grid.shutdown()
