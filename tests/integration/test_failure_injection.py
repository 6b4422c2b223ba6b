"""Failure injection and adversarial-input tests for the live runtime.

The paper's reliability arguments — failures confined to a site,
unauthorized traffic discarded, external integration protecting the
middleware — are exercised here with deliberate faults: killed proxies,
dead nodes, hostile frames, corrupted records.
"""

import threading
import time

import pytest

from repro.core.grid import Grid
from repro.core.protocol import Op
from repro.core.proxy import ProxyError
from repro.mpi.datatypes import SUM
from repro.transport.frames import Frame, FrameKind, encode_value


@pytest.fixture()
def grid():
    g = Grid()
    g.add_site("A", nodes=2)
    g.add_site("B", nodes=2)
    g.add_site("C", nodes=2)
    g.connect_all()
    g.add_user("alice", "pw")
    g.grant("user:alice", "site:*", "submit")
    yield g
    g.shutdown()


class TestProxyFailure:
    def test_surviving_sites_keep_working(self, grid):
        grid.proxy_of("C").shutdown()
        # A <-> B remains fully functional.
        result = grid.submit_job_with_token(
            grid.login("alice", "pw", via_site="A"), "echo", {"value": 1},
            origin_site="A", target_site="B",
        )
        assert result == 1

    def test_request_to_dead_proxy_fails_fast(self, grid):
        grid.proxy_of("C").shutdown()
        time.sleep(0.1)  # let tunnel closure propagate
        with pytest.raises(ProxyError):
            grid.proxy_of("A").request("proxy.C", Op.PING, timeout=5.0)

    def test_peer_loss_callbacks_fire_on_both_sides(self, grid):
        lost_a, lost_b = [], []
        grid.proxy_of("A").on_peer_lost.append(lost_a.append)
        grid.proxy_of("B").on_peer_lost.append(lost_b.append)
        grid.proxy_of("C").shutdown()
        deadline = time.monotonic() + 10.0
        while (not lost_a or not lost_b) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert "proxy.C" in lost_a
        assert "proxy.C" in lost_b

    def test_mpi_on_surviving_sites_after_proxy_death(self, grid):
        grid.proxy_of("C").shutdown()
        for node in grid.sites["C"].nodes.values():
            node.fail()
        result = grid.run_mpi(
            lambda comm: comm.allreduce(1, SUM, timeout=30.0),
            nprocs=4,
            timeout=60.0,
        )
        assert result.ok
        assert all(r == 4 for r in result.returns)
        # C's dead nodes were skipped by placement.
        assert all(not name.startswith("C.") for name in result.placement)

    def test_in_flight_requests_cancelled_on_tunnel_loss(self, grid):
        """A request outstanding when the tunnel dies gets an error, not a hang."""
        sleeper = threading.Thread(
            target=lambda: grid.sites["C"].nodes["C.n0"].execute("sleep", {"duration": 2.0})
        )
        errors = []

        def submit():
            try:
                grid.proxy_of("A").request(
                    "proxy.C", Op.STATUS_QUERY, timeout=30.0
                )
            except ProxyError as exc:
                errors.append(str(exc))

        # Send the request, then kill the peer before it can matter.
        thread = threading.Thread(target=submit)
        grid.proxy_of("C").extension_handlers[Op.STATUS_QUERY] = (
            lambda msg, peer: None  # swallow: never reply
        )
        thread.start()
        time.sleep(0.1)
        grid.proxy_of("C").shutdown()
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert errors and "closed" in errors[0]


class TestNodeFailure:
    def test_job_routed_around_dead_node(self, grid):
        grid.sites["B"].nodes["B.n0"].fail()
        for _ in range(3):
            result = grid.submit_job_with_token(
                grid.login("alice", "pw", via_site="A"), "echo", {"value": "x"},
                origin_site="A", target_site="B",
            )
            assert result == "x"

    def test_whole_site_dead_rejects_cleanly(self, grid):
        for node in grid.sites["B"].nodes.values():
            node.fail()
        with pytest.raises(ProxyError, match="rejected"):
            grid.submit_job_with_token(
                grid.login("alice", "pw", via_site="A"), "noop",
                origin_site="A", target_site="B",
            )

    def test_node_recovery_restores_capacity(self, grid):
        for node in grid.sites["B"].nodes.values():
            node.fail()
        grid.sites["B"].nodes["B.n1"].recover()
        result = grid.submit_job_with_token(
            grid.login("alice", "pw", via_site="A"), "echo", {"value": 5},
            origin_site="A", target_site="B",
        )
        assert result == 5


class TestHostileTraffic:
    def test_unauthenticated_connection_discarded(self, grid):
        """A raw client that never completes the handshake is dropped."""
        address = grid.directory.address_of_proxy("proxy.A")
        raw = grid._fabric.connect(address)
        # Send garbage where a handshake HELLO belongs.
        raw.send(Frame(kind=FrameKind.HANDSHAKE, headers={"step": "hello"},
                       payload=b"not a dict"))
        # The proxy must survive and keep serving authenticated peers.
        time.sleep(0.1)
        reply = grid.proxy_of("B").request("proxy.A", Op.PING, timeout=10.0)
        assert reply.op == Op.PONG

    def test_malformed_control_body_ignored(self, grid):
        """Corrupt control frames over a real tunnel are discarded."""
        tunnel = grid.proxy_of("A").tunnel_to("proxy.B")
        tunnel.send(
            Frame(
                kind=FrameKind.CONTROL,
                headers={"op": 99999999, "id": 1},
                payload=encode_value({}),
            )
        )
        # B's proxy is still healthy.
        reply = grid.proxy_of("A").request("proxy.B", Op.PING, timeout=10.0)
        assert reply.op == Op.PONG

    def test_mpi_frame_for_unknown_app_ignored(self, grid):
        tunnel = grid.proxy_of("A").tunnel_to("proxy.B")
        tunnel.send(
            Frame(
                kind=FrameKind.MPI,
                headers={"app": "ghost-app", "src": 0, "dst": 1, "tag": 0},
                payload=encode_value("boo"),
            )
        )
        reply = grid.proxy_of("A").request("proxy.B", Op.PING, timeout=10.0)
        assert reply.op == Op.PONG

    def test_tampered_record_kills_only_that_tunnel(self, grid):
        """Record corruption is detected; the victim drops the tunnel."""
        proxy_a = grid.proxy_of("A")
        tunnel = proxy_a.tunnel_to("proxy.B")
        # Forge a DATA frame with a garbage record straight onto the
        # underlying channel, bypassing the cipher.
        tunnel._secure._inner.send(
            Frame(kind=FrameKind.DATA, payload=b"\x00" * 48)
        )
        deadline = time.monotonic() + 10.0
        while "proxy.A" in grid.proxy_of("B").peers() and time.monotonic() < deadline:
            time.sleep(0.02)
        # B tore down the corrupted tunnel; its other tunnel still works.
        assert "proxy.A" not in grid.proxy_of("B").peers()
        reply = grid.proxy_of("C").request("proxy.B", Op.PING, timeout=10.0)
        assert reply.op == Op.PONG


class TestRankFailureDuringCollectives:
    def test_failed_rank_reported_not_hung(self, grid):
        """A rank that dies before a collective leaves peers recoverable."""

        def app(comm):
            if comm.rank == 1:
                raise RuntimeError("early death")
            # Survivors only talk among themselves.
            if comm.rank == 0:
                comm.send("hi", dest=2, tag=1)
                return "sent"
            if comm.rank == 2:
                return comm.recv(source=0, tag=1, timeout=30.0)
            return None

        result = grid.run_mpi(app, nprocs=3, timeout=60.0)
        assert isinstance(result.errors[1], RuntimeError)
        assert result.returns[0] == "sent"
        assert result.returns[2] == "hi"
