"""Integration tests: the full proxy grid on the in-process transport.

These drive the complete path the paper describes: CA-issued certificates,
proxy tunnels with the SSL-like handshake, authenticated + authorised job
submission validated at both ends, distributed status collection, and MPI
applications multiplexed through virtual slaves.
"""

import threading
import time

import pytest

from repro.core.grid import Grid, GridError
from repro.core.proxy import ProxyError
from repro.mpi.datatypes import MAX, SUM
from repro.mpi.launcher import mpirun
from repro.security.auth import AuthenticationError, PermissionDenied


@pytest.fixture()
def grid():
    g = Grid()
    g.add_site("A", nodes=2)
    g.add_site("B", nodes=2)
    g.add_site("C", nodes=1)
    g.connect_all()
    g.add_user("alice", "pw")
    g.grant("user:alice", "site:*", "submit")
    yield g
    g.shutdown()


class TestTopology:
    def test_full_mesh_of_tunnels(self, grid):
        assert grid.proxy_of("A").peers() == ["proxy.B", "proxy.C"]
        assert grid.proxy_of("B").peers() == ["proxy.A", "proxy.C"]
        assert grid.proxy_of("C").peers() == ["proxy.A", "proxy.B"]

    def test_ping_over_control_protocol(self, grid):
        from repro.core.protocol import Op

        reply = grid.proxy_of("A").request("proxy.C", Op.PING, timeout=10.0)
        assert reply.op == Op.PONG
        assert reply.body["proxy"] == "proxy.C"

    def test_duplicate_site_rejected(self, grid):
        with pytest.raises(GridError):
            grid.add_site("A")

    def test_connect_idempotent(self, grid):
        grid.connect("A", "B")  # second call is a no-op
        assert grid.proxy_of("A").peers().count("proxy.B") == 1

    def test_resource_location(self, grid):
        from repro.core.protocol import Op

        reply = grid.proxy_of("A").request(
            "proxy.B", Op.LOCATE_RESOURCE, {"node": "C.n0"}, timeout=10.0
        )
        assert reply.body["site"] == "C"


class TestJobs:
    def test_local_job(self, grid):
        token = grid.login("alice", "pw", via_site="A")
        assert grid.submit_job_with_token(
            token, "echo", {"value": 1}, origin_site="A"
        ) == 1

    def test_remote_job_crosses_tunnel(self, grid):
        token = grid.login("alice", "pw", via_site="A")
        result = grid.submit_job_with_token(
            token, "sum_range", {"n": 100}, origin_site="A", target_site="B"
        )
        assert result == sum(range(100))

    def test_wrong_password_rejected_at_origin(self, grid):
        with pytest.raises(AuthenticationError):
            grid.login("alice", "nope", via_site="A")

    def test_unknown_user_rejected(self, grid):
        with pytest.raises(AuthenticationError):
            grid.login("mallory", "pw", via_site="A")

    def test_no_permission_rejected_at_origin(self, grid):
        grid.add_user("bob", "pw")  # no grants
        token = grid.login("bob", "pw", via_site="A")
        with pytest.raises(PermissionDenied):
            grid.submit_job_with_token(
                token, "noop", origin_site="A", target_site="B"
            )

    def test_site_scoped_permission(self, grid):
        grid.add_user("carol", "pw")
        grid.grant("user:carol", "site:A", "submit")
        token = grid.login("carol", "pw", via_site="A")
        assert grid.submit_job_with_token(
            token, "echo", {"value": 5}, origin_site="A"
        ) == 5
        with pytest.raises(PermissionDenied):
            grid.submit_job_with_token(
                token, "noop", origin_site="A", target_site="B"
            )

    def test_group_permission_end_to_end(self, grid):
        grid.add_user("dave", "pw")
        grid.users.create_group("physics")
        grid.users.add_to_group("physics", "dave")
        grid.grant("group:physics", "site:B", "submit")
        token = grid.login("dave", "pw", via_site="A")
        result = grid.submit_job_with_token(
            token, "echo", {"value": "ok"}, origin_site="A", target_site="B"
        )
        assert result == "ok"

    def test_unknown_task_rejected_remotely(self, grid):
        token = grid.login("alice", "pw", via_site="A")
        with pytest.raises(ProxyError, match="rejected"):
            grid.submit_job_with_token(
                token, "not_a_task", origin_site="A", target_site="B"
            )

    def test_job_to_site_with_all_nodes_dead(self, grid):
        for node in grid.sites["C"].nodes.values():
            node.fail()
        token = grid.login("alice", "pw", via_site="A")
        with pytest.raises(ProxyError):
            grid.submit_job_with_token(
                token, "noop", origin_site="A", target_site="C"
            )


class TestMonitoring:
    def test_global_status_compiles_all_sites(self, grid):
        status = grid.global_status(via_site="A")
        assert sorted(status) == ["A", "B", "C"]
        assert len(status["A"]) == 2
        assert len(status["C"]) == 1
        entry = status["B"][0]
        assert entry["alive"] is True
        assert entry["site"] == "B"

    def test_status_reflects_failures(self, grid):
        grid.sites["B"].nodes["B.n0"].fail()
        status = grid.global_status(via_site="A")
        by_node = {e["node"]: e for e in status["B"]}
        assert by_node["B.n0"]["alive"] is False
        assert by_node["B.n1"]["alive"] is True

    def test_per_site_query_is_local_to_that_site(self, grid):
        """Distributed monitoring: asking one site touches one proxy."""
        proxy_a = grid.proxy_of("A")
        status = proxy_a.query_peer_status("proxy.B", timeout=10.0)
        assert len(status) == 2
        assert all(e["site"] == "B" for e in status)


class TestMpiOverGrid:
    def test_allreduce_across_three_sites(self, grid):
        def app(comm):
            return comm.allreduce(comm.rank + 1, SUM, timeout=30.0)

        result = grid.run_mpi(app, nprocs=5, timeout=60.0)
        assert result.ok
        assert all(r == 15 for r in result.returns)

    def test_placement_spans_sites_round_robin(self, grid):
        result = grid.run_mpi(lambda comm: comm.rank, nprocs=5, timeout=60.0)
        assert result.placement == ["A.n0", "A.n1", "B.n0", "B.n1", "C.n0"]

    def test_cross_site_point_to_point(self, grid):
        def app(comm):
            if comm.rank == 0:  # site A
                comm.send({"painload": list(range(50))}, dest=4, tag=3)  # site C
                return comm.recv(source=4, tag=4, timeout=30.0)
            if comm.rank == 4:
                got = comm.recv(source=0, tag=3, timeout=30.0)
                comm.send(len(got["painload"]), dest=0, tag=4)
                return got
            return None

        result = grid.run_mpi(app, nprocs=5, timeout=60.0)
        assert result.ok
        assert result.returns[0] == 50

    def test_virtual_slaves_created_per_remote_rank(self, grid):
        """The proxy of rank 0's site must hold slaves for all remote ranks."""
        probe = {}

        def app(comm):
            if comm.rank == 0:
                proxy = grid.proxy_of("A")
                # Find our app space (exactly one live app).
                with proxy._space_lock:
                    space = next(iter(proxy._spaces.values()))
                probe["local"] = space.local_ranks
                probe["remote"] = space.remote_ranks
                probe["slaves"] = sorted(space.slaves)
            comm.barrier(timeout=30.0)
            return comm.rank

        result = grid.run_mpi(app, nprocs=5, timeout=60.0)
        assert result.ok
        assert probe["local"] == [0, 1]
        assert probe["remote"] == [2, 3, 4]
        assert probe["slaves"] == [2, 3, 4]

    def test_local_traffic_not_tunneled(self, grid):
        """Messages between ranks at one site never touch the tunnels."""
        def app(comm):
            if comm.rank == 0:
                comm.send("local", dest=1)  # both at site A
            elif comm.rank == 1:
                return comm.recv(source=0, timeout=30.0)
            return None

        proxy_a = grid.proxy_of("A")
        before = {
            peer: proxy_a.tunnel_to(peer).stats.frames_sent
            for peer in proxy_a.peers()
        }
        result = grid.run_mpi(app, nprocs=2, timeout=60.0)
        assert result.ok
        # Only MPI_START/MPI_END control traffic may have crossed; with two
        # local ranks there are no remote sites, so nothing at all.
        after = {
            peer: proxy_a.tunnel_to(peer).stats.frames_sent
            for peer in proxy_a.peers()
        }
        assert before == after

    def test_app_spaces_cleaned_up(self, grid):
        result = grid.run_mpi(lambda comm: comm.rank, nprocs=5, timeout=60.0)
        assert result.ok
        for site in ["A", "B", "C"]:
            proxy = grid.proxy_of(site)
            with proxy._space_lock:
                assert proxy._spaces == {}

    def test_rank_failure_contained(self, grid):
        def app(comm):
            if comm.rank == 2:
                raise RuntimeError("rank 2 crashed")
            return "ok"

        result = grid.run_mpi(app, nprocs=3, timeout=60.0)
        assert not result.ok
        assert result.returns[0] == "ok"
        assert isinstance(result.errors[2], RuntimeError)
        # The grid survives: run another app immediately.
        again = grid.run_mpi(lambda comm: comm.size, nprocs=3, timeout=60.0)
        assert again.ok

    def test_collectives_heavy_mix_across_sites(self, grid):
        def app(comm):
            total = comm.allreduce(comm.rank, SUM, timeout=30.0)
            top = comm.allreduce(comm.rank, MAX, timeout=30.0)
            gathered = comm.gather(comm.rank * comm.rank, root=0, timeout=30.0)
            comm.barrier(timeout=30.0)
            scattered = comm.scatter(
                [i + 100 for i in range(comm.size)] if comm.rank == 0 else None,
                root=0,
                timeout=30.0,
            )
            return (total, top, gathered, scattered)

        result = grid.run_mpi(app, nprocs=5, timeout=120.0)
        assert result.ok
        total, top, gathered, scattered = result.returns[0]
        assert total == 10
        assert top == 4
        assert gathered == [0, 1, 4, 9, 16]
        assert [r[3] for r in result.returns] == [100, 101, 102, 103, 104]

    def test_load_balanced_placement_prefers_fast_nodes(self):
        grid = Grid()
        grid.add_site("slow", nodes=2, node_speed=1.0)
        grid.add_site("fast", nodes=2, node_speed=4.0)
        grid.connect_all()
        try:
            rank_to_site, _ = grid.place_ranks(2, policy="load_balanced")
            assert set(rank_to_site.values()) == {"fast"}
        finally:
            grid.shutdown()

    def test_unknown_policy_rejected(self, grid):
        with pytest.raises(GridError):
            grid.place_ranks(2, policy="quantum")


def _hung(comm):
    # Every rank waits for a message nobody sends.
    comm.recv(source=comm.rank, tag=0)


@pytest.mark.parametrize(
    "launch",
    [
        lambda grid, app, n, timeout: mpirun(app, n, timeout=timeout),
        lambda grid, app, n, timeout: grid.run_mpi(app, n, timeout=timeout),
    ],
    ids=["mpirun", "Grid.run_mpi"],
)
def test_mpi_timeout_is_one_deadline_for_all_ranks(grid, launch):
    """``timeout`` bounds the whole run, not each rank's join in turn."""
    before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(TimeoutError, match="did not finish"):
        launch(grid, _hung, 6, 0.5)
    assert time.monotonic() - started < 1.5
    # The hung ranks were released, and the grid runs the next app.
    assert not [t for t in set(threading.enumerate()) - before if "-rank-" in t.name]
    assert grid.run_mpi(lambda comm: comm.rank, 2, timeout=30.0).returns == [0, 1]


def test_refused_start_tears_down_only_the_spaces_it_created(grid):
    """C already runs an app under the same id: the start is refused
    there, and the spaces A and B made for this start go with it."""
    c = grid.proxy_of("C")
    c.start_app("app-x", {0: "C"}, {0: "C.n0"}, announce=False)
    with pytest.raises(ProxyError, match="already started"):
        grid.run_mpi(lambda comm: comm.rank, 6, timeout=30.0, app_id="app-x")
    for site in ["A", "B"]:
        with pytest.raises(ProxyError, match="no app"):
            grid.proxy_of(site).app_space("app-x")
    assert c.app_space("app-x").rank_to_site == {0: "C"}
    c.end_app("app-x")
    result = grid.run_mpi(lambda comm: comm.rank, 6, timeout=30.0, app_id="app-x")
    assert result.returns == [0, 1, 2, 3, 4, 5]
