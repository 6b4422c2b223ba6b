"""Integration tests: the same grid over real localhost TCP sockets.

Nothing in the middleware changes — only the transport the proxies dial
each other with.  This demonstrates the paper's architecture on an actual
network stack rather than in-process queues.
"""

import pytest

from repro.core.grid import Grid
from repro.mpi.datatypes import SUM


@pytest.fixture()
def tcp_grid():
    g = Grid(transport="tcp")
    g.add_site("A", nodes=2)
    g.add_site("B", nodes=2)
    g.connect_all()
    g.add_user("alice", "pw")
    g.grant("user:alice", "site:*", "submit")
    yield g
    g.shutdown()


def test_tunnels_over_tcp(tcp_grid):
    assert tcp_grid.proxy_of("A").peers() == ["proxy.B"]
    assert tcp_grid.proxy_of("B").peers() == ["proxy.A"]


def test_remote_job_over_tcp(tcp_grid):
    token = tcp_grid.login("alice", "pw", via_site="A")
    result = tcp_grid.submit_job_with_token(
        token, "sum_range", {"n": 50}, origin_site="A", target_site="B"
    )
    assert result == sum(range(50))


def test_status_over_tcp(tcp_grid):
    status = tcp_grid.global_status(via_site="A")
    assert sorted(status) == ["A", "B"]
    assert len(status["B"]) == 2


def test_mpi_across_sites_over_tcp(tcp_grid):
    def app(comm):
        return comm.allreduce(comm.rank + 1, SUM, timeout=30.0)

    result = tcp_grid.run_mpi(app, nprocs=4, timeout=60.0)
    assert result.ok
    assert all(r == 10 for r in result.returns)


def test_tcp_addresses_are_real_sockets(tcp_grid):
    address = tcp_grid.directory.address_of_proxy("proxy.A")
    host, _, port = address.rpartition(":")
    assert host == "127.0.0.1"
    assert int(port) > 0
