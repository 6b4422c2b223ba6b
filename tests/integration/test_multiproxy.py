"""Integration tests: multiple proxies per site and failover.

The paper: "At least one proxy server per site is required to compose
the grid, although configurations with more than one proxy server per
site are also accepted."
"""

import time

import pytest

from repro.core.grid import Grid
from repro.core.proxy import ProxyError


@pytest.fixture()
def grid():
    g = Grid()
    g.add_site("A", nodes=2)
    g.add_site("B", nodes=2)
    g.add_extra_proxy("B")  # B runs two proxies
    g.connect_all()
    g.add_user("alice", "pw")
    g.grant("user:alice", "site:*", "submit")
    yield g
    g.shutdown()


def test_directory_lists_both_proxies(grid):
    assert grid.directory.proxies_of_site("B") == ["proxy.B", "proxy.B.1"]


def test_tunnels_to_every_proxy_of_the_site(grid):
    assert grid.proxy_of("A").peers() == ["proxy.B", "proxy.B.1"]


def test_extra_proxy_shares_the_site(grid):
    extra = grid.proxies["proxy.B.1"]
    assert extra.site is grid.sites["B"]
    assert len(extra.local_status()) == 2


def test_job_failover_to_surviving_proxy(grid):
    grid.proxies["proxy.B"].shutdown()
    time.sleep(0.1)
    result = grid.submit_job_with_token(
        grid.login("alice", "pw", via_site="A"), "echo", {"value": "via backup"},
        origin_site="A", target_site="B",
    )
    assert result == "via backup"


def test_status_failover_to_surviving_proxy(grid):
    grid.proxies["proxy.B"].shutdown()
    time.sleep(0.1)
    status = grid.global_status(via_site="A")
    assert len(status["B"]) == 2


def test_both_proxies_down_fails_cleanly(grid):
    grid.proxies["proxy.B"].shutdown()
    grid.proxies["proxy.B.1"].shutdown()
    time.sleep(0.2)
    with pytest.raises(ProxyError, match="no proxy of site"):
        grid.submit_job_with_token(
            grid.login("alice", "pw", via_site="A"), "noop",
            origin_site="A", target_site="B",
        )


def test_policy_rejection_is_not_retried(grid):
    """A rejection by a live proxy is final: both-end validation stands."""
    grid.add_user("bob", "pw")
    grid.grant("user:bob", "site:A", "submit")  # B not granted
    from repro.security.auth import PermissionDenied

    token = grid.login("bob", "pw", via_site="A")
    with pytest.raises(PermissionDenied):
        grid.submit_job_with_token(token, "noop", origin_site="A", target_site="B")


def test_extra_proxy_on_unknown_site_rejected(grid):
    from repro.core.grid import GridError

    with pytest.raises(GridError):
        grid.add_extra_proxy("Z")


def test_mpi_still_runs_with_multiproxy_site(grid):
    from repro.mpi.datatypes import SUM

    result = grid.run_mpi(
        lambda comm: comm.allreduce(1, SUM, timeout=30.0), nprocs=4, timeout=60.0
    )
    assert result.ok
    assert all(r == 4 for r in result.returns)
