"""Integration tests for the CLI, web interface and distributed threads."""

import json
import urllib.request

import pytest

from repro.core.grid import Grid
from repro.security.tokens import TokenError
from repro.threads.remote import (
    MAP_IN_FLIGHT,
    GridExecutor,
    GridThread,
    GridThreadError,
)
from repro.ui.cli import build_demo_grid, main
from repro.ui.web import GridWebServer


@pytest.fixture()
def grid():
    g = Grid()
    g.add_site("A", nodes=2)
    g.add_site("B", nodes=2)
    g.connect_all()
    g.add_user("alice", "pw")
    g.grant("user:alice", "site:*", "submit")
    yield g
    g.shutdown()


class TestCli:
    def test_status_command(self, capsys):
        assert main(["--sites", "2", "--nodes", "1", "status"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(out) == ["siteA", "siteB"]

    def test_station_command(self, capsys):
        assert main(["--sites", "1", "--nodes", "2", "station", "siteA.n1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["node"] == "siteA.n1"
        assert out["alive"] is True

    def test_topology_command(self, capsys):
        assert main(["--sites", "2", "--nodes", "1", "topology"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sites"]["siteA"]["tunnels"] == ["proxy.siteB"]

    def test_submit_command(self, capsys):
        assert main(
            ["--sites", "2", "--nodes", "1", "submit",
             "--task", "echo", "--params", '{"value": 9}',
             "--origin", "siteA", "--target", "siteB"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == 9

    def test_mpi_pi_command(self, capsys):
        assert main(
            ["--sites", "2", "--nodes", "2", "mpi-pi",
             "--nprocs", "4", "--samples", "2000"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert 2.8 < out["pi_estimate"] < 3.5
        assert len(out["placement"]) == 4

    def test_demo_grid_builder(self):
        grid = build_demo_grid(3, 1)
        try:
            assert sorted(grid.sites) == ["siteA", "siteB", "siteC"]
            assert grid.proxy_of("siteA").peers() == [
                "proxy.siteB", "proxy.siteC"
            ]
        finally:
            grid.shutdown()


class TestWebInterface:
    def fetch(self, url):
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read()

    def test_summary_endpoint(self, grid):
        with GridWebServer(grid) as server:
            status, body = self.fetch(f"{server.url}/api/summary")
            assert status == 200
            summary = json.loads(body)
            assert summary["sites"] == 2
            assert summary["nodes"] == 4

    def test_status_endpoint(self, grid):
        with GridWebServer(grid) as server:
            _, body = self.fetch(f"{server.url}/api/status")
            status = json.loads(body)
            assert sorted(status) == ["A", "B"]

    def test_station_endpoint(self, grid):
        with GridWebServer(grid) as server:
            _, body = self.fetch(f"{server.url}/api/station?node=B.n0")
            assert json.loads(body)["site"] == "B"

    def test_unknown_station_404(self, grid):
        with GridWebServer(grid) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self.fetch(f"{server.url}/api/station?node=ghost")
            assert err.value.code == 404

    def test_html_overview(self, grid):
        with GridWebServer(grid) as server:
            status, body = self.fetch(f"{server.url}/")
            assert status == 200
            text = body.decode()
            assert "proxy.A" in text
            assert "Computational Grid" in text

    def test_unknown_path_404(self, grid):
        with GridWebServer(grid) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self.fetch(f"{server.url}/nope")
            assert err.value.code == 404


@pytest.fixture()
def token(grid):
    return grid.login("alice", "pw", via_site="A")


class TestGridThreads:
    def test_single_thread_remote_result(self, grid, token):
        thread = GridThread(
            grid, token, "sum_range", {"n": 10}, target_site="B"
        ).start()
        thread.join(timeout=30.0)
        assert thread.result() == 45

    def test_thread_error_propagates_on_result(self, grid):
        thread = GridThread(grid, b"not a token", "noop").start()
        thread.join(timeout=30.0)
        with pytest.raises(TokenError):
            thread.result()

    def test_double_start_rejected(self, grid, token):
        thread = GridThread(grid, token, "noop").start()
        with pytest.raises(GridThreadError):
            thread.start()
        thread.join(timeout=30.0)

    def test_result_before_finish_rejected(self, grid, token):
        thread = GridThread(grid, token, "noop")
        with pytest.raises(GridThreadError):
            thread.join()
        thread.start()
        thread.join(timeout=30.0)
        thread.result()

    def test_executor_map_spreads_sites(self, grid, token):
        executor = GridExecutor(grid, token, origin_site="A")
        results = executor.map(
            "sum_range", [{"n": n} for n in [5, 10, 15, 20]]
        )
        assert results == [10, 45, 105, 190]
        executor.shutdown()

    def test_executor_submit_individual(self, grid, token):
        executor = GridExecutor(grid, token)
        a = executor.submit("echo", {"value": "x"}, target_site="A")
        b = executor.submit("echo", {"value": "y"}, target_site="B")
        a.join(timeout=30.0)
        b.join(timeout=30.0)
        assert (a.result(), b.result()) == ("x", "y")

    def test_executor_map_logs_in_zero_times(self, grid, monkeypatch):
        """One login per session: the map reuses the caller's token."""
        checks = []
        authenticate = grid.users.authenticate_password

        def counting(userid, password):
            checks.append(userid)
            return authenticate(userid, password)

        monkeypatch.setattr(grid.users, "authenticate_password", counting)
        token = grid.login("alice", "pw", via_site="A")
        assert checks == ["alice"]
        executor = GridExecutor(grid, token, origin_site="A")
        results = executor.map("echo", [{"value": i} for i in range(200)])
        assert results == list(range(200))
        assert checks == ["alice"]

    def test_executor_map_bounds_tasks_in_flight(self, grid, token, monkeypatch):
        executor = GridExecutor(grid, token, origin_site="A")
        submit = executor.submit
        alive_at_submit = []

        def recording(*args, **kwargs):
            thread = submit(*args, **kwargs)
            alive_at_submit.append(
                sum(t.is_alive() for t in executor._threads)
            )
            return thread

        monkeypatch.setattr(executor, "submit", recording)
        results = executor.map("sleep", [{"duration": 0.02}] * 64)
        assert results == [None] * 64
        assert len(alive_at_submit) == 64
        assert max(alive_at_submit) <= MAP_IN_FLIGHT
