"""The ``proxigrid`` command line.

The paper's access-interface layer includes a command line through which
the user "interacts directly or indirectly with the Grid's functions".
Because the reproduction runs whole grids inside one process, the CLI
operates on a *demo grid* it constructs per invocation (sites and nodes
set by flags), then performs the requested grid function against it:

``proxigrid status``     compiled global status
``proxigrid station N``  one station's RAM/CPU/HD state
``proxigrid submit``     authenticated job submission (origin→target)
``proxigrid mpi-pi``     MPI π estimation across all sites
``proxigrid web``        serve the web interface until interrupted
``proxigrid topology``   sites, proxies, tunnels
``proxigrid obs``        compiled grid telemetry (metrics + trace spans)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.control.api import GridApi
from repro.core.grid import Grid

__all__ = ["build_demo_grid", "main"]


def build_demo_grid(sites: int, nodes: int, transport: str = "inproc") -> Grid:
    """A connected demo grid with one default user."""
    grid = Grid(transport=transport)
    for index in range(sites):
        grid.add_site(f"site{chr(ord('A') + index)}", nodes=nodes)
    grid.connect_all()
    grid.add_user("demo", "demo")
    grid.grant("user:demo", "site:*", "submit")
    return grid


def _pi_app(comm, samples_per_rank: int = 20_000):
    """Monte-Carlo π: each rank samples, root reduces (runs unmodified
    whether ranks share a site or cross the grid)."""
    import random

    from repro.mpi.datatypes import SUM

    rng = random.Random(1234 + comm.rank)
    hits = sum(
        1
        for _ in range(samples_per_rank)
        if rng.random() ** 2 + rng.random() ** 2 <= 1.0
    )
    total = comm.allreduce(hits, SUM, timeout=60.0)
    return 4.0 * total / (samples_per_rank * comm.size)


def _cmd_status(grid: Grid, args) -> int:
    print(json.dumps(GridApi(grid).grid_state(), indent=2))
    return 0


def _cmd_station(grid: Grid, args) -> int:
    print(json.dumps(GridApi(grid).station_state(args.node), indent=2))
    return 0


def _cmd_topology(grid: Grid, args) -> int:
    print(json.dumps(GridApi(grid).topology(), indent=2))
    return 0


def _cmd_obs(grid: Grid, args) -> int:
    # Exercise the control plane first so the dump has something to show:
    # a cross-site status compile stamps request/handle spans everywhere.
    grid.global_status()
    view = GridApi(grid).observability(
        trace_id=args.trace, max_spans=args.max_spans
    )
    print(json.dumps(view, indent=2))
    return 0


def _cmd_submit(grid: Grid, args) -> int:
    token = grid.login(args.user, args.password, via_site=args.origin)
    result = grid.submit_job_with_token(
        token,
        args.task,
        params=json.loads(args.params),
        origin_site=args.origin,
        target_site=args.target,
    )
    print(json.dumps({"result": result}))
    return 0


def _cmd_mpi_pi(grid: Grid, args) -> int:
    result = grid.run_mpi(
        _pi_app, nprocs=args.nprocs, args=(args.samples,), timeout=300.0
    )
    result.raise_first()
    print(
        json.dumps(
            {
                "pi_estimate": result.returns[0],
                "ranks": args.nprocs,
                "placement": result.placement,
            },
            indent=2,
        )
    )
    return 0


def _cmd_web(grid: Grid, args) -> int:
    from repro.ui.web import GridWebServer

    server = GridWebServer(grid, port=args.port)
    server.start()
    print(f"grid web interface at {server.url} (Ctrl-C to stop)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxigrid",
        description="Proxy-server computational grid (Middleware 2003 reproduction)",
    )
    parser.add_argument("--sites", type=int, default=2, help="demo sites")
    parser.add_argument("--nodes", type=int, default=2, help="nodes per site")
    parser.add_argument(
        "--transport", choices=["inproc", "tcp"], default="inproc"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("status", help="compiled global grid status")

    station = sub.add_parser("station", help="one station's state")
    station.add_argument("node", help="station name, e.g. siteA.n0")

    sub.add_parser("topology", help="sites, proxies and tunnels")

    obs = sub.add_parser("obs", help="compiled grid telemetry (OBS_DUMP)")
    obs.add_argument("--trace", default=None, help="filter spans to one trace id")
    obs.add_argument("--max-spans", type=int, default=None, dest="max_spans")

    submit = sub.add_parser("submit", help="submit an authenticated job")
    submit.add_argument("--user", default="demo")
    submit.add_argument("--password", default="demo")
    submit.add_argument("--task", default="echo")
    submit.add_argument("--params", default='{"value": "hello grid"}')
    submit.add_argument("--origin", default=None)
    submit.add_argument("--target", default=None)

    pi = sub.add_parser("mpi-pi", help="estimate pi with MPI across the grid")
    pi.add_argument("--nprocs", type=int, default=4)
    pi.add_argument("--samples", type=int, default=20_000)

    web = sub.add_parser("web", help="serve the web interface")
    web.add_argument("--port", type=int, default=8088)

    return parser


_COMMANDS = {
    "status": _cmd_status,
    "station": _cmd_station,
    "topology": _cmd_topology,
    "obs": _cmd_obs,
    "submit": _cmd_submit,
    "mpi-pi": _cmd_mpi_pi,
    "web": _cmd_web,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    grid = build_demo_grid(args.sites, args.nodes, transport=args.transport)
    try:
        return _COMMANDS[args.command](grid, args)
    finally:
        grid.shutdown()


if __name__ == "__main__":
    sys.exit(main())
