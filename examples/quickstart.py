"""Quickstart: build a proxy-based grid and use every basic service.

Walks the architecture end to end in under a minute:

1. create two sites, each with nodes behind a border proxy;
2. interconnect the sites (CA-issued certificates, SSL-like tunnel);
3. register a user and permissions, and log in once for a token;
4. submit jobs under that token, locally and across the tunnel
   (authorised at both proxies);
5. compile the grid-wide status from the per-site collections.

Run:  python examples/quickstart.py
"""

from repro.control.api import GridApi
from repro.core.grid import Grid


def main() -> None:
    print("== building the grid ==")
    grid = Grid()
    grid.add_site("riverside", nodes=3)
    grid.add_site("hilltop", nodes=2)
    grid.connect_all()
    print(f"sites: {sorted(grid.sites)}")
    print(f"tunnels from riverside's proxy: {grid.proxy_of('riverside').peers()}")

    print("\n== users and permissions ==")
    grid.add_user("alice", "correct-horse")
    grid.grant("user:alice", "site:*", "submit")
    print("alice may submit to any site")

    print("\n== one login at the origin proxy buys a token ==")
    token = grid.login("alice", "correct-horse", via_site="riverside")
    print(f"token: {len(token)} bytes, reused for every job below")

    print("\n== local job (stays inside the site, no encryption) ==")
    result = grid.submit_job_with_token(
        token, "sum_range", {"n": 1000}, origin_site="riverside"
    )
    print(f"sum(range(1000)) = {result}")

    print("\n== remote job (crosses the secure tunnel) ==")
    result = grid.submit_job_with_token(
        token,
        "echo",
        {"value": "hello from hilltop"},
        origin_site="riverside",
        target_site="hilltop",
    )
    print(f"echo via hilltop: {result!r}")

    print("\n== a wrong password is rejected at the origin proxy ==")
    try:
        grid.login("alice", "wrong", via_site="riverside")
    except Exception as exc:
        print(f"rejected: {exc}")

    print("\n== usage accounting (reward mechanisms) ==")
    from repro.control.accounting import CreditPolicy

    print(f"ledger: {len(grid.ledger)} jobs recorded")
    print(f"per-user CPU-seconds: "
          f"{ {u: round(s, 4) for u, s in grid.ledger.usage_by_user().items()} }")
    policy = CreditPolicy(rate=1.0)
    balances = policy.settle(grid.ledger)
    print(f"site credit balances (hosting foreign work earns): "
          f"{ {s: round(b, 4) for s, b in balances.items()} }")

    print("\n== grid-wide status (compiled from per-site collections) ==")
    api = GridApi(grid)
    for site, entries in api.grid_state().items():
        nodes = ", ".join(
            f"{e['node']}(cpu×{e['cpu_speed']})" for e in entries
        )
        print(f"  {site}: {nodes}")
    summary = api.summary()
    print(
        f"total: {summary['nodes']} nodes across {summary['sites']} sites, "
        f"{summary['alive_nodes']} alive"
    )

    grid.shutdown()
    print("\ndone.")


if __name__ == "__main__":
    main()
