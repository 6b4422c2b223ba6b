"""E8 — Kerberos-style tickets vs per-request authentication.

The paper's foreseen upgrade: "a single authentication per session, with
the access rights stored safely in a ticket and reused transparently".
The grid's ticket is the bearer token of :mod:`repro.security.tokens` —
the mechanism every token-guarded request uses.

Both schemes serve sessions of increasing length with the real crypto:
per-request authentication hashes the password every time; the ticket
scheme pays one password authentication + one HMAC mint up front
(``TokenService.login``), then one ``verify_blob`` per request — an HMAC
the first time a proxy sees the blob, claim checks after that.
Expected shape: tickets amortise — per-request cost falls toward the
verification floor as the session grows, while the baseline stays flat.
"""

import time

import pytest

from benchmarks.common import save_table
from repro.security.auth import UserDirectory
from repro.security.tokens import TokenService

SESSION_LENGTHS = [1, 10, 100, 500]


def make_world():
    users = UserDirectory()
    users.add_user("alice", "pw")
    service = TokenService(users, lambda: 0.0)
    return users, service


def run_experiment() -> list[dict]:
    users, service = make_world()
    rows = []
    for requests in SESSION_LENGTHS:
        start = time.perf_counter()
        for _ in range(requests):
            users.authenticate_password("alice", "pw")
        per_request_total = time.perf_counter() - start

        start = time.perf_counter()
        ticket = service.login("alice", "pw", scopes=["jobs:submit"]).to_bytes()
        for _ in range(requests):
            service.verify_blob(ticket, required_scope="jobs:submit")
        ticket_total = time.perf_counter() - start

        rows.append(
            {
                "requests": requests,
                "per_request_ms": per_request_total * 1000,
                "ticket_ms": ticket_total * 1000,
                "per_request_auth_ops": requests,
                "ticket_auth_ops": 1,
                "speedup_x": per_request_total / ticket_total,
            }
        )
    return rows


def check_shape(rows: list[dict]) -> None:
    # Password authentications: N vs 1 — the paper's whole point.
    for row in rows:
        assert row["ticket_auth_ops"] == 1
        assert row["per_request_auth_ops"] == row["requests"]
    # Amortisation: the ticket advantage grows with session length.
    speedups = [row["speedup_x"] for row in rows]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 2.0


@pytest.mark.benchmark(group="e8-tickets")
def test_e8_ticket_amortisation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    check_shape(rows)
    save_table(
        "e8_tickets",
        "E8: per-request password auth vs single-auth session tickets",
        rows,
    )


@pytest.mark.benchmark(group="e8-tickets")
def test_e8_password_auth_cost(benchmark):
    users, _ = make_world()
    benchmark(lambda: users.authenticate_password("alice", "pw"))


@pytest.mark.benchmark(group="e8-tickets")
def test_e8_ticket_verify_cost(benchmark):
    _, service = make_world()
    ticket = service.login("alice", "pw").to_bytes()
    benchmark(lambda: service.verify_blob(ticket))


@pytest.mark.benchmark(group="e8-tickets")
def test_e8_ticket_issue_cost(benchmark):
    _, service = make_world()
    benchmark(lambda: service.login("alice", "pw", scopes=["jobs:submit"]))
