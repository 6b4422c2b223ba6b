"""Grid-level scenarios with their answers pinned.

Each scenario is a pure function of a freshly-built grid that returns a
deterministic, comparable value: status tables, MPI answers, failover
outcome, echo payloads, WMS op replies, token-auth outcomes.  Timing,
thread counts and telemetry are allowed to differ between revisions;
answers are not.  The expected values are literal — recorded from the
reactor serving path as it stood when it became the only I/O engine —
so a refactor of that path is checked against the same answers.
"""

import collections
import threading

import pytest

from repro.core.grid import Grid, GridError
from repro.core.multiplexer import GridRouter
from repro.core.protocol import Op
from repro.core.tunnel import TunnelBusy
from repro.mpi.datatypes import SUM
from repro.transport.frames import FrameKind, encode_value


def _run(scenario):
    """Build a grid, run the scenario, tear down."""
    grid = Grid()
    try:
        return scenario(grid)
    finally:
        grid.shutdown()


# ---------------------------------------------------------------------------
# Scenario 1: global status compilation
# ---------------------------------------------------------------------------


def _status_scenario(grid: Grid):
    grid.add_site("A", nodes=2)
    grid.add_site("B", nodes=3)
    grid.connect_all()
    status = grid.global_status(via_site="A")
    # Load figures (ram_free, running_tasks) are time-dependent; the
    # *shape* of the compiled answer is the contract.
    return {
        site: sorted(
            (row["node"], row["site"], row["cpu_speed"], row["alive"])
            for row in rows
        )
        for site, rows in status.items()
    }


def test_global_status():
    assert _run(_status_scenario) == {
        "A": [("A.n0", "A", 1.0, True), ("A.n1", "A", 1.0, True)],
        "B": [
            ("B.n0", "B", 1.0, True),
            ("B.n1", "B", 1.0, True),
            ("B.n2", "B", 1.0, True),
        ],
    }


# ---------------------------------------------------------------------------
# Scenario 2: MPI round-trip across sites
# ---------------------------------------------------------------------------


def _mpi_scenario(grid: Grid):
    grid.add_site("A", nodes=2)
    grid.add_site("B", nodes=2)
    grid.connect_all()

    def app(comm):
        total = comm.allreduce(comm.rank + 1, SUM, timeout=30.0)
        return (comm.rank, total)

    result = grid.run_mpi(app, nprocs=4, timeout=60.0)
    assert not result.errors
    return {"returns": result.returns, "placement": result.placement}


def test_mpi_round_trip():
    assert _run(_mpi_scenario) == {
        "returns": [(rank, 10) for rank in range(4)],
        "placement": ["A.n0", "A.n1", "B.n0", "B.n1"],
    }


# ---------------------------------------------------------------------------
# Scenario 3: retry failover to a surviving proxy
# ---------------------------------------------------------------------------


def _failover_scenario(grid: Grid):
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=2)
    grid.add_extra_proxy("B")
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    grid.proxies["proxy.B"].shutdown()
    result = grid.submit_job_with_token(
        grid.login("alice", "pw", via_site="A"), "echo", {"value": "via backup"},
        origin_site="A", target_site="B", timeout=60.0,
    )
    status = grid.global_status(via_site="A")
    return {"job": result, "b_nodes": len(status["B"])}


def test_retry_failover():
    assert _run(_failover_scenario) == {"job": "via backup", "b_nodes": 2}


@pytest.mark.parametrize("query", ["global_status", "global_observability"])
def test_compiled_query_fails_over_then_degrades(query, monkeypatch):
    """Both compile-on-demand queries ask a site's proxies in health
    order: a dead primary hands the site to its backup, and a site with
    no live proxy is ``None`` (partial) or a ``GridError`` naming it."""
    grid = Grid()
    try:
        grid.add_site("A", nodes=1)
        grid.add_site("B", nodes=2)
        backup = grid.add_extra_proxy("B").name
        grid.add_site("C", nodes=1)
        grid.connect_all()
        origin = grid.proxy_of("A")
        answered = []
        ask = origin.request

        def recording(peer, op, *args, **kwargs):
            reply = ask(peer, op, *args, **kwargs)
            answered.append(peer)
            return reply

        monkeypatch.setattr(origin, "request", recording)
        grid.proxies["proxy.B"].shutdown()
        grid.proxies["proxy.C"].shutdown()
        compile_view = getattr(grid, query)
        view = compile_view(via_site="A", allow_partial=True)
        assert answered == [backup]
        assert (sorted(view), view["B"] is None, view["C"]) == (
            ["A", "B", "C"], False, None,
        )
        with pytest.raises(GridError, match="site 'C'"):
            compile_view(via_site="A", allow_partial=False)
    finally:
        grid.shutdown()


# ---------------------------------------------------------------------------
# Scenario 3b: MPI congestion is not a dead route
# ---------------------------------------------------------------------------


def _mpi_congestion_scenario(grid: Grid):
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    backup = grid.add_extra_proxy("B").name
    grid.connect_all()
    origin = grid.proxy_of("A")
    primary = origin.tunnel_to(grid.directory.proxy_of_site("B"))
    spare = origin.tunnel_to(backup)
    primary_send, spare_send = primary.send, spare.send
    spare_mpi_frames = []

    def congested(frame):
        if frame.kind is FrameKind.MPI:
            raise TunnelBusy("write queue full")
        return primary_send(frame)

    def counted(frame):
        if frame.kind is FrameKind.MPI:
            spare_mpi_frames.append(frame)
        return spare_send(frame)

    primary.send, spare.send = congested, counted

    def app(comm):
        if comm.rank == 0:
            try:
                comm.send("behind a full tunnel", dest=1)
            except Exception as exc:
                return type(exc).__name__
        return None

    result = grid.run_mpi(app, nprocs=2, timeout=60.0)
    return {"returns": result.returns, "spare_mpi_frames": len(spare_mpi_frames)}


def test_mpi_congestion_reaches_the_caller_without_failover():
    """Failing over on TunnelBusy would let this frame overtake earlier
    ones still queued on the live tunnel (MPI's non-overtaking order)."""
    assert _run(_mpi_congestion_scenario) == {
        "returns": ["TunnelBusy", None],
        "spare_mpi_frames": 0,
    }


# ---------------------------------------------------------------------------
# Scenario 3c: the layer-4 floor, as counts
# ---------------------------------------------------------------------------


def test_collectives_cross_each_tunnel_at_the_floor(monkeypatch):
    """Round-robin puts ranks {0,1}/{2,3}/{4,5} on A/B/C: each reduce or
    bcast phase crosses sites − 1 = 2 times, so allreduce + bcast is 6
    crossings per iteration out of 15 sends.  ``bytes_sent`` counts the
    serialised payload of every send, local or tunneled."""
    iterations = 5
    encoded = collections.Counter()
    encoded_lock = threading.Lock()
    real_send = GridRouter.send

    def observed_send(router, envelope):
        with encoded_lock:
            encoded[envelope.source] += len(encode_value(envelope.payload))
        return real_send(router, envelope)

    monkeypatch.setattr(GridRouter, "send", observed_send)

    def scenario(grid: Grid):
        for site in "ABC":
            grid.add_site(site, nodes=2)
        grid.connect_all()
        payload = bytes(range(256)) * 64  # 16 KiB
        spaces = []

        def app(comm):
            if comm.rank == 0:
                spaces.extend(grid.proxy_of(s).app_space("floor") for s in "ABC")
            for i in range(iterations):
                comm.allreduce(comm.rank + i, SUM, timeout=30.0)
                comm.bcast(payload if comm.rank == 0 else None, timeout=30.0)
            return comm.messages_sent, comm.bytes_sent

        result = grid.run_mpi(app, nprocs=6, app_id="floor", timeout=120.0)
        assert not result.errors
        return {
            "forwarded": sum(space.totals()[0] for space in spaces),
            "sends": sum(messages for messages, _ in result.returns),
            "bytes_sent": [nbytes for _, nbytes in result.returns],
        }

    assert _run(scenario) == {
        "forwarded": 6 * iterations,
        "sends": 15 * iterations,
        "bytes_sent": [encoded[rank] for rank in range(6)],
    }


# ---------------------------------------------------------------------------
# Scenario 4: secure tunnel echo (control-plane round trip)
# ---------------------------------------------------------------------------


def _tunnel_echo_scenario(grid: Grid):
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    origin = grid.proxy_of("A")
    peer = grid.directory.proxy_of_site("B")
    pong = origin.request(peer, Op.PING, timeout=30.0)
    payload = {"n": 7, "text": "café", "nested": {"ok": True}}
    echoed = grid.submit_job_with_token(
        grid.login("alice", "pw", via_site="A"), "echo", {"value": payload},
        origin_site="A", target_site="B", timeout=60.0,
    )
    return {
        "pong_op": pong.op,
        "pong_sender": pong.sender,
        "echoed": echoed,
    }


def test_secure_tunnel_echo():
    assert _run(_tunnel_echo_scenario) == {
        "pong_op": Op.PONG,
        "pong_sender": "proxy.B",
        "echoed": {"n": 7, "text": "café", "nested": {"ok": True}},
    }


# ---------------------------------------------------------------------------
# Scenario 5: workload-manager ops (JOB_QSUBMIT/JOB_CLAIM/JOB_STATUS/JOB_DONE)
# ---------------------------------------------------------------------------


def _wms_scenario(grid: Grid):
    from repro.control.wms import JobSpec

    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=2, node_speed=2.0)
    grid.connect_all()
    grid.attach_workload_manager("A", half_life=60.0)
    authority = grid.proxy_of("A").name
    pilot = grid.proxy_of("B")
    submits = [
        pilot.wms_submit(
            authority,
            JobSpec(job_id=f"j{i}", user=f"u{i % 2}", priority=i % 2,
                    work=1.0 + i, max_attempts=2),
        )
        for i in range(6)
    ]
    duplicate = pilot.wms_submit(authority, JobSpec(job_id="j0"))
    transcript = []
    while True:
        grants = pilot.wms_claim(authority, count=2)
        if not grants:
            break
        for grant in grants:
            job_id = grant["job"]["job_id"]
            if grant["token"] == "j3#1":  # one injected failure: requeue path
                ack = pilot.wms_done(
                    authority, job_id, grant["token"], ok=False, error="boom"
                )
            else:
                ack = pilot.wms_done(authority, job_id, grant["token"])
            transcript.append((job_id, grant["token"], ack["state"]))
    stale = pilot.wms_done(authority, "j3", "j3#1", ok=True)
    return {
        "submits": submits,
        "duplicate": duplicate,
        "transcript": transcript,
        "stale": stale,
        "job3": {
            key: value
            for key, value in pilot.wms_status(authority, job_id="j3").items()
            if key in ("state", "attempts", "error")
        },
        "queue": pilot.wms_status(authority),
    }


def test_wms_ops():
    assert _run(_wms_scenario) == {
        "submits": [{"job_id": f"j{i}", "state": "pending"} for i in range(6)],
        "duplicate": {"duplicate": True, "job_id": "j0", "state": "pending"},
        # The claim order itself is part of the contract: priority tier 1
        # first, fair-share alternation within a tier, j3 retried once.
        "transcript": [
            ("j1", "j1#1", "done"),
            ("j3", "j3#1", "pending"),
            ("j3", "j3#2", "done"),
            ("j5", "j5#1", "done"),
            ("j0", "j0#1", "done"),
            ("j2", "j2#1", "done"),
            ("j4", "j4#1", "done"),
        ],
        # j3 finished on its retry, so the first token is spent
        "stale": {"duplicate": True, "job_id": "j3", "state": "done"},
        "job3": {"state": "done", "attempts": 2, "error": "boom"},
        "queue": {
            "submitted": 6, "pending": 0, "claimed": 0, "done": 6, "dead": 0,
            "pilots": {},
        },
    }


# ---------------------------------------------------------------------------
# Scenario 6: token auth control plane (login / submit / deny / revoke)
# ---------------------------------------------------------------------------


def _auth_scenario(grid: Grid):
    import time

    from repro.core.proxy import ProxyError
    from repro.security.tokens import TokenError

    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")

    blob = grid.login("alice", "pw", via_site="A")
    echoed = grid.submit_job_with_token(
        blob, "echo", {"value": "tokenised"},
        origin_site="A", target_site="B", timeout=60.0,
    )

    # A token narrowed away from jobs:submit is vetoed before dispatch.
    narrow = grid.login("alice", "pw", via_site="A", scopes=["wms:read"])
    try:
        grid.submit_job_with_token(
            narrow, "echo", {"value": "nope"},
            origin_site="A", target_site="B", timeout=60.0,
        )
        denied = "accepted"
    except (TokenError, ProxyError):
        denied = "denied"

    # Revocation: origin rejects immediately; the peer converges by
    # gossip-triggered pull, which we poll rather than sleep for.
    epoch = grid.revoke_token(blob, via_site="A")
    deadline = 30.0
    waited = 0.0
    peer = grid.proxy_of("B")
    while peer.tokens.epoch < epoch and waited < deadline:
        time.sleep(0.02)
        waited += 0.02
    outcomes = {}
    for site in ("A", "B"):
        try:
            grid.submit_job_with_token(
                blob, "echo", {"value": "zombie"},
                origin_site=site, target_site=site, timeout=60.0,
            )
            outcomes[site] = "accepted"
        except (TokenError, ProxyError):
            outcomes[site] = "revoked"
    return {
        "echoed": echoed,
        "denied": denied,
        "peer_epoch_reached": peer.tokens.epoch >= epoch,
        "post_revocation": outcomes,
    }


def test_token_auth():
    assert _run(_auth_scenario) == {
        "echoed": "tokenised",
        "denied": "denied",
        "peer_epoch_reached": True,
        "post_revocation": {"A": "revoked", "B": "revoked"},
    }


# ---------------------------------------------------------------------------
# Scenario 7: the AUTH_* wire ops through their client wrappers
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _token_grid(clock=None) -> Grid:
    grid = Grid(clock=clock)
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    return grid


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__


def test_remote_login_refresh_revoke_over_the_wire():
    """AUTH_LOGIN / AUTH_REFRESH / AUTH_REVOKE from A against B."""
    import time

    from repro.security.rsa import RsaKeyPair
    from repro.security.tokens import Token

    clock = _Clock()
    grid = _token_grid(clock)
    try:
        grid.add_site("C", nodes=1)
        grid.connect_all()
        a, b = grid.proxy_of("A"), grid.proxy_of("B")
        key = RsaKeyPair.generate(512)
        grid.users.register_key("alice", key.public)

        def login_by_signature(signature):
            reply = a.request(
                b.name,
                Op.AUTH_LOGIN,
                {"userid": "alice", "message": b"challenge", "signature": signature},
            )
            return Op.name_of(reply.op), reply.body.get("token") or reply.body["reason"]

        def submit(origin, blob):
            return origin.submit_job_with_token(
                blob, "echo", {"value": "ok"}, target_site="B", timeout=60.0
            )

        blob = a.auth_login(b.name, "alice", "pw")
        login = Token.from_bytes(blob)
        echoed = submit(a, blob)

        clock.now += 10.0
        fresh_blob = a.auth_refresh(b.name, blob)
        fresh = Token.from_bytes(fresh_blob)
        wrong_password = _outcome(lambda: a.auth_login(b.name, "alice", "nope"))
        signed_op, signed_blob = login_by_signature(key.sign(b"challenge"))

        epoch = a.auth_revoke(b.name, token_blob=fresh_blob)
        # B pushed its bumped epoch on revoke; A pulls the list on the
        # dispatch pool, which we poll rather than sleep for.
        deadline = time.monotonic() + 30.0
        while a.tokens.epoch < epoch and time.monotonic() < deadline:
            time.sleep(0.02)

        outcomes = {
            "issuer": login.issuer == b.name,
            "echoed": echoed,
            "refreshed": (
                fresh_blob != blob,
                fresh.token_id != login.token_id,
                fresh.expires_at - login.expires_at,
            ),
            "wrong_password": wrong_password,
            "signed_login": (signed_op, Token.from_bytes(signed_blob).issuer),
            "signed_token_at_third_site": grid.submit_job_with_token(
                signed_blob, "echo", {"value": "ok"}, origin_site="C"
            ),
            "forged_signature": login_by_signature(b"forged"),
            "epoch": (epoch > 0, b.tokens.epoch == epoch, a.tokens.epoch >= epoch),
            "fresh_at_origin": _outcome(lambda: submit(a, fresh_blob)),
            "fresh_at_destination": _outcome(lambda: submit(b, fresh_blob)),
            "login_token_still_good": _outcome(lambda: submit(a, blob)),
            "revoke_nothing": _outcome(lambda: a.auth_revoke(b.name)),
        }
    finally:
        grid.shutdown()
    assert outcomes == {
        "issuer": True,
        "echoed": "ok",
        "refreshed": (True, True, 10.0),
        "wrong_password": "AuthenticationError",
        "signed_login": ("AUTH_TOKEN", "proxy.B"),
        "signed_token_at_third_site": "ok",
        # AuthenticationError in B's handler, AUTH_DENIED on the wire
        "forged_signature": (
            "AUTH_DENIED", "signature verification failed for 'alice'",
        ),
        "epoch": (True, True, True),
        "fresh_at_origin": "TokenError",
        "fresh_at_destination": "TokenError",
        "login_token_still_good": "ok",
        "revoke_nothing": "ProxyError",
    }


def test_refused_revocation_is_not_reported_as_done():
    """B's guard denies A's AUTH_REVOKE (an operator killed A's leaked
    service token at B): the wrapper raises, nothing was revoked."""

    from repro.security.auth import AuthenticationError

    grid = _token_grid()
    try:
        a, b = grid.proxy_of("A"), grid.proxy_of("B")
        blob = grid.login("alice", "pw", via_site="A")
        b.tokens.revoke(a._service_token_blob())
        epoch = b.tokens.epoch
        with pytest.raises(AuthenticationError, match="revoked"):
            a.auth_revoke(b.name, token_blob=blob)
        assert b.tokens.epoch == epoch
        assert b.tokens.verify_blob(blob).userid == "alice"
    finally:
        grid.shutdown()


def test_default_grid_refuses_guarded_ops_without_a_token():
    """No grid runs unguarded: a plain ``Grid()`` answers AUTH_DENIED to
    every guarded op that carries no token, and serves its own API."""
    from repro.control.wms import JobSpec
    from repro.core.dispatch import GUARDED_OP_SCOPES

    def scenario(grid: Grid):
        grid.add_site("A", nodes=1)
        grid.add_site("B", nodes=1)
        grid.connect_all()
        grid.attach_workload_manager("B")
        grid.add_user("alice", "pw")
        grid.grant("user:alice", "site:*", "submit")
        a, b = grid.proxy_of("A"), grid.proxy_of("B")
        # auth=b"" bypasses the service-token auto-stamp of a.request
        bare = {
            Op.name_of(op): Op.name_of(a.request(b.name, op, {}, auth=b"").op)
            for op in GUARDED_OP_SCOPES
        }
        unstamped = a.request(b.name, Op.JOB_SUBMIT, {"task": "noop"})
        return {
            "bare": bare,
            "unstamped_submit": Op.name_of(unstamped.op),
            "submit_job": grid.submit_job_with_token(
                grid.login("alice", "pw", via_site="A"), "echo", {"value": "ok"},
                origin_site="A", target_site="B",
            ),
            "wms_submit": a.wms_submit(b.name, JobSpec(job_id="j0")),
            "run_mpi": grid.run_mpi(lambda comm: comm.rank, nprocs=2).returns,
        }

    assert _run(scenario) == {
        "bare": {Op.name_of(op): "AUTH_DENIED" for op in GUARDED_OP_SCOPES},
        "unstamped_submit": "AUTH_DENIED",
        "submit_job": "ok",
        "wms_submit": {"job_id": "j0", "state": "pending"},
        "run_mpi": [0, 1],
    }


def test_destination_checks_the_acl_against_itself():
    """The destination's half of "validated at the originating and
    destination proxies" takes its subject from itself: a peer that
    names a resource the user *does* hold cannot buy a run on B."""
    grid = _token_grid()
    try:
        grid.add_user("u", "pw")
        grid.grant("user:u", "site:A", "submit")
        a, b = grid.proxy_of("A"), grid.proxy_of("B")
        token = a.tokens.login("u", "pw")
        delegated = a.tokens.delegate(
            token, delegate_to=a.name, scopes=("jobs:submit",)
        )
        honest = _outcome(
            lambda: a.submit_job_with_token(
                token.to_bytes(), "echo", {"value": "x"}, target_site="B"
            )
        )
        reply = a.request(
            b.name,
            Op.JOB_SUBMIT,
            {"task": "echo", "params": {"value": "ran on B"},
             "resource": "site:A", "origin": "A"},
            auth=delegated.to_bytes(),
        )
    finally:
        grid.shutdown()
    assert honest == "PermissionDenied"
    assert (Op.name_of(reply.op), reply.body) == (
        "JOB_REJECTED",
        {"reason": "user 'u' may not 'submit' on 'site:B'"},
    )


# ---------------------------------------------------------------------------
# Cross-cutting: OBS_DUMP compiles grid-wide
# ---------------------------------------------------------------------------


def _obs_scenario(grid: Grid):
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    grid.connect_all()
    origin = grid.proxy_of("A")
    origin.request(grid.directory.proxy_of_site("B"), Op.PING, timeout=30.0)
    view = grid.global_observability(via_site="A")
    return {
        site: {
            "name": dump["name"],
            "has_counters": bool(dump["metrics"]["counters"]),
        }
        for site, dump in view.items()
    }


def test_observability_dump_compiles():
    assert _run(_obs_scenario) == {
        "A": {"name": "proxy.A", "has_counters": True},
        "B": {"name": "proxy.B", "has_counters": True},
    }
