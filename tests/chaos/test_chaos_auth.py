"""Chaos suite, auth level: revocation racing gossip under faults.

The token control plane's safety claim is *zero accepted-after-
revocation*: once a proxy has observed the revocation epoch, it must
never again accept the revoked token — no matter how the heartbeat
gossip, the anti-entropy pulls, and the client's submissions interleave.
Liveness rides along: the epoch reaches every proxy within a small
number of heartbeat rounds even when record traffic is being delayed.
"""

import itertools
import random
import time

import pytest

from repro.control.retry import RetryPolicy
from repro.core.grid import Grid
from repro.core.proxy import ProxyError
from repro.security.tokens import Token, TokenError
from repro.transport.faulty import FaultInjector, FaultPlan, FaultyChannel

from tests.chaos.conftest import replaying

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

FAST_REDIAL = RetryPolicy(max_attempts=6, base_delay=0.005, max_delay=0.05)

#: Leave the handshake frames alone; stress the record traffic only.
RECORD_TRAFFIC = 5

HEARTBEAT = 0.05
#: Generous real-time bound for epoch convergence (many heartbeats).
CONVERGE_DEADLINE = 5.0

SITES = ("A", "B", "C")


def chaos_wrapper(seed: int, plan: FaultPlan):
    ordinals = itertools.count()

    def wrap(raw):
        return FaultyChannel(raw, FaultInjector(seed + 7919 * next(ordinals), plan))

    return wrap


def build_grid(seed: int, plan=None) -> Grid:
    grid = Grid(
        channel_wrapper=chaos_wrapper(seed, plan) if plan else None,
        handshake_retry=FAST_REDIAL,
        heartbeat_interval=HEARTBEAT,
    )
    for site in SITES:
        grid.add_site(site, nodes=1)
    grid.connect_all()
    grid.add_user("alice", "pw")
    grid.grant("user:alice", "site:*", "submit")
    return grid


def epochs(grid: Grid) -> dict[str, int]:
    return {site: grid.proxy_of(site).tokens.epoch for site in SITES}


def run_revocation_race(seed: int, plan=None) -> dict:
    """Submit with one token round-robin across sites, revoke mid-stream.

    Returns the attempt log plus the revocation epoch, for the caller to
    assert the zero-accepted-after-revocation invariant on.
    """
    rng = random.Random(seed)
    grid = build_grid(seed, plan)
    attempts = []
    try:
        blob = grid.login("alice", "pw", via_site="A")
        revoke_after = rng.randrange(2, 5)
        target_epoch = None
        revoked_at = None
        deadline = None
        step = 0
        while True:
            site = SITES[step % len(SITES)]
            step += 1
            if target_epoch is None and step > revoke_after:
                target_epoch = grid.revoke_token(blob, via_site="A")
                revoked_at = time.monotonic()
                deadline = revoked_at + CONVERGE_DEADLINE
            proxy = grid.proxy_of(site)
            epoch_before = proxy.tokens.epoch
            target_site = SITES[step % len(SITES)]  # remote on most laps
            try:
                grid.submit_job_with_token(
                    blob, "echo", {"value": step},
                    origin_site=site, target_site=target_site,
                )
                outcome = "accepted"
            except (TokenError, ProxyError) as exc:
                outcome = f"rejected:{type(exc).__name__}"
            attempts.append((site, epoch_before, outcome))
            if target_epoch is None:
                continue
            if all(e >= target_epoch for e in epochs(grid).values()):
                break
            if time.monotonic() > deadline:
                pytest.fail(
                    f"revocation epoch {target_epoch} did not reach all "
                    f"proxies within {CONVERGE_DEADLINE}s: {epochs(grid)}"
                )
            time.sleep(HEARTBEAT / 2)
        # Converged: one more lap over every site must reject everywhere.
        post = []
        for site in SITES:
            try:
                grid.submit_job_with_token(
                    blob, "echo", {"value": 0},
                    origin_site=site, target_site=site,
                )
                post.append((site, "accepted"))
            except (TokenError, ProxyError) as exc:
                post.append((site, f"rejected:{type(exc).__name__}"))
        return {
            "attempts": attempts,
            "post": post,
            "target_epoch": target_epoch,
            "converge_seconds": time.monotonic() - revoked_at,
        }
    finally:
        grid.shutdown()


def assert_invariants(result: dict) -> None:
    target = result["target_epoch"]
    assert target >= 1
    # SAFETY: an attempt served by a proxy that had already observed the
    # revocation epoch must have been rejected.  Zero exceptions.
    accepted_after = [
        (site, epoch, outcome)
        for site, epoch, outcome in result["attempts"]
        if epoch >= target and outcome == "accepted"
    ]
    assert accepted_after == [], (
        f"token accepted after revocation was visible: {accepted_after}"
    )
    # LIVENESS: after convergence every site rejects, full stop.
    assert all(o.startswith("rejected") for _, o in result["post"]), result["post"]
    # Before the revocation the token worked (the grid was actually up).
    assert any(o == "accepted" for _, _, o in result["attempts"])


def test_revoked_token_rejected_grid_wide(chaos_seed):
    """Clean network: revocation converges and nothing slips through."""
    with replaying(chaos_seed):
        assert_invariants(run_revocation_race(chaos_seed))


def test_revocation_survives_delayed_records(chaos_seed):
    """Delay faults on record traffic: gossip is slower, never unsafe."""
    plan = FaultPlan(
        delay=0.15, delay_range=(0.0, 0.01), skip=RECORD_TRAFFIC, max_faults=6
    )
    with replaying(chaos_seed):
        assert_invariants(run_revocation_race(chaos_seed, plan))


def test_user_revocation_cuts_off_every_token(chaos_seed):
    """revoke_user: *all* the user's outstanding tokens die grid-wide."""
    with replaying(chaos_seed):
        grid = build_grid(chaos_seed)
        try:
            blobs = [
                grid.login("alice", "pw", via_site=site) for site in SITES
            ]
            target = grid.revoke_user("alice", via_site="B")
            deadline = time.monotonic() + CONVERGE_DEADLINE
            while not all(e >= target for e in epochs(grid).values()):
                if time.monotonic() > deadline:
                    pytest.fail(f"epoch never converged: {epochs(grid)}")
                time.sleep(HEARTBEAT / 2)
            for blob in blobs:
                for site in SITES:
                    with pytest.raises((TokenError, ProxyError)):
                        grid.submit_job_with_token(
                            blob, "echo", {"value": 1},
                            origin_site=site, target_site=site,
                        )
        finally:
            grid.shutdown()


def test_hot_token_is_verified_once_and_revocation_still_bites(monkeypatch):
    """One login, 100 submits over a 2-site TCP grid: the origin proves
    the user token's HMAC once, the destination proves the (reused)
    delegation's once, everything else is a cache hit — and with every
    cache hot, each kind of revocation still denies the very next use at
    the origin *and* at the destination (no accepted-after-revocation).
    Counted, not timed; no gossip runs (heartbeats are off), so each
    proxy knows only the revocations made at it.
    """
    hmacs = []
    real = Token.check_signature

    def counted(self, key):
        hmacs.append(self.token_id)
        return real(self, key)

    monkeypatch.setattr(Token, "check_signature", counted)
    grid = Grid(transport="tcp")
    try:
        for site in ("A", "B"):
            grid.add_site(site, nodes=1)
        grid.connect_all()
        grid.add_user("alice", "pw")
        grid.grant("user:alice", "site:*", "submit")
        origin, dest = grid.proxy_of("A"), grid.proxy_of("B")

        def submit(blob, value=0):
            return origin.submit_job_with_token(
                blob, "echo", {"value": value}, target_site="B"
            )

        def child_of(blob):
            return origin.tokens.delegate(
                blob, delegate_to=origin.name, scopes=("jobs:submit",)
            )

        def hits():
            return dest.obs.metrics.counter("auth.token.cache_hits").value

        blob = grid.login("alice", "pw", via_site="A")
        assert [submit(blob, i) for i in range(100)] == list(range(100))
        assert len(hmacs) <= 2, hmacs
        assert hits() >= 98
        child = child_of(blob)
        assert dest.tokens.cached(child.to_bytes()) is not None

        # revoke(child) where only the destination knows: AUTH_DENIED
        # comes back, the origin drops the child and mints another.
        dest.tokens.revoke(child)
        with pytest.raises(ProxyError, match="revoked"):
            submit(blob)
        fresh = child_of(blob)
        assert fresh.token_id != child.token_id
        assert submit(blob, 7) == 7

        # revoke(child) at the origin: never presented again.
        before = hits()
        origin.tokens.revoke(fresh)
        assert submit(blob, 8) == 8  # re-minted; the parent is still good
        assert child_of(blob).token_id != fresh.token_id
        with pytest.raises(TokenError, match="revoked"):
            origin.tokens.verify_blob(fresh.to_bytes())
        assert hits() == before  # the new child was a miss, not a stale hit

        # revoke(token) at the origin: denied before anything is sent.
        sent = origin.obs.metrics.counter("request.sent").value
        origin.tokens.revoke(blob)
        with pytest.raises(TokenError, match="revoked"):
            submit(blob)
        assert origin.obs.metrics.counter("request.sent").value == sent

        # revoke_user, destination first: a hot second login dies there
        # on its next use, and at the origin once the origin is told.
        blob2 = grid.login("alice", "pw", via_site="A")
        assert [submit(blob2, i) for i in range(3)] == [0, 1, 2]
        dest.tokens.revoke_user("alice")
        with pytest.raises(ProxyError, match="revoked"):
            submit(blob2)
        origin.tokens.revoke_user("alice")
        with pytest.raises(TokenError, match="revoked"):
            submit(blob2)
    finally:
        grid.shutdown()
