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
from repro.security.tokens import TokenError
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
    grid.enable_token_auth()
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
