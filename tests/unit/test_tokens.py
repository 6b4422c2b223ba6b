"""Unit tests for the token auth control plane (security/tokens.py).

Covers the ISSUE-8 contract: expiry, refresh, revocation epoch
semantics (including concurrent-revoke CRDT merges), delegation
attenuation, and tamper rejection — all on a hand-cranked clock.  The
cached paths (verified-blob LRU, delegation reuse) are checked by
counting HMACs and comparing bytes, never by timing.
"""

from __future__ import annotations

import pytest

from repro.security.auth import AuthenticationError, UserDirectory
from repro.security.rsa import RsaKeyPair
from repro.security.tokens import (
    DEFAULT_TOKEN_LIFETIME,
    MAX_CLOCK_SKEW,
    MAX_DELEGATION_DEPTH,
    RevocationList,
    Token,
    TokenError,
    TokenService,
    scope_grants,
)

KEY = b"k" * 32


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def users() -> UserDirectory:
    directory = UserDirectory(pbkdf_iterations=10)
    directory.add_user("alice", "wonder")
    directory.add_user("bob", "builder")
    directory.create_group("ops")
    directory.add_to_group("ops", "bob")
    return directory


@pytest.fixture()
def service(users: UserDirectory, clock: FakeClock) -> TokenService:
    return TokenService(users, clock, key=KEY, issuer="proxy.A")


@pytest.fixture()
def hmacs(monkeypatch) -> list:
    """Every ``Token.check_signature`` call appends one entry."""
    calls: list = []
    real = Token.check_signature

    def counted(self, key):
        calls.append(self.token_id)
        return real(self, key)

    monkeypatch.setattr(Token, "check_signature", counted)
    return calls


class TestScopeGrammar:
    def test_exact_and_wildcards(self):
        assert scope_grants(("jobs:submit",), "jobs:submit")
        assert scope_grants(("*",), "anything:at all")
        assert scope_grants(("wms:*",), "wms:claim")
        assert not scope_grants(("wms:*",), "jobs:submit")
        assert not scope_grants(("jobs:submit",), "jobs:cancel")

    def test_empty_grants_nothing(self):
        assert not scope_grants((), "jobs:submit")


class TestLoginAndExpiry:
    def test_login_mints_verified_token(self, service, clock):
        token = service.login("alice", "wonder")
        claims = service.verify_blob(token.to_bytes())
        assert claims.userid == "alice"
        assert claims.grants("jobs:submit")
        assert claims.expires_at == clock.now + DEFAULT_TOKEN_LIFETIME

    def test_wrong_password_raises(self, service):
        with pytest.raises(AuthenticationError):
            service.login("alice", "nope")

    def test_signature_login(self, users, clock):
        keypair = RsaKeyPair.generate(512)
        users.register_key("alice", keypair.public)
        service = TokenService(users, clock, key=KEY)
        message = b"login:alice"
        token = service.login_signature(
            "alice", message, keypair.sign(message)
        )
        assert token.userid == "alice"
        with pytest.raises(AuthenticationError):
            service.login_signature("alice", message, b"forged")

    def test_group_scopes_minted_in(self, service):
        service.grant_group_scopes("ops", ["wms:claim"])
        assert service.login("bob", "builder").grants("wms:claim")
        assert not service.login("alice", "wonder").grants("wms:claim")

    def test_requested_scopes_must_be_grantable(self, service):
        narrowed = service.login("alice", "wonder", scopes=["jobs:submit"])
        assert narrowed.scopes == ("jobs:submit",)
        with pytest.raises(TokenError):
            service.login("alice", "wonder", scopes=["auth:revoke"])

    def test_expired_token_rejected(self, service, clock):
        blob = service.login("alice", "wonder").to_bytes()
        clock.advance(DEFAULT_TOKEN_LIFETIME + 1.0)
        with pytest.raises(TokenError, match="expired"):
            service.verify_blob(blob)

    def test_future_issued_token_rejected(self, service, clock):
        blob = service.login("alice", "wonder").to_bytes()
        clock.advance(-(MAX_CLOCK_SKEW + 5.0))
        with pytest.raises(TokenError, match="future"):
            service.verify_blob(blob)

    def test_scope_check_on_verify(self, service):
        blob = service.login("alice", "wonder").to_bytes()
        service.verify_blob(blob, required_scope="jobs:submit")
        with pytest.raises(TokenError, match="lacks scope"):
            service.verify_blob(blob, required_scope="auth:revoke")


class TestRefresh:
    def test_refresh_extends_lifetime_same_claims(self, service, clock):
        old = service.login("alice", "wonder", scopes=["jobs:submit"])
        clock.advance(DEFAULT_TOKEN_LIFETIME / 2)
        fresh = service.refresh(old.to_bytes())
        assert fresh.userid == old.userid
        assert fresh.scopes == old.scopes
        assert fresh.expires_at > old.expires_at
        assert fresh.token_id != old.token_id

    def test_expired_token_cannot_refresh(self, service, clock):
        blob = service.login("alice", "wonder").to_bytes()
        clock.advance(DEFAULT_TOKEN_LIFETIME + 1.0)
        with pytest.raises(TokenError):
            service.refresh(blob)

    def test_delegated_token_cannot_refresh(self, service):
        blob = service.login("alice", "wonder").to_bytes()
        child = service.delegate(
            blob, delegate_to="proxy.B", scopes=["jobs:submit"]
        )
        with pytest.raises(TokenError, match="delegated"):
            service.refresh(child.to_bytes())


class TestRevocation:
    def test_revoke_token_bumps_epoch_and_rejects(self, service):
        blob = service.login("alice", "wonder").to_bytes()
        assert service.epoch == 0
        assert service.revoke(blob) is True
        assert service.epoch == 1
        assert service.revoke(blob) is False  # idempotent, no bump
        assert service.epoch == 1
        with pytest.raises(TokenError, match="revoked"):
            service.verify_blob(blob)

    def test_revoke_user_cuts_off_prior_tokens(self, service, clock):
        old = service.login("alice", "wonder").to_bytes()
        service.revoke_user("alice")
        with pytest.raises(TokenError, match="revoked"):
            service.verify_blob(old)
        # Tokens issued after the cutoff are fine (e.g. re-login).
        clock.advance(1.0)
        fresh = service.login("alice", "wonder").to_bytes()
        assert service.verify_blob(fresh).userid == "alice"

    def test_merge_is_grow_only_union(self, users, clock):
        a = TokenService(users, clock, key=KEY, issuer="proxy.A")
        b = TokenService(users, clock, key=KEY, issuer="proxy.B")
        blob = a.login("alice", "wonder").to_bytes()
        a.revoke(blob)
        assert b.epoch == 0
        assert b.merge_rlist(a.rlist_wire()) is True
        assert b.epoch >= a.epoch
        with pytest.raises(TokenError, match="revoked"):
            b.verify_blob(blob)
        # Re-merging the same state changes nothing.
        assert b.merge_rlist(a.rlist_wire()) is False

    def test_concurrent_revokes_converge_with_epoch_bump(self, users, clock):
        a = TokenService(users, clock, key=KEY, issuer="proxy.A")
        b = TokenService(users, clock, key=KEY, issuer="proxy.B")
        blob_a = a.login("alice", "wonder").to_bytes()
        blob_b = b.login("bob", "builder").to_bytes()
        a.revoke(blob_a)
        b.revoke(blob_b)
        assert a.epoch == b.epoch == 1  # same epoch, different sets
        a.merge_rlist(b.rlist_wire())
        # The merge learned new entries at an equal epoch: it must bump
        # so the union keeps gossiping outward.
        assert a.epoch > 1
        b.merge_rlist(a.rlist_wire())
        for svc in (a, b):
            with pytest.raises(TokenError):
                svc.verify_blob(blob_a)
            with pytest.raises(TokenError):
                svc.verify_blob(blob_b)
        assert a.rlist_wire()["tokens"] == b.rlist_wire()["tokens"]

    def test_concurrent_revokes_unequal_epochs_converge(self, users, clock):
        # A revokes T at epoch 1; B revokes U and V at epoch 2.  After A
        # merges B it holds the strict superset, so it must land strictly
        # ahead of B's epoch — otherwise B (pulling only on a strictly
        # higher epoch) would never learn T.
        a = TokenService(users, clock, key=KEY, issuer="proxy.A")
        b = TokenService(users, clock, key=KEY, issuer="proxy.B")
        blob_t = a.login("alice", "wonder").to_bytes()
        blob_u = b.login("bob", "builder").to_bytes()
        blob_v = b.login("bob", "builder").to_bytes()  # distinct token_id
        a.revoke(blob_t)
        b.revoke(blob_u)
        b.revoke(blob_v)
        assert (a.epoch, b.epoch) == (1, 2)
        a.merge_rlist(b.rlist_wire())
        assert a.epoch > b.epoch
        b.merge_rlist(a.rlist_wire())
        for svc in (a, b):
            for blob in (blob_t, blob_u, blob_v):
                with pytest.raises(TokenError):
                    svc.verify_blob(blob)
        assert a.rlist_wire()["tokens"] == b.rlist_wire()["tokens"]
        # Converged: after at most one epoch-sync pull (no growth, just
        # adopting the higher epoch) further exchanges are no-ops.
        a.merge_rlist(b.rlist_wire())
        assert a.merge_rlist(b.rlist_wire()) is False
        assert b.merge_rlist(a.rlist_wire()) is False

    def test_merge_from_lower_epoch_peer_still_bumps(self):
        # A is far ahead on epoch; B holds one unique entry at a lower
        # epoch.  A third replica synced to A's old epoch pulls neither
        # list unless A's merge bumps past its *own* prior epoch too.
        a, b = RevocationList(), RevocationList()
        for i in range(5):
            a.revoke_token(f"t{i}")
        b.revoke_token("unique")
        assert (a.epoch, b.epoch) == (5, 1)
        assert a.merge({**b.to_wire()}) is True
        assert a.epoch > 5

    def test_malformed_rlist_raises(self):
        rlist = RevocationList()
        with pytest.raises(TokenError):
            rlist.merge({"epoch": 1, "tokens": "oops", "users": {}})

    def test_malformed_user_cutoff_rejected_atomically(self):
        rlist = RevocationList()
        with pytest.raises(TokenError):
            rlist.merge(
                {"epoch": 3, "tokens": ["tok-1"], "users": {"mallory": "NaNope"}}
            )
        # Nothing was applied: no entries, no epoch movement.
        assert rlist.epoch == 0
        assert rlist.to_wire()["tokens"] == []
        assert rlist.to_wire()["users"] == {}


class TestDelegation:
    def test_attenuation_scopes_subset_and_expiry_cap(self, service, clock):
        parent = service.login("alice", "wonder")
        child = service.delegate(
            parent.to_bytes(), delegate_to="proxy.B", scopes=["jobs:submit"]
        )
        assert child.userid == "alice"
        assert child.scopes == ("jobs:submit",)
        assert child.depth == 1
        assert child.chain[0]["by"] == "proxy.B"
        assert child.expires_at <= parent.expires_at

    def test_cannot_widen_scopes(self, service):
        parent = service.login("alice", "wonder", scopes=["jobs:submit"])
        with pytest.raises(TokenError, match="cannot delegate"):
            service.delegate(
                parent.to_bytes(), delegate_to="proxy.B", scopes=["wms:read"]
            )

    def test_depth_bound(self, service):
        blob = service.login("alice", "wonder").to_bytes()
        for hop in range(MAX_DELEGATION_DEPTH):
            blob = service.delegate(
                blob, delegate_to=f"proxy.{hop}", scopes=["jobs:submit"]
            ).to_bytes()
        with pytest.raises(TokenError, match="depth"):
            service.delegate(
                blob, delegate_to="proxy.deep", scopes=["jobs:submit"]
            )

    def test_revoking_parent_kills_user_not_chain_id(self, service):
        parent = service.login("alice", "wonder")
        child = service.delegate(
            parent.to_bytes(), delegate_to="proxy.B", scopes=["jobs:submit"]
        )
        service.revoke(parent.to_bytes())
        # The child is its own token id: still live until revoked or the
        # user is cut off (revoke_user is the kill-everything switch).
        service.verify_blob(child.to_bytes())
        service.revoke_user("alice")
        with pytest.raises(TokenError):
            service.verify_blob(child.to_bytes())


class TestTamper:
    def test_bit_flip_anywhere_rejected(self, service):
        blob = bytearray(service.login("alice", "wonder").to_bytes())
        for index in range(0, len(blob), max(1, len(blob) // 16)):
            tampered = bytearray(blob)
            tampered[index] ^= 0x01
            with pytest.raises(TokenError):
                service.verify_blob(bytes(tampered))

    def test_wrong_key_rejected(self, users, clock, service):
        other = TokenService(users, clock, key=b"x" * 32)
        blob = other.login("alice", "wonder").to_bytes()
        with pytest.raises(TokenError, match="signature"):
            service.verify_blob(blob)

    def test_forged_claims_rejected(self, service, clock):
        # Re-minting the same claims under a guessed key must not fly.
        forged = Token.mint(
            b"guessed-key-guessed-key-guessed!",
            userid="alice",
            groups=("service",),
            scopes=("*",),
            issued_at=clock.now,
            expires_at=clock.now + 900.0,
            issuer="proxy.A",
            token_id="proxy.A:9:deadbeef",
        )
        with pytest.raises(TokenError):
            service.verify_blob(forged.to_bytes())

    def test_malformed_blob_rejected(self, service):
        for blob in (b"", b"garbage", b"\x00" * 64):
            with pytest.raises(TokenError):
                service.verify_blob(blob)


class TestVerifiedCache:
    def test_hit_skips_the_hmac_never_a_claim_check(self, service, clock, hmacs):
        blob = service.login("alice", "wonder", scopes=["jobs:submit"]).to_bytes()
        first = service.verify_blob(blob, required_scope="jobs:submit")
        again = service.verify_blob(blob, required_scope="jobs:submit")
        assert again is first and len(hmacs) == 1
        assert service.cached(blob) is first
        # Scope and expiry are read off the cached claims on every use.
        with pytest.raises(TokenError, match="lacks scope"):
            service.verify_blob(blob, required_scope="wms:read")
        clock.advance(DEFAULT_TOKEN_LIFETIME + 1.0)
        with pytest.raises(TokenError, match="expired"):
            service.verify_blob(blob, required_scope="jobs:submit")
        assert len(hmacs) == 1

    def test_failed_hmac_is_never_cached_and_a_variant_never_hits(
        self, service, hmacs
    ):
        blob = service.login("alice", "wonder").to_bytes()
        forged = blob[:-1] + bytes([blob[-1] ^ 0x01])  # last signature byte
        for _ in range(2):
            with pytest.raises(TokenError, match="signature"):
                service.verify_blob(forged)
        assert len(hmacs) == 2 and len(service._verified) == 0
        service.verify_blob(blob)
        assert service.cached(forged) is None
        with pytest.raises(TokenError, match="signature"):
            service.verify_blob(forged)
        assert list(service._verified) == [blob]

    def test_to_bytes_returns_the_blob_it_was_parsed_from(self, service):
        blob = service.login("alice", "wonder").to_bytes()
        assert service.verify_blob(blob).to_bytes() is blob

    def test_any_epoch_bump_costs_one_fresh_hmac(self, service, hmacs):
        blob = service.login("alice", "wonder").to_bytes()
        other = service.login("bob", "builder")
        service.verify_blob(blob)
        service.revoke(other)  # somebody else's token: the epoch moves
        assert service.cached(blob) is None
        service.verify_blob(blob)
        service.verify_blob(blob)
        assert hmacs.count(Token.from_bytes(blob).token_id) == 2

    @pytest.mark.parametrize("how", ["token", "blob", "user"])
    def test_revocation_denies_the_very_next_use_of_a_hot_token(
        self, service, how
    ):
        token = service.login("alice", "wonder")
        blob = token.to_bytes()
        for _ in range(3):
            service.verify_blob(blob, required_scope="jobs:submit")
        if how == "user":
            service.revoke_user("alice")
        else:
            service.revoke(token if how == "token" else blob)
        with pytest.raises(TokenError, match="revoked"):
            service.verify_blob(blob, required_scope="jobs:submit")
        with pytest.raises(TokenError, match="revoked"):
            service.delegate(blob, delegate_to="proxy.B", scopes=["jobs:submit"])

    def test_revoke_by_blob_authenticates_but_ignores_expiry(
        self, service, clock
    ):
        blob = service.login("alice", "wonder").to_bytes()
        forged = blob[:-1] + bytes([blob[-1] ^ 0x01])
        with pytest.raises(TokenError, match="signature"):
            service.revoke(forged)
        assert service.epoch == 0
        clock.advance(DEFAULT_TOKEN_LIFETIME + 1.0)
        assert service.revoke(blob) is True

    def test_both_caches_are_bounded(self, service):
        for i in range(5000):
            parent = service.mint_service_token(f"svc{i}")
            service.delegate(
                parent.to_bytes(), delegate_to="proxy.B", scopes=["jobs:submit"]
            )
        assert len(service._verified) == 4096
        assert len(service._delegations) == 4096
        # LRU: the newest survive, the oldest went.
        assert service.cached(parent.to_bytes()) is not None


class TestDelegationReuse:
    def _child(self, service, parent, to="proxy.B", scopes=("jobs:submit",)):
        return service.delegate(parent, delegate_to=to, scopes=scopes)

    def test_reused_until_within_skew_of_expiry_then_reminted(
        self, service, clock, hmacs
    ):
        blob = service.login("alice", "wonder").to_bytes()
        first = self._child(service, blob)
        for parent in (blob, service.verify_blob(blob)):  # blob or parsed
            assert self._child(service, parent) is first
        assert len(hmacs) == 1  # the parent, once; children are never checked
        clock.advance(first.expires_at - MAX_CLOCK_SKEW - 1.0 - clock.now)
        assert self._child(service, blob).to_bytes() == first.to_bytes()
        clock.advance(2.0)  # ≤ MAX_CLOCK_SKEW left to live
        fresh = self._child(service, blob)
        assert fresh.token_id != first.token_id
        assert fresh.expires_at <= first.expires_at  # still capped at parent's
        assert fresh.chain[-1]["at"] == clock.now

    def test_parents_targets_scopes_and_lifetimes_never_share(self, service):
        alice = service.login("alice", "wonder").to_bytes()
        alice2 = service.login("alice", "wonder").to_bytes()
        bob = service.login("bob", "builder").to_bytes()
        children = [
            self._child(service, alice),
            self._child(service, alice2),
            self._child(service, bob),
            self._child(service, alice, to="proxy.C"),
            self._child(service, alice, scopes=("wms:read",)),
            service.delegate(
                alice, delegate_to="proxy.B", scopes=["jobs:submit"], lifetime=5.0
            ),
        ]
        assert len({child.token_id for child in children}) == len(children)
        assert children[2].userid == "bob"
        assert children[4].scopes == ("wms:read",)

    def test_scope_widening_still_refused_beside_a_cached_child(self, service):
        parent = service.login("alice", "wonder", scopes=["jobs:submit"]).to_bytes()
        self._child(service, parent)
        with pytest.raises(TokenError, match="cannot delegate"):
            self._child(service, parent, scopes=("jobs:submit", "wms:read"))

    def test_revoking_the_child_stops_its_reuse(self, service):
        blob = service.login("alice", "wonder").to_bytes()
        first = self._child(service, blob)
        service.verify_blob(first.to_bytes())  # hot at a "destination" too
        service.revoke(first)
        with pytest.raises(TokenError, match="revoked"):
            service.verify_blob(first.to_bytes())
        second = self._child(service, blob)  # the parent is still good
        assert second.token_id != first.token_id
        service.verify_blob(second.to_bytes())

    def test_expired_parent_never_reuses(self, service, clock):
        blob = service.login("alice", "wonder").to_bytes()
        self._child(service, blob)
        clock.advance(DEFAULT_TOKEN_LIFETIME + 1.0)
        with pytest.raises(TokenError, match="expired"):
            self._child(service, blob)

    def test_forget_delegation_evicts_only_that_child(self, service):
        alice = service.login("alice", "wonder").to_bytes()
        bob = service.login("bob", "builder").to_bytes()
        a, b = self._child(service, alice), self._child(service, bob)
        service.forget_delegation(a)
        service.forget_delegation(a)  # idempotent
        assert self._child(service, bob) is b
        assert self._child(service, alice).token_id != a.token_id


class TestMode:
    def test_short_key_rejected(self, users, clock):
        with pytest.raises(ValueError):
            TokenService(users, clock, key=b"short")
