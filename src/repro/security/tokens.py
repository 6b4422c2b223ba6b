"""Token-based auth control plane: login once, HMAC per request.

The seed architecture verified an RSA signature on every authenticated
request — correct, but three orders of magnitude too slow for the
"millions of users" target (see ROADMAP item 1 and DESIGN.md §14).
This module refactors that path into the shape DIRAC grew into with
diracx, and the paper names as future work ("Kerberos-style tickets"):

* ``TokenService.login`` — authenticate **once** (password or RSA
  signature) and mint a short-lived bearer :class:`Token` carrying
  userid, groups, scopes, and expiry, signed with HMAC-SHA256 under a
  symmetric key shared by the proxies.  Per-request verification is one
  HMAC plus a revocation-epoch compare.
* ``TokenService.refresh`` — trade a live token for a fresh one, so
  short lifetimes don't force users back through PBKDF2.
* ``TokenService.revoke`` / ``revoke_user`` — a grow-only
  :class:`RevocationList` with a monotonic epoch; proxies piggyback the
  epoch on heartbeats and anti-entropy-pull the list when they see a
  newer one (core/proxy.py), so a revocation converges grid-wide within
  one heartbeat round.
* ``TokenService.delegate`` — bounded delegation chains ("Proxy dynamic
  delegation in grid gateway", PAPERS.md): a proxy holding a user's
  token mints an **attenuated** token (scopes ⊆ parent, expiry ≤
  parent, depth-bounded) to act on the user's behalf at the
  destination site.

Trust model: proxies are the trusted computing base (they already
terminate the secure tunnels and see plaintext), so a symmetric
grid-wide token key — distributed by :class:`~repro.core.grid.Grid`
over the same channel as certificates — is sound; users never hold the
key, only tokens.
"""

from __future__ import annotations

import hmac
import secrets
import threading
from collections import OrderedDict
from hashlib import sha256
from typing import Callable, Iterable, Optional

from repro.obs.racesan import shared_state
from repro.security.auth import UserDirectory
from repro.transport.frames import decode_value, encode_value

__all__ = [
    "DEFAULT_TOKEN_LIFETIME",
    "MAX_DELEGATION_DEPTH",
    "RevocationList",
    "Token",
    "TokenError",
    "TokenService",
    "auth_mode",
    "scope_grants",
]

Clock = Callable[[], float]

#: Bearer tokens are short-lived by design; ``refresh`` is the cheap
#: path to stay logged in, and short lifetimes bound the damage window
#: of a leaked blob even before revocation propagates.
DEFAULT_TOKEN_LIFETIME = 900.0

#: Delegation chains are bounded: user → origin proxy → destination
#: proxy is depth 2; one spare hop covers proxy-of-proxies federation.
MAX_DELEGATION_DEPTH = 3
_CACHE_ENTRIES = 4096  #: LRU bound of each TokenService cache
_Lru = OrderedDict[object, "tuple[int, Token]"]  #: key → (epoch stored under, token)

def auth_mode() -> str:
    # benchmarks/e2e/harness.py records this as provenance; ROADMAP item 1 deletes it.
    return "token"


class TokenError(Exception):
    """A token failed verification, or a mint request was invalid."""


def scope_grants(granted: Iterable[str], required: str) -> bool:
    """Does any granted scope cover ``required``?

    Scopes are ``family:action`` strings.  ``*`` grants everything;
    ``family:*`` grants the whole family.  No other wildcarding — the
    grammar must stay cheap enough for the dispatch hot path.
    """
    for scope in granted:
        if scope == "*" or scope == required:
            return True
        if scope.endswith(":*") and required.startswith(scope[:-1]):
            return True
    return False


class Token:
    """A signed bearer token: claims payload + HMAC-SHA256 signature.

    The payload is a :func:`encode_value` dict (the same self-describing
    codec every frame uses), signed as opaque bytes — so the wire form
    is canonical and ``to_bytes``/``from_bytes`` round-trip exactly.
    ``chain`` records the delegation lineage: one ``{"by", "parent",
    "at"}`` dict per hop, newest last.
    """

    __slots__ = (
        "userid",
        "groups",
        "scopes",
        "issued_at",
        "expires_at",
        "issuer",
        "token_id",
        "chain",
        "_payload",
        "signature",
        "_blob",
    )

    def __init__(
        self,
        userid: str,
        groups: tuple[str, ...],
        scopes: tuple[str, ...],
        issued_at: float,
        expires_at: float,
        issuer: str,
        token_id: str,
        chain: tuple[dict[str, object], ...],
        payload: bytes,
        signature: bytes,
        blob: Optional[bytes] = None,
    ) -> None:
        self.userid = userid
        self.groups = groups
        self.scopes = scopes
        self.issued_at = issued_at
        self.expires_at = expires_at
        self.issuer = issuer
        self.token_id = token_id
        self.chain = chain
        self._payload = payload
        self.signature = signature
        self._blob = blob

    @classmethod
    def mint(
        cls,
        key: bytes,
        userid: str,
        groups: Iterable[str],
        scopes: Iterable[str],
        issued_at: float,
        expires_at: float,
        issuer: str,
        token_id: str,
        chain: Iterable[dict[str, object]] = (),
    ) -> "Token":
        payload = encode_value(
            {
                "uid": userid,
                "grp": sorted(groups),
                "scp": sorted(scopes),
                "iat": float(issued_at),
                "exp": float(expires_at),
                "iss": issuer,
                "tid": token_id,
                "chain": list(chain),
            }
        )
        signature = hmac.new(key, payload, sha256).digest()
        return cls(
            userid=userid,
            groups=tuple(sorted(groups)),
            scopes=tuple(sorted(scopes)),
            issued_at=float(issued_at),
            expires_at=float(expires_at),
            issuer=issuer,
            token_id=token_id,
            chain=tuple(dict(hop) for hop in chain),
            payload=payload,
            signature=signature,
        )

    def grants(self, required: str) -> bool:
        return scope_grants(self.scopes, required)

    @property
    def depth(self) -> int:
        return len(self.chain)

    def to_bytes(self) -> bytes:
        if self._blob is None:  # kept once parsed or encoded; racing writers agree
            self._blob = encode_value({"p": self._payload, "s": self.signature})
        return self._blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Token":
        try:
            outer = decode_value(blob)
            payload = outer["p"]
            signature = outer["s"]
            claims = decode_value(payload)
            chain = tuple(dict(hop) for hop in claims["chain"])
            return cls(
                userid=claims["uid"],
                groups=tuple(claims["grp"]),
                scopes=tuple(claims["scp"]),
                issued_at=float(claims["iat"]),
                expires_at=float(claims["exp"]),
                issuer=claims["iss"],
                token_id=claims["tid"],
                chain=chain,
                payload=payload,
                signature=signature,
                blob=bytes(blob),
            )
        except TokenError:
            raise
        except Exception as exc:
            raise TokenError(f"malformed token: {exc}") from exc

    def check_signature(self, key: bytes) -> None:
        expected = hmac.new(key, self._payload, sha256).digest()
        if not hmac.compare_digest(expected, self.signature):
            raise TokenError("token signature mismatch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Token(userid={self.userid!r}, scopes={self.scopes!r}, "
            f"token_id={self.token_id!r}, depth={self.depth})"
        )


@shared_state
class RevocationList:
    """Grow-only revocation state with a monotonic gossip epoch.

    Two kinds of entries: individual token ids, and per-user cutoffs
    (``revoke_user`` invalidates every token the user was issued at or
    before the cutoff).  Both only grow, so merging replicas is a plain
    union — the classic grow-only-set CRDT — and convergence does not
    depend on delivery order.

    The ``epoch`` is the gossip trigger, not a version vector: any local
    mutation bumps it, heartbeats carry it, and a peer seeing a higher
    epoch pulls the full list.  ``merge`` bumps past both the local and
    remote epochs whenever it grows the set, so a replica holding the
    union is always strictly ahead of every peer it merged from and the
    union keeps propagating (concurrent revocations at equal or unequal
    epochs both converge).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._tokens: set[str] = set()
        self._users: dict[str, float] = {}

    @property
    def epoch(self) -> int:
        # Heartbeat threads read the epoch while gossip merges bump it;
        # the lock gives readers a published value, not a torn one.
        with self._lock:
            return self._epoch

    def revoke_token(self, token_id: str) -> bool:
        with self._lock:
            if token_id in self._tokens:
                return False
            self._tokens.add(token_id)
            self._epoch += 1
            return True

    def revoke_user(self, userid: str, cutoff: float) -> bool:
        with self._lock:
            current = self._users.get(userid)
            if current is not None and current >= cutoff:
                return False
            self._users[userid] = float(cutoff)
            self._epoch += 1
            return True

    def is_revoked(self, token: Token) -> bool:
        with self._lock:
            if token.token_id in self._tokens:
                return True
            cutoff = self._users.get(token.userid)
            return cutoff is not None and token.issued_at <= cutoff

    def to_wire(self) -> dict[str, object]:
        with self._lock:
            return {
                "epoch": self._epoch,
                "tokens": sorted(self._tokens),
                "users": dict(self._users),
            }

    def merge(self, wire: dict[str, object]) -> bool:
        """Union a peer's list into ours; True if anything changed."""
        try:
            remote_epoch = int(wire.get("epoch", 0))  # type: ignore[arg-type]
            tokens = wire.get("tokens", [])
            users = wire.get("users", {})
            if not isinstance(tokens, list) or not isinstance(users, dict):
                raise TypeError("bad rlist shape")
            user_cutoffs = {
                userid: float(cutoff)  # type: ignore[arg-type]
                for userid, cutoff in users.items()
                if isinstance(userid, str)
            }
        except Exception as exc:
            raise TokenError(f"malformed revocation list: {exc}") from exc
        with self._lock:
            grew = False
            for token_id in tokens:
                if isinstance(token_id, str) and token_id not in self._tokens:
                    self._tokens.add(token_id)
                    grew = True
            for userid, cutoff in user_cutoffs.items():
                current = self._users.get(userid)
                if current is None or current < cutoff:
                    self._users[userid] = cutoff
                    grew = True
            before = self._epoch
            self._epoch = max(self._epoch, remote_epoch)
            if grew:
                # Any merge that grows the set must end strictly ahead
                # of both our prior epoch and the peer's: peers pull
                # only on a strictly higher epoch, so landing exactly on
                # either value would strand the union (concurrent
                # revocations at equal epochs, a lower-epoch replica
                # holding unique entries merging a higher-epoch peer,
                # or vice versa).  Growth is idempotent, so equal sets
                # stop bumping and epochs converge.
                self._epoch += 1
            return grew or self._epoch != before


class TokenService:
    """Per-proxy token authority: mint, refresh, revoke, delegate, verify.

    Every proxy runs a replica sharing the same HMAC ``key`` and the
    same (already grid-shared) :class:`UserDirectory`, so a token minted
    at one site verifies at any other without a network hop.  State that
    must converge (the revocation list) is a CRDT gossiped by the
    proxies; everything else is stateless given the key.

    Two bounded LRUs remember work done under it: ``_verified`` (blob →
    token, entered once its HMAC is proven) and ``_delegations`` (parent,
    target, scopes, lifetime → child).  An entry dies with the revocation
    epoch it was stored under; :meth:`check_claims` runs on every use
    regardless — a hit skips the decode and the HMAC, never a check.
    """

    def __init__(
        self,
        directory: UserDirectory,
        clock: Clock,
        *,
        key: Optional[bytes] = None,
        issuer: str = "grid",
        lifetime: float = DEFAULT_TOKEN_LIFETIME,
        max_delegation_depth: int = MAX_DELEGATION_DEPTH,
        user_scopes: Iterable[str] = ("jobs:submit", "wms:read"),
        max_clock_skew: float = 60.0,
    ) -> None:
        self.directory = directory
        self.clock = clock
        self.key = key if key is not None else secrets.token_bytes(32)
        if len(self.key) < 16:
            raise ValueError("token key must be at least 16 bytes")
        self.issuer = issuer
        self.lifetime = float(lifetime)
        self.max_delegation_depth = int(max_delegation_depth)
        self.user_scopes = tuple(user_scopes)
        self.max_clock_skew = float(max_clock_skew)
        self.revocations = RevocationList()
        self._group_scopes: dict[str, tuple[str, ...]] = {}
        self._seq_lock = threading.Lock()
        self._seq = 0
        self._cache_lock = threading.Lock()
        self._verified: _Lru = OrderedDict()
        self._delegations: _Lru = OrderedDict()

    # -- policy -----------------------------------------------------------

    def grant_group_scopes(self, group: str, scopes: Iterable[str]) -> None:
        """Extend the scopes minted into tokens of ``group`` members."""
        merged = set(self._group_scopes.get(group, ())) | set(scopes)
        self._group_scopes[group] = tuple(sorted(merged))

    def _scopes_for(self, userid: str, groups: Iterable[str]) -> tuple[str, ...]:
        scopes = set(self.user_scopes)
        for group in groups:
            scopes.update(self._group_scopes.get(group, ()))
        return tuple(sorted(scopes))

    def _next_token_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        # Issuer name + per-issuer sequence + random suffix: unique
        # across replicas without coordination, stable enough to revoke.
        return f"{self.issuer}:{seq}:{secrets.token_hex(4)}"

    # -- minting ----------------------------------------------------------

    def _mint(
        self,
        userid: str,
        groups: Iterable[str],
        scopes: Iterable[str],
        lifetime: Optional[float],
        chain: Iterable[dict[str, object]] = (),
        expires_cap: Optional[float] = None,
    ) -> Token:
        now = self.clock()
        expires = now + (self.lifetime if lifetime is None else float(lifetime))
        if expires_cap is not None:
            expires = min(expires, expires_cap)
        return Token.mint(
            self.key,
            userid=userid,
            groups=groups,
            scopes=scopes,
            issued_at=now,
            expires_at=expires,
            issuer=self.issuer,
            token_id=self._next_token_id(),
            chain=chain,
        )

    def login(
        self,
        userid: str,
        password: str,
        *,
        scopes: Optional[Iterable[str]] = None,
        lifetime: Optional[float] = None,
    ) -> Token:
        """Password login: the one place a user pays the PBKDF2 cost."""
        self.directory.authenticate_password(userid, password)
        return self._login_common(userid, scopes, lifetime)

    def login_signature(
        self,
        userid: str,
        message: bytes,
        signature: bytes,
        *,
        scopes: Optional[Iterable[str]] = None,
        lifetime: Optional[float] = None,
    ) -> Token:
        """Signature login: the one place a user pays the RSA cost."""
        self.directory.verify_signature(userid, message, signature)
        return self._login_common(userid, scopes, lifetime)

    def _login_common(
        self,
        userid: str,
        scopes: Optional[Iterable[str]],
        lifetime: Optional[float],
    ) -> Token:
        groups = sorted(self.directory.groups_of(userid))
        granted = self._scopes_for(userid, groups)
        if scopes is not None:
            requested = tuple(sorted(set(scopes)))
            for scope in requested:
                if not scope_grants(granted, scope) and scope not in granted:
                    raise TokenError(
                        f"scope {scope!r} not grantable to {userid!r}"
                    )
            granted = requested
        return self._mint(userid, groups, granted, lifetime)

    def mint_service_token(
        self, subject: str, *, scopes: Iterable[str] = ("*",),
        lifetime: Optional[float] = None,
    ) -> Token:
        """Identity for grid infrastructure (proxies).

        Proxies are the trusted base — they hold the HMAC key anyway —
        so a wildcard-scope token is a statement of identity for audit
        and uniform guard handling, not a privilege escalation.
        """
        return self._mint(subject, ("service",), scopes, lifetime)

    # -- lifecycle --------------------------------------------------------

    def refresh(self, blob: bytes) -> Token:
        """Trade a live token for a fresh one with the same claims.

        Delegated tokens are deliberately not refreshable: attenuation
        caps expiry at the parent's, and refresh must not re-open that
        window — the delegate asks the delegator again instead.
        """
        token = self.verify_blob(blob)
        if token.chain:
            raise TokenError("delegated tokens cannot be refreshed")
        return self._mint(token.userid, token.groups, token.scopes, None)

    def delegate(
        self,
        parent: "Token | bytes",
        *,
        delegate_to: str,
        scopes: Iterable[str],
        lifetime: Optional[float] = None,
    ) -> Token:
        """Mint an attenuated child token to act on the user's behalf.

        Attenuation is enforced, never trusted: requested scopes must be
        covered by the parent's, expiry is capped at the parent's, and
        the chain depth is bounded by ``max_delegation_depth``.

        ``parent`` is a blob or the token :meth:`verify_blob` returned
        for it (a cache hit, never trusted unproven).  The child minted
        earlier for the same arguments is reused while the epoch stands,
        the parent passes :meth:`check_claims` and the child has more
        than ``max_clock_skew`` left — its users share its id and hop time.
        """
        epoch = self.revocations.epoch
        parent = self.verify_blob(parent.to_bytes() if isinstance(parent, Token) else parent)
        if parent.depth >= self.max_delegation_depth:
            raise TokenError(
                f"delegation depth {parent.depth} at bound "
                f"{self.max_delegation_depth}"
            )
        requested = tuple(sorted(set(scopes)))
        # Verified parents share a signature only if they are one token.
        key = (parent.signature, delegate_to, requested, lifetime)
        child = self._cache_get(self._delegations, key, epoch)
        if child is not None and child.expires_at - self.clock() > self.max_clock_skew:
            return child
        for scope in requested:
            if not scope_grants(parent.scopes, scope):
                raise TokenError(
                    f"cannot delegate scope {scope!r}: parent grants "
                    f"{list(parent.scopes)}"
                )
        hop: dict[str, object] = {
            "by": delegate_to,
            "parent": parent.token_id,
            "at": self.clock(),
        }
        child = self._mint(
            parent.userid,
            parent.groups,
            requested,
            lifetime,
            chain=(*parent.chain, hop),
            expires_cap=parent.expires_at,
        )
        self._cache_put(self._delegations, key, epoch, child)
        return child

    def forget_delegation(self, child: Token) -> None:
        """Drop a cached child a peer refused, so it is never re-sent."""
        with self._cache_lock:
            for key in [k for k, (_, c) in self._delegations.items() if c is child]:
                del self._delegations[key]

    def revoke(self, token: "Token | bytes") -> bool:
        """Revoke one token (claims unchecked: expired blobs still revoke)."""
        if not isinstance(token, Token):
            token = self._authentic(token)
        return self.revocations.revoke_token(token.token_id)

    def revoke_user(self, userid: str) -> bool:
        """Invalidate every token ``userid`` holds as of now."""
        return self.revocations.revoke_user(userid, self.clock())

    # -- verification (the hot path) --------------------------------------

    @property
    def epoch(self) -> int:
        return self.revocations.epoch

    def rlist_wire(self) -> dict[str, object]:
        return self.revocations.to_wire()

    def merge_rlist(self, wire: dict[str, object]) -> bool:
        return self.revocations.merge(wire)

    def _cache_get(self, cache: _Lru, key: object, epoch: int) -> Optional[Token]:
        with self._cache_lock:
            stamp, token = cache.get(key, (None, None))
            if stamp != epoch:  # absent, or stale: the next put overwrites it
                return None
            cache.move_to_end(key)
            return token

    def _cache_put(self, cache: _Lru, key: object, epoch: int, token: Token) -> None:
        with self._cache_lock:
            cache[key] = (epoch, token)
            cache.move_to_end(key)
            while len(cache) > _CACHE_ENTRIES:
                cache.popitem(last=False)

    def cached(self, blob: bytes) -> Optional[Token]:
        """The token ``blob`` verified to, if cached; the caller owes ``check_claims``."""
        return self._cache_get(self._verified, blob, self.revocations.epoch)

    def _authentic(self, blob: bytes) -> Token:
        """Parse ``blob`` and prove its HMAC — once per blob and epoch."""
        blob, epoch = bytes(blob), self.revocations.epoch
        token = self._cache_get(self._verified, blob, epoch)
        if token is None:
            token = Token.from_bytes(blob)
            token.check_signature(self.key)
            self._cache_put(self._verified, blob, epoch, token)
        return token

    def verify_blob(
        self, blob: bytes, *, required_scope: Optional[str] = None
    ) -> Token:
        """Verify a token blob; returns the claims on success.

        Cost: one decode and one HMAC the first time a blob is seen in a
        revocation epoch, then always a set lookup and two float compares
        — no asymmetric crypto (gridlint GL105 pins this down for guards).
        """
        token = self._authentic(blob)
        self.check_claims(token, required_scope=required_scope)
        return token

    def check_claims(
        self, token: Token, *, required_scope: Optional[str] = None
    ) -> None:
        """Signature-independent claim checks (cache revalidation path)."""
        now = self.clock()
        if now > token.expires_at:
            raise TokenError(f"token {token.token_id} expired")
        if token.issued_at - now > self.max_clock_skew:
            raise TokenError(f"token {token.token_id} issued in the future")
        if token.depth > self.max_delegation_depth:
            raise TokenError(
                f"delegation chain of {token.depth} exceeds bound "
                f"{self.max_delegation_depth}"
            )
        if self.revocations.is_revoked(token):
            raise TokenError(f"token {token.token_id} is revoked")
        if required_scope is not None and not token.grants(required_scope):
            raise TokenError(
                f"token {token.token_id} lacks scope {required_scope!r}"
            )
