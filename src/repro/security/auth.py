"""User authentication and access permissions.

The paper's client-authentication layer "is responsible for providing user
authentication and right of access", with userid/password authentication,
digital signatures, and "access permissions … controlled individually or
by user groups", validated at both the originating and destination proxies.

This module provides:

* :class:`UserDirectory` — userid → salted-hashed password plus optional
  registered signing key; group membership.
* :class:`AccessControlList` — (principal, resource, action) permissions
  where a principal is a user or a group, with deny-by-default semantics.
"""

from __future__ import annotations

import fnmatch
import hashlib
import hmac
import re
import secrets
from dataclasses import dataclass
from typing import Callable, Optional

from repro.security.rsa import RsaPublicKey

__all__ = [
    "AccessControlList",
    "AuthenticationError",
    "PermissionDenied",
    "UserDirectory",
]

_PBKDF_ITERATIONS = 10_000  # modest: per-request auth cost matters in E8


class AuthenticationError(Exception):
    """Unknown user, wrong password, or bad signature."""


class PermissionDenied(Exception):
    """The ACL rejected the (user, resource, action) triple."""


@dataclass
class _UserRecord:
    userid: str
    salt: bytes
    password_hash: bytes
    public_key: Optional[RsaPublicKey] = None
    enabled: bool = True


class UserDirectory:
    """Userid/password store with group membership.

    Passwords are salted PBKDF2-HMAC-SHA256; verification is constant-time.
    """

    def __init__(self, pbkdf_iterations: int = _PBKDF_ITERATIONS) -> None:
        # The iteration count is per-directory so benchmarks can build
        # million-user stores without paying 10k rounds per add_user;
        # the default (and every production path) is unchanged.
        self._iterations = int(pbkdf_iterations)
        self._users: dict[str, _UserRecord] = {}
        self._groups: dict[str, set[str]] = {}

    # -- user management -----------------------------------------------------

    def add_user(
        self,
        userid: str,
        password: str,
        public_key: Optional[RsaPublicKey] = None,
    ) -> None:
        if not userid:
            raise ValueError("empty userid")
        if userid in self._users:
            raise ValueError(f"user already exists: {userid!r}")
        salt = secrets.token_bytes(16)
        self._users[userid] = _UserRecord(
            userid=userid,
            salt=salt,
            password_hash=self._hash(password, salt),
            public_key=public_key,
        )

    def remove_user(self, userid: str) -> None:
        if userid not in self._users:
            raise KeyError(userid)
        del self._users[userid]
        for members in self._groups.values():
            members.discard(userid)

    def disable_user(self, userid: str) -> None:
        self._record(userid).enabled = False

    def set_password(self, userid: str, password: str) -> None:
        record = self._record(userid)
        record.salt = secrets.token_bytes(16)
        record.password_hash = self._hash(password, record.salt)

    def register_key(self, userid: str, public_key: RsaPublicKey) -> None:
        self._record(userid).public_key = public_key

    def known_users(self) -> list[str]:
        return sorted(self._users)

    def _record(self, userid: str) -> _UserRecord:
        try:
            return self._users[userid]
        except KeyError:
            raise KeyError(f"unknown user: {userid!r}") from None

    def _hash(self, password: str, salt: bytes) -> bytes:
        return hashlib.pbkdf2_hmac(
            "sha256", password.encode("utf-8"), salt, self._iterations
        )

    # -- authentication --------------------------------------------------------

    def authenticate_password(self, userid: str, password: str) -> None:
        """Check a userid/password pair; raises AuthenticationError."""
        record = self._users.get(userid)
        if record is None or not record.enabled:
            # Burn the same hashing cost for unknown users (timing parity).
            self._hash(password, b"\x00" * 16)
            raise AuthenticationError(f"authentication failed for {userid!r}")
        candidate = self._hash(password, record.salt)
        if not hmac.compare_digest(candidate, record.password_hash):
            raise AuthenticationError(f"authentication failed for {userid!r}")

    def verify_signature(self, userid: str, message: bytes, signature: bytes) -> None:
        """Check a digital signature against the user's registered key."""
        record = self._users.get(userid)
        if record is None or not record.enabled or record.public_key is None:
            raise AuthenticationError(f"no signing key for {userid!r}")
        if not record.public_key.verify(message, signature):
            raise AuthenticationError(f"signature verification failed for {userid!r}")

    # -- groups ------------------------------------------------------------------

    def create_group(self, group: str) -> None:
        if group in self._groups:
            raise ValueError(f"group already exists: {group!r}")
        self._groups[group] = set()

    def add_to_group(self, group: str, userid: str) -> None:
        if group not in self._groups:
            raise KeyError(f"unknown group: {group!r}")
        self._record(userid)  # validates the user exists
        self._groups[group].add(userid)

    def remove_from_group(self, group: str, userid: str) -> None:
        if group not in self._groups:
            raise KeyError(f"unknown group: {group!r}")
        self._groups[group].discard(userid)

    def groups_of(self, userid: str) -> set[str]:
        return {g for g, members in self._groups.items() if userid in members}


_Rule = tuple[Callable[[str], Optional[re.Match[str]]], str]


class AccessControlList:
    """Deny-by-default permissions for users and groups.

    Rules are (principal, resource-pattern, action) triples; principals
    are ``"user:alice"`` or ``"group:physics"``, resource patterns are
    fnmatch globs over resource names (``"site:*"``, ``"mpi:run"``).
    Explicit deny rules override grants, so a compromised group membership
    cannot resurrect a banned user.  Rules are indexed by principal, so a
    check reads only the rules of the user and their groups.
    """

    def __init__(self, directory: UserDirectory) -> None:
        self._directory = directory
        self._grants: dict[str, list[_Rule]] = {}
        self._denies: dict[str, list[_Rule]] = {}

    def grant(self, principal: str, resource_pattern: str, action: str) -> None:
        self._add(self._grants, principal, resource_pattern, action)

    def deny(self, principal: str, resource_pattern: str, action: str) -> None:
        self._add(self._denies, principal, resource_pattern, action)

    @staticmethod
    def _add(rules: dict[str, list[_Rule]], principal: str, pattern: str, action: str) -> None:
        kind, _, name = principal.partition(":")
        if kind not in ("user", "group") or not name:
            raise ValueError(
                f"principal must be 'user:<id>' or 'group:<id>': {principal!r}"
            )
        if not pattern or not action:
            raise ValueError("empty resource pattern or action")
        matcher = re.compile(fnmatch.translate(pattern)).match
        rules.setdefault(principal, []).append((matcher, action))

    def _principals_for(self, userid: str) -> set[str]:
        principals = {f"user:{userid}"}
        principals.update(f"group:{g}" for g in self._directory.groups_of(userid))
        return principals

    def is_allowed(self, userid: str, resource: str, action: str) -> bool:
        principals = self._principals_for(userid)

        def matches(rules: dict[str, list[_Rule]]) -> bool:
            return any(
                (rule_action == action or rule_action == "*") and matcher(resource)
                for principal in principals
                for matcher, rule_action in rules.get(principal, ())
            )

        if matches(self._denies):
            return False
        return matches(self._grants)

    def check(self, userid: str, resource: str, action: str) -> None:
        if not self.is_allowed(userid, resource, action):
            raise PermissionDenied(
                f"user {userid!r} may not {action!r} on {resource!r}"
            )

