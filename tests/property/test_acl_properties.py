"""Property test: the indexed ACL decides exactly like a linear scan.

:class:`~repro.security.auth.AccessControlList` indexes its rules by
principal and compiles each resource glob once.  The reference below is
the plain scan over every rule: deny overrides grant, ``*`` actions
match any action, and resource patterns are ``fnmatchcase`` globs.
"""

import fnmatch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.auth import AccessControlList, UserDirectory

USERS = ["u0", "u1", "u2", "u3"]
GROUPS = ["g0", "g1", "g2"]
ACTIONS = ["submit", "run", "read", "*"]

principals = st.one_of(
    st.sampled_from([f"user:{u}" for u in USERS + ["ghost"]]),
    st.sampled_from([f"group:{g}" for g in GROUPS]),
)
patterns = st.one_of(
    st.sampled_from(["site:*", "site:A", "site:?", "site:[AB]", "site:[!A]",
                     "*", "mpi:run", "site:A*"]),
    st.text(alphabet="AB*?[]!-:s", min_size=1, max_size=6),
)
resources = st.one_of(
    st.sampled_from(["site:A", "site:B", "site:AB", "mpi:run", "site:", "x"]),
    st.text(alphabet="AB-:s[]", max_size=5),
)
rules = st.lists(
    st.tuples(st.booleans(), principals, patterns, st.sampled_from(ACTIONS)),
    max_size=12,
)
memberships = st.lists(
    st.tuples(st.sampled_from(GROUPS), st.sampled_from(USERS)), max_size=8
)
queries = st.lists(
    st.tuples(
        st.sampled_from(USERS + ["ghost"]), resources, st.sampled_from(ACTIONS)
    ),
    min_size=1,
    max_size=10,
)


def reference_is_allowed(directory, grants, denies, userid, resource, action):
    """The linear scan over every rule, as the ACL checked before indexing."""
    principals = {f"user:{userid}"}
    principals.update(f"group:{g}" for g in directory.groups_of(userid))

    def matches(rules):
        return any(
            principal in principals
            and fnmatch.fnmatchcase(resource, pattern)
            and (rule_action == action or rule_action == "*")
            for principal, pattern, rule_action in rules
        )

    if matches(denies):
        return False
    return matches(grants)


@settings(max_examples=200, deadline=None)
@given(rules=rules, memberships=memberships, queries=queries)
def test_indexed_acl_matches_linear_scan(rules, memberships, queries):
    directory = UserDirectory(pbkdf_iterations=1)
    for userid in USERS:
        directory.add_user(userid, "pw")
    for group in GROUPS:
        directory.create_group(group)
    for group, userid in memberships:
        directory.add_to_group(group, userid)
    acl = AccessControlList(directory)
    grants, denies = [], []
    for is_deny, principal, pattern, action in rules:
        if is_deny:
            acl.deny(principal, pattern, action)
            denies.append((principal, pattern, action))
        else:
            acl.grant(principal, pattern, action)
            grants.append((principal, pattern, action))
    for userid, resource, action in queries:
        assert acl.is_allowed(userid, resource, action) == reference_is_allowed(
            directory, grants, denies, userid, resource, action
        ), (userid, resource, action)
