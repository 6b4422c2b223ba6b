"""The gridlint rule catalog.

Each rule encodes one invariant the middleware actually depends on;
the docstrings double as the published rule documentation (surfaced by
``--list-rules`` and asserted non-empty by the meta-test).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from tools.gridlint.callgraph import CallGraph
from tools.gridlint.engine import Finding, Project, Rule, Source, rule

#: Modules allowed to spawn raw threads: the reactor owns the I/O loop
#: threads, ``Listener.serve`` its accept thread, and the dispatch
#: pipeline its blocking-handler worker pool.  A new transport that
#: spawns its own is flagged.
SANCTIONED_THREAD_SUFFIXES = (
    "transport/reactor.py",
    "transport/channel.py",
    "core/dispatch.py",
)

#: Functions that are allowed to resolve metric instruments by name —
#: construction-time wiring, by convention.
INSTRUMENT_WIRING_FUNCTIONS = frozenset({"__init__", "bind_metrics"})

#: Registry implementations themselves (get-or-create lives here).
INSTRUMENT_IMPL_SUFFIXES = ("obs/metrics.py",)

#: Instrument-resolving registry methods (hot-path construction bait).
INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})

#: The asymmetric-crypto module: any call resolving into it from a
#: dispatch guard is a per-request RSA operation on the hot path (GL105).
ASYMMETRIC_MODULE_SUFFIXES = ("security/rsa.py",)

#: Attribute calls that look like public-key operations when their
#: receiver names key material (GL105).
ASYMMETRIC_ATTRS = frozenset({"sign", "verify", "encrypt", "decrypt"})

#: Receiver-text fragments that mark the receiver as key material.
KEY_RECEIVER_HINTS = ("key", "rsa", "public", "private", "cert")

#: Names the ``@shared_state`` decorator goes by at its use sites
#: (``repro.obs.racesan.shared_state``): plain, module-qualified, or
#: the explicit per-object helper.
SHARED_STATE_DECORATORS = frozenset({"shared_state"})

#: Receiver-text fragments that mark a ``with`` context manager as a
#: lock for GL106's lexical lock-path analysis.
LOCKLIKE_HINTS = ("lock", "cond", "mutex", "sem", "rlock")

#: Call names that publish ``self`` to another thread (GL107): raw
#: thread construction and every reactor/dispatch registration seed.
PUBLICATION_CALLS = frozenset(
    {
        "Thread",
        "Timer",
        "start_new_thread",
        "submit",
        "schedule",
        "call_later",
        "call_every",
        "add_channel",
        "register_fd",
        "set_ready_callback",
        "register",
        "add_guard",
    }
)


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names the file binds to ``import module`` (honouring ``as``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """local name -> original name for ``from module import ...``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


@rule
class NoBlockingOnReactor(Rule):
    """Reactor-loop callbacks must never block.

    A callback registered with ``set_ready_callback``, ``register_fd``,
    ``call_later``/``call_every``, or the dispatch registry (without
    ``blocking=True``) runs on a shared event-loop thread; one
    ``time.sleep``, ``os.fsync``, unbounded ``Lock.acquire``, or
    blocking socket op stalls every channel multiplexed onto that loop.  The rule walks a
    conservative call graph from every registration site and flags
    blocking primitives reachable from them.  Non-blocking sockets and
    guarded acquires are real patterns — suppress those sites with the
    reason (e.g. "socket is non-blocking", "guarded by
    on_reactor_thread() fail-fast above").
    """

    code = "GL101"
    title = "blocking call reachable from a reactor-loop callback"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = CallGraph(project)
        chains = graph.reachable_from_seeds()
        for key, chain in sorted(chains.items()):
            fn = graph.nodes[key]
            for site in fn.blocking:
                yield Finding(
                    code=self.code,
                    path=fn.path,
                    line=site.line,
                    message=(
                        f"{site.description} in {fn.qualname} can run on a "
                        f"reactor loop thread ({' -> '.join(chain)})"
                    ),
                )


@rule
class NoUnsanctionedThreads(Rule):
    """Raw ``threading.Thread``/``Timer`` only in sanctioned modules.

    The reactor (event loops), ``Listener.serve`` and the dispatch
    worker pool are the places allowed to own threads; everywhere else
    — other transports included — must go through them so shutdown
    ordering and the thread budget stay auditable.  Legitimate exceptions
    (handshake workers, accept loops) carry a suppression naming why the
    thread cannot ride the reactor.
    """

    code = "GL102"
    title = "raw thread construction outside sanctioned modules"

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.sources:
            path = source.path.replace("\\", "/")
            if any(path.endswith(sfx) for sfx in SANCTIONED_THREAD_SUFFIXES):
                continue
            aliases = _module_aliases(source.tree, "threading")
            imported = {
                local
                for local, orig in _from_imports(source.tree, "threading").items()
                if orig in ("Thread", "Timer")
            }
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                hit: Optional[str] = None
                if isinstance(func, ast.Name) and func.id in imported:
                    hit = func.id
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("Thread", "Timer")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                ):
                    hit = f"{func.value.id}.{func.attr}"
                if hit is not None:
                    yield Finding(
                        code=self.code,
                        path=source.path,
                        line=node.lineno,
                        message=(
                            f"{hit}() outside sanctioned modules "
                            "(transport/*, core/dispatch.py); route work "
                            "through the reactor or dispatch pool"
                        ),
                    )


def _attr_text(node: ast.AST) -> str:
    """Dotted receiver text of an attribute chain (best effort)."""
    if isinstance(node, ast.Attribute):
        return f"{_attr_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _attr_text(node.func) + "()"
    return "?"


@rule
class NoAsymmetricCryptoInGuards(Rule):
    """Dispatch guards must stay on a symmetric-crypto budget.

    Guards run on the pipeline's authorize stage for *every* control
    message; the token control plane exists precisely so that path costs
    one HMAC, not one RSA operation per request.  The rule seeds from
    every ``add_guard(...)`` registration and from ``__call__`` of every
    ``*Guard`` class, walks the conservative call graph, and flags (a)
    calls that resolve into the asymmetric-crypto module and (b)
    ``sign``/``verify``/``encrypt``/``decrypt`` attribute calls whose
    receiver names key material.  A guard that genuinely must do
    public-key work carries a suppression saying why the per-message
    cost is acceptable.
    """

    code = "GL105"
    title = "asymmetric-crypto call reachable from a dispatch guard"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = CallGraph(project)
        receivers = self._receiver_index(project)
        for key, chain in sorted(self._guard_chains(graph).items()):
            fn = graph.nodes[key]
            for kind, name, line in fn.calls:
                what: Optional[str] = None
                if kind == "attr" and name in ASYMMETRIC_ATTRS:
                    receiver = receivers.get(fn.path, {}).get((line, name), "")
                    if any(
                        hint in receiver.lower()
                        for hint in KEY_RECEIVER_HINTS
                    ):
                        what = f"{receiver}.{name}()"
                if what is None:
                    for callee in graph.resolve(fn, kind, name):
                        callee_path = callee.path.replace("\\", "/")
                        if any(
                            callee_path.endswith(sfx)
                            for sfx in ASYMMETRIC_MODULE_SUFFIXES
                        ):
                            what = f"{name}() resolves into {callee_path}"
                            break
                if what is not None:
                    yield Finding(
                        code=self.code,
                        path=fn.path,
                        line=line,
                        message=(
                            f"{what} reachable from a dispatch guard "
                            f"({' -> '.join(chain)}); guards must stay "
                            "HMAC-cheap — move RSA to login/handshake time"
                        ),
                    )

    @staticmethod
    def _receiver_index(
        project: Project,
    ) -> dict[str, dict[tuple[int, str], str]]:
        """path -> {(line, attr): receiver text} for attribute calls."""
        index: dict[str, dict[tuple[int, str], str]] = {}
        for source in project.sources:
            per = index.setdefault(source.path, {})
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    per[(node.lineno, node.func.attr)] = _attr_text(
                        node.func.value
                    )
        return index

    def _guard_chains(
        self, graph: CallGraph
    ) -> dict[tuple[str, str], list[str]]:
        """node key -> chain from its nearest guard entry point."""
        chains: dict[tuple[str, str], list[str]] = {}
        frontier: list = []

        def seed(target, why: str) -> None:
            if target.key not in chains:
                chains[target.key] = [why, target.short]
                frontier.append(target)

        for source in graph.project.sources:
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_guard"
                ):
                    continue
                owner = graph._enclosing_function(source, node)
                if owner is None:
                    continue
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    for target in graph._callback_targets(owner, arg):
                        seed(target, f"guard registered in {owner.short}")
        for (path, cls), methods in graph._methods.items():
            if cls.endswith("Guard") and "__call__" in methods:
                seed(
                    graph.nodes[methods["__call__"]],
                    f"{cls}.__call__ guard entry",
                )
        while frontier:
            fn = frontier.pop()
            for kind, name, _ in fn.calls:
                for callee in graph.resolve(fn, kind, name):
                    if callee.key not in chains:
                        chains[callee.key] = chains[fn.key] + [callee.short]
                        frontier.append(callee)
        return chains


@rule
class LockOrderCycles(Rule):
    """Per-class lock acquisition order must be acyclic.

    For every class the rule extracts ``with self._lock:`` nests (and
    one level of ``self.method()`` calls made while holding a lock) into
    an acquisition-order graph over the class's lock attributes; a cycle
    means two code paths can take the same pair of locks in opposite
    order — a latent deadlock.  The runtime
    ``repro.obs.lockwatch.LockOrderWatchdog`` covers the orders this
    static view cannot see (cross-class, dynamic dispatch).
    """

    code = "GL103"
    title = "conflicting lock acquisition order (potential deadlock)"

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(source.path, node)

    # -- per-class analysis ---------------------------------------------

    def _check_class(self, path: str, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        acquired_anywhere = {
            name: self._locks_in(method) for name, method in methods.items()
        }
        edges: dict[tuple[str, str], tuple[int, str]] = {}
        for name, method in methods.items():
            self._collect_edges(method, [], edges, acquired_anywhere, name)
        cycle = self._find_cycle(edges)
        if cycle is not None:
            order = " -> ".join([*cycle, cycle[0]])
            line, via = edges[(cycle[-1], cycle[0])]
            yield Finding(
                code=self.code,
                path=path,
                line=line,
                message=(
                    f"lock order cycle in class {cls.name}: {order} "
                    f"(closing edge in {via})"
                ),
            )

    @staticmethod
    def _self_lock(item: ast.withitem) -> Optional[str]:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _locks_in(self, method: ast.AST) -> set[str]:
        locks: set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.With):
                for item in node.items:
                    name = self._self_lock(item)
                    if name is not None:
                        locks.add(name)
        return locks

    def _collect_edges(
        self,
        node: ast.AST,
        held: list[str],
        edges: dict[tuple[str, str], tuple[int, str]],
        acquired_anywhere: dict[str, set[str]],
        method_name: str,
    ) -> None:
        if isinstance(node, ast.With):
            taken: list[str] = []
            for item in node.items:
                name = self._self_lock(item)
                if name is None:
                    continue
                if held:
                    edges.setdefault((held[-1], name), (node.lineno, method_name))
                held.append(name)
                taken.append(name)
            for child in node.body:
                self._collect_edges(
                    child, held, edges, acquired_anywhere, method_name
                )
            for _ in taken:
                held.pop()
            return
        if (
            isinstance(node, ast.Call)
            and held
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            for lock in acquired_anywhere.get(node.func.attr, ()):
                if lock not in held:
                    edges.setdefault(
                        (held[-1], lock),
                        (node.lineno, f"{method_name} -> {node.func.attr}"),
                    )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            self._collect_edges(child, held, edges, acquired_anywhere, method_name)

    @staticmethod
    def _find_cycle(
        edges: dict[tuple[str, str], tuple[int, str]]
    ) -> Optional[list[str]]:
        graph: dict[str, list[str]] = {}
        for src, dst in edges:
            graph.setdefault(src, []).append(dst)
        visiting: list[str] = []
        done: set[str] = set()

        def dfs(node: str) -> Optional[list[str]]:
            if node in visiting:
                return visiting[visiting.index(node) :]
            if node in done:
                return None
            visiting.append(node)
            for nxt in graph.get(node, ()):
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
            visiting.pop()
            done.add(node)
            return None

        for start in sorted(graph):
            cycle = dfs(start)
            if cycle is not None:
                return cycle
        return None


@rule
class OpRegistryConsistency(Rule):
    """Op codes are unique and every dispatched op is classified.

    ``protocol.py`` is the single source of truth for the control
    protocol: each op name maps to exactly one code, ``IDEMPOTENT_OPS``
    only names real ops (a typo there silently disables retry safety),
    and every ``pipeline.register(Op.X, ...)`` in the tree refers to a
    declared op and registers it at most once per module.
    """

    code = "GL201"
    title = "op registry / idempotency classification inconsistency"

    def check(self, project: Project) -> Iterator[Finding]:
        protocols = project.find_sources("core/protocol.py") or project.find_sources(
            "protocol.py"
        )
        if not protocols:
            return
        protocol = protocols[0]
        op_codes: dict[str, int] = {}
        op_lines: dict[str, int] = {}
        for node in protocol.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Op":
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, int)
                    ):
                        name = stmt.targets[0].id
                        op_codes[name] = stmt.value.value
                        op_lines[name] = stmt.lineno
        by_value: dict[int, str] = {}
        for name, value in op_codes.items():
            if value in by_value:
                yield Finding(
                    code=self.code,
                    path=protocol.path,
                    line=op_lines[name],
                    message=(
                        f"op code {value} assigned to both "
                        f"Op.{by_value[value]} and Op.{name}"
                    ),
                )
            else:
                by_value[value] = name
        yield from self._check_idempotent(protocol, op_codes)
        yield from self._check_registrations(project, op_codes)

    def _check_idempotent(
        self, protocol: Source, op_codes: dict[str, int]
    ) -> Iterator[Finding]:
        for node in ast.walk(protocol.tree):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "IDEMPOTENT_OPS"
            ):
                continue
            seen: set[str] = set()
            for member in ast.walk(node.value):
                if (
                    isinstance(member, ast.Attribute)
                    and isinstance(member.value, ast.Name)
                    and member.value.id == "Op"
                ):
                    if member.attr not in op_codes:
                        yield Finding(
                            code=self.code,
                            path=protocol.path,
                            line=member.lineno,
                            message=(
                                f"IDEMPOTENT_OPS names Op.{member.attr}, "
                                "which is not a declared op"
                            ),
                        )
                    elif member.attr in seen:
                        yield Finding(
                            code=self.code,
                            path=protocol.path,
                            line=member.lineno,
                            message=(
                                f"Op.{member.attr} listed twice in IDEMPOTENT_OPS"
                            ),
                        )
                    seen.add(member.attr)

    def _check_registrations(
        self, project: Project, op_codes: dict[str, int]
    ) -> Iterator[Finding]:
        for source in project.sources:
            registered: set[str] = set()
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and node.args
                ):
                    continue
                target = node.args[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "Op"
                ):
                    continue
                if target.attr not in op_codes:
                    yield Finding(
                        code=self.code,
                        path=source.path,
                        line=node.lineno,
                        message=(
                            f"register() refers to Op.{target.attr}, "
                            "which is not declared in protocol.py"
                        ),
                    )
                elif target.attr in registered:
                    yield Finding(
                        code=self.code,
                        path=source.path,
                        line=node.lineno,
                        message=(
                            f"Op.{target.attr} registered more than once "
                            "in this module"
                        ),
                    )
                registered.add(target.attr)


@rule
class NoHotPathInstrumentConstruction(Rule):
    """Metric instruments are resolved at wiring time, not per call.

    ``registry.counter(name)`` is get-or-create behind a lock plus a
    dict lookup — cheap once, not cheap per packet.  Hot paths must
    resolve instruments in ``__init__``/``bind_metrics`` (or at module
    scope) and keep the handle.  Deliberate caches that pay the lookup
    once per key (e.g. the dispatch per-op latency cache) carry a
    suppression saying so.
    """

    code = "GL301"
    title = "metric instrument resolved inside a function body"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = CallGraph(project)
        for fn in graph.nodes.values():
            path = fn.path.replace("\\", "/")
            if any(path.endswith(sfx) for sfx in INSTRUMENT_IMPL_SUFFIXES):
                continue
            if INSTRUMENT_WIRING_FUNCTIONS & set(fn.qualname.split(".")):
                continue
            for kind, name, line in fn.calls:
                if kind == "attr" and name in INSTRUMENT_METHODS:
                    yield Finding(
                        code=self.code,
                        path=fn.path,
                        line=line,
                        message=(
                            f".{name}() instrument lookup inside "
                            f"{fn.qualname}; resolve it once in __init__/"
                            "bind_metrics and keep the handle"
                        ),
                    )


@rule
class DeterministicSimulation(Rule):
    """No unseeded randomness or wall-clock time in deterministic code.

    The simulation layer and the chaos suite must replay bit-identically
    from a seed: module-level ``random.*`` draws global (unseeded) state
    and ``time.time()``/``datetime.now()`` leak the wall clock into
    results.  Use the seeded ``random.Random(...)`` streams from
    ``repro.simulation.randomness`` and the simulated clock instead.
    """

    code = "GL401"
    title = "unseeded randomness / wall clock in deterministic code"

    _SCOPES = ("simulation/", "tests/chaos", "security/")
    _ALLOWED_RANDOM = frozenset({"Random", "SystemRandom"})

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.sources:
            path = source.path.replace("\\", "/")
            if not any(scope in path for scope in self._SCOPES):
                continue
            time_aliases = _module_aliases(source.tree, "time")
            random_aliases = _module_aliases(source.tree, "random")
            datetime_names = {
                local
                for local, orig in _from_imports(source.tree, "datetime").items()
                if orig == "datetime"
            }
            random_funcs = {
                local
                for local, orig in _from_imports(source.tree, "random").items()
                if orig not in self._ALLOWED_RANDOM
            }
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id in random_funcs:
                    yield self._finding(
                        source.path, node.lineno, f"random.{func.id}()"
                    )
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = func.value
                if not isinstance(receiver, ast.Name):
                    continue
                if receiver.id in time_aliases and func.attr == "time":
                    yield self._finding(source.path, node.lineno, "time.time()")
                elif (
                    receiver.id in random_aliases
                    and func.attr not in self._ALLOWED_RANDOM
                ):
                    yield self._finding(
                        source.path, node.lineno, f"random.{func.attr}()"
                    )
                elif receiver.id in datetime_names and func.attr in (
                    "now",
                    "utcnow",
                    "today",
                ):
                    yield self._finding(
                        source.path, node.lineno, f"datetime.{func.attr}()"
                    )

    def _finding(self, path: str, line: int, what: str) -> Finding:
        return Finding(
            code=self.code,
            path=path,
            line=line,
            message=(
                f"{what} in deterministic code; use the seeded RNG stream "
                "or the simulated clock"
            ),
        )


def _is_shared_state_class(cls: ast.ClassDef) -> bool:
    """True when the class carries the ``@shared_state`` decorator."""
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id in SHARED_STATE_DECORATORS:
            return True
        if (
            isinstance(target, ast.Attribute)
            and target.attr in SHARED_STATE_DECORATORS
        ):
            return True
    return False


def _is_locklike(item: ast.withitem) -> bool:
    text = _attr_text(item.context_expr).lower()
    return any(hint in text for hint in LOCKLIKE_HINTS)


def _unlocked_self_writes(
    method: ast.AST, after_line: int = 0
) -> list[tuple[int, str]]:
    """(line, field) for every ``self.X`` (aug)assignment not lexically
    under a lock-like ``with``, skipping nested function bodies."""
    out: list[tuple[int, str]] = []

    def walk(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With):
            now_locked = locked or any(_is_locklike(item) for item in node.items)
            for child in node.body:
                walk(child, now_locked)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # a nested def is its own (separately analysed) node
        if (
            not locked
            and isinstance(node, (ast.Assign, ast.AugAssign))
            and node.lineno > after_line
        ):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.append((node.lineno, target.attr))
        for child in ast.iter_child_nodes(node):
            walk(child, locked)

    body = getattr(method, "body", [])
    for stmt in body if isinstance(body, list) else [body]:
        walk(stmt, False)
    return out


@rule
class SharedStateUnlockedMutation(Rule):
    """``@shared_state`` fields need a lock on loop-reachable paths.

    Classes marked ``@shared_state`` (the runtime race sanitizer's
    model, ``repro.obs.racesan``) are touched from reactor loops, the
    dispatch pool, and gossip threads at once.  The rule walks the same
    conservative call graph as GL101 from every reactor-callback
    registration, and flags ``self.field = ...`` / ``+=`` mutations in
    reachable methods of shared classes with no lock-like ``with`` on
    the lexical path.  "Lexical path" is chain-sensitive: a method is
    exempt when **every** seed-to-method chain passes through at least
    one lock-holding call site — that is the ``FrameDecoder`` idiom,
    where the owning channel's ``_rx_cond`` guards all reactor entry
    points even though the decoder methods themselves take no lock.
    Deliberately loop-confined state (single owner, no mutex by design)
    carries a suppression naming the owner; the runtime sanitizer
    verifies that claim with its reactor-ownership token.
    """

    code = "GL106"
    title = "unlocked @shared_state mutation on a loop-reachable path"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = CallGraph(project)
        chains = graph.reachable_from_seeds()
        locked_in = self._locked_on_all_paths(graph, chains, project)
        for source in project.sources:
            for cls in source.tree.body:
                if not (
                    isinstance(cls, ast.ClassDef) and _is_shared_state_class(cls)
                ):
                    continue
                for method in cls.body:
                    if not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if method.name == "__init__":
                        continue  # construction precedes sharing
                    key = (source.path, f"{cls.name}.{method.name}")
                    chain = chains.get(key)
                    if chain is None:
                        continue
                    if locked_in.get(key, False):
                        continue
                    for line, field_name in _unlocked_self_writes(method):
                        yield Finding(
                            code=self.code,
                            path=source.path,
                            line=line,
                            message=(
                                f"self.{field_name} mutated without a lock in "
                                f"{cls.name}.{method.name}, reachable from a "
                                f"reactor callback ({' -> '.join(chain)}); "
                                "guard it, or suppress naming the single "
                                "owner that serializes access"
                            ),
                        )

    @staticmethod
    def _locked_call_lines(project: Project) -> dict[tuple[str, int], bool]:
        """(path, line) -> True when every call starting on that line
        sits lexically inside a lock-like ``with``.  Nested function
        bodies restart unlocked — they run later, not under the with."""
        locked_lines: dict[tuple[str, int], bool] = {}

        def walk(path: str, node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With):
                now = locked or any(_is_locklike(item) for item in node.items)
                for child in ast.iter_child_nodes(node):
                    walk(path, child, now)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.iter_child_nodes(node):
                    walk(path, child, False)
                return
            if isinstance(node, ast.Lambda):
                walk(path, node.body, False)
                return
            if isinstance(node, ast.Call):
                key = (path, node.lineno)
                locked_lines[key] = locked_lines.get(key, True) and locked
            for child in ast.iter_child_nodes(node):
                walk(path, child, locked)

        for source in project.sources:
            walk(source.path, source.tree, False)
        return locked_lines

    @classmethod
    def _locked_on_all_paths(
        cls,
        graph: CallGraph,
        chains: dict[tuple[str, str], list[str]],
        project: Project,
    ) -> dict[tuple[str, str], bool]:
        """node key -> True when every seed-to-node chain crosses a
        lock-holding call site.

        Greatest-fixpoint dataflow over the reachable subgraph:
        ``locked_in(n) = AND over incoming edges (locked_in(caller) OR
        edge holds a lock)``.  Seed callbacks start unlocked (the
        reactor invokes them bare), everything else starts optimistic
        and is knocked down as unlocked paths are discovered.
        """
        locked_lines = cls._locked_call_lines(project)
        locked_in = {key: True for key in chains}
        for _, target in graph.seeds():
            if target.key in locked_in:
                locked_in[target.key] = False
        changed = True
        while changed:
            changed = False
            for key in chains:
                fn = graph.nodes.get(key)
                if fn is None:
                    continue
                for kind, name, line in fn.calls:
                    for callee in graph.resolve(fn, kind, name):
                        if not locked_in.get(callee.key, False):
                            continue
                        edge_locked = locked_in[key] or locked_lines.get(
                            (fn.path, line), False
                        )
                        if not edge_locked:
                            locked_in[callee.key] = False
                            changed = True
        return locked_in


@rule
class SharedStateEscapeAfterSpawn(Rule):
    """No ``@shared_state`` field rebinds after publishing ``self``.

    Handing ``self`` (or a bound method, or a closure over ``self``) to
    ``Thread(target=...)``, ``schedule``, ``call_later``/``call_every``,
    ``add_channel``, ``register_fd``, or ``set_ready_callback``
    publishes the object to another thread; any later unlocked
    ``self.field = ...`` in the same method races the new thread's first
    access — the classic escape-after-spawn bug, where ``__init__``
    starts its worker and then keeps initialising.  Finish initialising
    first, publish last; late rebinds that are genuinely safe (the
    spawned side provably waits) carry a suppression saying why.
    """

    code = "GL107"
    title = "@shared_state field rebound after publication to another thread"

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.sources:
            for cls in source.tree.body:
                if not (
                    isinstance(cls, ast.ClassDef) and _is_shared_state_class(cls)
                ):
                    continue
                for method in cls.body:
                    if not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    published = self._publication(method)
                    if published is None:
                        continue
                    pub_line, pub_what = published
                    for line, field_name in _unlocked_self_writes(
                        method, after_line=pub_line
                    ):
                        yield Finding(
                            code=self.code,
                            path=source.path,
                            line=line,
                            message=(
                                f"self.{field_name} rebound after {pub_what} "
                                f"(line {pub_line}) published self to another "
                                f"thread in {cls.name}.{method.name}; publish "
                                "last, or take the lock both sides share"
                            ),
                        )

    @staticmethod
    def _publication(method: ast.AST) -> Optional[tuple[int, str]]:
        """First (line, call) in ``method`` that hands self to a thread."""
        best: Optional[tuple[int, str]] = None
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if name not in PUBLICATION_CALLS:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            mentions_self = any(
                isinstance(sub, ast.Name) and sub.id == "self"
                for arg in args
                for sub in ast.walk(arg)
            )
            if not mentions_self:
                continue
            if best is None or node.lineno < best[0]:
                best = (node.lineno, f"{name}(...)")
        return best
