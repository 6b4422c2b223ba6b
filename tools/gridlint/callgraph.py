"""A conservative project call graph for reactor-reachability analysis.

GL101 needs to answer: "can this blocking call run on a reactor event
loop thread?"  Exact answers need types; this module settles for a
resolution policy that is *precise enough to act on*:

* ``self.method(...)`` resolves to a method of the enclosing class;
* ``name(...)`` resolves to a function of the same module;
* ``obj.method(...)`` resolves within the same module first, then
  project-wide **only when exactly one function defines that name** —
  fan-out names (``send``, ``close``, ``start``) are deliberately cut
  rather than over-approximated into noise.

Lambdas get synthetic nodes (``parent.<lambda@LINE>``) analysed with the
enclosing class context, because half the reactor callbacks in this
codebase are registered as lambdas.

What the cut edges miss at analysis time, the runtime
:class:`repro.obs.lockwatch.LockOrderWatchdog` and the loop-thread
fail-fast guards (:func:`repro.transport.reactor.on_reactor_thread`)
cover at test time — the static and dynamic checks are designed as a
pair.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from tools.gridlint.engine import Project, Source

__all__ = ["BlockingSite", "CallGraph", "FunctionNode", "SEED_CALL_NAMES"]

#: Attribute names whose call arguments are treated as reactor-context
#: callbacks.  ``blocking=True`` keyword exempts the registration (the
#: dispatch pipeline bounces those handlers to its worker pool).
SEED_CALL_NAMES = frozenset(
    {
        "set_ready_callback",
        "call_later",
        "call_every",
        "register_fd",
        "modify_fd",
        "add_channel",
        "register",
        "on_frame",
        "on_close",
        "add_guard",
        "set_default",
    }
)

#: ``.schedule(fn)`` is only a reactor seed when the receiver looks like
#: an event loop — schedulers elsewhere (job scheduling) share the name.
_SCHEDULE_RECEIVER_HINTS = ("loop", "reactor")


@dataclass(frozen=True)
class BlockingSite:
    """One primitive call that can block the calling thread indefinitely."""

    line: int
    description: str


@dataclass
class FunctionNode:
    """One function/method/lambda in the project graph."""

    path: str
    qualname: str
    cls: Optional[str]
    lineno: int
    end_lineno: int
    calls: list[tuple[str, str, int]] = field(default_factory=list)
    blocking: list[BlockingSite] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str]:
        return (self.path, self.qualname)

    @property
    def short(self) -> str:
        return f"{self.path}:{self.qualname}"


def _time_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases of ``time``, names bound to ``time.sleep``)."""
    modules: set[str] = set()
    sleeps: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    sleeps.add(alias.asname or alias.name)
    return modules, sleeps


def _call_has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _receiver_text(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_receiver_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _receiver_text(node.func) + "()"
    return "?"


def _classify_blocking(
    call: ast.Call, time_modules: set[str], sleep_names: set[str]
) -> Optional[str]:
    """Return a description when ``call`` is a blocking primitive."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in sleep_names:
        return "time.sleep()"
    if isinstance(func, ast.Attribute):
        receiver = func.value
        attr = func.attr
        if (
            attr == "sleep"
            and isinstance(receiver, ast.Name)
            and receiver.id in time_modules
        ):
            return "time.sleep()"
        if (
            attr == "create_connection"
            and isinstance(receiver, ast.Name)
            and receiver.id == "socket"
        ):
            return "socket.create_connection()"
        if attr == "fsync" and isinstance(receiver, ast.Name) and receiver.id == "os":
            return "os.fsync()"
        if attr == "acquire":
            # acquire() / acquire(True) / acquire(blocking=True) with no
            # timeout can park the thread forever.
            has_timeout = _call_has_kwarg(call, "timeout") or len(call.args) >= 2
            nonblocking = any(
                isinstance(arg, ast.Constant) and arg.value is False
                for arg in call.args[:1]
            ) or any(
                kw.arg == "blocking"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in call.keywords
            )
            if not has_timeout and not nonblocking:
                return f"blocking {_receiver_text(receiver)}.acquire()"
        if attr == "join" and not call.args and not call.keywords:
            return f"{_receiver_text(receiver)}.join() with no timeout"
        if attr == "wait" and not call.args and not _call_has_kwarg(call, "timeout"):
            return f"{_receiver_text(receiver)}.wait() with no timeout"
        if attr in ("accept", "connect", "sendall") and not _call_has_kwarg(
            call, "timeout"
        ):
            return f"blocking socket op {_receiver_text(receiver)}.{attr}()"
        if attr == "recv" and not _call_has_kwarg(call, "timeout"):
            return f"{_receiver_text(receiver)}.recv() with no timeout"
    return None


def _is_seed_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    name = func.attr
    if name == "schedule":
        receiver = _receiver_text(func.value).lower()
        return any(hint in receiver for hint in _SCHEDULE_RECEIVER_HINTS)
    if name not in SEED_CALL_NAMES:
        return False
    if name == "register":
        # Only dispatch-pipeline registrations seed reactor context —
        # `register` is a common method name (task registries, plugin
        # tables) whose callbacks run on worker threads.  Require the
        # op-registration shape: first arg `Op.X`, or a receiver that is
        # recognisably the pipeline.
        first_is_op = bool(call.args) and (
            isinstance(call.args[0], ast.Attribute)
            and isinstance(call.args[0].value, ast.Name)
            and call.args[0].value.id == "Op"
        )
        receiver = _receiver_text(func.value).lower()
        if not first_is_op and not any(
            hint in receiver for hint in ("pipe", "dispatch", "selector")
        ):
            return False
    # pipeline.register(op, fn, blocking=True) hands fn to a worker pool.
    return not any(
        kw.arg == "blocking"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


class _FunctionCollector(ast.NodeVisitor):
    """Collect function nodes (including lambdas) with class context."""

    def __init__(self, source: Source) -> None:
        self.source = source
        self.nodes: list[FunctionNode] = []
        self._class_stack: list[str] = []
        self._qual_stack: list[str] = []
        self._time_modules, self._sleep_names = _time_aliases(source.tree)

    # -- structure -------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self._qual_stack.append(node.name)
        self.generic_visit(node)
        self._qual_stack.pop()
        self._class_stack.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda, name: str
    ) -> None:
        qualname = ".".join([*self._qual_stack, name])
        fn = FunctionNode(
            path=self.source.path,
            qualname=qualname,
            cls=self._class_stack[-1] if self._class_stack else None,
            lineno=node.lineno,
            end_lineno=getattr(node, "end_lineno", None) or node.lineno,
        )
        self.nodes.append(fn)
        body = node.body if isinstance(node.body, list) else [node.body]
        self._qual_stack.append(name)
        for stmt in body:
            self._scan_body(stmt, fn)
        self._qual_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, f"<lambda@L{node.lineno}>")

    # -- body scanning ---------------------------------------------------

    def _scan_body(self, stmt: ast.AST, fn: FunctionNode) -> None:
        """Record calls/blocking sites of ``fn``, descending into nested
        defs separately (they are their own nodes)."""
        for node in _walk_shallow(stmt):
            if isinstance(node, ast.Call):
                description = _classify_blocking(
                    node, self._time_modules, self._sleep_names
                )
                if description is not None:
                    fn.blocking.append(BlockingSite(node.lineno, description))
                self._record_call(node, fn)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # Nested function: give it its own node, and record an
                # edge so reachability flows through closures the parent
                # merely *defines* are NOT followed — only ones it calls
                # or registers.
                self.visit(node)

    def _record_call(self, call: ast.Call, fn: FunctionNode) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            fn.calls.append(("local", func.id, call.lineno))
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                fn.calls.append(("self", func.attr, call.lineno))
            else:
                fn.calls.append(("attr", func.attr, call.lineno))


def _walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/lambda bodies."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # its body belongs to its own node
        stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """Function index + resolution + reactor-seed discovery."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.nodes: dict[tuple[str, str], FunctionNode] = {}
        self._sources_by_path: dict[str, Source] = {
            source.path: source for source in project.sources
        }
        #: per module: plain function name -> node keys
        self._module_funcs: dict[str, dict[str, list[tuple[str, str]]]] = {}
        #: per (module, class): method name -> node key
        self._methods: dict[tuple[str, str], dict[str, tuple[str, str]]] = {}
        #: project-wide: name -> node keys (for unique-name resolution)
        self._by_name: dict[str, list[tuple[str, str]]] = {}
        for source in project.sources:
            collector = _FunctionCollector(source)
            for stmt in source.tree.body:
                collector.visit(stmt)
            for fn in collector.nodes:
                self.nodes[fn.key] = fn
                simple = fn.qualname.rsplit(".", 1)[-1]
                if fn.cls is not None and fn.qualname == f"{fn.cls}.{simple}":
                    self._methods.setdefault((fn.path, fn.cls), {})[simple] = fn.key
                if "." not in fn.qualname:
                    self._module_funcs.setdefault(fn.path, {}).setdefault(
                        simple, []
                    ).append(fn.key)
                if not simple.startswith("<"):
                    self._by_name.setdefault(simple, []).append(fn.key)

    # -- resolution ------------------------------------------------------

    def resolve(self, fn: FunctionNode, kind: str, name: str) -> list[FunctionNode]:
        if kind == "self" and fn.cls is not None:
            key = self._methods.get((fn.path, fn.cls), {}).get(name)
            return [self.nodes[key]] if key else []
        if kind == "local":
            keys = self._module_funcs.get(fn.path, {}).get(name, [])
            return [self.nodes[k] for k in keys]
        if kind == "attr":
            # Same module first (any class), then unique project-wide.
            same_module = [
                self.nodes[key]
                for (path, _), methods in self._methods.items()
                if path == fn.path
                for mname, key in methods.items()
                if mname == name
            ]
            if same_module:
                return same_module
            keys = self._by_name.get(name, [])
            if len(keys) == 1:
                return [self.nodes[keys[0]]]
        return []

    # -- seeds -----------------------------------------------------------

    def seeds(self) -> list[tuple[FunctionNode, FunctionNode]]:
        """(registering function, callback function) for every reactor
        callback registration found in the project."""
        out: list[tuple[FunctionNode, FunctionNode]] = []
        for source in self.project.sources:
            for node in ast.walk(source.tree):
                if not (isinstance(node, ast.Call) and _is_seed_call(node)):
                    continue
                owner = self._enclosing_function(source, node)
                if owner is None:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for target in self._callback_targets(owner, arg):
                        out.append((owner, target))
        return out

    def _enclosing_function(
        self, source: Source, call: ast.Call
    ) -> Optional[FunctionNode]:
        """Innermost function node whose span contains ``call``."""
        best: Optional[FunctionNode] = None
        for fn in self.nodes.values():
            if fn.path != source.path:
                continue
            if not (fn.lineno <= call.lineno <= fn.end_lineno):
                continue
            if best is None or fn.lineno > best.lineno:
                best = fn
        return best

    def _callback_targets(
        self, owner: FunctionNode, arg: ast.AST, depth: int = 0
    ) -> list[FunctionNode]:
        if depth > 3:  # partial-of-partial-of-wrapper is deep enough
            return []
        if isinstance(arg, ast.Lambda):
            key = self._lambda_key(owner, arg)
            node = self.nodes.get(key)
            return [node] if node else []
        if isinstance(arg, ast.Call):
            # The registered callable is *constructed* here, not named:
            # ``partial(fn, ...)`` runs ``fn``; a single-decorator
            # wrapper ``deco(fn)`` runs both ``deco``'s closure and
            # (almost always) ``fn``.  Resolve through to the wrapped
            # callable in both shapes so GL101/GL105 see it.
            func = arg.func
            if (isinstance(func, ast.Name) and func.id == "partial") or (
                isinstance(func, ast.Attribute) and func.attr == "partial"
            ):
                if arg.args:
                    return self._callback_targets(owner, arg.args[0], depth + 1)
                return []
            out = list(self._callback_targets(owner, func, depth + 1))
            for inner in list(arg.args) + [kw.value for kw in arg.keywords]:
                if isinstance(inner, (ast.Name, ast.Attribute, ast.Lambda)):
                    out.extend(self._callback_targets(owner, inner, depth + 1))
            return out
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            if arg.value.id == "self":
                return self.resolve(owner, "self", arg.attr)
            return self.resolve(owner, "attr", arg.attr)
        if isinstance(arg, ast.Name):
            direct = self.resolve(owner, "local", arg.id)
            if direct:
                return direct
            # A plain variable: follow one local ``name = partial(...)``
            # (or ``name = deco(fn)``) assignment inside the registering
            # function, the common two-line registration idiom.
            assigned = self._local_assignment(owner, arg.id)
            if assigned is not None:
                return self._callback_targets(owner, assigned, depth + 1)
        return []

    def _local_assignment(
        self, owner: FunctionNode, name: str
    ) -> Optional[ast.AST]:
        """The value last assigned to local ``name`` inside ``owner``."""
        source = self._sources_by_path.get(owner.path)
        if source is None:
            return None
        found: Optional[ast.AST] = None
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Assign)
                and owner.lineno <= node.lineno <= owner.end_lineno
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
            ):
                continue
            if found is None or node.lineno > getattr(found, "lineno", 0):
                found = node.value
        return found

    def _lambda_key(self, owner: FunctionNode, node: ast.Lambda) -> tuple[str, str]:
        for key, fn in self.nodes.items():
            if fn.path == owner.path and fn.qualname.endswith(
                f"<lambda@L{node.lineno}>"
            ):
                return key
        return (owner.path, f"<lambda@L{node.lineno}>")

    # -- reachability ----------------------------------------------------

    def reachable_from_seeds(self) -> dict[tuple[str, str], list[str]]:
        """node key -> human-readable chain from its nearest seed."""
        chains: dict[tuple[str, str], list[str]] = {}
        frontier: list[FunctionNode] = []
        for owner, target in self.seeds():
            if target.key not in chains:
                chains[target.key] = [
                    f"registered in {owner.short}",
                    target.short,
                ]
                frontier.append(target)
        while frontier:
            fn = frontier.pop()
            for kind, name, _ in fn.calls:
                for callee in self.resolve(fn, kind, name):
                    if callee.key in chains:
                        continue
                    chains[callee.key] = chains[fn.key] + [callee.short]
                    frontier.append(callee)
        return chains
