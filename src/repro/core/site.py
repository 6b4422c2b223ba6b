"""Sites: named collections of nodes behind a proxy.

A site models one administrative domain — a cluster or a LAN of
workstations.  In the live runtime, :class:`SiteNode` tracks a node's
capabilities and executes registered task kinds one at a time, on the
thread that asks; the simulation substrate models the same nodes
analytically for the scaled benchmarks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Site", "SiteNode", "TaskRegistry", "NodeStatus"]


@dataclass(frozen=True)
class NodeStatus:
    """What the Grid API reports about one station."""

    node: str
    site: str
    cpu_speed: float
    ram_total: int
    ram_free: int
    disk_total: int
    disk_free: int
    running_tasks: int
    tasks_completed: int
    alive: bool


class TaskRegistry:
    """Named task implementations a site is willing to execute.

    Remote job submissions name a task kind plus plain-data parameters;
    arbitrary code never crosses the wire (remote frames are untrusted).
    """

    def __init__(self):
        self._tasks: dict[str, Callable[..., Any]] = {}

    def register(self, kind: str, fn: Callable[..., Any]) -> None:
        if kind in self._tasks:
            raise ValueError(f"task kind already registered: {kind!r}")
        self._tasks[kind] = fn

    def get(self, kind: str) -> Callable[..., Any]:
        try:
            return self._tasks[kind]
        except KeyError:
            raise KeyError(f"unknown task kind: {kind!r}") from None

    def kinds(self) -> list[str]:
        return sorted(self._tasks)


def _default_tasks() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register("noop", lambda: None)
    registry.register("echo", lambda value=None: value)
    registry.register("sleep", lambda duration=0.0: time.sleep(duration))
    registry.register(
        "sum_range", lambda n=0: sum(range(int(n)))
    )  # a tiny CPU-bound kernel for demos
    return registry


class SiteNode:
    """One station: capabilities plus one CPU.

    Tasks execute one at a time (a 2003 workstation donates one CPU) on
    the thread that calls :meth:`execute`; callers that find the CPU
    taken wait for it.  ``fail()`` simulates a crash for the
    failure-injection tests.
    """

    def __init__(
        self,
        name: str,
        site: str,
        cpu_speed: float = 1.0,
        ram_total: int = 1 << 30,
        disk_total: int = 40 << 30,
        tasks: Optional[TaskRegistry] = None,
    ):
        if cpu_speed <= 0:
            raise ValueError(f"cpu speed must be positive: {cpu_speed}")
        self.name = name
        self.site = site
        self.cpu_speed = cpu_speed
        self.ram_total = ram_total
        self.disk_total = disk_total
        self.ram_used = 0
        self.disk_used = 0
        self.tasks = tasks or _default_tasks()
        self.tasks_completed = 0
        self._alive = threading.Event()
        self._alive.set()
        self._cpu = threading.Lock()  # held while a task runs

    def execute(
        self, kind: str, params: Optional[dict] = None, timeout: float = 60.0
    ) -> Any:
        """Run a registered task to completion; raises its error.

        ``timeout`` bounds the wait for the station's CPU, not the task.
        """
        if not self._alive.is_set():
            raise RuntimeError(f"node {self.name!r} is down")
        if not self._cpu.acquire(timeout=timeout):
            raise TimeoutError(f"task {kind!r} on {self.name!r} timed out")
        try:
            if not self._alive.is_set():  # crashed while this task queued
                raise RuntimeError(f"node {self.name!r} is down")
            try:
                return self.tasks.get(kind)(**(params or {}))
            finally:
                self.tasks_completed += 1
        finally:
            self._cpu.release()

    def fail(self) -> None:
        """Mark the node dead (failure injection)."""
        self._alive.clear()

    def recover(self) -> None:
        self._alive.set()

    @property
    def alive(self) -> bool:
        return self._alive.is_set()

    @property
    def running_tasks(self) -> int:
        return int(self._cpu.locked())

    def status(self) -> NodeStatus:
        return NodeStatus(
            node=self.name,
            site=self.site,
            cpu_speed=self.cpu_speed,
            ram_total=self.ram_total,
            ram_free=self.ram_total - self.ram_used,
            disk_total=self.disk_total,
            disk_free=self.disk_total - self.disk_used,
            running_tasks=self.running_tasks,
            tasks_completed=self.tasks_completed,
            alive=self.alive,
        )

    def shutdown(self) -> None:
        """Nothing to stop: a node owns no thread."""


@dataclass
class Site:
    """One administrative domain: nodes plus its proxy's name."""

    name: str
    nodes: dict[str, SiteNode] = field(default_factory=dict)
    proxy_name: str = ""
    #: site-level MPI router registry: every proxy fronting this site
    #: delivers inbound tunneled envelopes through the *site's* canonical
    #: router, so a multiplexed message arriving at a backup proxy still
    #: reaches the endpoints the ranks are actually blocked on.
    app_routers: dict = field(default_factory=dict, repr=False)
    _router_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def register_app_router(self, app_id: str, router) -> None:
        """First proxy to create the app's space owns the site's router."""
        with self._router_lock:
            self.app_routers.setdefault(app_id, router)

    def app_router(self, app_id: str):
        with self._router_lock:
            return self.app_routers.get(app_id)

    def unregister_app_router(self, app_id: str, router) -> None:
        with self._router_lock:
            if self.app_routers.get(app_id) is router:
                del self.app_routers[app_id]

    def add_node(
        self,
        name: str,
        cpu_speed: float = 1.0,
        ram_total: int = 1 << 30,
        disk_total: int = 40 << 30,
        tasks: Optional[TaskRegistry] = None,
    ) -> SiteNode:
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name!r}")
        node = SiteNode(
            name,
            self.name,
            cpu_speed=cpu_speed,
            ram_total=ram_total,
            disk_total=disk_total,
            tasks=tasks,
        )
        self.nodes[name] = node
        return node

    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    def alive_nodes(self) -> list[SiteNode]:
        return [node for node in self.nodes.values() if node.alive]

    def statuses(self) -> list[NodeStatus]:
        return [self.nodes[name].status() for name in self.node_names()]

    def shutdown(self) -> None:
        for node in self.nodes.values():
            node.shutdown()
