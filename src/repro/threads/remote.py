"""Grid threads: thread-like handles over remote execution.

A :class:`GridThread` looks like :class:`threading.Thread` — ``start``,
``join``, ``is_alive``, plus ``result()`` — but its body is a registered
task executed on a grid node chosen by the scheduler, possibly at a
remote site.  It runs under the caller's token blob from one
:meth:`Grid.login` — one authentication per session, not per task — and
placement and permission checking ride the existing proxy path; nothing
new crosses the wire.

:class:`GridExecutor` adds the convenience layer: submit many tasks, map
over parameter lists, gather results — a minimal
``concurrent.futures``-style interface for the grid.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

from repro.core.grid import Grid

__all__ = ["MAP_IN_FLIGHT", "GridExecutor", "GridThread", "GridThreadError"]

#: Most tasks one :meth:`GridExecutor.map` keeps running at once.
MAP_IN_FLIGHT = 8


class GridThreadError(Exception):
    """Misuse of a grid thread (double start, result before join, ...)."""


class GridThread:
    """One unit of work running somewhere on the grid, under ``token``."""

    def __init__(
        self,
        grid: Grid,
        token: bytes,
        task: str,
        params: Optional[dict] = None,
        target_site: Optional[str] = None,
        origin_site: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.grid = grid
        self.token = token
        self.task = task
        self.params = params or {}
        self.target_site = target_site
        self.origin_site = origin_site
        self.timeout = timeout
        self._thread: Optional[threading.Thread] = None
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._finished = threading.Event()

    def start(self) -> "GridThread":
        if self._thread is not None:
            raise GridThreadError("grid thread already started")

        def body() -> None:
            try:
                self._result = self.grid.submit_job_with_token(
                    self.token,
                    self.task,
                    params=self.params,
                    origin_site=self.origin_site,
                    target_site=self.target_site,
                    timeout=self.timeout,
                )
            except BaseException as exc:
                self._error = exc
            finally:
                self._finished.set()

        self._thread = threading.Thread(  # gridlint: disable=GL102 -- GridThread mirrors a remote thread with a local one; collected via result()
            target=body, daemon=True, name=f"grid-thread-{self.task}"
        )
        self._thread.start()
        return self

    def is_alive(self) -> bool:
        return self._thread is not None and not self._finished.is_set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is None:
            raise GridThreadError("grid thread was never started")
        if not self._finished.wait(timeout=timeout):
            raise TimeoutError(f"grid thread {self.task!r} still running")

    def result(self) -> Any:
        """The task's return value; raises its error.  Requires join."""
        if not self._finished.is_set():
            raise GridThreadError("grid thread not finished; join() first")
        if self._error is not None:
            raise self._error
        return self._result


class GridExecutor:
    """Submit-many / map interface over grid threads.

    Every task runs under ``token``, the blob one :meth:`Grid.login`
    returned.  The executor never logs in and never refreshes: a task
    submitted after the token expired (or was revoked) fails, and
    ``result()`` raises that token error.  Log in again, or refresh the
    token (``ProxyServer.auth_refresh``), and build a new executor.
    """

    def __init__(
        self,
        grid: Grid,
        token: bytes,
        origin_site: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.grid = grid
        self.token = token
        self.origin_site = origin_site
        self.timeout = timeout
        self._threads: list[GridThread] = []

    def submit(
        self,
        task: str,
        params: Optional[dict] = None,
        target_site: Optional[str] = None,
    ) -> GridThread:
        thread = GridThread(
            self.grid,
            self.token,
            task,
            params=params,
            target_site=target_site,
            origin_site=self.origin_site,
            timeout=self.timeout,
        ).start()
        self._threads.append(thread)
        return thread

    def map(
        self,
        task: str,
        param_list: Sequence[dict],
        spread_sites: bool = True,
    ) -> list[Any]:
        """Run ``task`` once per parameter dict; returns ordered results.

        With ``spread_sites`` the invocations round-robin across the
        grid's sites (distributed threads in the literal sense).  At most
        :data:`MAP_IN_FLIGHT` run at once: task ``i`` starts only after
        task ``i - MAP_IN_FLIGHT`` has finished.
        """
        sites = sorted(self.grid.sites) if spread_sites else [None]
        threads: list[GridThread] = []
        for index, params in enumerate(param_list):
            if index >= MAP_IN_FLIGHT:
                threads[index - MAP_IN_FLIGHT].join(timeout=self.timeout)
            threads.append(
                self.submit(
                    task, params=params, target_site=sites[index % len(sites)]
                )
            )
        for thread in threads:
            thread.join(timeout=self.timeout)
        return [thread.result() for thread in threads]

    def shutdown(self, timeout: Optional[float] = 60.0) -> None:
        """Wait for every outstanding thread."""
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout=timeout)
