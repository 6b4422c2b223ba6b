"""mpirun: launch an MPI application across ranks.

Runs each rank's function on its own thread.  :func:`launch_ranks` is the
one place rank threads start: :func:`mpirun` binds every rank to one
:class:`~repro.mpi.router.LocalRouter` (one cluster), and the grid layer
binds each rank to its site's proxy-multiplexed router instead — exactly
as the paper requires, the application function does not change.
``timeout`` is one deadline for the whole run, however many ranks.

Placement mirrors the paper's observation that "in its original form, the
MPI uses the round-robin method to distribute the processes among the
nodes": :func:`round_robin_placement` is the default; the grid scheduler
offers the load-balanced alternative.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.control.retry import Deadline
from repro.mpi.communicator import Communicator
from repro.mpi.router import LocalRouter, Router

__all__ = ["MpiJobResult", "launch_ranks", "mpirun", "round_robin_placement"]


def round_robin_placement(nprocs: int, hosts: Sequence[str]) -> list[str]:
    """rank → host, cycling through hosts in order (MPI's native policy)."""
    if not hosts:
        raise ValueError("no hosts to place on")
    return [hosts[i % len(hosts)] for i in range(nprocs)]


@dataclass
class MpiJobResult:
    """Outcome of one MPI run (``mpirun`` or ``Grid.run_mpi``)."""

    returns: list[Any]
    errors: dict[int, BaseException] = field(default_factory=dict)
    placement: Optional[list[str]] = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first(self) -> None:
        """Re-raise the lowest-rank failure, if any."""
        if self.errors:
            rank = min(self.errors)
            raise self.errors[rank]


def _join(threads: Sequence[threading.Thread], timeout: Optional[float]) -> None:
    """Join every thread under one deadline of ``timeout`` seconds."""
    deadline = Deadline(timeout)
    for thread in threads:
        thread.join(None if timeout is None else deadline.clamp(timeout))


def launch_ranks(
    app: Callable[..., Any],
    nprocs: int,
    router_of: Callable[[int], Router],
    timeout: Optional[float],
    args: tuple,
    name: str,
    teardown: Callable[[bool], None],
) -> MpiJobResult:
    """Run ``app(comm, *args)`` on one thread per rank; join and collect.

    Rank ``r`` talks through ``router_of(r)``.  After the join,
    ``teardown(hung)`` runs exactly once, even if a rank never started;
    with ``hung`` true it must unblock the ranks still running, which
    then get a second to unwind before :class:`TimeoutError`.

    A rank that raises records its exception in the result rather than
    killing the process — the paper's reliability argument (§3) depends on
    application failures staying inside the application.
    """
    returns: list[Any] = [None] * nprocs
    errors: dict[int, BaseException] = {}
    errors_lock = threading.Lock()

    def run_rank(rank: int, router: Router) -> None:
        comm = Communicator(rank, nprocs, router)
        try:
            returns[rank] = app(comm, *args)
        except BaseException as exc:  # deliberately broad: report, don't die
            with errors_lock:
                errors[rank] = exc

    threads: list[threading.Thread] = []
    try:
        threads.extend(
            threading.Thread(  # gridlint: disable=GL102 -- MPI rank bodies are blocking user code; one thread per rank, joined below
                target=run_rank, args=(rank, router_of(rank)), name=f"{name}-rank-{rank}"
            )
            for rank in range(nprocs)
        )
        for thread in threads:
            thread.start()
        _join(threads, timeout)
    finally:
        hung = [thread for thread in threads if thread.is_alive()]
        teardown(bool(hung))
    if hung:
        _join(hung, 1.0)
        raise TimeoutError(
            f"{len(hung)} rank(s) of {name!r} did not finish within {timeout}s "
            f"(deadlock or lost message?)"
        )
    return MpiJobResult(returns=returns, errors=errors)


def mpirun(
    app: Callable[[Communicator], Any],
    nprocs: int,
    router: Optional[Router] = None,
    hosts: Optional[Sequence[str]] = None,
    timeout: Optional[float] = 120.0,
    args: tuple = (),
) -> MpiJobResult:
    """Run ``app(comm, *args)`` on ``nprocs`` ranks over one router.

    The default router is a fresh :class:`LocalRouter`, closed when the
    run ends; a caller's router is closed only to release hung ranks.
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive: {nprocs}")
    placement = None if hosts is None else round_robin_placement(nprocs, hosts)
    own_router = router is None
    shared = LocalRouter(nprocs) if router is None else router

    def teardown(hung: bool) -> None:
        if (own_router or hung) and isinstance(shared, LocalRouter):
            shared.close()

    result = launch_ranks(app, nprocs, lambda rank: shared, timeout, args, "mpi", teardown)
    result.placement = placement
    return result
