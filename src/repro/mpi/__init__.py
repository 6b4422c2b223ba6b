"""minimpi — a from-scratch MPI-like message-passing library.

The paper's layer 4 supports *unmodified* MPI applications across the
grid; reproducing that requires an MPI whose applications we can run both
on a single "cluster" and through the proxy's virtual-slave multiplexer
with zero source changes.  minimpi provides the MPI core that matters for
the paper's claims:

* communicators with ranks and sizes (:mod:`repro.mpi.communicator`);
* blocking/non-blocking point-to-point with tags and wildcard matching;
* the standard collectives, built algorithmically on point-to-point
  (:mod:`repro.mpi.collectives`);
* an ``mpirun``-style launcher that places ranks round-robin over nodes —
  the paper notes "in its original form, the MPI uses the round-robin
  method to distribute the processes among the nodes"
  (:mod:`repro.mpi.launcher`).

Ranks run as Python threads, started in one place
(:func:`~repro.mpi.launcher.launch_ranks`) for ``mpirun`` and for
``Grid.run_mpi`` alike; a run's ``timeout`` is one deadline for all of
its ranks.  All communication goes through a
:class:`~repro.mpi.router.Router`, the seam where the proxy interposes:
a local router delivers directly (Fig. 3a); the proxy's multiplexer
substitutes virtual-slave routing for inter-site ranks (Fig. 3b) without
the application noticing.
"""

from repro.mpi.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    MpiError,
    Request,
    Status,
)
from repro.mpi.datatypes import MAX, MIN, PROD, SUM, ReduceOp
from repro.mpi.launcher import MpiJobResult, mpirun
from repro.mpi.router import Endpoint, LocalRouter, Router

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Endpoint",
    "LocalRouter",
    "MAX",
    "MIN",
    "MpiError",
    "MpiJobResult",
    "PROD",
    "ReduceOp",
    "Request",
    "Router",
    "SUM",
    "Status",
    "mpirun",
]
