"""repro — a proxy-server computational grid (Middleware 2003 reproduction).

Full reimplementation of Costa, Zorzo & Guardia, *An Architecture For
Computational Grids Based On Proxy Servers*: grid middleware whose entire
control, security, monitoring and MPI-support machinery lives in per-site
border proxies rather than in every node.

Quick tour
----------
>>> from repro import Grid
>>> grid = Grid()
>>> _ = grid.add_site("A", nodes=2)
>>> _ = grid.add_site("B", nodes=2)
>>> grid.connect_all()                      # CA certs + secure tunnels
>>> grid.add_user("alice", "pw")
>>> grid.grant("user:alice", "site:*", "submit")
>>> token = grid.login("alice", "pw")       # one password check per session
>>> grid.submit_job_with_token(token, "echo", {"value": 42}, target_site="B")
42
>>> from repro.mpi.datatypes import SUM
>>> grid.run_mpi(lambda c: c.allreduce(1, SUM), nprocs=4).returns
[4, 4, 4, 4]
>>> grid.shutdown()

Packages
--------
==========================  ==================================================
:mod:`repro.core`           the proxy architecture (paper's contribution)
:mod:`repro.transport`      layer 1: frames, channels, in-proc + TCP
:mod:`repro.security`       layer 2: CA, certificates, handshake, auth, tokens
:mod:`repro.control`        layer 3: monitoring, scheduling, failure detection
:mod:`repro.mpi`            layer 4 substrate: a from-scratch MPI ("minimpi")
:mod:`repro.simulation`     discrete-event substrate for scaled experiments
:mod:`repro.baselines`      per-node-security and centralised-control baselines
:mod:`repro.workloads`      seeded synthetic workload generators
:mod:`repro.ui`             command line + web access interface
:mod:`repro.threads`        distributed threads (paper future work)
==========================  ==================================================
"""

from repro.core.grid import Grid, GridError

__version__ = "1.0.0"

__all__ = ["Grid", "GridError", "__version__"]
