"""Run every experiment and print its table (no pytest needed).

Usage:  python benchmarks/run_all.py [--quick] [e4 e6 obs ...]

Each experiment module exposes ``run_experiment`` (plus shape checks);
this driver executes them in order and prints the same tables the
pytest benchmarks save under benchmarks/results/.

``--quick`` runs a smoke pass: experiments that support it (currently
``obs``, ``racesan``, ``wms`` and ``tests``) shrink their
workloads so the whole sweep finishes in seconds — useful for CI and for
checking nothing is broken before a full measurement run.

The ``tests`` profile runs the pytest suite in stages (it is not listed
in the default sweep; ask for it by name).  ``--quick`` limits it to
unit + property tests; the full profile adds integration and the chaos
resilience suite (``-m chaos``), and — when ``pytest-cov`` happens to be
installed — enforces the coverage gate ``--cov=repro
--cov-fail-under=80`` on the tier-1 stage.  Without ``pytest-cov`` the
gate is skipped, never failed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    # `python benchmarks/run_all.py` puts benchmarks/ (not the repo
    # root) on sys.path; the package imports below need the root.
    sys.path.insert(0, _ROOT)

from benchmarks.common import format_table


def run_test_profile(quick: bool) -> list[dict]:
    """Run the pytest suite in stages; one table row per stage."""
    if quick:
        stages = [("unit+property", ["tests/unit", "tests/property"])]
    else:
        stages = [
            ("tier-1 (full default run)", ["tests"]),
            ("chaos resilience", ["-m", "chaos", "tests/chaos"]),
        ]
    has_cov = importlib.util.find_spec("pytest_cov") is not None
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    rows = []
    for name, args in stages:
        cmd = [sys.executable, "-m", "pytest", "-q", *args]
        gated = not quick and has_cov and name.startswith("tier-1")
        if gated:
            cmd += ["--cov=repro", "--cov-fail-under=80"]
        start = time.perf_counter()
        result = subprocess.run(cmd, cwd=_ROOT, env=env)
        rows.append(
            {
                "stage": name,
                "coverage gate": "on" if gated else "off (pytest-cov absent)"
                if not quick else "off (quick)",
                "outcome": "passed" if result.returncode == 0 else
                f"FAILED (rc={result.returncode})",
                "seconds": round(time.perf_counter() - start, 1),
            }
        )
    return rows


def run_gridlint() -> list[dict]:
    """Run the invariant checker over ``src/repro``; one summary row.

    Part of the default sweep: a measurement run on a tree that violates
    its own concurrency/observability invariants is not worth keeping.
    """
    cmd = [sys.executable, "-m", "tools.gridlint", "src/repro", "--format=json"]
    start = time.perf_counter()
    result = subprocess.run(cmd, cwd=_ROOT, capture_output=True, text=True)
    try:
        payload = json.loads(result.stdout or "{}")
    except ValueError:
        payload = {}
    if result.returncode != 0 and result.stdout:
        print(result.stdout)
    return [
        {
            "files": payload.get("checked_files", "?"),
            "rules": len(payload.get("rules", [])),
            "findings": len(payload.get("findings", [])),
            "suppressed": len(payload.get("suppressed", [])),
            "baselined": len(payload.get("baselined", [])),
            "outcome": "passed"
            if result.returncode == 0
            else f"FAILED (rc={result.returncode})",
            "seconds": round(time.perf_counter() - start, 1),
        }
    ]


def main(argv: list[str]) -> int:
    import benchmarks.bench_e1_topology as e1
    import benchmarks.bench_e2_layers as e2
    import benchmarks.bench_e3_mpi_paths as e3
    import benchmarks.bench_e4_edge_tunneling as e4
    import benchmarks.bench_e5_monitoring as e5
    import benchmarks.bench_e6_scheduling as e6
    import benchmarks.bench_e7_failures as e7
    import benchmarks.bench_e8_tickets as e8
    import benchmarks.bench_e9_handshake as e9
    import benchmarks.bench_e10_multiproxy as e10
    import benchmarks.bench_e11_isolation as e11
    import benchmarks.bench_e12_owner_priority as e12
    import benchmarks.bench_obs as obs
    import benchmarks.bench_racesan as racesan
    import benchmarks.bench_wms as wms

    quick = "--quick" in argv
    selected = [a for a in argv if a != "--quick"]

    experiments = {
        "e1": lambda: [("E1 (Fig. 1): grid construction", e1.run_experiment())],
        "e2": lambda: [("E2 (Fig. 2): layer costs", e2.run_experiment())],
        "e3": lambda: [("E3 (Fig. 3a/3b): MPI paths", e3.run_experiment())],
        "e4": lambda: (
            lambda model: [
                ("E4a: crypto work vs cluster size", e4.sweep_cluster_size(model)),
                ("E4b: crypto work vs locality", e4.sweep_locality(model)),
            ]
        )(e4.calibrate_cost_model()),
        "e5": lambda: [("E5: monitoring overhead", e5.run_experiment())],
        "e6": lambda: [("E6: RR vs LB makespan", e6.run_experiment())],
        "e7": lambda: [
            ("E7a: capacity after failure", e7.sweep_capacity()),
            ("E7b: detection latency", e7.sweep_detection()),
        ],
        "e8": lambda: [("E8: ticket amortisation", e8.run_experiment())],
        "e9": lambda: [
            ("E9a: handshake cost", e9.run_experiment()),
            ("E9b: record throughput", e9.record_throughput()),
        ],
        "e10": lambda: [("E10: proxies per site", e10.run_experiment())],
        "e11": lambda: [("E11: crash isolation", e11.run_experiment())],
        "e12": lambda: [("E12: owner priority", e12.run_experiment())],
        "obs": lambda: [
            ("Obs: instrumentation overhead (gate <5% on tunnel_echo)",
             obs.run_tables(quick=quick)),
        ],
        "racesan": lambda: [
            ("Racesan: sanitizer overhead (gate <5% on tunnel_echo)",
             racesan.run_tables(quick=quick)),
        ],
        "wms": lambda: [
            ("WMS: matchmaking vs round-robin, chaos kill, durability",
             wms.run_tables(quick=quick)),
        ],
        "gridlint": lambda: [
            ("Gridlint: invariant checks over src/repro", run_gridlint()),
        ],
        "tests": lambda: [
            ("Test profile " + ("(quick)" if quick else "(full)"),
             run_test_profile(quick)),
        ],
    }
    wanted = selected or [name for name in experiments if name != "tests"]
    exit_code = 0
    for name in wanted:
        if name not in experiments:
            print(f"unknown experiment: {name!r} (know {sorted(experiments)})")
            return 1
        start = time.perf_counter()
        for title, rows in experiments[name]():
            print(format_table(title, rows))
            if any("FAILED" in str(value) for row in rows for value in row.values()):
                exit_code = 1
        print(f"[{name} took {time.perf_counter() - start:.1f}s]\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
