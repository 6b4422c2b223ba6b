"""End-to-end benchmark of the 3-site TCP grid (see README.md here).

One command, ``python3 benchmarks/e2e/run.py`` (or ``python -m
benchmarks.e2e`` with ``PYTHONPATH=src:.``), builds the real grid, runs
the workloads named in the repository's ``BENCHMARK.json``, checks every
result and prints every metric by name with its unit.
"""
