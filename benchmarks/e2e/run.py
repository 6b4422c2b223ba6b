"""Entry point: ``python3 benchmarks/e2e/run.py [options]``.

Puts the checkout's ``src`` and root on ``sys.path`` (so the command
needs no ``PYTHONPATH``) and hands over to :mod:`benchmarks.e2e.cli`.
Exits 2 without printing a result when the checkout holds no grid to
measure (no ``src/repro``).
"""

import os
import sys


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    source = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(
            f"benchmarks.e2e: nothing to measure — {source}/repro is missing",
            file=sys.stderr,
        )
        return 2
    # Run as a script, this directory leads sys.path and its trace.py would
    # shadow the standard library's module of the same name.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != here]
    for path in (source, root):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
