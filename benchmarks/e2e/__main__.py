"""``python -m benchmarks.e2e`` — same entry point as ``run.py``."""

from benchmarks.e2e.run import main

raise SystemExit(main())
