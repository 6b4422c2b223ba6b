"""Where things are, and the contract file that names every metric.

``BENCHMARK.json`` at the repository root is the single list of
workloads, metric names, units and regression bounds; the code looks
units and bounds up there and the self-test checks both agree.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = ["OUT_DIR", "PACKAGE_DIR", "REPO_ROOT", "load_spec"]

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))
#: everything the benchmark writes (results, traces, journals) lands here
OUT_DIR = os.path.join(PACKAGE_DIR, "out")


def load_spec() -> dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
