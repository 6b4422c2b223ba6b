"""Integration-suite configuration: race-sanitizer recording.

The integration tests run real proxies over real threads (reactor
loops, dispatch pools), which is exactly the traffic the
data-race sanitizer exists to observe.  Instrumentation happens once in
the root conftest; this fixture flips the recording gate per test so
unit/property suites stay at marker-only cost.
"""

from __future__ import annotations

import pytest

from repro.obs import racesan


@pytest.fixture(autouse=True)
def _racesan_recording():
    sanitizer = racesan.active()
    if sanitizer is None or sanitizer.recording:
        yield
        return
    sanitizer.recording = True
    try:
        yield
    finally:
        sanitizer.recording = False
