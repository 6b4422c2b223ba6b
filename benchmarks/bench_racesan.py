"""Racesan — overhead gate for the data-race sanitizer.

The sanitizer instruments attribute access on the hot shared classes
(``FrameDecoder``, ``ReactorTcpChannel``, the metrics registry), so its
cost rides the same data plane the obs gate protects.  Measured as
end-to-end frames/s through two secure reactor tunnels over TCP
loopback.

* **tunnel_echo_idle** — sanitizer installed but not recording, vs not
  installed at all.  This is what every default pytest session pays on
  every test (the root conftest installs at configure time), so it is
  the **gated** number: only the write path stays wrapped while idle —
  the attribute-*lookup* wrapper is patched in solely while recording —
  and that residue must stay under the 5% budget.
* **tunnel_echo_recording** — a recording sanitizer plus the lock-order
  watchdog, the exact chaos/integration-suite configuration.
  Report-only: full lockset refinement on every sampled access is real
  work by design (classic Eraser costs integer multiples, not percent),
  and the suites that opt in buy race detection with it.  The run also
  asserts the sanitizer actually sampled the path and found it clean.

Interleaved best-of-N like the obs gate.  Writes ``BENCH_racesan.json``;
run via ``python benchmarks/run_all.py racesan`` (CI uses ``--quick``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from benchmarks.bench_obs import _best_of, _overhead_pct, _tunnel_echo_rate
from benchmarks.common import save_table
from repro.obs import lockwatch, racesan

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_racesan.json"

GATE_LIMIT_PCT = 5.0


def _idle_rate(installed: bool, count: int) -> float:
    """Frames/s with the sanitizer idle (installed, not recording)."""
    if not installed:
        return _tunnel_echo_rate(True, count)
    fresh = racesan.active() is None
    if fresh:
        racesan.install()
    try:
        return _tunnel_echo_rate(True, count)
    finally:
        if fresh:
            racesan.uninstall()


def _recording_rate(count: int) -> float:
    """Frames/s under the full chaos/integration configuration."""
    # The sanitizer reads candidate locksets from the lock-order
    # watchdog; standalone (outside pytest) it is not installed yet and
    # every mutex-guarded access would look lockless.
    installed_here = lockwatch.active() is None
    if installed_here:
        lockwatch.install()
    try:
        with racesan.scoped(recording=True) as sanitizer:
            rate = _tunnel_echo_rate(True, count)
            # A benchmark that silently stopped watching anything would
            # "pass" forever: prove the run actually sampled the hot
            # path, and hold the tree to zero races while here.
            assert sanitizer.accesses_sampled > 0, "sanitizer observed nothing"
            sanitizer.assert_clean()
    finally:
        if installed_here:
            lockwatch.uninstall()
    return rate


def run_experiment(quick: bool = False) -> dict:
    repeats = 2 if quick else 3
    tunnel_count = 1200 if quick else 3000

    def measure_idle() -> dict[bool, float]:
        return _best_of(
            lambda on: _idle_rate(on, tunnel_count), [False, True], repeats + 2
        )

    idle = measure_idle()
    if _overhead_pct(idle[False], idle[True]) >= GATE_LIMIT_PCT:
        # Same weather rule as the obs gate: real overhead shows up in
        # every round, loopback-TCP noise does not survive best-of.
        retry = measure_idle()
        idle = {k: max(idle[k], retry[k]) for k in idle}

    recording = _best_of(
        lambda on: (
            _recording_rate(tunnel_count)
            if on
            else _idle_rate(False, tunnel_count)
        ),
        [False, True],
        repeats,
    )

    def scenario(rates: dict[bool, float], gated: bool) -> dict:
        overhead = _overhead_pct(rates[False], rates[True])
        return {
            "off_per_s": round(rates[False], 1),
            "on_per_s": round(rates[True], 1),
            "overhead_pct": round(overhead, 2),
            "gated": gated,
        }

    scenarios = {
        "tunnel_echo_idle": scenario(idle, gated=True),
        "tunnel_echo_recording": scenario(recording, gated=False),
    }
    gated_overhead = scenarios["tunnel_echo_idle"]["overhead_pct"]
    report = {
        "generated_by": "benchmarks/bench_racesan.py",
        "quick": quick,
        "scenarios": scenarios,
        "gate": {
            "scenario": "tunnel_echo_idle",
            "limit_pct": GATE_LIMIT_PCT,
            "overhead_pct": gated_overhead,
            "passed": gated_overhead < GATE_LIMIT_PCT,
        },
        "notes": (
            "idle = sanitizer installed, not recording — the cost every "
            "default pytest session pays, gated <5% like the obs tunnel "
            "gate.  recording = scoped sanitizer + lock-order watchdog "
            "at default sampling, the chaos/integration-suite opt-in "
            "configuration; report-only (lockset refinement on every "
            "sampled access costs multiples by design) and asserted "
            "race-free.  Interleaved best-of-N per variant."
        ),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_tables(quick: bool = False) -> list[dict]:
    """run_all.py entry point: one printable row per scenario."""
    report = run_experiment(quick)
    rows = []
    for name, data in report["scenarios"].items():
        if not data["gated"]:
            outcome = "report-only"
        elif data["overhead_pct"] < GATE_LIMIT_PCT:
            outcome = "passed"
        else:
            outcome = (
                f"FAILED ({data['overhead_pct']}% > {GATE_LIMIT_PCT}% budget)"
            )
        rows.append(
            {
                "scenario": name,
                "racesan_off_per_s": data["off_per_s"],
                "racesan_on_per_s": data["on_per_s"],
                "overhead_pct": data["overhead_pct"],
                "gate": outcome,
            }
        )
    return rows


def check_shape(report: dict) -> None:
    assert report["gate"]["passed"], report["gate"]
    for name in ("tunnel_echo_idle", "tunnel_echo_recording"):
        assert name in report["scenarios"], report


@pytest.mark.racesan
@pytest.mark.slow
@pytest.mark.benchmark(group="racesan")
def test_racesan_quick(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment(quick=True), rounds=1, iterations=1
    )
    check_shape(report)
    save_table(
        "racesan",
        "Racesan: sanitizer overhead (gate <5% idle on tunnel_echo)",
        run_tables(quick=True),
    )


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    report = run_experiment(quick=quick)
    print(json.dumps(report, indent=2))
    check_shape(report)
