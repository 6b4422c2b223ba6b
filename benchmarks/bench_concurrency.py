"""Concurrency-scaling benchmark: reactor vs thread-per-connection I/O.

The tentpole claim of the event-driven core is that tunnel count stops
costing threads: N tunnels share one loop thread instead of N receive
loops.  This benchmark measures both I/O modes at 10/100/500 concurrent
tunnels and records

* **io_threads_added** — threads the I/O layer spawned for N tunnels
  (reactor: O(loops), threaded: O(N)), and
* **frames_per_s** — aggregate delivery rate across all tunnels while a
  single producer fans identical frames across them round-robin.

Tunnels are fabricated from one master secret (both ends derive their
session keys directly, skipping the separately-benchmarked RSA
handshake — 500 handshakes would swamp the measurement) and run over
in-process channels so the comparison isolates the dispatch model from
socket-buffer effects.

Results land in ``BENCH_concurrency.json`` at the repo root, like
``BENCH_fastpath.json``.  Run directly (``python benchmarks/
bench_concurrency.py [--quick]``) or via ``run_all.py concurrency``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Optional

import pytest

from benchmarks.common import save_table
from repro.core.tunnel import Tunnel
from repro.security.cipher import (
    RecordCipher,
    derive_session_keys,
    random_master_secret,
)
from repro.security.handshake import PeerIdentity, SecureChannel
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import channel_pair

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_concurrency.json"

_PAYLOAD = b"\x42" * 1024
_SUITE = "shake128"


class _BenchPeer:
    """Stands in for a Certificate in PeerIdentity (bench only)."""

    subject = "bench-peer"
    role = "proxy"


def _secure_pair(name: str) -> tuple[SecureChannel, SecureChannel]:
    """Secure channel pair over an in-process buffer, no RSA handshake."""
    raw_a, raw_b = channel_pair(name)
    master = random_master_secret()
    ck = derive_session_keys(master, "client")
    sk = derive_session_keys(master, "server")
    peer = PeerIdentity(_BenchPeer())
    a = SecureChannel(raw_a, RecordCipher(ck, _SUITE), RecordCipher(sk, _SUITE), peer)
    b = SecureChannel(raw_b, RecordCipher(sk, _SUITE), RecordCipher(ck, _SUITE), peer)
    return a, b


def bench_mode(mode: str, n_tunnels: int, frames_per_tunnel: int) -> dict:
    """One cell of the sweep: N receiving tunnels in ``mode``."""
    total = n_tunnels * frames_per_tunnel
    threads_before = threading.active_count()

    senders: list[SecureChannel] = []
    receivers: list[Tunnel] = []
    seen = [0]
    done = threading.Event()
    lock = threading.Lock()

    def on_frame(frame):
        with lock:
            seen[0] += 1
            if seen[0] >= total:
                done.set()

    for index in range(n_tunnels):
        secure_a, secure_b = _secure_pair(f"conc-{mode}-{index}")
        tunnel = Tunnel(secure_b, f"recv-{index}")
        tunnel.on_frame(FrameKind.DATA, on_frame)
        tunnel.start(io=mode)
        assert tunnel.mode == mode, f"wanted {mode}, got {tunnel.mode}"
        senders.append(secure_a)
        receivers.append(tunnel)

    # Setup (thread creation, channel registration) is outside the clock.
    threads_during = threading.active_count()
    frame = Frame(kind=FrameKind.DATA, payload=_PAYLOAD)
    start = time.perf_counter()
    for _ in range(frames_per_tunnel):
        for sender in senders:
            sender.send(frame)
    assert done.wait(timeout=300.0), f"{mode}/{n_tunnels}: receivers did not drain"
    elapsed = time.perf_counter() - start

    for sender in senders:
        sender.close()
    for tunnel in receivers:
        tunnel.close()
        tunnel.join(timeout=10.0)

    return {
        "mode": mode,
        "tunnels": n_tunnels,
        "frames": total,
        "io_threads_added": threads_during - threads_before,
        "frames_per_s": total / elapsed,
        "MBps": total * len(_PAYLOAD) / elapsed / 1e6,
    }


def run_experiment(quick: bool = False, tunnels: Optional[int] = None) -> dict:
    """``tunnels`` appends an extra sweep tier (full mode only), e.g.
    ``--tunnels 10000``, with the frame budget scaled so every tunnel
    still sees traffic."""
    sizes = [10, 50] if quick else [10, 100, 500]
    if tunnels and not quick and tunnels not in sizes:
        sizes.append(tunnels)
    budget = 400 if quick else max(4000, tunnels or 0)
    rows = []
    for n in sizes:
        per = max(4, budget // n)
        for mode in ("threaded", "reactor"):
            rows.append(bench_mode(mode, n, per))

    def cell(mode: str, n: int) -> dict:
        return next(r for r in rows if r["mode"] == mode and r["tunnels"] == n)

    largest = sizes[-1]
    report = {
        "generated_by": "benchmarks/bench_concurrency.py",
        "quick": quick,
        "io_threads_at_max_scale": {
            "tunnels": largest,
            "reactor": cell("reactor", largest)["io_threads_added"],
            "threaded": cell("threaded", largest)["io_threads_added"],
        },
        "reactor_vs_threaded_frames_x": round(
            cell("reactor", largest)["frames_per_s"]
            / cell("threaded", largest)["frames_per_s"],
            2,
        ),
        "rows": rows,
        "notes": (
            "reactor = selectors loop owning every channel; threaded = one "
            "receive loop thread per tunnel (the seed model, REPRO_IO="
            "threaded). io_threads_added counts threads the I/O layer "
            "spawned for N tunnels; frames_per_s is aggregate across all "
            "tunnels with a single round-robin producer. "
            "reactor_vs_threaded_frames_x compares the modes at the "
            "largest sweep tier (where the models diverge; at small tier "
            "counts they are equivalent within run noise — see rows)."
        ),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_tables(quick: bool = False) -> list[dict]:
    """run_all.py entry point: the sweep as printable rows."""
    return run_experiment(quick)["rows"]


def check_shape(report: dict) -> None:
    at_scale = report["io_threads_at_max_scale"]
    # The reactor's whole point: tunnel count must not cost threads.
    assert at_scale["reactor"] <= 3, report
    assert at_scale["threaded"] >= at_scale["tunnels"], report
    # And the thread diet must not cost throughput at realistic scale.
    assert report["reactor_vs_threaded_frames_x"] >= 1.0, report


@pytest.mark.concurrency
@pytest.mark.slow
@pytest.mark.benchmark(group="concurrency")
def test_concurrency_quick(benchmark):
    report = benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)
    # Quick mode checks plumbing and direction, not full-run targets.
    assert report["io_threads_at_max_scale"]["reactor"] <= 3
    assert report["io_threads_at_max_scale"]["threaded"] >= 50
    save_table(
        "concurrency",
        "Concurrency: reactor vs thread-per-connection",
        run_tables(quick=True),
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--tunnels", type=int, default=None,
        help="extra sweep tier, e.g. 10000 (ignored with --quick)",
    )
    cli = parser.parse_args()
    report = run_experiment(quick=cli.quick, tunnels=cli.tunnels)
    print(json.dumps(report, indent=2))
    if not cli.quick:
        check_shape(report)
