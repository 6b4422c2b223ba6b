"""Obs — instrumentation overhead gate for the observability layer.

The observability layer rides the hottest paths in the stack (tunnel
sends, the dispatch pipeline, every control request), so its cost is
measured the same way the fast path's gains were: against the dark
baseline, on the same scenarios.

* **tunnel_echo** — end-to-end frames/s through two reactor tunnels over
  TCP loopback, metrics bound vs the obs layer disabled.  This is the
  **gated** number: crypto and syscalls dominate, so the handful of
  counter increments per batch must stay under the 5% budget.
* **dispatch** — pure pipeline msgs/s, ``obs=None`` (the dark path) vs an
  attached :class:`~repro.obs.ObsHub`, on PINGs without a trace header:
  the unsampled path most requests take (a latency observation per
  message).  Report-only.
* **dispatch_traced** — the same with every PING carrying a trace
  header, i.e. a head-sampled request: a span plus a latency
  observation per message.  Report-only: that is real work against a
  ~µs baseline, and the trade (microseconds for per-hop traces on one
  trace in ``SAMPLE_EVERY``) is the design.
* **request_roundtrip** — PING round trips between two grid proxies,
  obs enabled vs disabled.  Report-only; dominated by wire latency.

Variants are interleaved and the best of ``repeats`` runs is kept, so a
scheduler hiccup penalises neither side.  Writes ``BENCH_obs.json`` at
the repo root; run via ``python benchmarks/run_all.py obs`` (CI uses
``--quick``).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from benchmarks.common import save_table
from repro.core.dispatch import DispatchPipeline
from repro.core.protocol import ControlMessage, Op
from repro.core.tunnel import Tunnel
from repro.obs import ObsHub, TraceContext, set_enabled
from repro.security.cipher import (
    RecordCipher,
    derive_session_keys,
    random_master_secret,
)
from repro.security.handshake import PeerIdentity, SecureChannel
from repro.transport.frames import Frame, FrameKind
from repro.transport.reactor import ReactorTcpListener, connect_tcp_reactor

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_obs.json"

GATE_LIMIT_PCT = 5.0


class _BenchPeer:
    subject = "bench-peer"
    role = "proxy"


def _secure_tunnel_pair() -> tuple[Tunnel, Tunnel, ReactorTcpListener]:
    """Reactor-backed secure tunnel pair over TCP loopback, handshake
    skipped (both ends derive ciphers from one master secret)."""
    listener = ReactorTcpListener()
    client_raw = connect_tcp_reactor(listener.host, listener.port)
    server_raw = listener.accept(timeout=10.0)
    master = random_master_secret()
    ck = derive_session_keys(master, "client")
    sk = derive_session_keys(master, "server")
    peer = PeerIdentity(_BenchPeer())
    a = SecureChannel(client_raw, RecordCipher(ck), RecordCipher(sk), peer)
    b = SecureChannel(server_raw, RecordCipher(sk), RecordCipher(ck), peer)
    return Tunnel(a, "a"), Tunnel(b, "b"), listener


def _tunnel_echo_rate(instrumented: bool, count: int) -> float:
    """Frames/s through the secure tunnel path, batched sends."""
    payload = b"\x42" * 4096
    batch = 32
    set_enabled(instrumented)
    try:
        sender, receiver, listener = _secure_tunnel_pair()
        if instrumented:
            hub = ObsHub("bench-tunnel")
            sender.bind_metrics(hub.metrics)
            receiver.bind_metrics(hub.metrics)
        done = threading.Event()
        seen = [0]

        def on_frame(frame, seen=seen, done=done):
            seen[0] += 1
            if seen[0] >= count:
                done.set()

        receiver.on_frame(FrameKind.MPI, on_frame)
        receiver.start()
        frames = [
            Frame(kind=FrameKind.MPI, channel=1, headers={"rank": 0}, payload=payload)
            for _ in range(batch)
        ]
        start = time.perf_counter()
        sent = 0
        while sent < count:
            n = min(batch, count - sent)
            sender.send_many(frames[:n])
            sent += n
        assert done.wait(timeout=120.0), "receiver did not drain"
        elapsed = time.perf_counter() - start
        sender.close()
        receiver.close()
        listener.close()
        return count / elapsed
    finally:
        set_enabled(True)


def _dispatch_rate(instrumented: bool, count: int, traced: bool = False) -> float:
    """Pipeline msgs/s: PING in, PONG replied to a null sink; ``traced``
    PINGs carry a trace header, as a head-sampled request does."""
    trace = TraceContext("00ff00ff00ff00ff", "ab12ab12").to_wire() if traced else None
    set_enabled(instrumented)
    try:
        obs = ObsHub("bench-dispatch") if instrumented else None
        pipeline = DispatchPipeline(name="bench-dispatch", obs=obs)
        pipeline.register(
            Op.PING, lambda message, peer: message.reply(Op.PONG, {})
        )
        messages = [
            ControlMessage(op=Op.PING, body={}, sender="bench", trace=trace)
            for _ in range(count)
        ]

        def sink(reply):
            pass

        start = time.perf_counter()
        for message in messages:
            pipeline.dispatch(message, "bench", sink)
        elapsed = time.perf_counter() - start
        pipeline.close()
        return count / elapsed
    finally:
        set_enabled(True)


def _request_rate(grid, origin, peer_name: str, instrumented: bool, count: int) -> float:
    """PING request round trips/s between two live grid proxies."""
    set_enabled(instrumented)
    try:
        start = time.perf_counter()
        for _ in range(count):
            origin.request(peer_name, Op.PING, timeout=30.0)
        return count / (time.perf_counter() - start)
    finally:
        set_enabled(True)


def _best_of(fn, variants: list[bool], repeats: int) -> dict[bool, float]:
    """Interleave the variants ``repeats`` times; keep each one's best."""
    best: dict[bool, float] = {}
    for _ in range(repeats):
        for variant in variants:
            rate = fn(variant)
            if rate > best.get(variant, 0.0):
                best[variant] = rate
    return best


def _overhead_pct(off_rate: float, on_rate: float) -> float:
    return (off_rate / on_rate - 1.0) * 100.0


def run_experiment(quick: bool = False) -> dict:
    repeats = 2 if quick else 3
    tunnel_count = 1200 if quick else 3000
    dispatch_count = 3000 if quick else 20000
    request_count = 150 if quick else 800

    # The gated scenario gets extra interleaved repeats, and one more
    # measurement round if the first lands over budget: loopback TCP on a
    # shared box is noisy at the ±10% level per run, and the gate must
    # fail on regressions, not on scheduler weather.  A real >5% cost
    # shows up in every round; noise doesn't survive a best-of merge.
    def measure_tunnel() -> dict[bool, float]:
        return _best_of(
            lambda on: _tunnel_echo_rate(on, tunnel_count), [False, True], repeats + 2
        )

    tunnel = measure_tunnel()
    if _overhead_pct(tunnel[False], tunnel[True]) >= GATE_LIMIT_PCT:
        retry = measure_tunnel()
        tunnel = {k: max(tunnel[k], retry[k]) for k in tunnel}
    dispatch = _best_of(
        lambda on: _dispatch_rate(on, dispatch_count), [False, True], repeats
    )
    dispatch_traced = _best_of(
        lambda on: _dispatch_rate(on, dispatch_count, traced=True),
        [False, True],
        repeats,
    )

    from repro.core.grid import Grid

    with Grid() as grid:
        grid.add_site("benchA", nodes=1)
        grid.add_site("benchB", nodes=1)
        grid.connect_all()
        origin = grid.proxy_of("benchA")
        peer_name = grid.directory.proxy_of_site("benchB")
        request = _best_of(
            lambda on: _request_rate(grid, origin, peer_name, on, request_count),
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
        "tunnel_echo": scenario(tunnel, gated=True),
        "dispatch": scenario(dispatch, gated=False),
        "dispatch_traced": scenario(dispatch_traced, gated=False),
        "request_roundtrip": scenario(request, gated=False),
    }
    gated_overhead = scenarios["tunnel_echo"]["overhead_pct"]
    report = {
        "generated_by": "benchmarks/bench_obs.py",
        "quick": quick,
        "scenarios": scenarios,
        "gate": {
            "scenario": "tunnel_echo",
            "limit_pct": GATE_LIMIT_PCT,
            "overhead_pct": gated_overhead,
            "passed": gated_overhead < GATE_LIMIT_PCT,
        },
        "notes": (
            "off = REPRO_OBS disabled (and, for dispatch, the obs=None "
            "dark path); on = full instrumentation: tunnel counters, "
            "dispatch latency histograms, and spans for head-sampled "
            "requests.  dispatch prices the unsampled path (no trace "
            "header), dispatch_traced the sampled one (header, span). "
            "Interleaved best-of-N per variant.  Only tunnel_echo is "
            "gated: it is the data-plane scenario the <5% budget "
            "protects; the dispatch rows are reported, not gated."
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
                "obs_off_per_s": data["off_per_s"],
                "obs_on_per_s": data["on_per_s"],
                "overhead_pct": data["overhead_pct"],
                "gate": outcome,
            }
        )
    return rows


def check_shape(report: dict) -> None:
    assert report["gate"]["passed"], report["gate"]
    for name in ("tunnel_echo", "dispatch", "dispatch_traced", "request_roundtrip"):
        assert name in report["scenarios"], report


@pytest.mark.obs
@pytest.mark.slow
@pytest.mark.benchmark(group="obs")
def test_obs_quick(benchmark):
    report = benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)
    check_shape(report)
    save_table(
        "obs",
        "Obs: instrumentation overhead (gate <5% on tunnel_echo)",
        run_tables(quick=True),
    )


if __name__ == "__main__":
    import sys

    quick = "--quick" in sys.argv
    report = run_experiment(quick=quick)
    print(json.dumps(report, indent=2))
    check_shape(report)
