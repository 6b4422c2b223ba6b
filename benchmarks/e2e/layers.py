"""Per-layer metrics: spans and counter deltas → named numbers + waterfall.

Layers are this repository's modules.  Times of *busy* spans are
thread-CPU self time (what the layer's own code burned, children and
GIL/I-O waits excluded) per correct op; *wait* metrics (``reply_wait``,
``pool_wait``, ``execute``, ``match_wait``) and per-call latencies
(``*_ms``, ``control.wms.*_us``) are wall time; all are restated at the
reference CPU speed like the end-to-end numbers.  Counts are deltas of
``grid.global_observability()`` across the measured phase, so ratios are
taken where the work happens.
"""

from __future__ import annotations

import statistics
from typing import Any

from benchmarks.e2e.trace import Stat, Tracer

__all__ = ["delta", "handshake_metrics", "layer_metrics", "obs_totals", "print_waterfall"]

Stats = dict[tuple[str, str], Stat]
_TIMER_LAG = "reactor.timer_lag_s"


def obs_totals(grid: Any) -> dict[str, Any]:
    """Grid-wide counter totals, compiled the paper's way (OBS_DUMP per site)."""
    view = grid.global_observability(via_site="A", allow_partial=False, max_spans=1)
    counters: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counters[name] = counters.get(name, 0) + value

    process: dict[str, Any] = {}
    for dump in view.values():
        for name, value in dump["metrics"]["counters"].items():
            add(name, value)
        add("obs.spans_dropped", dump["spans_dropped"])
        for tunnel in dump["tunnels"].values():
            add("tunnels.frames_sent", tunnel["frames_sent"])
            add("tunnels.bytes_sent", tunnel["bytes_sent"])
        # Every site reports the same process registry: they share it.
        process = dump.get("process") or process
    for name, value in process.get("counters", {}).items():
        add(name, value)
    lag = process.get("histograms", {}).get(_TIMER_LAG, {})
    return {
        "counters": counters,
        "lag_buckets": [list(pair) for pair in lag.get("buckets", [])],
        "lag_overflow": lag.get("overflow", 0),
        "lag_max": lag.get("max", 0.0),
    }


def delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    old = dict(map(tuple, before["lag_buckets"]))
    return {
        "counters": counters,
        "lag_buckets": [
            [edge, count - old.get(edge, 0)] for edge, count in after["lag_buckets"]
        ],
        "lag_overflow": after["lag_overflow"] - before["lag_overflow"],
        "lag_max": after["lag_max"],
    }


def _lag_p99_ms(d: dict[str, Any]) -> float:
    """p99 timer lag read off the bucket edges the reactor keeps (coarse)."""
    total = sum(count for _, count in d["lag_buckets"]) + d["lag_overflow"]
    if total <= 0:
        return 0.0
    seen = 0
    for edge, count in d["lag_buckets"]:
        seen += count
        if seen >= 0.99 * total:
            return edge * 1e3
    return d["lag_max"] * 1e3


def handshake_metrics(tracer: Tracer) -> dict[str, float]:
    """Full vs resumed ``connect_secure`` wall time (set-up + the redial)."""
    calls = tracer.calls("security.handshake", "connect")
    full = [wall / 1e6 for wall, resumed in calls if not resumed]
    resumed = [wall / 1e6 for wall, was in calls if was]
    return {
        "security.handshake.full_ms": statistics.median(full) if full else 0.0,
        "security.handshake.resumed_ms": statistics.median(resumed) if resumed else 0.0,
    }


def layer_metrics(
    stats: Stats,
    d: dict[str, Any],
    ops: int,
    *,
    cpu_ms_per_op: float,
    warm_cpu_ms_per_op: float,
    speed: float,
    queue_depth_p50: float,
    ledger_entries: int,
) -> tuple[dict[str, float], list[dict[str, Any]]]:
    """The named per-layer metrics of one traced measured phase.

    ``cpu_ms_per_op`` is the phase's process CPU per correct op as
    measured; ``speed`` is the CPU speed the reference kernel saw during
    the phase (1.0 = reference), and every time below is multiplied by it
    so runs on a disturbed host read like runs on a quiet one.
    ``warm_cpu_ms_per_op`` arrives already restated that way.
    """
    per = max(ops, 1)
    cpu_ms_per_op *= speed
    counters = d["counters"]
    empty = Stat()

    def stat(layer: str, span: str) -> Stat:
        return stats.get((layer, span), empty)

    def cpu_us(layer: str, *spans: str) -> float:
        return sum(stat(layer, s).self_cpu_ns for s in spans) * speed / per / 1e3

    def wall_us(layer: str, span: str) -> float:
        return stat(layer, span).wall_ns * speed / per / 1e3

    def per_call_us(layer: str, span: str) -> float:
        s = stat(layer, span)
        return s.wall_ns * speed / s.calls / 1e3 if s.calls else 0.0

    def count(name: str) -> float:
        return counters.get(name, 0)

    seal, opened = stat("security.cipher", "seal"), stat("security.cipher", "open")
    cipher_bytes = seal.value_sum + opened.value_sum
    verdicts = count("auth.token.ok") + count("auth.token.denied")
    mux_send = stat("core.multiplexer", "send")
    mux_in = stat("core.multiplexer", "deliver_remote")
    slave = stat("core.virtual_slave", "account")
    metrics = {
        "transport.reactor.callbacks_per_op": count("reactor.callbacks") / per,
        "transport.reactor.send_self_us_per_op": cpu_us("transport.reactor", "send", "enqueue"),
        "transport.reactor.loop_self_us_per_op": cpu_us(
            "transport.reactor", "flush", "readable", "poll_recv", "drain",
            "run_pending", "timers", "schedule",
        ),
        "transport.reactor.timer_lag_p99_ms": _lag_p99_ms(d),
        "transport.reactor.write_queue_max_bytes": stat("transport.reactor", "enqueue").value_max,
        "transport.frames.encode_us_per_op": cpu_us("transport.frames", "encode"),
        "transport.frames.decode_us_per_op": cpu_us("transport.frames", "decode"),
        "transport.frames.frames_per_op": count("tunnels.frames_sent") / per,
        "transport.frames.wire_bytes_per_op": count("tunnels.bytes_sent") / per,
        "security.cipher.seal_us_per_op": cpu_us("security.cipher", "seal"),
        "security.cipher.open_us_per_op": cpu_us("security.cipher", "open"),
        "security.cipher.records_per_op": seal.calls / per,
        "security.cipher.ns_per_byte": (
            (seal.self_cpu_ns + opened.self_cpu_ns) * speed / cipher_bytes
            if cipher_bytes else 0.0
        ),
        "security.cipher.open_errors": opened.errors,
        "security.handshake.channel_send_self_us_per_op": cpu_us("security.handshake", "channel_send"),
        "security.tokens.verify_us_per_op": cpu_us("security.tokens", "verify", "guard"),
        "security.tokens.delegate_us_per_op": cpu_us("security.tokens", "delegate"),
        "security.tokens.login_ms": per_call_us("security.tokens", "login") / 1e3,
        "security.tokens.guard_cache_hit_ratio": (
            count("auth.token.cache_hits") / verdicts if verdicts else 0.0
        ),
        "security.tokens.denied": count("auth.token.denied"),
        "core.protocol.encode_us_per_op": cpu_us("core.protocol", "encode"),
        "core.protocol.decode_us_per_op": cpu_us("core.protocol", "decode"),
        "core.protocol.reply_wait_us_per_op": wall_us("core.protocol", "reply_wait"),
        "core.dispatch.self_us_per_op": cpu_us("core.dispatch", "dispatch"),
        "core.dispatch.pool_wait_us_per_op": wall_us("core.dispatch", "pool_wait"),
        "core.dispatch.messages_per_op": count("dispatch.messages") / per,
        "core.dispatch.vetoed": count("dispatch.vetoed"),
        "core.tunnel.send_self_us_per_op": cpu_us("core.tunnel", "send"),
        "core.tunnel.frames_sent_per_op": count("tunnel.frames_sent") / per,
        "core.tunnel.backpressure": count("tunnel.backpressure"),
        "core.tunnel.send_errors": count("tunnel.send_errors"),
        "core.proxy.submit_self_us_per_op": cpu_us("core.proxy", "submit"),
        "core.proxy.request_self_us_per_op": cpu_us("core.proxy", "request"),
        "core.proxy.retries_per_op": count("request.retries") / per,
        "core.proxy.timeouts": count("request.timeouts"),
        "core.proxy.peer_unavailable": count("request.peer_unavailable"),
        "core.site.execute_us_per_op": wall_us("core.site", "execute"),
        "control.wms.submit_us": per_call_us("control.wms", "submit"),
        "control.wms.claim_us": per_call_us("control.wms", "claim"),
        "control.wms.complete_us": per_call_us("control.wms", "complete"),
        "control.wms.journal_us_per_op": wall_us("control.wms", "journal"),
        "control.wms.jobs_per_claim": (
            count("wms.jobs_claimed") / count("wms.claims") if count("wms.claims") else 0.0
        ),
        "control.wms.queue_depth_p50": queue_depth_p50,
        "control.wms.requeued": count("wms.requeued"),
        "control.wms.stale_reports": count("wms.stale_reports"),
        "control.accounting.record_us_per_op": cpu_us("control.accounting", "record"),
        "control.accounting.ledger_entries": ledger_entries,
        "control.monitor.global_status_us": per_call_us("control.monitor", "global_status"),
        "mpi.communicator.sends_per_op": stat("mpi.communicator", "post").calls / per,
        "mpi.router.match_wait_us_per_op": wall_us("mpi.router", "match"),
        "core.multiplexer.send_self_us_per_msg": (
            mux_send.self_cpu_ns * speed / mux_send.calls / 1e3 if mux_send.calls else 0.0
        ),
        "core.multiplexer.deliver_remote_us_per_msg": (
            mux_in.wall_ns * speed / mux_in.calls / 1e3 if mux_in.calls else 0.0
        ),
        "core.virtual_slave.forwarded_msgs_per_op": slave.calls / per,
        "core.virtual_slave.forwarded_bytes_per_op": slave.value_sum / per,
        "obs.self_us_per_op": cpu_us("obs", "span", "histogram"),
        "obs.spans_dropped": count("obs.spans_dropped"),
        "bench.traced_cpu_ms_per_op": cpu_ms_per_op,
        "bench.trace_overhead_ratio": (
            cpu_ms_per_op / warm_cpu_ms_per_op if warm_cpu_ms_per_op else 0.0
        ),
    }

    # Waterfall: every layer's CPU self time against the process CPU the
    # same phase burned; what no wrapped callable covers is the remainder.
    by_layer: dict[str, list[float]] = {}
    for (layer, _), s in stats.items():
        row = by_layer.setdefault(layer, [0, 0.0])
        row[0] += s.calls
        row[1] += s.self_cpu_ns * speed
    total_us = cpu_ms_per_op * 1e3
    waterfall = [
        {
            "layer": layer,
            "calls_per_op": calls / per,
            "self_cpu_us_per_op": cpu_ns / per / 1e3,
            "share_of_cpu": cpu_ns / per / 1e3 / total_us if total_us else 0.0,
        }
        for layer, (calls, cpu_ns) in by_layer.items()
    ]
    waterfall.sort(key=lambda row: -row["self_cpu_us_per_op"])
    attributed = sum(row["self_cpu_us_per_op"] for row in waterfall)
    waterfall.append({
        "layer": "(unattributed)",
        "calls_per_op": None,
        "self_cpu_us_per_op": total_us - attributed,
        "share_of_cpu": (total_us - attributed) / total_us if total_us else 0.0,
    })
    metrics["bench.unattributed_cpu_share"] = waterfall[-1]["share_of_cpu"]
    return metrics, waterfall


def print_waterfall(name: str, waterfall: list[dict[str, Any]], cpu_ms_per_op: float) -> None:
    print(
        f"  waterfall {name}: traced cpu_ms_per_op = {cpu_ms_per_op:.4f} ms "
        f"(thread-CPU self time per correct op)"
    )
    print(f"    {'layer':<22}{'calls/op':>10}{'self µs/op':>12}{'share':>8}")
    for row in waterfall:
        calls = "" if row["calls_per_op"] is None else f"{row['calls_per_op']:.2f}"
        print(
            f"    {row['layer']:<22}{calls:>10}{row['self_cpu_us_per_op']:>12.1f}"
            f"{row['share_of_cpu']:>8.1%}"
        )
