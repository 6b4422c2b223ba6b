"""Outside-in tracing: wrap the layers' callables, record spans, attribute.

The benchmark changes nothing under ``src/``.  For the traced pass it
replaces the class attributes / module functions listed in
:data:`TARGETS` with recording wrappers *before* the grid is built and
restores them afterwards.  Each call becomes one span: name, start, end,
the span that caused it (top of a per-thread stack), the request's trace
id from ``repro.obs.trace.current_trace()``, wall time and thread CPU
time.  A span's *self* time is its duration minus the part its child
spans on the same thread cover.  Every span of the measured phase is
summed into per-thread totals as it ends; the first
:data:`MAX_SPANS_KEPT` of them (and every span of the short set-up and
redial phases) also stay in memory as records and are written out after
the run.  Keeping them all was measured and dropped: ~0.5 GB/min of
fresh memory cut traced throughput by 2x a few seconds into the phase.

Two clocks per span: ``perf_counter_ns`` (what a caller waits for) and
``thread_time_ns`` (what the CPU paid; blind to GIL and I/O waits), so
the waterfall can be read against ``cpu_ms_per_op`` and the wait metrics
against ``p50_ms``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple, Optional

from repro.obs.trace import current_trace

__all__ = ["TARGETS", "Stat", "Tracer", "Target"]

#: measured-phase spans kept as records and written to the JSONL file
#: (all spans are aggregated; the file is a sample for reading single
#: requests, not the evidence)
MAX_SPANS_KEPT = 100_000


class Target(NamedTuple):
    """One wrapped callable: ``module[.cls].attr`` filed under ``layer``."""

    layer: str
    span: str
    module: str
    cls: Optional[str]
    attr: str
    #: optional ``probe(args, result) -> number`` recorded with the span
    #: (record length, queue depth, resumed flag)
    probe: Optional[Callable[[tuple, Any], float]] = None


def _len_arg1(args: tuple, result: Any) -> float:
    return len(args[1])


def _int_arg1(args: tuple, result: Any) -> float:
    return args[1]


def _wq_bytes(args: tuple, result: Any) -> float:
    return args[0]._wq_bytes


def _resumed(args: tuple, result: Any) -> float:
    return 1.0 if getattr(result, "resumed", False) else 0.0


def _T(layer: str, span: str, path: str, probe=None) -> Target:
    module, _, tail = path.partition(":")
    cls, _, attr = tail.rpartition(".")
    return Target(layer, span, module, cls or None, attr, probe)


_R = "repro.transport.reactor"
_F = "repro.transport.frames"
_H = "repro.security.handshake"
_K = "repro.security.tokens"
_P = "repro.core.protocol"
_D = "repro.core.dispatch"
_X = "repro.core.proxy"
_W = "repro.control.wms"
_O = "repro.obs"

TARGETS: tuple[Target, ...] = (
    # -- transport.reactor ------------------------------------------------
    _T("transport.reactor", "send", f"{_R}:ReactorTcpChannel.send"),
    _T("transport.reactor", "send", f"{_R}:ReactorTcpChannel.send_many"),
    _T("transport.reactor", "enqueue", f"{_R}:ReactorTcpChannel._enqueue", _wq_bytes),
    _T("transport.reactor", "flush", f"{_R}:ReactorTcpChannel._flush_on_loop"),
    _T("transport.reactor", "readable", f"{_R}:ReactorTcpChannel._on_readable"),
    _T("transport.reactor", "poll_recv", f"{_R}:ReactorTcpChannel.poll_recv"),
    _T("transport.reactor", "drain", f"{_R}:_Registration._drain"),
    _T("transport.reactor", "run_pending", f"{_R}:_Loop._run_pending"),
    _T("transport.reactor", "timers", f"{_R}:_Loop._run_due_timers"),
    _T("transport.reactor", "schedule", f"{_R}:_Loop.schedule"),
    # -- transport.frames -------------------------------------------------
    _T("transport.frames", "encode", f"{_F}:encode_frame_views"),
    _T("transport.frames", "encode", f"{_F}:encode_frame"),
    _T("transport.frames", "encode", f"{_F}:encode_value"),
    _T("transport.frames", "decode", f"{_F}:decode_frame"),
    _T("transport.frames", "decode", f"{_F}:decode_value"),
    _T("transport.frames", "decode", f"{_F}:FrameDecoder.feed"),
    _T("transport.frames", "decode", f"{_F}:FrameDecoder.feed_into"),
    _T("transport.frames", "decode", f"{_F}:FrameDecoder.next_frame"),
    _T("transport.frames", "decode", f"{_F}:FrameDecoder.next_frame_view"),
    # -- security.cipher --------------------------------------------------
    _T("security.cipher", "seal", "repro.security.cipher:RecordCipher.seal", _len_arg1),
    _T("security.cipher", "open", "repro.security.cipher:RecordCipher.open", _len_arg1),
    # -- security.handshake ----------------------------------------------
    _T("security.handshake", "connect", f"{_H}:connect_secure", _resumed),
    _T("security.handshake", "accept", f"{_H}:accept_secure"),
    _T("security.handshake", "channel_send", f"{_H}:SecureChannel.send"),
    _T("security.handshake", "channel_send", f"{_H}:SecureChannel.send_many"),
    _T("security.handshake", "channel_recv", f"{_H}:SecureChannel.poll_recv"),
    # -- security.tokens --------------------------------------------------
    _T("security.tokens", "verify", f"{_K}:TokenService.verify_blob"),
    _T("security.tokens", "verify", f"{_K}:TokenService.check_claims"),
    _T("security.tokens", "delegate", f"{_K}:TokenService.delegate"),
    _T("security.tokens", "login", f"{_K}:TokenService.login"),
    _T("security.tokens", "mint_service", f"{_K}:TokenService.mint_service_token"),
    _T("security.tokens", "guard", f"{_D}:TokenAuthGuard.__call__"),
    # -- core.protocol ----------------------------------------------------
    _T("core.protocol", "encode", f"{_P}:ControlMessage.to_frame"),
    _T("core.protocol", "decode", f"{_P}:ControlMessage.from_frame"),
    _T("core.protocol", "reply_wait", f"{_P}:RequestTracker.wait"),
    _T("core.protocol", "track", f"{_P}:RequestTracker.expect"),
    _T("core.protocol", "track", f"{_P}:RequestTracker.fulfil"),
    # -- core.dispatch ----------------------------------------------------
    _T("core.dispatch", "dispatch", f"{_D}:DispatchPipeline.decode"),
    _T("core.dispatch", "dispatch", f"{_D}:DispatchPipeline.dispatch"),
    _T("core.dispatch", "dispatch", f"{_D}:DispatchPipeline.dispatch_batch"),
    _T("core.dispatch", "dispatch", f"{_D}:DispatchPipeline._run_handler"),
    _T("core.dispatch", "dispatch", f"{_D}:DispatchPipeline._respond"),
    # -- core.tunnel ------------------------------------------------------
    _T("core.tunnel", "send", "repro.core.tunnel:Tunnel.send"),
    _T("core.tunnel", "send", "repro.core.tunnel:Tunnel.send_many"),
    _T("core.tunnel", "deliver", "repro.core.tunnel:Tunnel._deliver"),
    _T("core.tunnel", "deliver", "repro.core.tunnel:Tunnel._deliver_batch"),
    # -- core.proxy -------------------------------------------------------
    _T("core.proxy", "submit", f"{_X}:ProxyServer.submit_job_with_token"),
    _T("core.proxy", "request", f"{_X}:ProxyServer.request"),
    _T("core.proxy", "inbound", f"{_X}:ProxyServer._on_control"),
    _T("core.proxy", "inbound", f"{_X}:ProxyServer._on_control_batch"),
    _T("core.proxy", "inbound", f"{_X}:ProxyServer._on_mpi"),
    _T("core.proxy", "inbound", f"{_X}:ProxyServer._on_heartbeat"),
    _T("core.proxy", "handler", f"{_X}:ProxyServer._handle_job_submit"),
    _T("core.proxy", "handler", f"{_X}:ProxyServer._handle_wms_submit"),
    _T("core.proxy", "handler", f"{_X}:ProxyServer._handle_wms_claim"),
    _T("core.proxy", "handler", f"{_X}:ProxyServer._handle_wms_status"),
    _T("core.proxy", "handler", f"{_X}:ProxyServer._handle_wms_done"),
    _T("core.proxy", "wms_call", f"{_X}:ProxyServer.wms_submit"),
    _T("core.proxy", "wms_call", f"{_X}:ProxyServer.wms_claim"),
    _T("core.proxy", "wms_call", f"{_X}:ProxyServer.wms_done"),
    _T("core.proxy", "wms_call", f"{_X}:ProxyServer.wms_status"),
    _T("core.proxy", "status", f"{_X}:ProxyServer.local_status"),
    _T("core.proxy", "forward_mpi", f"{_X}:ProxyServer.forward_mpi"),
    _T("core.proxy", "heartbeat", f"{_X}:ProxyServer.send_heartbeats"),
    # -- core.site --------------------------------------------------------
    _T("core.site", "execute", "repro.core.site:SiteNode.execute"),
    # -- control.* --------------------------------------------------------
    _T("control.wms", "submit", f"{_W}:WorkloadManager.submit"),
    _T("control.wms", "claim", f"{_W}:WorkloadManager.claim"),
    _T("control.wms", "complete", f"{_W}:WorkloadManager.complete"),
    _T("control.wms", "journal", f"{_W}:FileJournal.append"),
    _T("control.accounting", "record", "repro.control.accounting:UsageLedger.record"),
    _T("control.monitor", "global_status", "repro.core.grid:Grid.global_status"),
    # -- layer 4 ----------------------------------------------------------
    _T("mpi.communicator", "post", "repro.mpi.communicator:Communicator._post"),
    _T("mpi.router", "match", "repro.mpi.router:Endpoint.match"),
    _T("mpi.router", "deliver", "repro.mpi.router:Endpoint.deliver"),
    _T("core.multiplexer", "send", "repro.core.multiplexer:GridRouter.send"),
    _T("core.multiplexer", "deliver_remote", "repro.core.multiplexer:GridRouter.deliver_remote"),
    _T("core.virtual_slave", "account", "repro.core.virtual_slave:VirtualSlave.account", _int_arg1),
    # -- obs --------------------------------------------------------------
    _T("obs", "span", f"{_O}.trace:SpanRecorder.start"),
    _T("obs", "span", f"{_O}.trace:Span.finish"),
    _T("obs", "histogram", f"{_O}.metrics:Histogram.observe"),
)

_POOL_WAIT = Target("core.dispatch", "pool_wait", "concurrent.futures", "ThreadPoolExecutor", "submit")


class Stat:
    """Totals of one (layer, span) over the measured phase."""

    __slots__ = ("calls", "wall_ns", "self_cpu_ns", "value_sum", "value_max", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_ns = 0
        self.self_cpu_ns = 0
        self.value_sum = 0.0
        self.value_max = 0.0
        self.errors = 0

    def add(self, wall_ns: int, self_cpu_ns: int,
            value: Optional[float], error: bool) -> None:
        self.calls += 1
        self.wall_ns += wall_ns
        self.self_cpu_ns += self_cpu_ns
        if value is not None:
            self.value_sum += value
            if value > self.value_max:
                self.value_max = value
        if error:
            self.errors += 1

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.wall_ns += other.wall_ns
        self.self_cpu_ns += other.self_cpu_ns
        self.value_sum += other.value_sum
        self.value_max = max(self.value_max, other.value_max)
        self.errors += other.errors


#: the one phase whose spans are totalled (and capped as records)
MEASURE = "measure"


class Tracer:
    """Installs the wrappers, totals the spans, keeps a sample of them."""

    def __init__(self) -> None:
        #: kept records: (id, parent, target index, phase, thread, t0, t1,
        #: self_wall, self_cpu, tid, value, error)
        self.spans: list[tuple] = []
        #: current phase label; ``None`` bypasses every wrapper
        self.phase: Optional[str] = None
        self._targets: list[Target] = []
        self._tls = threading.local()
        #: one {target index: Stat} per thread that ever ran a wrapper, so
        #: the hot path adds without a lock; merged by :meth:`aggregate`
        self._per_thread: list[dict[int, Stat]] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def _thread_state(self) -> tuple[list, dict[int, Stat]]:
        tls = self._tls
        tls.stack, tls.totals = [], {}
        self._per_thread.append(tls.totals)
        return tls.stack, tls.totals

    def _record(self, totals: dict[int, Stat], index: int, phase: str, span_id: int,
                parent_id: int, t0: int, t1: int, self_wall: int, self_cpu: int,
                tid: Optional[str], value: Optional[float], error: bool) -> None:
        if phase == MEASURE:
            stat = totals.get(index)
            if stat is None:
                stat = totals[index] = Stat()
            stat.add(t1 - t0, self_cpu, value, error)
            if len(self.spans) >= MAX_SPANS_KEPT:
                return
        self.spans.append((
            span_id, parent_id, index, phase, threading.get_ident(), t0, t1,
            self_wall, self_cpu, tid, value, error,
        ))

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        index = len(self._targets)
        self._targets.append(target)
        probe = target.probe
        tls, ids, record = self._tls, self._ids, self._record
        wall, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            try:
                stack, totals = tls.stack, tls.totals
            except AttributeError:
                stack, totals = self._thread_state()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0, 0]
            stack.append(frame)
            result = None
            error = False
            c0 = cpu()
            t0 = wall()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                t1 = wall()
                c1 = cpu()
                stack.pop()
                took, burned = t1 - t0, c1 - c0
                if parent is not None:
                    parent[1] += took
                    parent[2] += burned
                ctx = current_trace()
                record(
                    totals, index, phase, frame[0],
                    parent[0] if parent is not None else 0, t0, t1,
                    took - frame[1], burned - frame[2],
                    ctx.trace_id if ctx is not None else None,
                    probe(args, result) if probe is not None and not error else None,
                    error,
                )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_pool_submit(self, submit: Callable) -> Callable:
        """Queue-wait spans for the dispatch pools: enqueue → handler start."""
        index = len(self._targets)
        self._targets.append(_POOL_WAIT)
        tls, ids, record = self._tls, self._ids, self._record
        wall = time.perf_counter_ns

        def traced_submit(pool, fn, /, *args, **kwargs):
            phase = self.phase
            if phase is None:
                return submit(pool, fn, *args, **kwargs)
            queued = wall()
            ctx = current_trace()
            tid = ctx.trace_id if ctx is not None else None

            def started(*a, **k):
                now = wall()
                try:
                    totals = tls.totals
                except AttributeError:
                    totals = self._thread_state()[1]
                record(totals, index, phase, next(ids), 0, queued, now,
                       now - queued, 0, tid, None, False)
                return fn(*a, **k)

            return submit(pool, started, *args, **kwargs)

        return traced_submit

    def install(self) -> None:
        """Patch every target (call before the grid is built)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("repro.core.grid")
        importlib.import_module("repro.mpi")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if target.cls is not None:
                self._patch_class(getattr(module, target.cls), target)
            else:
                self._patch_function(module, target)
        submit = ThreadPoolExecutor.__dict__["submit"]
        self._restore.append((ThreadPoolExecutor, "submit", submit))
        ThreadPoolExecutor.submit = self._wrap_pool_submit(submit)  # type: ignore[method-assign]

    def _patch_class(self, cls: type, target: Target) -> None:
        raw = cls.__dict__[target.attr]
        self._restore.append((cls, target.attr, raw))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        setattr(cls, target.attr, wrapped)

    def _patch_function(self, module: Any, target: Target) -> None:
        """Replace a module function everywhere ``repro`` imported it by name."""
        original = getattr(module, target.attr)
        wrapped = self._wrap(original, target)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        self.phase = None
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ----------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], Stat]:
        """Per-(layer, span) totals over the measured phase, all threads."""
        stats: dict[tuple[str, str], Stat] = {}
        for totals in list(self._per_thread):
            for index, stat in list(totals.items()):
                target = self._targets[index]
                stats.setdefault((target.layer, target.span), Stat()).merge(stat)
        return stats

    def spans_total(self) -> int:
        """Measured-phase spans seen (kept or not) plus the other phases' records."""
        measured = sum(
            stat.calls for totals in list(self._per_thread) for stat in list(totals.values())
        )
        return measured + sum(1 for span in self.spans if span[3] != MEASURE)

    def calls(self, layer: str, span: str) -> list[tuple[int, Optional[float]]]:
        """(wall ns, probe value) of every kept successful call of one span."""
        wanted = {
            index for index, target in enumerate(self._targets)
            if (target.layer, target.span) == (layer, span)
        }
        return [
            (s[6] - s[5], s[10]) for s in self.spans
            if s[2] in wanted and not s[11]
        ]

    def write_jsonl(self, path: str) -> int:
        """Dump the kept spans as JSON lines; returns how many."""
        targets = self._targets
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "schema": "e2e-trace/1",
                "spans_seen": self.spans_total(),
                "spans_written": len(self.spans),
                "clock": "perf_counter_ns",
            }) + "\n")
            for (sid, parent, index, phase, thread, t0, t1, self_wall,
                 self_cpu, tid, value, error) in self.spans:
                target = targets[index]
                fh.write(json.dumps({
                    "id": sid,
                    "parent": parent or None,
                    "name": f"{target.layer}.{target.span}",
                    "fn": target.attr,
                    "phase": phase,
                    "thread": thread,
                    "start_ns": t0,
                    "end_ns": t1,
                    "self_ns": self_wall,
                    "self_cpu_ns": self_cpu,
                    "tid": tid,
                    "value": value,
                    "error": error,
                }) + "\n")
                written += 1
        return written
