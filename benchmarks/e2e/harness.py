"""One benchmark pass: build the grid, warm up, measure, check, report.

Run shape (identical for every workload, same on every commit)::

    set-up ×N (build → first job → shutdown; the last grid is kept)
      → warm-up under load (discarded, window rates kept)
      → host ping-pong 1 s → measured phase → host ping-pong 1 s
      → drain → correctness checks → grid.shutdown()

The whole grid and the load generator live in this one process — that
is how this repository deploys — and every byte crosses the host's
loopback interface, never a link.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import threading
import time
from typing import Any, Optional

from repro import Grid
from repro.control.wms import FileJournal
from repro.obs import enabled as obs_enabled
from repro.security.tokens import auth_mode
from repro.transport.reactor import connect_tcp_reactor, io_mode
from repro.transport.tcp import connect_tcp

from benchmarks.e2e import layers
from benchmarks.e2e.host import HostSampler, host_pingpong, pin_to_one_cpu
from benchmarks.e2e.loadgen import Phase, percentile, thirds_drift
from benchmarks.e2e.spec import OUT_DIR, REPO_ROOT
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import USERS, WORKLOADS, Workload, user_of

__all__ = ["run_pass"]

SITES = ("A", "B", "C")
NODES_PER_SITE = 2
HEARTBEAT_S = 1.0
#: full-run shape; ``quick`` runs (selftest) shrink both and say so
WARMUP_S = 10.0
SETUP_CYCLES = 7
QUICK_WARMUP_S = 2.0
QUICK_SETUP_CYCLES = 3
#: the tail percentile reported beside p50 (see README: why not p99)
TAIL_Q = 0.90
TAIL_NAME = "p90_ms"
#: burst guard thresholds.  The issue asked for 15 % drift; with 8
#: windows a third is 2-3 windows, and 5 of 20 undisturbed ``rpc_small``
#: runs exceeded 15 % (none 30 %) from window noise alone.
PINGPONG_MAX_RATIO = 2.0
DRIFT_MAX = 0.30
#: stolen CPU seconds above which a 1-s window is left out
WINDOW_STEAL_MAX_S = 0.02


# ---------------------------------------------------------------------------
# The grid under test
# ---------------------------------------------------------------------------


def build_grid(journal_path: str) -> Grid:
    """The real thing: 3 sites × 2 nodes over TCP, token auth, WMS on A."""
    grid = Grid(transport="tcp", heartbeat_interval=HEARTBEAT_S)
    try:
        for site in SITES:
            grid.add_site(site, nodes=NODES_PER_SITE)
        grid.connect_all()
        grid.enable_token_auth()
        grid.attach_workload_manager("A", journal=FileJournal(journal_path))
        for index in range(USERS):
            userid, password = user_of(index)
            grid.add_user(userid, password)
            grid.grant(f"user:{userid}", "site:*", "submit")
    except BaseException:
        grid.shutdown()
        raise
    return grid


def first_job(grid: Grid) -> None:
    """One token-guarded cross-site job: set-up ends when it returns."""
    userid, password = user_of(0)
    token = grid.login(userid, password, via_site="B")
    reply = grid.submit_job_with_token(
        token, "echo", {"value": b"first"}, origin_site="B", target_site="C"
    )
    if reply != b"first":
        raise RuntimeError(f"first job returned {reply!r}")


def shutdown_grid(grid: Grid) -> float:
    start = time.perf_counter()
    wms = grid.proxy_of("A").wms
    grid.shutdown()
    if wms is not None:
        wms.close()
    return time.perf_counter() - start


def setup_phase(
    tmp_dir: str, cycles: int, tracer: Optional[Tracer], host: HostSampler
) -> tuple[Grid, str, list[float], list[float], list[float]]:
    """Build → first job, ``cycles`` times; keep the last grid.

    Returns the grid, its journal path, each cycle's set-up seconds as
    measured, the same at reference CPU speed, and the shutdown seconds.
    """
    setups: list[float] = []
    setups_at_reference: list[float] = []
    shutdowns: list[float] = []
    for cycle in range(cycles):
        keep = cycle == cycles - 1
        journal_path = os.path.join(tmp_dir, f"journal-{cycle}.jsonl")
        if tracer is not None and keep:
            tracer.phase = "setup"  # handshake spans of the kept grid
        start = time.perf_counter()
        grid = build_grid(journal_path)
        try:
            first_job(grid)
        except BaseException:
            shutdown_grid(grid)
            raise
        end = time.perf_counter()
        setups.append(end - start)
        setups_at_reference.append((end - start) * host.speed(start, end))
        if tracer is not None:
            tracer.phase = None
        if keep:
            return grid, journal_path, setups, setups_at_reference, shutdowns
        shutdowns.append(shutdown_grid(grid))
    raise ValueError(f"need at least one set-up cycle: {cycles}")


def _wait_until(condition, what: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting until {what}")
        time.sleep(0.005)


def redial(grid: Grid, site_a: str, site_b: str) -> None:
    """Close tunnel a–b and dial it again (a offers its banked ticket)."""
    proxy_a, proxy_b = grid.proxy_of(site_a), grid.proxy_of(site_b)
    proxy_a.tunnel_to(proxy_b.name).close()
    _wait_until(
        lambda: proxy_b.name not in proxy_a.peers()
        and proxy_a.name not in proxy_b.peers(),
        f"tunnel {site_a}-{site_b} closed",
    )
    host, _, port = grid.directory.address_of_proxy(proxy_b.name).rpartition(":")
    dial = connect_tcp_reactor if io_mode() == "reactor" else connect_tcp
    proxy_a.connect_to_peer(dial=lambda: dial(host, int(port)), peer=proxy_b.name)
    _wait_until(
        lambda: proxy_a.name in proxy_b.peers(), f"tunnel {site_a}-{site_b} is back"
    )


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def provenance(grid: Grid, seed: int, pinned_cpu: Optional[int]) -> dict[str, Any]:
    proxy_b = grid.proxy_of("B")
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "effective": {
            "REPRO_IO": io_mode(),
            "REPRO_AUTH": auth_mode(),
            "REPRO_OBS": "on" if obs_enabled() else "off",
        },
        "cipher_suite": proxy_b.tunnel_to(grid.proxy_of("C").name).cipher_suite,
        "grid": {
            "transport": "tcp", "sites": list(SITES),
            "nodes_per_site": NODES_PER_SITE, "users": USERS,
            "heartbeat_interval_s": HEARTBEAT_S, "wms_authority": "A",
        },
        "loopback": True,
        "single_process": True,
    }


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def _proc_counters() -> dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "vcsw": usage.ru_nvcsw,
        "gc2": gc.get_stats()[2]["collections"],
    }


class Measured:
    """A measured phase restated for a quiet host at reference CPU speed.

    Two corrections, both from :class:`~benchmarks.e2e.host.HostSampler`:

    * a 1-s window during which the hypervisor withheld the CPU for more
      than :data:`WINDOW_STEAL_MAX_S` measured the neighbour, not the
      grid: it is left out of every end-to-end number (its ops, their
      latencies and its CPU time alike).  If fewer than half the windows
      stay, all are used and the run says it is invalid;
    * each kept window's numbers are scaled by the CPU speed the
      reference kernel saw during that window (times × speed, closed-loop
      rates ÷ speed and per second the CPU was not withheld).  Everything here is CPU-bound on one pinned CPU, so wall
      time scales with it too.  The unscaled numbers stay in the result
      document under ``end_to_end_raw``.
    """

    def __init__(self, phase: Phase, host: HostSampler, open_loop: bool) -> None:
        count = int(phase.seconds)
        edges = [phase.started + k for k in range(count + 1)]
        spans = [host.between(a, b) for a, b in zip(edges, edges[1:])]
        self.speed = [host.speed(a, b) for a, b in zip(edges, edges[1:])]
        self.stolen_s = [stolen for stolen, _ in spans]
        clean = [stolen <= WINDOW_STEAL_MAX_S for stolen in self.stolen_s]
        self.too_noisy = sum(clean) * 2 < count
        self.clean = clean = [True] * count if self.too_noisy else clean
        self.all_windows = phase.windows()
        self.window_cpu_s = [cpu for _, cpu in spans]
        #: per kept window: ops, ops at reference speed, CPU s at reference speed
        self.windows = [n for n, keep in zip(self.all_windows, clean) if keep]
        # An open loop's rate is set by its schedule, not by the CPU; a
        # closed loop's is restated per second the CPU was actually there.
        self.windows_at_reference = [
            n if open_loop else n / speed / (1.0 - min(stolen, 0.5))
            for n, speed, stolen, keep
            in zip(self.all_windows, self.speed, self.stolen_s, clean) if keep
        ]
        self.ops = sum(self.windows)
        self.cpu_s = sum(c for c, keep in zip(self.window_cpu_s, clean) if keep)
        self.cpu_s_at_reference = sum(
            c * speed
            for c, speed, keep in zip(self.window_cpu_s, self.speed, clean) if keep
        )
        self.latencies_ms: list[float] = []
        self.latencies_ms_at_reference: list[float] = []
        by_window: list[list[float]] = [[] for _ in range(count)]
        for end, latency, ok, _ in phase.samples:
            index = int(end - phase.started)
            if ok and 0 <= index < count:
                by_window[index].append(latency * 1e3)
                if clean[index]:
                    self.latencies_ms.append(latency * 1e3)
                    self.latencies_ms_at_reference.append(
                        latency * 1e3 * self.speed[index]
                    )
        self.latencies_ms.sort()
        self.latencies_ms_at_reference.sort()
        self.window_p50_ms = [percentile(sorted(w), 0.5) for w in by_window]

    def phase_speed(self) -> float:
        kept = [s for s, keep in zip(self.speed, self.clean) if keep]
        return statistics.median(kept) if kept else 1.0

    def end_to_end(
        self, workload: Workload, setups: list[float], at_reference: bool
    ) -> dict[str, tuple[float, int]]:
        """name → (value, sample count): what the untraced pass reports."""
        if at_reference:
            windows: list[float] = self.windows_at_reference
            latencies, cpu_s = self.latencies_ms_at_reference, self.cpu_s_at_reference
        else:
            windows, latencies, cpu_s = self.windows, self.latencies_ms, self.cpu_s
        ops = self.ops
        ops_per_s = float(statistics.median(windows)) if windows else 0.0
        return {
            "setup_s": (statistics.median(setups), len(setups)),
            "ops_per_s": (ops_per_s, len(windows)),
            "p50_ms": (percentile(latencies, 0.5), len(latencies)),
            TAIL_NAME: (percentile(latencies, TAIL_Q), len(latencies)),
            "cpu_ms_per_op": (cpu_s * 1e3 / ops if ops else 0.0, ops),
            "MB_per_s": (ops_per_s * workload.payload_bytes_per_op / 1e6, len(windows)),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ),
        }


def run_pass(
    name: str, seed: int, seconds: int, traced: bool, quick: bool = False
) -> dict[str, Any]:
    """Run one workload once; returns the result document."""
    pinned_cpu = pin_to_one_cpu()  # before the first thread exists
    warmup_s = QUICK_WARMUP_S if quick else WARMUP_S
    cycles = QUICK_SETUP_CYCLES if quick else SETUP_CYCLES
    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    grid = None
    try:
        with HostSampler(pinned_cpu) as host:
            grid, journal_path, setups, setups_ref, shutdowns = setup_phase(
                tmp_dir, cycles, tracer, host
            )
            workload = WORKLOADS[name](grid, random.Random(seed), journal_path)
            workload.prepare()
            doc, phase = _measure(
                workload, grid, seconds, warmup_s, tracer, host, setups, setups_ref
            )
        doc["provenance"] = provenance(grid, seed, pinned_cpu)
        if tracer is not None:
            # One close-and-redial of B–C: the resumed handshake's price.
            tracer.phase = "post"
            try:
                redial(grid, "B", "C")
            finally:
                tracer.phase = None
        violations = workload.finish()
        shutdowns.append(shutdown_grid(grid))
        grid = None
    finally:
        if grid is not None:
            shutdown_grid(grid)
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    doc.update(
        schema="e2e/1", workload=name, loop=workload.loop,
        clients=workload.clients, traced=traced, quick=quick,
        violations=violations,
        attempted=phase.attempted,
        # A broken invariant fails the run even if every reply was right.
        failed=phase.failed + len(violations),
        claim=None,
    )
    doc["correct"] = doc["failed"] == 0 and doc["attempted"] > 0
    doc["run"].update(setup_cycles=cycles, shutdown_s=shutdowns)
    doc["per_layer"]["grid.shutdown_s"] = statistics.median(shutdowns)
    if tracer is not None:
        doc["per_layer"].update(layers.handshake_metrics(tracer))
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        doc["run"]["trace_file"] = os.path.relpath(trace_path, REPO_ROOT)
        doc["run"]["spans_seen"] = tracer.spans_total()
        doc["run"]["spans_written"] = tracer.write_jsonl(trace_path)
    return doc


def _measure(
    workload: Workload, grid: Grid, seconds: int, warmup_s: float,
    tracer: Optional[Tracer], host: HostSampler,
    setups: list[float], setups_at_reference: list[float],
) -> tuple[dict[str, Any], Phase]:
    """Warm-up → ping-pong → measured phase → ping-pong; the numbers."""
    # Two half-length warm-up phases back to back: the first takes any
    # start-up transient, the second (wrappers installed but bypassed) is
    # the traced pass's own untraced baseline for the overhead ratio.
    first_half = workload.warm_up(warmup_s / 2)
    warm = workload.warm_up(warmup_s / 2)
    pingpong_before = host_pingpong()
    obs_before = layers.obs_totals(grid) if tracer is not None else None
    proc_before = _proc_counters()
    if tracer is not None:
        tracer.phase = "measure"
    phase = workload.run(float(seconds))
    if tracer is not None:
        tracer.phase = None
    proc_after = _proc_counters()
    threads = threading.active_count()
    obs_after = layers.obs_totals(grid) if tracer is not None else None
    pingpong_after = host_pingpong()

    measured = Measured(phase, host, open_loop=workload.loop == "open")
    windows = measured.windows_at_reference
    warm_windows = first_half.windows() + warm.windows()
    measured_rate = statistics.median(measured.windows) if measured.windows else 0.0
    burst = (
        statistics.mean(warm_windows[:2]) / measured_rate
        if warm_windows and measured_rate else 0.0
    )
    drift = thirds_drift(windows)
    invalid = []
    low, high = sorted((pingpong_before, pingpong_after))
    if low <= 0 or high / low > PINGPONG_MAX_RATIO:
        invalid.append(
            f"host ping-pong moved {pingpong_before:.0f}/s → "
            f"{pingpong_after:.0f}/s across the measured phase"
        )
    stolen = sum(measured.stolen_s) / seconds
    if measured.too_noisy:
        invalid.append(
            f"the hypervisor withheld the CPU in more than half of the 1-s "
            f"windows ({stolen:.1%} of the measured phase): nothing left out"
        )
    if workload.loop == "closed" and drift is not None and drift > DRIFT_MAX:
        invalid.append(
            f"measured phase still drifting: first vs last third of the "
            f"1-s windows {drift:.1%} apart"
        )

    e2e = measured.end_to_end(workload, setups_at_reference, at_reference=True)
    raw = measured.end_to_end(workload, setups, at_reference=False)
    ops = phase.correct_ops
    speed = measured.phase_speed()
    bench = {
        "bench.host_pingpong_per_s": min(pingpong_before, pingpong_after),
        "bench.host_steal_ratio": stolen,
        "bench.host_speed_ratio": speed,
        "bench.warmup_burst_ratio": burst,
        "bench.loadgen_late_p99_ms": percentile(phase.late, 0.99) * 1e3,
        "bench.fail_ratio": phase.failed / phase.attempted if phase.attempted else 1.0,
        "bench.open_within_limit_ratio": _within_limit(workload, phase),
        "control.monitor.read_p50_ms": percentile(phase.reads, 0.5) * 1e3 * speed,
        "proc.vcsw_per_op": (proc_after["vcsw"] - proc_before["vcsw"]) / ops if ops else 0.0,
        "proc.threads": threads,
        "proc.gc_gen2_collections": proc_after["gc2"] - proc_before["gc2"],
    }
    doc: dict[str, Any] = {
        "valid": not invalid,
        "invalid_reasons": invalid,
        "end_to_end": {
            key: {"value": value, "n": n} for key, (value, n) in e2e.items()
        },
        "end_to_end_raw": {key: value for key, (value, _) in raw.items()},
        "per_layer": bench,
        "run": {
            "warmup_s": warmup_s,
            "seconds": seconds,
            "setup_s_each": setups,
            "windows": measured.all_windows,
            "windows_kept": measured.clean,
            "window_stolen_s": measured.stolen_s,
            "window_speed": measured.speed,
            "window_p50_ms": measured.window_p50_ms,
            "window_cpu_s": measured.window_cpu_s,
            "warmup_windows": warm_windows,
            "drift_first_vs_last_third": drift,
            "host_pingpong_per_s": [pingpong_before, pingpong_after],
            "samples": {
                "ops": ops, "ops_in_kept_windows": measured.ops,
                "latencies": len(measured.latencies_ms),
                "windows": len(windows), "reads": len(phase.reads),
                "open_loop_requests": len(phase.late),
            },
            "offered_rate_per_s": workload.rate_per_s,
            "latency_limit_ms": workload.limit_ms,
            "tail_quantile": TAIL_Q,
            "latency_ms_at_reference": {
                f"p{q}": percentile(measured.latencies_ms_at_reference, q / 100)
                for q in (50, 75, 90, 95, 99)
            },
        },
    }
    if tracer is not None:
        warm_speed = host.speed(warm.started, warm.started + warm.seconds)
        per_layer, waterfall = layers.layer_metrics(
            tracer.aggregate(), layers.delta(obs_before, obs_after), ops,
            # Spans cover the whole phase, so the waterfall is read against
            # whole-phase CPU (thread CPU time is blind to stolen time anyway).
            cpu_ms_per_op=phase.cpu_s * 1e3 / ops if ops else 0.0,
            warm_cpu_ms_per_op=(
                warm.cpu_s * 1e3 * warm_speed / warm.correct_ops
                if warm.correct_ops else 0.0
            ),
            speed=speed,
            queue_depth_p50=percentile(workload.queue_depths(), 0.5),
            ledger_entries=len(grid.ledger),
        )
        doc["per_layer"].update(per_layer)
        doc["waterfall"] = waterfall
    return doc, phase


def _within_limit(workload: Workload, phase: Phase) -> float:
    """Share of attempted ops that answered correctly within the limit."""
    if workload.limit_ms is None:
        return 0.0
    attempted = sum(s[3] for s in phase.samples)
    good = sum(
        s[3] for s in phase.samples if s[2] and s[1] * 1e3 <= workload.limit_ms
    )
    return good / attempted if attempted else 0.0
