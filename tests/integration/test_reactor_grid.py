"""Integration tests for the event-driven core on a live grid.

The reactor migration's claims, checked end-to-end: O(loops + pool)
threads regardless of tunnel count, clean repeated start/shutdown with
no thread leaks, timer-driven heartbeats feeding the failure detector,
and tunnel-level backpressure that congests without killing the link.
"""

import threading
import time

import pytest

from repro.control.failure import FailureDetector, PeerState
from repro.core.grid import Grid
from repro.core.tunnel import Tunnel, TunnelBusy
from repro.security.cipher import RecordCipher, derive_session_keys, random_master_secret
from repro.security.handshake import PeerIdentity, SecureChannel
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import channel_pair


def _settled_thread_count(baseline: int, slack: int = 1, timeout: float = 5.0) -> int:
    """Wait for dying threads to finish, then return the live count."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        count = threading.active_count()
        if count <= baseline + slack:
            return count
        time.sleep(0.02)
    return threading.active_count()


class TestThreadBudget:
    def test_connected_grid_uses_loop_not_thread_per_tunnel(self):
        """4 sites fully meshed = 12 tunnels plus node-local secure
        channels; the I/O cost must stay one shared loop thread.  The
        remaining threads are per-node workers and per-proxy acceptors."""
        sites = ["A", "B", "C", "D"]
        nodes_per_site = 2
        before = threading.active_count()
        grid = Grid()
        try:
            for name in sites:
                grid.add_site(name, nodes=nodes_per_site)
            grid.connect_all()
            budget = len(sites) * nodes_per_site + len(sites) + 2
            assert threading.active_count() - before <= budget
        finally:
            grid.shutdown()


class TestShutdownOrdering:
    def test_fifty_start_shutdown_cycles_leak_nothing(self):
        """Regression for the shutdown races: listener closed before
        tunnels, reader callbacks quiesced, every thread joined.  Any
        leak compounds over 50 cycles and trips the final bound."""
        baseline = threading.active_count()
        for cycle in range(50):
            grid = Grid()
            grid.add_site("A", nodes=1)
            grid.add_site("B", nodes=1)
            grid.connect_all()
            grid.shutdown()
        settled = _settled_thread_count(baseline, slack=1)
        assert settled <= baseline + 1, (
            f"thread leak after 50 cycles: {baseline} -> {settled}: "
            f"{[t.name for t in threading.enumerate()]}"
        )

    def test_shutdown_is_idempotent_and_reentrant(self):
        grid = Grid()
        grid.add_site("A", nodes=1)
        grid.add_site("B", nodes=1)
        grid.connect_all()
        grid.proxy_of("A").shutdown()
        grid.proxy_of("A").shutdown()
        grid.shutdown()
        grid.shutdown()


class TestTimerHeartbeats:
    def test_silence_is_detected_and_recovery_observed(self):
        """Proxy A heartbeats on a reactor timer; B stays silent.  A's
        detector must walk ALIVE -> SUSPECT -> DEAD on timer-driven
        ``check`` calls alone, then flip back to ALIVE when B finally
        speaks."""
        grid = Grid()
        try:
            grid.add_site("A", nodes=1)
            grid.add_site("B", nodes=1)
            grid.connect_all()
            pa = grid.proxy_of("A")
            pb = grid.proxy_of("B")

            detector = FailureDetector(
                clock=pa.clock, suspect_after=0.15, dead_after=0.4
            )
            dead, recovered = threading.Event(), threading.Event()
            detector.on_dead.append(lambda peer: dead.set())
            detector.on_recover.append(lambda peer: recovered.set())
            detector.watch("proxy.B")
            pa.health = detector

            pa.start_heartbeats(0.05)
            assert dead.wait(timeout=10.0), "silent peer never declared DEAD"
            assert detector.state_of("proxy.B") is PeerState.DEAD

            pb.start_heartbeats(0.05)
            assert recovered.wait(timeout=10.0), "peer never recovered"
            assert detector.state_of("proxy.B") is PeerState.ALIVE
        finally:
            grid.shutdown()

    def test_start_heartbeats_is_idempotent(self):
        grid = Grid()
        try:
            grid.add_site("A", nodes=1)
            pa = grid.proxy_of("A")
            first = pa.start_heartbeats(5.0)
            assert pa.start_heartbeats(5.0) is first
            pa.stop_heartbeats()
            assert pa._heartbeat_timer is None
        finally:
            grid.shutdown()

    def test_grid_level_interval_arms_every_proxy(self):
        grid = Grid(heartbeat_interval=5.0)
        try:
            grid.add_site("A", nodes=1)
            grid.add_site("B", nodes=1)
            assert grid.proxy_of("A")._heartbeat_timer is not None
            assert grid.proxy_of("B")._heartbeat_timer is not None
        finally:
            grid.shutdown()


class _FakePeer:
    subject = "test-peer"
    role = "proxy"


def _secure_pair(maxsize: int, send_timeout: float):
    """Secure channel pair over a bounded in-process buffer, skipping the
    handshake (both ends derive from one master secret)."""
    raw_a, raw_b = channel_pair("busy", maxsize=maxsize, send_timeout=send_timeout)
    master = random_master_secret()
    ck = derive_session_keys(master, "client")
    sk = derive_session_keys(master, "server")
    peer = PeerIdentity(_FakePeer())
    a = SecureChannel(raw_a, RecordCipher(ck), RecordCipher(sk), peer)
    b = SecureChannel(raw_b, RecordCipher(sk), RecordCipher(ck), peer)
    return a, b


class TestTunnelBackpressure:
    def test_congested_tunnel_raises_busy_without_closing(self):
        secure_a, secure_b = _secure_pair(maxsize=4, send_timeout=0.05)
        sender = Tunnel(secure_a, "a")
        frame = Frame(kind=FrameKind.DATA, payload=b"\x42" * 64)
        # The peer never starts reading: the bounded buffer fills after
        # exactly ``maxsize`` frames, then sends fail fast and loudly.
        for _ in range(4):
            sender.send(frame)
        with pytest.raises(TunnelBusy):
            sender.send(frame)
        assert sender.alive, "backpressure must not tear the tunnel down"
        # Draining the peer un-wedges the very next send.
        secure_b.recv(timeout=1.0)
        sender.send(frame)
        sender.close()
        secure_b.close()

    def test_busy_is_a_tunnel_error_subclass(self):
        """Existing except-TunnelError callers keep working unchanged."""
        from repro.core.tunnel import TunnelError

        assert issubclass(TunnelBusy, TunnelError)

