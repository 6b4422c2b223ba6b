"""Unit tests for tunnel, virtual slaves, directory, site and multiplexer."""

import threading
import time

import pytest

from repro.core.routing import DirectoryError, GridDirectory
from repro.core.site import Site, SiteNode, TaskRegistry
from repro.core.tunnel import Tunnel, TunnelError
from repro.core.virtual_slave import AppSpace, VirtualSlave
from repro.security.ca import CertificationAuthority
from repro.security.rsa import RsaKeyPair
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import channel_pair

KEY_BITS = 512


@pytest.fixture(scope="module")
def pki():
    clock = time.time
    ca = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
    key_a = RsaKeyPair.generate(KEY_BITS)
    key_b = RsaKeyPair.generate(KEY_BITS)
    return {
        "ca": ca,
        "clock": clock,
        "a": (key_a, ca.issue("proxy.A", "proxy", key_a.public)),
        "b": (key_b, ca.issue("proxy.B", "proxy", key_b.public)),
    }


def make_tunnel_pair(pki):
    raw_a, raw_b = channel_pair("tunnel")
    result = {}

    def server():
        key, cert = pki["b"]
        result["b"] = Tunnel.establish_server(
            raw_b, "proxy.B", key, cert, pki["ca"].public_key, pki["clock"]
        )

    thread = threading.Thread(target=server)
    thread.start()
    key, cert = pki["a"]
    tunnel_a = Tunnel.establish_client(
        raw_a, "proxy.A", key, cert, pki["ca"].public_key, pki["clock"]
    )
    thread.join(timeout=10.0)
    return tunnel_a, result["b"]


class TestTunnel:
    def test_establish_and_identify(self, pki):
        a, b = make_tunnel_pair(pki)
        assert a.peer_name == "proxy.B"
        assert b.peer_name == "proxy.A"
        a.close()
        b.close()

    def test_demultiplexes_by_kind(self, pki):
        a, b = make_tunnel_pair(pki)
        control, mpi = [], []
        got = threading.Event()
        b.on_frame(FrameKind.CONTROL, lambda f: control.append(f))

        def on_mpi(frame):
            mpi.append(frame)
            got.set()

        b.on_frame(FrameKind.MPI, on_mpi)
        b.start()
        a.send(Frame(kind=FrameKind.CONTROL, headers={"seq": 1}))
        a.send(Frame(kind=FrameKind.MPI, headers={"seq": 2}))
        assert got.wait(timeout=5.0)
        assert control[0].headers == {"seq": 1}
        assert mpi[0].headers == {"seq": 2}
        a.close()
        b.close()

    def test_unhandled_kind_dropped(self, pki):
        a, b = make_tunnel_pair(pki)
        seen = threading.Event()
        b.on_frame(FrameKind.CONTROL, lambda f: seen.set())
        b.start()
        a.send(Frame(kind=FrameKind.HEARTBEAT))  # no handler: dropped
        a.send(Frame(kind=FrameKind.CONTROL))
        assert seen.wait(timeout=5.0)
        a.close()
        b.close()

    def test_close_fires_callbacks(self, pki):
        a, b = make_tunnel_pair(pki)
        lost = threading.Event()
        b.on_close(lambda t: lost.set())
        b.start()
        a.close()
        assert lost.wait(timeout=5.0)
        assert not b.alive
        b.close()

    def test_send_on_dead_tunnel_raises(self, pki):
        a, b = make_tunnel_pair(pki)
        b.start()
        a.start()
        b.close()
        time.sleep(0.05)
        with pytest.raises(TunnelError):
            for _ in range(100):  # close propagation may take one send
                a.send(Frame(kind=FrameKind.CONTROL))
                time.sleep(0.01)
        a.close()

    def test_handshake_failure_with_wrong_ca(self, pki):
        rogue = CertificationAuthority(key_bits=KEY_BITS, clock=pki["clock"])
        key = RsaKeyPair.generate(KEY_BITS)
        cert = rogue.issue("proxy.evil", "proxy", key.public)
        raw_a, raw_b = channel_pair("bad")

        def server():
            try:
                key_b, cert_b = pki["b"]
                Tunnel.establish_server(
                    raw_b, "proxy.B", key_b, cert_b, pki["ca"].public_key, pki["clock"]
                )
            except TunnelError:
                pass

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(TunnelError):
            Tunnel.establish_client(
                raw_a, "proxy.evil", key, cert, rogue.public_key, pki["clock"]
            )
        thread.join(timeout=10.0)

    def test_peer_certificate_exposed(self, pki):
        a, b = make_tunnel_pair(pki)
        assert a.peer_certificate.subject == "proxy.B"
        assert b.peer_certificate.subject == "proxy.A"
        a.close()
        b.close()

    def test_cipher_suite_is_shake128(self, pki):
        # One record suite, nothing negotiated.
        a, b = make_tunnel_pair(pki)
        assert a.cipher_suite == "shake128"
        assert b.cipher_suite == "shake128"
        a.close()
        b.close()

    def test_send_many_delivers_batch_in_order(self, pki):
        a, b = make_tunnel_pair(pki)
        seen = []
        done = threading.Event()

        def on_mpi(frame):
            seen.append(frame.headers["seq"])
            if len(seen) == 40:
                done.set()

        b.on_frame(FrameKind.MPI, on_mpi)
        b.start()
        a.send_many(
            Frame(kind=FrameKind.MPI, headers={"seq": i}, payload=b"p" * i)
            for i in range(40)
        )
        assert done.wait(timeout=5.0)
        assert seen == list(range(40))
        assert a.stats.frames_sent == 40
        a.close()
        b.close()

    def test_send_many_on_dead_tunnel_raises(self, pki):
        a, b = make_tunnel_pair(pki)
        b.close()
        time.sleep(0.05)
        with pytest.raises(TunnelError):
            for _ in range(100):  # close propagation may take one send
                a.send_many([Frame(kind=FrameKind.CONTROL)])
                time.sleep(0.01)
        a.close()

    def test_handler_fault_costs_only_its_own_frame(self, pki):
        """A per-frame handler that raises must not eat the frames drained
        behind it in the same batch; the fault is counted on the owner."""
        from repro.obs.metrics import MetricsRegistry

        a, b = make_tunnel_pair(pki)
        registry = MetricsRegistry()
        b.bind_metrics(registry)
        control = []

        def on_mpi(frame):
            raise RuntimeError("rank not local")

        b.on_frame(FrameKind.MPI, on_mpi)
        b.on_frame(FrameKind.CONTROL, control.append)
        try:
            b._deliver_batch([
                Frame(kind=FrameKind.MPI, headers={"seq": 1}),
                Frame(kind=FrameKind.CONTROL, headers={"seq": 2}),
            ])
            assert [f.headers for f in control] == [{"seq": 2}]
            assert registry.counter("tunnel.handler_errors").value == 1
        finally:
            a.close()
            b.close()

    def test_batch_handler_fault_costs_only_its_own_run(self, pki):
        from repro.obs.metrics import MetricsRegistry

        a, b = make_tunnel_pair(pki)
        registry = MetricsRegistry()
        b.bind_metrics(registry)
        runs, mpi = [], []

        def on_control_batch(frames):
            runs.append([f.headers["seq"] for f in frames])
            raise RuntimeError("handler fault")

        b.on_frame_batch(FrameKind.CONTROL, on_control_batch)
        b.on_frame(FrameKind.MPI, mpi.append)
        try:
            b._deliver_batch([
                Frame(kind=FrameKind.CONTROL, headers={"seq": 1}),
                Frame(kind=FrameKind.CONTROL, headers={"seq": 2}),
                Frame(kind=FrameKind.MPI, headers={"seq": 3}),
                Frame(kind=FrameKind.CONTROL, headers={"seq": 4}),
            ])
            assert runs == [[1, 2], [4]]
            assert [f.headers["seq"] for f in mpi] == [3]
            assert registry.counter("tunnel.handler_errors").value == 2
        finally:
            a.close()
            b.close()

    def test_loop_thread_send_fails_fast_on_lock_contention(self, pki):
        """A reactor loop thread must never block on a tunnel's send lock
        (a worker holding it under backpressure would stall the only
        flusher for every channel on that loop): it gets TunnelBusy."""
        from repro.core.tunnel import TunnelBusy
        from repro.transport.reactor import Reactor

        a, b = make_tunnel_pair(pki)
        reactor = Reactor(name="lock-test").start()
        outcome = {}
        done = threading.Event()

        def loop_send():
            try:
                a.send(Frame(kind=FrameKind.HEARTBEAT))
                outcome["result"] = "sent"
            except TunnelBusy:
                outcome["result"] = "busy"
            except Exception as exc:  # pragma: no cover - diagnostic
                outcome["result"] = repr(exc)
            done.set()

        try:
            with a._send_lock:  # a worker mid-send under backpressure
                reactor.call_later(0.0, loop_send)
                assert done.wait(timeout=5.0)
            assert outcome["result"] == "busy"
            assert a.alive  # congestion, not failure
            a.send(Frame(kind=FrameKind.CONTROL))  # uncontended: fine
        finally:
            a.close()
            b.close()
            reactor.stop()


class TestVirtualSlaves:
    def make_space(self):
        space = AppSpace(app_id="app1", site="A")
        space.populate(
            rank_to_site={0: "A", 1: "A", 2: "B", 3: "C"},
            rank_to_node={0: "A.n0", 1: "A.n1", 2: "B.n0", 3: "C.n0"},
            site_to_proxy={"A": "proxy.A", "B": "proxy.B", "C": "proxy.C"},
        )
        return space

    def test_local_and_remote_ranks(self):
        space = self.make_space()
        assert space.local_ranks == [0, 1]
        assert space.remote_ranks == [2, 3]
        assert space.size == 4

    def test_slaves_created_only_for_remote(self):
        space = self.make_space()
        assert set(space.slaves) == {2, 3}
        assert space.slave_for(0) is None
        assert space.slave_for(2).peer_proxy == "proxy.B"
        assert space.slave_for(3).real_node == "C.n0"

    def test_is_local(self):
        space = self.make_space()
        assert space.is_local(0)
        assert not space.is_local(2)
        with pytest.raises(KeyError):
            space.is_local(9)

    def test_accounting(self):
        space = self.make_space()
        space.slave_for(2).account(100)
        space.slave_for(2).account(50)
        space.slave_for(3).account(10)
        assert space.totals() == (3, 160)

    def test_mismatched_maps_rejected(self):
        space = AppSpace(app_id="x", site="A")
        with pytest.raises(ValueError):
            space.populate({0: "A"}, {1: "A.n0"}, {"A": "proxy.A"})

    def test_virtual_slave_dataclass(self):
        slave = VirtualSlave(app_id="a", rank=5, peer_proxy="p", real_node="n")
        slave.account(7)
        assert slave.forwarded_messages == 1
        assert slave.forwarded_bytes == 7


class TestGridDirectory:
    def make(self):
        d = GridDirectory()
        d.register_site("A", "proxy.A", "addr.A")
        d.register_site("B", "proxy.B", "addr.B")
        d.register_node("A.n0", "A")
        d.register_node("B.n0", "B")
        return d

    def test_resolution(self):
        d = self.make()
        assert d.proxy_of_site("A") == "proxy.A"
        assert d.address_of_proxy("proxy.B") == "addr.B"
        assert d.site_of_node("A.n0") == "A"
        assert d.sites() == ["A", "B"]
        assert d.nodes_of_site("B") == ["B.n0"]
        assert d.all_nodes() == ["A.n0", "B.n0"]

    def test_find_node_soft(self):
        d = self.make()
        assert d.find_node("A.n0") == "A"
        assert d.find_node("ghost") is None

    def test_duplicate_site_rejected(self):
        d = self.make()
        with pytest.raises(DirectoryError):
            d.register_site("A", "proxy.A2", "addr")

    def test_node_needs_known_site(self):
        d = self.make()
        with pytest.raises(DirectoryError):
            d.register_node("x", "nowhere")

    def test_duplicate_node_rejected(self):
        d = self.make()
        with pytest.raises(DirectoryError):
            d.register_node("A.n0", "B")

    def test_unknown_lookups_raise(self):
        d = self.make()
        with pytest.raises(DirectoryError):
            d.proxy_of_site("Z")
        with pytest.raises(DirectoryError):
            d.address_of_proxy("nope")
        with pytest.raises(DirectoryError):
            d.site_of_node("ghost")

    def test_unregister_site_removes_everything(self):
        d = self.make()
        d.unregister_site("A")
        assert d.sites() == ["B"]
        assert d.find_node("A.n0") is None
        with pytest.raises(DirectoryError):
            d.proxy_of_site("A")

    def test_multiple_proxies_per_site(self):
        d = self.make()
        d.register_extra_proxy("A", "proxy.A2", "addr.A2")
        assert d.proxies_of_site("A") == ["proxy.A", "proxy.A2"]
        assert d.address_of_proxy("proxy.A2") == "addr.A2"

    def test_extra_proxy_validation(self):
        d = self.make()
        with pytest.raises(DirectoryError):
            d.register_extra_proxy("Z", "p", "a")
        with pytest.raises(DirectoryError):
            d.register_extra_proxy("A", "proxy.B", "a")

    def test_site_to_proxy_map_is_copy(self):
        d = self.make()
        m = d.site_to_proxy_map()
        m["A"] = "tampered"
        assert d.proxy_of_site("A") == "proxy.A"


class TestSiteNode:
    def test_execute_registered_task(self):
        node = SiteNode("n0", "A")
        assert node.execute("echo", {"value": 7}) == 7
        assert node.tasks_completed == 1
        node.shutdown()

    def test_unknown_task_raises(self):
        node = SiteNode("n0", "A")
        with pytest.raises(KeyError):
            node.execute("launch_missiles")
        node.shutdown()

    def test_task_error_propagates(self):
        registry = TaskRegistry()
        registry.register("boom", lambda: 1 / 0)
        node = SiteNode("n0", "A", tasks=registry)
        with pytest.raises(ZeroDivisionError):
            node.execute("boom")
        node.shutdown()

    def test_failed_node_rejects_work(self):
        node = SiteNode("n0", "A")
        node.fail()
        assert not node.alive
        with pytest.raises(RuntimeError, match="down"):
            node.execute("noop")
        node.recover()
        node.execute("noop")
        node.shutdown()

    def test_status_snapshot(self):
        node = SiteNode("n0", "A", cpu_speed=2.0)
        status = node.status()
        assert status.node == "n0"
        assert status.cpu_speed == 2.0
        assert status.alive
        node.shutdown()

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            SiteNode("n0", "A", cpu_speed=0)

    def test_duplicate_task_kind_rejected(self):
        registry = TaskRegistry()
        registry.register("x", lambda: 1)
        with pytest.raises(ValueError):
            registry.register("x", lambda: 2)

    def test_serial_execution_on_one_worker(self):
        order = []
        registry = TaskRegistry()
        registry.register("mark", lambda n: order.append(n))
        node = SiteNode("n0", "A", tasks=registry)
        results = []
        threads = [
            threading.Thread(target=lambda i=i: node.execute("mark", {"n": i}))
            for i in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(order) == [0, 1, 2, 3, 4]
        node.shutdown()

    def test_concurrent_tasks_never_overlap(self):
        inside, overlaps = [0], []
        registry = TaskRegistry()

        def probe(node):
            inside[0] += 1
            overlaps.append((inside[0], node.running_tasks))
            time.sleep(0.005)
            inside[0] -= 1

        registry.register("probe", probe)
        node = SiteNode("n0", "A", tasks=registry)
        threads = [
            threading.Thread(target=node.execute, args=("probe", {"node": node}))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert overlaps == [(1, 1)] * 6
        assert node.running_tasks == 0
        assert node.tasks_completed == 6

    def _hold_cpu(self):
        """A node whose only CPU is taken until ``release`` is set."""
        started, release = threading.Event(), threading.Event()
        registry = TaskRegistry()
        registry.register("hold", lambda: (started.set(), release.wait(timeout=10.0)))
        registry.register("noop", lambda: None)
        node = SiteNode("n0", "A", tasks=registry)
        holder = threading.Thread(target=node.execute, args=("hold",))
        holder.start()
        assert started.wait(timeout=5.0)
        return node, holder, release

    def test_timeout_bounds_the_wait_for_the_cpu(self):
        node, holder, release = self._hold_cpu()
        try:
            with pytest.raises(TimeoutError, match="timed out"):
                node.execute("noop", timeout=0.05)
            assert node.running_tasks == 1  # the holder, undisturbed
        finally:
            release.set()
            holder.join(timeout=5.0)
        node.execute("noop", timeout=1.0)
        assert node.tasks_completed == 2  # the refused attempt never ran

    def test_node_failing_while_a_task_waits_rejects_it(self):
        node, holder, release = self._hold_cpu()
        outcome = []

        def waiter():
            try:
                outcome.append(node.execute("noop", timeout=10.0))
            except RuntimeError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)  # usually enough to be waiting; either order must raise
        node.fail()
        release.set()
        holder.join(timeout=5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(outcome[0], RuntimeError) and "is down" in str(outcome[0])

    def test_shutdown_is_idempotent_and_nodes_own_no_thread(self):
        from repro.core.grid import Grid

        with Grid() as grid:
            grid.add_site("A", nodes=3)
            assert not [t.name for t in threading.enumerate() if t.name.startswith("node-")]
            node = grid.sites["A"].nodes["A.n0"]
            assert node.execute("echo", {"value": 1}) == 1
            node.shutdown()
            node.shutdown()


class TestSite:
    def test_add_nodes_and_statuses(self):
        site = Site(name="A")
        site.add_node("A.n0")
        site.add_node("A.n1", cpu_speed=2.0)
        assert site.node_names() == ["A.n0", "A.n1"]
        statuses = site.statuses()
        assert [s.node for s in statuses] == ["A.n0", "A.n1"]
        site.shutdown()

    def test_duplicate_node_rejected(self):
        site = Site(name="A")
        site.add_node("A.n0")
        with pytest.raises(ValueError):
            site.add_node("A.n0")
        site.shutdown()

    def test_alive_nodes_excludes_failed(self):
        site = Site(name="A")
        site.add_node("A.n0")
        site.add_node("A.n1")
        site.nodes["A.n0"].fail()
        assert [n.name for n in site.alive_nodes()] == ["A.n1"]
        site.shutdown()


class TestRequestTrackerHygiene:
    def test_failed_sends_leave_no_waiters_behind(self, monkeypatch):
        """One ``expect()`` per attempt used to stay in the tracker for the
        life of the proxy when the send itself failed."""
        from repro.core.grid import Grid
        from repro.core.protocol import Op
        from repro.core.proxy import PeerUnavailable

        with Grid() as grid:
            grid.add_site("A", nodes=1)
            grid.add_site("B", nodes=1)
            grid.connect_all()
            proxy = grid.proxy_of("A")
            peer = grid.proxy_of("B").name
            assert proxy._request_once(peer, Op.PING, None, 2.0).op == Op.PONG
            dead = proxy.tunnel_to(peer)
            dead.close()
            # The race under test: the tunnel dies between lookup and send.
            monkeypatch.setattr(proxy, "tunnel_to", lambda name: dead)
            for _ in range(100):
                with pytest.raises(PeerUnavailable, match="tunnel closed"):
                    proxy._request_once(peer, Op.PING, None, 2.0)
            assert not proxy._tracker._waiting
