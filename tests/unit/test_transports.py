"""Unit tests for the in-process and TCP transports."""

import threading
import time

import pytest

from repro.transport.errors import ChannelClosed, TransportTimeout
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import InprocFabric, channel_pair
from repro.transport.reactor import ReactorTcpListener, connect_tcp_reactor
from repro.transport.tcp import TcpListener


def data_frame(payload: bytes = b"x", **headers) -> Frame:
    return Frame(kind=FrameKind.DATA, headers=headers, payload=payload)


class TestInprocChannel:
    def test_send_recv_round_trip(self):
        a, b = channel_pair()
        a.send(data_frame(b"hello", seq=1))
        frame = b.recv(timeout=1.0)
        assert frame.payload == b"hello"
        assert frame.headers == {"seq": 1}

    def test_bidirectional(self):
        a, b = channel_pair()
        a.send(data_frame(b"ping"))
        assert b.recv(timeout=1.0).payload == b"ping"
        b.send(data_frame(b"pong"))
        assert a.recv(timeout=1.0).payload == b"pong"

    def test_order_preserved(self):
        a, b = channel_pair()
        for i in range(50):
            a.send(data_frame(seq=i))
        seqs = [b.recv(timeout=1.0).headers["seq"] for i in range(50)]
        assert seqs == list(range(50))

    def test_recv_timeout(self):
        a, b = channel_pair()
        with pytest.raises(TransportTimeout):
            b.recv(timeout=0.01)

    def test_send_after_close_raises(self):
        a, b = channel_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            a.send(data_frame())

    def test_send_to_closed_peer_raises(self):
        a, b = channel_pair()
        b.close()
        with pytest.raises(ChannelClosed):
            a.send(data_frame())

    def test_recv_after_peer_close_raises(self):
        a, b = channel_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv(timeout=1.0)
        # Closure is sticky.
        with pytest.raises(ChannelClosed):
            b.recv(timeout=1.0)

    def test_buffered_frames_drain_before_eof(self):
        a, b = channel_pair()
        a.send(data_frame(b"last words"))
        a.close()
        assert b.recv(timeout=1.0).payload == b"last words"
        with pytest.raises(ChannelClosed):
            b.recv(timeout=1.0)

    def test_close_is_idempotent(self):
        a, b = channel_pair()
        a.close()
        a.close()
        assert a.closed

    def test_stats_track_traffic(self):
        a, b = channel_pair()
        a.send(data_frame(b"12345"))
        b.recv(timeout=1.0)
        assert a.stats.frames_sent == 1
        assert b.stats.frames_received == 1
        assert a.stats.bytes_sent == b.stats.bytes_received
        assert a.stats.bytes_sent > 5  # wire size includes framing

    def test_context_manager_closes(self):
        a, b = channel_pair()
        with a:
            pass
        assert a.closed

    def test_threaded_producer_consumer(self):
        a, b = channel_pair()
        received = []

        def consumer():
            for _ in range(100):
                received.append(b.recv(timeout=5.0).headers["seq"])

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(100):
            a.send(data_frame(seq=i))
        thread.join(timeout=5.0)
        assert received == list(range(100))


class TestInprocFabric:
    def test_listen_connect_accept(self):
        fabric = InprocFabric()
        listener = fabric.listen("siteA.proxy")
        client = fabric.connect("siteA.proxy")
        server = listener.accept(timeout=1.0)
        client.send(data_frame(b"hi"))
        assert server.recv(timeout=1.0).payload == b"hi"

    def test_connect_unknown_address_raises(self):
        fabric = InprocFabric()
        with pytest.raises(ChannelClosed):
            fabric.connect("nowhere")

    def test_duplicate_bind_rejected(self):
        fabric = InprocFabric()
        fabric.listen("addr")
        with pytest.raises(ValueError):
            fabric.listen("addr")

    def test_closed_listener_rejects_connects(self):
        fabric = InprocFabric()
        listener = fabric.listen("addr")
        listener.close()
        with pytest.raises(ChannelClosed):
            fabric.connect("addr")

    def test_address_freed_after_close(self):
        fabric = InprocFabric()
        fabric.listen("addr").close()
        fabric.listen("addr")  # rebinding works

    def test_addresses_listing(self):
        fabric = InprocFabric()
        fabric.listen("b")
        fabric.listen("a")
        assert fabric.addresses() == ["a", "b"]

    def test_accept_timeout(self):
        fabric = InprocFabric()
        listener = fabric.listen("addr")
        with pytest.raises(TransportTimeout):
            listener.accept(timeout=0.01)

    def test_serve_handler_gets_channels(self):
        fabric = InprocFabric()
        listener = fabric.listen("addr")
        got = []
        event = threading.Event()

        def handler(channel):
            got.append(channel)
            event.set()

        listener.serve(handler)
        fabric.connect("addr")
        assert event.wait(timeout=2.0)
        listener.close()
        assert len(got) == 1


class TestTcpTransport:
    def test_round_trip_over_real_sockets(self):
        listener = ReactorTcpListener()
        accepted = []
        done = threading.Event()

        def server():
            channel = listener.accept(timeout=5.0)
            frame = channel.recv(timeout=5.0)
            channel.send(data_frame(frame.payload.upper()))
            accepted.append(channel)
            done.set()

        thread = threading.Thread(target=server)
        thread.start()
        client = connect_tcp_reactor(*listener.address)
        client.send(data_frame(b"hello tcp"))
        reply = client.recv(timeout=5.0)
        assert reply.payload == b"HELLO TCP"
        assert done.wait(timeout=5.0)
        client.close()
        for channel in accepted:
            channel.close()
        listener.close()
        thread.join(timeout=5.0)

    def test_many_frames_order_preserved(self):
        listener = ReactorTcpListener()
        server_channels = []

        def server():
            channel = listener.accept(timeout=5.0)
            server_channels.append(channel)
            for _ in range(200):
                frame = channel.recv(timeout=5.0)
                channel.send(frame)

        thread = threading.Thread(target=server)
        thread.start()
        client = connect_tcp_reactor(*listener.address)
        for i in range(200):
            client.send(data_frame(seq=i))
        seqs = [client.recv(timeout=5.0).headers["seq"] for _ in range(200)]
        assert seqs == list(range(200))
        thread.join(timeout=5.0)
        client.close()
        for channel in server_channels:
            channel.close()
        listener.close()

    def test_recv_after_peer_close(self):
        listener = ReactorTcpListener()
        holder = []

        def server():
            channel = listener.accept(timeout=5.0)
            holder.append(channel)
            channel.send(data_frame(b"bye"))
            channel.close()

        thread = threading.Thread(target=server)
        thread.start()
        client = connect_tcp_reactor(*listener.address)
        assert client.recv(timeout=5.0).payload == b"bye"
        with pytest.raises(ChannelClosed):
            client.recv(timeout=5.0)
        thread.join(timeout=5.0)
        client.close()
        listener.close()

    def test_send_then_close_delivers_the_frame(self):
        """``send(); close()`` used to race the loop's flush: ``close``
        cleared the write queue first and the frame was lost."""
        listener = ReactorTcpListener()
        try:
            for i in range(50):
                client = connect_tcp_reactor(*listener.address)
                server = listener.accept(timeout=5.0)
                server.send(data_frame(b"bye", seq=i))
                server.close()
                frame = client.recv(timeout=5.0)
                assert (frame.payload, frame.headers["seq"]) == (b"bye", i)
                with pytest.raises(ChannelClosed):
                    client.recv(timeout=5.0)
                client.close()
        finally:
            listener.close()

    def test_listener_accept_timeout(self):
        listener = ReactorTcpListener()
        with pytest.raises(TransportTimeoutOrClosed):
            listener.accept(timeout=0.05)
        listener.close()

    @pytest.mark.parametrize("listener_cls", [TcpListener, ReactorTcpListener])
    def test_close_wakes_a_blocked_accept(self, listener_cls):
        listener = listener_cls()
        entered = threading.Event()
        outcome = []

        def acceptor():
            entered.set()
            try:
                listener.accept(timeout=5.0)
            except Exception as exc:
                outcome.append((type(exc), time.monotonic()))

        thread = threading.Thread(target=acceptor)
        thread.start()
        assert entered.wait(timeout=5.0)
        time.sleep(0.05)  # let the thread park inside accept()
        closed_at = time.monotonic()
        listener.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        [(exc_type, woke_at)] = outcome
        assert exc_type is ChannelClosed
        assert woke_at - closed_at < 0.1

    def test_send_after_close_raises(self):
        listener = ReactorTcpListener()
        holder = []
        thread = threading.Thread(
            target=lambda: holder.append(listener.accept(timeout=5.0))
        )
        thread.start()
        client = connect_tcp_reactor(*listener.address)
        client.close()
        with pytest.raises(ChannelClosed):
            client.send(data_frame())
        thread.join(timeout=5.0)
        for channel in holder:
            channel.close()
        listener.close()

    def test_large_payload(self):
        listener = ReactorTcpListener()
        payload = bytes(range(256)) * 4096  # 1 MiB
        holder = []

        def server():
            channel = listener.accept(timeout=5.0)
            holder.append(channel)
            channel.send(data_frame(payload))

        thread = threading.Thread(target=server)
        thread.start()
        client = connect_tcp_reactor(*listener.address)
        assert client.recv(timeout=10.0).payload == payload
        thread.join(timeout=5.0)
        client.close()
        for channel in holder:
            channel.close()
        listener.close()


    def _echo_pair(self):
        """Connected (client, server_channel, listener) over loopback."""
        listener = ReactorTcpListener()
        holder = []
        thread = threading.Thread(
            target=lambda: holder.append(listener.accept(timeout=5.0))
        )
        thread.start()
        client = connect_tcp_reactor(*listener.address)
        thread.join(timeout=5.0)
        return client, holder[0], listener

    def test_send_many_batches_arrive_in_order(self):
        client, server, listener = self._echo_pair()
        try:
            # 600 frames ≈ 1200 iovec entries: one backlog that the flush
            # must split across sendmsg calls (1024 buffers each).
            frames = [data_frame(bytes([i % 256]) * (i % 97), seq=i) for i in range(600)]
            client.send_many(frames)
            got = [server.recv(timeout=5.0) for _ in range(600)]
            assert [f.headers["seq"] for f in got] == list(range(600))
            for want, have in zip(frames, got):
                assert have.payload == want.payload
            # Coalesced writes must still account per frame, and both
            # sides must agree on the wire byte count.
            assert client.stats.frames_sent == 600
            assert server.stats.frames_received == 600
            assert client.stats.bytes_sent == server.stats.bytes_received
        finally:
            client.close()
            server.close()
            listener.close()

    def test_send_many_empty_is_noop(self):
        client, server, listener = self._echo_pair()
        try:
            client.send_many([])
            assert client.stats.frames_sent == 0
        finally:
            client.close()
            server.close()
            listener.close()

    def test_concurrent_senders_never_interleave_frames(self):
        # Multiple threads hammering send()/send_many() exercise the
        # group-commit coalescing path: the loop flushes everyone's
        # queued frames in one write.  Frames must arrive intact and in
        # per-sender order.
        client, server, listener = self._echo_pair()
        n_threads, per_thread = 8, 80
        try:
            def blast(tid):
                for i in range(0, per_thread, 4):
                    batch = [
                        data_frame(bytes([tid]) * 600, tid=tid, seq=i + j)
                        for j in range(4)
                    ]
                    if tid % 2:
                        client.send_many(batch)
                    else:
                        for frame in batch:
                            client.send(frame)

            threads = [
                threading.Thread(target=blast, args=(tid,)) for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            seen = {tid: [] for tid in range(n_threads)}
            for _ in range(n_threads * per_thread):
                frame = server.recv(timeout=10.0)
                tid = frame.headers["tid"]
                assert frame.payload == bytes([tid]) * 600  # no torn frames
                seen[tid].append(frame.headers["seq"])
            for t in threads:
                t.join(timeout=5.0)
            for tid, seqs in seen.items():
                assert seqs == list(range(per_thread))  # per-sender FIFO
            assert client.stats.frames_sent == n_threads * per_thread
        finally:
            client.close()
            server.close()
            listener.close()

    def test_send_many_after_close_raises(self):
        client, server, listener = self._echo_pair()
        client.close()
        with pytest.raises(ChannelClosed):
            client.send_many([data_frame()])
        server.close()
        listener.close()


# accept() may surface a timeout as TransportTimeout; keep the intent clear.
TransportTimeoutOrClosed = TransportTimeout
