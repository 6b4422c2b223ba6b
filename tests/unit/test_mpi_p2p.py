"""Unit tests for minimpi point-to-point messaging and the launcher."""

import pytest

from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, MpiError
from repro.mpi.launcher import mpirun, round_robin_placement
from repro.mpi.router import Endpoint, LocalRouter, RouterError
from repro.mpi.datatypes import Envelope
from repro.transport.frames import encode_value


class TestEndpoint:
    def make_envelope(self, source=0, tag=0, payload="x"):
        return Envelope(source=source, dest=1, tag=tag, payload=payload)

    def test_deliver_then_match(self):
        ep = Endpoint(1)
        ep.deliver(self.make_envelope(payload="hello"))
        assert ep.match(0, 0, timeout=1.0).payload == "hello"

    def test_match_by_source(self):
        ep = Endpoint(1)
        ep.deliver(self.make_envelope(source=2, payload="from2"))
        ep.deliver(self.make_envelope(source=3, payload="from3"))
        assert ep.match(3, -1, timeout=1.0).payload == "from3"
        assert ep.match(2, -1, timeout=1.0).payload == "from2"

    def test_match_by_tag(self):
        ep = Endpoint(1)
        ep.deliver(self.make_envelope(tag=5, payload="five"))
        ep.deliver(self.make_envelope(tag=7, payload="seven"))
        assert ep.match(-1, 7, timeout=1.0).payload == "seven"

    def test_wildcard_takes_first(self):
        ep = Endpoint(1)
        ep.deliver(self.make_envelope(source=4, tag=1, payload="first"))
        ep.deliver(self.make_envelope(source=5, tag=2, payload="second"))
        assert ep.match(-1, -1, timeout=1.0).payload == "first"

    def test_match_timeout(self):
        ep = Endpoint(1)
        with pytest.raises(TimeoutError):
            ep.match(0, 0, timeout=0.01)

    def test_peek_is_nondestructive(self):
        ep = Endpoint(1)
        ep.deliver(self.make_envelope(payload="stay"))
        assert ep.peek(0, 0).payload == "stay"
        assert ep.pending_count() == 1

    def test_closed_endpoint_raises(self):
        ep = Endpoint(1)
        ep.close()
        with pytest.raises(RouterError):
            ep.deliver(self.make_envelope())
        with pytest.raises(RouterError):
            ep.match(0, 0, timeout=1.0)

    def test_fifo_within_source_and_tag(self):
        ep = Endpoint(1)
        for i in range(5):
            ep.deliver(self.make_envelope(payload=i))
        got = [ep.match(0, 0, timeout=1.0).payload for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]


class TestLocalRouter:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LocalRouter(0)

    def test_route_to_unknown_rank(self):
        router = LocalRouter(2)
        with pytest.raises(RouterError):
            router.send(Envelope(source=0, dest=5, tag=0, payload=None))

    def test_on_send_hook_sees_traffic(self):
        router = LocalRouter(2)
        seen = []
        router.on_send = seen.append
        router.send(Envelope(source=0, dest=1, tag=0, payload="x"))
        assert len(seen) == 1
        assert seen[0].payload == "x"

    def test_endpoint_bounds(self):
        router = LocalRouter(2)
        with pytest.raises(RouterError):
            router.endpoint(2)


class TestPointToPoint:
    def test_ping_pong(self):
        def app(comm):
            if comm.rank == 0:
                comm.send("ping", dest=1)
                return comm.recv(source=1)
            message = comm.recv(source=0)
            comm.send(message + "-pong", dest=0)
            return message

        result = mpirun(app, 2, timeout=10.0)
        assert result.ok
        assert result.returns == ["ping-pong", "ping"]

    def test_tags_separate_streams(self):
        def app(comm):
            if comm.rank == 0:
                comm.send("urgent", dest=1, tag=9)
                comm.send("normal", dest=1, tag=1)
                return None
            # Receive in reverse send order using tags.
            normal = comm.recv(source=0, tag=1, timeout=10.0)
            urgent = comm.recv(source=0, tag=9, timeout=10.0)
            return (urgent, normal)

        result = mpirun(app, 2, timeout=10.0)
        assert result.returns[1] == ("urgent", "normal")

    def test_any_source_any_tag(self):
        def app(comm):
            if comm.rank == 0:
                got = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG, timeout=10.0)
                       for _ in range(comm.size - 1)]
                return sorted(got)
            comm.send(comm.rank * 10, dest=0, tag=comm.rank)
            return None

        result = mpirun(app, 4, timeout=10.0)
        assert result.returns[0] == [10, 20, 30]

    def test_recv_with_status(self):
        def app(comm):
            if comm.rank == 0:
                comm.send("data", dest=1, tag=3)
                return None
            payload, status = comm.recv(with_status=True, timeout=10.0)
            return (payload, status.source, status.tag)

        result = mpirun(app, 2, timeout=10.0)
        assert result.returns[1] == ("data", 0, 3)

    def test_sendrecv_pairwise_exchange(self):
        def app(comm):
            partner = 1 - comm.rank
            return comm.sendrecv(f"from{comm.rank}", dest=partner, source=partner,
                                 timeout=10.0)

        result = mpirun(app, 2, timeout=10.0)
        assert result.returns == ["from1", "from0"]

    def test_isend_irecv(self):
        def app(comm):
            if comm.rank == 0:
                request = comm.isend({"k": 1}, dest=1)
                request.wait(timeout=10.0)
                return None
            request = comm.irecv(source=0)
            return request.wait(timeout=10.0)

        result = mpirun(app, 2, timeout=10.0)
        assert result.returns[1] == {"k": 1}

    def test_probe(self):
        def app(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=2)
                comm.send("done", dest=1, tag=0)
                return None
            comm.recv(source=0, tag=0, timeout=10.0)  # wait until both arrived
            status = comm.probe(tag=2)
            value = comm.recv(source=0, tag=2, timeout=10.0)
            return (status is not None, status.tag, value)

        result = mpirun(app, 2, timeout=10.0)
        assert result.returns[1] == (True, 2, "x")

    def test_probe_empty_returns_none(self):
        def app(comm):
            return comm.probe()

        result = mpirun(app, 1, timeout=10.0)
        assert result.returns[0] is None

    def test_invalid_peer_rejected(self):
        def app(comm):
            comm.send("x", dest=99)

        result = mpirun(app, 2, timeout=10.0)
        assert isinstance(result.errors[0], MpiError)
        assert isinstance(result.errors[1], MpiError)

    def test_negative_user_tag_rejected(self):
        def app(comm):
            comm.send("x", dest=0, tag=-5)

        result = mpirun(app, 1, timeout=10.0)
        assert isinstance(result.errors[0], MpiError)

    def test_traffic_accounting(self):
        def app(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1)
                return (comm.messages_sent, comm.bytes_sent)
            comm.recv(source=0, timeout=10.0)
            return (comm.messages_sent, comm.bytes_sent)

        result = mpirun(app, 2, timeout=10.0)
        assert result.returns[0] == (1, len(encode_value("payload")))
        assert result.returns[1] == (0, 0)


class TestLauncher:
    def test_round_robin_placement(self):
        assert round_robin_placement(5, ["a", "b"]) == ["a", "b", "a", "b", "a"]

    def test_round_robin_empty_hosts(self):
        with pytest.raises(ValueError):
            round_robin_placement(3, [])

    def test_placement_recorded_in_result(self):
        result = mpirun(lambda comm: comm.rank, 4, hosts=["h0", "h1"], timeout=10.0)
        assert result.placement == ["h0", "h1", "h0", "h1"]

    def test_single_rank(self):
        result = mpirun(lambda comm: comm.size, 1, timeout=10.0)
        assert result.returns == [1]

    def test_nprocs_validation(self):
        with pytest.raises(ValueError):
            mpirun(lambda comm: None, 0)

    def test_app_exception_captured_not_fatal(self):
        def app(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            return "survived"

        result = mpirun(app, 3, timeout=10.0)
        assert not result.ok
        assert result.returns[0] == "survived"
        assert isinstance(result.errors[1], RuntimeError)
        with pytest.raises(RuntimeError, match="rank 1 died"):
            result.raise_first()

    def test_extra_args_passed(self):
        result = mpirun(lambda comm, x, y: x + y, 2, args=(3, 4), timeout=10.0)
        assert result.returns == [7, 7]

    def test_deadlock_detection(self):
        def app(comm):
            # Every rank waits for a message nobody sends.
            comm.recv(source=comm.rank, tag=0)

        with pytest.raises(TimeoutError, match="did not finish"):
            mpirun(app, 2, timeout=0.3)
