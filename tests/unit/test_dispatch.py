"""Unit tests for the control-plane dispatch pipeline."""

import threading

import pytest

from repro.core.dispatch import DROP, DispatchPipeline, TokenAuthGuard
from repro.core.protocol import ControlMessage, Op
from repro.obs import ObsHub
from repro.security.auth import UserDirectory
from repro.security.tokens import Token, TokenService
from repro.transport.frames import Frame, FrameKind


@pytest.fixture
def pipeline():
    p = DispatchPipeline(name="test-dispatch", workers=2)
    yield p
    p.close()


def _message(op=Op.PING, body=None, sender="peer") -> ControlMessage:
    return ControlMessage(op=op, body=body or {}, sender=sender)


class _Sink:
    """Collects replies, with an event for cross-thread completions."""

    def __init__(self):
        self.replies = []
        self.arrived = threading.Event()

    def __call__(self, reply):
        self.replies.append(reply)
        self.arrived.set()


# ---------------------------------------------------------------------------
# Stage 1: decode
# ---------------------------------------------------------------------------


class TestDecode:
    def test_valid_frame_decodes(self, pipeline):
        message = _message()
        decoded = pipeline.decode(message.to_frame())
        assert decoded is not None
        assert decoded.op == Op.PING
        assert decoded.message_id == message.message_id

    def test_garbage_is_discarded(self, pipeline):
        junk = Frame(kind=FrameKind.CONTROL, payload=b"\x00not-a-message")
        assert pipeline.decode(junk) is None


# ---------------------------------------------------------------------------
# Stage 3: registry lookup and execution
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_inline_handler_replies(self, pipeline):
        pipeline.register(
            Op.PING, lambda message, peer: message.reply(Op.PONG, {"peer": peer})
        )
        sink = _Sink()
        pipeline.dispatch(_message(), "proxy.A", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.PONG
        assert sink.replies[0].body["peer"] == "proxy.A"

    def test_inline_handler_runs_on_callers_thread(self, pipeline):
        threads = []
        pipeline.register(
            Op.PING,
            lambda message, peer: threads.append(threading.current_thread()) or None,
        )
        pipeline.dispatch(_message(), "p", lambda r: None)
        assert threads == [threading.current_thread()]

    def test_blocking_handler_runs_on_pool(self, pipeline):
        names = []
        sink = _Sink()
        pipeline.register(
            Op.JOB_SUBMIT,
            lambda message, peer: (
                names.append(threading.current_thread().name),
                message.reply(Op.JOB_RESULT, {}),
            )[1],
            blocking=True,
        )
        pipeline.dispatch(_message(op=Op.JOB_SUBMIT), "p", sink)
        assert sink.arrived.wait(timeout=5.0)
        assert names and names[0].startswith("test-dispatch-worker")

    def test_pool_is_lazy(self, pipeline):
        pipeline.register(Op.PING, lambda message, peer: None)
        pipeline.dispatch(_message(), "p", lambda r: None)
        assert not pipeline.pool_started()
        pipeline.register(Op.JOB_SUBMIT, lambda m, p: None, blocking=True)
        sink = _Sink()
        pipeline.register(
            Op.STATUS_QUERY,
            lambda m, p: m.reply(Op.STATUS_REPORT, {}),
            blocking=True,
        )
        pipeline.dispatch(_message(op=Op.STATUS_QUERY), "p", sink)
        assert sink.arrived.wait(timeout=5.0)
        assert pipeline.pool_started()

    def test_handler_fault_becomes_error_reply(self, pipeline):
        def explode(message, peer):
            raise RuntimeError("handler blew up")

        pipeline.register(Op.PING, explode)
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.ERROR
        assert "handler blew up" in sink.replies[0].body["error"]

    def test_none_reply_answers_nothing(self, pipeline):
        pipeline.register(Op.HELLO, lambda message, peer: None)
        sink = _Sink()
        pipeline.dispatch(_message(op=Op.HELLO), "p", sink)
        assert not sink.arrived.wait(timeout=0.1)

    def test_default_handler_catches_unknown_ops(self, pipeline):
        pipeline.set_default(
            lambda message, peer: message.reply(Op.ERROR, {"error": "unhandled"})
        )
        sink = _Sink()
        pipeline.dispatch(_message(op=Op.STATUS_QUERY), "p", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.ERROR

    def test_unregister_falls_back_to_default(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        pipeline.set_default(lambda m, p: m.reply(Op.ERROR, {"error": "gone"}))
        pipeline.unregister(Op.PING)
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.ERROR

    def test_respond_failure_is_swallowed(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))

        def broken_sink(reply):
            raise OSError("peer vanished")

        pipeline.dispatch(_message(), "p", broken_sink)  # must not raise

    def test_busy_inline_reply_retries_off_loop(self, pipeline, monkeypatch):
        """A respond that fails on the event-loop thread is retried once
        from the worker pool (regression: a TunnelBusy on an inline
        reply was silently dropped, costing the requester its full
        timeout — fatal for non-idempotent ops, which never retry)."""
        from repro.core import dispatch as dispatch_mod

        loop_ident = threading.get_ident()
        monkeypatch.setattr(
            dispatch_mod,
            "on_reactor_thread",
            lambda: threading.get_ident() == loop_ident,
        )
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        delivered = _Sink()
        attempts = []

        def contended_sink(reply):
            attempts.append(threading.get_ident())
            if threading.get_ident() == loop_ident:
                raise OSError("send refused: channel busy on event-loop thread")
            delivered(reply)

        pipeline.dispatch(_message(), "p", contended_sink)
        assert delivered.arrived.wait(timeout=5.0)
        assert len(attempts) == 2
        assert attempts[1] != loop_ident  # the retry ran off-loop
        assert delivered.replies[0].op == Op.PONG

    def test_off_loop_respond_failure_is_not_requeued(self, pipeline, monkeypatch):
        """Failures on worker threads (where sends already block) keep
        the old swallow-and-drop semantics — no retry storm."""
        from repro.core import dispatch as dispatch_mod

        monkeypatch.setattr(dispatch_mod, "on_reactor_thread", lambda: False)
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        attempts = []

        def broken_sink(reply):
            attempts.append(reply)
            raise OSError("peer vanished")

        pipeline.dispatch(_message(), "p", broken_sink)  # must not raise
        assert len(attempts) == 1


# ---------------------------------------------------------------------------
# Stage 2: guards (the authorize stage)
# ---------------------------------------------------------------------------


class TestGuards:
    def test_guard_pass_through(self, pipeline):
        pipeline.add_guard(lambda message, peer: None)
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.PONG

    def test_guard_veto_with_reply(self, pipeline):
        pipeline.add_guard(
            lambda message, peer: message.reply(Op.AUTH_DENIED, {"reason": "no"})
        )
        ran = []
        pipeline.register(Op.PING, lambda m, p: ran.append(1))
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.AUTH_DENIED
        assert not ran

    def test_guard_drop_is_silent(self, pipeline):
        pipeline.add_guard(lambda message, peer: DROP)
        ran = []
        pipeline.register(Op.PING, lambda m, p: ran.append(1))
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert not sink.arrived.wait(timeout=0.1)
        assert not ran

    def test_guard_exception_becomes_error_reply(self, pipeline):
        def angry(message, peer):
            raise PermissionError("forbidden")

        pipeline.add_guard(angry)
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert sink.arrived.wait(timeout=2.0)
        assert sink.replies[0].op == Op.ERROR
        assert "forbidden" in sink.replies[0].body["error"]


class TestTokenAuthGuard:
    """The guard over the service's shared verified-blob cache: counted
    in HMACs and counters on a hand-cranked clock, never timed."""

    @pytest.fixture
    def plane(self, monkeypatch):
        now = [1000.0]
        users = UserDirectory(pbkdf_iterations=10)
        users.add_user("alice", "wonder")
        service = TokenService(users, lambda: now[0], key=b"k" * 32, issuer="proxy.A")
        obs = ObsHub("proxy.A")
        hmacs = []
        real = Token.check_signature

        def counted(self, key):
            hmacs.append(self.token_id)
            return real(self, key)

        def count(name):
            return obs.metrics.counter(f"auth.token.{name}").value

        monkeypatch.setattr(Token, "check_signature", counted)
        return service, TokenAuthGuard(service, obs=obs), now, hmacs, count

    def _submit(self, blob, op=Op.JOB_SUBMIT) -> ControlMessage:
        return ControlMessage(op=op, body={}, sender="peer", auth=blob)

    def test_second_request_is_a_hit_with_claims_attached(self, plane):
        service, guard, _, hmacs, count = plane
        blob = service.login("alice", "wonder").to_bytes()
        first, second = self._submit(blob), self._submit(blob)
        assert guard(first, "peer") is None and guard(second, "peer") is None
        assert len(hmacs) == 1
        assert (count("ok"), count("cache_hits"), count("denied")) == (2, 1, 0)
        assert second.auth_claims is first.auth_claims
        assert second.auth_claims.userid == "alice"

    def test_verdict_served_from_a_verification_made_elsewhere(self, plane):
        # The origin path (verify_blob) and the guard share one cache.
        service, guard, _, hmacs, count = plane
        blob = service.login("alice", "wonder").to_bytes()
        service.verify_blob(blob, required_scope="jobs:submit")
        assert guard(self._submit(blob), "peer") is None
        assert len(hmacs) == 1 and count("cache_hits") == 1

    @pytest.mark.parametrize("how", ["token", "user"])
    def test_revocation_denies_the_very_next_hot_request(self, plane, how):
        service, guard, _, _, count = plane
        token = service.login("alice", "wonder")
        blob = token.to_bytes()
        for _ in range(3):
            assert guard(self._submit(blob), "peer") is None
        service.revoke(token) if how == "token" else service.revoke_user("alice")
        reply = guard(self._submit(blob), "peer")
        assert reply.op == Op.AUTH_DENIED and "revoked" in reply.body["error"]
        assert (count("ok"), count("denied")) == (3, 1)

    def test_scope_and_expiry_are_honoured_on_hits(self, plane):
        service, guard, now, hmacs, count = plane
        blob = service.login("alice", "wonder").to_bytes()
        assert guard(self._submit(blob), "peer") is None
        reply = guard(self._submit(blob, Op.AUTH_REVOKE), "peer")
        assert reply.op == Op.AUTH_DENIED and "lacks scope" in reply.body["error"]
        now[0] += service.lifetime + 1.0
        reply = guard(self._submit(blob), "peer")
        assert reply.op == Op.AUTH_DENIED and "expired" in reply.body["error"]
        assert len(hmacs) == 1 and count("cache_hits") == 0

    def test_forged_blob_is_denied_every_time_and_never_cached(self, plane):
        service, guard, _, hmacs, count = plane
        blob = service.login("alice", "wonder").to_bytes()
        assert guard(self._submit(blob), "peer") is None
        forged = blob[:-1] + bytes([blob[-1] ^ 0x01])
        for _ in range(2):
            assert guard(self._submit(forged), "peer").op == Op.AUTH_DENIED
        assert len(hmacs) == 3 and count("cache_hits") == 0

    def test_guard_has_no_cache_of_its_own(self, plane):
        service, guard, *_ = plane
        with pytest.raises(TypeError):
            TokenAuthGuard(service, cache_size=16)
        assert not hasattr(guard, "_cache")


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestClose:
    def test_closed_pipeline_drops_dispatch(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        pipeline.close()
        sink = _Sink()
        pipeline.dispatch(_message(), "p", sink)
        assert not sink.arrived.wait(timeout=0.1)

    def test_close_is_idempotent(self, pipeline):
        pipeline.close()
        pipeline.close()

    def test_close_joins_pool(self, pipeline):
        started = threading.Event()
        release = threading.Event()

        def slow(message, peer):
            started.set()
            release.wait(timeout=5.0)

        pipeline.register(Op.PING, slow, blocking=True)
        pipeline.dispatch(_message(), "p", lambda r: None)
        assert started.wait(timeout=5.0)
        release.set()
        pipeline.close()
        assert not pipeline.pool_started()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            DispatchPipeline(workers=0)


# ---------------------------------------------------------------------------
# Batch dispatch: reply group commit
# ---------------------------------------------------------------------------


class TestDispatchBatch:
    def test_inline_replies_group_commit(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {"n": m.body["n"]}))
        messages = [_message(body={"n": i}) for i in range(5)]
        singles, bursts = [], []
        pipeline.dispatch_batch(
            messages, "peer", singles.append, respond_many=bursts.append
        )
        # All five inline replies leave in ONE burst, none singly.
        assert singles == []
        assert len(bursts) == 1
        assert [r.body["n"] for r in bursts[0]] == [0, 1, 2, 3, 4]
        assert [r.reply_to for r in bursts[0]] == [m.message_id for m in messages]

    def test_single_message_skips_group_commit(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        singles, bursts = [], []
        pipeline.dispatch_batch(
            [_message()], "peer", singles.append, respond_many=bursts.append
        )
        assert bursts == [] and len(singles) == 1

    def test_without_respond_many_behaves_like_dispatch(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        singles = []
        pipeline.dispatch_batch([_message(), _message()], "peer", singles.append)
        assert len(singles) == 2

    def test_single_inline_reply_in_batch_responds_singly(self, pipeline):
        # Two requests, only one yields a reply: no burst for a batch of 1.
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        pipeline.register(Op.HELLO, lambda m, p: None)
        singles, bursts = [], []
        pipeline.dispatch_batch(
            [_message(), _message(op=Op.HELLO)], "peer",
            singles.append, respond_many=bursts.append,
        )
        assert bursts == [] and len(singles) == 1

    def test_blocking_handler_replies_singly_after_window(self, pipeline):
        release = threading.Event()
        done = threading.Event()

        def slow(m, p):
            release.wait(timeout=5.0)
            return m.reply(Op.PONG, {"slow": True})

        pipeline.register(Op.PING, slow, blocking=True)
        pipeline.register(Op.STATUS_QUERY, lambda m, p: m.reply(Op.STATUS_REPORT, {}))
        singles, bursts = [], []

        def single(reply):
            singles.append(reply)
            done.set()

        pipeline.dispatch_batch(
            [_message(), _message(op=Op.STATUS_QUERY), _message(op=Op.STATUS_QUERY)],
            "peer", single, respond_many=bursts.append,
        )
        # The two inline replies group-committed while the slow one was
        # still on the pool; its late reply goes out singly.
        assert len(bursts) == 1 and len(bursts[0]) == 2
        release.set()
        assert done.wait(timeout=5.0)
        assert singles[0].body == {"slow": True}

    def test_burst_failure_falls_back_per_reply(self, pipeline):
        pipeline.register(Op.PING, lambda m, p: m.reply(Op.PONG, {}))
        singles = []

        def broken_many(batch):
            raise OSError("vectored send failed")

        pipeline.dispatch_batch(
            [_message(), _message()], "peer",
            singles.append, respond_many=broken_many,
        )
        assert len(singles) == 2  # no reply lost
