"""Unit tests for the inter-proxy control protocol."""

import ast
import queue
import re
import threading
from pathlib import Path

import pytest

from repro.core.protocol import (
    OP_SPECS,
    ControlMessage,
    Op,
    OpSpec,
    ProtocolError,
    RequestTracker,
    _ReplyWaiter,
    register_op,
)
from repro.transport.frames import Frame, FrameKind


class TestOpRegistry:
    def test_core_ops_known(self):
        for code in [Op.HELLO, Op.PING, Op.STATUS_QUERY, Op.JOB_SUBMIT, Op.MPI_START]:
            assert Op.is_known(code)

    def test_name_of(self):
        assert Op.name_of(Op.PING) == "PING"
        assert Op.name_of(424242) == "op:424242"

    def test_register_extension_op(self):
        code = register_op("TEST_CUSTOM_OP_A")
        assert code >= 1000
        assert Op.is_known(code)
        assert Op.name_of(code) == "TEST_CUSTOM_OP_A"

    def test_register_explicit_code(self):
        code = register_op("TEST_CUSTOM_OP_B", code=55555)
        assert code == 55555

    def test_duplicate_code_rejected(self):
        with pytest.raises(ProtocolError):
            register_op("CLASH", code=Op.PING)

    def test_empty_name_rejected(self):
        with pytest.raises(ProtocolError):
            register_op("")

    def test_extension_op_usable_in_messages(self):
        code = register_op("TEST_CUSTOM_OP_C")
        message = ControlMessage(op=code, body={"x": 1})
        restored = ControlMessage.from_frame(message.to_frame())
        assert restored.op == code

    def test_every_op_code_is_spoken_in_src(self):
        """An op nothing sends or handles is a path nobody tests: retire
        its number in ``Op`` instead of keeping the name."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        spoken = {
            name
            for path in src.rglob("*.py")
            if path != src / "core" / "protocol.py"
            for name in re.findall(r"\bOp\.([A-Z_]+)", path.read_text(encoding="utf-8"))
        }
        declared = {
            name
            for name, value in vars(Op).items()
            if isinstance(value, int) and not name.startswith("_")
        }
        assert declared - spoken == set()


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestOpTable:
    """``OP_SPECS`` is the one place an op's reply, retry, scope and
    stamp are written; these pin its rows and police the "one"."""

    @staticmethod
    def _names(predicate):
        return {Op.name_of(op) for op, spec in OP_SPECS.items() if predicate(spec)}

    def test_rows_state_the_retry_guard_and_stamp_rules(self):
        assert self._names(lambda spec: spec.idempotent) == {
            "HELLO", "PING", "STATUS_QUERY", "LOCATE_RESOURCE", "OBS_DUMP",
            "JOB_QSUBMIT", "JOB_CLAIM", "JOB_STATUS", "JOB_DONE",
            "AUTH_LOGIN", "AUTH_REFRESH", "AUTH_REVOKE", "AUTH_RLIST",
        }
        assert {
            Op.name_of(op): spec.scope for op, spec in OP_SPECS.items() if spec.scope
        } == {
            "JOB_SUBMIT": "jobs:submit", "JOB_QSUBMIT": "wms:submit",
            "JOB_CLAIM": "wms:claim", "JOB_STATUS": "wms:read",
            "JOB_DONE": "wms:done", "MPI_START": "mpi:start",
            "MPI_END": "mpi:end", "AUTH_REVOKE": "auth:revoke",
        }
        guarded = self._names(lambda spec: spec.scope is not None)
        assert self._names(lambda spec: spec.stamp) == guarded - {"JOB_SUBMIT"}

    def test_every_served_op_has_a_row_with_a_declared_reply(self):
        from repro import Grid

        grid = Grid()
        try:
            grid.add_site("A", nodes=1)
            grid.attach_workload_manager("A")
            served = grid.proxy_of("A").pipeline.registered_ops()
        finally:
            grid.shutdown()
        # Codes 1000+ are extensions other tests registered.
        assert set(served) == {op for op in OP_SPECS if op < 1000}
        replies = {OP_SPECS[op].reply for op in served}
        assert all(Op.is_known(reply) for reply in replies - {None})
        assert not replies & set(OP_SPECS)  # an op is a request or a reply
        assert [Op.name_of(op) for op in served if OP_SPECS[op].reply is None] == ["HELLO"]

    def test_no_module_outside_protocol_defines_a_collection_of_ops(self):
        """A set, list, tuple or dict keyed by ``Op`` members anywhere else
        in ``src/`` is a second definition of some op property."""

        def is_op(node):
            return (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "Op"
            )

        found = []
        for path in sorted(SRC.rglob("*.py")):
            if path == SRC / "core" / "protocol.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                members = node.keys if isinstance(node, ast.Dict) else getattr(
                    node, "elts", ()
                )
                if any(is_op(member) for member in members):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert found == []

    def test_an_extension_op_declares_its_row_at_registration(self):
        reply = register_op("TEST_TABLE_OP_DONE")
        code = register_op("TEST_TABLE_OP", spec=OpSpec(reply, idempotent=True))
        assert OP_SPECS[code] == OpSpec(reply, idempotent=True)
        assert OP_SPECS[register_op("TEST_TABLE_OP_BARE")] == OpSpec()


class TestControlMessage:
    def test_frame_round_trip(self):
        message = ControlMessage(op=Op.JOB_SUBMIT, body={"task": "noop"}, sender="p1")
        restored = ControlMessage.from_frame(message.to_frame())
        assert restored.op == Op.JOB_SUBMIT
        assert restored.body == {"task": "noop"}
        assert restored.sender == "p1"
        assert restored.message_id == message.message_id
        assert not restored.is_reply()

    def test_reply_correlation(self):
        request = ControlMessage(op=Op.PING)
        reply = request.reply(Op.PONG, {"ok": True})
        assert reply.reply_to == request.message_id
        assert reply.is_reply()
        restored = ControlMessage.from_frame(reply.to_frame())
        assert restored.reply_to == request.message_id

    def test_unique_message_ids(self):
        ids = {ControlMessage(op=Op.PING).message_id for _ in range(100)}
        assert len(ids) == 100

    def test_unknown_op_rejected_on_send(self):
        message = ControlMessage(op=123456789)
        with pytest.raises(ProtocolError):
            message.to_frame()

    def test_non_control_frame_rejected(self):
        frame = Frame(kind=FrameKind.DATA)
        with pytest.raises(ProtocolError):
            ControlMessage.from_frame(frame)

    def test_missing_headers_rejected(self):
        frame = Frame(kind=FrameKind.CONTROL, headers={"op": Op.PING})
        with pytest.raises(ProtocolError, match="missing"):
            ControlMessage.from_frame(frame)

    def test_unknown_wire_op_rejected(self):
        frame = Frame(
            kind=FrameKind.CONTROL,
            headers={"op": 98765432, "id": 1},
            payload=b"\x08\x00\x00\x00\x00",  # empty dict
        )
        with pytest.raises(ProtocolError, match="unknown op"):
            ControlMessage.from_frame(frame)

    def test_non_dict_body_rejected(self):
        from repro.transport.frames import encode_value

        frame = Frame(
            kind=FrameKind.CONTROL,
            headers={"op": Op.PING, "id": 1},
            payload=encode_value([1, 2]),
        )
        with pytest.raises(ProtocolError, match="not a dict"):
            ControlMessage.from_frame(frame)


class TestRequestTracker:
    def test_fulfil_and_wait(self):
        tracker = RequestTracker()
        request = ControlMessage(op=Op.PING)
        tracker.expect(request)
        reply = request.reply(Op.PONG, {"n": 1})
        assert tracker.fulfil(reply)
        got = tracker.wait(request.message_id, timeout=1.0)
        assert got.op == Op.PONG
        assert got.body == {"n": 1}

    def test_wait_blocks_until_fulfilled(self):
        tracker = RequestTracker()
        request = ControlMessage(op=Op.PING)
        tracker.expect(request)

        def later():
            tracker.fulfil(request.reply(Op.PONG))

        timer = threading.Timer(0.05, later)
        timer.start()
        got = tracker.wait(request.message_id, timeout=5.0)
        assert got.op == Op.PONG

    def test_timeout(self):
        tracker = RequestTracker()
        request = ControlMessage(op=Op.PING)
        tracker.expect(request)
        with pytest.raises(ProtocolError, match="timed out"):
            tracker.wait(request.message_id, timeout=0.01)

    def test_reply_racing_the_timeout_is_returned(self):
        tracker = RequestTracker()
        request = ControlMessage(op=Op.PING)
        tracker.expect(request)

        class FulfilledJustTooLate(_ReplyWaiter):
            def get(self, block=True, timeout=None):
                assert tracker.fulfil(request.reply(Op.PONG, {"n": 1}))
                raise queue.Empty  # what get reports when the timeout won

        tracker._waiting[request.message_id] = FulfilledJustTooLate("")
        assert tracker.wait(request.message_id, timeout=0.01).body == {"n": 1}
        assert not tracker._waiting

    def test_discard_forgets_waiter_and_reply(self):
        tracker = RequestTracker()
        unsent, answered = ControlMessage(op=Op.PING), ControlMessage(op=Op.PING)
        tracker.expect(unsent)
        tracker.expect(answered)
        tracker.fulfil(answered.reply(Op.PONG))
        tracker.discard(unsent.message_id)
        tracker.discard(answered.message_id)
        tracker.discard(answered.message_id)  # idempotent
        assert not tracker._waiting
        assert not tracker.fulfil(unsent.reply(Op.PONG))  # a late reply finds nobody

    def test_unexpected_reply_ignored(self):
        tracker = RequestTracker()
        stray = ControlMessage(op=Op.PONG, reply_to=999999)
        assert not tracker.fulfil(stray)

    def test_non_reply_ignored(self):
        tracker = RequestTracker()
        assert not tracker.fulfil(ControlMessage(op=Op.PING))

    def test_wait_without_expect_rejected(self):
        tracker = RequestTracker()
        with pytest.raises(ProtocolError, match="no outstanding"):
            tracker.wait(12345, timeout=0.1)

    def test_cancel_tunnel_wakes_only_that_tunnels_waiters(self):
        tracker = RequestTracker()
        to_c, to_b = ControlMessage(op=Op.PING), ControlMessage(op=Op.PING)
        tunnel_c, tunnel_b = object(), object()
        tracker.expect(to_c, tunnel_c)
        tracker.expect(to_b, tunnel_b)
        tracker.cancel_tunnel(tunnel_c, "link down")
        reply = tracker.wait(to_c.message_id, timeout=1.0)
        assert reply.op == Op.ERROR
        assert reply.body["error"] == "link down"
        assert reply.body["cancelled"] is True
        assert list(tracker._waiting) == [to_b.message_id]
        assert tracker.fulfil(to_b.reply(Op.PONG))
        assert tracker.wait(to_b.message_id, timeout=1.0).op == Op.PONG

    def test_cancel_tunnel_keeps_a_reply_that_already_arrived(self):
        tracker = RequestTracker()
        request = ControlMessage(op=Op.PING)
        tunnel = object()
        tracker.expect(request, tunnel)
        assert tracker.fulfil(request.reply(Op.PONG, {"n": 1}))
        tracker.cancel_tunnel(tunnel)
        assert tracker.wait(request.message_id, timeout=1.0).body == {"n": 1}
