"""Unit tests for the observability layer: registry, spans, wire format.

The registry must stay correct under the concurrency it is built for
(many threads incrementing the same instrument), the histogram's
fixed-bucket quantiles must honour their edges exactly, span linkage
must reconstruct parent/child across hops, and the trace header must
survive the frame codec byte-for-byte (golden blobs below pin the wire
format: a peer from this commit and any later one must interoperate).
"""

import binascii
import sys
import threading

import pytest

from repro.core.grid import Grid
from repro.core.protocol import ControlMessage, Op
from repro.obs import (
    MetricsRegistry,
    ObsHub,
    SpanRecorder,
    TraceContext,
    current_trace,
    mint_trace,
    set_enabled,
    use_trace,
)
from repro.obs.trace import SAMPLE_EVERY
from repro.transport.frames import decode_frame, encode_frame


class TestRegistryThreadSafety:
    def test_concurrent_counter_increments_all_land(self):
        registry = MetricsRegistry("t")
        counter = registry.counter("hits")
        threads_n, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == threads_n * per_thread

    def test_concurrent_mixed_instruments_do_not_corrupt(self):
        registry = MetricsRegistry("t")
        gauge = registry.gauge("depth")
        histogram = registry.histogram("lat", bounds=[0.1, 1.0])
        rounds = 2000

        def gauge_worker():
            for _ in range(rounds):
                gauge.add(3)
                gauge.add(-3)

        def hist_worker():
            for _ in range(rounds):
                histogram.observe(0.05)

        threads = [threading.Thread(target=gauge_worker) for _ in range(4)]
        threads += [threading.Thread(target=hist_worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert gauge.value == 0
        assert histogram.count == 4 * rounds

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry("t")
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")  # same name, different kind


class TestHistogramBuckets:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        registry = MetricsRegistry("t")
        h = registry.histogram("edges", bounds=[1.0, 2.0, 5.0])
        # Exactly on an edge counts into that bucket, not the next.
        for value in (1.0, 2.0, 5.0):
            h.observe(value)
        snap = h.to_dict()
        assert snap["buckets"] == [[1.0, 1], [2.0, 1], [5.0, 1]]
        assert snap["overflow"] == 0

    def test_overflow_bucket_and_max(self):
        registry = MetricsRegistry("t")
        h = registry.histogram("over", bounds=[1.0])
        h.observe(0.5)
        h.observe(99.0)
        snap = h.to_dict()
        assert snap["overflow"] == 1
        assert snap["max"] == 99.0
        # Quantiles that land in the overflow bucket report the observed
        # max, not infinity — an answer an operator can read.
        assert snap["p99"] == 99.0

    def test_quantiles_come_from_bucket_edges(self):
        registry = MetricsRegistry("t")
        h = registry.histogram("q", bounds=[0.1, 0.5, 1.0])
        for _ in range(99):
            h.observe(0.05)
        h.observe(0.7)
        snap = h.to_dict()
        assert snap["p50"] == 0.1  # 50th falls in the first bucket
        assert snap["p99"] == 0.1
        assert snap["count"] == 100

    def test_low_quantile_skips_empty_buckets(self):
        h = MetricsRegistry("t").histogram("q", bounds=[0.1, 0.5, 1.0])
        h.observe(0.7)
        h.observe(0.7)
        assert h.quantile(0.0) == 1.0  # not the edge of an empty bucket
        assert h.quantile(0.5) == h.quantile(1.0) == 1.0


class TestSpanLinkage:
    def test_child_span_links_to_parent_across_recorders(self):
        """Two recorders play two proxies: the handler-side span must
        carry the originator's trace id and point at its span id."""
        a = SpanRecorder(origin="proxy.A")
        b = SpanRecorder(origin="proxy.B")
        root = a.start("request.JOB_SUBMIT")
        wire = root.context.to_wire()  # what the control header carries
        parent = TraceContext.from_wire(wire)
        child = b.start("handle.JOB_SUBMIT", parent=parent)
        child.finish()
        root.finish()
        (b_rec,) = b.records()
        (a_rec,) = a.records()
        assert b_rec["trace_id"] == a_rec["trace_id"]
        assert b_rec["parent_id"] == a_rec["span_id"]
        assert b_rec["origin"] == "proxy.B"

    def test_thread_local_trace_install_and_restore(self):
        assert current_trace() is None
        ctx = mint_trace()
        with use_trace(ctx):
            assert current_trace() is ctx
            inner = mint_trace()
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is ctx
        assert current_trace() is None

    def test_disabled_recorder_commits_nothing(self):
        recorder = SpanRecorder(origin="dark")
        set_enabled(False)
        try:
            span = recorder.start("request.PING")
            span.finish()
        finally:
            set_enabled(True)
        assert recorder.records() == []
        assert recorder.recorded == 0

    def test_capacity_bound_drops_oldest_and_counts(self):
        recorder = SpanRecorder(origin="small", capacity=2)
        for i in range(3):
            recorder.start(f"s{i}").finish()
        records = recorder.records()
        assert [r["name"] for r in records] == ["s1", "s2"]
        assert recorder.dropped == 1
        assert recorder.recorded == 3


# Golden wire blobs: a traced PING request and its traced PONG reply,
# encoded by this commit.  These bytes are the compatibility contract
# for the expandable trace header — regenerate only with a deliberate
# wire-format bump.
GOLDEN_TRACED_REQUEST = (
    "47580101000000000000007900000012080000000405000000026f700300000002006505"
    "0000000269640300000002002a050000000673656e646572050000000770726f78792e41"
    "0500000005747261636508000000020500000003746964050000001030306666303066663"
    "0306666303066660500000003736964050000000861623132616231320800000001050000"
    "00016b03000000020001"
)
GOLDEN_TRACED_REPLY = (
    "47580101000000000000008d00000005080000000505000000026f700300000002006605"
    "0000000269640300000002002b050000000673656e646572050000000770726f78792e42"
    "05000000087265706c795f746f0300000002002a0500000005747261636508000000020500"
    "000003746964050000001030306666303066663030666630306666050000000373696405"
    "000000086162313261623132"
    "0800000000"
)


class TestTraceWireFormat:
    TRACE = {"tid": "00ff00ff00ff00ff", "sid": "ab12ab12"}

    def _request(self) -> ControlMessage:
        return ControlMessage(
            op=Op.PING, body={"k": 1}, message_id=42, sender="proxy.A",
            trace=dict(self.TRACE),
        )

    def test_traced_request_matches_golden_bytes(self):
        data = encode_frame(self._request().to_frame())
        assert data == binascii.unhexlify(GOLDEN_TRACED_REQUEST)

    def test_traced_reply_matches_golden_bytes(self):
        reply = ControlMessage(
            op=Op.PONG, body={}, message_id=43, reply_to=42, sender="proxy.B",
            trace=dict(self.TRACE),
        )
        data = encode_frame(reply.to_frame())
        assert data == binascii.unhexlify(GOLDEN_TRACED_REPLY)

    def test_trace_survives_encode_decode_round_trip(self):
        message = self._request()
        decoded = ControlMessage.from_frame(
            decode_frame(encode_frame(message.to_frame()))
        )
        assert decoded.trace == self.TRACE
        assert TraceContext.from_wire(decoded.trace) == TraceContext(
            trace_id=self.TRACE["tid"], span_id=self.TRACE["sid"]
        )

    def test_golden_bytes_decode_to_traced_message(self):
        frame = decode_frame(binascii.unhexlify(GOLDEN_TRACED_REQUEST))
        message = ControlMessage.from_frame(frame)
        assert message.op == Op.PING
        assert message.trace == self.TRACE
        assert message.body == {"k": 1}

    def test_untraced_message_has_no_trace_header(self):
        message = ControlMessage(op=Op.PING, body={}, message_id=1)
        frame = message.to_frame()
        assert "trace" not in frame.headers
        assert ControlMessage.from_frame(frame).trace is None

    def test_malformed_trace_header_is_dropped_not_fatal(self):
        message = ControlMessage(op=Op.PING, body={}, message_id=1)
        frame = message.to_frame()
        frame.headers["trace"] = "not-a-dict"
        assert ControlMessage.from_frame(frame).trace is None

    def test_reply_inherits_request_trace(self):
        reply = self._request().reply(Op.PONG, {})
        assert reply.trace == self.TRACE


class TestObsDumpAcceptance:
    def test_two_proxy_request_yields_per_hop_spans(self):
        """The acceptance scenario: one request crossing two proxies must
        surface a span at each hop, linked into one trace, via OBS_DUMP."""
        with Grid() as grid:
            grid.add_site("A", nodes=1)
            grid.add_site("B", nodes=1)
            grid.connect_all()
            grid.add_user("alice", "pw")
            grid.grant("user:alice", "site:*", "submit")
            assert grid.submit_job_with_token(
                grid.login("alice", "pw", via_site="A"), "echo", {"value": 5},
                origin_site="A", target_site="B",
            ) == 5
            a = grid.proxy_of("A")
            origin_spans = [
                s for s in a.obs.spans.records()
                if s["name"] == "request.JOB_SUBMIT"
            ]
            assert origin_spans, "originating proxy recorded no request span"
            trace_id = origin_spans[-1]["trace_id"]
            view = grid.global_observability(via_site="A", trace_id=trace_id)
            b_spans = view["B"]["spans"]
            assert any(s["name"] == "handle.JOB_SUBMIT" for s in b_spans)
            handler = next(
                s for s in b_spans if s["name"] == "handle.JOB_SUBMIT"
            )
            assert handler["trace_id"] == trace_id
            assert handler["parent_id"] == origin_spans[-1]["span_id"]

    def test_dump_is_wire_safe_and_filters_by_trace(self):
        hub = ObsHub("p")
        hub.metrics.counter("c").inc(3)
        span = hub.spans.start("request.PING")
        span.finish()
        hub.spans.start("request.PONG").finish()
        dump = hub.dump(trace_id=span.trace_id, include_process=False)
        assert dump["metrics"]["counters"] == {"c": 3}
        assert [s["name"] for s in dump["spans"]] == ["request.PING"]
        # Wire-safety: the dump must survive the frame codec untouched.
        from repro.transport.frames import decode_value, encode_value

        assert decode_value(encode_value(dump)) == dump


class TestHeadSampling:
    """The root decides once whether a trace is recorded; every hop
    follows, and "trace header present" is the sampling bit on the wire."""

    @pytest.fixture
    def pair(self):
        with Grid() as grid:
            grid.add_site("A", nodes=1)
            grid.add_site("B", nodes=1)
            grid.connect_all()
            a, b = grid.proxy_of("A"), grid.proxy_of("B")
            frames = []
            for proxy in (a, b):
                # Every inbound control frame, request or reply, is decoded
                # here: record what actually crossed the wire.
                def decode(frame, _decode=proxy.pipeline.decode):
                    message = _decode(frame)
                    if message is not None and message.op in (Op.PING, Op.PONG):
                        frames.append(frame)
                    return message

                proxy.pipeline.decode = decode
            yield a, b, frames

    @staticmethod
    def _ping_spans(proxy):
        return [
            s for s in proxy.obs.spans.records()
            if s["name"] in ("request.PING", "handle.PING")
        ]

    def test_mint_trace_samples_one_root_in_sample_every(self):
        for skew in (0, 1, 17, SAMPLE_EVERY - 1):
            for _ in range(skew):
                mint_trace()
            minted = [mint_trace() for _ in range(2 * SAMPLE_EVERY)]
            assert sum(ctx.sampled for ctx in minted) == 2

    def test_concurrent_minting_samples_exactly_one_in_sample_every(self):
        """The shared root counter loses no update across threads."""
        threads, per_thread = 4, 4 * SAMPLE_EVERY
        sampled = [0] * threads

        def mint(index):
            sampled[index] = sum(mint_trace().sampled for _ in range(per_thread))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=mint, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sum(sampled) == threads * per_thread // SAMPLE_EVERY

    def test_parsed_and_hand_built_contexts_are_sampled(self):
        assert TraceContext("t", "s").sampled
        assert TraceContext.from_wire({"tid": "t", "sid": "s"}).sampled

    def test_disabled_layer_samples_nothing(self, pair):
        a, b, frames = pair
        set_enabled(False)
        try:
            assert not any(mint_trace().sampled for _ in range(2 * SAMPLE_EVERY))
            assert a.request(b.name, Op.PING).op == Op.PONG
        finally:
            set_enabled(True)
        assert [f.headers.get("trace") for f in frames] == [None, None]

    def test_unsampled_request_sends_no_header_and_records_no_span(self, pair):
        a, b, frames = pair
        latency = b.obs.metrics.histogram("dispatch.latency_s.PING")
        before = latency.count
        with use_trace(TraceContext("00ff00ff00ff00ff", "ab12ab12", sampled=False)):
            assert a.request(b.name, Op.PING).op == Op.PONG
        assert len(frames) == 2
        assert all("trace" not in frame.headers for frame in frames)
        assert self._ping_spans(a) == [] and self._ping_spans(b) == []
        assert latency.count == before + 1  # metrics stay on

    def test_hand_built_context_is_recorded_at_both_hops(self, pair):
        a, b, frames = pair
        with use_trace(TraceContext("00ff00ff00ff00ff", "ab12ab12")):
            assert a.request(b.name, Op.PING).op == Op.PONG
        assert all("trace" in frame.headers for frame in frames)
        (request,) = self._ping_spans(a)
        (handler,) = self._ping_spans(b)
        assert request["trace_id"] == handler["trace_id"] == "00ff00ff00ff00ff"
        assert request["parent_id"] == "ab12ab12"
        assert handler["parent_id"] == request["span_id"]

    def test_first_untraced_request_of_each_op_is_a_sampled_root(self, pair):
        a, b, frames = pair
        for _ in range(SAMPLE_EVERY):
            a.request(b.name, Op.PING)
        traced = [f for f in frames if "trace" in f.headers]
        assert len(traced) == 2  # the first PING and its PONG
        assert [s["name"] for s in self._ping_spans(a)] == ["request.PING"]
        assert [s["name"] for s in self._ping_spans(b)] == ["handle.PING"]

    def test_unsampled_load_drops_no_span(self, pair):
        a, b, _ = pair
        for _ in range(5000):
            with use_trace(TraceContext("t", "s", sampled=False)):
                a.request(b.name, Op.PING)
        assert a.obs.spans.dropped == 0 and b.obs.spans.dropped == 0
        assert self._ping_spans(a) == [] and self._ping_spans(b) == []
