"""Property-based tests: simulator, network routing, schedulers, security."""

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.control.scheduler import (
    Job,
    LoadBalancedScheduler,
    NodeView,
    RoundRobinScheduler,
)
from repro.security.cipher import (
    CipherError,
    RecordCipher,
    derive_session_keys,
)
from repro.simulation.engine import Simulator
from repro.simulation.network import Network


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=20))
def test_simulated_time_is_monotonic_and_exact(delays):
    """Events fire at exactly their scheduled times, in order."""
    sim = Simulator()
    fired = []

    def proc(sim, delay):
        yield sim.timeout(delay)
        fired.append((sim.now, delay))

    for delay in delays:
        sim.spawn(proc(sim, delay))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    for fired_at, delay in fired:
        assert fired_at == delay


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0),  # producer delay
            st.integers(min_value=0, max_value=100),  # item
        ),
        min_size=1,
        max_size=15,
    )
)
def test_queue_preserves_order_under_any_timing(schedule):
    sim = Simulator()
    queue = sim.queue()
    received = []

    def producer(sim):
        for delay, item in schedule:
            yield sim.timeout(delay)
            queue.put(item)

    def consumer(sim):
        for _ in schedule:
            item = yield queue.get()
            received.append(item)

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert received == [item for _, item in schedule]


# ---------------------------------------------------------------------------
# Network routing vs networkx ground truth
# ---------------------------------------------------------------------------


@st.composite
def random_topology(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=len(possible), unique=True)
    )
    return n, edges


@settings(max_examples=50, deadline=None)
@given(random_topology())
def test_routing_reachability_matches_networkx(topology):
    n, edges = topology
    sim = Simulator()
    net = Network(sim)
    graph = nx.Graph()
    for i in range(n):
        net.add_host(f"h{i}")
        graph.add_node(i)
    for a, b in edges:
        net.connect(f"h{a}", f"h{b}", latency=0.001, bandwidth=1e6)
        graph.add_edge(a, b)
    for i in range(n):
        for j in range(n):
            assert net.reachable(f"h{i}", f"h{j}") == nx.has_path(graph, i, j)


@settings(max_examples=50, deadline=None)
@given(random_topology())
def test_routing_paths_are_shortest(topology):
    n, edges = topology
    sim = Simulator()
    net = Network(sim)
    graph = nx.Graph()
    for i in range(n):
        net.add_host(f"h{i}")
        graph.add_node(i)
    for a, b in edges:
        net.connect(f"h{a}", f"h{b}", latency=0.001, bandwidth=1e6)
        graph.add_edge(a, b)
    for i in range(n):
        for j in range(n):
            if i != j and nx.has_path(graph, i, j):
                ours = net.path(f"h{i}", f"h{j}")
                # Path is valid: consecutive hops are edges.
                hops = [int(h[1:]) for h in ours]
                assert hops[0] == i and hops[-1] == j
                for a, b in zip(hops, hops[1:]):
                    assert graph.has_edge(a, b)
                # And optimal in hop count.
                assert len(ours) - 1 == nx.shortest_path_length(graph, i, j)


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


node_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.25, max_value=8.0),  # speed
        st.floats(min_value=0.0, max_value=0.9),  # owner load
    ),
    min_size=1,
    max_size=8,
)
job_lists = st.lists(
    st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30
)


def make_views(spec):
    return [
        NodeView(name=f"n{i}", site="g", speed=speed, owner_load=load)
        for i, (speed, load) in enumerate(spec)
    ]


@settings(max_examples=50, deadline=None)
@given(node_lists, job_lists)
def test_every_job_is_assigned_exactly_once(nodes_spec, works):
    scheduler = LoadBalancedScheduler(make_views(nodes_spec))
    jobs = [Job(work=w) for w in works]
    assignments = scheduler.assign_all(jobs)
    assert sorted(assignments) == sorted(job.job_id for job in jobs)
    assert all(node in scheduler.nodes for node in assignments.values())


@settings(max_examples=50, deadline=None)
@given(node_lists, job_lists)
def test_queued_work_accounting_is_conserved(nodes_spec, works):
    scheduler = LoadBalancedScheduler(make_views(nodes_spec))
    for w in works:
        scheduler.assign(Job(work=w))
    total_queued = sum(node.queued_work for node in scheduler.nodes.values())
    assert total_queued == pytest.approx(sum(works))


@settings(max_examples=50, deadline=None)
@given(node_lists, job_lists)
def test_lb_makespan_within_greedy_approximation_bound(nodes_spec, works):
    """Greedy min-ECT is a list scheduler: its makespan is bounded by
    (total work + largest job) at the aggregate rate — the classic
    2-approximation-style bound — never better than the trivial lower
    bound.  (Note it is NOT always <= round-robin: greedy list
    scheduling is only approximately optimal, and hypothesis finds
    counterexamples to the naive claim.)"""
    assume(any(load < 1.0 for _, load in nodes_spec))
    lb = LoadBalancedScheduler(make_views(nodes_spec))
    rates = [node.effective_rate() for node in lb.nodes.values()]
    assume(all(rate > 0 for rate in rates))
    for w in works:
        lb.assign(Job(work=w))
    total_rate = sum(rates)
    fastest = max(rates)
    lower_bound = max(sum(works) / total_rate, max(works) / fastest)
    upper_bound = sum(works) / total_rate + max(works) / min(rates)
    makespan = lb.makespan_estimate()
    assert makespan >= lower_bound * 0.999
    assert makespan <= upper_bound * 1.001


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40))
def test_lb_equals_rr_on_identical_machines_and_jobs(machines, jobs):
    """With no heterogeneity and equal jobs the two policies coincide."""
    def views():
        return [NodeView(name=f"n{i}", site="g", speed=1.0) for i in range(machines)]

    rr = RoundRobinScheduler(views())
    lb = LoadBalancedScheduler(views())
    for _ in range(jobs):
        rr.assign(Job(work=10.0))
        lb.assign(Job(work=10.0))
    assert lb.makespan_estimate() == pytest.approx(rr.makespan_estimate())


@settings(max_examples=50, deadline=None)
@given(job_lists)
def test_round_robin_is_fair_in_counts(works):
    """RR assignment counts across equal nodes differ by at most one."""
    scheduler = RoundRobinScheduler(
        [NodeView(name=f"n{i}", site="g") for i in range(4)]
    )
    for w in works:
        scheduler.assign(Job(work=w))
    counts = {}
    for _, node in scheduler.assignments:
        counts[node] = counts.get(node, 0) + 1
    values = [counts.get(f"n{i}", 0) for i in range(4)]
    assert max(values) - min(values) <= 1


# ---------------------------------------------------------------------------
# Security
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(max_size=512), min_size=1, max_size=10))
def test_record_stream_round_trips_any_sequence(plaintexts):
    keys = derive_session_keys(b"\x42" * 32, "client")
    sender, receiver = RecordCipher(keys), RecordCipher(keys)
    for plaintext in plaintexts:
        assert receiver.open(sender.seal(plaintext)) == plaintext


@settings(max_examples=30, deadline=None)
@given(
    st.binary(min_size=1, max_size=256),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=255),
)
def test_any_single_byte_corruption_is_detected(plaintext, position, delta):
    keys = derive_session_keys(b"\x42" * 32, "client")
    sender, receiver = RecordCipher(keys), RecordCipher(keys)
    record = bytearray(sender.seal(plaintext))
    record[position % len(record)] ^= delta
    with pytest.raises(CipherError):
        receiver.open(bytes(record))
