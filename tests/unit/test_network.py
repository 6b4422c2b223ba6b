"""Unit tests for the simulated network."""

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.network import (
    LAN_PROFILE,
    WAN_PROFILE,
    Network,
    Packet,
)


def make_pair():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", latency=0.010, bandwidth=1_000_000.0)
    return sim, net


def test_packet_rejects_negative_size():
    with pytest.raises(ValueError):
        Packet(source="a", destination="b", size=-1)


def test_duplicate_host_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    with pytest.raises(ValueError):
        net.add_host("a")


def test_link_validation():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    with pytest.raises(ValueError):
        net.connect("a", "b", latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        net.connect("a", "b", latency=0.0, bandwidth=0.0)
    with pytest.raises(KeyError):
        net.connect("a", "nope", latency=0.0, bandwidth=1.0)


def test_delivery_time_is_latency_plus_transmission():
    sim, net = make_pair()
    got = []
    net.hosts["b"].on_packet(lambda p: got.append((sim.now, p)))
    # 1000 bytes at 1 MB/s = 1 ms transmission + 10 ms latency
    net.hosts["a"].send("b", size=1000)
    sim.run()
    assert len(got) == 1
    assert got[0][0] == pytest.approx(0.011)


def test_fifo_serialisation_on_link():
    sim, net = make_pair()
    times = []
    net.hosts["b"].on_packet(lambda p: times.append(sim.now))
    # Two back-to-back 1000-byte packets: second waits for the transmitter.
    net.hosts["a"].send("b", size=1000)
    net.hosts["a"].send("b", size=1000)
    sim.run()
    assert times[0] == pytest.approx(0.011)
    assert times[1] == pytest.approx(0.012)


def test_inbox_default_delivery():
    sim, net = make_pair()
    received = []

    def consumer(sim):
        packet = yield net.hosts["b"].inbox.get()
        received.append(packet.payload)

    sim.spawn(consumer(sim))
    net.hosts["a"].send("b", size=10, payload="hello")
    sim.run()
    assert received == ["hello"]


def test_multi_hop_routing_through_relay():
    sim = Simulator()
    net = Network(sim)
    for name in ["a", "relay", "b"]:
        net.add_host(name)
    net.connect("a", "relay", latency=0.001, bandwidth=1e6)
    net.connect("relay", "b", latency=0.001, bandwidth=1e6)
    got = []
    net.hosts["b"].on_packet(lambda p: got.append(p))
    net.hosts["a"].send("b", size=100)
    sim.run()
    assert len(got) == 1
    assert got[0].hops == 2
    assert net.path("a", "b") == ["a", "relay", "b"]


def test_no_route_raises():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")  # not connected
    with pytest.raises(KeyError):
        net.hosts["a"].send("b", size=1)


def test_reachability():
    sim, net = make_pair()
    assert net.reachable("a", "b")
    assert net.reachable("a", "a")
    net.add_host("c")
    assert not net.reachable("a", "c")


def test_shortest_path_chosen():
    sim = Simulator()
    net = Network(sim)
    for name in ["a", "b", "x", "y"]:
        net.add_host(name)
    net.connect("a", "b", latency=0.001, bandwidth=1e6)  # direct
    net.connect("a", "x", latency=0.001, bandwidth=1e6)
    net.connect("x", "y", latency=0.001, bandwidth=1e6)
    net.connect("y", "b", latency=0.001, bandwidth=1e6)
    assert net.path("a", "b") == ["a", "b"]


def test_remove_host_breaks_route():
    sim = Simulator()
    net = Network(sim)
    for name in ["a", "relay", "b"]:
        net.add_host(name)
    net.connect("a", "relay", latency=0.001, bandwidth=1e6)
    net.connect("relay", "b", latency=0.001, bandwidth=1e6)
    assert net.reachable("a", "b")
    net.remove_host("relay")
    assert not net.reachable("a", "b")


def test_disconnect_breaks_route():
    sim, net = make_pair()
    net.disconnect("a", "b")
    assert not net.reachable("a", "b")


def test_link_stats_accumulate():
    sim, net = make_pair()
    net.hosts["b"].on_packet(lambda p: None)
    net.hosts["a"].send("b", size=500)
    net.hosts["a"].send("b", size=700)
    sim.run()
    link = net.link("a", "b")
    assert link.stats.packets == 2
    assert link.stats.bytes == 1200
    assert link.stats.busy_time == pytest.approx(1200 / 1_000_000.0)


def test_drop_predicate_blackholes_packet():
    sim, net = make_pair()
    got = []
    net.hosts["b"].on_packet(lambda p: got.append(p))
    net.link("a", "b").drop_predicate = lambda p: True
    arrival = net.hosts["a"].send("b", size=100)
    sim.run()
    assert arrival == float("inf")
    assert got == []


def test_network_metrics_count_traffic():
    sim, net = make_pair()
    net.hosts["b"].on_packet(lambda p: None)
    net.hosts["a"].send("b", size=100)
    sim.run()
    assert net.packets_sent == 1
    assert net.bytes_sent == 100


def test_profiles_have_sane_shape():
    assert WAN_PROFILE["latency"] > LAN_PROFILE["latency"]
    assert WAN_PROFILE["bandwidth"] < LAN_PROFILE["bandwidth"]


def test_utilisation_bounded():
    sim, net = make_pair()
    net.hosts["b"].on_packet(lambda p: None)
    net.hosts["a"].send("b", size=1_000_000)
    sim.run()
    link = net.link("a", "b")
    assert 0.0 < link.utilisation(sim.now) <= 1.0
    assert link.utilisation(0.0) == 0.0
