"""Unit tests for the network latency / congestion / partition model."""

from __future__ import annotations

import pytest

from repro.simulation import NetworkConfig, NetworkModel, Simulator


def make_network(simulator, **overrides):
    config = NetworkConfig(**overrides)
    return NetworkModel(simulator, config)


def test_send_delivers_after_latency():
    simulator = Simulator(seed=0)
    network = make_network(simulator, jitter_cv=0.0, base_latency=0.001)
    delivered = []
    network.send("a", "b", lambda: delivered.append(simulator.now))
    simulator.run_until(1.0)
    assert len(delivered) == 1
    assert delivered[0] == pytest.approx(0.001, rel=0.01)


def test_client_facing_latency_is_larger():
    simulator = Simulator(seed=0)
    network = make_network(simulator, jitter_cv=0.0, base_latency=0.001, client_latency=0.01)
    assert network.sample_latency(client_facing=False) == pytest.approx(0.001)
    assert network.sample_latency(client_facing=True) == pytest.approx(0.01)


def test_send_passes_arguments_to_the_callback():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    delivered = []
    assert network.send("a", "b", delivered.append, "payload", client_facing=True)
    simulator.run_until(1.0)
    assert delivered == ["payload"]


def test_partition_drops_messages():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b"})
    delivered = []
    ok = network.send("a", "b", lambda: delivered.append(1))
    simulator.run_until(1.0)
    assert not ok
    assert delivered == []
    assert network.messages_dropped == 1


def test_partition_is_symmetric_and_healable():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b", "c"})
    assert network.is_partitioned("b", "a")
    assert network.is_partitioned("a", "c")
    assert not network.is_partitioned("b", "c")
    assert network.has_partition
    network.heal_partition()
    assert not network.is_partitioned("a", "b")
    assert not network.has_partition


def test_unrelated_pairs_unaffected_by_partition():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b"})
    delivered = []
    assert network.send("c", "d", lambda: delivered.append(1))
    simulator.run_until(1.0)
    assert delivered == [1]


def test_congestion_factor_grows_when_capacity_exceeded():
    simulator = Simulator(seed=0)
    network = make_network(
        simulator,
        capacity_msgs_per_sec=100.0,
        congestion_window=0.5,
        jitter_cv=0.0,
    )
    # Push far more than 100 msgs/s for over a second of simulated time.
    for i in range(400):
        simulator.schedule(i * 0.005, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(3.0)
    assert network.congestion_factor > 1.0


def test_congestion_factor_bounded_by_max():
    simulator = Simulator(seed=0)
    network = make_network(
        simulator,
        capacity_msgs_per_sec=1.0,
        congestion_window=0.5,
        max_congestion_factor=5.0,
    )
    for i in range(500):
        simulator.schedule(i * 0.002, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(2.0)
    assert network.congestion_factor <= 5.0


def test_external_load_factor_increases_congestion():
    simulator = Simulator(seed=0)
    network = make_network(simulator, capacity_msgs_per_sec=200.0, congestion_window=0.5)
    network.set_external_load_factor(50.0)
    for i in range(300):
        simulator.schedule(i * 0.01, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(4.0)
    assert network.congestion_factor > 1.0


def test_round_trip_estimate_scales_with_congestion():
    simulator = Simulator(seed=0)
    network = make_network(simulator, base_latency=0.001, jitter_cv=0.0)
    baseline = network.round_trip_estimate()
    assert baseline == pytest.approx(0.002)


def test_messages_sent_counter():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    for _ in range(5):
        network.send("a", "b", lambda: None)
    assert network.messages_sent == 5
