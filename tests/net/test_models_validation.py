"""Validation and edge-case tests for latency/loss models and traffic."""

import pytest

from repro.net import Endpoint, LatencyModel, LossModel, Network
from repro.net.traffic import TrafficMonitor

from .introspect import bound_ports


class TestLatencyModel:
    def test_transmission_time(self):
        model = LatencyModel(bandwidth_bps=10_000_000, jitter_us=0)
        # 12,500 bytes = 100,000 bits -> 10 ms at 10 Mb/s
        assert model.transmission_us(12_500) == 10_000

    def test_infinite_bandwidth(self):
        model = LatencyModel(bandwidth_bps=None)
        assert model.transmission_us(10_000_000) == 0

    def test_zero_size(self):
        assert LatencyModel().transmission_us(0) == 0

    def test_loopback_ignores_size_and_jitter(self):
        model = LatencyModel(jitter_us=1000, loopback_latency_us=15)
        assert model.delay_us(1_000_000, loopback=True) == 15

    def test_delay_is_at_least_one(self):
        model = LatencyModel(lan_latency_us=0, bandwidth_bps=None, jitter_us=0)
        assert model.delay_us(0, loopback=False) == 1

    def test_reseed_reproduces(self):
        model = LatencyModel(jitter_us=500, seed=9)
        first = [model.delay_us(100, False) for _ in range(5)]
        model.reseed(9)
        second = [model.delay_us(100, False) for _ in range(5)]
        assert first == second


class TestLossModel:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            LossModel(rate=1.0)
        with pytest.raises(ValueError):
            LossModel(rate=-0.1)
        LossModel(rate=0.0)

    def test_counters(self):
        model = LossModel(rate=0.5, seed=3)
        for _ in range(100):
            model.should_drop()
        assert model.dropped + model.delivered == 100
        assert model.dropped > 10

    def test_zero_rate_never_drops(self):
        model = LossModel(rate=0.0)
        assert not any(model.should_drop() for _ in range(50))
        assert model.dropped == 0


class TestTrafficMonitor:
    def test_window_larger_than_retention_rejected(self):
        monitor = TrafficMonitor(bandwidth_bps=10_000_000, window_us=1_000)
        with pytest.raises(ValueError):
            monitor.bytes_in_window(0, 2_000)

    def test_zero_window_rejected(self):
        for bandwidth in (10_000_000, None):
            monitor = TrafficMonitor(bandwidth_bps=bandwidth)
            with pytest.raises(ValueError):
                monitor.utilization(0, window_us=0)

    def test_utilization_window_longer_than_retention_rejected(self):
        """A saturated link reads 1.0 over the whole retained window; a
        longer window cannot be measured, so it raises rather than count
        the unretained part as idle."""
        monitor = TrafficMonitor(bandwidth_bps=8_000_000, window_us=5_000_000)  # 1 MB/s
        for time_us in range(0, 10_000_000, 10_000):
            monitor.record(time_us, 10_000)
        assert monitor.utilization(9_999_999, window_us=5_000_000) == 1.0
        with pytest.raises(ValueError):
            monitor.utilization(9_999_999, window_us=10_000_000)

    def test_no_bandwidth_means_zero_utilization(self):
        monitor = TrafficMonitor(bandwidth_bps=None)
        monitor.record(0, 100)
        assert monitor.utilization(0) == 0.0

    def test_old_samples_evicted(self):
        monitor = TrafficMonitor(bandwidth_bps=10_000_000, window_us=1_000)
        monitor.record(0, 100)
        monitor.record(10_000, 100)
        # After eviction only the recent sample remains in the window.
        assert monitor.bytes_in_window(10_000, 1_000) == 100
        # Cumulative totals keep everything.
        assert monitor.total_bytes == 200


class TestEphemeralPorts:
    def test_udp_ephemeral_skips_bound(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        node.udp.socket().bind(49152)  # squat on the first ephemeral port
        sock = node.udp.socket()
        sock.sendto(b"x", Endpoint("192.168.1.99", 9))
        assert sock.port == 49153

    def test_udp_ephemeral_wraps_past_65535_and_skips_bound_ports(self):
        from repro.net import NotBoundError

        net = Network(latency=LatencyModel(jitter_us=0))
        stack = net.add_node("n").udp
        span = 65536 - stack.EPHEMERAL_BASE
        first = [stack.ephemeral_port() for _ in range(3)]
        assert first == [49152, 49153, 49154]  # numbering unchanged
        held = [stack.socket().bind(port) for port in (49152, 49154)]
        for _ in range(span - 3):
            stack.ephemeral_port()
        # The cursor wrapped: 49152 and 49154 are bound, 49153 is free.
        assert stack.ephemeral_port() == 49153
        assert stack.ephemeral_port() == 49155
        for port in range(stack.EPHEMERAL_BASE, 65536):
            if port not in (49152, 49154):
                stack.socket().bind(port)
        with pytest.raises(NotBoundError):
            stack.ephemeral_port()
        held[0].close()
        assert stack.ephemeral_port() == 49152

    def test_throwaway_reply_sockets_close_after_sending(self):
        """A unit's fire-and-forget sends return their ports: 20000 of
        them from one node neither leak sockets nor run out of ports."""
        from repro.core.unit import UnitRuntime

        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        runtime = UnitRuntime(node)
        ports_before = bound_ports(node.udp)
        for _ in range(20_000):
            runtime.send_udp_from_new_socket(b"x", Endpoint("192.168.1.99", 9))
        assert bound_ports(node.udp) == ports_before
        assert runtime.messages_sent == 20_000

    def test_tcp_ephemeral_monotonic(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        first = node.tcp.ephemeral_port()
        second = node.tcp.ephemeral_port()
        assert second == first + 1
