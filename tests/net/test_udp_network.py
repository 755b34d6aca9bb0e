"""Tests for UDP delivery, multicast fan-out, and the network segment."""

import pytest

from repro.net import (
    Endpoint,
    LatencyModel,
    LossModel,
    Network,
    PortInUseError,
    SocketClosedError,
    UTILIZATION_WINDOW_US,
)


def make_net(**kwargs):
    return Network(latency=LatencyModel(jitter_us=0), **kwargs)


class TestTopology:
    def test_auto_address_allocation(self):
        net = make_net()
        a = net.add_node("a")
        b = net.add_node("b")
        assert a.address == "192.168.1.1"
        assert b.address == "192.168.1.2"
        assert net.node_at(a.address) is a

    def test_explicit_address(self):
        net = make_net()
        node = net.add_node("svc", address="192.168.1.77")
        assert net.node_at("192.168.1.77") is node

    def test_duplicate_address_rejected(self):
        net = make_net()
        net.add_node("a", address="192.168.1.5")
        with pytest.raises(Exception):
            net.add_node("b", address="192.168.1.5")


class TestUnicast:
    def test_delivery_and_latency(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        received = []
        b.udp.socket().bind(5000).on_datagram(lambda d: received.append((d, b.now_us)))
        a.udp.socket().bind(6000).sendto(b"hello", Endpoint(b.address, 5000))
        net.run()
        assert len(received) == 1
        datagram, at = received[0]
        assert datagram.payload == b"hello"
        assert datagram.source == Endpoint(a.address, 6000)
        assert not datagram.multicast
        # 150us fixed + 5 bytes * 8 / 10Mbps = 4us
        assert at == 154

    def test_loopback_same_node_is_fast(self):
        net = make_net()
        a = net.add_node("a")
        received = []
        a.udp.socket().bind(5000).on_datagram(lambda d: received.append(a.now_us))
        a.udp.socket().bind(6000).sendto(b"x", Endpoint(a.address, 5000))
        net.run()
        assert received == [15]

    def test_loopback_address_routes_to_self(self):
        net = make_net()
        a = net.add_node("a")
        received = []
        a.udp.socket().bind(5000).on_datagram(lambda d: received.append(d.payload))
        a.udp.socket().sendto(b"self", Endpoint("127.0.0.1", 5000))
        net.run()
        assert received == [b"self"]

    def test_unrouted_destination_counts(self):
        net = make_net()
        a = net.add_node("a")
        a.udp.socket().bind(1234).sendto(b"x", Endpoint("192.168.1.200", 9))
        net.run()
        assert net.unrouted == 1

    def test_no_listener_on_port_drops(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        received = []
        b.udp.socket().bind(5001).on_datagram(received.append)
        a.udp.socket().sendto(b"x", Endpoint(b.address, 9999))
        net.run()
        assert received == []

    def test_auto_bind_on_send(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        seen = []
        b.udp.socket().bind(5000).on_datagram(lambda d: seen.append(d.source.port))
        sock = a.udp.socket()
        sock.sendto(b"x", Endpoint(b.address, 5000))
        net.run()
        assert sock.port is not None
        assert seen == [sock.port]


class TestMulticast:
    GROUP = "239.255.255.250"

    def test_fan_out_to_members_only(self):
        net = make_net()
        nodes = [net.add_node(f"n{i}") for i in range(4)]
        received = {i: [] for i in range(4)}
        for i, node in enumerate(nodes[:3]):  # n3 never joins
            sock = node.udp.socket().bind(1900)
            if i != 2:  # n2 binds the port but does not join the group
                sock.join_group(self.GROUP)
            sock.on_datagram(lambda d, i=i: received[i].append(d.payload))
        nodes[3].udp.socket().bind(4000).sendto(b"msearch", Endpoint(self.GROUP, 1900))
        net.run()
        assert received[0] == [b"msearch"]
        assert received[1] == [b"msearch"]
        assert received[2] == []
        assert received[3] == []

    def test_sender_loopback_when_member(self):
        net = make_net()
        a = net.add_node("a")
        b = net.add_node("b")
        got = []
        a.udp.socket().bind(1900).join_group(self.GROUP).on_datagram(
            lambda d: got.append(("a", a.now_us))
        )
        b.udp.socket().bind(1900).join_group(self.GROUP).on_datagram(
            lambda d: got.append(("b", b.now_us))
        )
        a.udp.socket().bind(7000).sendto(b"x", Endpoint(self.GROUP, 1900))
        net.run()
        # Local copy arrives on the loopback path, sooner than the LAN copy.
        assert ("a", 15) in got
        assert any(who == "b" and t > 15 for who, t in got)

    def test_group_and_port_must_both_match(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        # Joined the right group but bound to a different port.
        b.udp.socket().bind(1901).join_group(self.GROUP).on_datagram(got.append)
        a.udp.socket().bind(7000).sendto(b"x", Endpoint(self.GROUP, 1900))
        net.run()
        assert got == []

    def test_leave_group_stops_delivery(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        sock = b.udp.socket().bind(1900).join_group(self.GROUP)
        sock.on_datagram(got.append)
        sock.leave_group(self.GROUP)
        a.udp.socket().bind(7000).sendto(b"x", Endpoint(self.GROUP, 1900))
        net.run()
        assert got == []

    def test_two_groups_one_socket(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        sock = b.udp.socket().bind(1900, reuse=True)
        sock.join_group("239.255.255.250").join_group("239.255.255.253")
        sock.on_datagram(lambda d: got.append(d.destination.host))
        a.udp.socket().bind(7000).sendto(b"x", Endpoint("239.255.255.250", 1900))
        a.udp.socket().bind(7001).sendto(b"y", Endpoint("239.255.255.253", 1900))
        net.run()
        assert sorted(got) == ["239.255.255.250", "239.255.255.253"]

    def test_join_requires_multicast_address(self):
        net = make_net()
        a = net.add_node("a")
        with pytest.raises(ValueError):
            a.udp.socket().join_group("192.168.1.9")


class TestBroadcast:
    def test_broadcast_reaches_all_bound_sockets(self):
        net = make_net()
        nodes = [net.add_node(f"n{i}") for i in range(3)]
        got = []
        for i, node in enumerate(nodes[:2]):
            node.udp.socket().bind(7000).on_datagram(lambda d, i=i: got.append(i))
        nodes[2].udp.socket().bind(7001).sendto(b"x", Endpoint("255.255.255.255", 7000))
        net.run()
        assert sorted(got) == [0, 1]

    def test_broadcast_needs_matching_port(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        b.udp.socket().bind(7001).on_datagram(got.append)
        a.udp.socket().bind(7000).sendto(b"x", Endpoint("255.255.255.255", 7002))
        net.run()
        assert got == []


class TestPortSemantics:
    def test_exclusive_bind_conflict(self):
        net = make_net()
        a = net.add_node("a")
        a.udp.socket().bind(427)
        with pytest.raises(PortInUseError):
            a.udp.socket().bind(427)

    def test_reuse_allows_sharing(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        a.udp.socket().bind(1900, reuse=True).join_group("239.255.255.250").on_datagram(
            lambda d: got.append(1)
        )
        a.udp.socket().bind(1900, reuse=True).join_group("239.255.255.250").on_datagram(
            lambda d: got.append(2)
        )
        b.udp.socket().bind(9).sendto(b"x", Endpoint("239.255.255.250", 1900))
        net.run()
        assert sorted(got) == [1, 2]

    def test_reuse_respects_prior_exclusive_bind(self):
        net = make_net()
        a = net.add_node("a")
        a.udp.socket().bind(427)
        with pytest.raises(PortInUseError):
            a.udp.socket().bind(427, reuse=True)

    def test_close_releases_port(self):
        net = make_net()
        a = net.add_node("a")
        sock = a.udp.socket().bind(427)
        sock.close()
        a.udp.socket().bind(427)  # no conflict after close

    def test_closed_socket_rejects_send(self):
        net = make_net()
        a = net.add_node("a")
        sock = a.udp.socket().bind(427)
        sock.close()
        with pytest.raises(SocketClosedError):
            sock.sendto(b"x", Endpoint("192.168.1.2", 427))

    def test_inbox_buffers_until_handler(self):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        sock = b.udp.socket().bind(5000)
        a.udp.socket().sendto(b"early", Endpoint(b.address, 5000))
        net.run()
        got = []
        sock.on_datagram(lambda d: got.append(d.payload))
        assert got == [b"early"]


class TestLossAndJitter:
    def test_loss_drops_udp(self):
        net = Network(latency=LatencyModel(), loss=LossModel(rate=0.5, seed=7))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        b.udp.socket().bind(5000).on_datagram(lambda d: got.append(1))
        sender = a.udp.socket().bind(6000)
        for _ in range(200):
            sender.sendto(b"x", Endpoint(b.address, 5000))
        net.run()
        assert 60 < len(got) < 140  # ~50% of 200

    def test_loss_never_applies_to_loopback(self):
        net = Network(latency=LatencyModel(), loss=LossModel(rate=0.99, seed=1))
        a = net.add_node("a")
        got = []
        a.udp.socket().bind(5000).on_datagram(lambda d: got.append(1))
        sender = a.udp.socket().bind(6000)
        for _ in range(50):
            sender.sendto(b"x", Endpoint(a.address, 5000))
        net.run()
        assert len(got) == 50

    def test_jitter_varies_latency_deterministically(self):
        def arrival(seed):
            net = Network(latency=LatencyModel(jitter_us=500, seed=seed))
            a, b = net.add_node("a"), net.add_node("b")
            times = []
            b.udp.socket().bind(5000).on_datagram(lambda d: times.append(b.now_us))
            a.udp.socket().bind(6000).sendto(b"x", Endpoint(b.address, 5000))
            net.run()
            return times[0]

        assert arrival(1) == arrival(1)
        seeds = {arrival(s) for s in range(8)}
        assert len(seeds) > 1


class TestTrafficAccounting:
    def test_counters(self):
        net = make_net(capture=True)
        a, b = net.add_node("a"), net.add_node("b")
        b.udp.socket().bind(427).on_datagram(lambda d: None)
        a.udp.socket().bind(6000).sendto(b"0123456789", Endpoint(b.address, 427))
        net.run()
        (frame,) = net.trace
        assert (frame.destination.port, frame.size) == (427, 10)
        assert net.traffic.total_messages == 1
        assert net.traffic.total_bytes == 10

    def test_multicast_counted_once_per_send(self):
        net = make_net(capture=True)
        nodes = [net.add_node(f"n{i}") for i in range(3)]
        for node in nodes[:2]:
            node.udp.socket().bind(1900).join_group("239.255.255.250")
        nodes[2].udp.socket().bind(9).sendto(b"abcd", Endpoint("239.255.255.250", 1900))
        net.run()
        assert net.traffic.total_messages == 1
        (frame,) = net.trace
        assert frame.destination.port == 1900
        assert frame.destination.is_multicast

    def test_utilization_window(self):
        net = make_net()
        net.traffic.retain(UTILIZATION_WINDOW_US)
        a, b = net.add_node("a"), net.add_node("b")
        b.udp.socket().bind(5000).on_datagram(lambda d: None)
        sender = a.udp.socket().bind(6000)
        for _ in range(10):
            sender.sendto(b"x" * 1000, Endpoint(b.address, 5000))
        net.run()
        now = net.scheduler.now_us
        util = net.traffic.utilization(now, window_us=1_000_000)
        assert util > 0
        # 10 KB over a 1s window on 10Mb/s: 80k bits / 10M bits = 0.008
        assert util == pytest.approx(0.008, rel=0.01)


class TestCapture:
    def test_trace_records_messages(self):
        net = make_net(capture=True)
        a, b = net.add_node("a"), net.add_node("b")
        b.udp.socket().bind(5000)
        a.udp.socket().bind(6000).sendto(b"payload", Endpoint(b.address, 5000))
        net.run()
        assert len(net.trace) == 1
        rec = net.trace[0]
        assert rec.transport == "udp"
        assert rec.size == 7
        assert rec.payload == b"payload"
