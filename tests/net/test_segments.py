"""Multi-segment internetworks: scoping, bridging, and unicast routing."""

import pytest

from repro.net import Endpoint, Network
from repro.net.errors import AddressError, NetworkError
from repro.net.latency import LatencyModel
from repro.net.segment import Link, Router


def flat_latency(us=100):
    return LatencyModel(lan_latency_us=us, loopback_latency_us=10, bandwidth_bps=None)


class TestTopology:
    def test_default_network_is_single_segment(self):
        net = Network()
        node = net.add_node("a")
        assert net.default_segment.name == "lan0"
        assert node.segment is net.default_segment
        assert node.segments == [net.default_segment]

    def test_segments_get_distinct_auto_subnets(self):
        net = Network()
        seg1 = net.add_segment("one")
        seg2 = net.add_segment("two")
        a = net.add_node("a", segment=seg1)
        b = net.add_node("b", segment=seg2)
        assert a.address.rsplit(".", 1)[0] != b.address.rsplit(".", 1)[0]

    def test_duplicate_segment_name_rejected(self):
        net = Network()
        net.add_segment("x")
        with pytest.raises(NetworkError):
            net.add_segment("x")

    def test_bridge_multi_homes_a_node(self):
        net = Network()
        other = net.add_segment("other")
        gw = net.add_node("gw")
        bridge = net.bridge(gw, other)
        assert gw in net.default_segment and gw in other
        assert [s.name for s in gw.segments] == ["lan0", "other"]
        assert bridge.node is gw

    def test_bridge_same_segment_twice_is_idempotent(self):
        net = Network()
        other = net.add_segment("other")
        gw = net.add_node("gw")
        net.bridge(gw, other)
        net.bridge(gw, other)
        assert len(gw.segments) == 2

    def test_attach_duplicate_address_rejected(self):
        net = Network()
        seg = net.add_segment("s")
        node = net.add_node("n")
        seg.attach(node)
        with pytest.raises(AddressError):
            seg.attach(node)


class TestRouter:
    def test_min_hop_path(self):
        router = Router()
        router.connect("a", "b")
        router.connect("b", "c")
        router.connect("a", "c")
        path = router.path("a", "c")
        assert len(path) == 1 and path[0].other("a") == "c"

    def test_disconnected_returns_none_and_caches(self):
        router = Router()
        router.connect("a", "b")
        assert router.path("a", "z") is None
        assert router.path("a", "z") is None  # cached negative

    def test_topology_change_invalidates_cache(self):
        router = Router()
        router.connect("a", "b")
        assert router.path("a", "c") is None
        router.connect("b", "c")
        assert [l.latency_us for l in router.path("a", "c")] == [500, 500]

    def test_self_link_rejected(self):
        with pytest.raises(NetworkError):
            Router().connect("a", "a")

    def test_link_other_endpoint(self):
        link = Link("a", "b", 250)
        assert link.other("a") == "b" and link.other("b") == "a"
        with pytest.raises(NetworkError):
            link.other("c")


class TestMulticastScoping:
    def _listener(self, node, group="239.255.255.250", port=1900):
        inbox = []
        sock = node.udp.socket().bind(port, reuse=True).join_group(group)
        sock.on_datagram(inbox.append)
        return inbox

    def test_multicast_confined_to_sender_segment(self):
        net = Network(latency=flat_latency(), capture=True)
        far = net.add_segment("far", latency=flat_latency())
        net.link(net.default_segment, far)
        sender = net.add_node("sender")
        near_inbox = self._listener(net.add_node("near"))
        far_inbox = self._listener(net.add_node("faraway", segment=far))

        sock = sender.udp.socket()
        sock.sendto(b"NOTIFY", Endpoint("239.255.255.250", 1900))
        net.run()

        assert len(near_inbox) == 1
        assert far_inbox == []
        assert far.traffic.total_messages == 0
        assert [(r.destination.port, r.destination.is_multicast) for r in net.trace] == [
            (1900, True)
        ]
        assert all(r.segment == "lan0" for r in net.trace)

    def test_bridged_sender_reaches_all_its_segments(self):
        net = Network(latency=flat_latency())
        far = net.add_segment("far", latency=flat_latency())
        gw = net.add_node("gw")
        net.bridge(gw, far)
        near_inbox = self._listener(net.add_node("near"))
        far_inbox = self._listener(net.add_node("faraway", segment=far))
        own_inbox = self._listener(gw)  # IP_MULTICAST_LOOP copy

        gw.udp.socket().sendto(b"NOTIFY", Endpoint("239.255.255.250", 1900))
        net.run()

        assert len(near_inbox) == 1
        assert len(far_inbox) == 1
        assert len(own_inbox) == 1


class TestUnicastRouting:
    def _bind(self, node, port=4000):
        inbox = []
        node.udp.socket().bind(port).on_datagram(inbox.append)
        return inbox

    def test_unicast_across_linked_segments(self):
        net = Network(latency=flat_latency(100))
        far = net.add_segment("far", latency=flat_latency(100))
        net.link(net.default_segment, far, latency_us=300)
        a = net.add_node("a")
        b = net.add_node("b", segment=far)
        inbox = self._bind(b)

        a.udp.socket().sendto(b"hi", Endpoint(b.address, 4000))
        net.run()
        assert len(inbox) == 1
        # two segment traversals plus the link
        assert net.scheduler.now_us >= 100 + 300 + 100

    def test_unicast_without_route_is_dropped(self):
        net = Network(latency=flat_latency())
        island = net.add_segment("island", latency=flat_latency())
        a = net.add_node("a")
        b = net.add_node("b", segment=island)
        inbox = self._bind(b)

        a.udp.socket().sendto(b"hi", Endpoint(b.address, 4000))
        net.run()
        assert inbox == []
        assert net.unrouted == 1

    def test_shared_segment_needs_no_link(self):
        net = Network(latency=flat_latency())
        far = net.add_segment("far", latency=flat_latency())
        gw = net.add_node("gw")
        net.bridge(gw, far)
        b = net.add_node("b", segment=far)
        inbox = self._bind(b)
        gw.udp.socket().sendto(b"hi", Endpoint(b.address, 4000))
        net.run()
        assert len(inbox) == 1

    def test_multi_hop_route(self):
        net = Network(latency=flat_latency(100))
        mid = net.add_segment("mid", latency=flat_latency(100))
        far = net.add_segment("far", latency=flat_latency(100))
        net.link(net.default_segment, mid, latency_us=200)
        net.link(mid, far, latency_us=200)
        a = net.add_node("a")
        c = net.add_node("c", segment=far)
        inbox = self._bind(c)
        a.udp.socket().sendto(b"hop", Endpoint(c.address, 4000))
        net.run()
        assert len(inbox) == 1
        assert net.scheduler.now_us >= 3 * 100 + 2 * 200

    def test_unicast_delay_helper_reports_unreachable(self):
        net = Network(latency=flat_latency())
        island = net.add_segment("island", latency=flat_latency())
        a = net.add_node("a")
        b = net.add_node("b", segment=island)
        assert net.unicast_delay_us(a, b.address, 100) is None
        assert net.unicast_delay_us(a, "10.0.0.9", 100) is None
        assert net.unicast_delay_us(a, a.address, 100) == 10  # loopback constant


class TestTcpRouting:
    def test_tcp_connect_and_send_across_segments(self):
        net = Network(latency=flat_latency(100))
        far = net.add_segment("far", latency=flat_latency(100))
        net.link(net.default_segment, far, latency_us=300)
        a = net.add_node("a")
        b = net.add_node("b", segment=far)

        received = []
        b.tcp.listen(8080, lambda conn: conn.on_data(received.append))
        conns = []
        a.tcp.connect(Endpoint(b.address, 8080), conns.append)
        net.run()
        conns[0].send(b"payload")
        net.run()
        assert received == [b"payload"]

    def test_tcp_connect_refused_without_route(self):
        net = Network(latency=flat_latency(100))
        island = net.add_segment("island", latency=flat_latency(100))
        a = net.add_node("a")
        b = net.add_node("b", segment=island)
        b.tcp.listen(8080, lambda conn: None)

        errors = []
        a.tcp.connect(Endpoint(b.address, 8080), lambda c: errors.append("connected"),
                      on_error=errors.append)
        net.run()
        assert len(errors) == 1 and errors[0] != "connected"
