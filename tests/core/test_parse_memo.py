"""Parse-once frame delivery: the per-frame decode memo and its guards."""

import pytest

from repro.core import Indiss, IndissConfig
from repro.core.events import SDP_C_START, SDP_C_STOP
from repro.core.parser import NetworkMeta
from repro.net import Endpoint, FrameMemo, MEMO_MISS, Network


class TestFrameMemo:
    def test_miss_then_hit(self):
        memo = FrameMemo()
        assert memo.lookup("k", b"abc") is MEMO_MISS
        memo.store("k", b"abc", [1, 2])
        assert memo.lookup("k", b"abc") == [1, 2]
        assert memo.hits == 1

    def test_none_is_a_storable_result(self):
        memo = FrameMemo()
        memo.store("k", b"junk", None)
        assert memo.lookup("k", b"junk") is None
        assert memo.lookup("k", b"junk") is not MEMO_MISS

    def test_hash_collision_guard_compares_bytes(self):
        """A key that maps to a different payload's entry must miss: the
        stored bytes are compared for equality before any reuse."""
        memo = FrameMemo()
        memo.store("k", b"payload-A", "result-A")
        assert memo.lookup("k", b"payload-B") is MEMO_MISS
        assert memo.collisions == 1
        # The guard never serves the stale entry, even repeatedly.
        assert memo.lookup("k", b"payload-B") is MEMO_MISS
        assert memo.lookup("k", b"payload-A") == "result-A"

    def test_memo_is_per_frame_not_global(self):
        from repro.net.udp import Datagram

        src = Endpoint("192.168.1.1", 5000)
        dst = Endpoint("239.255.255.253", 427)
        first = Datagram(payload=b"x", source=src, destination=dst)
        second = Datagram(payload=b"x", source=src, destination=dst)
        assert first.memo is None  # lazily created: no cost until used
        assert first == second  # memo excluded from equality
        memo = first.ensure_memo()
        assert first.ensure_memo() is memo  # stable once created
        assert first == second  # still equal after memo creation
        memo.store("k", b"x", "cached")
        assert second.ensure_memo().lookup("k", b"x") is MEMO_MISS


def _gateway(net, name, seed=0):
    node = net.add_node(name)
    return Indiss(
        node,
        IndissConfig(units=("slp", "upnp"), deployment="gateway", seed=seed),
    )


class TestSharedUnitParse:
    def test_co_segment_gateways_share_one_parse(self):
        """K gateways hearing the same multicast pay one parse: the first
        unit parses, the rest consume the shared stream."""
        net = Network()
        gateways = [_gateway(net, f"gw{i}", seed=i) for i in range(4)]
        finished = []
        for gw in gateways:
            gw.session_listeners.append(finished.append)
        client = net.add_node("client")
        from repro.sdp.slp import ServiceType, SlpConfig, UserAgent

        ua = UserAgent(client, config=SlpConfig(wait_us=50_000, retries=0))
        ua.find_services("service:printer")
        net.run(duration_us=500_000)

        slp_units = [gw.units["slp"] for gw in gateways]
        parsed = sum(u.streams_parsed for u in slp_units)
        shared = sum(u.streams_shared for u in slp_units)
        assert shared > 0, "no parse was shared across the fleet"
        # Each frame is parsed by exactly one receiver; with four gateways
        # on the segment the shares must dominate the parses (the client's
        # request alone is parsed once and shared three times).
        assert shared > parsed
        # The later gateways ride entirely on shared streams.
        assert any(u.streams_parsed == 0 and u.streams_shared > 0 for u in slp_units)
        # All gateways saw an identical stream (they all opened sessions
        # for the same service type).
        types = {s.vars.get("service_type") for s in finished}
        assert types == {"printer"}

    def test_shared_streams_are_copies_not_aliases(self):
        net = Network()
        a, b = _gateway(net, "a", seed=0), _gateway(net, "b", seed=1)
        seen: dict[str, list] = {}
        a.units["slp"].add_listener(lambda stream, meta: seen.setdefault("a", stream))
        b.units["slp"].add_listener(lambda stream, meta: seen.setdefault("b", stream))
        client = net.add_node("client")
        from repro.sdp.slp import SlpConfig, UserAgent

        ua = UserAgent(client, config=SlpConfig(wait_us=50_000, retries=0))
        ua.find_services("service:clock")
        net.run(duration_us=300_000)
        assert "a" in seen and "b" in seen
        assert seen["a"] == seen["b"]
        assert seen["a"] is not seen["b"]
        assert seen["a"][0].type is SDP_C_START
        assert seen["a"][-1].type is SDP_C_STOP

    def test_failed_parse_is_shared_too(self):
        """An undecodable payload is decoded (and rejected) once; later
        receivers share the negative result."""
        from repro.core.unit import Unit

        net = Network()
        gateways = [_gateway(net, f"gw{i}") for i in range(3)]
        sender = net.add_node("sender")
        sock = sender.udp.socket()
        # Garbage on the SLP port: monitors hand it to the SLP unit.
        sock.sendto(b"\xff\xfe not slp at all", Endpoint("239.255.255.253", 427))
        net.run(duration_us=200_000)
        units = [gw.units["slp"] for gw in gateways]
        errors = sum(u.parser.parse_errors for u in units)
        shared = sum(u.streams_shared for u in units)
        assert errors == 1
        assert shared == 2

    def test_meta_without_memo_still_parses(self):
        net = Network()
        gw = _gateway(net, "gw")
        unit = gw.units["slp"]
        # Raw bytes with a plain meta (no datagram): the uncached path.
        assert unit.parse_raw(b"junk", NetworkMeta()) is None
        assert unit.streams_shared == 0


class TestSharedNativeDecode:
    def test_slp_endpoints_share_wire_decode(self, monkeypatch):
        import repro.sdp.slp.agent as agent_module

        calls = {"n": 0}
        real_decode = agent_module.decode_or_none

        def counting_decode(payload):
            calls["n"] += 1
            return real_decode(payload)

        monkeypatch.setattr(agent_module, "decode_or_none", counting_decode)

        net = Network()
        from repro.sdp.slp import (
            ServiceAgent,
            ServiceType,
            SlpConfig,
            SlpRegistration,
            UserAgent,
        )

        config = SlpConfig(wait_us=50_000, retries=0)
        listeners = [
            UserAgent(net.add_node(f"ua{i}"), config=config) for i in range(5)
        ]
        sa = ServiceAgent(net.add_node("sa"), config=config)
        sa.register(
            SlpRegistration(
                url="service:clock://192.168.1.99:4005/c",
                service_type=ServiceType.parse("service:clock"),
            )
        )
        baseline = calls["n"]
        done: list = []
        listeners[0].find_services("service:clock", on_complete=done.append)
        net.run(duration_us=500_000)
        assert done and done[0].results
        # The multicast request fans out to 5 UAs + the SA (+ the sender's
        # loopback copy), but its payload is decoded exactly once; only
        # the unicast reply adds another decode.
        assert calls["n"] - baseline <= 3


class TestCrossProtocolIsolation:
    """Two protocols on the same frame (or the same group/port) must never
    serve each other's memoized decodes: keys are per-protocol, and the
    bytes-equality guard stops any cross-key aliasing attempt."""

    def test_distinct_protocol_keys_never_cross_serve(self):
        from repro.net.udp import Datagram
        from repro.sdp.jini.discovery import JINI_MEMO_KEY
        from repro.sdp.upnp.ssdp import SSDP_MEMO_KEY
        from repro.sdp.slp.wire import WIRE_MEMO_KEY

        frame = Datagram(
            payload=b"ambiguous bytes",
            source=Endpoint("192.168.1.1", 5000),
            destination=Endpoint("239.255.255.250", 1900),
        )
        memo = frame.ensure_memo()
        memo.store(SSDP_MEMO_KEY, frame.payload, "ssdp-decode")
        assert memo.lookup(JINI_MEMO_KEY, frame.payload) is MEMO_MISS
        assert memo.lookup(WIRE_MEMO_KEY, frame.payload) is MEMO_MISS
        assert memo.lookup(SSDP_MEMO_KEY, frame.payload) == "ssdp-decode"

    def test_ssdp_and_jini_negative_decodes_coexist(self):
        """The same undecodable payload rejected by two protocols stores
        two independent negative entries under their own keys."""
        from repro.sdp.jini.discovery import decode_packet_shared
        from repro.sdp.upnp.ssdp import decode_ssdp_shared

        memo = FrameMemo()
        payload = b"\xff\xfe neither protocol"
        assert decode_ssdp_shared(payload, memo) is None
        assert decode_packet_shared(payload, memo) is None
        assert len(memo) == 2
        # Each later receiver shares its own protocol's rejection.
        assert decode_ssdp_shared(payload, memo) is None
        assert decode_packet_shared(payload, memo) is None

    def test_jini_collision_guard(self):
        from repro.sdp.jini.discovery import (
            JINI_MEMO_KEY,
            MulticastAnnouncement,
            decode_packet_shared,
        )

        first = MulticastAnnouncement(host="10.0.0.1", port=4160, service_id="sid-a")
        second = MulticastAnnouncement(host="10.0.0.2", port=4160, service_id="sid-b")
        memo = FrameMemo()
        memo.store(JINI_MEMO_KEY, first.encode(), first)
        decoded = decode_packet_shared(second.encode(), memo)
        assert decoded == second  # stale entry not served
        assert memo.collisions == 1


class TestSsdpNativeSharing:
    def test_device_fleet_shares_one_alive_decode(self, monkeypatch):
        """An alive burst on a segment with several devices and a control
        point is never tokenized: the sender seeds each frame, and every
        receiver (including the sender's own loopback copy) shares it."""
        import repro.sdp.upnp.ssdp as ssdp_module
        from repro.sdp.upnp import CLOCK_DEVICE_TYPE, UpnpControlPoint, make_clock_device

        calls = {"n": 0}
        real = ssdp_module.parse_ssdp

        def counting(payload):
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(ssdp_module, "parse_ssdp", counting)

        net = Network()
        devices = [
            make_clock_device(net.add_node(f"dev{i}"), seed=i, advertise=False)
            for i in range(4)
        ]
        cp = UpnpControlPoint(net.add_node("cp"))
        for device in devices:
            device.start_advertising()
        net.run(duration_us=300_000)
        assert calls["n"] == 0, "seeded alive bursts must never be tokenized"
        assert len(cp.known_devices) >= 4
        upnp = net.parse_counter("upnp")
        assert upnp.decoded == 0 and upnp.shared > 0 and upnp.seeded > 0

    def test_msearch_fanout_decoded_at_most_once(self, monkeypatch):
        """A control-point search against K devices: the M-SEARCH is seeded
        (0 decodes) and each unicast response is seeded too."""
        import repro.sdp.upnp.ssdp as ssdp_module
        from repro.sdp.upnp import CLOCK_DEVICE_TYPE, UpnpControlPoint, make_clock_device

        calls = {"n": 0}
        real = ssdp_module.parse_ssdp

        def counting(payload):
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(ssdp_module, "parse_ssdp", counting)

        net = Network()
        for i in range(3):
            make_clock_device(net.add_node(f"dev{i}"), seed=i, advertise=False)
        cp = UpnpControlPoint(net.add_node("cp"))
        done: list = []
        cp.search(CLOCK_DEVICE_TYPE, wait_us=100_000, on_complete=done.append)
        net.run(duration_us=400_000)
        assert done and done[0].responses
        assert calls["n"] == 0


class TestJiniNativeSharing:
    def test_listeners_share_announcement_decode(self, monkeypatch):
        """Registrar announcements are seeded at send time; passive
        discovery listeners on the segment never run the codec reader."""
        import repro.sdp.jini.discovery as discovery_module
        from repro.sdp.jini import LookupDiscovery, LookupService

        calls = {"n": 0}
        real = discovery_module.decode_packet

        def counting(payload):
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(discovery_module, "decode_packet", counting)

        net = Network()
        registrar = LookupService(
            net.add_node("registrar"), announce_period_us=100_000
        )
        listeners = [LookupDiscovery(net.add_node(f"ld{i}")) for i in range(4)]
        net.run(duration_us=400_000)
        assert calls["n"] == 0, "seeded announcements must never hit the codec"
        for listener in listeners:
            assert registrar.service_id in listener.registrars
        jini = net.parse_counter("jini")
        assert jini.decoded == 0 and jini.shared > 0 and jini.seeded > 0

    def test_unit_shares_announcement_with_native_listeners(self):
        """A gateway's Jini unit rides the same frame memo as the native
        listeners: its parse never re-runs the codec reader."""
        from repro.sdp.jini import LookupDiscovery, LookupService

        net = Network()
        gw = Indiss(
            net.add_node("gw"),
            IndissConfig(units=("slp", "jini"), deployment="gateway"),
        )
        LookupDiscovery(net.add_node("ld"))
        LookupService(net.add_node("registrar"), announce_period_us=100_000)
        net.run(duration_us=400_000)
        unit = gw.units["jini"]
        assert unit.streams_parsed > 0
        assert net.parse_counter("jini").decoded == 0
        assert unit.known_registrars  # the shared decode fed the unit


class TestMonitorAttribution:
    def test_monitor_counts_seeded_frames(self):
        """The monitor records, per protocol, how many frames arrived with
        a pre-populated decode memo (sender seed or earlier receiver)."""
        from repro.sdp.slp import SlpConfig, UserAgent

        net = Network()
        gw = _gateway(net, "gw")
        ua = UserAgent(net.add_node("client"), config=SlpConfig(wait_us=50_000, retries=0))
        ua.find_services("service:printer")
        net.run(duration_us=300_000)
        attribution = gw.monitor.parse_attribution()
        assert attribution["slp"]["frames"] > 0
        # The UA seeds its request frame, so the monitor saw it pre-decoded.
        assert attribution["slp"]["seeded"] == attribution["slp"]["frames"]


class TestParseOnceDisabled:
    def test_null_memo_forces_per_receiver_decodes(self, monkeypatch):
        """Network(parse_once=False): the same traffic, every receiver
        tokenizes for itself — the A/B baseline the benchmarks price."""
        import repro.sdp.upnp.ssdp as ssdp_module
        from repro.sdp.upnp import UpnpControlPoint, make_clock_device

        calls = {"n": 0}
        real = ssdp_module.parse_ssdp

        def counting(payload):
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(ssdp_module, "parse_ssdp", counting)

        net = Network(parse_once=False)
        devices = [
            make_clock_device(net.add_node(f"dev{i}"), seed=i, advertise=False)
            for i in range(3)
        ]
        # Control points decode every NOTIFY (devices peek-skip them).
        cps = [UpnpControlPoint(net.add_node(f"cp{i}")) for i in range(2)]
        devices[0].start_advertising()
        net.run(duration_us=100_000)
        assert calls["n"] >= 2  # each control point tokenized for itself
        upnp = net.parse_counter("upnp")
        assert upnp.shared == 0 and upnp.decoded == calls["n"]
        assert upnp.seeded == 0  # hints never reached a frame, so no seeds claimed
        assert all(cp.known_devices for cp in cps)
