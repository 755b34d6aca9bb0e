"""Tests for SDP detection (monitor + IANA registry) and the service cache."""

import pytest

from repro.core.cache import ServiceCache
from repro.core.monitor import MonitorComponent
from repro.core.registry import IanaRegistry, SdpEntry, default_registry
from repro.net import Endpoint, LatencyModel, Network
from repro.sdp.base import ServiceRecord


class TestRegistry:
    def test_default_table_matches_paper(self):
        registry = default_registry()
        # Figure 2's correspondence table.
        assert registry.sdp_for_port(1900) == "upnp"
        assert registry.sdp_for_port(427) == "slp"
        assert registry.sdp_for_port(1848) == "slp"  # paper's alias
        assert registry.sdp_for_port(4160) == "jini"
        assert registry.sdp_for_port(9999) is None
        assert registry.known_sdps() == ["jini", "slp", "upnp"]

    def test_entries_have_groups(self):
        registry = default_registry()
        assert ("239.255.255.250", 1900) in registry.entry("upnp").groups
        assert ("239.255.255.253", 427) in registry.entry("slp").groups

    def test_port_ambiguity_rejected(self):
        registry = IanaRegistry()
        registry.register(SdpEntry("a", groups=(("224.0.0.1", 5000),)))
        with pytest.raises(ValueError, match="unambiguous"):
            registry.register(SdpEntry("b", groups=(("224.0.0.2", 5000),)))

    def test_duplicate_sdp_rejected(self):
        registry = IanaRegistry()
        registry.register(SdpEntry("a", groups=(("224.0.0.1", 5000),)))
        with pytest.raises(ValueError):
            registry.register(SdpEntry("a", groups=(("224.0.0.1", 5001),)))


@pytest.fixture()
def net():
    return Network(latency=LatencyModel(jitter_us=0))


class TestMonitor:
    """Paper §2.1: detection by data arrival on IANA ports, no parsing."""

    def test_detects_upnp_by_port(self, net):
        host = net.add_node("indiss")
        sender = net.add_node("dev")
        monitor = MonitorComponent(host)
        detected = []
        monitor.on_detected = detected.append
        sender.udp.socket().bind(5555).sendto(
            b"NOT EVEN VALID SSDP", Endpoint("239.255.255.250", 1900)
        )
        net.run()
        # Content does not matter: arrival on 1900 identifies UPnP.
        assert detected == ["upnp"]
        assert monitor.sightings["upnp"].messages == 1

    def test_detects_slp_by_port(self, net):
        host, sender = net.add_node("indiss"), net.add_node("client")
        monitor = MonitorComponent(host)
        sender.udp.socket().bind(5555).sendto(b"\x02\x01", Endpoint("239.255.255.253", 427))
        net.run()
        assert monitor.detected_sdps() == ["slp"]

    def test_detects_both_active_and_passive_models(self, net):
        """Figure 1: client requests and service announcements both detect."""
        host = net.add_node("indiss")
        active_client = net.add_node("client")
        passive_service = net.add_node("service")
        monitor = MonitorComponent(host)
        # SDP1 active: client multicasts requests.
        active_client.udp.socket().bind(5001).sendto(b"req", Endpoint("239.255.255.253", 427))
        # SDP2 passive: service multicasts advertisements.
        passive_service.udp.socket().bind(5002).sendto(b"adv", Endpoint("239.255.255.250", 1900))
        net.run()
        assert monitor.detected_sdps() == ["slp", "upnp"]

    def test_detection_callback_fires_once_until_stale(self, net):
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host, stale_after_us=1_000_000)
        detected = []
        monitor.on_detected = detected.append
        sock = sender.udp.socket().bind(5000)
        sock.sendto(b"a", Endpoint("239.255.255.250", 1900))
        net.run(duration_us=100_000)
        sock.sendto(b"b", Endpoint("239.255.255.250", 1900))
        net.run(duration_us=100_000)
        assert detected == ["upnp"]  # second message is not a new detection
        net.run(duration_us=2_000_000)  # go stale
        sock.sendto(b"c", Endpoint("239.255.255.250", 1900))
        net.run()
        assert detected == ["upnp", "upnp"]

    def test_raw_forwarded_with_sdp_id(self, net):
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host)
        raws = []
        monitor.on_raw = lambda sdp, raw, meta: raws.append((sdp, raw, meta.multicast))
        sender.udp.socket().bind(5000).sendto(b"payload", Endpoint("239.255.255.253", 427))
        net.run()
        assert raws == [("slp", b"payload", True)]

    def test_own_traffic_ignored(self, net):
        host, other = net.add_node("indiss"), net.add_node("other")
        monitor = MonitorComponent(host)
        raws = []
        monitor.on_raw = lambda sdp, raw, meta: raws.append(raw)
        own = host.udp.socket().bind(50001)
        own.origin = monitor
        own.sendto(b"self", Endpoint("239.255.255.250", 1900))
        other.udp.socket().bind(50002).sendto(b"other", Endpoint("239.255.255.250", 1900))
        net.run()
        assert raws == [b"other"]

    def test_scan_subset(self, net):
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host, scan=("upnp",))
        sender.udp.socket().bind(5000).sendto(b"x", Endpoint("239.255.255.253", 427))
        sender.udp.socket().bind(5001).sendto(b"y", Endpoint("239.255.255.250", 1900))
        net.run()
        assert monitor.detected_sdps() == ["upnp"]

    def test_detected_sdps_expire(self, net):
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host, stale_after_us=500_000)
        sender.udp.socket().bind(5000).sendto(b"x", Endpoint("239.255.255.250", 1900))
        net.run(duration_us=100_000)
        assert monitor.detected_sdps() == ["upnp"]
        net.run(duration_us=1_000_000)
        assert monitor.detected_sdps() == []
        assert monitor.ever_detected() == ["upnp"]

    def test_stale_boundary_is_inclusive(self, net):
        """A sighting exactly ``stale_after_us`` old is still live; one
        microsecond past, it has expired."""
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host, stale_after_us=500_000)
        sender.udp.socket().bind(5000).sendto(b"x", Endpoint("239.255.255.250", 1900))
        net.run()
        last_seen = monitor.sightings["upnp"].last_seen_us
        assert monitor.detected_sdps(now_us=last_seen + 500_000) == ["upnp"]
        assert monitor.detected_sdps(now_us=last_seen + 500_001) == []

    def test_re_detection_keeps_one_sighting(self, net):
        """Expiry re-fires ``on_detected`` but extends the original
        sighting record: ``first_seen_us`` is stable, counters accumulate."""
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host, stale_after_us=200_000)
        detected = []
        monitor.on_detected = detected.append
        sock = sender.udp.socket().bind(5000)
        sock.sendto(b"x", Endpoint("239.255.255.250", 1900))
        net.run(duration_us=100_000)
        first_seen = monitor.sightings["upnp"].first_seen_us
        net.run(duration_us=500_000)  # let the sighting go stale
        sock.sendto(b"y", Endpoint("239.255.255.250", 1900))
        net.run()
        assert detected == ["upnp", "upnp"]
        sighting = monitor.sightings["upnp"]
        assert sighting.first_seen_us == first_seen
        assert sighting.messages == 2
        assert sighting.last_seen_us > first_seen


class TestSeededAttribution:
    """``SdpSighting.frames_seeded``: which monitored frames arrived with a
    sender-seeded decode memo (the parse-once fast path)."""

    def _run_slp_request(self, parse_once: bool):
        from repro.sdp.slp import UserAgent

        net = Network(latency=LatencyModel(jitter_us=0), parse_once=parse_once)
        host, client = net.add_node("indiss"), net.add_node("client")
        monitor = MonitorComponent(host)
        # Seeding is only checked on the raw-forwarding path (no INDISS
        # bridge attached means no memo is forced into existence).
        monitor.on_raw = lambda sdp, raw, meta: None
        UserAgent(client).find_services("service:clock")
        net.run(duration_us=1_000_000)
        return monitor

    def test_sender_seeded_frames_attributed(self):
        monitor = self._run_slp_request(parse_once=True)
        sighting = monitor.sightings["slp"]
        assert sighting.messages >= 1
        # The UA encodes once and seeds the frame memo, so every
        # monitored request counts as pre-decoded.
        assert sighting.frames_seeded == sighting.messages
        assert monitor.parse_attribution()["slp"] == {
            "frames": sighting.messages,
            "seeded": sighting.frames_seeded,
        }

    def test_parse_once_off_never_seeds(self):
        monitor = self._run_slp_request(parse_once=False)
        sighting = monitor.sightings["slp"]
        # NULL_MEMO drops decode hints before delivery: same traffic,
        # zero seeded attribution.
        assert sighting.messages >= 1
        assert sighting.frames_seeded == 0

    def test_raw_payload_never_seeds(self):
        net = Network(latency=LatencyModel(jitter_us=0), parse_once=True)
        host, sender = net.add_node("indiss"), net.add_node("c")
        monitor = MonitorComponent(host)
        monitor.on_raw = lambda sdp, raw, meta: None
        # A plain sendto carries no decode hint, so even with parse_once
        # on the frame arrives unseeded.
        sender.udp.socket().bind(5000).sendto(b"\x02\x01", Endpoint("239.255.255.253", 427))
        net.run()
        assert monitor.sightings["slp"].messages == 1
        assert monitor.sightings["slp"].frames_seeded == 0


class TestServiceCache:
    def make_cache(self):
        self.now = 0
        return ServiceCache(lambda: self.now)

    def record(self, service_type="clock", url="http://h/ctl", lifetime_s=10, source="upnp"):
        return ServiceRecord(
            service_type=service_type, url=url, lifetime_s=lifetime_s, source_sdp=source
        )

    def test_store_and_lookup(self):
        cache = self.make_cache()
        cache.store(self.record())
        assert len(cache) == 1
        found = cache.lookup("clock")
        assert found[0].url == "http://h/ctl"
        assert cache.hits == 1

    def test_lookup_normalizes_type(self):
        cache = self.make_cache()
        cache.store(self.record())
        assert cache.lookup("urn:schemas-upnp-org:device:clock:1")
        assert cache.lookup("service:clock")

    def test_miss_counts(self):
        cache = self.make_cache()
        assert cache.lookup("printer") == []
        assert cache.misses == 1

    def test_ttl_expiry(self):
        cache = self.make_cache()
        cache.store(self.record(lifetime_s=10))
        self.now = 9_999_999
        assert cache.lookup("clock")
        self.now = 10_000_001
        assert cache.lookup("clock") == []
        assert len(cache) == 0

    def test_remove_url(self):
        cache = self.make_cache()
        cache.store(self.record(url="u1"))
        cache.store(self.record(url="u2"))
        assert cache.remove_url("u1") == 1
        assert [r.url for r in cache.lookup("clock")] == ["u2"]

    def test_records_from_source(self):
        cache = self.make_cache()
        cache.store(self.record(url="u1", source="upnp"))
        cache.store(self.record(url="u2", source="slp"))
        assert [r.url for r in cache.records_from("slp")] == ["u2"]

    def test_same_key_overwrites(self):
        cache = self.make_cache()
        cache.store(self.record())
        cache.store(self.record())
        assert len(cache) == 1
