"""End-to-end INDISS tests: the paper's scenarios as executable checks."""

import pytest

from repro.core import AdaptationManager, Indiss, IndissConfig
from repro.net import LatencyModel, Network
from repro.sdp.slp import ServiceAgent, ServiceType, SlpConfig, SlpRegistration, UserAgent
from repro.sdp.upnp import (
    CLOCK_DEVICE_TYPE,
    UpnpControlPoint,
    make_clock_device,
)


@pytest.fixture()
def net():
    return Network(latency=LatencyModel(jitter_us=0))


def slp_clock_registration(host):
    return SlpRegistration(
        url=f"service:clock:soap://{host}:4005/service/timer/control",
        service_type=ServiceType.parse("service:clock:soap"),
        attributes={"friendlyName": "SLP Clock Device", "modelName": "Clock"},
    )


def run_slp_search(net, ua, service_type="service:clock", wait_us=400_000):
    done = []
    ua.find_services(service_type, on_complete=done.append, wait_us=wait_us)
    net.run(duration_us=wait_us + 600_000)
    assert done, "search never completed"
    return done[0]


class TestServiceSidePlacement:
    """Figure 8's deployments: INDISS co-located with the service."""

    def test_slp_client_finds_upnp_service(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp"), deployment="service"))
        search = run_slp_search(net, ua)
        assert len(search.results) == 1
        url = search.results[0].url
        assert url.startswith("service:clock:soap://")
        assert "/service/timer/control" in url
        assert indiss.stats.opened == 1
        assert indiss.stats.completed >= 1

    def test_upnp_client_finds_slp_service(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        cp = UpnpControlPoint(client_node)
        sa = ServiceAgent(service_node)
        sa.register(slp_clock_registration(service_node.address))
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp"), deployment="service"))
        done = []
        cp.search(CLOCK_DEVICE_TYPE, wait_us=400_000, on_complete=done.append)
        net.run(duration_us=1_000_000)
        assert done[0].responses
        response = done[0].responses[0]
        assert "indiss" in response.usn
        # The UPnP client can dereference LOCATION like a native device's.
        descriptions = []
        cp.fetch_description(response.location, descriptions.append)
        net.run(duration_us=500_000)
        assert descriptions[0].friendly_name == "SLP Clock Device"
        control = descriptions[0].services[0].control_url
        assert "service:clock:soap" in control

    def test_search_for_absent_type_gets_empty_answer(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        search = run_slp_search(net, ua, "service:printer")
        assert search.results == []

    def test_native_and_translated_coexist(self, net):
        """Transparency: a native SLP service keeps answering natively."""
        client_node = net.add_node("client")
        slp_node = net.add_node("slp-service")
        upnp_node = net.add_node("upnp-service")
        ua = UserAgent(client_node)
        sa = ServiceAgent(slp_node)
        sa.register(slp_clock_registration(slp_node.address))
        make_clock_device(upnp_node)
        Indiss(upnp_node, IndissConfig(units=("slp", "upnp"), deployment="service"))
        search = run_slp_search(net, ua)
        urls = {entry.url for entry in search.results}
        assert len(urls) == 2  # the native SLP answer plus the translated one
        assert sa.requests_answered >= 1


class TestClientSidePlacement:
    """Figure 9's deployments: INDISS co-located with the client."""

    def test_slp_client_finds_remote_upnp_service(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(client_node, IndissConfig(units=("slp", "upnp"), deployment="client"))
        search = run_slp_search(net, ua)
        assert search.results
        assert search.results[0].url.startswith("service:clock:soap://")
        # The UPnP leg crossed the network this time.
        assert indiss.node is client_node

    def test_upnp_client_finds_remote_slp_service(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        cp = UpnpControlPoint(client_node)
        sa = ServiceAgent(service_node)
        sa.register(slp_clock_registration(service_node.address))
        Indiss(client_node, IndissConfig(units=("slp", "upnp"), deployment="client"))
        done = []
        cp.search(CLOCK_DEVICE_TYPE, wait_us=400_000, on_complete=done.append)
        net.run(duration_us=1_000_000)
        assert done[0].responses


class TestGatewayPlacement:
    """Paper §4.2: INDISS on a dedicated networked node."""

    def test_translation_through_gateway(self, net):
        client_node = net.add_node("client")
        service_node = net.add_node("service")
        gateway_node = net.add_node("gateway")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(gateway_node, IndissConfig(units=("slp", "upnp"), deployment="gateway"))
        search = run_slp_search(net, ua)
        assert search.results
        assert indiss.stats.opened == 1


class TestCacheAnswering:
    def test_warm_cache_short_circuits(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(
            client_node,
            IndissConfig(units=("slp", "upnp"), deployment="client", answer_from_cache=True),
        )
        first = run_slp_search(net, ua)
        assert first.results
        assert indiss.stats.answered_from_cache == 0
        second = run_slp_search(net, ua)
        assert second.results
        assert indiss.stats.answered_from_cache == 1
        # The cached answer is much faster than the translated one.
        assert second.first_latency_us < first.first_latency_us

    def test_cache_answers_reuse_one_unfolded_stream_per_record(self, net):
        """Each cache answer equals ``stream_from_record`` of the cached
        record for the requester's SDP; a record replaced in the cache is
        answered with the new record's stream."""
        from repro.sdp.base import ServiceRecord
        from repro.units.records import stream_from_record

        indiss = Indiss(net.add_node("gw"), IndissConfig(units=("slp", "upnp")))
        first = ServiceRecord("clock", "http://10.0.0.1/c", {"friendlyName": "A"}, 60, "upnp")
        replies = [indiss._cached_reply(first, origin) for origin in ("slp", "jini", "slp")]
        assert replies[0] == stream_from_record(first, "slp")
        assert replies[1] == stream_from_record(first, "jini")
        assert replies[2] == replies[0] and replies[2] is not replies[0]
        indiss.cache.store(first)
        second = ServiceRecord("clock", "http://10.0.0.1/c", {"friendlyName": "B"}, 60, "upnp")
        indiss.cache.store(second)
        assert indiss._cached_reply(second, "slp") == stream_from_record(second, "slp")

    def test_cache_not_used_when_disabled(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(
            client_node,
            IndissConfig(units=("slp", "upnp"), deployment="client", answer_from_cache=False),
        )
        run_slp_search(net, ua)
        run_slp_search(net, ua)
        assert indiss.stats.answered_from_cache == 0


class TestDynamicComposition:
    """Figure 5: units are instantiated according to the detected context."""

    def test_on_detection_instantiation(self, net):
        host = net.add_node("indiss")
        client_node = net.add_node("client")
        indiss = Indiss(
            host,
            IndissConfig(units=("slp", "upnp", "jini"), instantiate="on-detection"),
        )
        assert indiss.instantiated_units == []
        ua = UserAgent(client_node)
        ua.find_services("service:clock", wait_us=50_000)
        net.run(duration_us=400_000)
        assert "slp" in indiss.instantiated_units
        assert "jini" not in indiss.instantiated_units

    def test_eager_instantiation(self, net):
        host = net.add_node("indiss")
        indiss = Indiss(host, IndissConfig(units=("slp", "upnp"), instantiate="eager"))
        assert indiss.instantiated_units == ["slp", "upnp"]

    def test_describe_reports_runtime_architecture(self, net):
        host = net.add_node("indiss")
        indiss = Indiss(host, IndissConfig(units=("slp", "upnp")))
        text = indiss.describe()
        assert "slp" in text and "upnp" in text


class TestDuplicateSuppression:
    def test_retransmissions_do_not_open_new_sessions(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)  # default config retries once
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        run_slp_search(net, ua)
        assert indiss.stats.opened == 1
        assert indiss.stats.duplicates_suppressed >= 0  # retransmit carries prlist


class TestFigure4Trace:
    """The exact event sequence of the paper's Fig. 4 walkthrough."""

    def test_request_stream_event_order(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        streams = []
        indiss.stream_listeners.append(lambda sdp, stream, meta: streams.append((sdp, stream)))
        run_slp_search(net, ua)
        slp_streams = [stream for sdp, stream in streams if sdp == "slp"]
        assert slp_streams
        names = [event.name for event in slp_streams[0]]
        assert names == [
            "SDP_C_START",
            "SDP_NET_MULTICAST",
            "SDP_NET_SOURCE_ADDR",
            "SDP_NET_TYPE",
            "SDP_SERVICE_REQUEST",
            "SDP_REQ_VERSION",
            "SDP_REQ_SCOPE",
            "SDP_REQ_PREDICATE",
            "SDP_REQ_ID",
            "SDP_REQ_LANG",
            "SDP_SERVICE_TYPE",
            "SDP_C_STOP",
        ]

    def test_session_steps_mention_parser_switch(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        finished = []
        indiss.session_listeners.append(finished.append)
        run_slp_search(net, ua)
        steps = "\n".join(step for s in finished for step in s.steps)
        assert "M-SEARCH" in steps
        assert "SDP_C_PARSER_SWITCH" in steps
        assert "SrvRply" in steps

    def test_slp_specific_events_discarded_by_upnp_composer(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        run_slp_search(net, ua)
        upnp_composer = indiss.units["upnp"].composer
        # Paper §2.4: SDP_REQ_VERSION/SCOPE/PREDICATE/ID are discarded.
        assert {"SDP_REQ_VERSION", "SDP_REQ_SCOPE", "SDP_REQ_PREDICATE", "SDP_REQ_ID"} <= (
            upnp_composer.discarded_types
        )


class TestAdaptation:
    """Figure 6: passive/passive deadlock resolved by the traffic threshold."""

    def test_passive_passive_blocked_without_adaptation(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node, passive=True)  # passive SLP client: listens only
        device = make_clock_device(service_node, advertise=True)  # passive UPnP service
        Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        net.run(duration_us=3_000_000)
        assert ua.adverts_seen == []  # blocked, as in Fig. 6 top-right

    def test_adaptation_unblocks_passive_passive(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node, passive=True)
        device = make_clock_device(service_node, advertise=True)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        manager = AdaptationManager(indiss, threshold=0.5)
        net.run(duration_us=6_000_000)
        assert manager.active  # quiet network -> active mode
        assert ua.adverts_seen, "translated SAAdvert should reach the passive SLP client"
        assert any("clock" in advert.url for advert in ua.adverts_seen)

    def test_mode_switch_publishes_control_event(self, net):
        """SDP_C_SOCKET_SWITCH reaches application-layer listeners."""
        client_node, service_node = net.add_node("client"), net.add_node("service")
        UserAgent(client_node, passive=True)
        make_clock_device(service_node, advertise=True)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        control_streams = []
        indiss.stream_listeners.append(
            lambda sdp, stream, meta: control_streams.append(stream)
            if sdp == "control"
            else None
        )
        manager = AdaptationManager(indiss, threshold=0.5)
        net.run(duration_us=2_000_000)
        manager.stop()
        switches = [
            event
            for stream in control_streams
            for event in stream
            if event.name == "SDP_C_SOCKET_SWITCH"
        ]
        assert switches
        assert switches[0].get("mode") == "active"

    def test_high_traffic_keeps_passive(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        blaster_a, blaster_b = net.add_node("ba"), net.add_node("bb")
        ua = UserAgent(client_node, passive=True)
        make_clock_device(service_node, advertise=True)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        manager = AdaptationManager(indiss, threshold=0.01)
        # Saturate the segment with unrelated traffic.
        sink = blaster_b.udp.socket().bind(9000)
        blast = blaster_a.udp.socket().bind(9001)
        from repro.net import Endpoint

        blaster_a.every(
            5_000, lambda: blast.sendto(b"x" * 1200, Endpoint(blaster_b.address, 9000))
        )
        net.run(duration_us=4_000_000)
        assert manager.history == [] or not manager.active
