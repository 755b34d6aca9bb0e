"""Multi-segment scenario family, including the gateway-chain acceptance
test: an SLP user agent on segment A discovers a UPnP service on segment C
through two INDISS gateways bridging A-B and B-C, with multicast confined
to each segment."""

from repro.core import Indiss, IndissConfig
from repro.net import Network
from repro.sdp.slp import SlpConfig, UserAgent
from repro.sdp.upnp import make_clock_device
from repro.world import run_world
from repro.world.scenarios import (
    SCENARIO_SPECS,
    campus_fanout_spec,
    gateway_chain_spec,
    multi_segment_home_spec,
)

SLP_PORT = 427
SSDP_PORT = 1900


def _gateway_config(seed: int) -> IndissConfig:
    return IndissConfig(
        units=("slp", "upnp"),
        deployment="gateway",
        dispatch="gateway-forward",
        upnp_wait_us=300_000,
        slp_wait_us=350_000,
        seed=seed,
    )


class TestGatewayChainAcceptance:
    def _build_chain(self):
        net = Network(capture=True)
        seg_a = net.default_segment
        seg_b = net.add_segment("segB")
        seg_c = net.add_segment("segC")
        net.link(seg_a, seg_b)
        net.link(seg_b, seg_c)

        client_node = net.add_node("client", segment=seg_a)
        service_node = net.add_node("service", segment=seg_c)
        gw_ab = net.add_node("gw-ab", segment=seg_a)
        net.bridge(gw_ab, seg_b)
        gw_bc = net.add_node("gw-bc", segment=seg_b)
        net.bridge(gw_bc, seg_c)

        ua = UserAgent(client_node, config=SlpConfig(wait_us=400_000, retries=0))
        # advertise=True: the device multicasts NOTIFY alive bursts, which
        # the confinement test asserts never leave segment C.
        make_clock_device(service_node, advertise=True)
        indiss_ab = Indiss(gw_ab, _gateway_config(seed=1))
        indiss_bc = Indiss(gw_bc, _gateway_config(seed=2))
        return net, (seg_a, seg_b, seg_c), (client_node, service_node), ua, (
            indiss_ab,
            indiss_bc,
        )

    def test_slp_client_discovers_upnp_service_two_hops_away(self):
        net, segments, (client_node, service_node), ua, gateways = self._build_chain()
        searches = []
        ua.find_services("service:clock", on_complete=searches.append)
        net.run(duration_us=3_000_000)

        assert searches, "search never completed"
        search = searches[0]
        assert len(search.results) >= 1
        # The URL points at the real device on segment C.
        assert service_node.address in search.results[0].url
        assert search.first_latency_us is not None

        # Both gateways translated (sessions opened and completed).
        for indiss in gateways:
            assert indiss.stats.opened >= 1
            assert indiss.stats.completed >= 1

    def test_multicast_confined_to_each_segment(self):
        net, (seg_a, seg_b, seg_c), (client_node, service_node), ua, _ = (
            self._build_chain()
        )
        searches = []
        ua.find_services("service:clock", on_complete=searches.append)
        net.run(duration_us=3_000_000)
        assert searches and searches[0].results

        multicast_records = [r for r in net.trace if r.destination.is_multicast]
        assert multicast_records, "capture saw no multicast at all"

        # The client's SrvRqst multicast never leaves segment A.
        client_frames = {
            r.segment for r in multicast_records if r.source.host == client_node.address
        }
        assert client_frames == {seg_a.name}

        # The device's SSDP announcements never leave segment C.
        device_frames = {
            r.segment for r in multicast_records if r.source.host == service_node.address
        }
        assert device_frames == {seg_c.name}

        # Per-segment counters agree: segment C saw no client-side SLP
        # multicast except what gateway B-C re-issued itself.
        slp_on_c = [
            r
            for r in multicast_records
            if r.segment == seg_c.name and r.destination.port == SLP_PORT
        ]
        assert all(r.source.host != client_node.address for r in slp_on_c)
        seen = {(r.segment, r.destination.port) for r in multicast_records}
        assert (seg_a.name, SLP_PORT) in seen
        assert (seg_c.name, SSDP_PORT) in seen

    def test_gateways_converge_without_translation_storms(self):
        """Type-scoped dedup must keep two gateways in multicast range of
        each other from re-translating each other's re-issued requests."""
        net, segments, nodes, ua, gateways = self._build_chain()
        searches = []
        ua.find_services("service:clock", on_complete=searches.append)
        net.run(duration_us=3_000_000)
        for indiss in gateways:
            # A storm would open dozens of sessions; a healthy chain opens
            # at most one per (origin protocol, service type).
            assert indiss.stats.opened <= 4
            assert indiss.stats.duplicates_suppressed >= 1


class TestScenarioFamily:
    def test_registry_contains_family(self):
        for name in ("multi_segment_home", "gateway_chain", "campus_fanout"):
            assert name in SCENARIO_SPECS

    def test_multi_segment_home_finds_service(self):
        outcome = run_world(multi_segment_home_spec(nodes=50), seed=3)
        assert outcome.latency_us is not None
        assert outcome.results >= 1
        assert outcome.world.node_count == 50
        assert len(outcome.world.segments) == 2

    def test_gateway_chain_scenario_finds_service(self):
        outcome = run_world(gateway_chain_spec(), seed=3)
        assert outcome.latency_us is not None
        assert outcome.results >= 1
        assert len(outcome.world.segments) == 3

    def test_campus_fanout_finds_service_at_scale(self):
        outcome = run_world(campus_fanout_spec(segments=8, nodes=200), seed=3)
        assert outcome.latency_us is not None
        assert outcome.results >= 1
        assert len(outcome.world.segments) == 8
        assert outcome.world.node_count == 200

    def test_chain_latency_grows_with_depth(self):
        two = run_world(multi_segment_home_spec(), seed=5)
        three = run_world(gateway_chain_spec(), seed=5)
        assert three.latency_us > two.latency_us

    def test_chain_scales_past_the_acceptance_depth(self):
        """Four gateways in a row: the recursive-AttrRqst sub-timeout keeps
        each hop's cost bounded, so deep chains converge instead of the
        first gateway's convergence window expiring empty."""
        outcome = run_world(gateway_chain_spec(segments=5), seed=2)
        assert outcome.latency_us is not None
        assert outcome.results >= 1
