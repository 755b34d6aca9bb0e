"""Integration tests: SLP agents discovering each other over the simulator."""

import pytest

from repro.net import LatencyModel, Network
from repro.sdp.slp import (
    DirectoryAgent,
    PendingSearch,
    ServiceAgent,
    ServiceType,
    SlpConfig,
    SlpRegistration,
    UrlEntry,
    UserAgent,
)


@pytest.fixture()
def net():
    return Network(latency=LatencyModel(jitter_us=0))


def clock_registration(host="192.168.1.2", attrs=None):
    return SlpRegistration(
        url=f"service:clock:soap://{host}:4005/service/timer/control",
        service_type=ServiceType.parse("service:clock:soap"),
        attributes=attrs if attrs is not None else {"model": "CyberClock", "version": "2"},
    )


def make_pair(net, sa_passive=False):
    ua_node = net.add_node("client")
    sa_node = net.add_node("service")
    ua = UserAgent(ua_node, passive=True)
    sa = ServiceAgent(sa_node, passive=sa_passive)
    sa.register(clock_registration(sa_node.address))
    return ua, sa


class TestActiveDiscovery:
    def test_find_service(self, net):
        ua, sa = make_pair(net)
        done = []
        ua.find_services("service:clock", on_complete=lambda s: done.append(s))
        net.run()
        assert done and done[0].results
        assert "service:clock:soap://192.168.1.2" in done[0].results[0].url
        assert sa.requests_answered == 1

    def test_abstract_request_matches_concrete_offer(self, net):
        ua, sa = make_pair(net)
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        assert done[0].results

    def test_wrong_type_gets_nothing(self, net):
        ua, sa = make_pair(net)
        done = []
        ua.find_services("service:printer", on_complete=done.append)
        net.run()
        assert done[0].results == []
        assert sa.requests_answered == 0

    def test_predicate_filters(self, net):
        ua, sa = make_pair(net)
        hits, misses = [], []
        ua.find_services("service:clock", predicate="(model=Cyber*)", on_complete=hits.append)
        net.run()
        ua.find_services("service:clock", predicate="(model=Acme*)", on_complete=misses.append)
        net.run()
        assert hits[0].results
        assert misses[0].results == []

    def test_scope_mismatch_is_silent(self, net):
        ua, sa = make_pair(net)
        done = []
        ua.find_services("service:clock", scopes=("OFFICE",), on_complete=done.append)
        net.run()
        assert done[0].results == []

    def test_first_reply_latency_recorded(self, net):
        ua, sa = make_pair(net)
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        search = done[0]
        assert search.first_latency_us is not None
        assert 0 < search.first_latency_us < 10_000

    def test_multiple_services_aggregate(self, net):
        ua_node = net.add_node("client")
        ua = UserAgent(ua_node)
        sas = []
        for i in range(3):
            node = net.add_node(f"svc{i}")
            sa = ServiceAgent(node)
            sa.register(clock_registration(node.address))
            sas.append(sa)
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        assert len(done[0].results) == 3
        assert len(done[0].responders) == 3

    def test_retransmission_carries_prlist(self, net):
        ua, sa = make_pair(net)
        config_retries = ua.config.retries
        assert config_retries >= 1
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        # The SA saw the retransmission but ignored it (it was in the prlist),
        # so it answered exactly once.
        assert sa.requests_answered == 1
        assert sa.requests_ignored >= 1
        assert len(done[0].results) == 1

    def test_two_uas_do_not_cross_talk(self, net):
        ua1_node, ua2_node = net.add_node("c1"), net.add_node("c2")
        sa_node = net.add_node("s")
        ua1, ua2 = UserAgent(ua1_node), UserAgent(ua2_node)
        sa = ServiceAgent(sa_node)
        sa.register(clock_registration(sa_node.address))
        got1, got2 = [], []
        ua1.find_services("service:clock", on_complete=got1.append)
        ua2.find_services("service:printer", on_complete=got2.append)
        net.run()
        assert got1[0].results
        assert got2[0].results == []


class TestPassiveDiscovery:
    def test_saadvert_reaches_passive_ua(self, net):
        ua, sa = make_pair(net, sa_passive=True)
        seen = []
        ua.on_advert = seen.append
        net.run(duration_us=5_000_000)
        assert seen
        assert "service:clock" in seen[0].url

    def test_advertising_can_stop(self, net):
        ua, sa = make_pair(net, sa_passive=True)
        net.run(duration_us=2_500_000)
        count_then = len(ua.adverts_seen)
        assert count_then >= 1
        sa.stop_advertising()
        net.run(duration_us=5_000_000)
        assert len(ua.adverts_seen) == count_then


class TestDirectoryAgent:
    def test_sa_registers_after_daadvert(self, net):
        da_node = net.add_node("da")
        sa_node = net.add_node("sa")
        da = DirectoryAgent(da_node)
        sa = ServiceAgent(sa_node)
        sa.register(clock_registration(sa_node.address))
        net.run(duration_us=4_000_000)
        assert da.registrations_accepted == 1
        assert len(da.registry) == 1

    def test_ua_switches_to_unicast_da_query(self, net):
        da_node = net.add_node("da")
        sa_node = net.add_node("sa")
        ua_node = net.add_node("ua")
        da = DirectoryAgent(da_node)
        sa = ServiceAgent(sa_node)
        sa.register(clock_registration(sa_node.address))
        ua = UserAgent(ua_node)
        net.run(duration_us=4_000_000)  # let DAAdvert + SrvReg settle
        assert ua.known_da is not None
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run(duration_us=1_000_000)
        assert done and done[0].results
        # The DA answered; the SA itself saw no direct request it answered.
        assert sa.requests_answered == 0

    def test_dereg_removes_from_registry(self, net):
        da_node = net.add_node("da")
        da = DirectoryAgent(da_node)
        sa_node = net.add_node("sa")
        sa = ServiceAgent(sa_node)
        reg = clock_registration(sa_node.address)
        sa.register(reg)
        net.run(duration_us=4_000_000)
        assert len(da.registry) == 1
        da.stop()  # otherwise the next DAAdvert makes the SA re-register
        from repro.sdp.slp import FunctionId, Header, SrvDeReg, UrlEntry
        from repro.net import Endpoint

        dereg = SrvDeReg(
            header=Header(FunctionId.SRVDEREG, xid=9),
            url_entry=UrlEntry(reg.url, 0),
        )
        sa._send(dereg, Endpoint(da_node.address, 427))
        net.run(duration_us=1_000_000)
        assert len(da.registry) == 0


class TestAttributeRequest:
    def test_attrs_round_trip(self, net):
        ua, sa = make_pair(net)
        got = []
        ua.find_attributes("service:clock", on_reply=got.append)
        net.run()
        assert got
        assert got[0]["model"] == "CyberClock"

    def test_attrs_by_url(self, net):
        ua, sa = make_pair(net)
        got = []
        url = sa.registrations[0].url
        ua.find_attributes(url, on_reply=got.append)
        net.run()
        assert got and got[0]["version"] == "2"


class TestServiceTypeEnumeration:
    def test_enumerate_all_types(self, net):
        ua, sa = make_pair(net)
        sa.register(
            SlpRegistration(
                url="service:printer:lpr://192.168.1.2/q",
                service_type=ServiceType.parse("service:printer:lpr"),
            )
        )
        types = []
        ua.find_service_types(on_reply=types.append)
        net.run()
        assert types
        assert set(types[0]) == {"service:clock:soap", "service:printer:lpr"}

    def test_default_authority_filter(self, net):
        ua, sa = make_pair(net)
        sa.register(
            SlpRegistration(
                url="service:scan.acme://192.168.1.2/s",
                service_type=ServiceType.parse("service:scan.acme"),
            )
        )
        types = []
        ua.find_service_types(naming_authority="", on_reply=types.append)
        net.run()
        # The acme-authority type is excluded under the default authority.
        assert set(types[0]) == {"service:clock:soap"}

    def test_specific_authority(self, net):
        ua, sa = make_pair(net)
        sa.register(
            SlpRegistration(
                url="service:scan.acme://192.168.1.2/s",
                service_type=ServiceType.parse("service:scan.acme"),
            )
        )
        types = []
        ua.find_service_types(naming_authority="acme", on_reply=types.append)
        net.run()
        assert set(types[0]) == {"service:scan.acme"}

    def test_no_registrations_stays_silent_on_multicast(self, net):
        ua_node, empty_node = net.add_node("c"), net.add_node("empty")
        ua = UserAgent(ua_node)
        ServiceAgent(empty_node)
        types = []
        ua.find_service_types(on_reply=types.append)
        net.run()
        assert types == []


class TestRobustness:
    def test_garbage_on_slp_port_is_counted_not_fatal(self, net):
        ua, sa = make_pair(net)
        from repro.net import Endpoint

        stray = net.add_node("stray")
        stray.udp.socket().bind(9000).sendto(b"\xff\xfegarbage", Endpoint("239.255.255.253", 427))
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        assert done[0].results  # discovery still works
        assert sa.decode_errors + ua.decode_errors >= 1

    def test_native_slp_latency_is_sub_millisecond_class(self, net):
        """Shape check for Fig. 7: untimed-profile SLP search is fast."""
        ua, sa = make_pair(net)
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        assert done[0].first_latency_us < 1_000


class TestReplyMerging:
    """``PendingSearch`` keeps each URL once, in arrival order."""

    A = UrlEntry("service:clock://a")
    B = UrlEntry("service:clock://b")

    def test_duplicates_within_one_reply_are_kept_once(self):
        search = PendingSearch(agent=None, xid=1, started_at_us=0)
        search._add((self.A, self.A), "192.168.1.2", 5)
        search._add((self.A,), "192.168.1.3", 6)
        assert search.results == [self.A]
        assert search.responders == ["192.168.1.2", "192.168.1.3"]

    def test_arrival_order_is_preserved_across_replies(self):
        search = PendingSearch(agent=None, xid=1, started_at_us=0)
        search._add((self.B, self.A, self.B), "192.168.1.2", 5)
        search._add((self.A, UrlEntry("service:clock://c"), self.B), "192.168.1.3", 6)
        assert [e.url for e in search.results] == [
            "service:clock://b", "service:clock://a", "service:clock://c"
        ]
        assert search.first_reply_at_us == 5

    def test_service_agent_listing_a_url_twice(self, net):
        ua, sa = make_pair(net)
        sa.register(clock_registration(sa.address))
        done = []
        ua.find_services("service:clock", on_complete=done.append)
        net.run()
        assert len(done[0].results) == 1
