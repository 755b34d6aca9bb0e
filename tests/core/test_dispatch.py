"""The dispatch layer: classifier, policies, and end-to-end dedup/timeout
semantics through a real INDISS instance."""

import pytest

from repro.core import (
    CacheFirstPolicy,
    DispatchPolicy,
    FanOutAllPolicy,
    GatewayForwardPolicy,
    Indiss,
    IndissConfig,
    make_policy,
)
from repro.core.dispatch import (
    KIND_ADVERTISEMENT,
    KIND_BYEBYE,
    KIND_OTHER,
    KIND_REQUEST,
    KIND_RESPONSE,
    StreamClassifier,
)
from repro.core.events import (
    Event,
    SDP_REQ_ID,
    SDP_RES_OK,
    SDP_SERVICE_ALIVE,
    SDP_SERVICE_BYEBYE,
    SDP_SERVICE_REQUEST,
    SDP_SERVICE_RESPONSE,
    SDP_SERVICE_TYPE,
    bracket,
)
from repro.net import LatencyModel, Network
from repro.sdp.slp import UserAgent
from repro.sdp.upnp import make_clock_device


@pytest.fixture()
def net():
    return Network(latency=LatencyModel(jitter_us=0))


class TestStreamClassifier:
    def classify(self, events):
        return StreamClassifier().classify(bracket(events, sdp="slp"))

    def test_request_with_fields(self):
        classified = self.classify(
            [
                Event.of(SDP_SERVICE_REQUEST),
                Event.of(SDP_SERVICE_TYPE, type="service:clock:soap", normalized="clock"),
                Event.of(SDP_REQ_ID, xid=77),
            ]
        )
        assert classified.kind == KIND_REQUEST
        assert classified.service_type == "clock"
        assert classified.raw_type == "service:clock:soap"
        assert classified.xid == 77

    def test_request_takes_precedence_over_response_events(self):
        # SLP retransmissions carry previous-responder data alongside the
        # request; they must still classify as requests.
        classified = self.classify(
            [Event.of(SDP_SERVICE_REQUEST), Event.of(SDP_SERVICE_RESPONSE)]
        )
        assert classified.kind == KIND_REQUEST

    def test_other_kinds(self):
        assert self.classify([Event.of(SDP_SERVICE_ALIVE)]).kind == KIND_ADVERTISEMENT
        assert self.classify([Event.of(SDP_SERVICE_RESPONSE)]).kind == KIND_RESPONSE
        assert self.classify([Event.of(SDP_SERVICE_BYEBYE)]).kind == KIND_BYEBYE
        assert self.classify([Event.of(SDP_RES_OK)]).kind == KIND_OTHER


class TestPolicyRegistry:
    def test_make_policy_resolves_names(self):
        assert isinstance(make_policy("fanout"), FanOutAllPolicy)
        assert isinstance(make_policy("cache-first"), CacheFirstPolicy)
        assert isinstance(make_policy("gateway-forward"), GatewayForwardPolicy)

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            make_policy("sharded-someday")

    def test_config_selects_policy(self, net):
        node = net.add_node("host")
        indiss = Indiss(node, IndissConfig(units=("slp", "upnp"), dispatch="gateway-forward"))
        assert isinstance(indiss.policy, GatewayForwardPolicy)
        assert indiss.session_manager.dedup_scope == "service-type"

    def test_injected_policy_wins(self, net):
        class Custom(DispatchPolicy):
            name = "custom"

        node = net.add_node("host")
        indiss = Indiss(
            node, IndissConfig(units=("slp", "upnp")), dispatch_policy=Custom()
        )
        assert isinstance(indiss.policy, Custom)


class TestTargetSelection:
    def _indiss(self, net, dispatch="fanout"):
        node = net.add_node("host")
        return Indiss(node, IndissConfig(units=("slp", "upnp"), dispatch=dispatch))

    def _session(self, indiss, origin="slp"):
        return indiss.session_manager.open(origin, None, [], lambda s, t: None)

    def test_fanout_excludes_origin_unit(self, net):
        indiss = self._indiss(net)
        targets = indiss.policy.select_targets(indiss, self._session(indiss))
        assert targets == [indiss.units["upnp"]]

    def test_gateway_forward_includes_origin_unit(self, net):
        indiss = self._indiss(net, dispatch="gateway-forward")
        targets = indiss.policy.select_targets(indiss, self._session(indiss))
        assert set(targets) == set(indiss.units.values())

    def test_lookup_record_skips_the_requesters_own_protocol(self, net):
        from repro.sdp.base import ServiceRecord

        indiss = self._indiss(net)
        policy, cache = indiss.policy, indiss.cache
        slp, upnp, jini = (
            ServiceRecord(service_type="clock", url=f"http://{sdp}/c", source_sdp=sdp)
            for sdp in ("slp", "upnp", "jini")
        )
        for record in (slp, upnp, jini):
            cache.store(record)
        assert policy.lookup_record(indiss, "slp", "clock") is upnp
        assert policy.lookup_record(indiss, "upnp", "clock") is slp
        assert policy.lookup_record(indiss, "slp", "printer") is None
        only_slp = ServiceRecord(service_type="fax", url="http://slp/f", source_sdp="slp")
        cache.store(only_slp)
        assert policy.lookup_record(indiss, "slp", "fax") is None
        # One cache lookup per call, hit or miss, whatever the filter keeps.
        assert (cache.hits, cache.misses) == (3, 1)


def run_slp_search(net, ua, service_type="service:clock", wait_us=400_000):
    done = []
    ua.find_services(service_type, on_complete=done.append, wait_us=wait_us)
    net.run(duration_us=wait_us + 600_000)
    assert done, "search never completed"
    return done[0]


class TestDedupThroughIndiss:
    """Window semantics observed end-to-end (satellite: no dedicated
    coverage existed for expiry / distinct XIDs / cross-SDP keys)."""

    def test_retransmission_within_window_suppressed(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)  # default config: 1 retry per search
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        run_slp_search(net, ua)
        # The retransmission reuses the XID -> suppressed, one session.
        assert indiss.stats.opened == 1
        assert indiss.stats.duplicates_suppressed == 1
        # A second search inside the 2 s window uses a *different* XID, so
        # it opens a new session (plus its own suppressed retransmission).
        run_slp_search(net, ua)
        assert indiss.stats.opened == 2
        assert indiss.stats.duplicates_suppressed == 2

    def test_window_expiry_reopens_sessions(self, net):
        from repro.sdp.slp import SlpConfig

        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node, config=SlpConfig(retries=0))
        make_clock_device(service_node)
        indiss = Indiss(
            service_node, IndissConfig(units=("slp", "upnp"), dedup_window_us=100_000)
        )
        run_slp_search(net, ua)
        net.run(duration_us=200_000)  # sail past the window
        run_slp_search(net, ua)
        assert indiss.stats.opened == 2
        assert indiss.stats.duplicates_suppressed == 0
        # Lazy expiry pruned the first search's key.
        assert len(indiss.session_manager.deduper) <= 1

    def test_type_scope_second_client_answered_from_cache(self, net):
        """Type-scoped dedup must not starve a second client: once the
        first translation warmed the cache, a suppressed duplicate from a
        different requester is answered from it."""
        from repro.sdp.slp import SlpConfig

        client_a, client_b = net.add_node("client-a"), net.add_node("client-b")
        service_node = net.add_node("service")
        ua_a = UserAgent(client_a, config=SlpConfig(retries=0))
        ua_b = UserAgent(client_b, config=SlpConfig(retries=0))
        make_clock_device(service_node)
        indiss = Indiss(
            service_node,
            IndissConfig(units=("slp", "upnp"), dispatch="gateway-forward"),
        )
        first = run_slp_search(net, ua_a)
        assert first.results
        # Well inside the 2 s window: suppressed, but served from cache.
        second = run_slp_search(net, ua_b)
        assert second.results
        assert indiss.stats.duplicates_suppressed >= 1
        assert indiss.stats.answered_from_cache >= 1

    def test_type_scope_suppresses_cross_requester_repeat(self, net):
        client_a, client_b = net.add_node("client-a"), net.add_node("client-b")
        service_node = net.add_node("service")
        ua_a, ua_b = UserAgent(client_a), UserAgent(client_b)
        make_clock_device(service_node)
        indiss = Indiss(
            service_node,
            IndissConfig(units=("slp", "upnp"), dispatch="gateway-forward"),
        )
        done = []
        ua_a.find_services("service:clock", on_complete=done.append)
        ua_b.find_services("service:clock", on_complete=done.append)
        net.run(duration_us=1_000_000)
        # Same type from a different requester within the window: exactly
        # one session fans out to the network — the gateway-chain loop
        # breaker.  Suppressed duplicates may still be served from the
        # cache, but those sessions never touch the network.
        assert indiss.stats.opened - indiss.stats.answered_from_cache == 1
        assert indiss.stats.duplicates_suppressed >= 1


class TestTimeoutAccounting:
    def test_fruitless_search_counts_timed_out(self, net):
        """SessionStats.timed_out had no dedicated coverage."""
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        search = run_slp_search(net, ua, "service:printer")
        assert search.results == []
        assert indiss.stats.opened == 1
        assert indiss.stats.completed == 1
        assert indiss.stats.timed_out == 1

    def test_silent_capable_unit_cannot_strand_multi_target_session(self, net):
        """A jini target with no registrar to ask must give up explicitly;
        otherwise a fruitless multi-target session never completes and
        timed_out is never counted."""
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp", "jini")))
        search = run_slp_search(net, ua, "service:printer")
        assert search.results == []
        assert indiss.stats.opened == 1
        assert indiss.stats.completed == 1
        assert indiss.stats.timed_out == 1
        assert indiss.session_manager.active() == []

    def test_successful_search_counts_no_timeout(self, net):
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        search = run_slp_search(net, ua)
        assert len(search.results) == 1
        assert indiss.stats.timed_out == 0


class TestReplyProvenance:
    def test_cached_record_carries_answering_sdp(self, net):
        """Records learnt from translated replies must be stamped with the
        answering protocol, not ``""``/``"cache"`` (the old bug defeated
        the same-protocol filter on later cache lookups)."""
        client_node, service_node = net.add_node("client"), net.add_node("service")
        ua = UserAgent(client_node)
        make_clock_device(service_node)
        indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        run_slp_search(net, ua)
        records = indiss.cache.lookup_any()
        assert records, "reply was not cached"
        assert all(r.source_sdp == "upnp" for r in records)
