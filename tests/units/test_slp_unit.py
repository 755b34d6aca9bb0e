"""Unit tests for the SLP parser/composer pair."""

import pytest

from repro.core.composer import ComposeError
from repro.core.events import (
    Event,
    SDP_RES_ATTR,
    SDP_RES_SERV_URL,
    SDP_RES_TTL,
    SDP_SERVICE_ALIVE,
    SDP_SERVICE_BYEBYE,
    SDP_SERVICE_REQUEST,
    SDP_SERVICE_RESPONSE,
    SDP_SERVICE_TYPE,
    bracket,
    is_bracketed,
)
from repro.core.parser import NetworkMeta, ParseError
from repro.core.session import TranslationSession
from repro.net import Endpoint
from repro.sdp.slp import (
    ErrorCode,
    Flags,
    FunctionId,
    Header,
    SAAdvert,
    SrvAck,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    UrlEntry,
    decode,
    encode,
)
from repro.units.slp_unit import SlpEventComposer, SlpEventParser


MULTICAST_META = NetworkMeta(
    source=Endpoint("192.168.1.9", 427),
    destination=Endpoint("239.255.255.253", 427),
    multicast=True,
)


def make_request(service_type="service:clock", xid=77):
    return SrvRqst(
        header=Header(FunctionId.SRVRQST, xid=xid, flags=Flags.REQUEST_MCAST),
        service_type=service_type,
        predicate="(scope=home)",
    )


class TestParser:
    def test_request_stream_is_fig4_order(self):
        parser = SlpEventParser()
        stream = parser.parse(encode(make_request()), MULTICAST_META)
        assert is_bracketed(stream)
        names = [event.name for event in stream]
        assert names.index("SDP_NET_MULTICAST") < names.index("SDP_SERVICE_REQUEST")
        assert names.index("SDP_REQ_VERSION") < names.index("SDP_REQ_SCOPE")
        assert names.index("SDP_REQ_PREDICATE") < names.index("SDP_REQ_ID")
        assert names[-2] == "SDP_SERVICE_TYPE"

    def test_request_carries_normalized_type(self):
        parser = SlpEventParser()
        stream = parser.parse(encode(make_request("service:clock:soap")), MULTICAST_META)
        type_event = next(e for e in stream if e.type is SDP_SERVICE_TYPE)
        assert type_event.get("normalized") == "clock"
        assert type_event.get("type") == "service:clock:soap"

    def test_reply_stream(self):
        parser = SlpEventParser()
        reply = SrvRply(
            header=Header(FunctionId.SRVRPLY, xid=9),
            url_entries=(UrlEntry("service:clock:soap://h:1/c", 1800),),
        )
        stream = parser.parse(encode(reply), NetworkMeta(source=Endpoint("h", 427)))
        names = [event.name for event in stream]
        assert "SDP_SERVICE_RESPONSE" in names
        assert "SDP_RES_OK" in names
        url_event = next(e for e in stream if e.type is SDP_RES_SERV_URL)
        assert url_event.get("url") == "service:clock:soap://h:1/c"
        ttl_event = next(e for e in stream if e.type is SDP_RES_TTL)
        assert ttl_event.get("seconds") == 1800

    def test_error_reply(self):
        parser = SlpEventParser()
        reply = SrvRply(
            header=Header(FunctionId.SRVRPLY, xid=9),
            error_code=ErrorCode.SCOPE_NOT_SUPPORTED,
        )
        stream = parser.parse(encode(reply), NetworkMeta())
        assert any(e.name == "SDP_RES_ERR" and e.get("code") == 4 for e in stream)

    def test_saadvert_stream(self):
        parser = SlpEventParser()
        advert = SAAdvert(
            header=Header(FunctionId.SAADVERT),
            url="service:clock:soap://h:1/c",
            attr_list="(model=X)",
        )
        stream = parser.parse(encode(advert), MULTICAST_META)
        assert any(e.type is SDP_SERVICE_ALIVE for e in stream)
        assert any(e.type is SDP_RES_ATTR and e.get("name") == "model" for e in stream)

    def test_register_stream(self):
        parser = SlpEventParser()
        reg = SrvReg(
            header=Header(FunctionId.SRVREG, flags=Flags.FRESH),
            url_entry=UrlEntry("service:printer:lpr://h/q", 600),
            service_type="service:printer:lpr",
            attr_list="(location=hall)",
        )
        stream = parser.parse(encode(reg), NetworkMeta())
        assert any(e.type is SDP_SERVICE_ALIVE for e in stream)
        assert any(e.name == "SDP_REG_SCOPE" for e in stream)

    def test_dereg_stream(self):
        parser = SlpEventParser()
        dereg = SrvDeReg(
            header=Header(FunctionId.SRVDEREG),
            url_entry=UrlEntry("service:printer:lpr://h/q", 0),
        )
        stream = parser.parse(encode(dereg), NetworkMeta())
        assert any(e.type is SDP_SERVICE_BYEBYE for e in stream)

    def test_untranslated_message_rejected(self):
        parser = SlpEventParser()
        ack = SrvAck(header=Header(FunctionId.SRVACK))
        with pytest.raises(ParseError):
            parser.parse(encode(ack), NetworkMeta())

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            SlpEventParser().parse(b"M-SEARCH * HTTP/1.1\r\n\r\n", NetworkMeta())

    def test_try_parse_counts_errors(self):
        parser = SlpEventParser()
        assert parser.try_parse(b"junk", NetworkMeta()) is None
        assert parser.parse_errors == 1


class TestComposer:
    def request_stream(self, service_type="clock"):
        return bracket(
            [
                Event.of(SDP_SERVICE_REQUEST),
                Event.of(SDP_SERVICE_TYPE, type=service_type, normalized=service_type),
            ],
            sdp="upnp",
        )

    def test_compose_request(self):
        composer = SlpEventComposer()
        session = TranslationSession(origin_sdp="upnp", requester=None)
        session.vars["native_xid"] = 42
        messages = composer.compose(self.request_stream(), session)
        assert len(messages) == 1
        message = messages[0]
        assert message.destination == Endpoint("239.255.255.253", 427)
        request = decode(message.payload)
        assert request.service_type == "service:clock"
        assert request.header.xid == 42

    def test_compose_reply_maps_http_to_soap_scheme(self):
        composer = SlpEventComposer()
        session = TranslationSession(
            origin_sdp="slp", requester=Endpoint("192.168.1.9", 427)
        )
        session.vars["xid"] = 7
        session.vars["service_type"] = "clock"
        stream = bracket(
            [
                Event.of(SDP_SERVICE_RESPONSE),
                Event.of(SDP_RES_TTL, seconds=999),
                Event.of(SDP_RES_SERV_URL, url="http://192.168.1.2:4004/ctl"),
            ]
        )
        message = composer.compose(stream, session)[0]
        reply = decode(message.payload)
        assert reply.header.xid == 7
        assert reply.url_entries[0].url == "service:clock:soap://192.168.1.2:4004/ctl"
        assert reply.url_entries[0].lifetime_s == 999
        assert message.destination == session.requester

    def test_compose_reply_preserves_native_slp_url(self):
        composer = SlpEventComposer()
        session = TranslationSession(origin_sdp="slp", requester=Endpoint("h", 427))
        stream = bracket(
            [
                Event.of(SDP_SERVICE_RESPONSE),
                Event.of(SDP_RES_SERV_URL, url="service:clock://already"),
            ]
        )
        reply = decode(composer.compose(stream, session)[0].payload)
        assert reply.url_entries[0].url == "service:clock://already"

    def test_compose_advert(self):
        composer = SlpEventComposer()
        stream = bracket(
            [
                Event.of(SDP_SERVICE_ALIVE),
                Event.of(SDP_SERVICE_TYPE, type="clock", normalized="clock"),
                Event.of(SDP_RES_SERV_URL, url="http://h/c"),
                Event.of(SDP_RES_ATTR, name="model", value="X"),
            ]
        )
        message = composer.compose(stream, TranslationSession("upnp", None))[0]
        advert = decode(message.payload)
        assert advert.header.function_id is FunctionId.SAADVERT
        assert "model" in advert.attr_list

    def test_unknown_events_discarded_not_fatal(self):
        composer = SlpEventComposer()
        stream = self.request_stream()
        stream.insert(2, _fake_event())
        session = TranslationSession("upnp", None)
        composer.compose(stream, session)
        assert composer.events_discarded >= 1
        assert "SDP_TEST_UNKNOWN" in composer.discarded_types

    def test_reply_without_requester_rejected(self):
        composer = SlpEventComposer()
        stream = bracket(
            [Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_SERV_URL, url="u")]
        )
        with pytest.raises(ComposeError):
            composer.compose(stream, TranslationSession("slp", None))

    def test_stream_without_function_rejected(self):
        composer = SlpEventComposer()
        with pytest.raises(ComposeError):
            composer.compose(bracket([]), TranslationSession("slp", None))


def _fake_event():
    from repro.core.events import EventCategory, REGISTRY

    fake_type = REGISTRY.define("SDP_TEST_UNKNOWN", EventCategory.DISCOVERY, sdp="test")
    return Event.of(fake_type)


def test_every_hinted_slp_send_counts_a_seed():
    """The recursive AttrRqst leaves with a decode hint like the unit's
    other SLP frames, so it counts as a seed too (4 hinted frames)."""
    from repro.world import World
    from repro.world.scenarios import SCENARIO_SPECS

    world = World.build(SCENARIO_SPECS["upnp_to_slp_service_side"](), seed=0)
    world.run_workload()
    assert world.outcome().latency_us is not None
    counter = world.net.parse_stats["slp"]
    assert (counter.seeded, counter.decoded, counter.shared) == (4, 0, 4)
