"""The units' cross-frame stream cache against a fresh parse.

A unit remembers the event stream of each monitored frame it has seen
twice, keyed by (current syntax, payload, source, multicast), and serves
later repeats of the same frame from that cache.  The reference is the same unit type on a
``Network(parse_once=False)``, where the cache is off and every frame is
parsed.  On any sequence of repeated and fresh frames both must publish
equal streams and register the same number of parse observations; a hit
counts as a share.  Streams that switched parsers are never cached,
because the XML parser reads per-fetch state (``base_url``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Indiss, IndissConfig
from repro.core.events import SDP_C_PARSER_SWITCH
from repro.core.parser import NetworkMeta
from repro.core.unit import STREAM_CACHE_SIZE
from repro.net import Endpoint, FrameMemo, Network
from repro.sdp.slp.messages import FunctionId, Header, SrvRqst
from repro.sdp.slp.wire import encode as slp_encode
from repro.sdp.upnp.ssdp import (
    build_msearch,
    build_notify_alive,
    build_notify_byebye,
    build_search_response,
)

LOCATION = "http://192.168.1.9:4004/description.xml"
DESCRIPTION_XML = (
    b'<?xml version="1.0"?><root xmlns="urn:schemas-upnp-org:device-1-0">'
    b"<device><deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>"
    b"<friendlyName>Clock</friendlyName><UDN>uuid:clock-1</UDN>"
    b"<serviceList><service>"
    b"<serviceType>urn:schemas-upnp-org:service:timer:1</serviceType>"
    b"<serviceId>urn:upnp-org:serviceId:timer:1</serviceId>"
    b"<SCPDURL>/timer.xml</SCPDURL><controlURL>/timer/control</controlURL>"
    b"<eventSubURL>/timer/event</eventSubURL>"
    b"</service></serviceList></device></root>"
)
HTTP_WITH_XML = (
    b"HTTP/1.1 200 OK\r\nCONTENT-TYPE: text/xml\r\n"
    b"CONTENT-LENGTH: %d\r\n\r\n" % len(DESCRIPTION_XML)
) + DESCRIPTION_XML

UPNP_FRAMES = [
    build_msearch("urn:schemas-upnp-org:device:clock:1", mx_s=0),
    build_msearch("ssdp:all", mx_s=0, hops=2),
    build_notify_alive("upnp:rootdevice", "uuid:clock-1::upnp:rootdevice", LOCATION),
    build_notify_alive("uuid:clock-1", "uuid:clock-1", LOCATION),
    build_notify_byebye("upnp:rootdevice", "uuid:clock-1::upnp:rootdevice"),
    build_search_response("upnp:rootdevice", "uuid:clock-1::upnp:rootdevice", LOCATION),
    HTTP_WITH_XML,
    b"NOT SSDP AT ALL",
]
SLP_FRAMES = [
    slp_encode(SrvRqst(header=Header(FunctionId.SRVRQST, xid=xid), service_type=name))
    for xid, name in ((1, "service:clock"), (2, "service:printer"), (1, "service:clock:soap"))
] + [b"\xff\xfe junk"]
SOURCES = [Endpoint("192.168.1.20", 1900), Endpoint("192.168.1.21", 50000), None]
BASE_URLS = ["", "http://192.168.1.9:4004/description.xml", "http://10.0.0.1/d.xml"]


def make_units(parse_once):
    net = Network(parse_once=parse_once)
    indiss = Indiss(net.add_node("gw"), IndissConfig(units=("slp", "upnp"), deployment="gateway"))
    return indiss.units["upnp"], indiss.units["slp"]


frames = st.one_of(
    st.tuples(st.just("upnp"), st.sampled_from(UPNP_FRAMES)),
    st.tuples(st.just("slp"), st.sampled_from(SLP_FRAMES)),
)
operations = st.one_of(
    st.tuples(st.just("frame"), frames, st.sampled_from(SOURCES), st.booleans(), st.booleans()),
    st.tuples(st.just("base_url"), st.sampled_from(BASE_URLS)),
)


def observations(unit):
    return (
        unit.streams_parsed + unit.streams_shared,
        unit.parse_counter.decoded + unit.parse_counter.shared,
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, max_size=40))
def test_cached_streams_equal_fresh_parses(ops):
    cached = dict(zip(("upnp", "slp"), make_units(parse_once=True)))
    fresh = dict(zip(("upnp", "slp"), make_units(parse_once=False)))
    assert fresh["upnp"]._streams.bound == 0
    for op in ops:
        if op[0] == "base_url":
            for units in (cached, fresh):
                units["upnp"].parsers["xml"].base_url = op[1]
            continue
        _, (sdp, raw), source, multicast, with_memo = op
        streams = []
        for units in (cached, fresh):
            meta = NetworkMeta(
                source=source, multicast=multicast,
                memo=FrameMemo() if with_memo else None,
            )
            streams.append(units[sdp].handle_environment_message(raw, meta))
        assert streams[0] == streams[1], (sdp, raw, source, multicast)
        assert observations(cached[sdp]) == observations(fresh[sdp])
    for unit in cached.values():
        for stream in unit._streams.values():
            assert not any(event.type is SDP_C_PARSER_SWITCH for event in stream)


def test_a_repeat_is_a_share_and_seeds_the_frame_memo():
    unit, _ = make_units(parse_once=True)
    raw = UPNP_FRAMES[2]
    source = SOURCES[0]
    first = unit.handle_environment_message(raw, NetworkMeta(source=source, multicast=True))
    assert (unit.streams_parsed, unit.streams_shared) == (1, 0)
    assert not unit._streams  # a frame seen once is not cached
    unit.handle_environment_message(raw, NetworkMeta(source=source, multicast=True))
    assert (unit.streams_parsed, unit.streams_shared) == (2, 0)
    memo = FrameMemo()
    third = unit.handle_environment_message(
        raw, NetworkMeta(source=source, multicast=True, memo=memo)
    )
    assert third == first and third is not first
    assert (unit.streams_parsed, unit.streams_shared) == (2, 1)
    # The next receiver of this frame finds the stream in the frame memo.
    assert list(memo.lookup(("indiss", "upnp", "ssdp"), raw)) == first
    # Another source is another stream.
    unit.handle_environment_message(raw, NetworkMeta(source=SOURCES[1], multicast=True))
    assert unit.streams_parsed == 3


def test_parser_switch_streams_are_never_cached():
    unit, _ = make_units(parse_once=True)
    xml = unit.parsers["xml"]
    urls = []
    for base_url in BASE_URLS:
        xml.base_url = base_url
        stream = unit.handle_environment_message(HTTP_WITH_XML, NetworkMeta(source=SOURCES[0]))
        urls.extend(e.get("url") for e in stream if e.name == "SDP_RES_SERV_URL")
    assert unit.streams_parsed == 3 and unit.streams_shared == 0
    assert not unit._streams  # seen three times, yet never cached
    assert urls == [
        "/timer/control",
        "http://192.168.1.9:4004/timer/control",
        "http://10.0.0.1:80/timer/control",
    ]


def test_the_cache_is_bounded():
    unit, _ = make_units(parse_once=True)
    raw = UPNP_FRAMES[0]
    for port in range(STREAM_CACHE_SIZE + 10):
        for _ in range(2):
            unit.handle_environment_message(
                raw, NetworkMeta(source=Endpoint("192.168.1.20", 1000 + port))
            )
    assert len(unit._streams) == STREAM_CACHE_SIZE
    # The oldest entries went first.
    assert (unit.current_syntax, raw, Endpoint("192.168.1.20", 1000), False) not in unit._streams


def test_cached_events_are_pooled():
    unit, _ = make_units(parse_once=True)
    for source in SOURCES[:2] * 2:
        unit.handle_environment_message(UPNP_FRAMES[2], NetworkMeta(source=source))
    first, second = unit._streams.values()
    assert first[0] is second[0]  # equal SDP_C_START events: one instance


def test_pooling_keeps_each_value_type():
    from repro.core.events import Event, SDP_RES_TTL

    unit, _ = make_units(parse_once=True)
    first = unit._intern((Event.of(SDP_RES_TTL, seconds=1),))[0]
    for value in (True, 1.0, -0.0, 0.0):
        pooled = unit._intern((Event.of(SDP_RES_TTL, seconds=value),))[0]
        assert repr(pooled.get("seconds")) == repr(value)
    assert unit._intern((Event.of(SDP_RES_TTL, seconds=1),))[0] is first
