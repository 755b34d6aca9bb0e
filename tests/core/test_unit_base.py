"""Tests for the Unit base class plumbing and the UnitRuntime."""

import pytest

from repro.core.composer import OutboundMessage, SdpComposer
from repro.core.events import (
    Event,
    SDP_C_PARSER_SWITCH,
    SDP_SERVICE_REQUEST,
    bracket,
)
from repro.core.parser import NetworkMeta, ParseError, SdpParser
from repro.core.unit import IndissTimings, Unit, UnitRuntime
from repro.net import Endpoint, LatencyModel, Network


class OuterParser(SdpParser):
    """Emits a parser switch when the payload starts with 'SWITCH:'."""

    sdp_id = "toy"
    syntax = "outer"

    def parse(self, raw, meta):
        if raw.startswith(b"SWITCH:"):
            return bracket(
                [Event.of(SDP_C_PARSER_SWITCH, syntax="inner", payload=raw[7:])],
                sdp="toy",
            )
        if raw.startswith(b"OUTER:"):
            return bracket([Event.of(SDP_SERVICE_REQUEST)], sdp="toy")
        raise ParseError("not toy-outer")


class InnerParser(SdpParser):
    sdp_id = "toy"
    syntax = "inner"

    def parse(self, raw, meta):
        return bracket([Event.of(SDP_SERVICE_REQUEST, inner=True)], sdp="toy")


class NullComposer(SdpComposer):
    sdp_id = "toy"

    def compose(self, events, session):
        return []


def make_unit(net=None):
    net = net if net is not None else Network(latency=LatencyModel(jitter_us=0))
    node = net.add_node("host")
    unit = Unit(
        UnitRuntime(node),
        parsers={"outer": OuterParser(), "inner": InnerParser()},
        composer=NullComposer(),
        default_syntax="outer",
    )
    unit.sdp_id = "toy"
    return unit, net, node


class TestParserSwitching:
    def test_switch_splices_inner_stream(self):
        unit, net, node = make_unit()
        stream = unit.parse_raw(b"SWITCH:payload", NetworkMeta())
        names = [e.name for e in stream]
        assert "SDP_C_PARSER_SWITCH" in names
        inner = [e for e in stream if e.get("inner")]
        assert inner  # inner parser's events spliced in
        assert names[0] == "SDP_C_START" and names[-1] == "SDP_C_STOP"

    def test_parser_resets_after_switch(self):
        unit, net, node = make_unit()
        unit.parse_raw(b"SWITCH:x", NetworkMeta())
        assert unit.current_syntax == "outer"

    def test_unknown_syntax_rejected(self):
        unit, net, node = make_unit()
        with pytest.raises(KeyError):
            unit.switch_parser("nope")

    def test_default_syntax_must_exist(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("h")
        with pytest.raises(ValueError):
            Unit(
                UnitRuntime(node),
                parsers={"outer": OuterParser()},
                composer=NullComposer(),
                        default_syntax="missing",
            )

    def test_unparseable_returns_none(self):
        unit, net, node = make_unit()
        assert unit.parse_raw(b"garbage", NetworkMeta()) is None
        assert unit.parser.parse_errors == 1


class TestListeners:
    def test_notify_on_environment_message(self):
        unit, net, node = make_unit()
        seen = []
        unit.add_listener(lambda stream, meta: seen.append(len(stream)))
        unit.handle_environment_message(b"OUTER:x", NetworkMeta())
        assert seen == [3]
        assert unit.streams_dispatched == 1

    def test_remove_listener(self):
        unit, net, node = make_unit()
        seen = []
        listener = lambda stream, meta: seen.append(1)
        unit.add_listener(listener)
        unit.remove_listener(listener)
        unit.handle_environment_message(b"OUTER:x", NetworkMeta())
        assert seen == []


class TestUnitRuntime:
    def test_send_paths_stamp_the_origin(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node, peer = net.add_node("h"), net.add_node("peer")
        origin = object()
        runtime = UnitRuntime(node, origin=origin)
        got = []
        peer.udp.socket().bind(5000).on_datagram(got.append)
        runtime.send_udp(b"persistent", Endpoint(peer.address, 5000))
        runtime.send_udp_from_new_socket(b"throwaway", Endpoint(peer.address, 5000))
        net.run()
        assert {d.payload: d.origin for d in got} == {
            b"persistent": origin, b"throwaway": origin,
        }

    def test_datagram_handler_receives_replies(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node, peer = net.add_node("h"), net.add_node("p")
        runtime = UnitRuntime(node)
        got = []
        runtime.on_datagram(lambda raw, meta: got.append((raw, meta.source.host)))
        echo = peer.udp.socket().bind(6000)
        echo.on_datagram(lambda d: echo.sendto(b"pong", d.source))
        runtime.send_udp(b"ping", Endpoint(peer.address, 6000))
        net.run()
        assert got == [(b"pong", peer.address)]

    def test_http_helper(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node, server = net.add_node("h"), net.add_node("s")
        from repro.sdp.upnp import Headers, HttpResponse, HttpStreamParser

        def on_conn(conn):
            parser = HttpStreamParser()

            def on_data(chunk):
                for message in parser.feed(chunk):
                    conn.send(
                        HttpResponse(
                            200, headers=Headers([("Content-Length", "2")]), body=b"ok"
                        ).render()
                    )

            conn.on_data(on_data)

        server.tcp.listen(8080, on_conn)
        runtime = UnitRuntime(node)
        responses = []
        runtime.http("GET", f"http://{server.address}:8080/x", on_response=responses.append)
        net.run()
        assert responses[0].body == b"ok"


class TestTraceFormatting:
    def test_format_trace_classifies_protocols(self):
        from repro.net.tracefmt import format_trace

        net = Network(latency=LatencyModel(jitter_us=0), capture=True)
        client_node, service_node = net.add_node("c"), net.add_node("s")
        from repro.core import Indiss, IndissConfig
        from repro.sdp.slp import UserAgent
        from repro.sdp.upnp import make_clock_device

        ua = UserAgent(client_node)
        make_clock_device(service_node)
        Indiss(service_node, IndissConfig(units=("slp", "upnp")))
        ua.find_services("service:clock", wait_us=300_000)
        net.run(duration_us=1_000_000)
        text = format_trace(net)
        assert "SLP(fn=1)" in text  # SrvRqst
        assert "SSDP M-SEARCH" in text
        assert "SSDP 200 OK" in text
        assert "HTTP request" in text  # the description GET
        assert "SLP(fn=2)" in text  # SrvRply

    def test_format_trace_limit(self):
        from repro.net.tracefmt import format_trace

        net = Network(latency=LatencyModel(jitter_us=0), capture=True)
        a, b = net.add_node("a"), net.add_node("b")
        b.udp.socket().bind(5000)
        sender = a.udp.socket().bind(6000)
        for _ in range(5):
            sender.sendto(b"x", Endpoint(b.address, 5000))
        net.run()
        text = format_trace(net, limit=2)
        assert "... 3 more" in text
