"""Unit tests for the UPnP parsers (SSDP + XML), composer, and exporter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composer import ComposeError
from repro.core.events import (
    Event,
    SDP_C_PARSER_SWITCH,
    SDP_DEVICE_URL_DESC,
    SDP_RES_ATTR,
    SDP_RES_OK,
    SDP_RES_SERV_URL,
    SDP_RES_TTL,
    SDP_SERVICE_ALIVE,
    SDP_SERVICE_BYEBYE,
    SDP_SERVICE_REQUEST,
    SDP_SERVICE_RESPONSE,
    SDP_SERVICE_TYPE,
    bracket,
)
from repro.core.parser import NetworkMeta, ParseError
from repro.core.session import TranslationSession
from repro.net import Endpoint
from repro.sdp.base import ServiceRecord
from repro.sdp.upnp import (
    Headers,
    HttpResponse,
    build_msearch,
    build_notify_alive,
    build_notify_byebye,
    build_search_response,
    clock_description,
    parse_ssdp,
)
from repro.units.upnp_unit import (
    SsdpEventParser,
    UpnpEventComposer,
    XmlDescriptionParser,
)

META = NetworkMeta(
    source=Endpoint("192.168.1.9", 50000),
    destination=Endpoint("239.255.255.250", 1900),
    multicast=True,
)


class TestSsdpParser:
    def test_msearch_stream(self):
        parser = SsdpEventParser()
        stream = parser.parse(build_msearch("urn:schemas-upnp-org:device:clock:1"), META)
        names = [e.name for e in stream]
        assert "SDP_SERVICE_REQUEST" in names
        type_event = next(e for e in stream if e.type is SDP_SERVICE_TYPE)
        assert type_event.get("normalized") == "clock"

    def test_search_response_emits_device_url_desc(self):
        """Fig. 4 step 2: LOCATION becomes SDP_DEVICE_URL_DESC, and no
        SDP_RES_SERV_URL is generated yet."""
        parser = SsdpEventParser()
        raw = build_search_response(
            st="upnp:clock",
            usn="uuid:ClockDevice::upnp:clock",
            location="http://128.93.8.112:4004/description.xml",
        )
        stream = parser.parse(raw, NetworkMeta(source=Endpoint("128.93.8.112", 1900)))
        names = [e.name for e in stream]
        assert "SDP_DEVICE_URL_DESC" in names
        assert "SDP_RES_SERV_URL" not in names
        location = next(e for e in stream if e.type is SDP_DEVICE_URL_DESC)
        assert location.get("url") == "http://128.93.8.112:4004/description.xml"

    def test_alive_stream(self):
        parser = SsdpEventParser()
        raw = build_notify_alive(
            nt="urn:schemas-upnp-org:device:clock:1",
            usn="uuid:X::urn:schemas-upnp-org:device:clock:1",
            location="http://h:4004/d.xml",
            max_age_s=120,
        )
        stream = parser.parse(raw, META)
        assert any(e.type is SDP_SERVICE_ALIVE for e in stream)
        assert any(e.type is SDP_RES_TTL and e.get("seconds") == 120 for e in stream)

    def test_byebye_stream(self):
        parser = SsdpEventParser()
        stream = parser.parse(build_notify_byebye("nt", "uuid:X::nt"), META)
        assert any(e.type is SDP_SERVICE_BYEBYE for e in stream)

    def test_http_response_with_xml_triggers_parser_switch(self):
        """Fig. 4 step 3: the SSDP parser meets an XML body and asks for the
        XML parser via SDP_C_PARSER_SWITCH."""
        parser = SsdpEventParser()
        body = clock_description("h").to_xml().encode()
        response = HttpResponse(
            status=200,
            headers=Headers([("CONTENT-TYPE", "text/xml"), ("CONTENT-LENGTH", str(len(body)))]),
            body=body,
        ).render()
        stream = parser.parse(response, NetworkMeta(transport="tcp"))
        switch = next(e for e in stream if e.type is SDP_C_PARSER_SWITCH)
        assert switch.get("syntax") == "xml"
        assert switch.get("payload") == body

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            SsdpEventParser().parse(b"\x02\x01slp-binary", META)


class TestXmlParser:
    def test_description_to_events(self):
        parser = XmlDescriptionParser()
        parser.base_url = "http://192.168.1.2:4004/description.xml"
        stream = parser.parse(clock_description("192.168.1.2").to_xml().encode(), NetworkMeta())
        url_event = next(e for e in stream if e.type is SDP_RES_SERV_URL)
        assert url_event.get("url") == "http://192.168.1.2:4004/service/timer/control"
        attrs = {e.get("name"): e.get("value") for e in stream if e.type is SDP_RES_ATTR}
        assert attrs["friendlyName"] == "CyberGarage Clock Device"
        assert attrs["modelDescription"] == "CyberUPnP Clock Device"
        type_event = next(e for e in stream if e.type is SDP_SERVICE_TYPE)
        assert type_event.get("normalized") == "clock"

    def test_not_xml_rejected(self):
        with pytest.raises(ParseError):
            XmlDescriptionParser().parse(b"not xml", NetworkMeta())


class TestComposer:
    def test_compose_msearch_matches_fig4(self):
        composer = UpnpEventComposer()
        stream = bracket(
            [
                Event.of(SDP_SERVICE_REQUEST),
                Event.of(SDP_SERVICE_TYPE, type="service:clock", normalized="clock"),
            ],
            sdp="slp",
        )
        message = composer.compose(stream, TranslationSession("slp", None))[0]
        assert message.destination == Endpoint("239.255.255.250", 1900)
        parsed = parse_ssdp(message.payload)
        assert parsed.target == "urn:schemas-upnp-org:device:clock:1"
        assert parsed.mx_s == 0  # the paper's M-SEARCH uses MX: 0

    def test_compose_search_response_needs_export_location(self):
        composer = UpnpEventComposer()
        stream = bracket([Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_OK)])
        session = TranslationSession("upnp", Endpoint("c", 50000))
        with pytest.raises(ComposeError):
            composer.compose(stream, session)

    def test_compose_search_response(self):
        composer = UpnpEventComposer()
        session = TranslationSession("upnp", Endpoint("192.168.1.9", 50000))
        session.vars["export_location"] = "http://192.168.1.2:4104/t/description.xml"
        session.vars["st"] = "urn:schemas-upnp-org:device:clock:1"
        stream = bracket(
            [Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_TTL, seconds=600)]
        )
        message = composer.compose(stream, session)[0]
        parsed = parse_ssdp(message.payload)
        assert parsed.location == "http://192.168.1.2:4104/t/description.xml"
        assert parsed.max_age_s == 600
        assert message.destination == session.requester


class TestExporter:
    def test_exported_description_is_fetchable(self):
        from repro.core.unit import UnitRuntime
        from repro.net import LatencyModel, Network
        from repro.sdp.base import ServiceRecord
        from repro.sdp.upnp import http_get, parse_device_description
        from repro.units.upnp_unit import DescriptionExporter

        net = Network(latency=LatencyModel(jitter_us=0))
        host = net.add_node("indiss")
        client = net.add_node("client")
        runtime = UnitRuntime(host)
        exporter = DescriptionExporter(runtime, port=4104)
        record = ServiceRecord(
            service_type="clock",
            url="service:clock:soap://192.168.1.5:4005/c",
            attributes={"friendlyName": "Exported Clock"},
            source_sdp="slp",
        )
        location = exporter.export(record, session_id=1)
        assert location.startswith(f"http://{host.address}:4104/")
        responses = []
        http_get(client, location, responses.append)
        net.run()
        description = parse_device_description(responses[0].body)
        assert description.friendly_name == "Exported Clock"
        assert description.services[0].control_url == record.url
        assert exporter.serves == 1

    def test_unknown_path_404(self):
        from repro.core.unit import UnitRuntime
        from repro.net import LatencyModel, Network
        from repro.sdp.upnp import http_get
        from repro.units.upnp_unit import DescriptionExporter

        net = Network(latency=LatencyModel(jitter_us=0))
        host, client = net.add_node("indiss"), net.add_node("client")
        DescriptionExporter(UnitRuntime(host), port=4104)
        responses = []
        http_get(client, f"http://{host.address}:4104/nope.xml", responses.append)
        net.run()
        assert responses[0].status == 404

    def test_only_the_newest_documents_are_kept(self):
        from repro.core.unit import UnitRuntime
        from repro.net import LatencyModel, Network
        from repro.sdp.upnp import http_get
        from repro.units.upnp_unit import EXPORTED_DOCUMENTS, DescriptionExporter

        net = Network(latency=LatencyModel(jitter_us=0))
        host, client = net.add_node("indiss"), net.add_node("client")
        exporter = DescriptionExporter(UnitRuntime(host), port=4104)
        record = ServiceRecord(
            service_type="clock", url="service:clock:soap://192.168.1.5:4005/c",
            source_sdp="slp",
        )
        advertised = exporter.export_advertised(record, 10**6)
        locations = [
            exporter.export(record, session_id) for session_id in range(EXPORTED_DOCUMENTS + 10)
        ]
        assert len(exporter._documents) == EXPORTED_DOCUMENTS
        responses = []
        for location in (locations[-1], locations[0], advertised):
            http_get(client, location, responses.append)
            net.run()
        # An advertised record's NOTIFY repeats its LOCATION all run long.
        assert [response.status for response in responses] == [200, 404, 200]
        assert responses[0].body == _reference_description(record, EXPORTED_DOCUMENTS + 9)
        assert responses[2].body == _reference_description(record, 10**6)


def _reference_description(record, session_id):
    """The exporter's document, built field by field."""
    from repro.sdp.base import upnp_device_type
    from repro.sdp.upnp import DeviceDescription, ServiceDescription

    path = f"/translated/{record.service_type}-{session_id}/description.xml"
    return DeviceDescription(
        device_type=upnp_device_type(record.service_type),
        friendly_name=record.attributes.get("friendlyName", f"INDISS {record.service_type}"),
        udn=f"uuid:indiss-{record.service_type}-{session_id}",
        manufacturer=record.attributes.get("manufacturer", "INDISS"),
        model_name=record.attributes.get("modelName", record.service_type),
        model_description=record.attributes.get("modelDescription", ""),
        services=[
            ServiceDescription(
                service_type=f"urn:schemas-upnp-org:service:{record.service_type}:1",
                service_id=f"urn:upnp-org:serviceId:{record.service_type}:1",
                scpd_url=f"{path.rsplit('/', 1)[0]}/scpd.xml",
                control_url=record.url,
                event_sub_url=f"{path.rsplit('/', 1)[0]}/event",
            )
        ],
    ).to_xml().encode("utf-8")


_texts = st.lists(
    st.sampled_from(list("ab<&>\"' 1-/:\x00") + ["\x00session\x00"]), max_size=8
).map("".join)
_exported_records = st.builds(
    lambda service_type, url, attributes: ServiceRecord(
        service_type=service_type, url=url, attributes=attributes, source_sdp="slp"
    ),
    st.sampled_from(["clock", "printer", "a-1"]) | _texts.filter(bool),
    st.sampled_from(["service:clock:soap://192.168.1.5:4005/c", "http://x/1"]) | _texts,
    st.dictionaries(
        st.sampled_from(["friendlyName", "manufacturer", "modelName", "modelDescription"]),
        _texts,
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_exported_records, st.integers(0, 10**9)), max_size=12))
def test_exported_descriptions_match_a_direct_render(exports):
    """Every exported document — first export of a record or a repeat
    under a new session id — is byte-identical to the document built
    field by field, whatever the record's text holds."""
    from repro.core.unit import UnitRuntime
    from repro.net import LatencyModel, Network
    from repro.units.upnp_unit import DescriptionExporter

    net = Network(latency=LatencyModel(jitter_us=0))
    exporter = DescriptionExporter(UnitRuntime(net.add_node("indiss")), port=4104)
    for record, session_id in exports * 3:
        location = exporter.export(record, session_id)
        path = location.split(":4104", 1)[1]
        assert exporter.document(path) == _reference_description(record, session_id)


def test_advert_cache_draws_one_session_id_per_record_version_with_memos_off():
    """The NOTIFY cache stays on with ``parse_once=False``: a miss draws a
    network session id, so an unchanged re-announced record must reuse its
    export path and id, and only a changed record draws a new one."""
    from dataclasses import replace

    from repro.core.unit import UnitRuntime
    from repro.net import LatencyModel, Network
    from repro.units.upnp_unit import UpnpUnit

    net = Network(latency=LatencyModel(jitter_us=0), parse_once=False, capture=True)
    host = net.add_node("indiss")
    unit = UpnpUnit(UnitRuntime(host))
    record = ServiceRecord(
        service_type="clock", url="service:clock:soap://192.168.1.5:4005/c",
        attributes={"friendlyName": "Clock"}, source_sdp="slp",
    )
    for announced in (record, record, record, replace(record, lifetime_s=60)):
        unit.advertise_record(announced)
        net.run()
    locations = [parse_ssdp(r.payload).location for r in net.trace if r.destination.port == 1900]
    base = f"http://{host.address}:4104/translated/clock"
    assert locations == [f"{base}-1/description.xml"] * 3 + [f"{base}-2/description.xml"]
    assert sorted(unit.exporter._advertised) == [
        "/translated/clock-1/description.xml", "/translated/clock-2/description.xml"
    ]
    assert net.session_id_source(host)() == 3
