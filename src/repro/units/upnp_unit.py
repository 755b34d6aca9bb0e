"""The UPnP unit: SSDP + XML parsers, composer, exporter, FSM (paper §2.4).

This unit realizes the paper's most intricate translation process (Fig. 4
steps 2-3): a foreign request is turned into an SSDP ``M-SEARCH``; the SSDP
response carries only ``LOCATION`` (``SDP_DEVICE_URL_DESC``), not the
service URL the foreign client needs, so "the UPnP unit needs to
recursively generate additional requests to the remote service until it
receives the expected event" — an HTTP GET of the description document,
whose XML body makes the SSDP parser emit ``SDP_C_PARSER_SWITCH`` so the
unit's XML parser can finish the job and finally produce
``SDP_RES_SERV_URL`` plus ``SDP_RES_ATTR`` events.

In the reverse direction the unit answers foreign-hosted services to native
UPnP clients; since a UPnP client dereferences ``LOCATION``, the unit
embeds a **description exporter** — a small HTTP server publishing
synthesized description documents for translated services.
"""

from __future__ import annotations

import functools
import random

from ..core.composer import ComposeError, OutboundMessage, SdpComposer
from ..core.events import (
    Event,
    SDP_C_PARSER_SWITCH,
    SDP_C_STOP,
    SDP_DEVICE_MAX_AGE,
    SDP_DEVICE_SERVER,
    SDP_DEVICE_URL_DESC,
    SDP_DEVICE_USN,
    SDP_NET_MULTICAST,
    SDP_NET_SOURCE_ADDR,
    SDP_NET_TYPE,
    SDP_NET_UNICAST,
    SDP_REQ_HOPS,
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
from ..core.fsm import StateMachine, StateMachineDefinition
from ..core.parser import NetworkMeta, ParseError, SdpParser
from ..core.session import TranslationSession
from ..core.unit import SessionEntry, Unit, UnitRuntime
from ..net import Endpoint, Memo
from ..sdp.base import ServiceRecord, normalize_service_type, upnp_device_type
from ..sdp.upnp import (
    DescriptionError,
    DeviceDescription,
    HOPS_HEADER,
    Headers,
    HttpResponse,
    HttpStreamParser,
    SERVER_STRING,
    SSDP_GROUP,
    SSDP_MEMO_KEY,
    SSDP_PORT,
    ServiceDescription,
    SsdpKind,
    decode_ssdp_shared,
    join_url,
    parse_device_description,
    seeded_msearch,
    seeded_notify_alive,
    seeded_search_response,
)
from ..sdp.upnp.http import HttpRequest


class SsdpEventParser(SdpParser):
    """SSDP datagrams (and HTTP responses) -> semantic event streams."""

    sdp_id = "upnp"
    syntax = "ssdp"

    def parse(self, raw: bytes, meta: NetworkMeta) -> list[Event]:
        if _looks_like_http_response_with_xml(raw):
            # Fig. 4 step 3: "the reply contains a XML body that the current
            # UPnP parser, which is dedicated to the SSDP protocol, does not
            # understand" -> ask the unit to switch to the XML parser.
            body = raw.partition(b"\r\n\r\n")[2]
            return bracket(
                [Event.of(SDP_C_PARSER_SWITCH, syntax="xml", payload=body)],
                sdp="upnp",
                function="HTTP-RESPONSE",
            )
        # Parse-once: the frame's memo usually already holds the decoded
        # message — SSDP senders seed it at send time, and any native
        # device or control point that heard the frame first stored its
        # decode.  Only truly foreign bytes run the tokenizer here.
        memo = getattr(meta, "memo", None)
        message = decode_ssdp_shared(raw, memo, self.parse_counter)
        if message is None:
            raise ParseError("not an SSDP datagram")

        events: list[Event] = []
        events.append(
            Event.of(SDP_NET_MULTICAST) if meta.multicast else Event.of(SDP_NET_UNICAST)
        )
        if meta.source is not None:
            events.append(
                Event.of(SDP_NET_SOURCE_ADDR, host=meta.source.host, port=meta.source.port)
            )
        events.append(Event.of(SDP_NET_TYPE, sdp="upnp"))

        if message.kind is SsdpKind.MSEARCH:
            events.append(Event.of(SDP_SERVICE_REQUEST))
            events.append(
                Event.of(
                    SDP_SERVICE_TYPE,
                    type=message.target,
                    normalized=normalize_service_type(message.target),
                )
            )
            hops_text = (
                message.raw_headers.get(HOPS_HEADER, "")
                if message.raw_headers is not None
                else ""
            )
            if hops_text:
                try:
                    events.append(Event.of(SDP_REQ_HOPS, hops=int(hops_text)))
                except ValueError:
                    pass
        elif message.kind is SsdpKind.RESPONSE:
            events.append(Event.of(SDP_SERVICE_RESPONSE))
            events.append(Event.of(SDP_RES_OK))
            events.append(
                Event.of(
                    SDP_SERVICE_TYPE,
                    type=message.target,
                    normalized=normalize_service_type(message.target),
                )
            )
            events.append(Event.of(SDP_DEVICE_URL_DESC, url=message.location))
            events.append(Event.of(SDP_DEVICE_USN, usn=message.usn))
            events.append(Event.of(SDP_DEVICE_MAX_AGE, seconds=message.max_age_s))
            events.append(Event.of(SDP_RES_TTL, seconds=message.max_age_s))
            if message.server:
                events.append(Event.of(SDP_DEVICE_SERVER, server=message.server))
        elif message.kind is SsdpKind.ALIVE:
            events.append(Event.of(SDP_SERVICE_ALIVE))
            events.append(
                Event.of(
                    SDP_SERVICE_TYPE,
                    type=message.target,
                    normalized=normalize_service_type(message.target),
                )
            )
            events.append(Event.of(SDP_DEVICE_URL_DESC, url=message.location))
            events.append(Event.of(SDP_DEVICE_USN, usn=message.usn))
            events.append(Event.of(SDP_RES_TTL, seconds=message.max_age_s))
        elif message.kind is SsdpKind.BYEBYE:
            events.append(Event.of(SDP_SERVICE_BYEBYE, usn=message.usn, type=message.target))
        return bracket(events, sdp="upnp", function=message.kind.name)


def _looks_like_http_response_with_xml(raw: bytes) -> bool:
    if not raw.startswith(b"HTTP/1.1 200") and not raw.startswith(b"HTTP/1.0 200"):
        return False
    head, sep, body = raw.partition(b"\r\n\r\n")
    return bool(sep) and body.lstrip().startswith(b"<?xml") or body.lstrip().startswith(b"<root")


class XmlDescriptionParser(SdpParser):
    """Device-description XML -> semantic events (control URL + attributes).

    "The XML description is converted to several SDP_RES_ATTR events"
    (paper §2.4); the control URL of the first service becomes the
    ``SDP_RES_SERV_URL`` the session was waiting for.  ``base_url`` is set
    by the unit from the LOCATION before each fetch so relative control
    URLs resolve.
    """

    sdp_id = "upnp"
    syntax = "xml"

    def __init__(self) -> None:
        super().__init__()
        self.base_url = ""

    def parse(self, raw: bytes, meta: NetworkMeta) -> list[Event]:
        try:
            description = parse_device_description(raw)
        except DescriptionError as exc:
            raise ParseError(str(exc)) from exc
        events: list[Event] = [
            Event.of(
                SDP_SERVICE_TYPE,
                type=description.device_type,
                normalized=normalize_service_type(description.device_type),
            )
        ]
        attributes = {
            "major": "1",
            "minor": "0",
            "friendlyName": description.friendly_name,
            "manufacturer": description.manufacturer,
            "manufacturerURL": description.manufacturer_url,
            "modelDescription": description.model_description,
            "modelName": description.model_name,
            "modelNumber": description.model_number,
            "modelURL": description.model_url,
        }
        for name, value in attributes.items():
            if value:
                events.append(Event.of(SDP_RES_ATTR, name=name, value=value))
        if description.services:
            service = description.services[0]
            control = join_url(self.base_url, service.control_url) if self.base_url else (
                service.control_url
            )
            events.append(Event.of(SDP_RES_SERV_URL, url=control))
        return bracket(events, sdp="upnp", function="DESCRIPTION")


class UpnpEventComposer(SdpComposer):
    """Semantic event streams -> SSDP wire messages."""

    sdp_id = "upnp"
    extra_understood = frozenset(
        {SDP_DEVICE_URL_DESC, SDP_DEVICE_USN, SDP_DEVICE_MAX_AGE, SDP_DEVICE_SERVER, SDP_RES_ATTR}
    )

    def compose(self, events: list[Event], session: TranslationSession) -> list[OutboundMessage]:
        kept = self.filter_stream(events)
        kinds = {event.type for event in kept}
        if SDP_SERVICE_REQUEST in kinds:
            return [self._compose_msearch(kept, session)]
        if SDP_SERVICE_RESPONSE in kinds:
            return [self._compose_search_response(kept, session)]
        if SDP_SERVICE_ALIVE in kinds:
            return [self._compose_alive(kept, session)]
        raise ComposeError("stream carries no UPnP-composable function")

    def _compose_msearch(self, events: list[Event], session: TranslationSession) -> OutboundMessage:
        service_type = ""
        for event in events:
            if event.type is SDP_SERVICE_TYPE:
                service_type = str(event.get("normalized") or event.get("type", ""))
        if not service_type:
            raise ComposeError("request stream has no SDP_SERVICE_TYPE")
        st = upnp_device_type(service_type)
        # Forwarded requests spend one hop per gateway traversal.
        hops = session.vars.get("hops")
        payload, message = seeded_msearch(
            st, mx_s=0, hops=None if hops is None else int(hops) - 1
        )
        return OutboundMessage(
            payload=payload,
            destination=Endpoint(SSDP_GROUP, SSDP_PORT),
            label="msearch",
            decode_hint=(SSDP_MEMO_KEY, message),
        )

    def _compose_search_response(
        self, events: list[Event], session: TranslationSession
    ) -> OutboundMessage:
        location = str(session.vars.get("export_location", ""))
        if not location:
            raise ComposeError("no exported description location recorded in session")
        st = str(session.vars.get("st", ""))
        usn = str(session.vars.get("usn", f"uuid:indiss-{session.session_id}::{st}"))
        ttl = 1800
        for event in events:
            if event.type is SDP_RES_TTL:
                ttl = int(event.get("seconds", ttl))
        if session.requester is None:
            raise ComposeError("session has no requester to answer")
        payload, message = seeded_search_response(
            st=st, usn=usn, location=location, server=SERVER_STRING, max_age_s=ttl
        )
        return OutboundMessage(
            payload=payload,
            destination=session.requester,
            label="ssdp-response",
            decode_hint=(SSDP_MEMO_KEY, message),
        )

    def _compose_alive(self, events: list[Event], session: TranslationSession) -> OutboundMessage:
        location = str(session.vars.get("export_location", ""))
        nt = str(session.vars.get("st", ""))
        usn = str(session.vars.get("usn", f"uuid:indiss-{session.session_id}::{nt}"))
        payload, message = seeded_notify_alive(nt=nt, usn=usn, location=location)
        return OutboundMessage(
            payload=payload,
            destination=Endpoint(SSDP_GROUP, SSDP_PORT),
            label="notify-alive",
            decode_hint=(SSDP_MEMO_KEY, message),
        )


#: Per-session documents one exporter keeps serving: the newest ones,
#: since a client fetches a LOCATION right after the answer carrying it.
EXPORTED_DOCUMENTS = 64


class DescriptionExporter:
    """HTTP server publishing synthesized descriptions for translated
    services, so native UPnP clients can dereference LOCATION."""

    def __init__(self, runtime: UnitRuntime, port: int = 4104):
        self.runtime = runtime
        self.port = port
        #: ``(record, path, session)`` of each served document, by path;
        #: :meth:`document` renders one when a client fetches it, since
        #: most exported LOCATIONs are never dereferenced.  A plain memo,
        #: not ``Network.memo``: serving must not switch off with
        #: ``parse_once``.
        self._documents = Memo(EXPORTED_DOCUMENTS)
        #: The same for advertised records, whose NOTIFYs repeat one
        #: LOCATION for the whole run (see :meth:`export_advertised`).
        self._advertised: dict[str, tuple[ServiceRecord, str, str]] = {}
        self._listener = runtime.node.tcp.listen(port, self._on_connection)
        self.serves = 0

    def close(self) -> None:
        self._listener.close()

    def export(self, record: ServiceRecord, session_id: int) -> str:
        """Publish a description for ``record``; returns its LOCATION URL."""
        return self._publish(self._documents.remember, record, session_id)

    def export_advertised(self, record: ServiceRecord, session_id: int) -> str:
        """:meth:`export`, served for the rest of the run."""
        return self._publish(self._advertised.__setitem__, record, session_id)

    def _publish(self, store, record: ServiceRecord, session_id: int) -> str:
        path = f"/translated/{record.service_type}-{session_id}/description.xml"
        store(path, (record, path, str(session_id)))
        return f"http://{self.runtime.address}:{self.port}{path}"

    def document(self, path: str) -> bytes | None:
        """The description document served at ``path``, or None."""
        entry = self._documents.get(path) or self._advertised.get(path)
        return None if entry is None else self._render(*entry)

    @staticmethod
    def _render(record: ServiceRecord, path: str, session: str) -> bytes:
        """The description document of ``record`` exported at ``path``."""
        description = DeviceDescription(
            device_type=upnp_device_type(record.service_type),
            friendly_name=record.attributes.get(
                "friendlyName", f"INDISS {record.service_type}"
            ),
            udn=f"uuid:indiss-{record.service_type}-{session}",
            manufacturer=record.attributes.get("manufacturer", "INDISS"),
            model_name=record.attributes.get("modelName", record.service_type),
            model_description=record.attributes.get("modelDescription", ""),
            services=[
                ServiceDescription(
                    service_type=f"urn:schemas-upnp-org:service:{record.service_type}:1",
                    service_id=f"urn:upnp-org:serviceId:{record.service_type}:1",
                    scpd_url=f"{path.rsplit('/', 1)[0]}/scpd.xml",
                    control_url=_strip_scheme_to_path(record.url),
                    event_sub_url=f"{path.rsplit('/', 1)[0]}/event",
                )
            ],
        )
        return description.to_xml().encode("utf-8")

    def _on_connection(self, connection) -> None:
        parser = HttpStreamParser()

        def handle_data(chunk: bytes) -> None:
            for message in parser.feed(chunk):
                if not isinstance(message, HttpRequest):
                    continue
                path = message.target.split("?")[0]
                document = self.document(path)
                if document is None:
                    connection.send(HttpResponse(status=404, reason="Not Found").render())
                    continue
                self.serves += 1
                response = HttpResponse(
                    status=200,
                    headers=Headers(
                        [
                            ("CONTENT-TYPE", 'text/xml; charset="utf-8"'),
                            ("CONTENT-LENGTH", str(len(document))),
                        ]
                    ),
                    body=document,
                )
                connection.send(response.render())

        connection.on_data(handle_data)


def _strip_scheme_to_path(url: str) -> str:
    """Keep the full URL when absolute; UPnP allows absolute control URLs."""
    return url


# Built once per process: a definition is never mutated once built, and
# every StateMachine over it binds its own actions by name.
@functools.cache
def _target_fsm() -> StateMachineDefinition:
    """Per-session coordination for UPnP-as-target (Fig. 4 steps 2-3)."""
    definition = StateMachineDefinition("upnp-target", "idle")
    definition.add_tuple(
        "idle", SDP_SERVICE_REQUEST, None, "searching", ["record_type", "send_msearch"]
    )
    # The SSDP response names the description document, not the service URL:
    # recurse with an HTTP GET (the paper's "additional UPnP requests").
    definition.add_tuple(
        "searching",
        SDP_DEVICE_URL_DESC,
        'exists(data.url) and data.url != ""',
        "fetching_description",
        ["record_location", "send_get_description"],
    )
    definition.add_tuple("fetching_description", SDP_RES_ATTR, None, "fetching_description",
                         ["record_attr"])
    definition.add_tuple(
        "fetching_description", SDP_RES_SERV_URL, None, "described", ["record_url"]
    )
    definition.add_tuple("described", SDP_RES_ATTR, None, "described", ["record_attr"])
    definition.add_tuple("described", SDP_C_STOP, None, "done", ["complete"])
    definition.accept("done")
    return definition


class UpnpUnit(Unit):
    """The UPnP unit (paper Table 2 lists it at 125 KB / 18 classes)."""

    sdp_id = "upnp"

    def __init__(
        self,
        runtime: UnitRuntime,
        wait_us: int = 100_000,
        exporter_port: int = 4104,
        responder_delay_us: tuple[int, int] = (0, 0),
        seed: int = 0,
    ):
        super().__init__(
            runtime,
            parsers={"ssdp": SsdpEventParser(), "xml": XmlDescriptionParser()},
            composer=UpnpEventComposer(),
            default_syntax="ssdp",
        )
        self._wait_us = wait_us
        self.exporter = DescriptionExporter(runtime, port=exporter_port)
        #: SSDP responder jitter window applied to *remote* requesters, per
        #: the SSDP MX semantics; loopback requesters are answered
        #: immediately (no response-implosion risk on the local host), which
        #: is what makes the paper's Fig. 9b best case possible.
        self._responder_delay_us = responder_delay_us
        self._rng = random.Random(seed)
        #: Ids of the sessions whose M-SEARCH awaits a response, oldest first.
        self._sessions_awaiting_ssdp: list[int] = []
        self._resolved_locations: set[str] = set()
        #: Encode-once NOTIFY cache for re-advertised records, keyed by
        #: record identity: (service_type, url) -> (attribute fingerprint,
        #: composed OutboundMessage).  A record the pipeline re-announces
        #: every native alive period reuses the same exported description,
        #: payload bytes, and decode hint instead of rebuilding them all.
        #: Not a Memo: a miss draws a session id, so switching it off with
        #: ``parse_once=False`` would shift every later session id.
        self._advert_cache: dict[tuple[str, str], tuple[tuple, object]] = {}

    # -- target side: foreign request -> native M-SEARCH (+ GET) -----------------

    def handle_foreign_request(self, stream: list[Event], session: TranslationSession) -> None:
        machine = StateMachine(_target_fsm())
        machine.bind_action("record_type", lambda e, m: None)
        machine.bind_action("send_msearch", lambda e, m: self._send_msearch(session))
        machine.bind_action(
            "record_location", lambda e, m: session.vars.update(location=e.get("url"))
        )
        machine.bind_action(
            "send_get_description", lambda e, m: self._send_get_description(session)
        )
        machine.bind_action("record_url", lambda e, m: session.vars.update(url=e.get("url")))
        machine.bind_action(
            "record_attr",
            lambda e, m: session.vars.setdefault("attrs", {}).update(
                {str(e.get("name")): str(e.get("value"))}
            ),
        )
        machine.bind_action("complete", lambda e, m: self._complete(session))
        sid = session.session_id
        self.sessions[sid] = SessionEntry(session, machine)

        for event in stream:
            if event.type is SDP_SERVICE_TYPE:
                session.vars["service_type"] = str(
                    event.get("normalized") or event.get("type", "")
                )
        delay = self.runtime.timings.parse_us + self.runtime.timings.dispatch_us
        self._after(sid, delay, lambda entry: entry.machine.feed_all(stream))
        self._after(sid, self._wait_us + delay, self._timeout)

    def _send_msearch(self, session: TranslationSession) -> None:
        messages = self.composer.compose(session.request_stream, session)
        session.log("upnp-unit: composed M-SEARCH for "
                    f"{session.vars.get('service_type', '?')}")
        self._sessions_awaiting_ssdp.append(session.session_id)

        def transmit() -> None:
            for message in messages:
                if message.decode_hint is not None:
                    self.parse_counter.note_seed()
                self.runtime.send_udp(
                    message.payload, message.destination,
                    decode_hint=message.decode_hint,
                )

        self.runtime.schedule(self.runtime.timings.compose_us, transmit)

    def _on_native_datagram(self, raw: bytes, meta: NetworkMeta) -> None:
        """Unicast SSDP search responses to our own M-SEARCHes."""
        stream = self.parse_raw(raw, meta)
        if stream is None or not self._sessions_awaiting_ssdp:
            return
        # Deliver to the oldest session still waiting for an SSDP response.
        sid = self._sessions_awaiting_ssdp.pop(0)
        self.sessions[sid].session.log(
            "upnp-unit: SSDP response parsed (no SDP_RES_SERV_URL yet, need description)"
        )
        self._after(
            sid, self.runtime.timings.parse_us, lambda entry: entry.machine.feed_all(stream)
        )

    def _send_get_description(self, session: TranslationSession) -> None:
        location = str(session.vars.get("location", ""))
        session.log(f"upnp-unit: GET {location} (recursive request)")
        xml_parser: XmlDescriptionParser = self.parsers["xml"]  # type: ignore[assignment]
        xml_parser.base_url = location
        sid = session.session_id

        def handle_response(response: HttpResponse) -> None:
            raw = response.render()
            stream = self.parse_raw(raw, NetworkMeta(transport="tcp"))
            # A description that arrives after the session ended is dropped.
            entry = self.sessions.get(sid)
            if stream is None or entry is None:
                return
            entry.session.log("upnp-unit: SDP_C_PARSER_SWITCH -> xml parser")
            delay = self.runtime.timings.parse_us + self.runtime.timings.xml_parse_us
            self._after(sid, delay, lambda entry: entry.machine.feed_all(stream))

        self.runtime.http("GET", location, on_response=handle_response)

    def _complete(self, session: TranslationSession) -> None:
        events = [
            Event.of(SDP_NET_UNICAST),
            Event.of(SDP_SERVICE_RESPONSE),
            Event.of(SDP_RES_OK),
            Event.of(
                SDP_SERVICE_TYPE,
                type=session.vars.get("service_type", ""),
                normalized=session.vars.get("service_type", ""),
            ),
            Event.of(SDP_RES_TTL, seconds=1800),
            Event.of(SDP_RES_SERV_URL, url=session.vars.get("url", "")),
            Event.of(SDP_DEVICE_URL_DESC, url=session.vars.get("location", "")),
        ]
        for name, value in session.vars.get("attrs", {}).items():
            events.append(Event.of(SDP_RES_ATTR, name=name, value=value))
        session.vars["answered_by"] = "upnp"
        session.log("upnp-unit: emitting SDP_RES_SERV_URL reply stream")
        self._finish(session, bracket(events, sdp="upnp"))

    def _timeout(self, entry: SessionEntry) -> None:
        session = entry.session
        session.log("upnp-unit: search timed out with no device response")
        reply = bracket([Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_OK)], sdp="upnp")
        if entry.machine.state == "fetching_description":
            # The description GET cannot be recalled: give up, but stay
            # joined so a description that still arrives while the session
            # is open answers it.
            session.complete_with(reply)
            return
        self._finish(session, reply)

    def release(self, session: TranslationSession) -> None:
        super().release(session)
        if session.session_id in self._sessions_awaiting_ssdp:
            self._sessions_awaiting_ssdp.remove(session.session_id)

    # -- origin side: reply composed back to the native UPnP requester ------------

    def compose_reply(self, stream: list[Event], session: TranslationSession) -> None:
        from .records import record_from_stream

        record = record_from_stream(stream, source_sdp=session.vars.get("source_sdp", ""))
        if record is None:
            session.log("upnp-unit: nothing discovered; no SSDP response sent")
            return
        session.vars["export_location"] = self.exporter.export(record, session.session_id)
        session.vars.setdefault("st", upnp_device_type(record.service_type or "service"))
        messages = self.composer.compose(stream, session)
        session.log("upnp-unit: composed SSDP 200 OK with exported LOCATION")

        delay = self.runtime.timings.compose_us + self._sample_responder_delay(session)

        def transmit() -> None:
            for message in messages:
                if message.decode_hint is not None:
                    self.parse_counter.note_seed()
                self.runtime.send_udp_from_new_socket(
                    message.payload, message.destination,
                    decode_hint=message.decode_hint,
                )

        self.runtime.schedule(delay, transmit)

    def _sample_responder_delay(self, session: TranslationSession) -> int:
        requester = session.requester
        if requester is not None and requester.host == self.runtime.address:
            return 0  # loopback requester: no implosion risk, answer at once
        low, high = self._responder_delay_us
        if high <= 0:
            return 0
        return self._rng.randint(low, max(low, high))

    # -- advertisement resolution (NOTIFY -> full record) ---------------------------

    def resolve_advertisement(self, stream: list[Event], on_record) -> None:
        """A NOTIFY names only the description document; fetch and parse it
        to produce a complete service record (control URL + attributes)."""
        location = ""
        service_type = ""
        ttl = 1800
        for event in stream:
            if event.type is SDP_DEVICE_URL_DESC:
                location = str(event.get("url", ""))
            elif event.type is SDP_SERVICE_TYPE:
                candidate = str(event.get("normalized") or "")
                if candidate and not candidate.startswith(("uuid", "rootdevice")):
                    service_type = candidate
            elif event.type is SDP_RES_TTL:
                ttl = int(event.get("seconds", ttl))
        if not location:
            return
        if location in self._resolved_locations:
            return  # already resolved recently; the cache entry is fresh
        self._resolved_locations.add(location)
        xml_parser: XmlDescriptionParser = self.parsers["xml"]  # type: ignore[assignment]

        def handle_response(response: HttpResponse) -> None:
            xml_parser.base_url = location
            stream2 = xml_parser.try_parse(response.body, NetworkMeta(transport="tcp"))
            if stream2 is None:
                self._resolved_locations.discard(location)
                return
            from .records import record_from_stream

            enriched = list(stream2)
            if not any(event.type is SDP_SERVICE_TYPE for event in enriched):
                enriched.append(
                    Event.of(SDP_SERVICE_TYPE, type=service_type, normalized=service_type)
                )
            # Stamp the description URL on the record: later alive NOTIFYs
            # for the same location refresh the cached entries' TTL
            # without re-fetching the description.
            if not any(event.type is SDP_DEVICE_URL_DESC for event in enriched):
                enriched.append(Event.of(SDP_DEVICE_URL_DESC, url=location))
            enriched.append(Event.of(SDP_RES_TTL, seconds=ttl))
            record = record_from_stream(enriched, source_sdp="upnp")
            if record is not None:
                on_record(record)

        def handle_error(error: Exception) -> None:
            self._resolved_locations.discard(location)

        self.runtime.http("GET", location, on_response=handle_response, on_error=handle_error)

    # -- active advertisement (Fig. 6 bottom) --------------------------------------

    def advertise_record(self, record: ServiceRecord) -> None:
        # Encode-once: the pipeline re-announces the same record every time
        # the native advertisement is re-heard; identical records reuse the
        # cached NOTIFY (and its exported description) instead of exporting
        # a fresh document and rebuilding identical bytes per repeat.
        key = (record.service_type, record.url)
        fingerprint = (tuple(sorted(record.attributes.items())), record.lifetime_s)
        cached = self._advert_cache.get(key)
        if cached is not None and cached[0] == fingerprint:
            message = cached[1]
        else:
            node = self.runtime.node
            session = TranslationSession(  # the export path needs a unique id
                "upnp", None, session_id=node.network.session_id_source(node)()
            )
            session.vars["export_location"] = self.exporter.export_advertised(
                record, session.session_id
            )
            session.vars["st"] = upnp_device_type(record.service_type or "service")
            events = bracket(
                [
                    Event.of(SDP_SERVICE_ALIVE),
                    Event.of(SDP_SERVICE_TYPE, type=record.service_type,
                             normalized=record.service_type),
                    Event.of(SDP_RES_TTL, seconds=record.lifetime_s),
                ],
                sdp="upnp",
            )
            message = self.composer.compose(events, session)[0]
            self._advert_cache[key] = (fingerprint, message)
        if message.decode_hint is not None:
            self.parse_counter.note_seed()
        self.runtime.send_udp_from_new_socket(
            message.payload, message.destination, decode_hint=message.decode_hint
        )


__all__ = [
    "UpnpUnit",
    "SsdpEventParser",
    "XmlDescriptionParser",
    "UpnpEventComposer",
    "DescriptionExporter",
]
