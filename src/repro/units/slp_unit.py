"""The SLP unit: SLP parser, composer, and coordination FSM (paper §2.4).

Parsing an SLP search request produces exactly the Fig. 4 step-1 stream::

    SDP_C_START, SDP_NET_MULTICAST, SDP_NET_SOURCE_ADDR,
    SDP_SERVICE_REQUEST, SDP_REQ_VERSION, SDP_REQ_SCOPE,
    SDP_REQ_PREDICATE, SDP_REQ_ID, SDP_SERVICE_TYPE, SDP_C_STOP

where the ``SDP_REQ_*`` events are SLP-specific and will be discarded by
composers that do not understand them.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..core.composer import ComposeError, OutboundMessage, SdpComposer
from ..core.events import (
    Event,
    SDP_C_STOP,
    SDP_NET_MULTICAST,
    SDP_NET_SOURCE_ADDR,
    SDP_NET_TYPE,
    SDP_NET_UNICAST,
    SDP_REQ_HOPS,
    SDP_REQ_ID,
    SDP_REQ_LANG,
    SDP_REQ_PREDICATE,
    SDP_REQ_SCOPE,
    SDP_REQ_VERSION,
    SDP_REG_SCOPE,
    SDP_RES_ATTR,
    SDP_RES_ERR,
    SDP_RES_OK,
    SDP_RES_SERV_URL,
    SDP_RES_TTL,
    SDP_SERVICE_ALIVE,
    SDP_SERVICE_ATTR,
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
from ..net import Endpoint, Memo, shared_decode
from ..sdp.base import normalize_service_type, slp_service_type
from ..sdp.slp.wire import ENCODE_MEMO_SIZE, WIRE_MEMO_KEY, decode_or_none
from ..sdp.slp import (
    AttrRply,
    AttrRqst,
    DEFAULT_SCOPE,
    ErrorCode,
    Flags,
    FunctionId,
    Header,
    SAAdvert,
    SLP_MULTICAST_GROUP,
    SLP_PORT,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    UrlEntry,
    encode,
    parse_attributes,
    serialize_attributes,
)


#: Pseudo-scope prefix carrying the gateway-forward hop budget in SLP
#: requests (SLP has no extension header support in this reproduction's
#: wire codec; scope matching is set-intersection, so an extra scope is
#: invisible to native agents).
HOP_SCOPE_PREFIX = "x-indiss-hops-"

#: How long the recursive AttrRqst may stall a session.  It is a unicast
#: round trip to a responder that just answered, so a reply takes
#: milliseconds; no reply at all means the responder serves no attributes
#: (e.g. another INDISS gateway up a chain) and the session completes with
#: the URLs it already has.
ATTR_WAIT_US = 30_000


def hop_scope(hops: int) -> str:
    """Render a hop budget as an SLP pseudo-scope."""
    return f"{HOP_SCOPE_PREFIX}{max(hops, 0)}"


def split_hop_scope(scopes) -> tuple[list[str], Optional[int]]:
    """Separate real scopes from the hop pseudo-scope (None when absent)."""
    real: list[str] = []
    hops: Optional[int] = None
    for scope in scopes:
        lowered = scope.lower()
        if lowered.startswith(HOP_SCOPE_PREFIX):
            try:
                hops = int(lowered[len(HOP_SCOPE_PREFIX):])
            except ValueError:
                real.append(scope)
        else:
            real.append(scope)
    return real, hops


class SlpEventParser(SdpParser):
    """SLP wire messages -> semantic event streams."""

    sdp_id = "slp"
    syntax = "slp"

    def parse(self, raw: bytes, meta: NetworkMeta) -> list[Event]:
        # The frame's memo usually already holds the decoded message: SLP
        # senders seed it at send time, and any native endpoint that heard
        # the frame first stored its decode.  Only truly foreign bytes are
        # decoded here.
        message = shared_decode(
            getattr(meta, "memo", None), WIRE_MEMO_KEY, raw, decode_or_none,
            self.parse_counter,
        )
        if message is None:
            raise ParseError("not an SLP message")

        events: list[Event] = []
        events.append(
            Event.of(SDP_NET_MULTICAST) if meta.multicast else Event.of(SDP_NET_UNICAST)
        )
        if meta.source is not None:
            events.append(
                Event.of(SDP_NET_SOURCE_ADDR, host=meta.source.host, port=meta.source.port)
            )
        events.append(Event.of(SDP_NET_TYPE, sdp="slp"))

        if isinstance(message, SrvRqst):
            events.extend(self._parse_request(message))
        elif isinstance(message, SrvRply):
            events.extend(self._parse_reply(message))
        elif isinstance(message, AttrRply):
            events.extend(self._parse_attr_reply(message))
        elif isinstance(message, SAAdvert):
            events.extend(self._parse_saadvert(message))
        elif isinstance(message, SrvReg):
            events.extend(self._parse_register(message))
        elif isinstance(message, SrvDeReg):
            events.append(Event.of(SDP_SERVICE_BYEBYE, url=message.url_entry.url))
        else:
            # Remaining SLP traffic (acks, DA adverts...) is not translated.
            raise ParseError(f"{type(message).__name__} is not a translated SLP message")
        return bracket(events, sdp="slp", function=message.header.function_id.name)

    def _parse_attr_reply(self, message: AttrRply) -> list[Event]:
        events: list[Event] = [Event.of(SDP_REQ_ID, xid=message.header.xid)]
        if message.error_code is ErrorCode.OK:
            events.append(Event.of(SDP_RES_OK))
        else:
            events.append(Event.of(SDP_RES_ERR, code=int(message.error_code)))
        for name, value in parse_attributes(message.attr_list).items():
            events.append(Event.of(SDP_RES_ATTR, name=name, value=_attr_text(value)))
        return events

    def _parse_request(self, message: SrvRqst) -> list[Event]:
        # Order mirrors the paper's Fig. 4, step 1.
        raw_type = message.service_type
        scopes, hops = split_hop_scope(message.scopes)
        events = [
            Event.of(SDP_SERVICE_REQUEST),
            Event.of(SDP_REQ_VERSION, version=2),
            Event.of(SDP_REQ_SCOPE, scopes=",".join(scopes)),
            Event.of(SDP_REQ_PREDICATE, predicate=message.predicate),
            Event.of(SDP_REQ_ID, xid=message.header.xid),
            Event.of(SDP_REQ_LANG, lang=message.header.language_tag),
            Event.of(
                SDP_SERVICE_TYPE,
                type=raw_type,
                normalized=normalize_service_type(raw_type),
            ),
        ]
        if hops is not None:
            events.append(Event.of(SDP_REQ_HOPS, hops=hops))
        return events

    def _parse_reply(self, message: SrvRply) -> list[Event]:
        events: list[Event] = [Event.of(SDP_SERVICE_RESPONSE)]
        if message.error_code is ErrorCode.OK:
            events.append(Event.of(SDP_RES_OK))
        else:
            events.append(Event.of(SDP_RES_ERR, code=int(message.error_code)))
        events.append(Event.of(SDP_REQ_ID, xid=message.header.xid))
        for entry in message.url_entries:
            events.append(Event.of(SDP_RES_TTL, seconds=entry.lifetime_s))
            events.append(Event.of(SDP_RES_SERV_URL, url=entry.url))
        return events

    def _parse_saadvert(self, message: SAAdvert) -> list[Event]:
        events = [
            Event.of(SDP_SERVICE_ALIVE),
            Event.of(
                SDP_SERVICE_TYPE,
                type=message.url.split("//", 1)[0].rstrip(":"),
                normalized=normalize_service_type(message.url.split("//", 1)[0].rstrip(":")),
            ),
            Event.of(SDP_RES_SERV_URL, url=message.url),
        ]
        for name, value in parse_attributes(message.attr_list).items():
            events.append(Event.of(SDP_RES_ATTR, name=name, value=_attr_text(value)))
        return events

    def _parse_register(self, message: SrvReg) -> list[Event]:
        events = [
            Event.of(SDP_SERVICE_ALIVE),
            Event.of(
                SDP_SERVICE_TYPE,
                type=message.service_type,
                normalized=normalize_service_type(message.service_type),
            ),
            Event.of(SDP_RES_TTL, seconds=message.url_entry.lifetime_s),
            Event.of(SDP_RES_SERV_URL, url=message.url_entry.url),
            Event.of(SDP_REG_SCOPE, scopes=",".join(message.scopes)),
        ]
        for name, value in parse_attributes(message.attr_list).items():
            events.append(Event.of(SDP_SERVICE_ATTR, name=name, value=_attr_text(value)))
        return events


def _attr_text(value) -> str:
    if value is True:
        return "true"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


class SlpEventComposer(SdpComposer):
    """Semantic event streams -> SLP wire messages."""

    sdp_id = "slp"
    extra_understood = frozenset(
        {SDP_REQ_VERSION, SDP_REQ_SCOPE, SDP_REQ_PREDICATE, SDP_REQ_ID, SDP_RES_ATTR,
         SDP_REG_SCOPE}
    )

    def __init__(self, memo: Memo | None = None) -> None:
        super().__init__()
        #: Encode-once pieces for the requests and replies this composer
        #: renders (see :func:`repro.sdp.slp.wire.encode`).
        self._memo = memo

    def compose(self, events: list[Event], session: TranslationSession) -> list[OutboundMessage]:
        kept = self.filter_stream(events)
        kinds = {event.type for event in kept}
        if SDP_SERVICE_REQUEST in kinds:
            return [self._compose_request(kept, session)]
        if SDP_SERVICE_RESPONSE in kinds:
            return [self._compose_reply(kept, session)]
        if SDP_SERVICE_ALIVE in kinds:
            return [self._compose_advert(kept)]
        raise ComposeError("stream carries no SLP-composable function")

    def _compose_request(self, events: list[Event], session: TranslationSession) -> OutboundMessage:
        service_type = ""
        for event in events:
            if event.type is SDP_SERVICE_TYPE:
                service_type = str(event.get("normalized") or event.get("type", ""))
        if not service_type:
            raise ComposeError("request stream has no SDP_SERVICE_TYPE")
        xid = int(session.vars.get("native_xid", 1))
        scopes: tuple[str, ...] = (DEFAULT_SCOPE,)
        hops = session.vars.get("hops")
        if hops is not None:
            # Forwarded requests spend one hop per gateway traversal.  SLP
            # scope matching is set-intersection, so native SAs ignore the
            # extra pseudo-scope while the next gateway's parser reads it.
            scopes = (DEFAULT_SCOPE, hop_scope(int(hops) - 1))
        request = SrvRqst(
            header=Header(FunctionId.SRVRQST, xid=xid, flags=Flags.REQUEST_MCAST),
            service_type=slp_service_type(service_type),
            scopes=scopes,
        )
        return OutboundMessage(
            payload=encode(request, self._memo),
            destination=Endpoint(SLP_MULTICAST_GROUP, SLP_PORT),
            label="srvrqst",
            decode_hint=(WIRE_MEMO_KEY, request),
        )

    def _compose_reply(self, events: list[Event], session: TranslationSession) -> OutboundMessage:
        url = ""
        ttl = 3600
        error: Optional[int] = None
        for event in events:
            if event.type is SDP_RES_SERV_URL and not url:
                url = str(event.get("url", ""))
            elif event.type is SDP_RES_TTL:
                ttl = min(int(event.get("seconds", ttl)), 0xFFFF)
            elif event.type is SDP_RES_ERR:
                error = int(event.get("code", 10))
        xid = int(session.vars.get("xid", 0))
        if error is not None:
            reply = SrvRply(
                header=Header(FunctionId.SRVRPLY, xid=xid),
                error_code=ErrorCode(error),
            )
        else:
            slp_url = _slp_url_for(url, session)
            reply = SrvRply(
                header=Header(FunctionId.SRVRPLY, xid=xid),
                url_entries=(UrlEntry(slp_url, ttl),),
            )
        if session.requester is None:
            raise ComposeError("session has no requester to answer")
        return OutboundMessage(
            payload=encode(reply, self._memo),
            destination=session.requester,
            label="srvrply",
            decode_hint=(WIRE_MEMO_KEY, reply),
        )

    def _compose_advert(self, events: list[Event]) -> OutboundMessage:
        url = ""
        service_type = ""
        attributes: dict[str, str] = {}
        for event in events:
            if event.type is SDP_RES_SERV_URL:
                url = str(event.get("url", ""))
            elif event.type is SDP_SERVICE_TYPE:
                service_type = str(event.get("normalized") or event.get("type", ""))
            elif event.type in (SDP_RES_ATTR, SDP_SERVICE_ATTR):
                attributes[str(event.get("name", ""))] = str(event.get("value", ""))
        advert = SAAdvert(
            header=Header(FunctionId.SAADVERT),
            url=_slp_url_from_parts(service_type, url),
            attr_list=serialize_attributes(attributes),
        )
        return OutboundMessage(
            payload=encode(advert),
            destination=Endpoint(SLP_MULTICAST_GROUP, SLP_PORT),
            label="saadvert",
            decode_hint=(WIRE_MEMO_KEY, advert),
        )


def _slp_url_for(url: str, session: TranslationSession) -> str:
    """Render the discovered access URL in SLP's service-URL scheme.

    The paper's Fig. 4 reply is ``service:clock:soap://host:port/path`` —
    the normalized type plus the concrete access protocol and endpoint.
    """
    service_type = str(session.vars.get("service_type", ""))
    return _slp_url_from_parts(service_type, url)


def _slp_url_from_parts(service_type: str, url: str) -> str:
    if url.startswith("service:"):
        return url
    scheme, sep, rest = url.partition("://")
    if not sep:
        return f"service:{service_type}://{url}" if service_type else url
    if scheme == "http":
        scheme = "soap"  # a UPnP control endpoint speaks SOAP over http
    if service_type:
        return f"service:{service_type}:{scheme}://{rest}"
    return f"service:{scheme}://{rest}"


# Built once per process: a definition is never mutated once built, and
# every StateMachine over it binds its own actions by name.
@functools.cache
def _target_fsm() -> StateMachineDefinition:
    """Per-session coordination for SLP-as-target (foreign request -> SLP).

    Like the paper's UPnP-side Fig. 4 process, the unit recurses: the
    ``SrvRply`` only carries the service URL, so a second native request
    (``AttrRqst``) fetches the attributes the foreign reply should carry.
    """
    definition = StateMachineDefinition("slp-target", "idle")
    definition.add_tuple(
        "idle", SDP_SERVICE_REQUEST, None, "requesting", ["record_type", "send_request"]
    )
    definition.add_tuple("requesting", SDP_RES_SERV_URL, None, "replied", ["record_url"])
    definition.add_tuple("requesting", SDP_RES_ERR, None, "failed", ["fail"])
    definition.add_tuple("replied", SDP_RES_SERV_URL, None, "replied", ["record_url"])
    definition.add_tuple("replied", SDP_C_STOP, None, "fetching_attrs", ["send_attr_request"])
    definition.add_tuple("fetching_attrs", SDP_RES_ATTR, None, "fetching_attrs", ["record_attr"])
    definition.add_tuple("fetching_attrs", SDP_C_STOP, None, "done", ["complete"])
    definition.accept("done", "failed")
    return definition


class SlpUnit(Unit):
    """The SLP unit (paper Table 2 lists it at 49 KB / 6 classes)."""

    sdp_id = "slp"

    def __init__(self, runtime: UnitRuntime, wait_us: int = 15_000):
        super().__init__(
            runtime,
            parsers={"slp": SlpEventParser()},
            composer=SlpEventComposer(runtime.node.network.memo(ENCODE_MEMO_SIZE)),
            default_syntax="slp",
        )
        self._wait_us = wait_us
        self._next_xid = 0x4000
        #: Native xid -> id of the session its replies belong to.
        self._sessions_by_xid: dict[int, int] = {}
        #: Directory agent learnt from DAAdverts seen by the monitor; when
        #: present, translated advertisements are also registered there
        #: (the paper's "repository" discovery models, §2).
        self.known_da: Endpoint | None = None
        self.da_registrations = 0

    # -- environment traffic: learn the directory agent ------------------------

    def handle_environment_message(self, raw: bytes, meta: NetworkMeta) -> list[Event] | None:
        # Spotting a DAAdvert only needs the function id — byte 1 of the
        # SLP header — so every non-DAAdvert frame (all of the hot path)
        # skips straight to the shared parse instead of a full wire decode.
        if len(raw) > 1 and raw[1] == int(FunctionId.DAADVERT):
            message = decode_or_none(raw)
            if message is not None and message.header.function_id is FunctionId.DAADVERT:
                if meta.source is not None:
                    self.known_da = Endpoint(meta.source.host, SLP_PORT)
                return None  # DAAdverts configure the unit; not translated
        return super().handle_environment_message(raw, meta)

    # -- target side: foreign request translated into native SLP ------------

    def handle_foreign_request(self, stream: list[Event], session: TranslationSession) -> None:
        machine = StateMachine(self.definition_for_session())
        machine.bind_action("record_type", lambda e, m: None)  # type recorded below
        machine.bind_action("send_request", lambda e, m: self._send_native_request(session))
        machine.bind_action(
            "record_url", lambda e, m: session.vars.setdefault("urls", []).append(e.get("url"))
        )
        machine.bind_action("send_attr_request", lambda e, m: self._send_attr_request(session))
        machine.bind_action(
            "record_attr",
            lambda e, m: session.vars.setdefault("attrs", {}).update(
                {str(e.get("name")): str(e.get("value"))}
            ),
        )
        machine.bind_action("fail", lambda e, m: self._fail(session, e))
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
        # Convergence timeout: complete empty-handed if nothing answers.
        self._after(sid, self._wait_us + delay, self._timeout)

    def definition_for_session(self) -> StateMachineDefinition:
        return _target_fsm()

    def _route_xid(self, session: TranslationSession, key: str) -> int:
        """Draw the next native xid, noted in ``session.vars[key]``."""
        self._next_xid = self._next_xid + 1 if self._next_xid < 0xFFFF else 0x4000
        xid = self._next_xid
        session.vars[key] = xid
        self._sessions_by_xid[xid] = session.session_id
        return xid

    def _send_native_request(self, session: TranslationSession) -> None:
        xid = self._route_xid(session, "native_xid")
        messages = self.composer.compose(session.request_stream, session)
        session.log(f"slp-unit: composed native SrvRqst xid={xid}")
        self.runtime.schedule(
            self.runtime.timings.compose_us,
            lambda: self._send_all(messages, self.runtime.send_udp),
        )

    def _send_all(self, messages, send) -> None:
        """Send composed ``messages`` through ``send``, noting each seed."""
        for message in messages:
            if message.decode_hint is not None:
                self.parse_counter.note_seed()
            send(message.payload, message.destination, decode_hint=message.decode_hint)

    def _send_attr_request(self, session: TranslationSession) -> None:
        """Recursive request: fetch the attributes behind the reply URL."""
        urls = session.vars.get("urls") or []
        if not urls:
            self._complete(session)
            return
        xid = self._route_xid(session, "attr_xid")
        request = AttrRqst(
            header=Header(FunctionId.ATTRRQST, xid=xid),
            url=str(urls[0]),
        )
        responder = session.vars.get("responder")
        destination = (
            Endpoint(responder, SLP_PORT)
            if responder
            else Endpoint(SLP_MULTICAST_GROUP, SLP_PORT)
        )
        session.log(f"slp-unit: composed recursive AttrRqst xid={xid}")
        message = OutboundMessage(
            encode(request), destination, decode_hint=(WIRE_MEMO_KEY, request)
        )
        compose_us = self.runtime.timings.compose_us
        self.runtime.schedule(
            compose_us, lambda: self._send_all([message], self.runtime.send_udp)
        )
        self._after(session.session_id, ATTR_WAIT_US + compose_us, self._attr_timeout)

    def _attr_timeout(self, entry: SessionEntry) -> None:
        """AttrRply never came: finish with the URLs, minus attributes."""
        entry.session.log("slp-unit: AttrRqst unanswered; completing without attributes")
        self._complete(entry.session)

    def _on_native_datagram(self, raw: bytes, meta: NetworkMeta) -> None:
        stream = self.parse_raw(raw, meta)
        if stream is None:
            return
        xid = None
        for event in stream:
            if event.type is SDP_REQ_ID:
                xid = int(event.get("xid", -1))
        sid = self._sessions_by_xid.get(xid) if xid is not None else None
        if sid is None:
            return
        session = self.sessions[sid].session
        if meta.source is not None:
            session.vars["responder"] = meta.source.host
        session.vars.setdefault("ttl", _first_ttl(stream))
        self._after(
            sid, self.runtime.timings.parse_us, lambda entry: entry.machine.feed_all(stream)
        )

    def _complete(self, session: TranslationSession) -> None:
        urls = session.vars.get("urls") or []
        events = [
            Event.of(SDP_NET_UNICAST),
            Event.of(SDP_SERVICE_RESPONSE),
            Event.of(SDP_RES_OK),
            Event.of(
                SDP_SERVICE_TYPE,
                type=session.vars.get("service_type", ""),
                normalized=session.vars.get("service_type", ""),
            ),
            Event.of(SDP_RES_TTL, seconds=session.vars.get("ttl") or 3600),
        ]
        for url in urls:
            events.append(Event.of(SDP_RES_SERV_URL, url=url))
        for name, value in session.vars.get("attrs", {}).items():
            events.append(Event.of(SDP_RES_ATTR, name=name, value=value))
        session.vars["answered_by"] = "slp"
        session.log("slp-unit: native reply parsed, completing session")
        self._finish(session, bracket(events, sdp="slp"))

    def _fail(self, session: TranslationSession, event: Event) -> None:
        self._finish(
            session,
            bracket(
                [Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_ERR, code=event.get("code", 10))],
                sdp="slp",
            ),
        )

    def _timeout(self, entry: SessionEntry) -> None:
        session = entry.session
        if session.vars.get("urls"):
            # The convergence window closed mid-process (typically the
            # recursive AttrRqst went unanswered — e.g. the SrvRply came
            # from another INDISS gateway, which serves no attributes).
            # SLP semantics: return whatever URLs converged.
            session.log("slp-unit: convergence window closed; completing with URLs")
            self._complete(session)
            return
        session.log("slp-unit: native search timed out with no reply")
        self._finish(
            session, bracket([Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_OK)], sdp="slp")
        )

    def release(self, session: TranslationSession) -> None:
        super().release(session)
        for key in ("native_xid", "attr_xid"):
            xid = session.vars.get(key)
            if xid is not None:
                self._sessions_by_xid.pop(xid, None)

    # -- origin side: reply composed back to the native SLP requester ---------

    def compose_reply(self, stream: list[Event], session: TranslationSession) -> None:
        messages = self.composer.compose(stream, session)
        session.log("slp-unit: composed SrvRply to requester")
        self.runtime.schedule(
            self.runtime.timings.compose_us,
            lambda: self._send_all(messages, self.runtime.send_udp_from_new_socket),
        )

    # -- active advertisement (Fig. 6 bottom) -----------------------------------

    def advertise_record(self, record) -> None:
        events = [
            Event.of(SDP_SERVICE_ALIVE),
            Event.of(SDP_SERVICE_TYPE, type=record.service_type, normalized=record.service_type),
            Event.of(SDP_RES_SERV_URL, url=record.url),
        ]
        for name, value in record.attributes.items():
            events.append(Event.of(SDP_RES_ATTR, name=name, value=value))
        session = TranslationSession(origin_sdp="slp", requester=None)
        self._send_all(
            self.composer.compose(bracket(events, sdp="slp"), session),
            self.runtime.send_udp_from_new_socket,
        )
        if self.known_da is not None:
            self._register_with_da(record)

    def _register_with_da(self, record) -> None:
        """Register a translated service with the repository, so clients
        that query the DA (instead of multicasting) also find it."""
        assert self.known_da is not None
        slp_url = _slp_url_from_parts(record.service_type, record.url)
        registration = SrvReg(
            header=Header(FunctionId.SRVREG, xid=0, flags=Flags.FRESH),
            url_entry=UrlEntry(slp_url, min(record.lifetime_s, 0xFFFF)),
            service_type=slp_service_type(record.service_type),
            attr_list=serialize_attributes(record.attributes),
        )
        self.da_registrations += 1
        message = OutboundMessage(
            encode(registration), self.known_da,
            decode_hint=(WIRE_MEMO_KEY, registration),
        )
        self._send_all([message], self.runtime.send_udp_from_new_socket)


def _first_ttl(stream: list[Event]) -> int | None:
    for event in stream:
        if event.type is SDP_RES_TTL:
            return int(event.get("seconds", 0)) or None
    return None


__all__ = [
    "SlpUnit",
    "SlpEventParser",
    "SlpEventComposer",
    "HOP_SCOPE_PREFIX",
    "hop_scope",
    "split_hop_scope",
]
