"""The Jini unit (paper Fig. 5: ``Component Unit JINI(port=4160)``).

Jini is repository-based, so the unit plays two roles:

* **toward Jini services** (foreign request -> Jini): discover a registrar
  (from its multicast announcements, seen via the monitor, or actively) and
  run a unicast lookup; the matching item's endpoint URL completes the
  session;
* **toward Jini clients** (foreign services -> Jini): run an *embedded
  registrar* whose registry mirrors the INDISS service cache, so native
  Jini clients discover INDISS like any lookup service and see translated
  foreign services as ordinary service items.
"""

from __future__ import annotations

from typing import Optional

from ..core.composer import ComposeError, OutboundMessage, SdpComposer
from ..core.events import (
    Event,
    SDP_JINI_GROUPS,
    SDP_JINI_REGISTRAR,
    SDP_JINI_SERVICE_ID,
    SDP_NET_MULTICAST,
    SDP_NET_SOURCE_ADDR,
    SDP_NET_TYPE,
    SDP_NET_UNICAST,
    SDP_RES_ATTR,
    SDP_RES_OK,
    SDP_RES_SERV_URL,
    SDP_RES_TTL,
    SDP_SERVICE_ALIVE,
    SDP_SERVICE_RESPONSE,
    SDP_SERVICE_TYPE,
    bracket,
)
from ..core.parser import NetworkMeta, ParseError, SdpParser
from ..core.cache import ServiceCache
from ..core.session import TranslationSession
from ..core.unit import Unit, UnitRuntime
from ..sdp.base import jini_class_name
from ..sdp.jini import (
    LookupService,
    MulticastAnnouncement,
    MulticastRequest,
    RegistrarClient,
    RegistrarInfo,
    ServiceItem,
    ServiceTemplate,
    decode_packet_shared,
)


class JiniEventParser(SdpParser):
    """Jini discovery packets -> semantic event streams."""

    sdp_id = "jini"
    syntax = "jini"

    def parse(self, raw: bytes, meta: NetworkMeta) -> list[Event]:
        # Parse-once: registrars seed their announcements at send time and
        # co-segment listeners store their decode, so the codec reader
        # usually never runs here (see decode_packet_shared).
        memo = getattr(meta, "memo", None)
        packet = decode_packet_shared(raw, memo, self.parse_counter)
        if packet is None:
            raise ParseError("not a Jini discovery packet")
        events: list[Event] = []
        events.append(
            Event.of(SDP_NET_MULTICAST) if meta.multicast else Event.of(SDP_NET_UNICAST)
        )
        if meta.source is not None:
            events.append(
                Event.of(SDP_NET_SOURCE_ADDR, host=meta.source.host, port=meta.source.port)
            )
        events.append(Event.of(SDP_NET_TYPE, sdp="jini"))
        if isinstance(packet, MulticastRequest):
            # A request for *registrars*: the unit-level equivalent of a
            # service request is handled by the embedded registrar, so the
            # stream only records the sighting.
            events.append(
                Event.of(
                    SDP_JINI_GROUPS, groups=",".join(packet.groups),
                )
            )
            function = "MULTICAST-REQUEST"
        elif isinstance(packet, MulticastAnnouncement):
            events.append(Event.of(SDP_SERVICE_ALIVE))
            events.append(
                Event.of(SDP_JINI_REGISTRAR, host=packet.host, port=packet.port)
            )
            events.append(Event.of(SDP_JINI_SERVICE_ID, service_id=packet.service_id))
            events.append(Event.of(SDP_JINI_GROUPS, groups=",".join(packet.groups)))
            function = "ANNOUNCEMENT"
        else:  # pragma: no cover - decode_packet returns only these two
            raise ParseError("unknown Jini packet")
        return bracket(events, sdp="jini", function=function)


class JiniEventComposer(SdpComposer):
    """Jini composition is TCP-session based; only adverts map to datagrams."""

    sdp_id = "jini"
    extra_understood = frozenset(
        {SDP_JINI_REGISTRAR, SDP_JINI_SERVICE_ID, SDP_JINI_GROUPS, SDP_RES_ATTR}
    )

    def compose(self, events: list[Event], session: TranslationSession) -> list[OutboundMessage]:
        raise ComposeError(
            "Jini messages are composed through the registrar TCP protocol, "
            "not datagrams"
        )


class JiniUnit(Unit):
    """The Jini unit with its embedded cache-backed registrar."""

    sdp_id = "jini"

    def __init__(
        self,
        runtime: UnitRuntime,
        cache: ServiceCache | None = None,
        registrar_port: int = 4171,
        run_registrar: bool = True,
    ):
        super().__init__(
            runtime,
            parsers={"jini": JiniEventParser()},
            composer=JiniEventComposer(),
            default_syntax="jini",
        )
        self.cache = cache
        self.known_registrars: dict[str, RegistrarInfo] = {}
        self.registrar: Optional[LookupService] = None
        if run_registrar:
            self.registrar = LookupService(
                runtime.node, tcp_port=registrar_port, service_id_seed=7000
            )

    # -- environment traffic: learn registrars from announcements ---------------

    def handle_environment_message(self, raw: bytes, meta: NetworkMeta) -> list[Event] | None:
        stream = super().handle_environment_message(raw, meta)
        if stream is None:
            return None
        registrar_host = registrar_port = None
        service_id = ""
        for event in stream:
            if event.type is SDP_JINI_REGISTRAR:
                registrar_host = str(event.get("host"))
                registrar_port = int(event.get("port", 0))
            elif event.type is SDP_JINI_SERVICE_ID:
                service_id = str(event.get("service_id"))
        if registrar_host and service_id:
            if self.registrar is None or service_id != self.registrar.service_id:
                self.known_registrars[service_id] = RegistrarInfo(
                    service_id=service_id,
                    host=registrar_host,
                    port=registrar_port or 0,
                    groups=("",),
                )
        return stream

    # -- target side: foreign request -> Jini lookup ------------------------------

    def handle_foreign_request(self, stream: list[Event], session: TranslationSession) -> None:
        service_type = ""
        for event in stream:
            if event.type is SDP_SERVICE_TYPE:
                service_type = str(event.get("normalized") or event.get("type", ""))

        def give_up(reason: str) -> None:
            # Every target must report back exactly once: an explicit empty
            # give-up lets multi-target sessions (pending_targets) close
            # instead of waiting on a unit that will never answer.
            if session.completed or session.vars.get("jini_gave_up"):
                return
            session.vars["jini_gave_up"] = True
            session.log(f"jini-unit: {reason}; giving up")
            session.complete_with(
                bracket(
                    [Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_OK)], sdp="jini"
                )
            )

        foreign_registrars = [
            info
            for info in self.known_registrars.values()
            if self.registrar is None or info.service_id != self.registrar.service_id
        ]
        if not foreign_registrars or not service_type:
            give_up("no foreign registrar known (or no service type)")
            return
        registrar = foreign_registrars[0]
        template = ServiceTemplate(class_names=(jini_class_name(service_type),))
        session.log(f"jini-unit: lookup {template.class_names[0]} at {registrar.host}")

        def on_items(items: list[ServiceItem]) -> None:
            if session.completed:
                return
            if not items:
                give_up("registrar lookup matched nothing")
                return
            item = items[0]
            session.vars["answered_by"] = "jini"
            events = [
                Event.of(SDP_NET_UNICAST),
                Event.of(SDP_SERVICE_RESPONSE),
                Event.of(SDP_RES_OK),
                Event.of(SDP_SERVICE_TYPE, type=service_type, normalized=service_type),
                Event.of(SDP_RES_TTL, seconds=1800),
                Event.of(SDP_RES_SERV_URL, url=item.endpoint_url),
            ]
            for name, value in item.attributes.items():
                events.append(Event.of(SDP_RES_ATTR, name=name, value=value))
            session.log("jini-unit: lookup answered, completing session")
            session.complete_with(bracket(events, sdp="jini"))

        client = RegistrarClient(self.runtime.node, registrar)
        self.runtime.schedule(
            self.runtime.timings.compose_us,
            lambda: client.lookup(
                template,
                on_items,
                on_error=lambda exc: give_up(f"registrar unreachable ({exc})"),
            ),
        )

    # -- origin side: Jini clients are served by the embedded registrar -------------

    def compose_reply(self, stream: list[Event], session: TranslationSession) -> None:
        # Native Jini clients never wait on a datagram reply; they query the
        # embedded registrar, which the cache mirror below keeps current.
        self.sync_registrar_from_cache()

    def advertise_record(self, record) -> None:
        """Mirror one foreign record into the embedded registrar."""
        if self.registrar is None:
            return
        item = ServiceItem(
            service_id=f"indiss-{record.service_type}-{abs(hash(record.url)) % 10_000}",
            class_names=(jini_class_name(record.service_type),),
            attributes=dict(record.attributes),
            endpoint_url=record.url,
        )
        self.registrar.registry[item.service_id] = item

    def sync_registrar_from_cache(self) -> int:
        """Mirror every cached foreign record into the embedded registrar."""
        if self.registrar is None or self.cache is None:
            return 0
        count = 0
        for record in self.cache.lookup_any():
            if record.source_sdp == "jini":
                continue
            self.advertise_record(record)
            count += 1
        return count

    def _on_native_datagram(self, raw: bytes, meta: NetworkMeta) -> None:
        # Jini replies arrive over TCP inside RegistrarClient; the runtime
        # socket sees no unicast datagrams.
        return


__all__ = ["JiniUnit", "JiniEventParser", "JiniEventComposer"]
