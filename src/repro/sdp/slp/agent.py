"""SLP protocol agents: User Agent, Service Agent, Directory Agent.

These stand in for OpenSLP in the paper's testbed (§4.3).  All three roles
follow RFC 2608's discovery models, which the paper's §2 taxonomy builds
on:

* **active** discovery — the UA multicasts ``SrvRqst`` and SAs answer with
  unicast ``SrvRply`` (repository-less active model);
* **passive** discovery — SAs periodically multicast ``SAAdvert`` and UAs
  listen (repository-less passive model);
* with a **repository** — a DA multicasts unsolicited ``DAAdvert``; SAs
  register via unicast ``SrvReg`` and UAs query via unicast ``SrvRqst``.

Per-operation processing delays come from :class:`SlpTimings` so the
benchmark harness can charge OpenSLP-like library costs (see
``repro.bench.calibration``) while unit tests run with zero-cost timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

from ...net import Endpoint, Node, shared_decode
from .attributes import parse_attributes, serialize_attributes
from .constants import (
    DA_SERVICE_TYPE,
    DEFAULT_LIFETIME_S,
    DEFAULT_SCOPE,
    ErrorCode,
    Flags,
    FunctionId,
    SLP_MULTICAST_GROUP,
    SLP_PORT,
)
from .messages import (
    AttrRply,
    AttrRqst,
    DAAdvert,
    Header,
    SAAdvert,
    SlpMessage,
    SrvAck,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    SrvTypeRply,
    SrvTypeRqst,
    UrlEntry,
)
from .predicate import matches as predicate_matches
from .service_type import ServiceType
from .wire import (
    ENCODE_MEMO_SIZE, WIRE_MEMO_KEY, decode_or_none, encode, peek_function_id,
)


@dataclass
class SlpTimings:
    """Per-operation processing delays (microseconds) for one SLP stack.

    Defaults model a thin native stack; the calibrated OpenSLP profile in
    ``repro.bench.calibration`` reproduces the paper's 0.7 ms native median.
    """

    request_build_us: int = 10
    reply_parse_us: int = 10
    match_us: int = 10
    register_us: int = 10
    advert_build_us: int = 10

    def scaled(self, factor: float) -> "SlpTimings":
        return SlpTimings(
            request_build_us=int(self.request_build_us * factor),
            reply_parse_us=int(self.reply_parse_us * factor),
            match_us=int(self.match_us * factor),
            register_us=int(self.register_us * factor),
            advert_build_us=int(self.advert_build_us * factor),
        )


@dataclass
class SlpConfig:
    """Knobs shared by all agent roles."""

    port: int = SLP_PORT
    multicast_group: str = SLP_MULTICAST_GROUP
    scopes: tuple[str, ...] = (DEFAULT_SCOPE,)
    #: How long a UA waits for multicast convergence before completing.
    wait_us: int = 15_000
    #: Multicast retransmissions after the initial request.
    retries: int = 1
    timings: SlpTimings = field(default_factory=SlpTimings)
    #: Passive model: SA advertises itself every this many microseconds.
    advertise_period_us: int = 2_000_000


@dataclass
class SlpRegistration:
    """One service held by an SA or DA."""

    url: str
    service_type: ServiceType
    scopes: tuple[str, ...] = (DEFAULT_SCOPE,)
    attributes: dict = field(default_factory=dict)
    lifetime_s: int = DEFAULT_LIFETIME_S

    def matches_request(self, request: SrvRqst) -> bool:
        try:
            wanted = ServiceType.parse(request.service_type)
        except Exception:
            return False
        if not self.service_type.matches(wanted):
            return False
        if request.scopes and _upper_scopes(tuple(request.scopes)).isdisjoint(
            _upper_scopes(tuple(self.scopes))
        ):
            return False
        if request.predicate:
            return predicate_matches(request.predicate, self.attributes)
        return True


@lru_cache(maxsize=1024)
def _upper_scopes(scopes: tuple[str, ...]) -> frozenset[str]:
    """Upper-cased scope names: scopes compare case-insensitively."""
    return frozenset(s.upper() for s in scopes)


class PendingSearch:
    """Handle for an in-flight UA search; collects replies until timeout."""

    def __init__(self, agent: "UserAgent", xid: int, started_at_us: int):
        self._agent = agent
        self.xid = xid
        self.started_at_us = started_at_us
        self.results: list[UrlEntry] = []
        self._seen_urls: set[str] = set()
        self.responders: list[str] = []
        self.completed = False
        self.first_reply_at_us: Optional[int] = None
        self.on_first: Optional[Callable[[UrlEntry], None]] = None
        self.on_complete: Optional[Callable[["PendingSearch"], None]] = None
        self._wait_us = 0
        #: The convergence timeout's scheduler entry (cancelled on an
        #: early finish).
        self._timer = None

    @property
    def first_latency_us(self) -> Optional[int]:
        if self.first_reply_at_us is None:
            return None
        return self.first_reply_at_us - self.started_at_us

    def _add(self, entries: tuple[UrlEntry, ...], responder: str, now_us: int) -> None:
        # First sighting of a URL wins, across replies and within one.
        seen = self._seen_urls
        for entry in entries:
            if entry.url not in seen:
                seen.add(entry.url)
                self.results.append(entry)
        if responder not in self.responders:
            self.responders.append(responder)
        if self.first_reply_at_us is None and entries:
            self.first_reply_at_us = now_us
            if self.on_first is not None:
                self.on_first(entries[0])

    def _expire(self) -> None:
        self._agent._finish(self.xid)

    def _complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        if self.on_complete is not None:
            self.on_complete(self)


class _SlpEndpointBase:
    """Socket plumbing shared by all SLP roles on one node."""

    def __init__(self, node: Node, config: SlpConfig | None = None):
        self.node = node
        self.config = config if config is not None else SlpConfig()
        self._socket = node.udp.socket().bind(self.config.port, reuse=True)
        self._socket.join_group(self.config.multicast_group)
        self._socket.on_datagram(self._on_datagram)
        self.decode_errors = 0
        self._parse_counter = node.network.parse_counter("slp")
        self._multicast = Endpoint(self.config.multicast_group, self.config.port)
        #: This endpoint's encode-once pieces (see :func:`wire.encode`).
        self._encode_memo = node.network.memo(ENCODE_MEMO_SIZE)

    @property
    def address(self) -> str:
        return self.node.address

    def close(self) -> None:
        self._socket.close()

    def _send(self, message: SlpMessage, destination: Endpoint) -> None:
        # Seed the frame memo with the structured form: receivers share the
        # sender's message instead of decoding the wire bytes back.
        self._parse_counter.note_seed()
        self._socket.sendto(
            encode(message, self._encode_memo), destination,
            decode_hint=(WIRE_MEMO_KEY, message),
        )

    def _send_multicast(self, message: SlpMessage) -> None:
        self._send(message, self._multicast)

    def _on_datagram(self, datagram) -> None:
        # All SLP endpoints on a segment hear the same multicast frame: the
        # first decodes, the rest reuse (handlers treat messages as
        # read-only).
        message = shared_decode(
            datagram.ensure_memo(), WIRE_MEMO_KEY, datagram.payload,
            decode_or_none, self._parse_counter,
        )
        if message is None:
            self.decode_errors += 1
            return
        self._handle(message, datagram.source, datagram.multicast)

    def _handle(self, message: SlpMessage, source: Endpoint, was_multicast: bool) -> None:
        raise NotImplementedError


class ServiceAgent(_SlpEndpointBase):
    """Hosts registrations and answers matching requests (RFC 2608 SA).

    With ``passive=True`` the SA also multicasts periodic ``SAAdvert``
    carrying its service URL — the paper's repository-less passive model.
    """

    def __init__(
        self,
        node: Node,
        config: SlpConfig | None = None,
        passive: bool = False,
    ):
        super().__init__(node, config)
        self.registrations: list[SlpRegistration] = []
        self.requests_answered = 0
        self.requests_ignored = 0
        self._advert_task = None
        self._known_da: Optional[Endpoint] = None
        if passive:
            self.start_advertising()

    def register(self, registration: SlpRegistration) -> None:
        self.registrations.append(registration)
        if self._known_da is not None:
            self._register_with_da(registration)

    def start_advertising(self, period_us: int | None = None) -> None:
        if self._advert_task is not None:
            return
        period = period_us if period_us is not None else self.config.advertise_period_us
        self._advert_task = self.node.every(period, self._advertise, initial_delay_us=period)

    def stop_advertising(self) -> None:
        if self._advert_task is not None:
            self._advert_task.stop()
            self._advert_task = None

    @property
    def advertising(self) -> bool:
        return self._advert_task is not None and not self._advert_task.stopped

    def _advertise(self) -> None:
        for registration in self.registrations:
            advert = SAAdvert(
                header=Header(FunctionId.SAADVERT),
                url=registration.url,
                scopes=registration.scopes,
                attr_list=serialize_attributes(registration.attributes),
            )
            delay = self.config.timings.advert_build_us
            self.node.schedule(delay, lambda a=advert: self._send_multicast(a))

    def _register_with_da(self, registration: SlpRegistration) -> None:
        assert self._known_da is not None
        message = SrvReg(
            header=Header(FunctionId.SRVREG, xid=0, flags=Flags.FRESH),
            url_entry=UrlEntry(registration.url, registration.lifetime_s),
            service_type=registration.service_type.render(),
            scopes=registration.scopes,
            attr_list=serialize_attributes(registration.attributes),
        )
        self._send(message, self._known_da)

    def _handle(self, message: SlpMessage, source: Endpoint, was_multicast: bool) -> None:
        if isinstance(message, SrvRqst):
            self._handle_request(message, source, was_multicast)
        elif isinstance(message, AttrRqst):
            self._handle_attr_request(message, source)
        elif isinstance(message, SrvTypeRqst):
            self._handle_type_request(message, source, was_multicast)
        elif isinstance(message, DAAdvert):
            self._known_da = Endpoint(source.host, self.config.port)
            for registration in self.registrations:
                self._register_with_da(registration)
        # Other SLP traffic (replies, acks addressed elsewhere) is ignored.

    def _handle_type_request(
        self, request: SrvTypeRqst, source: Endpoint, was_multicast: bool
    ) -> None:
        if self.address in request.prlist:
            return
        types = sorted(
            {
                r.service_type.render()
                for r in self.registrations
                if _authority_matches(request.naming_authority, r.service_type)
            }
        )
        if not types and was_multicast:
            return
        reply = SrvTypeRply(
            header=Header(FunctionId.SRVTYPERPLY, xid=request.header.xid),
            service_types=tuple(types),
        )
        self.node.schedule(self.config.timings.match_us, lambda: self._send(reply, source))

    def _handle_request(self, request: SrvRqst, source: Endpoint, was_multicast: bool) -> None:
        if self.address in request.prlist:
            self.requests_ignored += 1
            return
        matching = [r for r in self.registrations if r.matches_request(request)]
        if not matching:
            self.requests_ignored += 1
            if not was_multicast:
                # Unicast requests always get an answer, even an empty one.
                reply = SrvRply(header=Header(FunctionId.SRVRPLY, xid=request.header.xid))
                self._send(reply, source)
            return
        reply = SrvRply(
            header=Header(FunctionId.SRVRPLY, xid=request.header.xid),
            url_entries=tuple(UrlEntry(r.url, r.lifetime_s) for r in matching),
        )
        self.requests_answered += 1
        self.node.schedule(self.config.timings.match_us, lambda: self._send(reply, source))

    def _handle_attr_request(self, request: AttrRqst, source: Endpoint) -> None:
        target = None
        for registration in self.registrations:
            if registration.url == request.url:
                target = registration
                break
            try:
                if registration.service_type.matches(ServiceType.parse(request.url)):
                    target = registration
                    break
            except Exception:
                continue
        if target is None:
            reply = AttrRply(
                header=Header(FunctionId.ATTRRPLY, xid=request.header.xid),
                error_code=ErrorCode.OK,
                attr_list="",
            )
        else:
            attrs = dict(target.attributes)
            if request.tag_list:
                wanted = {t.strip().lower() for t in request.tag_list.split(",")}
                attrs = {k: v for k, v in attrs.items() if k.lower() in wanted}
            reply = AttrRply(
                header=Header(FunctionId.ATTRRPLY, xid=request.header.xid),
                attr_list=serialize_attributes(attrs),
            )
        self.node.schedule(self.config.timings.match_us, lambda: self._send(reply, source))


def _authority_matches(requested: str, service_type: ServiceType) -> bool:
    """Naming-authority filter for SrvTypeRqst (RFC 2608 §10.1):
    ``"*"`` matches all authorities, ``""`` matches the IANA default."""
    if requested == "*":
        return True
    return service_type.naming_authority == requested


#: Function ids a UA's receive filter admits: all but other agents'
#: requests, which a UA never acts on.
_UA_ADMITTED = frozenset(
    int(fid)
    for fid in FunctionId
    if fid not in (
        FunctionId.SRVRQST,
        FunctionId.SRVREG,
        FunctionId.SRVDEREG,
        FunctionId.ATTRRQST,
        FunctionId.SRVTYPERQST,
    )
)


class UserAgent(_SlpEndpointBase):
    """Issues searches and collects replies (RFC 2608 UA).

    In the active model requests go to the SLP multicast group; when a DA is
    known (from a ``DAAdvert``) they switch to unicast, per the RFC.  With
    ``passive=True`` the UA also listens for ``SAAdvert`` and surfaces them
    through :attr:`on_advert`.
    """

    def __init__(self, node: Node, config: SlpConfig | None = None, passive: bool = False):
        super().__init__(node, config)
        self._socket.set_receive_filter(peek_function_id, _UA_ADMITTED)
        self._next_xid = 1
        self._pending: dict[int, PendingSearch] = {}
        self._attr_callbacks: dict[int, Callable[[dict], None]] = {}
        self._type_callbacks: dict[int, Callable[[tuple[str, ...]], None]] = {}
        self._known_da: Optional[Endpoint] = None
        self.passive = passive
        self.adverts_seen: list[SAAdvert] = []
        self.on_advert: Optional[Callable[[SAAdvert], None]] = None

    @property
    def known_da(self) -> Optional[Endpoint]:
        return self._known_da

    def find_services(
        self,
        service_type: str,
        scopes: tuple[str, ...] | None = None,
        predicate: str = "",
        wait_us: int | None = None,
        on_complete: Callable[[PendingSearch], None] | None = None,
        on_first: Callable[[UrlEntry], None] | None = None,
    ) -> PendingSearch:
        """Start a search; returns the pending handle immediately.

        The search completes (``on_complete``) when the convergence timer
        fires, or immediately after a unicast DA reply.
        """
        xid = self._allocate_xid()
        scheduler = self.node.network.scheduler_for(self.node)
        search = PendingSearch(self, xid, scheduler.now_us)
        search.on_complete = on_complete
        search.on_first = on_first
        self._pending[xid] = search

        request = SrvRqst(
            header=Header(FunctionId.SRVRQST, xid=xid, flags=Flags.REQUEST_MCAST),
            service_type=service_type,
            scopes=scopes if scopes is not None else self.config.scopes,
            predicate=predicate,
        )
        search._wait_us = wait = wait_us if wait_us is not None else self.config.wait_us
        build_delay = self.config.timings.request_build_us
        scheduler.schedule(build_delay, lambda: self._transmit(search, request, 0))
        search._timer = scheduler.schedule(build_delay + wait, search._expire, label="timer")
        return search

    def _transmit(self, search: PendingSearch, request: SrvRqst, attempt: int) -> None:
        """Send one attempt of a search's request and post the next one."""
        if search.completed:
            return
        if self._known_da is not None:
            unicast = replace(request, header=request.header.with_flags(0))
            self._send(unicast, self._known_da)
        else:
            self._send(request, self._multicast)
        retries = self.config.retries
        if attempt < retries:
            interval = max(search._wait_us // (retries + 1), 1)
            self.node.schedule(
                interval,
                lambda: self._transmit(
                    search, replace(request, prlist=tuple(search.responders)), attempt + 1
                ),
            )

    def find_attributes(
        self,
        url: str,
        tag_list: str = "",
        on_reply: Callable[[dict], None] | None = None,
    ) -> int:
        """Issue an AttrRqst; ``on_reply`` receives the parsed attributes."""
        xid = self._allocate_xid()
        request = AttrRqst(
            header=Header(FunctionId.ATTRRQST, xid=xid, flags=Flags.REQUEST_MCAST),
            url=url,
            scopes=self.config.scopes,
        )
        if on_reply is not None:
            self._attr_callbacks[xid] = on_reply
        self.node.schedule(
            self.config.timings.request_build_us, lambda: self._send_multicast(request)
        )
        return xid

    def find_service_types(
        self,
        naming_authority: str = "*",
        on_reply: Callable[[tuple[str, ...]], None] | None = None,
    ) -> int:
        """Issue a SrvTypeRqst (RFC 2608 §10.1): enumerate advertised types."""
        xid = self._allocate_xid()
        request = SrvTypeRqst(
            header=Header(FunctionId.SRVTYPERQST, xid=xid, flags=Flags.REQUEST_MCAST),
            naming_authority=naming_authority,
            scopes=self.config.scopes,
        )
        if on_reply is not None:
            self._type_callbacks[xid] = on_reply
        self.node.schedule(
            self.config.timings.request_build_us, lambda: self._send_multicast(request)
        )
        return xid

    def _allocate_xid(self) -> int:
        xid = self._next_xid
        self._next_xid = xid + 1 if xid < 0xFFFF else 1
        return xid

    def _finish(self, xid: int) -> None:
        search = self._pending.pop(xid, None)
        if search is not None:
            if search._timer is not None:
                search._timer.cancel()
                search._timer = None
            search._complete()

    def _handle(self, message: SlpMessage, source: Endpoint, was_multicast: bool) -> None:
        if isinstance(message, SrvRply):
            search = self._pending.get(message.header.xid)
            if search is None:
                return
            delay = self.config.timings.reply_parse_us

            def deliver() -> None:
                if search.completed:
                    return
                search._add(message.url_entries, source.host, self.node.now_us)
                if self._known_da is not None:
                    # Unicast DA interaction: a single reply is conclusive.
                    self._finish(message.header.xid)

            self.node.schedule(delay, deliver)
        elif isinstance(message, AttrRply):
            callback = self._attr_callbacks.pop(message.header.xid, None)
            if callback is not None:
                attrs = parse_attributes(message.attr_list)
                self.node.schedule(self.config.timings.reply_parse_us, lambda: callback(attrs))
        elif isinstance(message, SrvTypeRply):
            type_callback = self._type_callbacks.pop(message.header.xid, None)
            if type_callback is not None:
                types = message.service_types
                self.node.schedule(
                    self.config.timings.reply_parse_us, lambda: type_callback(types)
                )
        elif isinstance(message, DAAdvert):
            self._known_da = Endpoint(source.host, self.config.port)
        elif isinstance(message, SAAdvert) and self.passive:
            self.adverts_seen.append(message)
            if self.on_advert is not None:
                self.on_advert(message)


class DirectoryAgent(_SlpEndpointBase):
    """A centralized repository (RFC 2608 DA).

    Accepts unicast ``SrvReg``/``SrvDeReg`` (answered with ``SrvAck``),
    answers ``SrvRqst`` from its registry, and multicasts unsolicited
    ``DAAdvert`` periodically so UAs/SAs can find it — the paper's
    "repository" discovery models.
    """

    def __init__(
        self,
        node: Node,
        config: SlpConfig | None = None,
        advert_period_us: int = 3_000_000,
        boot_timestamp: int = 1,
    ):
        super().__init__(node, config)
        self.registry: dict[str, SlpRegistration] = {}
        self.boot_timestamp = boot_timestamp
        self.registrations_accepted = 0
        self._advert_task = self.node.every(
            advert_period_us, self.send_advert, initial_delay_us=advert_period_us // 2
        )

    @property
    def url(self) -> str:
        return f"service:directory-agent://{self.address}"

    def stop(self) -> None:
        self._advert_task.stop()

    def send_advert(self) -> None:
        self.send_advert_to(self._multicast)

    def _handle(self, message: SlpMessage, source: Endpoint, was_multicast: bool) -> None:
        if isinstance(message, SrvReg):
            self._handle_register(message, source)
        elif isinstance(message, SrvDeReg):
            self.registry.pop(message.url_entry.url, None)
            ack = SrvAck(header=Header(FunctionId.SRVACK, xid=message.header.xid))
            self._send(ack, source)
        elif isinstance(message, SrvRqst):
            self._handle_request(message, source, was_multicast)

    def _handle_register(self, message: SrvReg, source: Endpoint) -> None:
        try:
            service_type = ServiceType.parse(message.service_type)
            attributes = parse_attributes(message.attr_list)
            error = ErrorCode.OK
        except Exception:
            error = ErrorCode.PARSE_ERROR
        if error is ErrorCode.OK:
            self.registry[message.url_entry.url] = SlpRegistration(
                url=message.url_entry.url,
                service_type=service_type,
                scopes=message.scopes,
                attributes=attributes,
                lifetime_s=message.url_entry.lifetime_s,
            )
            self.registrations_accepted += 1
        ack = SrvAck(header=Header(FunctionId.SRVACK, xid=message.header.xid), error_code=error)
        self.node.schedule(self.config.timings.register_us, lambda: self._send(ack, source))

    def _handle_request(self, request: SrvRqst, source: Endpoint, was_multicast: bool) -> None:
        if self.address in request.prlist:
            return
        if request.service_type.strip().lower() == DA_SERVICE_TYPE:
            self.send_advert_to(source)
            return
        matching = [r for r in self.registry.values() if r.matches_request(request)]
        if not matching and was_multicast:
            return
        reply = SrvRply(
            header=Header(FunctionId.SRVRPLY, xid=request.header.xid),
            url_entries=tuple(UrlEntry(r.url, r.lifetime_s) for r in matching),
        )
        self.node.schedule(self.config.timings.match_us, lambda: self._send(reply, source))

    def send_advert_to(self, destination: Endpoint) -> None:
        advert = DAAdvert(
            header=Header(FunctionId.DAADVERT),
            boot_timestamp=self.boot_timestamp,
            url=self.url,
            scopes=self.config.scopes,
        )
        self._send(advert, destination)


__all__ = [
    "SlpConfig",
    "SlpTimings",
    "SlpRegistration",
    "PendingSearch",
    "ServiceAgent",
    "UserAgent",
    "DirectoryAgent",
]
