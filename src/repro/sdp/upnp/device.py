"""A UPnP root device: SSDP presence + HTTP description/control server.

This is the CyberLink-device stand-in.  Behaviourally it follows UPnP DA
1.0:

* joins the SSDP group and answers matching ``M-SEARCH`` with unicast 200
  OK responses, after a responder-side delay drawn from the timing profile
  (real responders jitter within the MX window; CyberLink's Java stack adds
  scheduling latency on top — this is the dominant term in the paper's
  40 ms native UPnP figure, see ``repro.bench.calibration``);
* multicasts ``NOTIFY ssdp:alive`` periodically and ``ssdp:byebye`` on
  shutdown;
* serves ``description.xml``, per-service SCPD documents and SOAP control
  over TCP/HTTP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ...net import Endpoint, Node
from .constants import (
    DEFAULT_HTTP_PORT,
    DEFAULT_MAX_AGE_S,
    DEFAULT_NOTIFY_PERIOD_US,
    SERVER_STRING,
    SSDP_GROUP,
    SSDP_PORT,
    UPNP_ROOTDEVICE,
)
from .description import DeviceDescription, ScpdDescription
from .http import Headers, HttpRequest, HttpResponse, HttpStreamParser
from .soap import (
    SoapCall,
    build_fault,
    build_response,
    parse_request,
    parse_soap_action_header,
)
from .ssdp import (
    SSDP_MEMO_KEY,
    SsdpKind,
    decode_ssdp_shared,
    peek_ssdp_kind,
    seeded_notify_alive,
    seeded_notify_byebye,
    seeded_search_response,
    st_matches,
)

ActionHandler = Callable[[SoapCall], dict]

#: Distinct search targets one device remembers answers for.
_ANSWER_MEMO_SIZE = 256


@dataclass
class UpnpTimings:
    """Per-operation processing delays (microseconds) for one UPnP stack.

    Defaults model a thin native stack; the calibrated CyberLink profile in
    ``repro.bench.calibration`` reproduces the paper's §4.3 medians.
    """

    #: SSDP search responder latency window (uniform sample).
    search_response_min_us: int = 200
    search_response_max_us: int = 600
    #: Server-side cost to produce description.xml.
    description_serve_us: int = 400
    #: Server-side cost to produce an SCPD document.
    scpd_serve_us: int = 200
    #: Server-side cost to execute a SOAP action.
    soap_handle_us: int = 300
    #: Client-side cost to build and send an M-SEARCH.
    msearch_build_us: int = 50
    #: Client-side cost to parse one SSDP response.
    response_parse_us: int = 50
    #: Client-side cost to parse a description document.
    description_parse_us: int = 300
    #: Extra bytes appended to description.xml as a vendor comment block,
    #: modelling CyberLink's much more verbose output (icons, whitespace).
    description_pad_bytes: int = 0

    def sample_search_delay(self, rng: random.Random) -> int:
        low = self.search_response_min_us
        high = max(self.search_response_max_us, low)
        return rng.randint(low, high)


class UpnpDevice:
    """A root device hosted on one simulated node."""

    def __init__(
        self,
        node: Node,
        description: DeviceDescription,
        http_port: int = DEFAULT_HTTP_PORT,
        timings: UpnpTimings | None = None,
        scpds: dict[str, ScpdDescription] | None = None,
        notify_period_us: int = DEFAULT_NOTIFY_PERIOD_US,
        seed: int = 0,
        advertise: bool = False,
    ):
        self.node = node
        self.description = description
        self.http_port = http_port
        self.timings = timings if timings is not None else UpnpTimings()
        self.scpds = scpds if scpds is not None else {}
        self._rng = random.Random(seed)
        self._notify_period_us = notify_period_us
        self._notify_task = None
        self.searches_answered = 0
        self.descriptions_served = 0
        self.actions_invoked = 0
        self._action_handlers: dict[tuple[str, str], ActionHandler] = {}

        #: Encode-once NOTIFY alive burst: (targets key, [(payload, message)]).
        self._alive_burst: tuple[tuple[str, ...], list] | None = None
        #: Answer-once M-SEARCH table, valid for one targets key: ST ->
        #: (response payload, seeded message), or None when nothing here
        #: matches that ST.  Control points re-search the same few types,
        #: so every repeat is one dict lookup instead of a matching scan.
        self._answers_key: list[str] = []
        self._answers = node.network.memo(_ANSWER_MEMO_SIZE)
        self._parse_counter = node.network.parse_counter("upnp")

        self._ssdp_socket = node.udp.socket().bind(SSDP_PORT, reuse=True)
        self._ssdp_socket.join_group(SSDP_GROUP)
        # A device only acts on M-SEARCH: the sibling alive/byebye floods
        # of a device fleet never reach the handler.
        self._ssdp_socket.set_receive_filter(peek_ssdp_kind, (SsdpKind.MSEARCH,))
        self._ssdp_socket.on_datagram(self._on_ssdp_datagram)
        self._listener = node.tcp.listen(http_port, self._on_http_connection)
        # GENA eventing (UPnP DA 1.0 section 4): one publisher serves all
        # of this device's services.
        from .gena import EventPublisher

        self.events = EventPublisher(node)
        if advertise:
            self.start_advertising()

    # -- identity -----------------------------------------------------------

    @property
    def location(self) -> str:
        return f"http://{self.node.address}:{self.http_port}/description.xml"

    @property
    def udn(self) -> str:
        return self.description.udn

    def usn_for(self, target: str) -> str:
        if target == self.udn:
            return self.udn
        return f"{self.udn}::{target}"

    def notification_targets(self) -> list[str]:
        """All (NT, USN) advertisement targets per UPnP DA 1.0 §1.1.2."""
        description = self.description
        return [
            UPNP_ROOTDEVICE, description.udn, description.device_type,
            *[service.service_type for service in description.services],
        ]

    def on_action(self, service_type: str, action: str, handler: ActionHandler) -> None:
        """Register the implementation of one SOAP action."""
        self._action_handlers[(service_type, action)] = handler

    # -- SSDP presence ----------------------------------------------------------

    def start_advertising(self) -> None:
        if self._notify_task is not None:
            return
        self._send_alive_burst()
        self._notify_task = self.node.every(
            self._notify_period_us, self._send_alive_burst, initial_delay_us=self._notify_period_us
        )

    def stop(self, send_byebye: bool = True) -> None:
        if self._notify_task is not None:
            self._notify_task.stop()
            self._notify_task = None
        if send_byebye:
            for target in self.notification_targets():
                payload, message = seeded_notify_byebye(target, self.usn_for(target))
                self._parse_counter.note_seed()
                self._ssdp_socket.sendto(
                    payload,
                    Endpoint(SSDP_GROUP, SSDP_PORT),
                    decode_hint=(SSDP_MEMO_KEY, message),
                )

    def _send_alive_burst(self) -> None:
        # Encode-once: the burst is identical every period (targets,
        # location and max-age are fixed), so the payloads and their
        # pre-parsed messages are built on the first burst and reused —
        # the decode hint seeds every frame, so receivers never parse.
        targets = tuple(self.notification_targets())
        if self._alive_burst is None or self._alive_burst[0] != targets:
            burst = [
                seeded_notify_alive(
                    nt=target,
                    usn=self.usn_for(target),
                    location=self.location,
                    max_age_s=DEFAULT_MAX_AGE_S,
                )
                for target in targets
            ]
            self._alive_burst = (targets, burst)
        for payload, message in self._alive_burst[1]:
            self._parse_counter.note_seed()
            self._ssdp_socket.sendto(
                payload,
                Endpoint(SSDP_GROUP, SSDP_PORT),
                decode_hint=(SSDP_MEMO_KEY, message),
            )

    def _on_ssdp_datagram(self, datagram) -> None:
        message = decode_ssdp_shared(
            datagram.payload, datagram.ensure_memo(), self._parse_counter
        )
        if message is None:
            return
        if message.kind is not SsdpKind.MSEARCH:
            return
        answer = self._answer_for(message.target)
        if answer is None:
            return
        self.searches_answered += 1
        source = datagram.source
        response, parsed = answer
        delay = self.timings.sample_search_delay(self._rng)
        self._parse_counter.note_seed()
        self.node.schedule(
            delay,
            lambda: self._ssdp_socket.sendto(
                response, source, decode_hint=(SSDP_MEMO_KEY, parsed)
            ),
        )

    def _answer_for(self, st: str) -> tuple[bytes, object] | None:
        """The search response for ``st`` (None: no target matches).

        The answer depends only on the ST and this device's targets, so it
        is built on the first search for that ST and reused until the
        targets change (the same key the alive burst is rebuilt on).
        """
        targets = self.notification_targets()
        if targets != self._answers_key:
            self._answers_key = targets
            self._answers.clear()
        answers = self._answers
        if st in answers:
            return answers[st]
        # A compliant responder answers once per matching target; one is
        # enough for discovery and keeps traces readable.
        target = next(
            (t for t in targets if st_matches(st, t, usn=self.usn_for(t))), None
        )
        answer = None
        if target is not None:
            answer = seeded_search_response(
                st=st if st != "ssdp:all" else target,
                usn=self.usn_for(target),
                location=self.location,
            )
        return answers.remember(st, answer)

    # -- HTTP server ---------------------------------------------------------------

    def _on_http_connection(self, connection) -> None:
        parser = HttpStreamParser()

        def handle_data(chunk: bytes) -> None:
            for message in parser.feed(chunk):
                if isinstance(message, HttpRequest):
                    self._dispatch_http(connection, message)

        connection.on_data(handle_data)

    def _dispatch_http(self, connection, request: HttpRequest) -> None:
        path = request.target.split("?", 1)[0]
        if request.method == "GET" and path == "/description.xml":
            self._serve_description(connection)
        elif request.method == "GET" and self._scpd_for_path(path) is not None:
            self._serve_scpd(connection, path)
        elif request.method == "POST" and self._service_for_control(path) is not None:
            self._serve_control(connection, request, path)
        elif request.method in ("SUBSCRIBE", "UNSUBSCRIBE") and self._service_for_events(
            path
        ) is not None:
            self._respond(connection, self.events.handle_subscribe(request), delay_us=100)
        else:
            self._respond(connection, HttpResponse(status=404, reason="Not Found"), delay_us=50)

    def _scpd_for_path(self, path: str):
        for service in self.description.services:
            if service.scpd_url == path:
                return self.scpds.get(service.service_id)
        return None

    def _service_for_control(self, path: str):
        for service in self.description.services:
            if service.control_url == path:
                return service
        return None

    def _service_for_events(self, path: str):
        for service in self.description.services:
            if service.event_sub_url == path:
                return service
        return None

    def notify_state_change(self, properties: dict[str, str]) -> int:
        """Publish a state-variable change to every GENA subscriber."""
        return self.events.publish(properties)

    def _serve_description(self, connection) -> None:
        document = self.description.to_xml().encode("utf-8")
        if self.timings.description_pad_bytes > 0:
            pad = b"<!-- " + b"x" * self.timings.description_pad_bytes + b" -->\n"
            document = document.replace(b"</root>", pad + b"</root>")
        response = HttpResponse(
            status=200,
            headers=Headers(
                [
                    ("CONTENT-TYPE", 'text/xml; charset="utf-8"'),
                    ("SERVER", SERVER_STRING),
                    ("CONTENT-LENGTH", str(len(document))),
                ]
            ),
            body=document,
        )
        self.descriptions_served += 1
        self._respond(connection, response, delay_us=self.timings.description_serve_us)

    def _serve_scpd(self, connection, path: str) -> None:
        scpd = self._scpd_for_path(path)
        assert scpd is not None
        document = scpd.to_xml().encode("utf-8")
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
        self._respond(connection, response, delay_us=self.timings.scpd_serve_us)

    def _serve_control(self, connection, request: HttpRequest, path: str) -> None:
        soap_action = request.headers.get("SOAPACTION", "")
        try:
            service_type, action = parse_soap_action_header(soap_action)
            call = parse_request(request.body)
        except Exception:
            body = build_fault(401, "Invalid Action").encode("utf-8")
            self._respond(connection, _soap_response(500, body), delay_us=100)
            return
        handler = self._action_handlers.get((service_type, action))
        if handler is None:
            body = build_fault(401, f"No such action {action}").encode("utf-8")
            self._respond(connection, _soap_response(500, body), delay_us=100)
            return

        def run_action() -> None:
            try:
                out_args = handler(call)
                body = build_response(service_type, action, out_args).encode("utf-8")
                self.actions_invoked += 1
                connection.send(_soap_response(200, body).render())
            except Exception as exc:  # noqa: BLE001 - fault path must answer
                body = build_fault(501, str(exc)).encode("utf-8")
                connection.send(_soap_response(500, body).render())

        self.node.schedule(self.timings.soap_handle_us, run_action)

    def _respond(self, connection, response: HttpResponse, delay_us: int) -> None:
        self.node.schedule(delay_us, lambda: connection.send(response.render()))


def _soap_response(status: int, body: bytes) -> HttpResponse:
    return HttpResponse(
        status=status,
        reason="OK" if status == 200 else "Internal Server Error",
        headers=Headers(
            [
                ("CONTENT-TYPE", 'text/xml; charset="utf-8"'),
                ("EXT", ""),
                ("CONTENT-LENGTH", str(len(body))),
            ]
        ),
        body=body,
    )


__all__ = ["UpnpDevice", "UpnpTimings", "ActionHandler"]
