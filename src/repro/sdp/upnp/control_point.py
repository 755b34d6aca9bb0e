"""A UPnP control point: search, description fetch, action invocation.

The CyberLink-control-point stand-in.  The measured quantity in the paper's
Fig. 7 ("UPnP -> UPnP", 40 ms) is the time from issuing ``search()`` to the
first SSDP 200 OK arriving — a UPnP client's "answer" is the LOCATION URL,
unlike an SLP client which needs the direct control reference (paper §4.3);
description fetching is therefore a separate, explicit step here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ...net import Endpoint, Node, Timer
from .constants import SSDP_ALL, SSDP_GROUP, SSDP_PORT
from .description import DeviceDescription, ScpdDescription, parse_device_description, parse_scpd
from .device import UpnpTimings
from .errors import DescriptionError
from .http import Headers
from .httpclient import http_get, http_post
from .soap import SoapResult, build_request, parse_response, soap_action_header
from .ssdp import (
    SSDP_MEMO_KEY,
    SsdpKind,
    SsdpMessage,
    decode_ssdp_shared,
    peek_ssdp_kind,
    seeded_msearch,
)


@dataclass
class KnownDevice:
    """Cache entry maintained from NOTIFY traffic and search responses."""

    usn: str
    target: str
    location: str
    max_age_s: int
    last_seen_us: int


class DeviceSearch:
    """Handle for one in-flight M-SEARCH."""

    def __init__(self, started_at_us: int, st: str):
        self.st = st
        self.started_at_us = started_at_us
        self.responses: list[SsdpMessage] = []
        self.completed = False
        self.first_response_at_us: Optional[int] = None
        self.on_response: Optional[Callable[[SsdpMessage], None]] = None
        self.on_complete: Optional[Callable[["DeviceSearch"], None]] = None

    @property
    def first_latency_us(self) -> Optional[int]:
        if self.first_response_at_us is None:
            return None
        return self.first_response_at_us - self.started_at_us

    def _add(self, message: SsdpMessage, now_us: int) -> None:
        self.responses.append(message)
        if self.first_response_at_us is None:
            self.first_response_at_us = now_us
        if self.on_response is not None:
            self.on_response(message)

    def _complete(self) -> None:
        if not self.completed:
            self.completed = True
            if self.on_complete is not None:
                self.on_complete(self)


class UpnpControlPoint:
    """A control point on one simulated node."""

    def __init__(self, node: Node, timings: UpnpTimings | None = None):
        self.node = node
        self.timings = timings if timings is not None else UpnpTimings()
        #: Devices learnt from NOTIFY alive (usn -> entry).
        self.known_devices: dict[str, KnownDevice] = {}
        self.on_alive: Optional[Callable[[KnownDevice], None]] = None
        self.on_byebye: Optional[Callable[[str], None]] = None
        self._searches: list[DeviceSearch] = []

        self._parse_counter = node.network.parse_counter("upnp")
        # Unicast search responses come back to the ephemeral search socket;
        # NOTIFY traffic arrives on the shared SSDP group socket, which also
        # hears M-SEARCHes and stray responses.  Each socket's receive
        # filter admits only the kinds its handler consumes.
        self._search_socket = node.udp.socket()
        self._search_socket.set_receive_filter(peek_ssdp_kind, (SsdpKind.RESPONSE,))
        self._search_socket.on_datagram(self._on_search_response)
        self._notify_socket = node.udp.socket().bind(SSDP_PORT, reuse=True)
        self._notify_socket.join_group(SSDP_GROUP)
        self._notify_socket.set_receive_filter(
            peek_ssdp_kind, (SsdpKind.ALIVE, SsdpKind.BYEBYE)
        )
        self._notify_socket.on_datagram(self._on_notify)

    # -- discovery ---------------------------------------------------------

    def search(
        self,
        st: str = SSDP_ALL,
        mx_s: int = 0,
        wait_us: int = 100_000,
        on_response: Callable[[SsdpMessage], None] | None = None,
        on_complete: Callable[[DeviceSearch], None] | None = None,
    ) -> DeviceSearch:
        """Multicast an M-SEARCH and collect responses for ``wait_us``."""
        search = DeviceSearch(self.node.now_us, st)
        search.on_response = on_response
        search.on_complete = on_complete
        self._searches.append(search)

        payload, parsed = seeded_msearch(st, mx_s)
        self._parse_counter.note_seed()
        self.node.schedule(
            self.timings.msearch_build_us,
            lambda: self._search_socket.sendto(
                payload,
                Endpoint(SSDP_GROUP, SSDP_PORT),
                decode_hint=(SSDP_MEMO_KEY, parsed),
            ),
        )

        def finish() -> None:
            if search in self._searches:
                self._searches.remove(search)
            search._complete()

        timer = Timer(self.node.network.scheduler_for(self.node), finish)
        timer.start(self.timings.msearch_build_us + wait_us)
        return search

    def _on_search_response(self, datagram) -> None:
        message = decode_ssdp_shared(
            datagram.payload, datagram.ensure_memo(), self._parse_counter
        )
        if message is None or message.kind is not SsdpKind.RESPONSE:
            return

        def deliver() -> None:
            self._remember(message)
            for search in list(self._searches):
                if not search.completed:
                    search._add(message, self.node.now_us)

        self.node.schedule(self.timings.response_parse_us, deliver)

    def _on_notify(self, datagram) -> None:
        message = decode_ssdp_shared(
            datagram.payload, datagram.ensure_memo(), self._parse_counter
        )
        if message is None:
            return
        if message.kind is SsdpKind.ALIVE:
            entry = self._remember(message)
            if self.on_alive is not None and entry is not None:
                self.on_alive(entry)
        elif message.kind is SsdpKind.BYEBYE:
            if message.usn in self.known_devices:
                del self.known_devices[message.usn]
                if self.on_byebye is not None:
                    self.on_byebye(message.usn)

    def _remember(self, message: SsdpMessage) -> Optional[KnownDevice]:
        """Record ``message``'s device; a repeat of an unchanged
        advertisement refreshes the existing entry in place."""
        if not message.usn:
            return None
        entry = self.known_devices.get(message.usn)
        if (
            entry is not None
            and entry.target == message.target
            and entry.location == message.location
            and entry.max_age_s == message.max_age_s
        ):
            entry.last_seen_us = self.node.now_us
            return entry
        entry = KnownDevice(
            usn=message.usn,
            target=message.target,
            location=message.location,
            max_age_s=message.max_age_s,
            last_seen_us=self.node.now_us,
        )
        self.known_devices[message.usn] = entry
        return entry

    # -- description ----------------------------------------------------------

    def fetch_description(
        self,
        location: str,
        on_description: Callable[[DeviceDescription], None],
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        """GET and parse a device description document."""

        def handle_response(response) -> None:
            def parse() -> None:
                try:
                    description = parse_device_description(response.body)
                except DescriptionError as exc:
                    if on_error is not None:
                        on_error(exc)
                    return
                on_description(description)

            self.node.schedule(self.timings.description_parse_us, parse)

        def handle_error(error: Exception) -> None:
            if on_error is not None:
                on_error(error)

        http_get(self.node, location, handle_response, on_error=handle_error)

    def fetch_scpd(
        self,
        url: str,
        on_scpd: Callable[[ScpdDescription], None],
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        def handle_response(response) -> None:
            try:
                scpd = parse_scpd(response.body)
            except DescriptionError as exc:
                if on_error is not None:
                    on_error(exc)
                return
            on_scpd(scpd)

        http_get(self.node, url, handle_response, on_error=on_error)

    # -- control -----------------------------------------------------------------

    def invoke(
        self,
        control_url: str,
        service_type: str,
        action: str,
        arguments: dict[str, str] | None = None,
        on_result: Callable[[SoapResult], None] | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        """POST a SOAP action to a control URL."""
        body = build_request(service_type, action, arguments).encode("utf-8")
        headers = Headers(
            [
                ("CONTENT-TYPE", 'text/xml; charset="utf-8"'),
                ("SOAPACTION", soap_action_header(service_type, action)),
            ]
        )

        def handle_response(response) -> None:
            try:
                result = parse_response(response.body)
            except Exception as exc:  # noqa: BLE001 - surfaced to caller
                if on_error is not None:
                    on_error(exc)
                return
            if on_result is not None:
                on_result(result)

        http_post(
            self.node, control_url, body, headers=headers,
            on_response=handle_response, on_error=on_error,
        )


__all__ = ["UpnpControlPoint", "DeviceSearch", "KnownDevice"]
