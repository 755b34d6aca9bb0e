"""GENA eventing (UPnP DA 1.0, section 4) — the UPnP stack's third leg.

UPnP devices push state-variable changes to subscribers:

* a control point ``SUBSCRIBE``s to a service's ``eventSubURL`` with a
  ``CALLBACK`` URL and receives a subscription id (``SID``) and timeout;
* the device sends ``NOTIFY`` requests (method ``NOTIFY``, headers ``NT:
  upnp:event``, ``NTS: upnp:propchange``, ``SID``, ``SEQ``) with an XML
  property set to every live subscriber whenever an evented variable
  changes;
* subscriptions expire unless renewed (``SUBSCRIBE`` with the ``SID``).

This module provides the message codecs plus the device- and control-
point-side managers, wired into :class:`~repro.sdp.upnp.device.UpnpDevice`
and :class:`~repro.sdp.upnp.control_point.UpnpControlPoint`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Optional

from ...net import Endpoint, Node
from ...net.udp import FrameMemo, shared_decode
from .description import escape
from .errors import UpnpError
from .http import Headers, HttpRequest, HttpResponse, HttpStreamParser
from .urls import parse_http_url

EVENT_NS = "urn:schemas-upnp-org:event-1-0"

#: Default subscription lifetime (seconds).
DEFAULT_SUBSCRIPTION_TIMEOUT_S = 1800

#: Memo key for shared NOTIFY property-set decodes (the TCP fan-out leg
#: of parse-once; distinct from the UDP protocols' memo keys).
GENA_MEMO_KEY = "gena-propset"


def build_property_set(properties: dict[str, str]) -> str:
    """Render the NOTIFY body: ``<e:propertyset><e:property>...``."""
    parts = [f'<e:propertyset xmlns:e="{EVENT_NS}">']
    for name, value in properties.items():
        parts.append(f"<e:property><{name}>{escape(str(value))}</{name}></e:property>")
    parts.append("</e:propertyset>")
    return "".join(parts)


def parse_property_set(document: str | bytes) -> dict[str, str]:
    """Parse a NOTIFY body back into a name -> value dict."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise UpnpError(f"malformed property set: {exc}") from exc
    properties: dict[str, str] = {}
    for prop in root.findall(f"{{{EVENT_NS}}}property"):
        for child in prop:
            properties[child.tag.rsplit("}", 1)[-1]] = child.text or ""
    return properties


@dataclass
class Subscription:
    """One live subscription held by a device."""

    sid: str
    callback_url: str
    expires_at_us: int
    seq: int = 0


class EventPublisher:
    """Device-side GENA: subscription table plus change notification."""

    def __init__(self, node: Node, timeout_s: int = DEFAULT_SUBSCRIPTION_TIMEOUT_S):
        self.node = node
        self.timeout_s = timeout_s
        self.subscriptions: dict[str, Subscription] = {}
        self._next_sid = 1
        self.notifications_sent = 0
        #: Property-set bodies actually rendered; with many subscribers
        #: this grows once per *event* while ``notifications_sent`` grows
        #: once per subscriber (the encode-once invariant).
        self.bodies_encoded = 0
        self._parse_counter = node.network.parse_counter("gena")

    def handle_subscribe(self, request: HttpRequest) -> HttpResponse:
        """Process SUBSCRIBE (new or renewal) / UNSUBSCRIBE requests."""
        if request.method == "UNSUBSCRIBE":
            sid = request.headers.get("SID", "")
            if sid in self.subscriptions:
                del self.subscriptions[sid]
                return HttpResponse(status=200, reason="OK")
            return HttpResponse(status=412, reason="Precondition Failed")

        sid = request.headers.get("SID")
        if sid:  # renewal
            subscription = self.subscriptions.get(sid)
            if subscription is None:
                return HttpResponse(status=412, reason="Precondition Failed")
            subscription.expires_at_us = self.node.now_us + self.timeout_s * 1_000_000
            return self._subscription_ok(subscription)

        callback = (request.headers.get("CALLBACK") or "").strip("<>")
        if not callback:
            return HttpResponse(status=412, reason="Precondition Failed")
        new_sid = f"uuid:gena-{self._next_sid}"
        self._next_sid += 1
        subscription = Subscription(
            sid=new_sid,
            callback_url=callback,
            expires_at_us=self.node.now_us + self.timeout_s * 1_000_000,
        )
        self.subscriptions[new_sid] = subscription
        return self._subscription_ok(subscription)

    def _subscription_ok(self, subscription: Subscription) -> HttpResponse:
        return HttpResponse(
            status=200,
            reason="OK",
            headers=Headers(
                [
                    ("SID", subscription.sid),
                    ("TIMEOUT", f"Second-{self.timeout_s}"),
                    ("CONTENT-LENGTH", "0"),
                ]
            ),
        )

    def _evict_expired(self) -> None:
        now = self.node.now_us
        expired = [sid for sid, s in self.subscriptions.items() if s.expires_at_us <= now]
        for sid in expired:
            del self.subscriptions[sid]

    def publish(self, properties: dict[str, str]) -> int:
        """Notify every live subscriber; returns notifications sent.

        Encode-once: the property-set body is rendered exactly once per
        event and reused across the whole per-subscriber TCP fan-out, and
        one shared :class:`~repro.net.udp.FrameMemo` — seeded with the
        parsed form — travels with every NOTIFY, so no subscriber ever
        runs the XML parser (``parse_stats["gena"]`` attributes this).
        Only the per-subscriber envelope (HOST/SID/SEQ headers) is built
        per connection.
        """
        self._evict_expired()
        if not self.subscriptions:
            return 0
        body = build_property_set(properties).encode("utf-8")
        self.bodies_encoded += 1
        memo = None
        if self.node.network.parse_once:
            memo = FrameMemo()
            memo.store(
                GENA_MEMO_KEY, body, {k: str(v) for k, v in properties.items()}
            )
            self._parse_counter.note_seed()
        sent = 0
        for subscription in list(self.subscriptions.values()):
            self._notify_one(subscription, body, memo)
            sent += 1
        self.notifications_sent += sent
        return sent

    def _notify_one(
        self, subscription: Subscription, body: bytes, memo: FrameMemo | None = None
    ) -> None:
        host, port, path = parse_http_url(subscription.callback_url)
        headers = Headers(
            [
                ("HOST", f"{host}:{port}"),
                ("CONTENT-TYPE", 'text/xml; charset="utf-8"'),
                ("NT", "upnp:event"),
                ("NTS", "upnp:propchange"),
                ("SID", subscription.sid),
                ("SEQ", str(subscription.seq)),
                ("CONTENT-LENGTH", str(len(body))),
            ]
        )
        subscription.seq += 1
        request = HttpRequest(method="NOTIFY", target=path, headers=headers, body=body)

        def connected(connection) -> None:
            connection.send(request.render(), memo=memo)
            connection.close()

        self.node.tcp.connect(Endpoint(host, port), connected, on_error=lambda e: None)


def _decode_property_set(payload) -> Optional[dict[str, str]]:
    """Codec for :func:`repro.net.shared_decode`: None for bad bodies."""
    try:
        return parse_property_set(payload)
    except UpnpError:
        return None


EventHandler = Callable[[str, dict[str, str]], None]


class EventSubscriber:
    """Control-point-side GENA: subscribe and receive notifications."""

    def __init__(self, node: Node, callback_port: int = 5004):
        self.node = node
        self.callback_port = callback_port
        self._listener = node.tcp.listen(callback_port, self._on_connection)
        self.on_event: Optional[EventHandler] = None
        #: sid -> last SEQ seen.
        self.active: dict[str, int] = {}
        self.events_received = 0
        self._parse_counter = node.network.parse_counter("gena")

    @property
    def callback_url(self) -> str:
        return f"http://{self.node.address}:{self.callback_port}/event"

    def close(self) -> None:
        self._listener.close()

    def subscribe(
        self,
        event_sub_url: str,
        on_subscribed: Callable[[str], None] | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        """SUBSCRIBE to a service's eventSubURL."""
        host, port, path = parse_http_url(event_sub_url)
        headers = Headers(
            [
                ("HOST", f"{host}:{port}"),
                ("CALLBACK", f"<{self.callback_url}>"),
                ("NT", "upnp:event"),
                ("TIMEOUT", f"Second-{DEFAULT_SUBSCRIPTION_TIMEOUT_S}"),
            ]
        )
        request = HttpRequest(method="SUBSCRIBE", target=path, headers=headers)
        self._exchange(host, port, request, on_subscribed, on_error)

    def unsubscribe(self, event_sub_url: str, sid: str) -> None:
        host, port, path = parse_http_url(event_sub_url)
        headers = Headers([("HOST", f"{host}:{port}"), ("SID", sid)])
        request = HttpRequest(method="UNSUBSCRIBE", target=path, headers=headers)
        self.active.pop(sid, None)
        self._exchange(host, port, request, None, None)

    def _exchange(self, host, port, request, on_subscribed, on_error) -> None:
        parser = HttpStreamParser()

        def connected(connection) -> None:
            def handle_data(chunk: bytes) -> None:
                for message in parser.feed(chunk):
                    if isinstance(message, HttpResponse) and message.status == 200:
                        sid = message.headers.get("SID", "")
                        if sid:
                            self.active.setdefault(sid, -1)
                            if on_subscribed is not None:
                                on_subscribed(sid)
                    connection.close()

            connection.on_data(handle_data)
            connection.send(request.render())

        def handle_error(error: Exception) -> None:
            if on_error is not None:
                on_error(error)

        self.node.tcp.connect(Endpoint(host, port), connected, on_error=handle_error)

    def _on_connection(self, connection) -> None:
        parser = HttpStreamParser()

        def handle_data(chunk: bytes) -> None:
            for message in parser.feed(chunk):
                if not isinstance(message, HttpRequest) or message.method != "NOTIFY":
                    continue
                sid = message.headers.get("SID", "")
                seq = message.headers.get_int("SEQ", 0)
                if sid in self.active and seq <= self.active[sid] :
                    continue  # duplicate or reordered notification
                self.active[sid] = seq
                # Parse-once over TCP: the publisher seeds one memo per
                # event with the parsed property set, shared by the whole
                # subscriber fan-out; the bytes-equality guard inside the
                # memo keeps a mismatched body from being served.
                properties = shared_decode(
                    getattr(connection, "inbound_memo", None),
                    GENA_MEMO_KEY,
                    message.body,
                    _decode_property_set,
                    self._parse_counter,
                )
                if properties is None:
                    continue
                self.events_received += 1
                if self.on_event is not None:
                    # The decoded dict may be the memo entry shared by the
                    # whole subscriber fan-out: hand out a copy so one
                    # handler's mutation cannot leak into its siblings.
                    self.on_event(sid, dict(properties))
                connection.send(HttpResponse(status=200, reason="OK").render())

        connection.on_data(handle_data)


__all__ = [
    "EventPublisher",
    "EventSubscriber",
    "Subscription",
    "build_property_set",
    "parse_property_set",
    "DEFAULT_SUBSCRIPTION_TIMEOUT_S",
    "GENA_MEMO_KEY",
]
