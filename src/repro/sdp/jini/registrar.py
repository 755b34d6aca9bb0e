"""The Jini lookup service (a reggie-lite registrar).

Jini is the paper's canonical *repository-based* SDP: clients and services
must first discover the registrar (actively via multicast request, or
passively from its announcements), then talk to it over TCP.  The unicast
protocol here is a simple tagged request/response stream built on
:mod:`repro.sdp.jini.codec`:

* ``REGISTER item`` -> ``OK service_id``
* ``LOOKUP template`` -> ``ITEMS n item...``
* ``UNREGISTER service_id`` -> ``OK service_id``
"""

from __future__ import annotations

from dataclasses import dataclass

from ...net import Endpoint, Node
from .codec import StreamReader, StreamWriter
from .constants import (
    DEFAULT_ANNOUNCE_PERIOD_US,
    DEFAULT_REGISTRAR_TCP_PORT,
    JINI_ANNOUNCEMENT_GROUP,
    JINI_PORT,
    JINI_REQUEST_GROUP,
    PUBLIC_GROUP,
)
from .discovery import (
    JINI_MEMO_KEY,
    MulticastAnnouncement,
    MulticastRequest,
    ServiceItem,
    ServiceTemplate,
    decode_packet_shared,
    groups_overlap,
    next_service_id,
)
from .errors import JiniDecodeError

#: Unicast stream operation tags.
OP_REGISTER = 0x10
OP_LOOKUP = 0x11
OP_UNREGISTER = 0x12
OP_RENEW = 0x13
OP_OK = 0x20
OP_ITEMS = 0x21
OP_ERROR = 0x2F

#: Default lease granted to registrations (seconds); Jini's reggie default
#: is 5 minutes, scaled to keep simulations short.
DEFAULT_LEASE_S = 60


@dataclass
class JiniTimings:
    """Processing delays (microseconds) for the Jini stack."""

    request_handle_us: int = 200
    lookup_us: int = 300
    register_us: int = 300
    announce_build_us: int = 100


class LookupService:
    """A registrar on one node."""

    def __init__(
        self,
        node: Node,
        groups: tuple[str, ...] = (PUBLIC_GROUP,),
        tcp_port: int = DEFAULT_REGISTRAR_TCP_PORT,
        announce_period_us: int = DEFAULT_ANNOUNCE_PERIOD_US,
        timings: JiniTimings | None = None,
        service_id_seed: int = 1000,
        lease_s: int = DEFAULT_LEASE_S,
    ):
        self.node = node
        self.groups = groups
        self.tcp_port = tcp_port
        self.timings = timings if timings is not None else JiniTimings()
        self.service_id = next_service_id(service_id_seed)
        self.registry: dict[str, ServiceItem] = {}
        #: Jini's lease model: each registration expires unless renewed.
        #: Entries placed directly into ``registry`` (e.g. by the INDISS
        #: cache mirror) have no lease and never expire.
        self.lease_s = lease_s
        self._lease_expiry_us: dict[str, int] = {}
        self._id_counter = service_id_seed
        self.leases_expired = 0
        self._parse_counter = node.network.parse_counter("jini")
        #: Encode-once announcement: the packet's fields never change, so
        #: the wire bytes (and the packet seeding each frame's memo) are
        #: built exactly once.
        self._announcement: tuple[bytes, MulticastAnnouncement] | None = None

        self._request_socket = node.udp.socket().bind(JINI_PORT, reuse=True)
        self._request_socket.join_group(JINI_REQUEST_GROUP)
        self._request_socket.on_datagram(self._on_request_packet)
        self._announce_socket = node.udp.socket()
        self._listener = node.tcp.listen(tcp_port, self._on_connection)
        self._announce_task = node.every(
            announce_period_us, self.announce, initial_delay_us=announce_period_us // 2
        )

    def stop(self) -> None:
        self._announce_task.stop()
        self._listener.close()
        self._request_socket.close()

    # -- multicast side ------------------------------------------------------

    def announce(self) -> None:
        if self._announcement is None:
            packet = MulticastAnnouncement(
                host=self.node.address,
                port=self.tcp_port,
                service_id=self.service_id,
                groups=self.groups,
            )
            self._announcement = (packet.encode(), packet)
        payload, packet = self._announcement

        def transmit() -> None:
            self._parse_counter.note_seed()
            self._announce_socket.sendto(
                payload,
                Endpoint(JINI_ANNOUNCEMENT_GROUP, JINI_PORT),
                decode_hint=(JINI_MEMO_KEY, packet),
            )

        self.node.schedule(self.timings.announce_build_us, transmit)

    def _on_request_packet(self, datagram) -> None:
        packet = decode_packet_shared(
            datagram.payload, datagram.ensure_memo(), self._parse_counter
        )
        if not isinstance(packet, MulticastRequest):
            return
        if self.service_id in packet.heard:
            return
        if not groups_overlap(packet.groups, self.groups):
            return

        def respond() -> None:
            # Unicast discovery: connect back and announce ourselves.
            def connected(connection) -> None:
                writer = StreamWriter()
                writer.write_utf(self.service_id)
                writer.write_utf(self.node.address)
                writer.write_int(self.tcp_port)
                writer.write_utf_list(self.groups)
                connection.send(writer.getvalue())
                connection.close()

            self.node.tcp.connect(
                Endpoint(packet.response_host, packet.response_port), connected
            )

        self.node.schedule(self.timings.request_handle_us, respond)

    # -- unicast lookup protocol ------------------------------------------------

    def _on_connection(self, connection) -> None:
        buffer = bytearray()

        def handle_data(chunk: bytes) -> None:
            buffer.extend(chunk)
            self._try_serve(connection, buffer)

        connection.on_data(handle_data)

    def _try_serve(self, connection, buffer: bytearray) -> None:
        # Frame: 4-byte length prefix, then the tagged payload.
        while True:
            if len(buffer) < 4:
                return
            length = int.from_bytes(buffer[:4], "big")
            if len(buffer) < 4 + length:
                return
            payload = bytes(buffer[4 : 4 + length])
            del buffer[: 4 + length]
            self._serve_one(connection, payload)

    def _serve_one(self, connection, payload: bytes) -> None:
        try:
            reader = StreamReader(payload)
            op = reader.read_byte()
            if op == OP_REGISTER:
                item = ServiceItem.decode(reader)
                delay = self.timings.register_us
                self.node.schedule(delay, lambda: self._do_register(connection, item))
            elif op == OP_LOOKUP:
                template = ServiceTemplate.decode(reader)
                delay = self.timings.lookup_us
                self.node.schedule(delay, lambda: self._do_lookup(connection, template))
            elif op == OP_UNREGISTER:
                service_id = reader.read_utf()
                self.registry.pop(service_id, None)
                self._lease_expiry_us.pop(service_id, None)
                self._reply(connection, _ok(service_id))
            elif op == OP_RENEW:
                service_id = reader.read_utf()
                if service_id in self.registry:
                    self._grant_lease(service_id)
                    self._reply(connection, _ok(service_id))
                else:
                    self._reply(connection, _error(f"unknown lease {service_id}"))
            else:
                self._reply(connection, _error(f"unknown op {op:#04x}"))
        except JiniDecodeError as exc:
            self._reply(connection, _error(str(exc)))

    def _do_register(self, connection, item: ServiceItem) -> None:
        if not item.service_id:
            self._id_counter += 1
            item = ServiceItem(
                service_id=next_service_id(self._id_counter),
                class_names=item.class_names,
                attributes=item.attributes,
                endpoint_url=item.endpoint_url,
            )
        self.registry[item.service_id] = item
        self._grant_lease(item.service_id)
        self._reply(connection, _ok(item.service_id))

    def _grant_lease(self, service_id: str) -> None:
        self._lease_expiry_us[service_id] = self.node.now_us + self.lease_s * 1_000_000

    def _evict_expired_leases(self) -> None:
        now = self.node.now_us
        expired = [sid for sid, t in self._lease_expiry_us.items() if t <= now]
        for sid in expired:
            del self._lease_expiry_us[sid]
            if self.registry.pop(sid, None) is not None:
                self.leases_expired += 1

    def _do_lookup(self, connection, template: ServiceTemplate) -> None:
        self._evict_expired_leases()
        matches = [item for item in self.registry.values() if template.matches(item)]
        writer = StreamWriter()
        writer.write_byte(OP_ITEMS)
        writer.write_int(len(matches))
        for item in matches:
            item.encode(writer)
        self._reply(connection, writer.getvalue())

    def _reply(self, connection, payload: bytes) -> None:
        if not connection.closed:
            connection.send(len(payload).to_bytes(4, "big") + payload)


def _ok(service_id: str) -> bytes:
    writer = StreamWriter()
    writer.write_byte(OP_OK)
    writer.write_utf(service_id)
    return writer.getvalue()


def _error(message: str) -> bytes:
    writer = StreamWriter()
    writer.write_byte(OP_ERROR)
    writer.write_utf(message)
    return writer.getvalue()


def frame(payload: bytes) -> bytes:
    """Length-prefix one unicast protocol payload."""
    return len(payload).to_bytes(4, "big") + payload


__all__ = [
    "LookupService",
    "JiniTimings",
    "OP_REGISTER",
    "OP_LOOKUP",
    "OP_UNREGISTER",
    "OP_OK",
    "OP_ITEMS",
    "OP_ERROR",
    "frame",
]
