"""A simplified, reliable, ordered TCP abstraction for the simulator.

UPnP needs TCP for HTTP (description and control), and Jini's unicast
discovery runs over TCP.  The model charges realistic costs without
simulating segments and retransmission:

* ``connect`` costs a three-message handshake (SYN, SYN-ACK, ACK) at the
  segment's per-message latency before the connection callbacks fire;
* each ``send`` is delivered in order after latency + serialization delay;
* ``close`` propagates an EOF to the peer.

Connections are reliable by construction; datagram loss (``LossModel``)
applies only to UDP, as in the real protocols' assumptions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .addressing import Endpoint, validate_port
from .errors import ConnectionRefusedError, NotBoundError, PortInUseError, SocketClosedError

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

DataHandler = Callable[[bytes], None]
CloseHandler = Callable[[], None]
ConnectHandler = Callable[["TcpConnection"], None]
ErrorHandler = Callable[[Exception], None]


class TcpConnection:
    """One endpoint of an established simulated TCP connection."""

    def __init__(self, node: "Node", local: Endpoint, remote: Endpoint):
        self._node = node
        self.local = local
        self.remote = remote
        self._peer: Optional["TcpConnection"] = None
        self._data_handler: Optional[DataHandler] = None
        self._close_handler: Optional[CloseHandler] = None
        self._closed = False
        #: The stack this connection is registered with while it is open.
        self._stack = node.tcp
        self._stack._connections.add(self)
        self._recv_buffer: list[tuple[bytes, object]] = []
        #: Decode memo attached to the chunk currently being delivered to
        #: the data handler (``None`` outside delivery).  This is the TCP
        #: leg of parse-once: a sender fanning one encoded message out to
        #: many connections passes the same seeded
        #: :class:`~repro.net.udp.FrameMemo` to every ``send``, and each
        #: receiver's handler reads it here to skip the decode (GENA's
        #: NOTIFY property-set fan-out).
        self.inbound_memo = None
        #: Virtual time at which the last inbound chunk will have arrived;
        #: used to keep per-direction FIFO ordering.
        self._last_arrival_us = 0
        self.bytes_sent = 0

    # -- wiring --------------------------------------------------------------

    def _attach_peer(self, peer: "TcpConnection") -> None:
        self._peer = peer

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def is_loopback(self) -> bool:
        return self.local.host == self.remote.host

    def on_data(self, handler: DataHandler) -> "TcpConnection":
        """Attach the receive callback; buffered chunks are flushed to it."""
        self._data_handler = handler
        if self._recv_buffer:
            pending, self._recv_buffer = self._recv_buffer, []
            for chunk, memo in pending:
                self.inbound_memo = memo
                try:
                    handler(chunk)
                finally:
                    self.inbound_memo = None
        return self

    def on_close(self, handler: CloseHandler) -> "TcpConnection":
        self._close_handler = handler
        return self

    # -- I/O -------------------------------------------------------------------

    def send(self, data: bytes, memo=None) -> None:
        """Queue ``data`` for in-order delivery to the peer.

        ``memo`` optionally attaches a decode memo the receiver's data
        handler can consult via :attr:`inbound_memo` — the sender seeds it
        with the structured form of an encoded message so no receiver of
        the fan-out pays the decode (see ``repro.sdp.upnp.gena``).
        """
        if self._closed:
            if self._stack._crashed:
                # The owning process crash-stopped: sends from stale timers
                # drop silently (no FIN ever went out — the peer only
                # notices through its own timeouts).
                return
            raise SocketClosedError("send on closed TCP connection")
        if self._peer is None:
            raise SocketClosedError("connection has no peer")
        data = bytes(data)
        self.bytes_sent += len(data)
        network = self._node.network
        delay = network.unicast_delay_us(
            self._node, self.remote.host, len(data), loopback=self.is_loopback
        )
        if delay is None:
            # Established connections outlive routing lookups (the peer may
            # be a synthetic endpoint); charge the default segment cost.
            delay = network.latency.delay_us(len(data), loopback=self.is_loopback)
        peer = self._peer
        scheduler = network.scheduler_for(self._node)
        arrival = max(scheduler.now_us + delay, peer._last_arrival_us + 1)
        peer._last_arrival_us = arrival
        network.traffic.record(scheduler.now_us, len(data))
        network.trace_message("tcp", self.local, self.remote, data)
        scheduler.schedule_at(
            arrival, lambda: peer._receive(data, memo), label="tcp-data"
        )

    def _receive(self, data: bytes, memo=None) -> None:
        if self._closed:
            return
        if self._data_handler is not None:
            self.inbound_memo = memo
            try:
                self._data_handler(data)
            finally:
                self.inbound_memo = None
        else:
            self._recv_buffer.append((data, memo))

    def close(self) -> None:
        """Close this side; the peer sees EOF one latency later.

        The FIN is sequenced behind any in-flight data on this direction so
        it can never overtake bytes already sent.
        """
        if self._closed:
            return
        self._closed = True
        self._stack._connections.discard(self)
        peer = self._peer
        if peer is not None and not peer._closed:
            network = self._node.network
            delay = network.unicast_delay_us(
                self._node, self.remote.host, 0, loopback=self.is_loopback
            )
            if delay is None:
                delay = network.latency.delay_us(0, loopback=self.is_loopback)
            scheduler = network.scheduler_for(self._node)
            arrival = max(scheduler.now_us + delay, peer._last_arrival_us + 1)
            peer._last_arrival_us = arrival
            scheduler.schedule_at(arrival, peer._peer_closed, label="tcp-fin")

    def _peer_closed(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stack._connections.discard(self)
        if self._close_handler is not None:
            self._close_handler()


class TcpListener:
    """A passive TCP endpoint accepting simulated connections."""

    def __init__(self, node: "Node", port: int, on_connection: ConnectHandler):
        self._node = node
        self.port = port
        self._on_connection = on_connection
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._node.tcp.unregister(self.port)

    def _accept(self, remote: Endpoint, local_port: int) -> TcpConnection:
        local = Endpoint(self._node.address, local_port)
        return TcpConnection(self._node, local, remote)


class TcpStack:
    """Per-node listener table plus the connect state machine."""

    EPHEMERAL_BASE = 32768

    def __init__(self, node: "Node"):
        self._node = node
        self._listeners: dict[int, TcpListener] = {}
        #: Open connections this node opened or accepted, for crash-stop
        #: teardown and the ports a wrapped ephemeral cursor skips.  A
        #: connection leaves the moment it closes, so the set follows the
        #: live connections, not how many a run has made.  Only membership
        #: is ever read, never the order.
        self._connections: set[TcpConnection] = set()
        #: Set by :meth:`crash`.  A connection of this stack that closed
        #: before the crash is no longer in :attr:`_connections`; its
        #: stale sends read this flag to stay silent too.
        self._crashed = False
        #: Ephemeral ports handed out so far, plus :attr:`EPHEMERAL_BASE`.
        self._next_ephemeral = self.EPHEMERAL_BASE

    def listen(self, port: int, on_connection: ConnectHandler) -> TcpListener:
        validate_port(port)
        if port in self._listeners:
            raise PortInUseError(f"TCP port {port} already listening on {self._node.name}")
        listener = TcpListener(self._node, port, on_connection)
        self._listeners[port] = listener
        return listener

    def unregister(self, port: int) -> None:
        self._listeners.pop(port, None)

    def crash(self) -> None:
        """Crash-stop teardown: listeners stop accepting and every
        connection dies *without a FIN* — unlike :meth:`TcpConnection.close`
        the peer is never told, so in-flight chunks addressed to this node
        are swallowed by the receive-side closed guard and the survivor
        only learns through its own application-level timeouts (the real
        crash-stop failure signature)."""
        self._crashed = True
        for listener in list(self._listeners.values()):
            listener.close()
        for connection in self._connections:
            connection._closed = True
        self._connections.clear()

    def listener_for(self, port: int) -> TcpListener | None:
        listener = self._listeners.get(port)
        if listener is not None and listener.closed:
            return None
        return listener

    def ephemeral_port(self) -> int:
        """The next port from a cursor that wraps from 65535 back to
        :attr:`EPHEMERAL_BASE`.  After the first wrap it skips ports this
        node's open connections hold, and raises only when all are held."""
        span = 65536 - self.EPHEMERAL_BASE
        held = ()
        if self._next_ephemeral > 65535:  # wrapped
            held = {c.local.port for c in self._connections}
        for _ in range(span):
            port = self.EPHEMERAL_BASE + (self._next_ephemeral - self.EPHEMERAL_BASE) % span
            self._next_ephemeral += 1
            if port not in held:
                return port
        raise NotBoundError("ephemeral port space exhausted")

    def connect(
        self,
        remote: Endpoint,
        on_connected: ConnectHandler,
        on_error: ErrorHandler | None = None,
    ) -> None:
        """Open a connection; callbacks fire after the simulated handshake.

        The handshake charges three per-message latencies (SYN, SYN-ACK,
        ACK).  When nothing listens on the remote port the error callback
        fires after one round trip, like a RST.
        """
        network = self._node.network
        local = Endpoint(self._node.address, self.ephemeral_port())
        loopback = remote.host == self._node.address

        remote_node = network.node_at(remote.host)
        if (
            remote_node is not None
            and network.engine is not None
            and network.partition_of_node(remote_node)
            != network.partition_of_node(self._node)
        ):
            # The stream abstraction schedules both directions on one
            # scheduler; across districts that would race the lookahead
            # window.  District-crossing scenarios use UDP (as the paper's
            # discovery traffic does).
            raise ConnectionRefusedError(
                f"TCP across districts is not supported by the partitioned "
                f"engine: {self._node.name} -> {remote}"
            )
        one_way = network.unicast_delay_us(self._node, remote.host, 0, loopback=loopback)

        def refused() -> None:
            error = ConnectionRefusedError(f"connection refused: {remote}")
            if on_error is not None:
                on_error(error)

        if remote_node is None or one_way is None:
            # Unknown host, no link path between the segments, or a
            # detached (churned-out) sender: RST-like failure after one
            # round trip on the sender's own segment.
            if self._node.segments:
                rtt = 2 * self._node.segment.delay_us(0, loopback=loopback)
            else:
                rtt = 2 * network.latency.delay_us(0, loopback=loopback)
            network.scheduler_for(self._node).schedule(rtt, refused, label="tcp-noroute")
            return

        def complete_handshake() -> None:
            listener = remote_node.tcp.listener_for(remote.port)
            if listener is None:
                refused()
                return
            client_side = TcpConnection(self._node, local, remote)
            server_side = listener._accept(local, remote.port)
            client_side._attach_peer(server_side)
            server_side._attach_peer(client_side)
            # The server learns of the connection when the final ACK lands;
            # the client may start sending immediately after.
            listener._on_connection(server_side)
            on_connected(client_side)

        # SYN + SYN-ACK + ACK before data can flow.
        scheduler = network.scheduler_for(self._node)
        network.traffic.record(scheduler.now_us, 40)
        scheduler.schedule(3 * one_way, complete_handshake, label="tcp-handshake")


__all__ = ["TcpConnection", "TcpListener", "TcpStack"]
