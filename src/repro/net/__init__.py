"""Simulated network substrate (S1 in DESIGN.md).

A deterministic, virtual-time LAN with UDP + multicast + simplified TCP,
standing in for the paper's real 10 Mb/s segment.  See DESIGN.md §2 for the
substitution rationale.
"""

from .addressing import (
    ANY,
    BROADCAST,
    Endpoint,
    LOOPBACK,
    is_multicast,
    is_valid_ipv4,
    validate_port,
)
from .errors import (
    AddressError,
    ConnectionRefusedError,
    NetworkError,
    NoRouteError,
    NotBoundError,
    PortInUseError,
    SocketClosedError,
)
from .latency import (
    GilbertElliottLoss,
    LatencyModel,
    LossModel,
    edge_seed,
    make_loss_model,
)
from .network import Network, TraceRecord
from .node import Node
from .segment import Bridge, DEFAULT_LINK_LATENCY_US, Link, Router, Segment
from .simclock import (
    MILLISECOND,
    SECOND,
    EventHandle,
    PeriodicTask,
    Scheduler,
    Timer,
    ms_to_us,
    us_to_ms,
)
from .tcp import TcpConnection, TcpListener, TcpStack
from .tracefmt import classify_payload, format_trace
from .traffic import UTILIZATION_WINDOW_US, TrafficMonitor
from .udp import (
    Datagram,
    FrameMemo,
    MEMO_MISS,
    Memo,
    NULL_MEMO,
    NullFrameMemo,
    ParseCounter,
    ReceiveFilter,
    UdpSocket,
    UdpStack,
    shared_decode,
)

__all__ = [
    "ANY",
    "BROADCAST",
    "LOOPBACK",
    "MILLISECOND",
    "SECOND",
    "UTILIZATION_WINDOW_US",
    "AddressError",
    "Bridge",
    "ConnectionRefusedError",
    "DEFAULT_LINK_LATENCY_US",
    "Datagram",
    "FrameMemo",
    "MEMO_MISS",
    "Memo",
    "NULL_MEMO",
    "NullFrameMemo",
    "ParseCounter",
    "ReceiveFilter",
    "shared_decode",
    "Endpoint",
    "EventHandle",
    "GilbertElliottLoss",
    "LatencyModel",
    "Link",
    "LossModel",
    "Network",
    "NetworkError",
    "NoRouteError",
    "Node",
    "NotBoundError",
    "PeriodicTask",
    "PortInUseError",
    "Router",
    "Scheduler",
    "Segment",
    "SocketClosedError",
    "TcpConnection",
    "TcpListener",
    "TcpStack",
    "Timer",
    "TraceRecord",
    "TrafficMonitor",
    "UdpSocket",
    "UdpStack",
    "classify_payload",
    "edge_seed",
    "format_trace",
    "make_loss_model",
    "is_multicast",
    "is_valid_ipv4",
    "ms_to_us",
    "us_to_ms",
    "validate_port",
]
