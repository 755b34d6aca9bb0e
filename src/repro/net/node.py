"""A host attached to the simulated LAN."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .simclock import EventHandle, PeriodicTask, Timer
from .tcp import TcpStack
from .udp import UdpStack

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network
    from .segment import Segment


class Node:
    """One host that exists as an object: an address plus its UDP and TCP
    stacks.  A reserved idle host (``Network.reserve_hosts``) has no
    ``Node`` until its address is first looked up.

    Application components (SDP agents, INDISS) hold a reference to their
    node and reach the shared scheduler through it, so co-located components
    naturally share a clock and loopback path — the property Figures 8 and 9
    of the paper exploit.
    """

    def __init__(self, network: "Network", name: str, address: str):
        self.network = network
        self.name = name
        self.address = address
        # Stacks are created on first use: most hosts never open a socket.
        self._udp: UdpStack | None = None
        self._tcp: TcpStack | None = None
        #: Segments this host has an interface on; populated by
        #: :meth:`repro.net.segment.Segment.attach`.  A gateway host
        #: bridged across two LANs has two entries.
        self.segments: list["Segment"] = []
        #: Cached district id under a partition-aware network; remembered
        #: across detach windows so a churned-out host keeps scheduling on
        #: its home partition's shard.
        self._pid: int | None = None

    @property
    def udp(self) -> UdpStack:
        stack = self._udp
        if stack is None:
            stack = self._udp = UdpStack(self)
        return stack

    @property
    def tcp(self) -> TcpStack:
        stack = self._tcp
        if stack is None:
            stack = self._tcp = TcpStack(self)
        return stack

    @property
    def udp_stack(self) -> UdpStack | None:
        """The UDP stack if one exists — a peek that never instantiates
        (delivery and attach paths use it to skip socketless hosts)."""
        return self._udp

    @property
    def segment(self) -> "Segment":
        """The host's primary (first-attached) segment."""
        if not self.segments:
            raise RuntimeError(f"node {self.name!r} is not attached to any segment")
        return self.segments[0]

    # -- scheduling conveniences -------------------------------------------

    @property
    def now_us(self) -> int:
        return self.network.scheduler_for(self).now_us

    def schedule(self, delay_us: int, callback: Callable[[], None], label: str = "") -> EventHandle:
        return self.network.scheduler_for(self).schedule(delay_us, callback, label=label)

    def timer(self, callback: Callable[[], None]) -> Timer:
        return Timer(self.network.scheduler_for(self), callback)

    def every(
        self,
        period_us: int,
        callback: Callable[[], None],
        initial_delay_us: int | None = None,
        max_firings: int | None = None,
    ) -> PeriodicTask:
        return PeriodicTask(
            self.network.scheduler_for(self),
            period_us,
            callback,
            initial_delay_us=initial_delay_us,
            max_firings=max_firings,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Node({self.name!r}, {self.address})"


__all__ = ["Node"]
