"""Context-aware self-adaptation (paper §3 and Figure 6).

When clients and services are both *passive* (clients listen, services
listen), nothing on the network initiates discovery in a protocol INDISS
can translate, and the side hosting INDISS is blocked (Fig. 6 top right).
The paper's answer: "we must define a network traffic threshold below
which INDISS, hosted on the service host, must become active so as to
intercept messages generated from the local services in order to translate
them to any known SDPs".

The manager here does exactly that: it samples network-wide utilization
(or any source it is given, such as one segment's) and toggles the
instance's advertisement-translation (active) mode — on when the network
is quiet, off when traffic exceeds the threshold, so interoperability
never saturates the bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net import UTILIZATION_WINDOW_US, Node
from .indiss import Indiss


def segment_utilization(
    node: Node, segment: str | None = None, window_us: int = UTILIZATION_WINDOW_US
) -> float:
    """Trailing-window utilization of one of ``node``'s attached segments.

    With ``segment=None`` the *worst* (highest) utilization across every
    attached segment is returned — the conservative reading a multi-homed
    gateway should adapt to.  This is the per-segment refinement of the
    Fig. 6 traffic threshold: the network-wide monitor sees the sum of all
    LANs, while a boundary-placed instance cares about each LAN it serves.
    The federation layer's :class:`~repro.federation.GatewayElector` ranks
    fleet members with exactly this measurement.
    """
    now = node.network.scheduler.now_us
    segments = node.segments
    if segment is not None:
        segments = [s for s in segments if s.name == segment]
    return max(
        (s.traffic.utilization(now, window_us) for s in segments), default=0.0
    )


@dataclass
class AdaptationEvent:
    """One recorded mode flip (for tests and the Fig. 6 benchmark)."""

    time_us: int
    active: bool
    utilization: float


class AdaptationManager:
    """Traffic-threshold-driven passive/active reconfiguration."""

    def __init__(
        self,
        indiss: Indiss,
        threshold: float = 0.05,
        check_period_us: int = 500_000,
        window_us: int = UTILIZATION_WINDOW_US,
        readvertise_period_us: int = 1_000_000,
        utilization_source: Optional[Callable[[], float]] = None,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.indiss = indiss
        self.threshold = threshold
        self.window_us = window_us
        #: Pluggable measurement: defaults to the network-wide monitor
        #: (the paper's single-segment testbed), which keeps totals only
        #: until this manager retains its window; pass e.g.
        #: ``lambda: segment_utilization(node, "leaf0")`` to adapt to one
        #: LAN of a multi-homed gateway.
        self.utilization_source = utilization_source
        if utilization_source is None:
            indiss.node.network.traffic.retain(window_us)
        self.active = False
        self.history: list[AdaptationEvent] = []
        self._check_task = indiss.node.every(
            check_period_us, self._check, initial_delay_us=check_period_us
        )
        self._readvertise_period_us = readvertise_period_us
        self._readvertise_task = None

    def stop(self) -> None:
        self._check_task.stop()
        if self._readvertise_task is not None:
            self._readvertise_task.stop()
            self._readvertise_task = None

    # -- the control loop ---------------------------------------------------

    def current_utilization(self) -> float:
        if self.utilization_source is not None:
            return self.utilization_source()
        network = self.indiss.node.network
        return network.traffic.utilization(network.scheduler.now_us, self.window_us)

    def _check(self) -> None:
        utilization = self.current_utilization()
        should_be_active = utilization < self.threshold
        if should_be_active and not self.active:
            self._enter_active(utilization)
        elif not should_be_active and self.active:
            self._enter_passive(utilization)

    def _enter_active(self, utilization: float) -> None:
        self.active = True
        self.indiss.config.translate_advertisements = True
        self.history.append(
            AdaptationEvent(self.indiss.node.now_us, True, utilization)
        )
        self._notify_mode_switch("active", utilization)
        self._readvertise_task = self.indiss.node.every(
            self._readvertise_period_us, self._readvertise, initial_delay_us=0
        )

    def _enter_passive(self, utilization: float) -> None:
        self.active = False
        self.indiss.config.translate_advertisements = False
        self.history.append(
            AdaptationEvent(self.indiss.node.now_us, False, utilization)
        )
        self._notify_mode_switch("passive", utilization)
        if self._readvertise_task is not None:
            self._readvertise_task.stop()
            self._readvertise_task = None

    def _notify_mode_switch(self, mode: str, utilization: float) -> None:
        """Publish an SDP_C_SOCKET_SWITCH control stream to registered
        listeners (paper §2.3: control events let upper layers trace the
        run-time reconfiguration)."""
        from .events import Event, SDP_C_SOCKET_SWITCH, bracket
        from .parser import NetworkMeta

        stream = bracket(
            [Event.of(SDP_C_SOCKET_SWITCH, mode=mode, utilization=round(utilization, 4))],
            source="adaptation-manager",
        )
        for listener in self.indiss.stream_listeners:
            listener("control", stream, NetworkMeta())

    def _readvertise(self) -> None:
        """Push every cached record out through the other units."""
        if not self.active:
            return
        for record in self.indiss.cache.lookup_any():
            self.indiss.readvertise(record, exclude="")


__all__ = ["AdaptationManager", "AdaptationEvent", "segment_utilization"]
