"""The monitor component (paper §2.1, Figure 1).

Joins every configured SDP multicast group, listens on the registered
ports, and detects which SDPs are active "upon the arrival of the data at
the monitored ports without doing any computation, data interpretation or
data transformation".  Raw data plus the identified SDP are handed to the
raw handler (the INDISS bridge); detection callbacks let the adaptation
layer react to protocols appearing and disappearing.

Frames INDISS's own units send loop back to the monitor on their host.
The units' sockets stamp each frame with the monitor as its origin
(:attr:`repro.net.Datagram.origin`), so the monitor drops its own frames
by that token alone and keeps no per-send state.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..net import Datagram, Node, UdpSocket
from .parser import NetworkMeta
from .registry import IanaRegistry, default_registry


@dataclass
class SdpSighting:
    """Detection statistics for one SDP."""

    sdp_id: str
    first_seen_us: int
    last_seen_us: int
    messages: int = 0
    bytes: int = 0
    #: Frames whose decode memo already held an entry when this monitor
    #: saw them — i.e. the sender seeded the decode, or another receiver
    #: got there first.  ``frames_seeded / messages`` is the per-protocol
    #: share of monitored traffic that arrives pre-decoded, which is how
    #: the benchmarks attribute the parse-once win per SDP.
    frames_seeded: int = 0


RawHandler = Callable[[str, bytes, NetworkMeta], None]
DetectionHandler = Callable[[str], None]


class MonitorComponent:
    """Passive, port-keyed SDP detection on one node."""

    def __init__(
        self,
        node: Node,
        registry: IanaRegistry | None = None,
        scan: tuple[str, ...] | None = None,
        stale_after_us: int = 30_000_000,
    ):
        self.node = node
        self.registry = registry if registry is not None else default_registry()
        self.sightings: dict[str, SdpSighting] = {}
        self.on_detected: Optional[DetectionHandler] = None
        self.on_raw: Optional[RawHandler] = None
        self._stale_after_us = stale_after_us
        self._sockets: list[UdpSocket] = []

        sdp_ids = scan if scan is not None else tuple(self.registry.known_sdps())
        bound: set[int] = set()
        for sdp_id in sdp_ids:
            entry = self.registry.entry(sdp_id)
            for group, port in entry.groups:
                socket = self._listen(port, bound)
                socket.join_group(group)
            for port in entry.ports:
                self._listen(port, bound)

    def _listen(self, port: int, bound: set[int]) -> UdpSocket:
        for socket in self._sockets:
            if socket.port == port:
                return socket
        socket = self.node.udp.socket().bind(port, reuse=True)
        socket.on_datagram(self._on_datagram)
        self._sockets.append(socket)
        bound.add(port)
        return socket

    def close(self) -> None:
        for socket in self._sockets:
            socket.close()
        self._sockets.clear()

    # -- detection ----------------------------------------------------------------

    def _on_datagram(self, datagram: Datagram) -> None:
        if datagram.origin is self:
            return  # sent by this instance's units: never re-translated
        sdp_id = self.registry.sdp_for_port(datagram.destination.port)
        if sdp_id is None:
            return
        now = self.node.now_us
        sighting = self.sightings.get(sdp_id)
        newly_detected = sighting is None or (now - sighting.last_seen_us) > self._stale_after_us
        if sighting is None:
            sighting = SdpSighting(sdp_id=sdp_id, first_seen_us=now, last_seen_us=now)
            self.sightings[sdp_id] = sighting
        sighting.last_seen_us = now
        sighting.messages += 1
        sighting.bytes += len(datagram.payload)
        if newly_detected and self.on_detected is not None:
            self.on_detected(sdp_id)
        seeded = False
        if self.on_raw is not None:
            # Monitored frames fan out to every co-segment INDISS instance;
            # force the shared decode memo into existence so the first
            # unit parse is visible to all of them.
            if len(datagram.ensure_memo()):
                sighting.frames_seeded += 1
                seeded = True
        obs = self.node.network.obs
        if obs.on:
            self._obs_frame(datagram, sdp_id, now, newly_detected, seeded)
        if self.on_raw is not None:
            self.on_raw(sdp_id, datagram.payload, NetworkMeta.from_datagram(datagram))

    def _obs_frame(
        self, datagram: Datagram, sdp_id: str, now: int,
        newly_detected: bool, seeded: bool,
    ) -> None:
        """Flight-recorder instants for one monitored frame.

        ``frame`` is the payload crc32 — the identity that links this
        detection to the translation session the frame opens downstream.
        """
        obs = self.node.network.obs
        pid = self.node.network.partition_of_node(self.node)
        if newly_detected:
            obs.trace.instant(
                "monitor.detect", now, pid, tid=self.node.name, cat="monitor",
                args={"sdp": sdp_id},
            )
        obs.trace.instant(
            "monitor.rx", now, pid, tid=self.node.name, cat="monitor",
            args={
                "sdp": sdp_id,
                "frame": zlib.crc32(datagram.payload),
                "seeded": seeded,
            },
        )
        obs.metrics.counter("core.monitor.frames", sdp=sdp_id).inc()
        if seeded:
            obs.metrics.counter("core.monitor.seeded", sdp=sdp_id).inc()

    # -- queries ---------------------------------------------------------------------

    def detected_sdps(self, now_us: int | None = None) -> list[str]:
        """SDPs seen recently (within the staleness window)."""
        now = now_us if now_us is not None else self.node.now_us
        return sorted(
            sdp_id
            for sdp_id, sighting in self.sightings.items()
            if now - sighting.last_seen_us <= self._stale_after_us
        )

    def ever_detected(self) -> list[str]:
        return sorted(self.sightings)

    def parse_attribution(self) -> dict[str, dict[str, int]]:
        """Per-SDP monitored-frame counts and how many arrived pre-decoded.

        One row per detected protocol: ``frames`` is every monitored
        datagram, ``seeded`` the subset whose frame memo was already
        populated on arrival (sender seed or an earlier receiver's decode).
        """
        return {
            sdp_id: {"frames": sighting.messages, "seeded": sighting.frames_seeded}
            for sdp_id, sighting in self.sightings.items()
        }


__all__ = ["MonitorComponent", "SdpSighting"]
