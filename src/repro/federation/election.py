"""Route-aware responder election for a gateway fleet (extends Fig. 6).

The paper's adaptation manager flips one instance between passive and
active from a *network-wide* traffic threshold.  A fleet on a shared
backbone needs the per-segment refinement: when several gateways could all
answer a backbone request from their (gossip-warmed) caches, exactly one
should — and it should be the one whose *edge* LANs are quietest, so the
answer costs bandwidth where there is bandwidth to spare.

:class:`GatewayElector` ranks fleet members by the
:func:`repro.core.adaptation.segment_utilization` of their non-backbone
segments (ties broken by member id, so elections are deterministic) and
holds each election for ``hold_us`` of virtual time — hysteresis against
electing a different responder for every request while utilization
fluctuates.  By default every member evaluates the same shared traffic
monitors, so the fleet agrees on the responder without extra protocol
traffic.

With the fleet's ``wire_utilization`` knob on, the election instead ranks
from **wire-carried samples**: each member's gossip digests piggyback its
locally measured load, peers collect the samples on their handle's board,
and :meth:`GatewayElector.responder` evaluates from the *viewer's* board
(own load measured locally; an unheard peer ranks worst).  Members can
then genuinely disagree while partitioned — the disagreement window the
adversity benchmarks measure via :meth:`GatewayElector.disagreement` —
and re-converge as gossip resumes.  Elections that flip a viewer's choice
count as ``election.flap`` on the flight recorder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.adaptation import segment_utilization
from ..net import UTILIZATION_WINDOW_US

if TYPE_CHECKING:  # pragma: no cover
    from .fleet import GatewayFleet


class GatewayElector:
    """Per-(segment, service-type) responder election for one fleet."""

    def __init__(
        self,
        fleet: "GatewayFleet",
        window_us: int = UTILIZATION_WINDOW_US,
        hold_us: int = 1_000_000,
    ):
        if window_us > UTILIZATION_WINDOW_US:
            raise ValueError(
                f"election window {window_us} µs exceeds the "
                f"{UTILIZATION_WINDOW_US} µs that segments retain"
            )
        self.fleet = fleet
        self.window_us = window_us
        self.hold_us = hold_us
        #: (viewer, service_type, excluded-members) -> (elected_at_us,
        #: member_id).  ``viewer`` is "" on the shared-monitor path, so
        #: wire-mode keys never collide with classic ones.
        self._elected: dict[
            tuple[str, str, tuple[str, ...]], tuple[int, str]
        ] = {}
        #: Every (time_us, service_type, member_id) decision, for tests and
        #: the Fig. 6-style benchmark traces.
        self.history: list[tuple[int, str, str]] = []
        #: Elections that *changed* an existing choice for the same key —
        #: the flapping measure the adversity bench reads.
        self.flaps: int = 0

    def member_load(self, member_id: str) -> float:
        """A member's edge-side load: the worst utilization among its
        non-backbone segments (its own leaf LANs).

        A member homed only on the backbone is ranked by the backbone
        itself — it has no edge to protect.
        """
        member = self.fleet.members.get(member_id)
        if member is None:
            return float("inf")
        node = member.indiss.node
        edge_segments = [
            seg.name for seg in node.segments if seg.name != self.fleet.segment_name
        ]
        if not edge_segments:
            return segment_utilization(
                node, self.fleet.segment_name, window_us=self.window_us
            )
        return max(
            segment_utilization(node, name, window_us=self.window_us)
            for name in edge_segments
        )

    def _viewed_load(self, viewer: str, member_id: str) -> float:
        """``member_id``'s load as ``viewer`` sees it from wire samples.

        The viewer's own load is measured locally (a member always knows
        its own segments); a peer it has no sample for ranks worst — an
        unheard peer may be unreachable, so electing it risks silence.
        """
        if member_id == viewer:
            return self.member_load(member_id)
        member = self.fleet.members.get(viewer)
        if member is None:
            return float("inf")
        sample = member.handle.util_samples.get(member_id)
        return sample[1] if sample is not None else float("inf")

    def responder(
        self,
        service_type: str,
        exclude: frozenset[str] = frozenset(),
        viewer: Optional[str] = None,
    ) -> Optional[str]:
        """The member elected to answer backbone requests for this type.

        ``exclude`` removes candidates — the requester of a forwarded
        request, when it is itself a fleet member, must not be elected to
        answer its own question.  ``viewer`` names the member asking; with
        the fleet's ``wire_utilization`` knob on, the ranking then uses
        that member's wire-sample board (and hysteresis is held per
        viewer), so partitioned members can disagree.  Without the knob,
        ``viewer`` is ignored and the classic shared-monitor election is
        byte-identical to before.
        """
        # Electability filters the board: a detached member (Fault-step
        # victim whose segments are gone) or a crashed/suspect/dead one
        # cannot hear the request it would be elected to answer, so
        # electing it guarantees silence.  Detector off + no churn leaves
        # every member electable — the classic board, byte-identical.
        candidates = [
            m
            for m in self.fleet.members
            if m not in exclude and self.fleet.is_electable(m)
        ]
        if not candidates:
            return None
        wire = self.fleet.wire_utilization and viewer is not None
        now = self.fleet.network.scheduler.now_us
        key = (viewer if wire else "", service_type, tuple(sorted(exclude)))
        held = self._elected.get(key)
        if held is not None and now - held[0] < self.hold_us and held[1] in candidates:
            return held[1]
        if wire:
            elected = min(
                candidates, key=lambda m: (self._viewed_load(viewer, m), m)
            )
        else:
            elected = min(candidates, key=lambda m: (self.member_load(m), m))
        if held is not None and held[1] != elected:
            self.flaps += 1
            self._obs_flap(key[0], service_type, now)
        self._elected[key] = (now, elected)
        if not self.history or self.history[-1][1:] != (service_type, elected):
            self.history.append((now, service_type, elected))
        return elected

    def _obs_flap(self, viewer: str, service_type: str, now: int) -> None:
        obs = self.fleet.network.obs
        if obs.on:
            obs.metrics.counter(
                "election.flap", member=viewer or "fleet", type=service_type
            ).inc()

    def disagreement(self, service_type: str) -> dict[str, Optional[str]]:
        """Each member's current elected responder, keyed by viewer.

        More than one distinct value means the fleet disagrees — the
        window the adversity bench measures across a partition/heal
        cycle.  Only meaningful under ``wire_utilization`` (the shared-
        monitor path cannot disagree by construction).
        """
        return {
            member_id: self.responder(service_type, viewer=member_id)
            for member_id in sorted(self.fleet.members)
        }

    def invalidate(self) -> None:
        """Drop held elections (membership changed)."""
        self._elected.clear()


__all__ = ["GatewayElector"]
