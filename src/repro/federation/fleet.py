"""The gateway fleet: membership, per-instance handles, aggregate stats.

A :class:`GatewayFleet` turns the independent INDISS gateways sharing one
backbone segment into a cooperating federation:

* joining adds the gateway to the :class:`~repro.federation.ShardRing`
  (sharded dispatch), optionally starts a
  :class:`~repro.federation.CacheGossiper` (federated cache), and binds a
  :class:`FederationHandle` onto the instance for the ``shard-ring``
  dispatch policy to consult;
* the fleet-level :class:`~repro.federation.GatewayElector` picks one
  responder per service type from per-segment utilization;
* leaving removes the member's ring points (its keys fall to ring
  successors — the rebalancing the tests pin) and stops its gossiper.

The handle's decision methods are where the federation semantics live, so
``core/dispatch.py`` stays free of any federation import (the policy duck-
types against ``indiss.federation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..net import UTILIZATION_WINDOW_US, Network, Segment
from ..sdp.base import normalize_service_type
from .election import GatewayElector
from .gossip import CacheGossiper
from .health import FailureDetector
from .shard import ShardRing

if TYPE_CHECKING:  # pragma: no cover
    from ..core.indiss import Indiss
    from ..core.session import TranslationSession


@dataclass
class FederationStats:
    """Per-member decision counters (benchmarks sum them fleet-wide)."""

    edge_translations: int = 0
    owner_translations: int = 0
    owner_skipped_warm: int = 0
    shard_suppressed: int = 0
    election_suppressed: int = 0
    elected_cache_answers: int = 0
    #: Cache answers served by the ring owner because the elected
    #: responder's cache could not answer (gossip lag, or no gossip).
    owner_cache_answers: int = 0
    #: Cold-start escalations: a member re-translated a request the ring
    #: owner re-issued because the owner's own translation came back empty
    #: (knob-gated; see ``GatewayFleet.cold_start_escalation``).
    cold_start_escalations: int = 0
    #: Owner-gated dispatch degraded to gateway-forward because the
    #: failure detector holds the ring owner suspect or dead: rather than
    #: stall the request on a corpse, every live member translates (the
    #: classic pre-sharding behavior) until ring repair installs a live
    #: owner.  Zero without the detector.
    owner_down_fallbacks: int = 0


@dataclass
class FederatedMember:
    """One gateway's membership record inside the fleet."""

    indiss: "Indiss"
    handle: "FederationHandle"
    gossiper: Optional[CacheGossiper] = None


class FederationHandle:
    """What the ``shard-ring`` dispatch policy consults on one instance."""

    def __init__(self, fleet: "GatewayFleet", indiss: "Indiss", member_id: str):
        self.fleet = fleet
        self.indiss = indiss
        self.member_id = member_id
        self.stats = FederationStats()
        self.gossiper: Optional[CacheGossiper] = None
        #: Wire-carried utilization samples, one per peer:
        #: member_id -> (sampled_at_us, load).  Filled by the gossiper when
        #: the fleet runs with ``wire_utilization``; the elector then ranks
        #: from *this member's view* instead of the shared monitors — so a
        #: partitioned member's elections can genuinely disagree.
        self.util_samples: dict[str, tuple[int, float]] = {}

    # -- request classification ---------------------------------------------

    def is_backbone_request(self, session: "TranslationSession") -> bool:
        """True when the request reached us over the fleet's shared segment.

        The requester's host and ours must share *only* the backbone: a
        host that also shares one of our edge (leaf) segments is our own
        client and is always served, and an unknown or unattached
        requester defaults to edge handling (translate rather than risk
        silence).
        """
        requester = session.requester
        if requester is None:
            return False
        our_segments = {seg.name for seg in self.indiss.node.segments}
        if self.fleet.segment_name not in our_segments:
            return False
        source = self.indiss.node.network.node_at(requester.host)
        if source is None:
            return False
        shared = {seg.name for seg in source.segments} & our_segments
        return bool(shared) and shared == {self.fleet.segment_name}

    def requester_exclusion(self, session: "TranslationSession") -> frozenset[str]:
        """Members that must not own/answer this request: the requester
        itself, when the requester is a fleet member's forwarded request (a
        gateway never hears its own re-issued traffic, so electing it would
        leave the request unanswered)."""
        requester = session.requester
        if requester is not None and requester.host in self.fleet.members:
            return frozenset((requester.host,))
        return frozenset()

    # -- dispatch decisions ---------------------------------------------------

    def _member_cache_answers(self, member_id: str, wanted: str, origin_sdp: str) -> bool:
        """Whether ``member_id``'s cache holds a record that can answer a
        ``origin_sdp`` requester for the normalized type ``wanted``.

        Peeking a peer's cache is the in-simulator stand-in for what a
        real deployment reads off its last-received gossip digest (which
        carries exactly these keys); see the elector's module docstring
        for the same convention.
        """
        member = self.fleet.members.get(member_id)
        if member is None:
            return False
        return any(
            record.source_sdp != origin_sdp
            for record in member.indiss.cache.lookup(wanted)
        )

    def should_translate(
        self,
        service_type: str,
        origin_sdp: str,
        exclude: frozenset[str] = frozenset(),
    ) -> bool:
        """Whether this member drives the translation of a backbone request.

        Only the ring owner of the normalized type translates — and it
        stands down only when the *elected responder* can actually answer
        from its cache, never merely because the owner's own cache is warm
        (an owner that can answer has already done so on the cache path; a
        warm owner with a cold elected peer must still translate, or the
        request would go silently unanswered).  Ownership deliberately
        ignores who forwarded the request: when the owner's own re-issue
        echoes around the backbone, every other member still sees the
        owner owning the type and stays silent, so a wave is translated at
        most once fleet-wide.
        """
        wanted = normalize_service_type(service_type)
        owner = self.fleet.ring.owner(wanted)
        if owner != self.member_id:
            if owner is not None and self.fleet.health.is_down(owner):
                # The owner crashed (or is suspected): degrade to
                # gateway-forward rather than stall the request on a
                # corpse — every live member translates until the
                # detector's ring repair installs a live owner.  Requests
                # arriving *before* suspicion still stall; that window is
                # the availability dip the chaos sweep measures.
                self.stats.owner_down_fallbacks += 1
                self.stats.owner_translations += 1
                return True
            self.stats.shard_suppressed += 1
            return False
        elected = self.fleet.elector.responder(
            wanted, exclude=exclude, viewer=self.member_id
        )
        if (
            elected is not None
            and elected != self.member_id
            and self._member_cache_answers(elected, wanted, origin_sdp)
        ):
            self.stats.owner_skipped_warm += 1
            return False
        self.stats.owner_translations += 1
        return True

    def cache_role(
        self,
        service_type: str,
        origin_sdp: str,
        exclude: frozenset[str] = frozenset(),
    ) -> Optional[str]:
        """This member's cache-answering role for a backbone request.

        ``"elected"`` — the utilization election picked us; ``"owner"`` —
        we own the type and the elected responder's cache cannot answer
        (gossip lag, or a fleet running without gossip), so the owner
        falls back to answering; None — stay silent.
        """
        wanted = normalize_service_type(service_type)
        elected = self.fleet.elector.responder(
            wanted, exclude=exclude, viewer=self.member_id
        )
        if elected == self.member_id:
            return "elected"
        if self.fleet.ring.owner(wanted) == self.member_id and (
            elected is None
            or not self._member_cache_answers(elected, wanted, origin_sdp)
        ):
            return "owner"
        self.stats.election_suppressed += 1
        return None

    def note_cache_answer(self, role: str) -> None:
        if role == "elected":
            self.stats.elected_cache_answers += 1
        else:
            self.stats.owner_cache_answers += 1


class GatewayFleet:
    """A set of federated INDISS gateways sharing one backbone segment."""

    def __init__(
        self,
        network: Network,
        segment: Segment | str,
        vnodes: int = 64,
        election_window_us: int = UTILIZATION_WINDOW_US,
        election_hold_us: int = 1_000_000,
        wire_utilization: bool = False,
        cold_start_escalation: bool = False,
        suspect_after: Optional[int] = None,
        dead_after: Optional[int] = None,
    ):
        self.network = network
        self.segment_name = segment if isinstance(segment, str) else segment.name
        if self.segment_name not in network.segments:
            raise ValueError(f"network has no segment named {self.segment_name!r}")
        self.ring = ShardRing(vnodes=vnodes)
        self.members: dict[str, FederatedMember] = {}
        #: Heartbeat failure detection piggybacked on gossip traffic;
        #: inert (never counts, never transitions) unless ``suspect_after``
        #: is set.  See :mod:`repro.federation.health`.
        self.health = FailureDetector(
            self, suspect_after=suspect_after, dead_after=dead_after
        )
        #: Completed ring repairs: (virtual time, dead member) — the chaos
        #: bench reads time-to-repair off these.
        self.repairs: list[tuple[int, str]] = []
        #: Elections rank from wire-carried utilization samples (each
        #: member's own view) instead of the shared traffic monitors.
        #: Off by default: the shared-monitor path and its goldens are
        #: untouched unless a spec opts in.
        self.wire_utilization = wire_utilization
        #: A member may re-translate a request the ring owner re-issued
        #: when the owner's own translation found nothing (cold start
        #: behind a partition).  Off by default.
        self.cold_start_escalation = cold_start_escalation
        self.elector = GatewayElector(
            self, window_us=election_window_us, hold_us=election_hold_us
        )

    def __len__(self) -> int:
        return len(self.members)

    # -- membership -----------------------------------------------------------

    def join(
        self,
        indiss: "Indiss",
        gossip_period_us: Optional[int] = 500_000,
        max_delta_records: Optional[int] = None,
        catchup_after: Optional[int] = None,
    ) -> FederationHandle:
        """Federate one gateway; returns the handle bound to the instance.

        ``gossip_period_us=None`` joins without a gossiper (sharding and
        election only).  ``catchup_after=k`` arms the gossiper's silent-
        peer escalation (see :class:`~repro.federation.CacheGossiper`).
        """
        member_id = indiss.node.address
        if member_id in self.members:
            raise ValueError(f"{member_id} already joined the fleet")
        if all(seg.name != self.segment_name for seg in indiss.node.segments):
            raise ValueError(
                f"{member_id} is not attached to fleet segment {self.segment_name!r}"
            )
        handle = FederationHandle(self, indiss, member_id)
        gossiper = None
        if gossip_period_us is not None:
            kwargs = {}
            if max_delta_records is not None:
                kwargs["max_delta_records"] = max_delta_records
            if catchup_after is not None:
                kwargs["catchup_after"] = catchup_after
            gossiper = CacheGossiper(
                indiss, self, member_id, period_us=gossip_period_us, **kwargs
            )
        handle.gossiper = gossiper
        self.members[member_id] = FederatedMember(indiss, handle, gossiper)
        self.ring.add(member_id)
        indiss.federation = handle
        self.elector.invalidate()
        return handle

    def leave(self, member_id: str) -> None:
        """Remove a member: ring points released, gossiper stopped."""
        member = self.members.pop(member_id, None)
        if member is None:
            raise KeyError(f"{member_id} is not a fleet member")
        self.ring.remove(member_id)
        if member.gossiper is not None:
            member.gossiper.stop()
        member.indiss.federation = None
        self.health.reset(member_id)
        self.elector.invalidate()

    # -- crash faults and self-healing ----------------------------------------

    def crash_member(self, member_id: str) -> None:
        """Note a member's process crash (the world's ``Crash`` step).

        Deliberately *asymmetric* with :meth:`leave`: the membership record
        and the ring points stay — peers must not learn of the death
        synchronously; only the failure detector (or an operator-driven
        restart) may repair the ring.  What does stop is the member's own
        machinery: its gossiper's timer dies with the process, and its
        handle is unbound so a restarted instance cannot alias stale state.
        """
        member = self.members.get(member_id)
        if member is None:
            raise KeyError(f"{member_id} is not a fleet member")
        if member.gossiper is not None:
            member.gossiper.stop()
            member.gossiper = None
            member.handle.gossiper = None
        member.indiss.federation = None
        self.elector.invalidate()

    def restart_member(
        self,
        indiss: "Indiss",
        gossip_period_us: Optional[int] = 500_000,
        max_delta_records: Optional[int] = None,
        catchup_after: Optional[int] = None,
        bootstrap: bool = False,
    ) -> FederationHandle:
        """Re-federate a restarted (or replacement) gateway.

        Drops whatever membership record survives from before the crash —
        whether the detector already declared it dead and repaired the ring
        or not (``ShardRing.remove`` is idempotent) — clears the detector's
        verdict, and joins fresh.  With ``bootstrap=True`` the new gossiper
        immediately requests a full cache transfer from one live peer
        instead of waiting for anti-entropy to converge.
        """
        member_id = indiss.node.address
        self.members.pop(member_id, None)
        self.ring.remove(member_id)
        self.health.reset(member_id)
        handle = self.join(
            indiss,
            gossip_period_us=gossip_period_us,
            max_delta_records=max_delta_records,
            catchup_after=catchup_after,
        )
        if bootstrap and handle.gossiper is not None:
            handle.gossiper.request_bootstrap()
        return handle

    def _on_member_dead(self, member_id: str, now_us: int) -> None:
        """Self-heal after the detector's ``dead`` verdict: release the
        dead member's ring points (only *its* keys rebalance to ring
        successors) and invalidate held elections so no request is routed
        at a corpse.  The membership record stays for the bench's
        post-mortem reads; a restart replaces it wholesale."""
        if member_id in self.ring:
            self.ring.remove(member_id)
            self.repairs.append((now_us, member_id))
            obs = self.network.obs
            if obs.on:
                obs.metrics.counter("ring.repair", member=member_id).inc()
                obs.trace.instant(
                    "ring.repair", now_us, 0, tid=member_id, cat="fleet",
                    args={"member": member_id},
                )
        self.elector.invalidate()

    def is_electable(self, member_id: str) -> bool:
        """Whether a member may win elections (and serve bootstraps).

        Excludes the dead and the suspected (detector verdict), the
        crashed (local knowledge: our own process observed the crash), and
        the detached (a member with no attached segments cannot hear the
        request it would be elected to answer — the churn bug where a
        ``Fault(detach)`` victim stayed on the candidate board).
        """
        member = self.members.get(member_id)
        if member is None:
            return False
        if not self.health.is_alive(member_id):
            return False
        if getattr(member.indiss, "crashed", False):
            return False
        return bool(member.indiss.node.segments)

    def peer_addresses(self, member_id: str) -> list[str]:
        """Every other member's address, in stable order (gossip targets)."""
        return sorted(address for address in self.members if address != member_id)

    # -- aggregate views -------------------------------------------------------

    def aggregate_stats(self) -> dict[str, int]:
        """Fleet-wide sums of the per-member federation counters."""
        totals = {name: 0 for name in FederationStats.__dataclass_fields__}
        for member in self.members.values():
            for name in totals:
                totals[name] += getattr(member.handle.stats, name)
        return totals

    def aggregate_gossip_stats(self) -> dict[str, int]:
        """Fleet-wide sums of the gossip counters (zeros without gossip)."""
        totals: dict[str, int] = {}
        for member in self.members.values():
            if member.gossiper is None:
                continue
            stats = member.gossiper.stats
            for name in stats.__dataclass_fields__:
                totals[name] = totals.get(name, 0) + getattr(stats, name)
        return totals

    def translated_total(self) -> int:
        """Sessions that drove native discovery, summed over the fleet."""
        return sum(
            member.indiss.stats.translated for member in self.members.values()
        )

    def cache_sizes(self) -> dict[str, int]:
        return {
            member_id: len(member.indiss.cache)
            for member_id, member in self.members.items()
        }


__all__ = [
    "FederatedMember",
    "FederationHandle",
    "FederationStats",
    "GatewayFleet",
]
