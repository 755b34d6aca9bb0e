"""Stream classification and pluggable request dispatch.

This is the layer between the monitor and the units.  ``Indiss`` used to
hard-wire the whole pipeline inside ``_on_raw``/``_handle_request``; it is
now split into three replaceable pieces:

* :class:`StreamClassifier` — inspects a parsed event stream and decides
  what kind of exchange it is (request / advertisement / response /
  byebye), extracting the fields the rest of the pipeline keys on;
* :class:`DispatchPolicy` — decides how a classified request is served:
  which units drive their native discovery, whether the service cache may
  answer, and what identity requests are deduplicated under.  Policies are
  registered by name so deployments (and future sharded dispatchers) can
  swap them via :class:`~repro.core.indiss.IndissConfig`;
* :class:`AdvertisementPipeline` — the resolve → cache → re-announce path
  for advertisement, response, and byebye streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..sdp.base import ServiceRecord
from .events import (
    Event,
    SDP_DEVICE_URL_DESC,
    SDP_REQ_HOPS,
    SDP_REQ_ID,
    SDP_SERVICE_ALIVE,
    SDP_SERVICE_BYEBYE,
    SDP_SERVICE_REQUEST,
    SDP_SERVICE_RESPONSE,
    SDP_SERVICE_TYPE,
)
from .parser import NetworkMeta
from .session import TranslationSession

if TYPE_CHECKING:  # pragma: no cover
    from .indiss import Indiss
    from .unit import Unit

#: Stream kinds, in classification precedence order.
KIND_REQUEST = "request"
KIND_ADVERTISEMENT = "advertisement"
KIND_RESPONSE = "response"
KIND_BYEBYE = "byebye"
KIND_OTHER = "other"


@dataclass
class ClassifiedStream:
    """One parsed stream plus everything dispatch keys on."""

    kind: str
    stream: list[Event] = field(default_factory=list)
    service_type: str = ""
    raw_type: str = ""
    xid: Optional[int] = None
    meta: Optional[NetworkMeta] = None
    #: Remaining forward-hop budget a gateway-forwarded request carried on
    #: the wire; None for requests issued by native clients.
    hops: Optional[int] = None


class StreamClassifier:
    """Event-stream -> :class:`ClassifiedStream` (kind + key fields).

    Precedence mirrors the protocol semantics: a stream carrying a request
    event is a request even if it also mentions response events (SLP
    retransmissions carry previous-responder lists).
    """

    _PRECEDENCE = (
        (SDP_SERVICE_REQUEST, KIND_REQUEST),
        (SDP_SERVICE_ALIVE, KIND_ADVERTISEMENT),
        (SDP_SERVICE_RESPONSE, KIND_RESPONSE),
        (SDP_SERVICE_BYEBYE, KIND_BYEBYE),
    )

    def classify(
        self, stream: list[Event], meta: NetworkMeta | None = None
    ) -> ClassifiedStream:
        kinds = set()
        service_type = ""
        raw_type = ""
        xid = None
        hops = None
        for event in stream:
            kinds.add(event.type)
            if event.type is SDP_SERVICE_TYPE:
                service_type = str(event.get("normalized") or "")
                raw_type = str(event.get("type") or "")
            elif event.type is SDP_REQ_ID:
                xid = event.get("xid")
            elif event.type is SDP_REQ_HOPS:
                try:
                    hops = int(event.get("hops"))
                except (TypeError, ValueError):
                    hops = None
        kind = KIND_OTHER
        for event_type, candidate in self._PRECEDENCE:
            if event_type in kinds:
                kind = candidate
                break
        return ClassifiedStream(
            kind=kind,
            stream=stream,
            service_type=service_type,
            raw_type=raw_type,
            xid=xid,
            meta=meta,
            hops=hops,
        )


class DispatchPolicy:
    """How one classified request is served by an INDISS instance.

    Subclasses override :meth:`select_targets` (which units drive native
    discovery) and :meth:`cache_answer` (whether the service cache may
    short-circuit the network).  ``dedup_scope`` feeds the
    :class:`~repro.core.sessions.SessionManager`.
    """

    name = "fanout"
    dedup_scope = "requester"

    def select_targets(self, indiss: "Indiss", session: TranslationSession) -> list["Unit"]:
        """Units that should drive their native discovery for this session.

        Default: every instantiated unit except the origin protocol's.
        """
        return [
            unit for sdp, unit in indiss.units.items() if sdp != session.origin_sdp
        ]

    def cache_answer(
        self, indiss: "Indiss", session: TranslationSession
    ) -> Optional[ServiceRecord]:
        """A cached record to answer with, or None to go to the network.

        The base policy honours the ``answer_from_cache`` deployment flag
        (on, it is Fig. 9b's cache-first deployment); records learnt from
        the requester's own protocol are excluded (the native service would
        have answered it directly).
        """
        if not indiss.config.answer_from_cache:
            return None
        return self.lookup_record(
            indiss, session.origin_sdp, str(session.vars.get("service_type", ""))
        )

    def lookup_record(
        self, indiss: "Indiss", origin_sdp: str, service_type: str
    ) -> Optional[ServiceRecord]:
        """First cached record of ``service_type`` not native to the
        requester's own protocol."""
        for record in indiss.cache.lookup(service_type):
            if record.source_sdp != origin_sdp:
                return record
        return None

    def mark_forwarded(
        self, indiss: "Indiss", session: TranslationSession, targets: list["Unit"]
    ) -> None:
        """Hook invoked after a session fans out to ``targets``; the base
        policy does nothing."""

    def escalate_duplicate(
        self, indiss: "Indiss", classified: ClassifiedStream
    ) -> list["Unit"]:
        """Targets for re-translating a *suppressed duplicate* that the
        cache could not answer, or ``[]`` to stay silent (the default —
        only the federated shard-ring policy ever escalates)."""
        return []


class FanOutAllPolicy(DispatchPolicy):
    """The default: fan the request out to every non-origin unit."""


class GatewayForwardPolicy(DispatchPolicy):
    """Gateway dispatch for multi-segment chains.

    Adds the *origin* protocol's unit to the target set, so a bridged
    gateway re-issues the request natively on every segment it is homed on
    — the mechanism that lets discovery hop across a chain of INDISS
    gateways.  Dedup switches to service-type scope: without it two
    gateways in multicast range of each other would re-translate each
    other's re-issued requests forever.

    Defence in depth for cyclic topologies: each forwarded request carries
    an explicit hop budget on the wire (parsed back into the session as
    ``vars["hops"]``); a request whose budget is spent is dropped instead
    of re-issued, so even with duplicate suppression defeated a loop of
    gateways quiesces after ``hop_budget`` re-translations.
    """

    name = "gateway-forward"
    dedup_scope = "service-type"

    def select_targets(self, indiss, session):
        if not self.consume_hop_budget(indiss, session):
            return []
        return list(indiss.units.values())

    def mark_forwarded(self, indiss, session, targets):
        """Pre-record the dedup identity of our own re-issued requests.

        The units are about to multicast this request natively in every
        target protocol; when a neighbouring gateway re-translates one of
        those and the echo arrives back here, it must read as a duplicate
        of the wave *we* started — otherwise two gateways re-translate each
        other's echoes until the hop budget runs out.
        """
        service_type = str(session.vars.get("service_type", ""))
        raw_type = str(session.vars.get("st", ""))
        for unit in targets:
            if unit.sdp_id == session.origin_sdp:
                continue  # the incoming request already recorded this key
            key = indiss.session_manager.dedup_key(
                unit.sdp_id, None, raw_type, service_type, None
            )
            indiss.session_manager.deduper.seen_recently(key)

    def consume_hop_budget(self, indiss: "Indiss", session: TranslationSession) -> bool:
        """Charge one hop; False when the request must not be forwarded.

        A request with no wire-carried budget (a native client's original
        request entering the fleet) starts from the deployment's
        ``hop_budget``; the units' composers stamp ``hops - 1`` into every
        re-issued native request.
        """
        hops = session.vars.get("hops")
        if hops is None:
            hops = indiss.config.hop_budget
            session.vars["hops"] = hops
        if hops <= 0:
            indiss.session_manager.record_hop_budget_drop()
            session.log("gateway: forward hop budget exhausted; not re-issuing")
            return False
        return True


class ShardRingPolicy(GatewayForwardPolicy):
    """Federated gateway dispatch: consistent-hash ownership + election.

    On a gateway that joined a :class:`~repro.federation.GatewayFleet`,
    requests heard on the shared backbone segment are partitioned across
    the fleet: the ring owner of the normalized service type drives the
    translation (and only when the federated cache cannot already answer),
    while the responder elected from per-segment utilization answers from
    the gossiped cache.  Everyone else stays silent — this is what collapses
    ``campus_fanout``'s per-leaf duplicate translations to at most one owner
    plus one elected responder.

    Requests from the gateway's own edge (leaf) segments are served exactly
    like ``gateway-forward``: an entry gateway always translates for its
    own clients.  Without a bound fleet (``indiss.federation is None``) the
    policy degrades to plain gateway-forward.
    """

    name = "shard-ring"

    def select_targets(self, indiss, session):
        federation = getattr(indiss, "federation", None)
        if federation is None:
            return super().select_targets(indiss, session)
        if not self.consume_hop_budget(indiss, session):
            return []
        if not federation.is_backbone_request(session):
            federation.stats.edge_translations += 1
            return list(indiss.units.values())
        service_type = str(session.vars.get("service_type", ""))
        exclude = federation.requester_exclusion(session)
        if federation.should_translate(service_type, session.origin_sdp, exclude):
            return list(indiss.units.values())
        session.log("shard-ring: suppressed (peer owns or cache already answers)")
        return []

    def cache_answer(self, indiss, session):
        federation = getattr(indiss, "federation", None)
        if federation is None:
            return super().cache_answer(indiss, session)
        service_type = str(session.vars.get("service_type", ""))
        if federation.is_backbone_request(session):
            exclude = federation.requester_exclusion(session)
            role = federation.cache_role(service_type, session.origin_sdp, exclude)
            if role is None:
                return None
            record = self.lookup_record(indiss, session.origin_sdp, service_type)
            if record is not None:
                federation.note_cache_answer(role)
            return record
        return super().cache_answer(indiss, session)

    def escalate_duplicate(self, indiss, classified):
        """Cold-start escalation (knob-gated; off by default).

        The ring owner re-issues a request natively on the backbone only
        when its federated cache could not answer (``cache_answer`` runs
        before ``select_targets``), so the owner's own re-issue echoing
        back as a service-type duplicate is a genuine cold-start signal:
        the record exists in no fleet cache the owner can see.  Normally
        every non-owner stays silent on that echo; with
        ``GatewayFleet.cold_start_escalation`` on, a member re-multicasts
        the request on its own segments with the decremented wire hop
        budget — so a service hiding behind a cold, partition-lagged edge
        is still found, and the wave quiesces because the escalated
        re-issues come from non-owners (members stay silent on those).
        """
        from ..sdp.base import normalize_service_type

        federation = getattr(indiss, "federation", None)
        if federation is None or not federation.fleet.cold_start_escalation:
            return []
        meta = classified.meta
        requester = meta.source if meta is not None else None
        if requester is None:
            return []
        fleet = federation.fleet
        if requester.host == federation.member_id:
            return []
        if requester.host not in fleet.members:
            return []
        wanted = normalize_service_type(
            classified.service_type or classified.raw_type
        )
        if fleet.ring.owner(wanted) != requester.host:
            return []
        if classified.hops is not None and classified.hops <= 0:
            return []
        federation.stats.cold_start_escalations += 1
        return list(indiss.units.values())


DISPATCH_POLICIES: dict[str, type[DispatchPolicy]] = {
    FanOutAllPolicy.name: FanOutAllPolicy,
    GatewayForwardPolicy.name: GatewayForwardPolicy,
    ShardRingPolicy.name: ShardRingPolicy,
}


def make_policy(name: str) -> DispatchPolicy:
    """Instantiate a registered dispatch policy by name."""
    try:
        return DISPATCH_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(DISPATCH_POLICIES))
        raise KeyError(f"unknown dispatch policy {name!r} (known: {known})") from None


class AdvertisementPipeline:
    """Resolve -> cache -> re-announce for non-request streams.

    Advertisements that lack a service URL (SSDP NOTIFY only names a
    description document) are handed back to the origin unit to resolve
    with a recursive native request, like Fig. 4's extra GET.
    """

    def __init__(self, indiss: "Indiss"):
        self.indiss = indiss

    def handle_advertisement(self, origin_sdp: str, stream: list[Event]) -> None:
        from ..units.records import record_from_stream

        record = record_from_stream(stream, source_sdp=origin_sdp)
        if record is None:
            # A NOTIFY names only the description document.  When earlier
            # resolution already produced records from that location, the
            # re-announcement just restarts their TTL (UPnP max-age
            # semantics) — only a genuinely new location is worth the
            # recursive description fetch.
            if self.indiss.config.cache_discoveries and self._refresh_alive(stream):
                return
            unit = self.indiss.units.get(origin_sdp)
            if unit is not None:
                unit.resolve_advertisement(stream, self.resolved)
            return
        self.resolved(record)

    def _refresh_alive(self, stream: list[Event]) -> bool:
        for event in stream:
            if event.type is SDP_DEVICE_URL_DESC:
                url = str(event.get("url", ""))
                if url:
                    return self.indiss.cache.refresh_location(url) > 0
        return False

    def resolved(self, record: ServiceRecord) -> None:
        if self.indiss.config.cache_discoveries:
            self.indiss.cache.store(record)
        if self.indiss.config.translate_advertisements:
            self.readvertise(record, exclude=record.source_sdp)

    def readvertise(self, record: ServiceRecord, exclude: str = "") -> None:
        """Announce a record through every unit except ``exclude``."""
        for sdp_id, unit in self.indiss.units.items():
            if sdp_id == exclude or sdp_id == record.source_sdp:
                continue
            unit.advertise_record(record)

    def handle_response(self, origin_sdp: str, stream: list[Event]) -> None:
        """Passively learn from replies flying past the monitor."""
        if not self.indiss.config.cache_discoveries:
            return
        from ..units.records import record_from_stream

        record = record_from_stream(stream, source_sdp=origin_sdp)
        if record is not None:
            self.indiss.cache.store(record)

    def handle_byebye(self, origin_sdp: str, stream: list[Event]) -> None:
        from ..sdp.base import normalize_service_type

        for event in stream:
            if event.type is SDP_SERVICE_BYEBYE:
                url = str(event.get("url", ""))
                if url:
                    self.indiss.cache.remove_url(url)
                    continue
                nt = str(event.get("type", ""))
                if nt:
                    self.indiss.cache.remove_type(
                        normalize_service_type(nt), origin_sdp
                    )


__all__ = [
    "AdvertisementPipeline",
    "ClassifiedStream",
    "DISPATCH_POLICIES",
    "DispatchPolicy",
    "FanOutAllPolicy",
    "GatewayForwardPolicy",
    "KIND_ADVERTISEMENT",
    "KIND_BYEBYE",
    "KIND_OTHER",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "ShardRingPolicy",
    "StreamClassifier",
    "make_policy",
]
