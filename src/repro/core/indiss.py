"""The INDISS system: monitor + units + dynamic composition (paper §2-§3).

One :class:`Indiss` instance runs on a node (client host, service host, or
gateway — paper §4.2 analyses all three placements) and is *transparent*:
native clients and services keep using their own protocols; INDISS joins
the SDP multicast groups beside them and translates.

The runtime is layered (see ARCHITECTURE.md):

    monitor -> StreamClassifier -> SessionManager -> DispatchPolicy
            -> units -> composer          (requests)
    monitor -> StreamClassifier -> AdvertisementPipeline -> cache
                                                (advertisements/responses)

``Indiss`` itself is the thin coordinator wiring those layers over one
node.  A gateway host bridged across several LAN segments (see
``repro.net.segment``) runs the same code with the ``gateway-forward``
dispatch policy, which is what lets discovery chain across an
internetwork of INDISS gateways.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from ..net import Node
from ..sdp.base import ServiceRecord
from .cache import ServiceCache
from .dispatch import (
    AdvertisementPipeline,
    ClassifiedStream,
    DispatchPolicy,
    KIND_ADVERTISEMENT,
    KIND_BYEBYE,
    KIND_REQUEST,
    KIND_RESPONSE,
    StreamClassifier,
    make_policy,
)
from .events import Event, SDP_C_START
from .monitor import MonitorComponent
from .parser import NetworkMeta
from .registry import IanaRegistry, default_registry
from .session import TranslationSession, stream_has_result
from .sessions import SessionManager, SessionStats
from .unit import IndissTimings, Unit, UnitRuntime

UnitFactory = Callable[["Indiss", UnitRuntime], Unit]

#: Cache-answer reply streams one instance keeps (see
#: :meth:`Indiss._cached_reply`).
_REPLY_MEMO_SIZE = 1024


@dataclass
class IndissConfig:
    """Deployment-time configuration (paper §3: "Configuration of a INDISS
    instance is initially defined in terms of supported SDPs")."""

    #: SDP units this instance supports.
    units: tuple[str, ...] = ("slp", "upnp")
    #: Where this instance sits; informational plus used by benchmarks.
    deployment: str = "client"  # "client" | "service" | "gateway"
    #: "eager" instantiates all units up front; "on-detection" instantiates
    #: a unit the first time its SDP is detected (Fig. 5 dynamics).
    instantiate: str = "eager"
    #: Answer requests from the service cache when possible (Fig. 9b).
    answer_from_cache: bool = False
    #: Learn services from observed responses/advertisements.
    cache_discoveries: bool = True
    #: Re-announce foreign services through other units (Fig. 6 active mode).
    translate_advertisements: bool = False
    #: Dispatch policy name ("fanout", "gateway-forward", "shard-ring");
    #: see :mod:`repro.core.dispatch` for the registry.  Cache-first
    #: answering is ``answer_from_cache`` under any of them.
    dispatch: str = "fanout"
    #: Suppress duplicate requests (native retransmissions) within window.
    #: SLP user agents retransmit with the same XID well after the first
    #: send, so the window spans whole convergence periods.
    dedup_window_us: int = 2_000_000
    #: Forwarding hop budget a gateway grants a request that enters the
    #: internetwork through it; re-issued native requests carry the
    #: decremented budget on the wire (defence in depth against forwarding
    #: loops on cyclic topologies, on top of type-scoped dedup).
    hop_budget: int = 4
    #: Re-dispatch a request whose translation came back empty, up to this
    #: many times (lossy paths drop native re-issues, so one silent probe
    #: is not proof of absence).  0 — the default — disables retries and
    #: keeps the classic single-shot behaviour bit-identical.
    translate_retries: int = 0
    #: Backoff before the first retry; doubles on every further attempt.
    retry_backoff_us: int = 200_000
    timings: IndissTimings = field(default_factory=IndissTimings)
    #: SSDP responder jitter window for the UPnP unit answering remote
    #: requesters (calibration sets this to the CyberLink window).
    upnp_responder_delay_us: tuple[int, int] = (0, 0)
    #: UPnP unit search wait before giving up on a session.
    upnp_wait_us: int = 150_000
    #: SLP unit convergence wait.
    slp_wait_us: int = 15_000
    #: Bound on the SLP unit's recursive AttrRqst stall (a unicast round
    #: trip); raise it on high-latency links so attributes are not lost.
    slp_attr_wait_us: int = 30_000
    seed: int = 0


class Indiss:
    """One deployed INDISS instance."""

    def __init__(
        self,
        node: Node,
        config: IndissConfig | None = None,
        registry: IanaRegistry | None = None,
        unit_factories: dict[str, UnitFactory] | None = None,
        dispatch_policy: DispatchPolicy | None = None,
    ):
        self.node = node
        self.config = config if config is not None else IndissConfig()
        self.registry = registry if registry is not None else default_registry()
        self.monitor = MonitorComponent(node, self.registry, scan=self.config.units)
        self.monitor.on_raw = self._on_raw
        self.monitor.on_detected = self._on_detected
        self.cache = ServiceCache(lambda: node.now_us)
        self.units: dict[str, Unit] = {}
        self.classifier = StreamClassifier()
        self.policy = (
            dispatch_policy
            if dispatch_policy is not None
            else make_policy(self.config.dispatch or "fanout")
        )
        self.session_manager = SessionManager(
            clock=lambda: node.now_us,
            dedup_window_us=self.config.dedup_window_us,
            dedup_scope=self.policy.dedup_scope,
            session_id_source=node.network.session_id_source(node),
        )
        self.advertisements = AdvertisementPipeline(self)
        #: Set by :meth:`repro.federation.GatewayFleet.join`; the
        #: ``shard-ring`` dispatch policy consults it for ownership and
        #: election decisions.  None on stand-alone instances.
        self.federation = None
        #: Crash-stop state (see :meth:`crash`/:meth:`restart`): while
        #: True the instance is an inert shell whose stale timers must not
        #: touch the rebuilt volatile layers.
        self.crashed = False
        #: Incarnation counter; pre-crash closures capture it and compare
        #: on fire, so a timer scheduled by a dead incarnation can never
        #: act on a restarted one.
        self._epoch = 0
        self.detections: list[str] = []
        self._factories = dict(unit_factories or {})
        #: Flight-recorder state (only written while recording is on):
        #: the current frame's identity (crc32 of the raw payload — stable
        #: across forked workers, unlike salted ``hash()``) and this
        #: node's district, memoized on first use.
        self._obs_frame: int | None = None
        self._obs_pid: int | None = None
        #: Cache-answer reply streams: (id(record), origin SDP) ->
        #: (record, stream); see :meth:`_cached_reply`.
        self._replies = node.network.memo(_REPLY_MEMO_SIZE)
        #: Application-layer listeners tracing every parsed stream
        #: (paper §2.3: upper layers "trace, in real time, SDP internal
        #: mechanisms").
        self.stream_listeners: list[Callable[[str, list[Event], NetworkMeta], None]] = []

        if self.config.instantiate == "eager":
            for sdp_id in self.config.units:
                self._ensure_unit(sdp_id)

    @classmethod
    def from_spec(cls, node: Node, spec_text: str, **overrides) -> "Indiss":
        """Build an instance from the paper's textual specification DSL.

        ``overrides`` are forwarded to :class:`IndissConfig` (deployment,
        cache behaviour, timings, ...).
        """
        from .config import build_indiss_config, parse_spec

        config = build_indiss_config(parse_spec(spec_text), **overrides)
        return cls(node, config)

    # -- lifecycle state shared with the session layer --------------------------

    @property
    def stats(self) -> SessionStats:
        return self.session_manager.stats

    @property
    def sessions(self) -> list[TranslationSession]:
        return self.session_manager.sessions

    # -- unit lifecycle (Fig. 5 dynamic composition) --------------------------

    def _make_runtime(self) -> UnitRuntime:
        return UnitRuntime(
            self.node,
            timings=self.config.timings,
            register_own_port=self.monitor.ignore_endpoint,
        )

    def _default_factory(self, sdp_id: str) -> Unit:
        # Imported here: the units package builds on repro.core.
        from ..units.jini_unit import JiniUnit
        from ..units.slp_unit import SlpUnit
        from ..units.upnp_unit import UpnpUnit

        runtime = self._make_runtime()
        if sdp_id == "slp":
            return SlpUnit(
                runtime,
                wait_us=self.config.slp_wait_us,
                attr_wait_us=self.config.slp_attr_wait_us,
            )
        if sdp_id == "upnp":
            return UpnpUnit(
                runtime,
                wait_us=self.config.upnp_wait_us,
                responder_delay_us=self.config.upnp_responder_delay_us,
                seed=self.config.seed,
            )
        if sdp_id == "jini":
            return JiniUnit(runtime, cache=self.cache)
        raise KeyError(f"no unit factory for SDP {sdp_id!r}")

    def _ensure_unit(self, sdp_id: str) -> Unit:
        unit = self.units.get(sdp_id)
        if unit is None:
            factory = self._factories.get(sdp_id)
            unit = factory(self, self._make_runtime()) if factory else self._default_factory(sdp_id)
            self.units[sdp_id] = unit
        return unit

    @property
    def instantiated_units(self) -> list[str]:
        return sorted(self.units)

    def _on_detected(self, sdp_id: str) -> None:
        self.detections.append(sdp_id)
        if self.config.instantiate == "on-detection" and sdp_id in self.config.units:
            self._ensure_unit(sdp_id)

    # -- environment traffic ---------------------------------------------------

    def _on_raw(self, sdp_id: str, raw: bytes, meta: NetworkMeta) -> None:
        if sdp_id not in self.config.units:
            return
        if self.config.instantiate == "on-detection" and sdp_id not in self.units:
            self._ensure_unit(sdp_id)
        unit = self.units.get(sdp_id)
        if unit is None:
            return
        stream = unit.handle_environment_message(raw, meta)
        if stream is None:
            return
        if self.node.network.obs.on:
            self._obs_frame = zlib.crc32(raw)
        for listener in self.stream_listeners:
            listener(sdp_id, stream, meta)
        classified = self.classifier.classify(stream, meta)
        if classified.kind == KIND_REQUEST:
            self._handle_request(sdp_id, classified)
        elif classified.kind == KIND_ADVERTISEMENT:
            self.advertisements.handle_advertisement(sdp_id, stream)
        elif classified.kind == KIND_RESPONSE:
            self.advertisements.handle_response(sdp_id, stream)
        elif classified.kind == KIND_BYEBYE:
            self.advertisements.handle_byebye(sdp_id, stream)

    # -- request translation -------------------------------------------------------

    def _obs_district(self) -> int:
        pid = self._obs_pid
        if pid is None:
            pid = self._obs_pid = self.node.network.partition_of_node(self.node)
        return pid

    def _obs_session_open(self, session: TranslationSession, classified) -> None:
        """Record the request's entry into the translation pipeline, linked
        to the triggering frame (crc32) the monitor instants also carry."""
        obs = self.node.network.obs
        session.vars["_obs_frame"] = self._obs_frame
        obs.trace.instant(
            "session.open",
            self.node.now_us,
            self._obs_district(),
            tid=self.node.name,
            cat="session",
            args={
                "sid": session.session_id,
                "sdp": session.origin_sdp,
                "st": classified.service_type,
                "frame": self._obs_frame,
            },
        )

    def _obs_session_done(self, session: TranslationSession, reply_stream) -> None:
        """The closing span of the lifecycle: open -> reply delivery."""
        obs = self.node.network.obs
        now = self.node.now_us
        if session.answered_from_cache:
            outcome = "cache"
        elif stream_has_result(reply_stream):
            outcome = "translated"
        else:
            outcome = "silent"
        duration = now - session.created_at_us
        policy = getattr(self.policy, "name", "")
        obs.trace.span(
            "session",
            session.created_at_us,
            duration,
            self._obs_district(),
            tid=self.node.name,
            cat="session",
            args={
                "sid": session.session_id,
                "sdp": session.origin_sdp,
                "st": str(session.vars.get("service_type", "")),
                "frame": session.vars.get("_obs_frame"),
                "outcome": outcome,
                "policy": policy,
                "steps": len(session.steps),
            },
        )
        metrics = obs.metrics
        metrics.histogram("core.session.latency_us", sdp=session.origin_sdp).observe(duration)
        metrics.counter(
            "core.session.outcome", sdp=session.origin_sdp, outcome=outcome
        ).inc()

    def _handle_request(self, origin_sdp: str, classified: ClassifiedStream) -> None:
        obs = self.node.network.obs
        requester = classified.meta.source if classified.meta is not None else None
        key = self.session_manager.dedup_key(
            origin_sdp,
            requester,
            classified.raw_type,
            classified.service_type,
            classified.xid,
        )
        if self.session_manager.is_duplicate(key):
            if obs.on:
                obs.metrics.counter("core.dedup.suppressed", sdp=origin_sdp).inc()
            # Service-type-scoped dedup (gateway-forward) collapses
            # *different* requesters asking for the same thing; dropping a
            # second client outright would starve it, since the first
            # session's reply went unicast to the first requester only.
            # Once the first translation has warmed the cache, answer the
            # suppressed duplicate from it (unicast replies cannot loop:
            # a neighbouring gateway's completed session just drops them).
            if self.policy.dedup_scope == "service-type":
                record = self.policy.lookup_record(
                    self, origin_sdp, classified.service_type
                )
                if record is not None:
                    session = self.session_manager.open(
                        origin_sdp,
                        requester,
                        classified.stream,
                        on_reply=self._deliver_reply,
                    )
                    session.vars["service_type"] = classified.service_type
                    session.vars["st"] = classified.raw_type
                    if classified.xid is not None:
                        session.vars["xid"] = classified.xid
                    session.log(
                        "indiss: duplicate request answered from service cache"
                    )
                    if obs.on:
                        self._obs_session_open(session, classified)
                    self._answer_from_cache(session, record)
                else:
                    self._escalate_duplicate(origin_sdp, classified, requester)
            return

        session = self.session_manager.open(
            origin_sdp, requester, classified.stream, on_reply=self._deliver_reply
        )
        session.vars["service_type"] = classified.service_type
        session.vars["st"] = classified.raw_type
        if classified.xid is not None:
            session.vars["xid"] = classified.xid
        if classified.hops is not None:
            session.vars["hops"] = classified.hops
        session.log(
            f"indiss: {origin_sdp} request for {classified.service_type!r} entered"
        )
        if obs.on:
            self._obs_session_open(session, classified)

        record = self.policy.cache_answer(self, session)
        if record is not None:
            self._answer_from_cache(session, record)
            return

        targets = self.policy.select_targets(self, session)
        if obs.on:
            policy = getattr(self.policy, "name", "")
            name = "dispatch.forward" if targets else "dispatch.suppressed"
            obs.trace.instant(
                name,
                self.node.now_us,
                self._obs_district(),
                tid=self.node.name,
                cat="dispatch",
                args={
                    "sid": session.session_id,
                    "policy": policy,
                    "targets": len(targets),
                },
            )
            obs.metrics.counter(
                "core.dispatch.forwards" if targets else "core.dispatch.suppressed",
                policy=policy,
            ).inc()
        if not targets:
            session.complete_with([])
            return
        self.session_manager.record_translated()
        self.policy.mark_forwarded(self, session, targets)
        session.pending_targets = len(targets)
        for target in targets:
            target.handle_foreign_request(classified.stream, session)

    def _escalate_duplicate(
        self, origin_sdp: str, classified: ClassifiedStream, requester
    ) -> None:
        """Cold-start escalation of a suppressed duplicate the cache could
        not answer (see :meth:`DispatchPolicy.escalate_duplicate`).  The
        policy decides whether the duplicate is worth re-translating — the
        base policy never is, so this is a no-op outside a federation with
        ``cold_start_escalation`` armed."""
        targets = self.policy.escalate_duplicate(self, classified)
        if not targets:
            return
        obs = self.node.network.obs
        session = self.session_manager.open(
            origin_sdp, requester, classified.stream, on_reply=self._deliver_reply
        )
        session.vars["service_type"] = classified.service_type
        session.vars["st"] = classified.raw_type
        if classified.xid is not None:
            session.vars["xid"] = classified.xid
        hops = classified.hops
        session.vars["hops"] = hops if hops is not None else self.config.hop_budget
        session.log("indiss: cold-start escalation of the ring owner's re-issue")
        if obs.on:
            self._obs_session_open(session, classified)
            obs.metrics.counter(
                "federation.cold_start.escalations", sdp=origin_sdp
            ).inc()
        self.session_manager.record_translated()
        self.policy.mark_forwarded(self, session, targets)
        session.pending_targets = len(targets)
        for target in targets:
            target.handle_foreign_request(classified.stream, session)

    def _answer_from_cache(self, session: TranslationSession, record: ServiceRecord) -> None:
        self.session_manager.record_cache_answer(session)
        reply = self._cached_reply(record, session.origin_sdp)
        session.log("indiss: answered from service cache")
        obs = self.node.network.obs
        if obs.on:
            obs.trace.instant(
                "session.cache_answer",
                self.node.now_us,
                self._obs_district(),
                tid=self.node.name,
                cat="session",
                args={"sid": session.session_id, "sdp": session.origin_sdp},
            )
        self.node.schedule(
            self.config.timings.cache_lookup_us,
            lambda: session.complete_with(reply),
        )

    def _cached_reply(self, record: ServiceRecord, origin_sdp: str) -> list[Event]:
        """The reply stream answering ``origin_sdp`` with ``record``.

        Control points re-search the same types, so one cached record
        answers many sessions; its stream is unfolded once per record and
        origin.  Entries hold their record, so a key's ``id`` cannot be
        reused while the entry lives.
        """
        from ..units.records import stream_from_record

        key = (id(record), origin_sdp)
        entry = self._replies.get(key)
        if entry is None:
            entry = self._replies.remember(
                key, (record, tuple(stream_from_record(record, origin_sdp)))
            )
        return list(entry[1])

    def _reply_source_sdp(self, reply_stream: list[Event], session: TranslationSession) -> str:
        """Which SDP the answering service natively speaks.

        Reply streams are bracketed with the emitting unit's SDP id; cache
        answers preserve the original record's provenance the same way.
        Falling back to ``answered_by`` keeps custom units working, but
        only when it names a real unit (the old code stamped records with
        ``"cache"`` or ``""``, which defeated the same-protocol filter on
        later lookups).
        """
        if reply_stream and reply_stream[0].type is SDP_C_START:
            sdp = str(reply_stream[0].get("sdp") or "")
            if sdp:
                return sdp
        candidate = str(session.vars.get("answered_by", ""))
        if candidate in self.units:
            return candidate
        return ""

    def _deliver_reply(self, reply_stream: list[Event], session: TranslationSession) -> None:
        self.session_manager.record_completed()
        if self.node.network.obs.on:
            self._obs_session_done(session, reply_stream)
        origin_unit = self.units.get(session.origin_sdp)
        if not stream_has_result(reply_stream):
            if self._maybe_retry(session):
                return
            # Discovery protocols stay silent on fruitless multicast
            # requests; composing an empty answer would be noise.
            self.session_manager.record_timeout()
            session.log("indiss: no service found; staying silent")
            return
        if self.config.cache_discoveries and not session.answered_from_cache:
            from ..units.records import record_from_stream

            record = record_from_stream(
                reply_stream, source_sdp=self._reply_source_sdp(reply_stream, session)
            )
            if record is not None:
                self.cache.store(record)
        if origin_unit is not None:
            origin_unit.compose_reply(reply_stream, session)

    # -- lossy-path retries ----------------------------------------------------------

    def _maybe_retry(self, session: TranslationSession) -> bool:
        """Re-dispatch an empty translation over a possibly-lossy path.

        A fresh session is opened per attempt (so every attempt's lifecycle
        is individually recorded), the backoff doubles per attempt, and the
        give-up after the last attempt is counted in
        :attr:`SessionStats.gave_up`.  Returns True when a retry was
        scheduled — the caller then skips the usual timeout accounting.
        """
        retries = self.config.translate_retries
        if retries <= 0 or session.answered_from_cache:
            return False
        attempt = int(session.vars.get("attempt", 1))
        if attempt > retries:
            if self._retry_fallback(session):
                return True
            self.session_manager.record_gave_up()
            session.log("indiss: retries exhausted; giving up")
            return False
        backoff = self.config.retry_backoff_us * (2 ** (attempt - 1))
        self.session_manager.record_retry()
        session.log(f"indiss: empty translation; retry {attempt} in {backoff}us")
        obs = self.node.network.obs
        if obs.on:
            obs.metrics.counter(
                "core.session.retry", sdp=session.origin_sdp
            ).inc()
        epoch = self._epoch
        self.node.schedule(
            backoff, lambda: self._retry_dispatch(session, attempt + 1, epoch)
        )
        return True

    def _retry_fallback(self, failed: TranslationSession) -> bool:
        """Last resort after the final retry: dispatch once down the classic
        gateway-forward path.

        Every ``shard-ring`` retry re-runs the owner gate, so when the ring
        owner is dead (or unreachable) the re-dispatch is suppressed on
        every attempt and the request would go silent forever.  Rather
        than give up, translate locally — exactly once per chain — and
        count it in :attr:`SessionStats.retry_fallbacks`.
        """
        if failed.vars.get("fellback"):
            return False
        if getattr(self.policy, "name", "") != "shard-ring":
            return False  # non-owner-gated policies already fanned out
        hops = failed.vars.get("hops")
        if hops is not None and hops <= 0:
            return False  # budget already exhausted on the wire
        targets = list(self.units.values())
        if not targets:
            return False
        session = self.session_manager.open(
            failed.origin_sdp,
            failed.requester,
            failed.request_stream,
            on_reply=self._deliver_reply,
        )
        for name, value in failed.vars.items():
            if not name.startswith("_obs"):
                session.vars[name] = value
        session.vars["fellback"] = True
        session.log("indiss: retries suppressed by the ring owner gate; "
                    "falling back to gateway-forward dispatch")
        self.policy.consume_hop_budget(self, session)
        self.session_manager.record_retry_fallback()
        obs = self.node.network.obs
        if obs.on:
            obs.metrics.counter(
                "core.session.retry_fallback", sdp=session.origin_sdp
            ).inc()
        self.session_manager.record_translated()
        self.policy.mark_forwarded(self, session, targets)
        session.pending_targets = len(targets)
        for target in targets:
            target.handle_foreign_request(session.request_stream, session)
        return True

    def _retry_dispatch(
        self, failed: TranslationSession, attempt: int, epoch: int | None = None
    ) -> None:
        """One retry attempt: a fresh session carrying the failed one's
        request, re-run through the cache-then-dispatch pipeline (the cache
        may have warmed in the meantime — gossip keeps running during the
        backoff)."""
        if epoch is not None and epoch != self._epoch:
            return  # scheduled by a crashed incarnation
        session = self.session_manager.open(
            failed.origin_sdp,
            failed.requester,
            failed.request_stream,
            on_reply=self._deliver_reply,
        )
        for name, value in failed.vars.items():
            if not name.startswith("_obs"):
                session.vars[name] = value
        session.vars["attempt"] = attempt
        session.log(f"indiss: retry attempt {attempt}")
        record = self.policy.cache_answer(self, session)
        if record is not None:
            self._answer_from_cache(session, record)
            return
        targets = self.policy.select_targets(self, session)
        if not targets:
            session.complete_with([])
            return
        self.session_manager.record_translated()
        self.policy.mark_forwarded(self, session, targets)
        session.pending_targets = len(targets)
        for target in targets:
            target.handle_foreign_request(session.request_stream, session)

    # -- advertisements --------------------------------------------------------------

    def readvertise(self, record: ServiceRecord, exclude: str = "") -> None:
        """Announce a record through every unit except ``exclude``."""
        self.advertisements.readvertise(record, exclude=exclude)

    # -- crash-stop / crash-recovery ---------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: the process dies and every piece of volatile state
        dies with it — open sessions, instantiated units, the service
        cache, the monitor's sockets, the dedup window.

        The object survives only as an inert shell :meth:`restart` can
        revive (the simulator's stand-in for restarting the process on the
        same host).  Call *before* :meth:`Network.crash_node`, which tears
        down the remaining transport state; stale timers scheduled by the
        dead incarnation are fenced by the epoch counter and by the
        completed flag forced onto every open session.
        """
        if self.crashed:
            raise RuntimeError(f"INDISS@{self.node.address} is already crashed")
        self.crashed = True
        self._epoch += 1
        self.monitor.close()
        for session in self.session_manager.active():
            # A completed session swallows complete_with() from any unit
            # timer still in flight, so nothing composes a reply on behalf
            # of a dead process.
            session.completed = True
        self.units.clear()
        self.cache = ServiceCache(lambda: self.node.now_us)
        self.detections.clear()

    def restart(self) -> None:
        """Crash-recovery: rebuild the volatile layers exactly as
        ``__init__`` wired them, on the node's *restarted* stacks.

        The node must already be back on the network
        (:meth:`Network.restart_node`), because the rebuilt monitor and
        units bind fresh sockets and index fresh multicast memberships.
        The new session manager draws ids from the restart block the
        network minted, so no pre-crash session id is ever reused.
        Config, registry, policy, and unit factories are deployment-time
        state and survive the crash (they live on disk in a real
        deployment).
        """
        if not self.crashed:
            raise RuntimeError(f"INDISS@{self.node.address} is not crashed")
        self.crashed = False
        node = self.node
        self.monitor = MonitorComponent(node, self.registry, scan=self.config.units)
        self.monitor.on_raw = self._on_raw
        self.monitor.on_detected = self._on_detected
        self.cache = ServiceCache(lambda: node.now_us)
        self.classifier = StreamClassifier()
        self.session_manager = SessionManager(
            clock=lambda: node.now_us,
            dedup_window_us=self.config.dedup_window_us,
            dedup_scope=self.policy.dedup_scope,
            session_id_source=node.network.session_id_source(node),
        )
        self.advertisements = AdvertisementPipeline(self)
        if self.config.instantiate == "eager":
            for sdp_id in self.config.units:
                self._ensure_unit(sdp_id)

    # -- introspection -----------------------------------------------------------------

    def close(self) -> None:
        self.monitor.close()

    def describe(self) -> str:
        """One-line runtime architecture summary (Fig. 5 visualization)."""
        unit_list = ", ".join(self.instantiated_units) or "none"
        detected = ", ".join(self.monitor.detected_sdps()) or "none"
        return (
            f"INDISS@{self.node.address} [{self.config.deployment}] "
            f"units=({unit_list}) detected=({detected}) "
            f"sessions={self.stats.opened} cache={len(self.cache)}"
        )


__all__ = ["Indiss", "IndissConfig", "SessionStats"]
