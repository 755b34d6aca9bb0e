"""Declarative world specifications: the repo's construction vocabulary.

A :class:`WorldSpec` is a validated, ordered description of a simulated
deployment — segments, links, hosts, the applications riding on them,
gateway fleets — plus a phased workload (``Run`` / ``Probe`` / ``Chatter``
/ ``Churn`` / measurement steps).  ``World.build`` (see ``build.py``)
compiles a spec into today's :class:`~repro.net.Network` /
:class:`~repro.net.Segment` / :class:`~repro.federation.GatewayFleet`
objects; the spec itself never touches the simulator.

Ordering is semantic: elements build in list order, and workload steps run
in list order.  The simulator draws shared randomness (latency models) in
event order, so two specs that differ only in element order are two
different (both valid) worlds.  Standing-load steps (``Chatter``,
``CpChatter``, ``Fill``) may appear in ``elements`` too, for worlds whose
load must start mid-construction (the UPnP ``media_city`` family interleaves
device fleets and control-point chatter per district).

Every spec class is a frozen dataclass: hashable, comparable, printable —
``python -m repro.world describe <scenario>`` renders them directly.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Optional


class SpecError(ValueError):
    """A world spec failed validation."""


# -- placement resolvers ----------------------------------------------------


@dataclass(frozen=True)
class RingOwnerLeaf:
    """Resolves, at build time, to the edge segment of the fleet member
    that owns ``key`` on the fleet's shard ring.

    This is how a spec places a *cold* (non-advertising) service where its
    ring owner can natively reach it — the ``sharded_backbone`` invariant
    that a cold type costs exactly one owner translation.
    """

    fleet: str
    key: str


# -- topology elements ------------------------------------------------------


@dataclass(frozen=True)
class SegmentSpec:
    """One LAN segment, optionally linked to an earlier segment.

    ``seed_offset`` selects the segment's latency model:
    ``costs.latency_model(seed + seed_offset)``; ``None`` shares the
    network's default model.  ``subnet`` may be a two-octet prefix for a
    /16 (thousand-node fills) or three octets for a /24; ``None``
    auto-allocates ``192.168.x``.
    """

    name: str
    subnet: Optional[str] = None
    seed_offset: Optional[int] = None
    link_to: Optional[str] = None
    link_latency_us: Optional[int] = None


@dataclass(frozen=True)
class HostSpec:
    """One host, with optional applications built right after the node.

    ``segment`` may be a segment name or a :class:`RingOwnerLeaf`
    resolver; ``None`` lands on the default segment.  Order-sensitive
    worlds attach applications as standalone elements (each app spec
    carries a ``host`` field) instead of nesting them here.
    """

    name: str
    segment: object = None  # str | RingOwnerLeaf | None
    apps: tuple = ()


@dataclass(frozen=True)
class BridgeSpec:
    """Multi-home ``host`` onto additional segments (gateway placement)."""

    host: str
    segments: tuple[str, ...] = ()


@dataclass(frozen=True)
class FleetSpec:
    """Federate gateways sharing ``backbone`` into one
    :class:`~repro.federation.GatewayFleet`; ``members`` join in order."""

    name: str
    backbone: str
    members: tuple[str, ...] = ()
    gossip_period_us: Optional[int] = 500_000
    #: Arm the gossipers' silent-peer catch-up: after this many rounds
    #: without hearing a peer, push it a full live-state delta (see
    #: :class:`~repro.federation.CacheGossiper`).  None — off.
    catchup_after: Optional[int] = None
    #: Elections rank from wire-carried utilization samples piggybacked on
    #: gossip digests instead of the shared traffic monitors.
    wire_utilization: bool = False
    #: Members re-translate a request the ring owner re-issued when the
    #: owner's own translation came back empty (cold start).
    cold_start_escalation: bool = False
    #: Arm the fleet's heartbeat failure detector: a member unheard for
    #: this many of an observer's gossip rounds is suspected (see
    #: :class:`~repro.federation.FailureDetector`).  None — off, and the
    #: fleet is byte-identical to one built before the detector existed.
    suspect_after: Optional[int] = None
    #: Missed rounds beyond ``suspect_after`` before a suspect is declared
    #: dead (ring repair fires).  Defaults to ``suspect_after``.
    dead_after: Optional[int] = None


@dataclass(frozen=True)
class Fill:
    """Pad the world with idle background hosts up to ``total_nodes``,
    round-robin across segments (skipping exhausted subnets)."""

    total_nodes: int


@dataclass(frozen=True)
class Ping:
    """A standing unicast stream: ``src_host`` periodically sends a fixed
    payload to a UDP sink bound on ``dst_host``.

    This is the district-crossing load generator for the partitioned
    engine's worlds (``district_grid``): plain UDP with no protocol on
    top, so a flow between districts exercises exactly the conservative
    cross-frame path.  Per-flow counters (``sent``/``received``) aggregate
    under ``group`` (see ``Collect("ping")``).  Give each flow its own
    ``dst_host`` — sinks sharing a node and port would each count every
    arriving frame.
    """

    src_host: str
    dst_host: str
    period_us: int
    payload_bytes: int = 64
    port: int = 4999
    start_delay_us: int = 100_000
    group: str = "ping"


# -- applications -----------------------------------------------------------
#
# Each app spec may be nested in a HostSpec's ``apps`` (host implied) or
# appear as a standalone element with an explicit ``host``.


@dataclass(frozen=True)
class SlpClient:
    """A native SLP user agent."""

    host: Optional[str] = None
    wait_us: int = 400_000
    retries: int = 0


@dataclass(frozen=True)
class SlpServiceReg:
    """One SLP registration; ``{address}`` in the URL resolves to the
    owning host's address at build time."""

    url: str
    service_type: str
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SlpService:
    """A native SLP service agent with its registrations."""

    host: Optional[str] = None
    registrations: tuple[SlpServiceReg, ...] = ()


@dataclass(frozen=True)
class ClockDevice:
    """The paper's UPnP clock device (``make_clock_device``)."""

    host: Optional[str] = None
    seed_offset: int = 0
    advertise: bool = False
    notify_period_us: Optional[int] = None


@dataclass(frozen=True)
class TypedDevice:
    """A one-service synthetic UPnP device of ``type_name``."""

    type_name: str
    host: Optional[str] = None
    seed_offset: int = 0
    advertise: bool = True
    notify_period_us: Optional[int] = None
    udn_suffix: str = ""


@dataclass(frozen=True)
class ControlPoint:
    """A native UPnP control point."""

    host: Optional[str] = None


@dataclass(frozen=True)
class IndissApp:
    """An INDISS instance.  ``profile`` selects one of the repo's
    calibrated configuration recipes:

    * ``"paper"`` — the §4.3 placement configs (slp+upnp units, fanout
      dispatch, paper waits; honours ``deployment``/``answer_from_cache``);
    * ``"chain"`` — a bridged gateway-forward gateway (multi-hop waits);
    * ``"fleet"`` — a federated fleet member (shard-ring dispatch);
    * ``"slp-jini"`` — the SLP↔Jini gateway ablation config;
    * ``"media"`` — the three-unit (slp+upnp+jini) shard-ring gateway.
    """

    host: Optional[str] = None
    profile: str = "paper"
    deployment: str = "gateway"
    answer_from_cache: bool = False
    seed_offset: int = 0

    PROFILES = ("paper", "chain", "fleet", "slp-jini", "media")


@dataclass(frozen=True)
class JiniItem:
    """A pre-registered Jini service item (``{address}`` resolves to the
    registrar host's address)."""

    service_id: str
    class_names: tuple[str, ...]
    endpoint_url: str
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class JiniRegistrar:
    """A Jini lookup service, optionally announcing periodically."""

    host: Optional[str] = None
    announce_period_us: Optional[int] = None
    service_id_seed: Optional[int] = None
    items: tuple[JiniItem, ...] = ()


@dataclass(frozen=True)
class JiniListener:
    """A passive Jini multicast-discovery listener."""

    host: Optional[str] = None


@dataclass(frozen=True)
class GenaSubscriber:
    """A GENA event subscriber that SUBSCRIBEs to ``publisher_host``'s
    ``service_index``-th service shortly after boot."""

    publisher_host: str
    host: Optional[str] = None
    callback_port: int = 5004
    service_index: int = 0
    subscribe_delay_us: int = 50_000


@dataclass(frozen=True)
class GenaFeed:
    """Periodic state-variable pushes from ``publisher_host``'s device.

    The feed runs *on* the publisher, so unlike other app specs it has no
    ``host`` field — it appears standalone, or nested under any host.
    """

    publisher_host: str
    period_us: int
    properties: tuple[tuple[str, str], ...]
    initial_delay_us: int = 0


@dataclass(frozen=True)
class QueryFrontendApp:
    """A discovery query endpoint (:class:`repro.serving.QueryFrontend`)
    riding on the same host's INDISS instance.

    Serves lookup-by-type / lookup-by-url / batched / district queries
    from the gateway's gossiped service cache over UDP ``port``, stamping
    every answer with its staleness (µs since the answering records'
    implied observation).  Answers stamped beyond ``stale_after_us``
    still ship but are counted stale; a type miss re-issues the request
    through the gateway's translation units when ``fallback`` is set
    (at most once per type per ``fallback_window_us``).
    """

    host: Optional[str] = None
    port: int = 4620
    stale_after_us: int = 2_000_000
    fallback: bool = True
    fallback_window_us: int = 500_000


#: App spec classes, for validation and HostSpec.apps checking.
APP_SPECS = (
    SlpClient,
    SlpService,
    ClockDevice,
    TypedDevice,
    ControlPoint,
    IndissApp,
    JiniRegistrar,
    JiniListener,
    GenaSubscriber,
    GenaFeed,
    QueryFrontendApp,
)


# -- workload steps ---------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """Advance virtual time by ``duration_us``."""

    duration_us: int


@dataclass(frozen=True)
class Probe:
    """Issue one named discovery and (optionally) run a horizon for it.

    ``host`` names an existing host carrying an :class:`SlpClient` /
    :class:`ControlPoint`; alternatively ``segment`` creates a fresh
    probe host (named ``node_name`` or the probe name) with its own agent.
    ``horizon_us`` runs the simulation immediately after issuing —
    omit it when a later :class:`Run` step advances time for a batch of
    probes.  ``headline=True`` makes this probe the scenario's headline
    latency; ``extras_prefix`` records ``<prefix>_results`` and
    ``<prefix>_latency_us`` into the outcome extras.
    """

    name: str
    target: str
    kind: str = "slp"  # "slp" | "upnp"
    host: Optional[str] = None
    segment: Optional[str] = None
    node_name: Optional[str] = None
    wait_us: Optional[int] = None
    horizon_us: Optional[int] = None
    headline: bool = False
    extras_prefix: Optional[str] = None


@dataclass(frozen=True)
class Chatter:
    """Background native SLP clients spread across ``leaves``.

    Each client periodically re-searches one of ``types`` (round-robin,
    staggered start); per-client accounting aggregates under ``group``
    (see ``Collect("chatter")``).
    """

    leaves: tuple[str, ...]
    types: tuple[str, ...]
    per_leaf: int
    period_us: int
    start_delay_us: int = 200_000
    group: str = "chatter"


@dataclass(frozen=True)
class CpChatter:
    """Background UPnP control points re-issuing M-SEARCHes.

    The kick stagger divides one period across a *global* cohort:
    ``index0`` is this batch's first index and ``total`` the cohort size,
    so multi-district worlds keep their cohorts out of phase.
    """

    leaves: tuple[str, ...]
    types: tuple[str, ...]
    per_leaf: int
    period_us: int
    wait_us: int = 200_000
    stagger_base_us: int = 100_000
    index0: int = 0
    total: int = 1
    group: str = "cp"


@dataclass(frozen=True)
class QueryLoad:
    """An open-loop query workload against :class:`QueryFrontendApp`s.

    ``clients_per_segment`` fresh client nodes are created on each of
    ``segments``; each client fires ``queries_per_client`` requests at the
    frontends (round-robin over ``frontends``) following a **seeded
    arrival process** — every inter-arrival gap is drawn at build time
    from ``random.Random(seed + seed_offset + client_index)``, so the
    schedule (and therefore the whole query/response byte stream) is
    identical under the single, partitioned, and multiprocess engines.

    Processes: ``"poisson"`` (exponential gaps of mean
    ``mean_interval_us``), ``"bursty"`` (trains of ``burst`` back-to-back
    queries separated by ``burst × mean`` gaps — same long-run rate,
    bursty arrivals), ``"diurnal"`` (sinusoidal rate modulation with
    period ``diurnal_period_us``: the mean gap sweeps between
    0.5× and 1.5× of ``mean_interval_us``).

    Query mix: lookup-by-type over ``types`` (round-robin) by default;
    every ``batch_every``-th query instead batches *all* the types in one
    request, every ``districts_every``-th asks "which districts have X",
    and every ``url_every``-th re-looks-up the last URL the client saw
    (skipped until a response delivered one).  Zero disables a mix arm.

    Open loop: sends never wait for responses.  Per-client accounting
    (sent / responses / hits / stale / latency histogram) aggregates
    under ``group`` (see ``Collect("serving")``).
    """

    frontends: tuple[str, ...]
    types: tuple[str, ...]
    segments: tuple[str, ...]
    clients_per_segment: int
    queries_per_client: int
    mean_interval_us: int
    process: str = "poisson"
    burst: int = 4
    diurnal_period_us: int = 1_000_000
    batch_every: int = 0
    districts_every: int = 0
    url_every: int = 0
    #: When set, type lookups carry a district-scope bound: answers are
    #: filtered to records resolving into these districts.
    scope_districts: tuple[int, ...] = ()
    port: int = 4620
    start_delay_us: int = 100_000
    seed_offset: int = 0
    group: str = "query"

    PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class Churn:
    """Sustained fleet membership churn: detach a member's host from the
    network (dropping its route plans and multicast index entries), let the
    fleet run degraded, then re-attach and re-join.

    ``cycles`` victims rotate round-robin over the fleet; each cycle holds
    the member down for ``down_us`` and lets the fleet recover for
    ``recover_us`` before the next leave.  Per-cycle accounting lands in
    the ``churn`` collector group.
    """

    fleet: str
    cycles: int
    down_us: int
    recover_us: int
    group: str = "churn"


@dataclass(frozen=True)
class Fault:
    """Inject one adversity condition, effective immediately.

    Kinds (``World`` applies each through one :class:`~repro.net.Network`
    primitive — ``cut_link``, ``isolate_segment``, ``set_link_loss`` /
    ``set_segment_loss``, ``detach_node``):

    * ``"cut"`` — take ``link=(a, b)`` down; unicast reroutes around it
      (or drops when no path survives) and frames in flight on it are lost;
    * ``"isolate"`` — cut every up link incident to ``segment``;
    * ``"degrade"`` — attach a seeded loss model (``model`` is
      ``"bernoulli"`` or ``"gilbert"``, ``rate`` its loss/burst-entry
      probability) to exactly one of ``link``/``segment``;
    * ``"detach"`` — take ``host`` off the network entirely (its route
      plans and multicast index entries drop), remembering its home
      segments for a later ``Heal(kind="attach")``.

    ``World.build`` arms the network's adversity machinery whenever the
    spec carries a Fault step; specs without one stay bit-identical to
    their goldens.
    """

    kind: str
    link: Optional[tuple[str, str]] = None
    segment: Optional[str] = None
    host: Optional[str] = None
    rate: float = 0.0
    model: str = "bernoulli"
    seed_offset: int = 0

    KINDS = ("cut", "isolate", "degrade", "detach")


@dataclass(frozen=True)
class Heal:
    """Undo prior :class:`Fault` conditions, effective immediately.

    Kinds: ``"link"`` — bring ``link=(a, b)`` back up; ``"segment"`` —
    restore every link incident to ``segment``; ``"attach"`` — re-attach
    a detached ``host`` onto its remembered home segments; ``"clear"`` —
    remove the loss model from exactly one of ``link``/``segment``;
    ``"all"`` — heal every down link, clear every loss model, re-attach
    every detached host.
    """

    kind: str = "all"
    link: Optional[tuple[str, str]] = None
    segment: Optional[str] = None
    host: Optional[str] = None

    KINDS = ("link", "segment", "attach", "clear", "all")


@dataclass(frozen=True)
class Crash:
    """Crash-stop ``host``, effective immediately.

    Harsher than ``Fault(detach)`` in every observable way: frames in
    flight to the host drop exactly once (detach lands them), its open TCP
    connections die without a FIN, and all volatile application state —
    INDISS units, sessions, cache, session-id counter — is lost.  If the
    host is a fleet member, its gossiper dies with it while its membership
    record and ring points *stay*: peers learn of the death only through
    the fleet's failure detector (or never, if the detector is unarmed).

    Applied at a barrier-synchronized step boundary, so it is legal under
    the partitioned engine.  Hand-built networks without a spec call
    :meth:`Network.crash_node` directly.
    """

    host: str


@dataclass(frozen=True)
class Restart:
    """Bring a crashed ``host`` back, effective immediately.

    The transport reattaches to its crash-time home segments, and the
    node's future sessions mint ids from a fresh restart block (see
    ``RESTART_SESSION_BLOCK``) so pre- and post-crash sessions can never
    collide.  A host that carried an INDISS instance gets a cold rebuild:
    empty cache, fresh session manager, re-created units.  A fleet member
    additionally re-joins its fleet; with ``bootstrap=True`` its new
    gossiper immediately requests a full cache transfer from one live
    peer instead of waiting for anti-entropy.
    """

    host: str
    bootstrap: bool = False


@dataclass(frozen=True)
class SetConfig:
    """Flip one config field on a fleet's members (or named hosts)."""

    attr: str
    value: object
    fleet: Optional[str] = None
    hosts: tuple[str, ...] = ()


@dataclass(frozen=True)
class Snapshot:
    """Capture named metrics now, for later :class:`Delta` steps."""

    name: str
    metrics: tuple[str, ...]


@dataclass(frozen=True)
class Delta:
    """Record ``extras[key] = metric(now) - metric(at snapshot)``."""

    key: str
    metric: str
    since: str


@dataclass(frozen=True)
class Collect:
    """Run one registered collector now and merge its rows into extras.

    ``key=None`` merges the collector's dict at top level; a string key
    nests it (``Collect("hotpaths", key="hotpaths")``).  ``params`` are
    collector-specific (e.g. ``("group", "cp")``).
    """

    provider: str
    key: Optional[str] = None
    params: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Emit:
    """Record a constant into extras (world parameters worth reporting)."""

    key: str
    value: object


@dataclass(frozen=True)
class Check:
    """An in-workload invariant (build fails loudly when it does not hold).

    Kinds: ``"cache_nonempty"`` — the INDISS instance on ``host`` has at
    least one cached record (the Fig. 9b priming guarantee).
    """

    kind: str
    host: Optional[str] = None


@dataclass(frozen=True)
class TypeSweepReport:
    """Build the per-type ownership/answer report of a sharded fleet:
    for every ``(type_name, warm, probe_name)`` entry record the ring
    owner, recorded device placement, and the probe's results/latency."""

    fleet: str
    entries: tuple[tuple[str, bool, str], ...]
    key: str = "per_type"


WORKLOAD_STEPS = (
    Run,
    Probe,
    Chatter,
    CpChatter,
    QueryLoad,
    Churn,
    Fault,
    Heal,
    Crash,
    Restart,
    SetConfig,
    Snapshot,
    Delta,
    Collect,
    Emit,
    Check,
    TypeSweepReport,
    Fill,
)

#: Everything legal in WorldSpec.elements.
ELEMENT_SPECS = (SegmentSpec, HostSpec, BridgeSpec, FleetSpec, Fill, Ping) + APP_SPECS + (
    Chatter,
    CpChatter,
    QueryLoad,
)


# -- the world spec ---------------------------------------------------------


@dataclass(frozen=True)
class WorldSpec:
    """A complete declarative scenario: topology + phased workload."""

    name: str
    elements: tuple = ()
    workload: tuple = ()
    description: str = ""
    #: Default segment's subnet (``Network(subnet=...)``).
    subnet: Optional[str] = None
    capture: bool = False
    parse_once: bool = True
    #: Declares this world district-partitionable: ``World.build`` freezes
    #: the spec's partition map even under the single-threaded engine, so
    #: cross-district delivery takes the deterministic (jitter-free) path
    #: in *every* backend and single<->partitioned runs stay bit-identical.
    #: Leave False for worlds that never run partitioned — frozen maps
    #: change cross-district delay draws, which would shift their goldens.
    partitioned: bool = False

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Schema and budget checks; raises :class:`SpecError` on the
        first problem.  Never builds a network — this is what the
        ``python -m repro.world`` CLI runs over every registered spec."""
        problems = self.problems()
        if problems:
            raise SpecError(f"spec {self.name!r}: " + "; ".join(problems))

    def problems(self) -> list[str]:
        """All validation problems (empty when the spec is well-formed)."""
        problems: list[str] = []
        segments: dict[str, SegmentSpec] = {}
        hosts: dict[str, HostSpec] = {}
        fleets: dict[str, FleetSpec] = {}
        host_apps: dict[str, list] = {}
        #: (where, QueryLoad) pairs, validated after host_apps is complete.
        query_loads: list[tuple[str, QueryLoad]] = []
        default_name = "lan0"

        def check_subnet(subnet: Optional[str], where: str) -> None:
            if subnet is None:
                return
            parts = subnet.split(".")
            if len(parts) not in (2, 3) or not all(
                p.isdigit() and int(p) <= 255 for p in parts
            ):
                problems.append(f"{where}: bad subnet prefix {subnet!r}")

        check_subnet(self.subnet, "network")

        def note_app(app, host_name: Optional[str], where: str) -> None:
            if not isinstance(app, APP_SPECS):
                problems.append(f"{where}: {type(app).__name__} is not an app spec")
                return
            owner = getattr(app, "host", None) or host_name
            feed_like = isinstance(app, (GenaSubscriber, GenaFeed))
            if owner is None and not isinstance(app, GenaFeed):
                problems.append(f"{where}: {type(app).__name__} names no host")
            elif owner is not None and owner not in hosts and not feed_like:
                problems.append(f"{where}: unknown host {owner!r}")
            if feed_like and app.publisher_host not in hosts:
                problems.append(
                    f"{where}: unknown publisher host {app.publisher_host!r}"
                )
            if isinstance(app, GenaSubscriber) and owner is not None and owner not in hosts:
                problems.append(f"{where}: unknown host {owner!r}")
            if isinstance(app, IndissApp) and app.profile not in IndissApp.PROFILES:
                problems.append(f"{where}: unknown INDISS profile {app.profile!r}")
            if owner is not None:
                host_apps.setdefault(owner, []).append(app)

        for i, element in enumerate(self.elements):
            where = f"elements[{i}]"
            if isinstance(element, SegmentSpec):
                if element.name in segments or element.name == default_name:
                    problems.append(f"{where}: duplicate segment {element.name!r}")
                if element.link_to is not None and (
                    element.link_to != default_name and element.link_to not in segments
                ):
                    problems.append(
                        f"{where}: link_to unknown segment {element.link_to!r}"
                    )
                check_subnet(element.subnet, where)
                segments[element.name] = element
            elif isinstance(element, HostSpec):
                if element.name in hosts:
                    problems.append(f"{where}: duplicate host {element.name!r}")
                hosts[element.name] = element
                self._check_segment_ref(element.segment, segments, fleets, where, problems)
                for app in element.apps:
                    note_app(app, element.name, where)
            elif isinstance(element, BridgeSpec):
                if element.host not in hosts:
                    problems.append(f"{where}: bridge names unknown host {element.host!r}")
                for seg in element.segments:
                    if seg != default_name and seg not in segments:
                        problems.append(f"{where}: bridge onto unknown segment {seg!r}")
            elif isinstance(element, FleetSpec):
                if element.name in fleets:
                    problems.append(f"{where}: duplicate fleet {element.name!r}")
                if element.backbone != default_name and element.backbone not in segments:
                    problems.append(
                        f"{where}: fleet backbone {element.backbone!r} unknown"
                    )
                for member in element.members:
                    apps = host_apps.get(member, ())
                    if member not in hosts:
                        problems.append(f"{where}: fleet member {member!r} unknown")
                    elif not any(isinstance(a, IndissApp) for a in apps):
                        problems.append(
                            f"{where}: fleet member {member!r} has no INDISS app"
                        )
                for knob in ("suspect_after", "dead_after"):
                    value = getattr(element, knob)
                    if value is not None and value < 1:
                        problems.append(f"{where}: {knob} must be >= 1")
                if element.dead_after is not None and element.suspect_after is None:
                    problems.append(f"{where}: dead_after needs suspect_after")
                fleets[element.name] = element
            elif isinstance(element, Fill):
                if element.total_nodes < 0:
                    problems.append(f"{where}: negative fill")
            elif isinstance(element, Ping):
                for role, host in (("src", element.src_host), ("dst", element.dst_host)):
                    if host not in hosts:
                        problems.append(f"{where}: ping {role} host {host!r} unknown")
                if element.period_us <= 0 or element.payload_bytes < 0:
                    problems.append(f"{where}: bad ping sizing")
            elif isinstance(element, (Chatter, CpChatter)):
                self._check_load_step(element, segments, where, problems)
            elif isinstance(element, QueryLoad):
                query_loads.append((where, element))
            elif isinstance(element, APP_SPECS):
                note_app(element, None, where)
            else:
                problems.append(
                    f"{where}: {type(element).__name__} is not a topology element"
                )

        for j, step in enumerate(self.workload):
            where = f"workload[{j}]"
            if not isinstance(step, WORKLOAD_STEPS):
                problems.append(f"{where}: {type(step).__name__} is not a workload step")
                continue
            if isinstance(step, Probe):
                if step.kind not in ("slp", "upnp"):
                    problems.append(f"{where}: unknown probe kind {step.kind!r}")
                if step.host is None and step.segment is None:
                    problems.append(f"{where}: probe needs a host or a segment")
                if step.host is not None and step.host not in hosts:
                    problems.append(f"{where}: probe host {step.host!r} unknown")
                if step.segment is not None and (
                    step.segment != default_name and step.segment not in segments
                ):
                    problems.append(f"{where}: probe segment {step.segment!r} unknown")
            elif isinstance(step, (Chatter, CpChatter)):
                self._check_load_step(step, segments, where, problems)
            elif isinstance(step, QueryLoad):
                query_loads.append((where, step))
            elif isinstance(step, (Churn, TypeSweepReport)):
                if step.fleet not in fleets:
                    problems.append(f"{where}: unknown fleet {step.fleet!r}")
            elif isinstance(step, SetConfig):
                if step.fleet is not None and step.fleet not in fleets:
                    problems.append(f"{where}: unknown fleet {step.fleet!r}")
                for host in step.hosts:
                    if host not in hosts:
                        problems.append(f"{where}: unknown host {host!r}")
            elif isinstance(step, (Fault, Heal)):
                self._check_fault_step(step, segments, hosts, where, problems)
            elif isinstance(step, (Crash, Restart)):
                if step.host not in hosts:
                    problems.append(f"{where}: unknown host {step.host!r}")
            elif isinstance(step, Check) and step.host is not None:
                if step.host not in hosts:
                    problems.append(f"{where}: unknown host {step.host!r}")

        for host_name, apps in host_apps.items():
            if any(isinstance(a, QueryFrontendApp) for a in apps) and not any(
                isinstance(a, IndissApp) for a in apps
            ):
                problems.append(
                    f"host {host_name!r}: QueryFrontendApp needs an IndissApp "
                    f"on the same host"
                )
        for where, step in query_loads:
            self._check_query_load(step, segments, hosts, host_apps, where, problems)

        problems.extend(self._subnet_budget_problems(segments, hosts))
        return problems

    @staticmethod
    def _check_query_load(step, segments, hosts, host_apps, where, problems) -> None:
        if not step.frontends:
            problems.append(f"{where}: QueryLoad names no frontends")
        for host in step.frontends:
            if host not in hosts:
                problems.append(f"{where}: QueryLoad frontend host {host!r} unknown")
            elif not any(
                isinstance(a, QueryFrontendApp) for a in host_apps.get(host, ())
            ):
                problems.append(
                    f"{where}: QueryLoad frontend {host!r} has no QueryFrontendApp"
                )
        for segment in step.segments:
            if segment != "lan0" and segment not in segments:
                problems.append(f"{where}: QueryLoad segment {segment!r} unknown")
        if not step.types:
            problems.append(f"{where}: QueryLoad has no target types")
        if (
            step.clients_per_segment <= 0
            or step.queries_per_client <= 0
            or step.mean_interval_us <= 0
        ):
            problems.append(f"{where}: bad QueryLoad sizing")
        if step.process not in QueryLoad.PROCESSES:
            problems.append(f"{where}: unknown arrival process {step.process!r}")
        if step.process == "bursty" and step.burst <= 0:
            problems.append(f"{where}: bursty process needs burst >= 1")
        if step.process == "diurnal" and step.diurnal_period_us <= 0:
            problems.append(f"{where}: diurnal process needs a positive period")

    @staticmethod
    def _check_segment_ref(segment, segments, fleets, where, problems) -> None:
        if segment is None or isinstance(segment, RingOwnerLeaf):
            if isinstance(segment, RingOwnerLeaf) and segment.fleet not in fleets:
                problems.append(f"{where}: RingOwnerLeaf names unknown fleet {segment.fleet!r}")
            return
        if not isinstance(segment, str):
            problems.append(f"{where}: bad segment reference {segment!r}")
        elif segment != "lan0" and segment not in segments:
            problems.append(f"{where}: unknown segment {segment!r}")

    @staticmethod
    def _check_fault_step(step, segments, hosts, where, problems) -> None:
        is_fault = isinstance(step, Fault)
        label = "fault" if is_fault else "heal"
        if step.kind not in type(step).KINDS:
            problems.append(f"{where}: unknown {label} kind {step.kind!r}")
            return

        def known_segment(name: str) -> bool:
            return name == "lan0" or name in segments

        # Which operand each kind requires: exactly that one, nothing else.
        needs = {
            "cut": "link",
            "isolate": "segment",
            "detach": "host",
            "link": "link",
            "segment": "segment",
            "attach": "host",
        }.get(step.kind)
        if step.kind in ("degrade", "clear"):
            if (step.link is None) == (step.segment is None):
                problems.append(
                    f"{where}: {label} {step.kind!r} needs exactly one of "
                    f"link/segment"
                )
        elif needs is not None and getattr(step, needs) is None:
            problems.append(f"{where}: {label} {step.kind!r} needs {needs}")
        if step.link is not None:
            if len(step.link) != 2:
                problems.append(f"{where}: link must be a (a, b) pair")
            else:
                for end in step.link:
                    if not known_segment(end):
                        problems.append(f"{where}: link end {end!r} unknown")
        if step.segment is not None and not known_segment(step.segment):
            problems.append(f"{where}: unknown segment {step.segment!r}")
        if step.host is not None and step.host not in hosts:
            problems.append(f"{where}: unknown host {step.host!r}")
        if is_fault and step.kind == "degrade":
            if not isinstance(step.rate, (int, float)):
                problems.append(f"{where}: degrade rate {step.rate!r} is not a number")
            elif not (0.0 <= step.rate < 1.0):
                problems.append(f"{where}: degrade rate {step.rate!r} not in [0, 1)")
            if step.model not in ("bernoulli", "gilbert"):
                problems.append(f"{where}: unknown loss model {step.model!r}")

    @staticmethod
    def _check_load_step(step, segments, where, problems) -> None:
        for leaf in step.leaves:
            if leaf != "lan0" and leaf not in segments:
                problems.append(f"{where}: chatter leaf {leaf!r} unknown")
        if step.per_leaf < 0 or step.period_us <= 0:
            problems.append(f"{where}: bad chatter sizing")
        if not step.types:
            problems.append(f"{where}: chatter has no target types")

    def _subnet_budget_problems(self, segments, hosts) -> list[str]:
        """The address-budget guard: explicit hosts plus the background
        fill must fit the declared subnets, and /16 leaf prefixes must not
        collide with each other or the default segment."""
        problems: list[str] = []
        prefixes: dict[str, str] = {"lan0": self.subnet or "192.168.1"}
        for name, seg in segments.items():
            if seg.subnet is not None:
                prefixes[name] = seg.subnet
        seen: dict[str, str] = {}
        for name, prefix in prefixes.items():
            if prefix in seen:
                problems.append(
                    f"segments {seen[prefix]!r} and {name!r} share subnet {prefix!r}"
                )
            seen[prefix] = name

        def capacity(prefix: Optional[str]) -> int:
            if prefix is None:
                return 254  # auto-allocated /24
            return 255 * 254 if len(prefix.split(".")) == 2 else 254

        per_segment: dict[str, int] = {}
        for host in hosts.values():
            seg = host.segment if isinstance(host.segment, str) else None
            per_segment[seg or "lan0"] = per_segment.get(seg or "lan0", 0) + 1
        declared = {"lan0": capacity(self.subnet)}
        for name, seg in segments.items():
            declared[name] = capacity(seg.subnet)
        for name, used in per_segment.items():
            if name in declared and used > declared[name]:
                problems.append(
                    f"segment {name!r} declares {used} hosts but its subnet "
                    f"holds only {declared[name]}"
                )
        fill = sum(e.total_nodes for e in self.elements if isinstance(e, Fill))
        fill += sum(s.total_nodes for s in self.workload if isinstance(s, Fill))
        total_capacity = sum(declared.values())
        if fill > total_capacity:
            problems.append(
                f"fill of {fill} nodes exceeds the combined subnet capacity "
                f"({total_capacity})"
            )
        return problems

    # -- description --------------------------------------------------------

    def summary(self) -> dict:
        """Compact structural stats (the CLI's ``list`` row)."""
        counts: dict[str, int] = {}
        for element in self.elements:
            kind = type(element).__name__
            counts[kind] = counts.get(kind, 0) + 1
        return {
            "segments": 1 + counts.get("SegmentSpec", 0),
            "hosts": counts.get("HostSpec", 0),
            "fleets": counts.get("FleetSpec", 0),
            "fill": sum(
                e.total_nodes
                for e in tuple(self.elements) + tuple(self.workload)
                if isinstance(e, Fill)
            ),
            "steps": len(self.workload),
            "probes": sum(1 for s in self.workload if isinstance(s, Probe)),
        }

    def describe(self) -> str:
        """A human-readable rendering (the CLI's ``describe`` output)."""
        lines = [f"world {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        row = self.summary()
        lines.append(
            "  {segments} segments, {hosts} hosts (+{fill} fill), "
            "{fleets} fleets, {steps} workload steps".format(**row)
        )
        lines.append("  elements:")
        for element in self.elements:
            lines.append(f"    - {_render(element)}")
        lines.append("  workload:")
        for step in self.workload:
            lines.append(f"    - {_render(step)}")
        return "\n".join(lines)


def _render(spec) -> str:
    """One-line rendering that omits default-valued fields."""
    parts = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.default is not MISSING:
            if value == f.default:
                continue
        elif f.default_factory is not MISSING and value == f.default_factory():
            continue
        text = repr(value)
        if len(text) > 48:
            text = text[:45] + "..."
        parts.append(f"{f.name}={text}")
    return f"{type(spec).__name__}({', '.join(parts)})"


__all__ = [
    "SpecError",
    "WorldSpec",
    "SegmentSpec",
    "HostSpec",
    "BridgeSpec",
    "FleetSpec",
    "Fill",
    "Ping",
    "RingOwnerLeaf",
    "SlpClient",
    "SlpService",
    "SlpServiceReg",
    "ClockDevice",
    "TypedDevice",
    "ControlPoint",
    "IndissApp",
    "JiniRegistrar",
    "JiniListener",
    "JiniItem",
    "GenaSubscriber",
    "GenaFeed",
    "QueryFrontendApp",
    "Run",
    "Probe",
    "Chatter",
    "CpChatter",
    "QueryLoad",
    "Churn",
    "Fault",
    "Heal",
    "Crash",
    "Restart",
    "SetConfig",
    "Snapshot",
    "Delta",
    "Collect",
    "Emit",
    "Check",
    "TypeSweepReport",
    "APP_SPECS",
    "ELEMENT_SPECS",
    "WORKLOAD_STEPS",
]
