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
``CpChatter``, ``QueryLoad``, ``Fill``) may appear in ``elements`` too, for
worlds whose load must start mid-construction (the UPnP ``media_city``
family interleaves device fleets and control-point chatter per district).

Each spec kind's base class says where it may appear (``_Element``,
``_Step``, or both; an ``_App`` may also nest in ``HostSpec.apps``), and
its ``check`` validates one item against everything declared before it.
``build.py``'s ``SPEC_TABLE`` holds each kind's apply handler, so a new
kind is one class here plus one table row there.

Every spec class is a frozen dataclass: hashable, comparable, printable —
``python -m repro.world describe <scenario>`` renders them directly.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Optional

from ..core.indiss import IndissConfig

DEFAULT_SEGMENT = "lan0"


class SpecError(ValueError):
    """A world spec failed validation."""


class _Context:
    """What the items walked so far declare, for later items to name;
    ``problem`` records a finding against the item at ``where``."""

    def __init__(self) -> None:
        self.segments: dict[str, SegmentSpec] = {}
        self.hosts: dict[str, HostSpec] = {}
        self.fleets: dict[str, FleetSpec] = {}
        self.host_apps: dict[str, list] = {}  # in build order
        self.probes: set[str] = set()
        self.snapshots: dict[str, tuple[str, ...]] = {}  # name -> its metrics
        #: (where, QueryLoad): frontend apps are checked once the walk ends.
        self.query_loads: list[tuple[str, QueryLoad]] = []
        self.problems: list[str] = []
        self.where = "network"

    def problem(self, text: str) -> None:
        self.problems.append(f"{self.where}: {text}")

    def require(self, ok: bool, text: str) -> None:
        if not ok:
            self.problem(text)

    def has_segment(self, name: str) -> bool:
        return name == DEFAULT_SEGMENT or name in self.segments

    def has_app(self, host: str, kinds) -> bool:
        return any(isinstance(app, kinds) for app in self.host_apps.get(host, ()))

    def host(self, name: str, label: Optional[str] = None) -> bool:
        """Whether ``name`` is a declared host (reporting it if not)."""
        self.require(name in self.hosts, f"unknown {label or 'host'} {name!r}")
        return name in self.hosts

    def indiss_host(self, name: Optional[str], label: str) -> None:
        """``name`` must be a declared host already carrying an IndissApp."""
        if name is None:
            self.problem(f"{label} names no host")
        elif self.host(name) and not self.has_app(name, IndissApp):
            self.problem(f"{label}: host {name!r} carries no IndissApp")

    def subnet(self, subnet: Optional[str]) -> None:
        if subnet is None:
            return
        parts = subnet.split(".")
        if len(parts) not in (2, 3) or not all(
            p.isdigit() and int(p) <= 255 for p in parts
        ):
            self.problem(f"bad subnet prefix {subnet!r}")

    def metric(self, metric: str) -> None:
        """The closed Snapshot/Delta vocabulary (``World.metric``)."""
        name, _, host = metric.partition(":")
        if name == "cache_answers":
            self.indiss_host(host or None, f"metric {metric!r}")
        elif name != "translations":
            self.problem(f"unknown metric {metric!r}")


class _Kind:
    """Base of every spec kind."""

    def check(self, ctx: _Context) -> None:
        """Validate this item against ``ctx``; the default has no rules."""


class _Element(_Kind):
    """A kind legal in ``WorldSpec.elements``."""


class _Step(_Kind):
    """A kind legal in ``WorldSpec.workload``."""


class _App(_Element):
    """An application: a standalone element naming its ``host``, or nested
    in a :class:`HostSpec`'s ``apps`` (host implied)."""

    def owner(self, nested: Optional[str] = None) -> Optional[str]:
        return nested or self.host

    def check(self, ctx: _Context, nested: Optional[str] = None) -> None:
        owner = self.owner(nested)
        if owner is None:
            ctx.problem(f"{type(self).__name__} names no host")
        elif ctx.host(owner):
            ctx.host_apps.setdefault(owner, []).append(self)


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
class SegmentSpec(_Element):
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

    def check(self, ctx: _Context) -> None:
        ctx.require(not ctx.has_segment(self.name), f"duplicate segment {self.name!r}")
        if self.link_to is not None and not ctx.has_segment(self.link_to):
            ctx.problem(f"link_to unknown segment {self.link_to!r}")
        ctx.subnet(self.subnet)
        ctx.segments[self.name] = self


@dataclass(frozen=True)
class HostSpec(_Element):
    """One host, with optional applications built right after the node.

    ``segment`` may be a segment name or a :class:`RingOwnerLeaf`
    resolver; ``None`` lands on the default segment.  Order-sensitive
    worlds attach applications as standalone elements (each app spec
    carries a ``host`` field) instead of nesting them here.
    """

    name: str
    segment: object = None  # str | RingOwnerLeaf | None
    apps: tuple = ()

    def check(self, ctx: _Context) -> None:
        ctx.require(self.name not in ctx.hosts, f"duplicate host {self.name!r}")
        ctx.hosts[self.name] = self
        segment = self.segment
        if isinstance(segment, RingOwnerLeaf):
            if segment.fleet not in ctx.fleets:
                ctx.problem(f"RingOwnerLeaf names unknown fleet {segment.fleet!r}")
        elif isinstance(segment, str):
            ctx.require(ctx.has_segment(segment), f"unknown segment {segment!r}")
        elif segment is not None:
            ctx.problem(f"bad segment reference {segment!r}")
        for app in self.apps:
            if isinstance(app, _App):
                app.check(ctx, self.name)
            else:
                ctx.problem(f"{type(app).__name__} is not an app spec")


@dataclass(frozen=True)
class BridgeSpec(_Element):
    """Multi-home ``host`` onto additional segments (gateway placement)."""

    host: str
    segments: tuple[str, ...] = ()

    def check(self, ctx: _Context) -> None:
        ctx.host(self.host, "bridge host")
        for segment in self.segments:
            if not ctx.has_segment(segment):
                ctx.problem(f"bridge onto unknown segment {segment!r}")


@dataclass(frozen=True)
class FleetSpec(_Element):
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

    def check(self, ctx: _Context) -> None:
        ctx.require(self.name not in ctx.fleets, f"duplicate fleet {self.name!r}")
        if not ctx.has_segment(self.backbone):
            ctx.problem(f"fleet backbone {self.backbone!r} unknown")
        for member in self.members:
            if ctx.host(member, "fleet member") and not ctx.has_app(member, IndissApp):
                ctx.problem(f"fleet member {member!r} has no INDISS app")
        for knob in ("suspect_after", "dead_after"):
            value = getattr(self, knob)
            ctx.require(value is None or value >= 1, f"{knob} must be >= 1")
        if self.dead_after is not None and self.suspect_after is None:
            ctx.problem("dead_after needs suspect_after")
        ctx.fleets[self.name] = self


@dataclass(frozen=True)
class Fill(_Element, _Step):
    """Pad the world with idle background hosts up to ``total_nodes``,
    round-robin across segments (skipping exhausted subnets).

    The hosts are an address reservation, one run per segment: they count
    in ``Network.node_count`` and hold their addresses, but no ``Node``
    exists for one until its address is first looked up."""

    total_nodes: int

    def check(self, ctx: _Context) -> None:
        ctx.require(self.total_nodes >= 0, "negative fill")


@dataclass(frozen=True)
class Ping(_Element):
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

    def check(self, ctx: _Context) -> None:
        ctx.host(self.src_host, "ping src host")
        ctx.host(self.dst_host, "ping dst host")
        ctx.require(self.period_us > 0 and self.payload_bytes >= 0, "bad ping sizing")
        ctx.require(0 <= self.port <= 65535, f"ping port {self.port} outside 0-65535")


# -- applications -----------------------------------------------------------
#
# Each app spec may be nested in a HostSpec's ``apps`` (host implied) or
# appear as a standalone element with an explicit ``host``.


@dataclass(frozen=True)
class SlpClient(_App):
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
class SlpService(_App):
    """A native SLP service agent with its registrations."""

    host: Optional[str] = None
    registrations: tuple[SlpServiceReg, ...] = ()


@dataclass(frozen=True)
class ClockDevice(_App):
    """The paper's UPnP clock device (``make_clock_device``)."""

    host: Optional[str] = None
    seed_offset: int = 0
    advertise: bool = False
    notify_period_us: Optional[int] = None


@dataclass(frozen=True)
class TypedDevice(_App):
    """A one-service synthetic UPnP device of ``type_name``."""

    type_name: str
    host: Optional[str] = None
    seed_offset: int = 0
    advertise: bool = True
    notify_period_us: Optional[int] = None
    udn_suffix: str = ""


@dataclass(frozen=True)
class ControlPoint(_App):
    """A native UPnP control point."""

    host: Optional[str] = None


#: profile name -> (units, dispatch, slp_wait_us, upnp_wait_us): the
#: calibrated INDISS recipes.  A profile with a UPnP unit also gets the
#: calibrated responder jitter.  ``IndissApp.check`` and ``World`` read it.
INDISS_PROFILES = {
    "paper": (("slp", "upnp"), "fanout", 15_000, 300_000),
    "chain": (("slp", "upnp"), "gateway-forward", 350_000, 300_000),
    "fleet": (("slp", "upnp"), "shard-ring", 350_000, 300_000),
    "slp-jini": (("slp", "jini"), "fanout", 15_000, 150_000),
    "media": (("slp", "upnp", "jini"), "shard-ring", 350_000, 300_000),
}


@dataclass(frozen=True)
class IndissApp(_App):
    """An INDISS instance.  ``profile`` selects one of the repo's
    calibrated configuration recipes (:data:`INDISS_PROFILES`):

    * ``"paper"`` — the §4.3 placement configs (slp+upnp units, fanout
      dispatch, paper waits);
    * ``"chain"`` — a bridged gateway-forward gateway (multi-hop waits);
    * ``"fleet"`` — a federated fleet member (shard-ring dispatch);
    * ``"slp-jini"`` — the SLP↔Jini gateway ablation config;
    * ``"media"`` — the three-unit (slp+upnp+jini) shard-ring gateway.

    ``deployment`` and ``answer_from_cache`` pass through to the config.
    """

    host: Optional[str] = None
    profile: str = "paper"
    deployment: str = "gateway"
    answer_from_cache: bool = False
    seed_offset: int = 0

    def check(self, ctx: _Context, nested: Optional[str] = None) -> None:
        super().check(ctx, nested)
        if self.profile not in INDISS_PROFILES:
            ctx.problem(f"unknown INDISS profile {self.profile!r}")


@dataclass(frozen=True)
class JiniItem:
    """A pre-registered Jini service item (``{address}`` resolves to the
    registrar host's address)."""

    service_id: str
    class_names: tuple[str, ...]
    endpoint_url: str
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class JiniRegistrar(_App):
    """A Jini lookup service, optionally announcing periodically."""

    host: Optional[str] = None
    announce_period_us: Optional[int] = None
    service_id_seed: Optional[int] = None
    items: tuple[JiniItem, ...] = ()


@dataclass(frozen=True)
class JiniListener(_App):
    """A passive Jini multicast-discovery listener."""

    host: Optional[str] = None


@dataclass(frozen=True)
class GenaSubscriber(_App):
    """A GENA event subscriber that SUBSCRIBEs to ``publisher_host``'s
    ``service_index``-th service shortly after boot."""

    publisher_host: str
    host: Optional[str] = None
    callback_port: int = 5004
    service_index: int = 0
    subscribe_delay_us: int = 50_000

    def check(self, ctx: _Context, nested: Optional[str] = None) -> None:
        super().check(ctx, nested)
        ctx.host(self.publisher_host, "publisher host")


@dataclass(frozen=True)
class GenaFeed(_App):
    """Periodic state-variable pushes from ``publisher_host``'s device.

    The feed runs *on* the publisher, so unlike other app specs it has no
    ``host`` field — it appears standalone, or nested under any host.
    """

    publisher_host: str
    period_us: int
    properties: tuple[tuple[str, str], ...]
    initial_delay_us: int = 0

    def check(self, ctx: _Context, nested: Optional[str] = None) -> None:
        if nested is not None:
            super().check(ctx, nested)
        ctx.host(self.publisher_host, "publisher host")


@dataclass(frozen=True)
class QueryFrontendApp(_App):
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

    def check(self, ctx: _Context, nested: Optional[str] = None) -> None:
        owner = self.owner(nested)
        if owner in ctx.hosts and not ctx.has_app(owner, IndissApp):
            ctx.problem(f"QueryFrontendApp needs an IndissApp on {owner!r} first")
        super().check(ctx, nested)


# -- workload steps ---------------------------------------------------------


@dataclass(frozen=True)
class Run(_Step):
    """Advance virtual time by ``duration_us``."""

    duration_us: int


@dataclass(frozen=True)
class Probe(_Step):
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

    #: probe kind -> the app an existing ``host`` must carry to issue it.
    AGENTS = {"slp": SlpClient, "upnp": ControlPoint}

    def check(self, ctx: _Context) -> None:
        ctx.require(self.name not in ctx.probes, f"duplicate probe name {self.name!r}")
        ctx.probes.add(self.name)
        agent = self.AGENTS.get(self.kind)
        ctx.require(agent is not None, f"unknown probe kind {self.kind!r}")
        if self.host is None and self.segment is None:
            ctx.problem("probe needs a host or a segment")
        if self.host is not None and ctx.host(self.host, "probe host") and agent:
            if not ctx.has_app(self.host, agent):
                ctx.problem(f"probe host {self.host!r} has no {agent.__name__}")
        if self.segment is not None and not ctx.has_segment(self.segment):
            ctx.problem(f"probe segment {self.segment!r} unknown")


class _Load(_Element, _Step):
    """Standing background clients spread across ``leaves``."""

    def check(self, ctx: _Context) -> None:
        for leaf in self.leaves:
            ctx.require(ctx.has_segment(leaf), f"chatter leaf {leaf!r} unknown")
        ctx.require(self.per_leaf >= 0 and self.period_us > 0, "bad chatter sizing")
        ctx.require(bool(self.types), "chatter has no target types")


@dataclass(frozen=True)
class Chatter(_Load):
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
class CpChatter(_Load):
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
class QueryLoad(_Element, _Step):
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

    def check(self, ctx: _Context) -> None:
        ctx.require(bool(self.frontends), "QueryLoad names no frontends")
        for host in self.frontends:
            if host not in ctx.hosts:
                ctx.problem(f"QueryLoad frontend host {host!r} unknown")
        for segment in self.segments:
            if not ctx.has_segment(segment):
                ctx.problem(f"QueryLoad segment {segment!r} unknown")
        ctx.require(bool(self.types), "QueryLoad has no target types")
        sizes = self.clients_per_segment, self.queries_per_client, self.mean_interval_us
        ctx.require(min(sizes) > 0, "bad QueryLoad sizing")
        if self.process not in self.PROCESSES:
            ctx.problem(f"unknown arrival process {self.process!r}")
        if self.process == "bursty" and self.burst <= 0:
            ctx.problem("bursty process needs burst >= 1")
        if self.process == "diurnal" and self.diurnal_period_us <= 0:
            ctx.problem("diurnal process needs a positive period")
        ctx.query_loads.append((ctx.where, self))


@dataclass(frozen=True)
class Churn(_Step):
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

    def check(self, ctx: _Context) -> None:
        ctx.require(self.fleet in ctx.fleets, f"unknown fleet {self.fleet!r}")


class _Adversity(_Step):
    """:class:`Fault`/:class:`Heal`: ``KINDS`` maps each kind to its operand
    fields, each with the :class:`~repro.net.Network` primitive applying it.
    A kind with one operand needs it; a kind with two takes exactly one."""

    def check(self, ctx: _Context) -> None:
        label = type(self).__name__.lower()
        operands = self.KINDS.get(self.kind)
        if operands is None:
            ctx.problem(f"unknown {label} kind {self.kind!r}")
            return
        if operands and sum(getattr(self, op) is not None for op in operands) != 1:
            one_of = "exactly one of " if len(operands) > 1 else ""
            ctx.problem(f"{label} {self.kind!r} needs {one_of}{'/'.join(operands)}")
        if self.link is not None:
            ctx.require(len(self.link) == 2, "link must be a (a, b) pair")
            for end in self.link:
                ctx.require(ctx.has_segment(end), f"link end {end!r} unknown")
        if self.segment is not None and not ctx.has_segment(self.segment):
            ctx.problem(f"unknown segment {self.segment!r}")
        if self.host is not None:
            ctx.host(self.host)


@dataclass(frozen=True)
class Fault(_Adversity):
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

    KINDS = {
        "cut": {"link": "cut_link"},
        "isolate": {"segment": "isolate_segment"},
        "degrade": {"link": "set_link_loss", "segment": "set_segment_loss"},
        "detach": {"host": "detach_node"},
    }

    def check(self, ctx: _Context) -> None:
        super().check(ctx)
        if self.kind == "degrade":
            if not isinstance(self.rate, (int, float)):
                ctx.problem(f"degrade rate {self.rate!r} is not a number")
            elif not (0.0 <= self.rate < 1.0):
                ctx.problem(f"degrade rate {self.rate!r} not in [0, 1)")
            if self.model not in ("bernoulli", "gilbert"):
                ctx.problem(f"unknown loss model {self.model!r}")


@dataclass(frozen=True)
class Heal(_Adversity):
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

    KINDS = {
        "link": {"link": "heal_link"},
        "segment": {"segment": "heal_segment"},
        "attach": {"host": "reattach_node"},
        "clear": {"link": "set_link_loss", "segment": "set_segment_loss"},
        "all": {},
    }


@dataclass(frozen=True)
class Crash(_Step):
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

    def check(self, ctx: _Context) -> None:
        ctx.host(self.host)


@dataclass(frozen=True)
class Restart(_Step):
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

    def check(self, ctx: _Context) -> None:
        ctx.host(self.host)


@dataclass(frozen=True)
class SetConfig(_Step):
    """Flip one :class:`~repro.core.IndissConfig` field on a fleet's
    members (or named hosts)."""

    attr: str
    value: object
    fleet: Optional[str] = None
    hosts: tuple[str, ...] = ()

    def check(self, ctx: _Context) -> None:
        if self.attr not in {f.name for f in fields(IndissConfig)}:
            ctx.problem(f"SetConfig attr {self.attr!r} is not an IndissConfig field")
        if self.fleet is not None and self.fleet not in ctx.fleets:
            ctx.problem(f"unknown fleet {self.fleet!r}")
        for host in self.hosts:
            ctx.indiss_host(host, "SetConfig")


@dataclass(frozen=True)
class Snapshot(_Step):
    """Capture named metrics now, for later :class:`Delta` steps.

    Metrics: ``"translations"`` (every INDISS instance's translation
    count) and ``"cache_answers:<host>"`` (one instance's cache answers).
    """

    name: str
    metrics: tuple[str, ...]

    def check(self, ctx: _Context) -> None:
        for metric in self.metrics:
            ctx.metric(metric)
        ctx.snapshots[self.name] = self.metrics


@dataclass(frozen=True)
class Delta(_Step):
    """Record ``extras[key] = metric(now) - metric(at snapshot)``."""

    key: str
    metric: str
    since: str

    def check(self, ctx: _Context) -> None:
        ctx.metric(self.metric)
        if self.since not in ctx.snapshots:
            ctx.problem(f"Delta since unknown snapshot {self.since!r}")
        elif self.metric not in ctx.snapshots[self.since]:
            ctx.problem(f"snapshot {self.since!r} did not capture {self.metric!r}")


@dataclass(frozen=True)
class Collect(_Step):
    """Run one registered collector now and merge its rows into extras.

    ``key=None`` merges the collector's dict at top level; a string key
    nests it (``Collect("hotpaths", key="hotpaths")``).  ``params`` are
    collector-specific (e.g. ``("group", "cp")``).
    """

    provider: str
    key: Optional[str] = None
    params: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Emit(_Step):
    """Record a constant into extras (world parameters worth reporting)."""

    key: str
    value: object


@dataclass(frozen=True)
class Check(_Step):
    """An in-workload invariant (build fails loudly when it does not hold).

    Kinds: ``"cache_nonempty"`` — the INDISS instance on ``host`` has at
    least one cached record (the Fig. 9b priming guarantee).
    """

    kind: str
    host: Optional[str] = None

    def check(self, ctx: _Context) -> None:
        ctx.require(self.kind == "cache_nonempty", f"unknown check kind {self.kind!r}")
        ctx.indiss_host(self.host, "Check")


@dataclass(frozen=True)
class TypeSweepReport(_Step):
    """Build the per-type ownership/answer report of a sharded fleet:
    for every ``(type_name, warm, probe_name)`` entry record the ring
    owner, recorded device placement, and the probe's results/latency."""

    fleet: str
    entries: tuple[tuple[str, bool, str], ...]
    key: str = "per_type"

    def check(self, ctx: _Context) -> None:
        ctx.require(self.fleet in ctx.fleets, f"unknown fleet {self.fleet!r}")
        for _, _, probe in self.entries:
            ctx.require(probe in ctx.probes, f"unknown probe {probe!r}")


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
        """All validation problems (empty when the spec is well-formed):
        each item's placement, then its own ``check`` against what the
        items before it declared, then the cross-item passes."""
        ctx = _Context()
        ctx.subnet(self.subnet)
        for place, role, noun, items in (
            ("elements", _Element, "topology element", self.elements),
            ("workload", _Step, "workload step", self.workload),
        ):
            for i, item in enumerate(items):
                ctx.where = f"{place}[{i}]"
                if isinstance(item, role):
                    item.check(ctx)
                else:
                    ctx.problem(f"{type(item).__name__} is not a {noun}")
        for where, load in ctx.query_loads:
            for host in load.frontends:
                if host in ctx.hosts and not ctx.has_app(host, QueryFrontendApp):
                    ctx.problems.append(
                        f"{where}: QueryLoad frontend {host!r} has no QueryFrontendApp"
                    )
        ctx.problems.extend(self._subnet_budget_problems(ctx.segments, ctx.hosts))
        return ctx.problems

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
    "INDISS_PROFILES",
]
