"""The scenario catalog: every measured world, expressed as a WorldSpec.

Each function here returns a pure :class:`~repro.world.spec.WorldSpec` —
no network is touched until ``World.build``.  The catalog covers the
paper's §4.3 configurations (Figs. 7-9 plus the gateway ablations), the
multi-segment and federation families, the metro/media scale workloads,
and the spec-only scenarios the imperative builders made painful
(sustained fleet churn, parameterized deep-chain district sweeps).

Element order is load-bearing: the simulator draws shared randomness in
event order, so these specs list elements in exactly the order the
legacy hand-rolled builders constructed them — the golden-parity tests in
``tests/world`` assert the compiled worlds fire identical event
schedules.

``SCENARIO_SPECS`` maps scenario names to their (parameterized) spec
builders and is the one scenario registry: ``run_world(spec, seed=...)``
runs any entry, the bench harness and benchmarks look scenarios up here,
and ``python -m repro.world`` validates and describes them without
running anything.  ``SMALL_SCALE_OVERRIDES`` holds the reduced sizes the
test suite runs the benchmark-sized entries at.
"""

from __future__ import annotations

from typing import Callable

from .spec import (
    BridgeSpec,
    Chatter,
    Check,
    Churn,
    ClockDevice,
    Collect,
    ControlPoint,
    CpChatter,
    Crash,
    Delta,
    Emit,
    Fault,
    Fill,
    FleetSpec,
    Heal,
    GenaFeed,
    GenaSubscriber,
    HostSpec,
    IndissApp,
    JiniItem,
    JiniListener,
    JiniRegistrar,
    Ping,
    Probe,
    QueryFrontendApp,
    QueryLoad,
    Restart,
    RingOwnerLeaf,
    Run,
    SegmentSpec,
    SetConfig,
    SlpClient,
    SlpService,
    SlpServiceReg,
    Snapshot,
    TypedDevice,
    TypeSweepReport,
    WorldSpec,
)

#: The paper's clock device, as registered by its SLP stand-in.
CLOCK_REG = SlpServiceReg(
    url="service:clock:soap://{address}:4005/service/timer/control",
    service_type="service:clock:soap",
    attributes=(
        ("friendlyName", "CyberGarage Clock Device"),
        ("modelName", "Clock"),
    ),
)

CLOCK_DEVICE_TYPE = "urn:schemas-upnp-org:device:clock:1"


# -- Figure 7: native baselines -------------------------------------------------


def native_slp_spec() -> WorldSpec:
    return WorldSpec(
        name="native_slp",
        description="SLP client -> SLP service, no INDISS (paper: 0.7 ms).",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            SlpClient(host="client"),
            SlpService(host="service", registrations=(CLOCK_REG,)),
        ),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )


def native_upnp_spec() -> WorldSpec:
    return WorldSpec(
        name="native_upnp",
        description="UPnP control point -> UPnP device, no INDISS (paper: 40 ms).",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            ControlPoint(host="client"),
            ClockDevice(host="service"),
        ),
        workload=(
            Probe(
                "main", CLOCK_DEVICE_TYPE, kind="upnp", host="client",
                wait_us=300_000, horizon_us=2_000_000, headline=True,
            ),
        ),
    )


# -- Figure 8: INDISS on the service side --------------------------------------


def slp_to_upnp_service_side_spec() -> WorldSpec:
    return WorldSpec(
        name="slp_to_upnp_service_side",
        description="SLP client -> [SLP-UPnP] -> UPnP service (paper: 65 ms).",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            SlpClient(host="client"),
            ClockDevice(host="service"),
            IndissApp(host="service", deployment="service"),
        ),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )


def upnp_to_slp_service_side_spec() -> WorldSpec:
    return WorldSpec(
        name="upnp_to_slp_service_side",
        description="UPnP client -> [UPnP-SLP] -> SLP service (paper: 40 ms).",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            ControlPoint(host="client"),
            SlpService(host="service", registrations=(CLOCK_REG,)),
            IndissApp(host="service", deployment="service"),
        ),
        workload=(
            Probe(
                "main", CLOCK_DEVICE_TYPE, kind="upnp", host="client",
                wait_us=300_000, horizon_us=2_000_000, headline=True,
            ),
        ),
    )


# -- Figure 9: INDISS on the client side ----------------------------------------


def slp_to_upnp_client_side_spec() -> WorldSpec:
    return WorldSpec(
        name="slp_to_upnp_client_side",
        description="[SLP-UPnP] client -> UPnP service across the LAN (paper: 80 ms).",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            SlpClient(host="client"),
            ClockDevice(host="service"),
            IndissApp(host="client", deployment="client"),
        ),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )


def upnp_to_slp_client_side_spec(warm_cache: bool = True) -> WorldSpec:
    """Fig. 9b: the paper's best case is only reachable warm — a priming
    search populates the cache, then the measured search runs past the
    duplicate-suppression window (see DESIGN.md)."""
    workload: tuple = ()
    if warm_cache:
        workload = (
            Probe(
                "priming", CLOCK_DEVICE_TYPE, kind="upnp", host="client",
                wait_us=300_000, horizon_us=2_500_000,
            ),
            Check("cache_nonempty", host="client"),
        )
    workload += (
        Probe(
            "main", CLOCK_DEVICE_TYPE, kind="upnp", host="client",
            wait_us=300_000, horizon_us=2_000_000, headline=True,
        ),
    )
    return WorldSpec(
        name="upnp_to_slp_client_side",
        description="[UPnP-SLP] client -> SLP service (paper: 0.12 ms, warm).",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            ControlPoint(host="client"),
            SlpService(host="service", registrations=(CLOCK_REG,)),
            IndissApp(
                host="client", deployment="client", answer_from_cache=warm_cache
            ),
        ),
        workload=workload,
    )


# -- Gateway placement (paper §4.2's dedicated-node configuration) ---------------


def slp_to_upnp_gateway_spec() -> WorldSpec:
    return WorldSpec(
        name="slp_to_upnp_gateway",
        description="SLP client -> gateway INDISS -> UPnP service.",
        elements=(
            HostSpec("client"),
            HostSpec("service"),
            HostSpec("gateway"),
            SlpClient(host="client"),
            ClockDevice(host="service"),
            IndissApp(host="gateway", deployment="gateway"),
        ),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )


def slp_to_jini_gateway_spec() -> WorldSpec:
    return WorldSpec(
        name="slp_to_jini_gateway",
        description="SLP client -> gateway INDISS -> Jini registrar.",
        elements=(
            HostSpec("client"),
            HostSpec("registrar"),
            HostSpec("gateway"),
            SlpClient(host="client"),
            JiniRegistrar(
                host="registrar",
                items=(
                    JiniItem(
                        service_id="sid-clock",
                        class_names=("org.amigo.Clock",),
                        attributes=(("friendlyName", "Jini Clock"),),
                        endpoint_url="jini://{address}:4161/clock",
                    ),
                ),
            ),
            IndissApp(host="gateway", profile="slp-jini"),
        ),
        workload=(
            Run(1_500_000),  # hear at least one registrar announcement
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )


# -- Multi-segment internetworks ------------------------------------------------


def multi_segment_home_spec(nodes: int = 50) -> WorldSpec:
    return WorldSpec(
        name="multi_segment_home",
        description="Two-segment home: SLP upstairs, UPnP in the den, one bridge.",
        elements=(
            SegmentSpec("den", seed_offset=1000, link_to="lan0"),
            HostSpec("client"),
            HostSpec("service", segment="den"),
            HostSpec("gateway"),
            BridgeSpec("gateway", ("den",)),
            SlpClient(host="client"),
            ClockDevice(host="service"),
            IndissApp(host="gateway", profile="chain"),
            Fill(nodes),
        ),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )


def gateway_chain_spec(segments: int = 3) -> WorldSpec:
    if segments < 2:
        raise ValueError("gateway_chain needs at least two segments")
    chain = ["lan0"] + [f"seg{i}" for i in range(1, segments)]
    elements: list = [
        SegmentSpec(chain[i], seed_offset=i, link_to=chain[i - 1])
        for i in range(1, segments)
    ]
    elements += [
        HostSpec("client", segment=chain[0]),
        HostSpec("service", segment=chain[-1]),
    ]
    for i in range(segments - 1):
        elements += [
            HostSpec(f"gateway{i}", segment=chain[i]),
            BridgeSpec(f"gateway{i}", (chain[i + 1],)),
            IndissApp(host=f"gateway{i}", profile="chain", seed_offset=i),
        ]
    elements += [SlpClient(host="client"), ClockDevice(host="service")]
    return WorldSpec(
        name="gateway_chain",
        description="A bridged INDISS gateway on every boundary of a segment chain.",
        elements=tuple(elements),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=3_000_000, headline=True,
            ),
        ),
    )


def campus_fanout_spec(segments: int = 6, nodes: int = 120) -> WorldSpec:
    if segments < 3:
        raise ValueError("campus_fanout needs a backbone plus at least two leaves")
    elements: list = []
    leaves = []
    for i in range(segments - 1):
        leaf = f"leaf{i}"
        leaves.append(leaf)
        elements += [
            SegmentSpec(leaf, seed_offset=1 + i, link_to="lan0"),
            HostSpec(f"gateway{i}", segment=leaf),
            BridgeSpec(f"gateway{i}", ("lan0",)),
            IndissApp(host=f"gateway{i}", profile="chain", seed_offset=i),
        ]
    elements += [
        HostSpec("client", segment=leaves[0]),
        HostSpec("service", segment=leaves[-1]),
        SlpClient(host="client"),
        ClockDevice(host="service"),
        Fill(nodes),
    ]
    return WorldSpec(
        name="campus_fanout",
        description="A campus backbone with leaf LANs, one bridged gateway per leaf.",
        elements=tuple(elements),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=3_000_000, headline=True,
            ),
        ),
    )


# -- Federated gateway fleets ----------------------------------------------------


def _campus_fleet_elements(
    segments: int,
    nodes: int,
    gossip_period_us,
    federated: bool,
    wide_subnets: bool,
    fleet_name: str = "fleet",
):
    """Backbone + leaves, one gateway per leaf, optionally federated —
    ending with the background fill, exactly like the imperative helper."""
    if segments < 3:
        raise ValueError("the campus needs a backbone plus at least two leaves")
    elements: list = []
    leaves = []
    members = []
    for i in range(segments - 1):
        leaf = f"leaf{i}"
        leaves.append(leaf)
        elements += [
            SegmentSpec(
                leaf,
                subnet=f"10.{i + 1}" if wide_subnets else None,
                seed_offset=1 + i,
                link_to="lan0",
            ),
            HostSpec(f"gateway{i}", segment=leaf),
            BridgeSpec(f"gateway{i}", ("lan0",)),
            IndissApp(
                host=f"gateway{i}",
                profile="fleet" if federated else "chain",
                seed_offset=i,
            ),
        ]
        members.append(f"gateway{i}")
    if federated:
        elements.append(
            FleetSpec(fleet_name, "lan0", tuple(members), gossip_period_us)
        )
    elements.append(Fill(nodes))
    return elements, leaves, members


def federated_campus_spec(
    segments: int = 6,
    nodes: int = 500,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    federated: bool = True,
) -> WorldSpec:
    elements, leaves, members = _campus_fleet_elements(
        segments, nodes, gossip_period_us, federated,
        wide_subnets=nodes > 200 * segments,
    )
    elements += [
        HostSpec("client", segment=leaves[0]),
        HostSpec("service", segment=leaves[-1]),
        SlpClient(host="client"),
        ClockDevice(host="service", advertise=True),
    ]
    fleet_params = (("fleet", "fleet" if federated else None),)
    workload = (
        Run(warmup_us),
        Collect("warm_members", key="warm_members_after_gossip", params=fleet_params),
        Snapshot("pre_query", ("translations",)),
        Probe(
            "main", "service:clock", host="client",
            horizon_us=1_500_000, headline=True,
        ),
        Collect("fleet", params=fleet_params),
        Delta("query_translations", "translations", "pre_query"),
        # Repeat query inside the dedup window: the edge gateway must
        # answer from its cache without any fleet re-discovery.
        Snapshot("pre_repeat", ("translations", f"cache_answers:{members[0]}")),
        Probe(
            "repeat", "service:clock", host="client",
            horizon_us=1_000_000, extras_prefix="repeat",
        ),
        Delta("repeat_cache_answers", f"cache_answers:{members[0]}", "pre_repeat"),
        Delta("repeat_translations", "translations", "pre_repeat"),
        # Warm-edge phase: past the dedup window, with cache answering
        # enabled, the gossiped record alone serves the query.
        SetConfig("answer_from_cache", True, hosts=tuple(members)),
        Run(2_500_000),
        Snapshot("pre_warm", ("translations",)),
        Probe(
            "warm_edge", "service:clock", host="client",
            horizon_us=1_000_000, extras_prefix="warm_edge",
        ),
        Delta("warm_edge_translations", "translations", "pre_warm"),
    )
    return WorldSpec(
        name="federated_campus",
        description="The campus backbone with the leaf gateways running as one fleet.",
        elements=tuple(elements),
        workload=workload,
    )


def partitioned_campus_spec(
    segments: int = 6,
    nodes: int = 500,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    hold_us: int = 2_000_000,
    recover_us: int = 2_000_000,
    catchup_after: int = 2,
    degrade_rate: float = 0.05,
) -> WorldSpec:
    """The federated campus under a scripted partition/heal cycle.

    The fleet runs with every adversity knob on (wire-carried election
    samples, silent-peer catch-up, cold-start escalation).  After gossip
    warms the caches, the service-side leaf is partitioned off — its
    backbone link cut and its gateway detached — while the client-side
    backbone link degrades to a lossy Bernoulli link; a mid-partition
    probe must still succeed from the client edge's gossiped cache, and a
    post-heal probe confirms recovery.
    """
    from dataclasses import replace

    elements, leaves, members = _campus_fleet_elements(
        segments, nodes, gossip_period_us, True,
        wide_subnets=nodes > 200 * segments,
    )
    elements = [
        replace(
            el,
            catchup_after=catchup_after,
            wire_utilization=True,
            cold_start_escalation=True,
        )
        if isinstance(el, FleetSpec)
        else el
        for el in elements
    ]
    elements += [
        HostSpec("client", segment=leaves[0]),
        HostSpec("service", segment=leaves[-1]),
        SlpClient(host="client"),
        ClockDevice(host="service", advertise=True),
    ]
    far_leaf, far_gateway = leaves[-1], members[-1]
    fleet_params = (("fleet", "fleet"),)
    workload = (
        Run(warmup_us),
        Collect("warm_members", key="warm_members_after_gossip", params=fleet_params),
        SetConfig("answer_from_cache", True, hosts=tuple(members)),
        Probe(
            "pre", "service:clock", host="client",
            horizon_us=1_000_000, headline=True, extras_prefix="pre",
        ),
        Snapshot("pre_partition", ("translations",)),
        # Partition the service leaf; degrade the client leaf's backbone
        # link so the surviving fleet gossips over a lossy path.
        Fault("degrade", link=(leaves[0], "lan0"), rate=degrade_rate),
        Fault("cut", link=(far_leaf, "lan0")),
        Fault("detach", host=far_gateway),
        Run(hold_us),
        Probe(
            "during", "service:clock", host="client",
            horizon_us=1_000_000, extras_prefix="during",
        ),
        Heal("link", link=(far_leaf, "lan0")),
        Heal("attach", host=far_gateway),
        Heal("clear", link=(leaves[0], "lan0")),
        Run(recover_us),
        Probe(
            "post", "service:clock", host="client",
            horizon_us=1_000_000, extras_prefix="post",
        ),
        Delta("cycle_translations", "translations", "pre_partition"),
        Collect("fleet", params=fleet_params),
        Emit("partitioned_leaf", far_leaf),
    )
    return WorldSpec(
        name="partitioned_campus",
        description="The federated campus across one partition/heal cycle "
        "with lossy backbone gossip and every adversity knob on.",
        elements=tuple(elements),
        workload=workload,
    )


def crash_recovery_spec(
    segments: int = 5,
    nodes: int = 120,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    suspect_after: int = 6,
    dead_after: int = 4,
    down_us: int = 4_000_000,
    recover_us: int = 2_500_000,
) -> WorldSpec:
    """The federated campus through one crash/restart cycle.

    The fleet runs with the heartbeat failure detector armed.  After
    gossip warms every cache, the service-side gateway crash-stops: its
    volatile state dies, in-flight frames to it drop, and — crucially —
    no peer is told.  The detector must notice from missed gossip rounds
    (``suspect`` then ``dead``, within ``(suspect_after + dead_after)``
    rounds), repair the ring, and exclude the corpse from elections; a
    mid-outage probe is answered from the surviving members' gossiped
    caches.  The gateway then restarts cold with ``bootstrap=True``, so
    one state-transfer exchange — not slow anti-entropy — refills its
    cache, and a post-recovery probe confirms the fleet is whole again.

    ``suspect_after`` must exceed the round-robin hearing gap (a fleet of
    n members hears any given peer about every n-1 rounds), or a healthy
    fleet would suspect itself.
    """
    from dataclasses import replace

    elements, leaves, members = _campus_fleet_elements(
        segments, nodes, gossip_period_us, True,
        wide_subnets=nodes > 200 * segments,
    )
    elements = [
        replace(el, suspect_after=suspect_after, dead_after=dead_after)
        if isinstance(el, FleetSpec)
        else el
        for el in elements
    ]
    elements += [
        HostSpec("client", segment=leaves[0]),
        HostSpec("service", segment=leaves[-1]),
        SlpClient(host="client"),
        ClockDevice(host="service", advertise=True),
    ]
    victim = members[-1]
    fleet_params = (("fleet", "fleet"),)
    workload = (
        Run(warmup_us),
        Collect("warm_members", key="warm_members_after_gossip", params=fleet_params),
        SetConfig("answer_from_cache", True, hosts=tuple(members)),
        Probe(
            "pre", "service:clock", host="client",
            horizon_us=1_000_000, headline=True, extras_prefix="pre",
        ),
        Snapshot("pre_crash", ("translations",)),
        Crash(victim),
        Run(down_us),
        Probe(
            "during", "service:clock", host="client",
            horizon_us=1_000_000, extras_prefix="during",
        ),
        Restart(victim, bootstrap=True),
        Run(recover_us),
        Probe(
            "post", "service:clock", host="client",
            horizon_us=1_000_000, extras_prefix="post",
        ),
        Delta("cycle_translations", "translations", "pre_crash"),
        Collect("fleet", params=fleet_params),
        Collect("fleet_health", key="health", params=fleet_params),
        Emit("crashed_member", victim),
        Emit("gossip_period_us", gossip_period_us),
        Emit("detect_bound_us", (suspect_after + dead_after) * gossip_period_us),
    )
    return WorldSpec(
        name="crash_recovery",
        description="The federated campus through one gateway crash-stop: "
        "heartbeat detection, ring repair, cold restart with a cache "
        "bootstrap handshake.",
        elements=tuple(elements),
        workload=workload,
    )


def sharded_backbone_spec(
    members: int = 6,
    nodes: int = 800,
    service_types: int = 4,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    chatter_per_leaf: int = 0,
    chatter_period_us: int = 400_000,
) -> WorldSpec:
    if members < 2:
        raise ValueError("sharded_backbone needs at least two fleet members")
    if service_types < 1:
        raise ValueError("sharded_backbone needs at least one service type")
    elements, leaves, _ = _campus_fleet_elements(
        members + 1, 0, gossip_period_us, True,
        wide_subnets=nodes > 200 * (members + 1),
    )
    type_names = [f"sensor{i}" for i in range(service_types)]
    entries = []
    for i, type_name in enumerate(type_names):
        warm = i % 2 == 0
        if warm:
            segment: object = leaves[i % members]
        else:
            # Cold types must live where their ring owner can reach them.
            segment = RingOwnerLeaf("fleet", type_name)
        elements += [
            HostSpec(f"device-{type_name}", segment=segment),
            TypedDevice(type_name, host=f"device-{type_name}", advertise=warm),
        ]
        entries.append((type_name, warm, f"q-{type_name}"))
    for type_name in type_names:
        elements += [
            HostSpec(f"client-{type_name}"),
            SlpClient(host=f"client-{type_name}"),
        ]
    if chatter_per_leaf > 0:
        warm_types = tuple(type_names[0::2]) or tuple(type_names)
        elements.append(
            Chatter(tuple(leaves), warm_types, chatter_per_leaf, chatter_period_us)
        )
    elements.append(Fill(nodes))
    workload: list = [
        Run(warmup_us),
        Snapshot("pre_query", ("translations",)),
    ]
    for i, type_name in enumerate(type_names):
        workload.append(
            Probe(
                f"q-{type_name}", f"service:{type_name}",
                host=f"client-{type_name}", headline=i == 0,
            )
        )
    workload += [
        Run(2_500_000),
        Collect("fleet", params=(("fleet", "fleet"),)),
        TypeSweepReport("fleet", tuple(entries)),
        Delta("query_translations", "translations", "pre_query"),
        Collect(
            "ring_spread", key="owner_spread",
            params=(("fleet", "fleet"), ("keys", tuple(type_names))),
        ),
        Collect("hotpaths", key="hotpaths"),
    ]
    if chatter_per_leaf > 0:
        workload.append(Collect("chatter"))
    return WorldSpec(
        name="sharded_backbone",
        description="Many service types sharded across a fleet on one backbone.",
        elements=tuple(elements),
        workload=tuple(workload),
    )


# -- Metro-scale internetwork -----------------------------------------------------


def _district_backbones(districts: int, prefix: str) -> tuple[list, list]:
    """Chained district backbone segments (``lan0`` plus /16 siblings)."""
    backbones = ["lan0"]
    elements = []
    for d in range(1, districts):
        name = f"{prefix}{d}"
        elements.append(
            SegmentSpec(
                name, subnet=f"10.{200 + d}", seed_offset=10 + d,
                link_to=backbones[d - 1],
            )
        )
        backbones.append(name)
    return backbones, elements


def _guard_metro_shape(name: str, districts: int, leaves_per_district: int) -> None:
    if districts * leaves_per_district > 199:
        raise ValueError(
            f"{name} supports at most 199 leaves total "
            f"(got {districts * leaves_per_district}): leaf /16 subnets "
            "10.1-10.199 must not collide with backbone subnets 10.200+"
        )
    if districts > 56:
        raise ValueError(f"{name} supports at most 56 districts")


def metro_backbone_spec(
    districts: int = 5,
    leaves_per_district: int = 8,
    nodes: int = 5000,
    types_per_district: int = 4,
    chatter_per_leaf: int = 10,
    chatter_period_us: int = 200_000,
    gossip_period_us: int = 250_000,
    warmup_us: int = 1_200_000,
    run_us: int = 5_000_000,
) -> WorldSpec:
    if districts < 2:
        raise ValueError("metro_backbone needs at least two districts")
    if leaves_per_district < 1 or types_per_district < 1:
        raise ValueError("metro_backbone needs at least one leaf and one type")
    _guard_metro_shape("metro_backbone", districts, leaves_per_district)
    backbones, elements = _district_backbones(districts, "metro")
    district_leaves: list[list[str]] = []
    district_types: list[list[str]] = []
    for d, backbone in enumerate(backbones):
        leaves = []
        members = []
        for l in range(leaves_per_district):
            leaf = f"d{d}l{l}"
            leaves.append(leaf)
            gateway = f"gw-d{d}l{l}"
            members.append(gateway)
            elements += [
                SegmentSpec(
                    leaf,
                    subnet=f"10.{d * leaves_per_district + l + 1}",
                    seed_offset=100 * d + l,
                    link_to=backbone,
                ),
                HostSpec(gateway, segment=leaf),
                BridgeSpec(gateway, (backbone,)),
                IndissApp(host=gateway, profile="fleet", seed_offset=100 * d + l),
            ]
        district_leaves.append(leaves)
        elements.append(
            FleetSpec(f"fleet{d}", backbone, tuple(members), gossip_period_us)
        )
        type_names = [f"m{d}t{t}" for t in range(types_per_district)]
        district_types.append(type_names)
        for t, type_name in enumerate(type_names):
            host = f"dev-{type_name}"
            elements += [
                HostSpec(host, segment=leaves[t % leaves_per_district]),
                TypedDevice(type_name, host=host),
            ]
    for d in range(districts - 1):
        inter = f"inter-{d}{d + 1}"
        elements += [
            HostSpec(inter, segment=backbones[d]),
            BridgeSpec(inter, (backbones[d + 1],)),
            IndissApp(host=inter, profile="chain", seed_offset=900 + d),
        ]
    far_district = min(2, districts - 1)
    workload: list = [
        Chatter(
            tuple(district_leaves[d]), tuple(district_types[d]),
            chatter_per_leaf, chatter_period_us,
        )
        for d in range(districts)
    ]
    workload += [
        Fill(nodes),
        Run(warmup_us),
        # Intra-district probe (headline) + cross-district probe (extras).
        Probe(
            "local", f"service:{district_types[0][0]}",
            segment=district_leaves[0][0], node_name="probe-local", headline=True,
        ),
        Probe(
            "far", f"service:{district_types[far_district][0]}",
            segment=district_leaves[0][1 % leaves_per_district],
            node_name="probe-far", wait_us=1_500_000,
            extras_prefix="cross_district",
        ),
        Run(run_us),
        Emit("districts", districts),
        Collect("gateway_count", key="gateways"),
        Collect("node_count", key="total_nodes"),
        Collect("hotpaths", key="hotpaths"),
        Collect("chatter"),
    ]
    return WorldSpec(
        name="metro_backbone",
        description="Chained district backbones, one federated fleet per district, "
        "under sustained edge query load.",
        subnet="10.200",
        elements=tuple(elements),
        workload=tuple(workload),
    )


# -- Media city (the UPnP-dominated parse-once workload) ---------------------------


def media_city_spec(
    districts: int = 3,
    leaves_per_district: int = 6,
    nodes: int = 3000,
    types_per_district: int = 4,
    devices_per_leaf: int = 8,
    cp_per_leaf: int = 5,
    cp_period_us: int = 500_000,
    notify_period_us: int = 1_200_000,
    slp_island_leaves: int = 2,
    slp_chatter_per_island: int = 5,
    slp_chatter_period_us: int = 400_000,
    jini_registrars_per_district: int = 1,
    jini_listeners_per_district: int = 3,
    gossip_period_us: int = 250_000,
    warmup_us: int = 800_000,
    run_us: int = 4_000_000,
) -> WorldSpec:
    if districts < 1 or leaves_per_district < 1:
        raise ValueError("media_city needs at least one district and leaf")
    _guard_metro_shape("media_city", districts, leaves_per_district)
    backbones, elements = _district_backbones(districts, "city")
    district_types: list[list[str]] = []
    first_leaf = None
    for d, backbone in enumerate(backbones):
        leaves = []
        members = []
        for l in range(leaves_per_district):
            leaf = f"c{d}l{l}"
            leaves.append(leaf)
            gateway = f"gw-c{d}l{l}"
            members.append(gateway)
            elements += [
                SegmentSpec(
                    leaf,
                    subnet=f"10.{d * leaves_per_district + l + 1}",
                    seed_offset=100 * d + l,
                    link_to=backbone,
                ),
                HostSpec(gateway, segment=leaf),
                BridgeSpec(gateway, (backbone,)),
                IndissApp(host=gateway, profile="media", seed_offset=100 * d + l),
            ]
        if first_leaf is None:
            first_leaf = leaves[0]
        elements.append(
            FleetSpec(f"fleet{d}", backbone, tuple(members), gossip_period_us)
        )
        type_names = [f"media{d}t{t}" for t in range(types_per_district)]
        district_types.append(type_names)

        # Device fleets: every leaf hosts several advertising root devices
        # cycling through the district's types.
        for l, leaf in enumerate(leaves):
            for i in range(devices_per_leaf):
                type_name = type_names[(l * devices_per_leaf + i) % len(type_names)]
                host = f"dev-c{d}l{l}n{i}"
                elements += [
                    HostSpec(host, segment=leaf),
                    TypedDevice(
                        type_name, host=host, seed_offset=i,
                        notify_period_us=notify_period_us,
                        udn_suffix=f"-c{d}l{l}n{i}",
                    ),
                ]

        # Control-point chatter; the kick stagger divides one period across
        # the whole *city* cohort, so the index base counts across districts.
        elements.append(
            CpChatter(
                tuple(leaves), tuple(type_names), cp_per_leaf, cp_period_us,
                index0=d * leaves_per_district * cp_per_leaf,
                total=districts * leaves_per_district * cp_per_leaf,
            )
        )

        # GENA-style chatter: one subscriber per district receives periodic
        # state-variable pushes from the district's first device.
        if devices_per_leaf > 0:
            publisher = f"dev-c{d}l0n0"
            elements += [
                HostSpec(f"gena-c{d}", segment=leaves[0]),
                GenaSubscriber(publisher, host=f"gena-c{d}"),
                GenaFeed(
                    publisher, notify_period_us,
                    (("Status", f"tick{d}"),), initial_delay_us=300_000,
                ),
            ]

        # SLP islands: a registered service agent plus chatter UAs on the
        # first few leaves.
        island = leaves[:slp_island_leaves]
        if island and slp_chatter_per_island > 0:
            elements += [
                HostSpec(f"slp-sa-c{d}", segment=island[0]),
                SlpService(
                    host=f"slp-sa-c{d}",
                    registrations=(
                        SlpServiceReg(
                            url=f"service:media{d}slp://{{address}}:4005/ctl",
                            service_type=f"service:media{d}slp",
                        ),
                    ),
                ),
                Chatter(
                    tuple(island), (f"media{d}slp",),
                    slp_chatter_per_island, slp_chatter_period_us,
                ),
            ]

        # Jini corner: announcing registrars plus passive listeners.
        if jini_registrars_per_district > 0:
            jini_leaf = leaves[-1]
            for r in range(jini_registrars_per_district):
                host = f"jini-reg-c{d}n{r}"
                elements += [
                    HostSpec(host, segment=jini_leaf),
                    JiniRegistrar(
                        host=host, announce_period_us=1_000_000,
                        service_id_seed=5000 + 100 * d + r,
                    ),
                ]
            for r in range(jini_listeners_per_district):
                host = f"jini-ld-c{d}n{r}"
                elements += [HostSpec(host, segment=jini_leaf), JiniListener(host=host)]

    for d in range(districts - 1):
        inter = f"inter-{d}{d + 1}"
        elements += [
            HostSpec(inter, segment=backbones[d]),
            BridgeSpec(inter, (backbones[d + 1],)),
            IndissApp(host=inter, profile="chain", seed_offset=900 + d),
        ]
    elements.append(Fill(nodes))

    workload = (
        Run(warmup_us),
        # Headline probe: a native control-point search on district 0.
        Probe(
            "probe",
            f"urn:schemas-upnp-org:device:{district_types[0][0]}:1",
            kind="upnp", segment=first_leaf, node_name="probe-cp",
            wait_us=300_000, headline=True,
        ),
        Run(run_us),
        Emit("districts", districts),
        Collect("gateway_count", key="gateways"),
        Collect("node_count", key="total_nodes"),
        Collect("device_count", key="devices"),
        Collect("parse_once", key="parse_once"),
        Collect("cp_chatter"),
        Collect("gena_events", key="gena_events"),
        Collect("monitor_attribution", key="monitor_attribution"),
        Collect("hotpaths", key="hotpaths"),
        Collect("chatter"),
    )
    return WorldSpec(
        name="media_city",
        description="A UPnP-dominated internetwork: device fleets, CP and GENA "
        "chatter, SLP islands, Jini corners — the parse-once workload.",
        subnet="10.200",
        elements=tuple(elements),
        workload=workload,
    )


# -- Spec-only scenarios (the worlds the imperative API made painful) --------------


def churn_backbone_spec(
    members: int = 6,
    nodes: int = 400,
    service_types: int = 4,
    gossip_period_us: int = 150_000,
    warmup_us: int = 1_200_000,
    chatter_per_leaf: int = 2,
    chatter_period_us: int = 300_000,
    churn_cycles: int = 4,
    down_us: int = 400_000,
    recover_us: int = 600_000,
) -> WorldSpec:
    """Sustained join/leave churn over the sharded backbone.

    The fleet serves steady edge chatter while members rotate through
    leave (host detached from the internetwork, ring keys released,
    gossiper stopped) and rejoin (reattach, ring rebalance, gossip
    catch-up).  The closing probes assert the fleet still answers for a
    gossip-warmed type after every cycle.
    """
    if members < 3:
        raise ValueError("churn_backbone needs at least three fleet members")
    elements, leaves, _ = _campus_fleet_elements(
        members + 1, 0, gossip_period_us, True,
        wide_subnets=nodes > 200 * (members + 1),
    )
    type_names = [f"sensor{i}" for i in range(service_types)]
    for i, type_name in enumerate(type_names):
        elements += [
            HostSpec(f"device-{type_name}", segment=leaves[i % members]),
            TypedDevice(type_name, host=f"device-{type_name}", advertise=True),
        ]
    elements += [
        HostSpec("prober"),
        SlpClient(host="prober"),
        Chatter(tuple(leaves), tuple(type_names), chatter_per_leaf, chatter_period_us),
        Fill(nodes),
    ]
    workload = (
        Run(warmup_us),
        Snapshot("pre_churn", ("translations",)),
        Churn("fleet", churn_cycles, down_us, recover_us),
        Delta("churn_translations", "translations", "pre_churn"),
        Probe(
            "post_churn", f"service:{type_names[0]}", host="prober",
            horizon_us=2_000_000, headline=True, extras_prefix="post_churn",
        ),
        Collect("churn"),
        Collect("fleet", params=(("fleet", "fleet"),)),
        Collect("chatter"),
        Collect("hotpaths", key="hotpaths"),
    )
    return WorldSpec(
        name="churn_backbone",
        description="The sharded backbone under sustained fleet membership churn "
        "(detach/rejoin, ring rebalance, gossip catch-up).",
        elements=tuple(elements),
        workload=workload,
    )


def district_sweep_spec(
    districts: int = 4,
    leaves_per_district: int = 2,
    chatter_per_leaf: int = 0,
    chatter_period_us: int = 300_000,
    gossip_period_us: int = 250_000,
    warmup_us: int = 1_200_000,
    run_us: int = 6_000_000,
    probe_wait_us: int = 4_000_000,
) -> WorldSpec:
    """Parameterized deep-chain discovery: one probe per district distance.

    A metro-style chain of ``districts`` backbones; district 0 issues one
    probe per target district (distance 0 .. districts-1), so a single run
    reports how discovery degrades with gateway-forward depth — the
    cross-district depth measurement the ROADMAP asks for, and exactly the
    kind of sweep the hand-rolled builders made painful.
    """
    if districts < 2:
        raise ValueError("district_sweep needs at least two districts")
    if leaves_per_district < 1:
        raise ValueError("district_sweep needs at least one leaf per district")
    _guard_metro_shape("district_sweep", districts, leaves_per_district)
    backbones, elements = _district_backbones(districts, "metro")
    district_leaves: list[list[str]] = []
    for d, backbone in enumerate(backbones):
        leaves = []
        members = []
        for l in range(leaves_per_district):
            leaf = f"d{d}l{l}"
            leaves.append(leaf)
            gateway = f"gw-d{d}l{l}"
            members.append(gateway)
            elements += [
                SegmentSpec(
                    leaf,
                    subnet=f"10.{d * leaves_per_district + l + 1}",
                    seed_offset=100 * d + l,
                    link_to=backbone,
                ),
                HostSpec(gateway, segment=leaf),
                BridgeSpec(gateway, (backbone,)),
                IndissApp(host=gateway, profile="fleet", seed_offset=100 * d + l),
            ]
        district_leaves.append(leaves)
        elements += [
            FleetSpec(f"fleet{d}", backbone, tuple(members), gossip_period_us),
            HostSpec(f"dev-m{d}t0", segment=leaves[0]),
            TypedDevice(f"m{d}t0", host=f"dev-m{d}t0"),
        ]
    for d in range(districts - 1):
        inter = f"inter-{d}{d + 1}"
        elements += [
            HostSpec(inter, segment=backbones[d]),
            BridgeSpec(inter, (backbones[d + 1],)),
            IndissApp(host=inter, profile="chain", seed_offset=900 + d),
        ]
    workload: list = []
    if chatter_per_leaf > 0:
        workload += [
            Chatter(
                tuple(district_leaves[d]), (f"m{d}t0",),
                chatter_per_leaf, chatter_period_us,
            )
            for d in range(districts)
        ]
    workload.append(Run(warmup_us))
    for d in range(districts):
        workload.append(
            Probe(
                f"depth{d}", f"service:m{d}t0",
                segment=district_leaves[0][0], node_name=f"probe-depth{d}",
                wait_us=probe_wait_us, headline=d == 0,
                extras_prefix=f"depth{d}",
            )
        )
    workload += [
        Run(run_us),
        Emit("districts", districts),
        Collect("gateway_count", key="gateways"),
        Collect("node_count", key="total_nodes"),
        Collect("hotpaths", key="hotpaths"),
    ]
    if chatter_per_leaf > 0:
        workload.append(Collect("chatter"))
    return WorldSpec(
        name="district_sweep",
        description="Deep-chain district sweep: one probe per gateway-forward "
        "distance across a chained metro backbone.",
        subnet="10.200",
        elements=tuple(elements),
        workload=tuple(workload),
    )


# -- District grid (the partitioned engine's workload) -----------------------------


def district_grid_spec(
    districts: int = 4,
    leaves_per_district: int = 3,
    nodes: int = 0,
    chatter_per_leaf: int = 2,
    chatter_period_us: int = 300_000,
    ping_period_us: int = 150_000,
    ping_payload: int = 96,
    link_latency_us: int = 30_000,
    warmup_us: int = 500_000,
    run_us: int = 3_000_000,
) -> WorldSpec:
    """A world that actually *has* districts: chained backbones that are
    never bridged, so each one (plus its leaves) is its own partition.

    The metro/media worlds collapse to a single district — their
    inter-district gateways are multi-homed bridges, which is exactly what
    fuses segments.  Here the backbones touch only through router links
    (latency ``link_latency_us``, which becomes the conservative
    lookahead), intra-district load is native SLP chatter against each
    leaf's own service, and cross-district load is a ring of plain-UDP
    ping flows, including the wrap flow that transits every intermediate
    district.  ``partitioned=True`` freezes the district map on the
    single-threaded engine too, keeping the two engines bit-identical.

    Every segment carries an explicit ``seed_offset`` so no latency model
    is shared across districts: a shard draws jitter only from its own
    events and the streams stay identical under any engine.
    """
    if districts < 1 or leaves_per_district < 1:
        raise ValueError("district_grid needs at least one district and leaf")
    _guard_metro_shape("district_grid", districts, leaves_per_district)
    backbones = ["lan0"]
    elements: list = []
    for d in range(1, districts):
        name = f"grid{d}"
        elements.append(
            SegmentSpec(
                name, subnet=f"10.{200 + d}", seed_offset=10 + d,
                link_to=backbones[d - 1], link_latency_us=link_latency_us,
            )
        )
        backbones.append(name)
    for d, backbone in enumerate(backbones):
        for l in range(leaves_per_district):
            leaf = f"g{d}l{l}"
            type_name = f"grid{d}t{l}"
            elements += [
                SegmentSpec(
                    leaf,
                    subnet=f"10.{d * leaves_per_district + l + 1}",
                    seed_offset=100 * d + l + 20,
                    link_to=backbone,
                ),
                HostSpec(f"gw-{leaf}", segment=leaf),
                BridgeSpec(f"gw-{leaf}", (backbone,)),
                HostSpec(f"svc-{leaf}", segment=leaf),
                SlpService(
                    host=f"svc-{leaf}",
                    registrations=(
                        SlpServiceReg(
                            url=f"service:{type_name}://{{address}}",
                            service_type=f"service:{type_name}",
                        ),
                    ),
                ),
                # Multicast never leaves a segment, so each leaf's chatter
                # searches only the service registered on that same leaf.
                Chatter((leaf,), (type_name,), chatter_per_leaf, chatter_period_us),
            ]
    for d in range(districts):
        if districts < 2:
            break
        dst_district = (d + 1) % districts
        elements += [
            HostSpec(f"ping-src-{d}", segment=backbones[d]),
            HostSpec(f"ping-dst-{d}", segment=backbones[dst_district]),
            Ping(
                f"ping-src-{d}", f"ping-dst-{d}", ping_period_us,
                payload_bytes=ping_payload,
                start_delay_us=100_000 + 10_000 * d,
            ),
        ]
    workload: list = [
        Fill(nodes),
        Run(warmup_us),
        # Headline: an intra-district query on district 0's first leaf —
        # native SLP, so it must be untouched by the engine's sharding.
        Probe(
            "local", "service:grid0t0", segment="g0l0",
            node_name="probe-local", headline=True,
        ),
        Run(run_us),
        Emit("districts", districts),
        Collect("node_count", key="total_nodes"),
        Collect("ping"),
        Collect("chatter"),
    ]
    return WorldSpec(
        name="district_grid",
        description="Unbridged chained backbones (one district each) under "
        "leaf-local SLP chatter and a cross-district UDP ping ring.",
        subnet="10.200",
        partitioned=True,
        elements=tuple(elements),
        workload=tuple(workload),
    )


# -- Serving tier (discovery-as-a-service) -----------------------------------------


def serving_backbone_spec(
    members: int = 4,
    nodes: int = 200,
    service_types: int = 4,
    cold_types: int = 1,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    clients_per_leaf: int = 2,
    queries_per_client: int = 40,
    mean_interval_us: int = 25_000,
    process: str = "poisson",
    run_us: int = 4_000_000,
    batch_every: int = 16,
    url_every: int = 8,
    districts_every: int = 24,
    stale_after_us: int = 2_000_000,
    notify_period_us: int = 800_000,
) -> WorldSpec:
    """The serving tier's headline world: a federated campus whose gateway
    caches are warmed by gossip, a :class:`QueryFrontend` on every
    gateway, and an open-loop query population on every leaf.

    Advertised ``TypedDevice``s announce during warmup and the fleet
    gossips the records to every member, so by the time the ``QueryLoad``
    opens fire each frontend answers nearly every type lookup from its
    own cache — the warm hit rate the serving bench gates on.  The
    ``cold_types`` tail is deliberately *not* advertised: first touch
    misses, the frontend's fallback re-issues the query through the
    translation units, and the answer then gossips fleet-wide — keeping
    the miss, fallback, and staleness paths honest under load.
    """
    if members < 2:
        raise ValueError("serving_backbone needs at least two fleet members")
    if service_types < 1:
        raise ValueError("serving_backbone needs at least one service type")
    if cold_types < 0 or cold_types > service_types:
        raise ValueError("cold_types must be within the service type count")
    elements, leaves, gateways = _campus_fleet_elements(
        members + 1, 0, gossip_period_us, True,
        wide_subnets=nodes > 200 * (members + 1),
    )
    type_names = [f"svc{i}" for i in range(service_types)]
    for i, type_name in enumerate(type_names):
        warm = i < service_types - cold_types
        elements += [
            HostSpec(f"device-{type_name}", segment=leaves[i % len(leaves)]),
            # Warm devices re-NOTIFY periodically, so their gossiped
            # records keep a fresh implied-observation time and the
            # honesty stamps stay near announcement period + gossip lag.
            TypedDevice(
                type_name,
                host=f"device-{type_name}",
                advertise=warm,
                notify_period_us=notify_period_us if warm else None,
            ),
        ]
    for gateway in gateways:
        elements.append(
            QueryFrontendApp(host=gateway, stale_after_us=stale_after_us)
        )
    elements.append(Fill(nodes))
    load = QueryLoad(
        frontends=tuple(gateways),
        types=tuple(f"service:{name}" for name in type_names),
        segments=tuple(leaves),
        clients_per_segment=clients_per_leaf,
        queries_per_client=queries_per_client,
        mean_interval_us=mean_interval_us,
        process=process,
        batch_every=batch_every,
        url_every=url_every,
        districts_every=districts_every,
    )
    fleet_params = (("fleet", "fleet"),)
    workload = (
        Run(warmup_us),
        Collect("warm_members", key="warm_members_after_gossip", params=fleet_params),
        load,
        Run(run_us),
        Collect("serving"),
        Collect("fleet", params=fleet_params),
        Collect("node_count", key="total_nodes"),
        Emit("service_types", service_types),
        Emit("cold_types", cold_types),
        Emit(
            "queries_offered",
            clients_per_leaf * len(leaves) * queries_per_client,
        ),
    )
    return WorldSpec(
        name="serving_backbone",
        description="Federated campus gateways serving open-loop discovery "
        "queries from their gossip-warmed caches.",
        elements=tuple(elements),
        workload=workload,
    )


def serving_grid_spec(
    districts: int = 3,
    leaves_per_district: int = 2,
    nodes: int = 0,
    clients_per_leaf: int = 1,
    queries_per_client: int = 12,
    mean_interval_us: int = 60_000,
    link_latency_us: int = 30_000,
    warmup_us: int = 800_000,
    run_us: int = 3_000_000,
) -> WorldSpec:
    """``district_grid``'s serving twin: unbridged chained backbones (one
    district each), a frontend gateway per district, and both intra- and
    cross-district query populations.

    Intra-district clients query their own district's frontend for the
    type advertised on that district's first leaf; a cross-district ring
    of clients on each backbone queries the *next* district's frontend
    over the router links, so query datagrams transit the conservative
    lookahead exactly like ``district_grid``'s ping ring.  Everything a
    client or frontend draws is scheduled from build-time randomness, so
    the single-threaded, inline-partitioned, and multiprocess engines
    produce byte-identical query and response streams — the serving
    parity suite pins this.
    """
    if districts < 1 or leaves_per_district < 1:
        raise ValueError("serving_grid needs at least one district and leaf")
    _guard_metro_shape("serving_grid", districts, leaves_per_district)
    backbones = ["lan0"]
    elements: list = []
    for d in range(1, districts):
        name = f"grid{d}"
        elements.append(
            SegmentSpec(
                name, subnet=f"10.{200 + d}", seed_offset=10 + d,
                link_to=backbones[d - 1], link_latency_us=link_latency_us,
            )
        )
        backbones.append(name)
    district_leaves: list[list[str]] = []
    for d, backbone in enumerate(backbones):
        own_leaves = []
        for l in range(leaves_per_district):
            leaf = f"g{d}l{l}"
            own_leaves.append(leaf)
            elements += [
                SegmentSpec(
                    leaf,
                    subnet=f"10.{d * leaves_per_district + l + 1}",
                    seed_offset=100 * d + l + 20,
                    link_to=backbone,
                ),
                HostSpec(f"gw-{leaf}", segment=leaf),
                BridgeSpec(f"gw-{leaf}", (backbone,)),
            ]
        district_leaves.append(own_leaves)
        # One INDISS + frontend per district, on the first leaf's gateway;
        # the district's own device advertises on that same leaf, so the
        # frontend's cache warms from the announcement it observes.
        front = f"gw-g{d}l0"
        elements += [
            IndissApp(host=front, profile="chain", seed_offset=d),
            QueryFrontendApp(host=front),
            HostSpec(f"svc-g{d}l0", segment=f"g{d}l0"),
            TypedDevice(f"grid{d}", host=f"svc-g{d}l0", advertise=True),
        ]
    loads: list = []
    for d in range(districts):
        loads.append(
            QueryLoad(
                frontends=(f"gw-g{d}l0",),
                types=(f"service:grid{d}",),
                segments=tuple(district_leaves[d]),
                clients_per_segment=clients_per_leaf,
                queries_per_client=queries_per_client,
                mean_interval_us=mean_interval_us,
                seed_offset=d,
            )
        )
    for d in range(districts):
        if districts < 2:
            break
        # The ring's wrap flow transits every intermediate district, so
        # cross-district query datagrams cross the lookahead windows.
        dst = (d + 1) % districts
        loads.append(
            QueryLoad(
                frontends=(f"gw-g{dst}l0",),
                types=(f"service:grid{dst}",),
                segments=(backbones[d],),
                clients_per_segment=1,
                queries_per_client=queries_per_client,
                mean_interval_us=mean_interval_us * 2,
                start_delay_us=150_000 + 10_000 * d,
                seed_offset=50 + d,
            )
        )
    workload: list = [
        Fill(nodes),
        Run(warmup_us),
    ]
    workload += loads
    workload += [
        Run(run_us),
        Collect("serving"),
        Emit("districts", districts),
        Collect("node_count", key="total_nodes"),
    ]
    return WorldSpec(
        name="serving_grid",
        description="Unbridged chained backbones with one query frontend "
        "per district under intra- and cross-district open-loop query load.",
        subnet="10.200",
        partitioned=True,
        elements=tuple(elements),
        workload=tuple(workload),
    )


#: scenario name -> parameterized spec builder.
SCENARIO_SPECS: dict[str, Callable[..., WorldSpec]] = {
    "native_slp": native_slp_spec,
    "native_upnp": native_upnp_spec,
    "slp_to_upnp_service_side": slp_to_upnp_service_side_spec,
    "upnp_to_slp_service_side": upnp_to_slp_service_side_spec,
    "slp_to_upnp_client_side": slp_to_upnp_client_side_spec,
    "upnp_to_slp_client_side": upnp_to_slp_client_side_spec,
    "slp_to_upnp_gateway": slp_to_upnp_gateway_spec,
    "slp_to_jini_gateway": slp_to_jini_gateway_spec,
    "multi_segment_home": multi_segment_home_spec,
    "gateway_chain": gateway_chain_spec,
    "campus_fanout": campus_fanout_spec,
    "federated_campus": federated_campus_spec,
    "partitioned_campus": partitioned_campus_spec,
    "crash_recovery": crash_recovery_spec,
    "sharded_backbone": sharded_backbone_spec,
    "metro_backbone": metro_backbone_spec,
    "media_city": media_city_spec,
    "churn_backbone": churn_backbone_spec,
    "district_sweep": district_sweep_spec,
    "district_grid": district_grid_spec,
    "serving_backbone": serving_backbone_spec,
    "serving_grid": serving_grid_spec,
}


#: Reduced parameters for scenarios whose defaults are sized for the perf
#: benchmarks, not the test suite; the behavioural tests apply these so
#: tier-1 stays fast while the benchmarks keep the full-scale defaults.
SMALL_SCALE_OVERRIDES: dict[str, dict] = {
    "federated_campus": {"nodes": 120},
    "partitioned_campus": {"segments": 4, "nodes": 80},
    "sharded_backbone": {"nodes": 120},
    "metro_backbone": {
        "districts": 2,
        "leaves_per_district": 3,
        "nodes": 300,
        "chatter_per_leaf": 2,
        "run_us": 2_500_000,
    },
    "media_city": {
        "districts": 2,
        "leaves_per_district": 3,
        "nodes": 250,
        "devices_per_leaf": 3,
        "cp_per_leaf": 2,
        "run_us": 2_000_000,
    },
    "churn_backbone": {
        "members": 3,
        "nodes": 80,
        "service_types": 2,
        "churn_cycles": 2,
    },
    "district_sweep": {
        "districts": 3,
        "probe_wait_us": 2_500_000,
        "run_us": 4_000_000,
    },
    "district_grid": {
        "districts": 3,
        "leaves_per_district": 2,
        "run_us": 2_000_000,
    },
    "serving_backbone": {
        "members": 3,
        "nodes": 60,
        "service_types": 3,
        "queries_per_client": 12,
        "run_us": 2_500_000,
    },
    "serving_grid": {
        "districts": 2,
        "leaves_per_district": 1,
        "queries_per_client": 6,
        "run_us": 2_000_000,
    },
}


__all__ = [
    "SCENARIO_SPECS", "SMALL_SCALE_OVERRIDES", "CLOCK_REG", "CLOCK_DEVICE_TYPE",
] + [
    f"{name}_spec" for name in SCENARIO_SPECS
]
