"""``World.build``: compile a :class:`WorldSpec` into a running simulation.

The compiler walks the spec's ordered element list and issues exactly the
same construction calls a hand-written builder would — ``Network`` /
``add_segment`` / ``add_node`` / agent constructors / ``GatewayFleet`` —
then the workload interpreter executes the phased steps.  Ordering is
preserved element-for-element, which is why spec-built worlds reproduce
the legacy builders' event schedules bit-for-bit (the golden-parity tests
in ``tests/world`` pin this).

Elements, nested apps and workload steps all dispatch through
:data:`SPEC_TABLE` (``World.apply``).  The spec is validated first, so a
handler re-checks only runtime state: a ``Heal(attach)`` of a host not
detached, a ``Restart`` of a host not crashed, a ``RingOwnerLeaf`` before
its fleet or on an empty ring, and a failed ``Check``.

The returned :class:`World` is the run-control surface:

* ``run(duration_us)`` / ``run_until(predicate, horizon_us)`` advance
  virtual time, the latter until a condition on the world holds;
* named probes (``world.probe("local")``) expose each discovery's results;
* the observer API (``collect``/``add_observer``) feeds one reusable
  metrics pipeline into ``ScenarioOutcome.extras``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator, Optional

from ..core import Indiss, IndissConfig
from ..net import Endpoint, Network, NetworkError, make_loss_model, shared_decode
from ..net.parallel import ShardedScheduler
from ..net.partition import network_partition_map
from ..obs import Recording
from ..sdp.slp import (
    ServiceAgent,
    ServiceType,
    SlpConfig,
    SlpRegistration,
    UserAgent,
)
from ..sdp.upnp import UpnpControlPoint, make_clock_device
from .observers import COLLECTORS, global_metrics, note_row_latency, recorded_metrics
from .outcome import ScenarioOutcome
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
    Restart,
    GenaFeed,
    GenaSubscriber,
    HostSpec,
    INDISS_PROFILES,
    IndissApp,
    JiniListener,
    JiniRegistrar,
    Ping,
    Probe,
    QueryFrontendApp,
    QueryLoad,
    RingOwnerLeaf,
    Run,
    SegmentSpec,
    SetConfig,
    SlpClient,
    SlpService,
    Snapshot,
    SpecError,
    TypeSweepReport,
    TypedDevice,
    WorldSpec,
)


class BuildError(RuntimeError):
    """A validated spec could not be realised against the simulator."""


class ProbeHandle:
    """One named discovery: its pending search and derived readings.

    Readings come from the live search handle, so a probe's partial
    results are visible before its convergence timer fires — what
    ``run_until(lambda w: w.probe("x").results > 0)`` loops poll.
    """

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.done: list = []
        #: The agent's pending-search handle, set at issue time.
        self.pending = None

    @property
    def search(self):
        return self.done[0] if self.done else self.pending

    @property
    def completed(self) -> bool:
        return bool(self.done)

    @property
    def results(self) -> int:
        search = self.search
        if search is None:
            return 0
        found = search.responses if self.kind == "upnp" else search.results
        return len(found)

    @property
    def latency_us(self) -> Optional[int]:
        search = self.search
        return None if search is None else search.first_latency_us


class World:
    """A built world: the network, its hosts/agents, and run control."""

    def __init__(self, spec: WorldSpec, net: Network, seed: int, costs):
        self.spec = spec
        self.net = net
        self.seed = seed
        self.costs = costs
        #: host name -> Node (spec hosts only; fill/chatter hosts excluded).
        self.hosts: dict = {}
        #: (host, slot) -> app object; slots: "ua", "sa", "cp", "indiss",
        #: "device", "jini", "gena".
        self._apps: dict = {}
        #: Every INDISS instance, in creation order.
        self.instances: list[Indiss] = []
        #: Every UPnP device, in creation order.
        self.devices: list = []
        self.gena_subscribers: list = []
        #: Every serving-tier query frontend, in creation order.
        self.serving_frontends: list = []
        #: fleet name -> GatewayFleet.
        self.fleets: dict = {}
        self._fleet_specs: dict[str, FleetSpec] = {}
        #: service type -> segment name a TypedDevice was placed on.
        self.placements: dict[str, str] = {}
        #: load group -> per-client accounting dicts (Chatter/CpChatter/Churn).
        self.load_groups: dict[str, list] = {}
        self.probes: dict[str, ProbeHandle] = {}
        #: host name -> home segments, for ``Fault(kind="detach")`` /
        #: ``Heal(kind="attach")`` round trips.
        self._detached_hosts: dict[str, list] = {}
        self.extras: dict = {}
        self._snapshots: dict[str, dict] = {}
        self._headline: Optional[str] = None
        self._pending_probe_extras: list[tuple[str, str]] = []
        self._observers: dict[str, Callable] = {}
        #: Which execution backend built this world ("single"/"partitioned").
        self.engine_kind = "single"
        #: The live flight recorder, or ``None`` when recording is off
        #: (``net.obs`` then stays the shared no-op ``NULL_RECORDING``).
        self.recording: Optional[Recording] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        spec: WorldSpec,
        seed: int = 0,
        costs=None,
        capture: bool = False,
        parse_once: bool = True,
        engine: str = "single",
        record=False,
    ) -> "World":
        """Validate ``spec`` and compile its elements into a live world.

        The workload has not run yet — call :meth:`run_workload` (or the
        one-shot :func:`run_world`).  ``capture``/``parse_once`` are the
        network's switches (see :class:`~repro.net.Network`).

        ``record`` turns on the flight recorder: pass ``True`` for a
        fresh :class:`~repro.obs.Recording` (metrics + trace), or an
        existing ``Recording`` to control what is captured.  The
        recording is reachable as ``world.recording`` and its snapshot
        lands on :attr:`ScenarioOutcome.metrics`.

        ``engine`` selects the execution backend:

        * ``"single"`` — the classic one-queue scheduler.  When the spec
          declares ``partitioned=True`` the spec's district map is still
          frozen onto the network, so cross-district delivery already
          takes the deterministic path: this run is the golden oracle the
          partitioned backends are compared against, bit for bit.
        * ``"partitioned"`` — district-sharded schedulers with conservative
          lookahead windows (:class:`~repro.net.parallel.ShardedScheduler`).
          The district map is computed from the spec *before* the network
          exists, and the built topology is cross-checked against it.
        """
        if costs is None:
            from ..bench.calibration import PAPER_TESTBED

            costs = PAPER_TESTBED
        if engine not in ("single", "partitioned"):
            raise BuildError(f"unknown engine {engine!r}")
        spec.validate()
        pmap = None
        if engine == "partitioned" or spec.partitioned:
            from .partition import spec_partition_map

            pmap, _ = spec_partition_map(spec)
        kwargs = dict(
            latency=costs.latency_model(seed),
            subnet=spec.subnet if spec.subnet is not None else "192.168.1",
            capture=capture,
            parse_once=parse_once,
        )
        if engine == "partitioned":
            shards = ShardedScheduler(pmap)
            net = Network(scheduler=shards, **kwargs)
            net.attach_engine(shards)
        else:
            net = Network(**kwargs)
            if pmap is not None:
                net.freeze_partitions(pmap)
        world = cls(spec, net, seed, costs)
        world.engine_kind = engine
        if any(isinstance(s, (Fault, Heal, Crash, Restart)) for s in spec.workload):
            # Armed before any traffic, so frames already in flight when a
            # later Fault cuts their link take the trunk path and drop.
            net.enable_faults()
        if record:
            recording = record if isinstance(record, Recording) else Recording()
            net.obs = recording
            world.recording = recording
        for element in spec.elements:
            world.apply(element)
        if pmap is not None:
            live = network_partition_map(net)
            if live.pid_of != pmap.pid_of or live.lookahead_us != pmap.lookahead_us:
                raise BuildError(
                    f"spec {spec.name!r}: the spec-level partition map "
                    "disagrees with the built topology (a placement "
                    "resolver or fleet bridged across the analysed districts?)"
                )
        return world

    def apply(self, item, *host: str) -> None:
        """Apply one element, app (``host``: its HostSpec, when nested) or
        workload step through :data:`SPEC_TABLE`."""
        SPEC_TABLE[type(item)](self, item, *host)

    def _add_segment(self, element: SegmentSpec) -> None:
        latency = None
        if element.seed_offset is not None:
            latency = self.costs.latency_model(self.seed + element.seed_offset)
        segment = self.net.add_segment(
            element.name, subnet=element.subnet, latency=latency
        )
        if element.link_to is not None:
            if element.link_latency_us is not None:
                self.net.link(
                    element.link_to, segment, latency_us=element.link_latency_us
                )
            else:
                self.net.link(element.link_to, segment)

    def _add_host(self, element: HostSpec) -> None:
        segment = self._resolve_segment(element.segment)
        self.hosts[element.name] = self.net.add_node(element.name, segment=segment)
        for app in element.apps:
            self.apply(app, element.name)

    def _add_fleet(self, element: FleetSpec) -> None:
        from ..federation import GatewayFleet

        fleet = GatewayFleet(
            self.net,
            element.backbone,
            wire_utilization=element.wire_utilization,
            cold_start_escalation=element.cold_start_escalation,
            suspect_after=element.suspect_after,
            dead_after=element.dead_after,
        )
        for member in element.members:
            fleet.join(
                self._app(member, "indiss"),
                gossip_period_us=element.gossip_period_us,
                catchup_after=element.catchup_after,
            )
        self.fleets[element.name] = fleet
        self._fleet_specs[element.name] = element

    def _resolve_segment(self, ref):
        if ref is None:
            return None
        if isinstance(ref, RingOwnerLeaf):
            fleet = self.fleets.get(ref.fleet)
            if fleet is None:
                raise BuildError(f"RingOwnerLeaf before fleet {ref.fleet!r} exists")
            owner = fleet.ring.owner(ref.key)
            if owner is None:
                raise BuildError(f"fleet {ref.fleet!r} has an empty ring")
            return fleet.members[owner].indiss.node.segments[0]
        return self.net.segment(ref)

    # -- application construction -------------------------------------------

    def _slp_config(self, wait_us: int = 400_000, retries: int = 0) -> SlpConfig:
        return SlpConfig(timings=self.costs.slp, wait_us=wait_us, retries=retries)

    def _indiss_config(self, app: IndissApp) -> IndissConfig:
        units, dispatch, slp_wait_us, upnp_wait_us = INDISS_PROFILES[app.profile]
        return IndissConfig(
            units=units,
            deployment=app.deployment,
            answer_from_cache=app.answer_from_cache,
            dispatch=dispatch,
            timings=self.costs.indiss,
            upnp_responder_delay_us=(
                self.costs.indiss_upnp_responder_delay_us
                if "upnp" in units
                else IndissConfig.upnp_responder_delay_us
            ),
            upnp_wait_us=upnp_wait_us,
            slp_wait_us=slp_wait_us,
            seed=self.seed + app.seed_offset,
        )

    # App handlers build on the owning host's node and return the app
    # (see ``_on_host``).

    def _add_slp_client(self, app: SlpClient, node) -> UserAgent:
        config = self._slp_config(wait_us=app.wait_us, retries=app.retries)
        return UserAgent(node, config=config)

    def _add_slp_service(self, app: SlpService, node) -> ServiceAgent:
        agent = ServiceAgent(node, config=self._slp_config())
        for reg in app.registrations:
            agent.register(
                SlpRegistration(
                    url=reg.url.format(address=node.address),
                    service_type=ServiceType.parse(reg.service_type),
                    attributes=dict(reg.attributes),
                )
            )
        return agent

    def _add_clock_device(self, app: ClockDevice, node):
        kwargs = {}
        if app.notify_period_us is not None:
            kwargs["notify_period_us"] = app.notify_period_us
        device = make_clock_device(
            node,
            timings=self.costs.upnp,
            seed=self.seed + app.seed_offset,
            advertise=app.advertise,
            **kwargs,
        )
        self.devices.append(device)
        return device

    def _add_typed_device(self, app: TypedDevice, node):
        """A one-service UPnP device of the synthetic ``type_name`` type."""
        from ..sdp.upnp import DeviceDescription, ServiceDescription, UpnpDevice

        type_name = app.type_name
        description = DeviceDescription(
            device_type=f"urn:schemas-upnp-org:device:{type_name}:1",
            friendly_name=f"Sensor {type_name}",
            udn=f"uuid:{type_name}-device{app.udn_suffix}",
            manufacturer="INDISS bench",
            model_name=type_name,
            services=[
                ServiceDescription(
                    service_type=f"urn:schemas-upnp-org:service:{type_name}:1",
                    service_id=f"urn:upnp-org:serviceId:{type_name}:1",
                    scpd_url=f"/service/{type_name}/scpd.xml",
                    control_url=f"/service/{type_name}/control",
                    event_sub_url=f"/service/{type_name}/event",
                )
            ],
        )
        kwargs = {}
        if app.notify_period_us is not None:
            kwargs["notify_period_us"] = app.notify_period_us
        device = UpnpDevice(
            node, description, timings=self.costs.upnp,
            seed=self.seed + app.seed_offset, advertise=app.advertise, **kwargs,
        )
        self.devices.append(device)
        self.placements[type_name] = node.segments[0].name
        return device

    def _add_control_point(self, app: ControlPoint, node) -> UpnpControlPoint:
        return UpnpControlPoint(node, timings=self.costs.upnp)

    def _add_indiss(self, app: IndissApp, node) -> Indiss:
        instance = Indiss(node, self._indiss_config(app))
        self.instances.append(instance)
        return instance

    def _add_query_frontend(self, app: QueryFrontendApp, node):
        from ..serving import QueryFrontend

        frontend = QueryFrontend(
            self._app(node.name, "indiss"),
            port=app.port,
            stale_after_us=app.stale_after_us,
            fallback=app.fallback,
            fallback_window_us=app.fallback_window_us,
        )
        self.serving_frontends.append(frontend)
        return frontend

    def _add_jini_registrar(self, app: JiniRegistrar, node):
        from ..sdp.jini import JiniTimings, LookupService, ServiceItem

        kwargs = {}
        if app.announce_period_us is not None:
            kwargs["announce_period_us"] = app.announce_period_us
        if app.service_id_seed is not None:
            kwargs["service_id_seed"] = app.service_id_seed
        registrar = LookupService(node, timings=JiniTimings(), **kwargs)
        for item in app.items:
            registrar.registry[item.service_id] = ServiceItem(
                service_id=item.service_id,
                class_names=item.class_names,
                attributes=dict(item.attributes),
                endpoint_url=item.endpoint_url.format(address=node.address),
            )
        return registrar

    def _add_jini_listener(self, app: JiniListener, node):
        from ..sdp.jini import LookupDiscovery

        return LookupDiscovery(node)

    def _add_gena_subscriber(self, app: GenaSubscriber, node):
        from ..sdp.upnp.gena import EventSubscriber

        publisher = self._app(app.publisher_host, "device")
        subscriber = EventSubscriber(node, callback_port=app.callback_port)
        self.gena_subscribers.append(subscriber)
        service = publisher.description.services[app.service_index]
        sub_url = (
            f"http://{publisher.node.address}:{publisher.http_port}"
            f"{service.event_sub_url}"
        )
        node.schedule(
            app.subscribe_delay_us, lambda u=sub_url, s=subscriber: s.subscribe(u)
        )
        return subscriber

    def _add_gena_feed(self, app: GenaFeed, host=None) -> None:
        """The feed runs on its publisher, whichever host it names."""
        publisher = self._app(app.publisher_host, "device")
        properties = dict(app.properties)
        publisher.node.every(
            app.period_us,
            lambda p=publisher, pr=properties: p.notify_state_change(pr),
            initial_delay_us=app.initial_delay_us,
        )

    def _app(self, host: str, slot: str):
        try:
            return self._apps[(host, slot)]
        except KeyError:
            raise BuildError(f"host {host!r} carries no {slot!r} app") from None

    def _fill(self, step: Fill) -> None:
        """Pad segments round-robin with idle hosts up to ``total_nodes``.

        The hosts are reserved, not built: each segment takes one run of
        addresses (:meth:`~repro.net.Network.reserve_hosts`), so a fill
        of thousands costs a count per segment."""
        net = self.net
        segments = list(net.segments.values())
        existing = net.node_count
        free = [segment.free_addresses for segment in segments]
        counts = [0] * len(segments)
        for i in range(max(0, step.total_nodes - existing)):
            k = i % len(segments)
            if not free[k]:
                open_segments = [j for j, left in enumerate(free) if left]
                if not open_segments:
                    raise NetworkError(
                        f"all subnets exhausted after {existing + i} nodes; "
                        f"use wider (two-octet) segment subnets for this scale"
                    )
                k = open_segments[i % len(open_segments)]
            free[k] -= 1
            counts[k] += 1
        for segment, count in zip(segments, counts):
            net.reserve_hosts(segment, count)

    # -- run control --------------------------------------------------------

    def run(self, duration_us: Optional[int] = None) -> None:
        """Advance virtual time (until idle when no duration is given)."""
        self.net.run(duration_us=duration_us)

    def run_until(
        self,
        predicate: Optional[Callable[["World"], bool]] = None,
        horizon_us: Optional[int] = None,
        check_every_us: int = 25_000,
    ) -> bool:
        """Run until ``predicate(world)`` holds or ``horizon_us`` elapses.

        With no predicate this is ``run(horizon_us)``; with no horizon the
        run continues until the predicate holds or the scheduler goes
        idle.  Returns whether the predicate held when the run stopped.
        """
        if predicate is None:
            self.net.run(duration_us=horizon_us)
            return True
        engine = self.net.engine
        if engine is not None and engine._exchange is not None:
            # Each multiprocess worker evaluates predicates on local state
            # only; divergent verdicts would desynchronise the barrier
            # sequence.  Multiprocess workloads use bounded Run steps.
            raise BuildError(
                "run_until(predicate) is not available in a multiprocess "
                "partition worker; use bounded Run steps"
            )
        scheduler = self.net.scheduler
        deadline = None if horizon_us is None else scheduler.now_us + horizon_us
        while True:
            if predicate(self):
                return True
            if deadline is not None and scheduler.now_us >= deadline:
                return False
            if not scheduler.pending:
                return predicate(self)
            slice_us = check_every_us
            if deadline is not None:
                slice_us = min(slice_us, deadline - scheduler.now_us)
            self.net.run(duration_us=slice_us)

    def run_workload(self) -> None:
        """Execute the spec's phased workload steps, in order."""
        for step in self.spec.workload:
            self.apply(step)

    # -- probes and observers ------------------------------------------------

    def probe(self, name: str) -> ProbeHandle:
        try:
            return self.probes[name]
        except KeyError:
            raise BuildError(f"no probe named {name!r}") from None

    def add_observer(self, name: str, collector: Callable[["World"], dict]) -> None:
        """Register a scenario-specific collector for ``Collect(name)``."""
        self._observers[name] = collector

    def collect(self, provider: str, **params) -> dict:
        fn = self._observers.get(provider) or COLLECTORS.get(provider)
        if fn is None:
            raise BuildError(f"no collector named {provider!r}")
        return fn(self, **params)

    def metric(self, metric: str) -> int:
        """One live counter; the closed vocabulary Snapshot/Delta use."""
        name, _, arg = metric.partition(":")
        if name == "translations":
            return sum(i.stats.translated for i in self.instances)
        if name == "cache_answers":
            return self._app(arg, "indiss").stats.answered_from_cache
        raise BuildError(f"unknown metric {metric!r}")

    def outcome(self) -> ScenarioOutcome:
        """Resolve probes into the scenario's ScenarioOutcome."""
        for prefix, probe_name in self._pending_probe_extras:
            handle = self.probes[probe_name]
            self.extras[f"{prefix}_results"] = handle.results
            self.extras[f"{prefix}_latency_us"] = handle.latency_us
        self._pending_probe_extras = []
        handle = None if self._headline is None else self.probes[self._headline]
        if handle is None or handle.latency_us is None:
            result = ScenarioOutcome(None, 0, self.net, extras=self.extras)
        else:
            result = ScenarioOutcome(
                handle.latency_us, handle.results, self.net, extras=self.extras
            )
        if self.recording is not None and self.recording.on:
            result.metrics = {"global": global_metrics(self), **recorded_metrics(self)}
        return result

    # -- workload interpreter -------------------------------------------------

    def _snapshot(self, step: Snapshot) -> None:
        self._snapshots[step.name] = {m: self.metric(m) for m in step.metrics}

    def _delta(self, step: Delta) -> None:
        base = self._snapshots[step.since][step.metric]
        self.extras[step.key] = self.metric(step.metric) - base

    def _collect(self, step: Collect) -> None:
        row = self.collect(step.provider, **dict(step.params))
        if step.key is None:
            self.extras.update(row)
        elif len(row) == 1 and step.key in row:
            self.extras[step.key] = row[step.key]
        else:
            self.extras[step.key] = row

    def _issue_probe(self, step: Probe) -> None:
        if step.host is not None:
            agent = self._app(step.host, "cp" if step.kind == "upnp" else "ua")
        else:
            node = self.net.add_node(
                step.node_name or step.name, segment=self.net.segment(step.segment)
            )
            if step.kind == "upnp":
                agent = UpnpControlPoint(node, timings=self.costs.upnp)
            else:
                agent = UserAgent(node, config=self._slp_config())
        handle = ProbeHandle(step.name, step.kind)
        self.probes[step.name] = handle
        if step.kind == "upnp":
            handle.pending = agent.search(
                step.target,
                wait_us=step.wait_us if step.wait_us is not None else 300_000,
                on_complete=handle.done.append,
            )
        else:
            kwargs = {}
            if step.wait_us is not None:
                kwargs["wait_us"] = step.wait_us
            handle.pending = agent.find_services(
                step.target, on_complete=handle.done.append, **kwargs
            )
        if step.headline:
            self._headline = step.name
        if step.extras_prefix is not None:
            self._pending_probe_extras.append((step.extras_prefix, step.name))
        if step.horizon_us is not None:
            self.net.run(duration_us=step.horizon_us)

    def _start_chatter(self, step: Chatter) -> None:
        """Background SLP clients, staggered across one period."""
        group = self.load_groups.setdefault(step.group, [])
        leaves = [self.net.segment(name) for name in step.leaves]
        total = max(1, len(leaves) * step.per_leaf)
        idx = 0
        for leaf in leaves:
            for j in range(step.per_leaf):
                node = self.net.add_node(f"chat-{leaf.name}-{j}", segment=leaf)
                ua = UserAgent(node, config=self._slp_config())
                target = step.types[idx % len(step.types)]
                stats = {"target": target, "issued": 0, "completed": 0, "found": 0}

                def kick(ua=ua, target=f"service:{target}", stats=stats,
                         done=_search_done(self.net, stats, step.group, "results")):
                    stats["issued"] += 1
                    ua.find_services(target, on_complete=done)

                node.every(
                    step.period_us,
                    kick,
                    initial_delay_us=step.start_delay_us
                    + (idx * step.period_us) // total,
                )
                group.append(stats)
                idx += 1

    def _start_cp_chatter(self, step: CpChatter) -> None:
        """Background control points; the stagger spans a global cohort."""
        group = self.load_groups.setdefault(step.group, [])
        index = step.index0
        for leaf_name in step.leaves:
            leaf = self.net.segment(leaf_name)
            for j in range(step.per_leaf):
                cp_node = self.net.add_node(f"cp-{leaf.name}n{j}", segment=leaf)
                cp = UpnpControlPoint(cp_node, timings=self.costs.upnp)
                target = step.types[index % len(step.types)]
                st = f"urn:schemas-upnp-org:device:{target}:1"
                stats = {"issued": 0, "completed": 0, "found": 0}

                def kick(cp=cp, st=st, stats=stats,
                         done=_search_done(self.net, stats, step.group, "responses")):
                    stats["issued"] += 1
                    cp.search(st, wait_us=step.wait_us, on_complete=done)

                cp_node.every(
                    step.period_us,
                    kick,
                    initial_delay_us=step.stagger_base_us
                    + (index * step.period_us) // max(1, step.total),
                )
                group.append(stats)
                index += 1

    def _start_ping(self, step: Ping) -> None:
        """One standing unicast flow with per-flow send/receive counters.

        The payload is fixed at build time and the sink counts frames, so
        the flow's accounting is purely event-driven — which is what lets
        the multiprocess backend sum per-worker counters exactly.
        """
        group = self.load_groups.setdefault(step.group, [])
        src = self.hosts[step.src_host]
        dst = self.hosts[step.dst_host]
        stats = {
            "src": step.src_host, "dst": step.dst_host, "sent": 0, "received": 0,
        }
        sink = dst.udp.socket().bind(step.port, reuse=True)
        sink.on_datagram(lambda datagram, stats=stats: stats.__setitem__(
            "received", stats["received"] + 1
        ))
        payload = f"ping:{step.src_host}:".encode() + b"\x00" * step.payload_bytes
        target = Endpoint(dst.address, step.port)
        tx = src.udp.socket()

        def kick(tx=tx, payload=payload, target=target, stats=stats) -> None:
            stats["sent"] += 1
            tx.sendto(payload, target)

        src.every(step.period_us, kick, initial_delay_us=step.start_delay_us)
        group.append(stats)

    def _start_query_load(self, step: QueryLoad) -> None:
        """Open-loop clients against the serving tier's query frontends.

        Each client owns a seeded RNG that nothing else reads, and draws
        its next send offset from it only when the previous query fires
        (see :func:`_arrival_offsets`), so the schedule (and the query
        byte stream it produces) is the same under all three engines.
        Sends never wait for responses; per-client accounting is
        event-driven, so only the owning worker's counters move and merged
        rows stay exact.
        """
        group = self.load_groups.setdefault(step.group, [])
        frontends = [(name, self.hosts[name]) for name in step.frontends]
        client_index = 0
        for seg_name in step.segments:
            segment = self.net.segment(seg_name)
            for j in range(step.clients_per_segment):
                node = self.net.add_node(
                    f"q{step.seed_offset}-{segment.name}-{j}", segment=segment
                )
                fe_name, fe_node = frontends[client_index % len(frontends)]
                rng = random.Random(
                    (self.seed + step.seed_offset) * 1_000_003 + client_index
                )
                stats = {
                    "client": node.name,
                    "frontend": fe_name,
                    "sent": 0,
                    "responses": 0,
                    "hits": 0,
                    "misses": 0,
                    "stale": 0,
                    "staleness_max_us": 0,
                    "batch_sent": 0,
                    "districts_sent": 0,
                    "url_sent": 0,
                    "decode_errors": 0,
                }
                self._start_query_client(
                    step,
                    node,
                    Endpoint(fe_node.address, step.port),
                    _arrival_offsets(step, rng),
                    stats,
                )
                group.append(stats)
                client_index += 1

    def _start_query_client(self, step, node, target, offsets, stats) -> None:
        """One client: its socket, response handler, and send chain.

        A factory method so every closure binds *this* client's state —
        a loop-local ``def`` would rebind the recursive ``fire`` name.
        """
        from ..serving import wire as serving_wire

        net = self.net
        state = {"inflight": {}, "last_url": None}
        sock = node.udp.socket()

        def on_response(datagram) -> None:
            reply = shared_decode(
                datagram.memo,
                serving_wire.WIRE_MEMO_KEY,
                datagram.payload,
                serving_wire.decode,
            )
            if reply is None or reply.get("kind") != "resp":
                stats["decode_errors"] += 1
                return
            sent_at = state["inflight"].pop(reply.get("rid"), None)
            stats["responses"] += 1
            if reply.get("status") == "ok":
                stats["hits"] += 1
                records = reply.get("records") or []
                if records:
                    state["last_url"] = records[0].get("u")
            else:
                stats["misses"] += 1
            if reply.get("stale"):
                stats["stale"] += 1
            stamp = int(reply.get("staleness_us", 0))
            if stamp > stats["staleness_max_us"]:
                stats["staleness_max_us"] = stamp
            if sent_at is not None and net.obs.on:
                latency = node.now_us - sent_at
                note_row_latency(stats, latency)
                net.obs.metrics.histogram(
                    "serving.query.latency_us", group=step.group
                ).observe(latency)

        sock.on_datagram(on_response)

        def fire(i: int, at: int) -> None:
            message = _build_query(serving_wire, step, i, state)
            state["inflight"][i] = node.now_us
            stats["sent"] += 1
            kind = message["kind"]
            if kind == "batch":
                stats["batch_sent"] += 1
            elif kind == "districts":
                stats["districts_sent"] += 1
            elif kind == "url":
                stats["url_sent"] += 1
            sock.sendto(
                serving_wire.encode_flat(message),
                target,
                decode_hint=(serving_wire.WIRE_MEMO_KEY, message),
            )
            if i + 1 < step.queries_per_client:
                later = next(offsets)
                node.schedule(later - at, lambda: fire(i + 1, later))

        first = next(offsets)
        node.schedule(step.start_delay_us + first, lambda: fire(0, first))

    def _run_churn(self, step: Churn) -> None:
        """Sustained membership churn over one fleet.

        Every cycle detaches the victim's host from the internetwork
        (dropping route plans and multicast index entries), removes it
        from the fleet (releasing its ring keys, stopping its gossiper),
        runs degraded, then re-attaches, re-joins, and runs the recovery
        window.  Per-cycle records land in the step's load group.
        """
        fleet = self.fleets[step.fleet]
        spec = self._fleet_specs[step.fleet]
        group = self.load_groups.setdefault(step.group, [])
        rotation = sorted(fleet.members)
        for cycle in range(step.cycles):
            member_id = rotation[cycle % len(rotation)]
            member = fleet.members[member_id]
            instance = member.indiss
            node = instance.node
            home_segments = list(node.segments)
            fleet.leave(member_id)
            self.net.detach_node(node)
            record = {
                "cycle": cycle,
                "member": member_id,
                "down_at_us": self.net.scheduler.now_us,
                "ring_size_down": len(fleet.ring),
                "rejoined": False,
            }
            group.append(record)
            self.net.run(duration_us=step.down_us)
            self.net.reattach_node(node, home_segments)
            fleet.join(
                instance,
                gossip_period_us=spec.gossip_period_us,
                catchup_after=spec.catchup_after,
            )
            record["rejoined"] = True
            record["ring_size_up"] = len(fleet.ring)
            self.net.run(duration_us=step.recover_us)

    def _adversity(self, step, *extra) -> None:
        """Apply a Fault/Heal through its ``KINDS`` row: the operand the step
        sets goes to that operand's Network primitive (a link as two segment
        names, a segment or host as the live object), then ``extra``."""
        for operand, primitive in type(step).KINDS[step.kind].items():
            value = getattr(step, operand)
            if value is None:
                continue
            if operand == "segment":
                value = (self.net.segment(value),)
            elif operand == "host":
                value = (self.hosts[value],)
            getattr(self.net, primitive)(*value, *extra)
            return

    def _fault(self, step: Fault) -> None:
        """Inject one adversity condition, effective at the current time."""
        if step.kind == "degrade":
            edge = "-".join(sorted(step.link)) if step.link else step.segment
            model = make_loss_model(
                step.model, step.rate, self.seed + step.seed_offset, edge
            )
            self._adversity(step, model)
            return
        if step.kind == "detach":
            self._detached_hosts[step.host] = list(self.hosts[step.host].segments)
        self._adversity(step)

    def _heal(self, step: Heal) -> None:
        net = self.net
        if step.kind == "attach":
            home = self._detached_hosts.pop(step.host, None)
            if home is None:
                raise BuildError(f"heal attach: host {step.host!r} is not detached")
            self._adversity(step, home)
        elif step.kind == "clear":
            self._adversity(step, None)
        elif step.kind == "all":
            for pair in sorted(net.router.down_pairs()):
                net.heal_link(*pair)
            for pair in sorted(net._link_loss):
                net.set_link_loss(pair[0], pair[1], None)
            for segment in net.segments.values():
                if segment.loss is not None:
                    net.set_segment_loss(segment, None)
            for host in sorted(self._detached_hosts):
                net.reattach_node(self.hosts[host], self._detached_hosts[host])
            self._detached_hosts.clear()
        else:
            self._adversity(step)

    def _member_fleet(self, host: str) -> Optional[str]:
        """The fleet a host's address is (still) a member of, if any."""
        address = self.hosts[host].address
        for name in sorted(self.fleets):
            if address in self.fleets[name].members:
                return name
        return None

    def _crash(self, step: Crash) -> None:
        """Crash-stop one host, teardown ordered from the top down:

        1. fleet bookkeeping (the member's gossiper timer dies with the
           process; membership record and ring points deliberately stay —
           peers learn of the death only via the failure detector);
        2. INDISS volatile state (the monitor's sockets close while the
           node's stacks are still live, open sessions are fenced so
           pre-crash unit timers cannot complete into the restarted
           instance);
        3. the transport (sockets crash-closed, in-flight frames to the
           host drop exactly once, segments detach).
        """
        node = self.hosts[step.host]
        address = node.address
        fleet_name = self._member_fleet(step.host)
        if fleet_name is not None:
            self.fleets[fleet_name].crash_member(address)
        indiss = self._apps.get((step.host, "indiss"))
        if indiss is not None:
            indiss.crash()
        self.net.crash_node(node)

    def _restart(self, step: Restart) -> None:
        """Bring a crashed host back, rebuild ordered bottom-up: transport
        reattaches first (the monitor's multicast sockets need live
        segments to index under), then the INDISS cold rebuild, then
        fleet re-join (plus the bootstrap handshake when asked)."""
        node = self.net.crashed_node(self.hosts[step.host].address)
        if node is None:
            raise BuildError(f"restart: host {step.host!r} is not crashed")
        self.net.restart_node(node)
        indiss = self._apps.get((step.host, "indiss"))
        if indiss is not None:
            indiss.restart()
            fleet_name = self._member_fleet(step.host)
            if fleet_name is not None:
                fleet_spec = self._fleet_specs[fleet_name]
                self.fleets[fleet_name].restart_member(
                    indiss,
                    gossip_period_us=fleet_spec.gossip_period_us,
                    catchup_after=fleet_spec.catchup_after,
                    bootstrap=step.bootstrap,
                )

    def _set_config(self, step: SetConfig) -> None:
        targets: list[Indiss] = []
        if step.fleet is not None:
            targets.extend(
                member.indiss for member in self.fleets[step.fleet].members.values()
            )
        for host in step.hosts:
            targets.append(self._app(host, "indiss"))
        for instance in targets:
            setattr(instance.config, step.attr, step.value)

    def _check(self, step: Check) -> None:
        """``cache_nonempty``, the one Check kind."""
        if len(self._app(step.host, "indiss").cache) < 1:
            raise BuildError(
                f"check failed: INDISS on {step.host!r} has an empty cache"
            )

    def _type_sweep_report(self, step: TypeSweepReport) -> None:
        fleet = self.fleets[step.fleet]
        report = {}
        for type_name, warm, probe_name in step.entries:
            handle = self.probes[probe_name]
            report[type_name] = {
                "warm": warm,
                "owner": fleet.ring.owner(type_name),
                "placed_on": self.placements.get(type_name),
                "results": handle.results,
                "latency_us": handle.latency_us,
            }
        self.extras[step.key] = report


def _search_done(net: Network, stats: dict, group: str, found: str) -> Callable:
    """A background searcher's completion callback: count the search into
    ``stats`` (``found`` names its answer list) and, while recording, its
    first-answer latency.  Completion callbacks fire in event context, so in
    the multiprocess backend only the owner worker records — merged rows
    stay exact."""

    def done(search) -> None:
        stats["completed"] += 1
        if getattr(search, found):
            stats["found"] += 1
        if net.obs.on and search.first_latency_us is not None:
            note_row_latency(stats, search.first_latency_us)
            net.obs.metrics.histogram(
                "world.search.latency_us", group=group
            ).observe(search.first_latency_us)

    return done


def _on_host(slot: str, add_app: Callable) -> Callable:
    """An app kind's table entry: build the app on its owner's node and
    file it under ``(owner, slot)``."""

    def apply(world: World, app, host: Optional[str] = None) -> None:
        host = app.owner(host)
        world._apps[(host, slot)] = add_app(world, app, world.hosts[host])

    return apply


#: The kind table: spec class -> its handler.  ``World.apply`` dispatches
#: every element, nested app and workload step through it.
SPEC_TABLE: dict[type, Callable] = {
    SegmentSpec: World._add_segment,
    HostSpec: World._add_host,
    BridgeSpec: lambda w, e: w.net.bridge(w.hosts[e.host], *e.segments),
    FleetSpec: World._add_fleet,
    Fill: World._fill,
    Ping: World._start_ping,
    SlpClient: _on_host("ua", World._add_slp_client),
    SlpService: _on_host("sa", World._add_slp_service),
    ClockDevice: _on_host("device", World._add_clock_device),
    TypedDevice: _on_host("device", World._add_typed_device),
    ControlPoint: _on_host("cp", World._add_control_point),
    IndissApp: _on_host("indiss", World._add_indiss),
    QueryFrontendApp: _on_host("frontend", World._add_query_frontend),
    JiniRegistrar: _on_host("jini", World._add_jini_registrar),
    JiniListener: _on_host("jini", World._add_jini_listener),
    GenaSubscriber: _on_host("gena", World._add_gena_subscriber),
    GenaFeed: World._add_gena_feed,
    Run: lambda w, step: w.net.run(duration_us=step.duration_us),
    Probe: World._issue_probe,
    Chatter: World._start_chatter,
    CpChatter: World._start_cp_chatter,
    QueryLoad: World._start_query_load,
    Churn: World._run_churn,
    Fault: World._fault,
    Heal: World._heal,
    Crash: World._crash,
    Restart: World._restart,
    SetConfig: World._set_config,
    Snapshot: World._snapshot,
    Delta: World._delta,
    Collect: World._collect,
    Emit: lambda w, step: w.extras.__setitem__(step.key, step.value),
    Check: World._check,
    TypeSweepReport: World._type_sweep_report,
}


def _arrival_offsets(step: QueryLoad, rng: random.Random) -> Iterator[int]:
    """The client's send offsets (µs after its start delay), one per query.

    Drawn lazily, one offset per query as the client fires.  ``rng``
    belongs to this one client and nothing else draws from it, so the
    offsets do not depend on when they are drawn: every engine (and
    every multiprocess worker that owns the client) sees the same
    open-loop schedule.
    """
    mean = step.mean_interval_us
    t = 0
    if step.process == "poisson":
        for _ in range(step.queries_per_client):
            t += max(1, int(rng.expovariate(1.0 / mean)))
            yield t
    elif step.process == "bursty":
        # Trains of ``burst`` near-back-to-back queries, train gaps scaled
        # so the long-run rate matches the poisson process.
        intra = max(1, mean // 10)
        left = step.queries_per_client
        while left:
            t += max(1, int(rng.expovariate(1.0 / (mean * step.burst))))
            for _ in range(min(step.burst, left)):
                yield t
                t += intra
                left -= 1
    else:  # diurnal: the mean gap sweeps 0.5x..1.5x over one period
        period = step.diurnal_period_us
        for _ in range(step.queries_per_client):
            phase = math.sin((2.0 * math.pi * t) / period)
            local_mean = max(1.0, mean * (1.0 + 0.5 * phase))
            t += max(1, int(rng.expovariate(1.0 / local_mean)))
            yield t


def _build_query(serving_wire, step: QueryLoad, i: int, state: dict) -> dict:
    """The i-th query in the step's mix (see :class:`QueryLoad`).

    ``serving_wire`` is :mod:`repro.serving.wire`, imported once per client
    by the caller; worlds without a serving tier never import it.
    """
    if step.url_every and (i + 1) % step.url_every == 0 and state["last_url"]:
        return serving_wire.request("url", i, url=state["last_url"])
    if step.batch_every and (i + 1) % step.batch_every == 0:
        return serving_wire.request("batch", i, targets=list(step.types))
    if step.districts_every and (i + 1) % step.districts_every == 0:
        return serving_wire.request(
            "districts", i, st=step.types[i % len(step.types)]
        )
    message = serving_wire.request("type", i, st=step.types[i % len(step.types)])
    if step.scope_districts:
        message["scope"] = {"districts": list(step.scope_districts)}
    return message


def run_world(
    spec: WorldSpec,
    seed: int = 0,
    costs=None,
    capture: bool = False,
    parse_once: bool = True,
    engine: str = "single",
    record=False,
) -> ScenarioOutcome:
    """Build ``spec``, run its workload, and return the outcome."""
    world = World.build(
        spec, seed=seed, costs=costs, capture=capture, parse_once=parse_once,
        engine=engine, record=record,
    )
    world.run_workload()
    return world.outcome()


__all__ = ["World", "BuildError", "ProbeHandle", "run_world", "SpecError", "SPEC_TABLE"]
