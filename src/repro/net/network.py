"""The simulated internetwork: segments, routing, and datagram delivery.

Historically this modelled the paper's single 10 Mb/s home-LAN segment; it
now composes one or more :class:`~repro.net.segment.Segment` objects into a
multi-segment internetwork (see ``segment.py`` for the scoping rules).  A
``Network`` constructed the old way — no explicit segments — is exactly the
old single-LAN model: every node lands on the default segment, multicast
reaches everyone, and no routing happens.

Delivery rules:

* unicast datagrams route by destination address — directly when sender
  and target share a segment, through the :class:`Router`'s link path
  otherwise (each traversed segment and link charges its latency);
* multicast datagrams fan out to every socket that joined the group and
  bound the destination port on each segment the *sender* is attached to —
  including sockets on the sending host (``IP_MULTICAST_LOOP`` behaviour),
  which is how a co-located INDISS instance sees its host's own traffic;
* broadcast behaves like multicast: confined to the sender's segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from .addressing import (
    BROADCAST,
    Endpoint,
    LOOPBACK,
    is_loopback,
    is_multicast,
    parse_ipv4,
)
from .errors import AddressError, NetworkError
from .latency import LatencyModel, LossModel
from .node import Node
from ..obs import NULL_RECORDING
from .parallel import CROSS_LABEL, CrossFrame
from .partition import PartitionMap
from .segment import Bridge, DEFAULT_LINK_LATENCY_US, Link, Router, Segment
from .simclock import Scheduler
from .traffic import TrafficMonitor
from .udp import Datagram, FrameMemo, Memo, NULL_MEMO, ParseCounter, UdpSocket

if TYPE_CHECKING:  # pragma: no cover
    from .parallel import ShardedScheduler

#: Size of one session-id block; under a multi-district partition map,
#: district ``p`` allocates ids from ``(p + 1) * SESSION_ID_BLOCK``.
SESSION_ID_BLOCK = 10**8

#: Block index the first crash-recovery restart mints session ids from
#: (the n-th restart fleet-wide uses ``RESTART_SESSION_BLOCK + n``).  Far
#: above any realistic district count, so restarted instances can never
#: collide with a district block *or* with their own pre-crash ids.
RESTART_SESSION_BLOCK = 1000


@dataclass
class TraceRecord:
    """One captured wire message (for debugging and behavioural tests)."""

    time_us: int
    transport: str
    source: Endpoint
    destination: Endpoint
    size: int
    payload: bytes
    #: Segment the frame appeared on ("" for pre-segment captures).
    segment: str = ""


class Network:
    """An internetwork of LAN segments (a single segment by default)."""

    #: Name of the segment nodes land on when none is specified.
    DEFAULT_SEGMENT = "lan0"

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        latency: LatencyModel | None = None,
        loss: LossModel | None = None,
        subnet: str = "192.168.1",
        capture: bool = False,
        parse_once: bool = True,
    ):
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.latency = latency if latency is not None else LatencyModel()
        self.loss = loss
        self.router = Router()
        self.segments: dict[str, Segment] = {}
        self._nodes: dict[str, Node] = {}
        self._next_auto_subnet = 2
        self.traffic = TrafficMonitor(self.latency.bandwidth_bps)
        self._capture = capture
        self.trace: list[TraceRecord] = []
        #: Unicast datagrams with no destination node or no route (dropped).
        self.unrouted = 0
        #: Precomputed delivery plans keyed by (sender, target) address:
        #: the traversed segments plus the link-latency prefix.  Steady-state
        #: unicast costs one dict hit instead of a segment-pair product and
        #: list assembly; any topology change flushes the memo (see
        #: :meth:`_note_topology_change`) and :class:`Router` link changes
        #: are caught through its ``topology_version``.
        self._route_plans: dict = {}
        self._route_plans_version = 0
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.route_cache_invalidations = 0
        #: ``False`` attaches the no-op :data:`NULL_MEMO` to every frame and
        #: makes every :meth:`memo` store nothing, disabling all decode
        #: sharing, send-side seeding and receiver caches — the A/B knob
        #: the benchmarks price the parse-once machinery with.
        self.parse_once = parse_once
        #: Per-protocol decode accounting (protocol id -> counter); every
        #: memo-aware receive path registers its decode/share here through
        #: :meth:`parse_counter`.
        self.parse_stats: dict[str, ParseCounter] = {}
        #: Attached :class:`~repro.net.parallel.ShardedScheduler`, if the
        #: world was built for the partitioned engine (``scheduler`` is then
        #: the same object).  ``None`` means classic single-scheduler execution.
        self.engine: "ShardedScheduler | None" = None
        #: Partition map frozen at build completion by partition-aware
        #: builders (both engines; see :meth:`freeze_partitions`).  ``None``
        #: on hand-built networks: all partition semantics stay off and
        #: behaviour is exactly the classic single-district model.
        self._pmap: PartitionMap | None = None
        #: Session-id blocks keyed by district or by a restarted host's
        #: address; see :meth:`session_id_source`.
        self._session_counters: dict = {0: itertools.count(1)}
        #: Instrumentation bundle (:class:`repro.obs.Recording`).  Defaults
        #: to the shared disabled singleton, so every recording site costs
        #: one attribute load and a falsy ``obs.on`` check until a builder
        #: swaps in a live recording (``World.build(record=True)``).
        self.obs = NULL_RECORDING
        #: Adversity layer (all off by default; see :meth:`enable_faults`).
        #: Per-link loss models keyed by canonical segment pair, cut
        #: timestamps for fault-window spans, and the sticky flag that
        #: switches multi-hop unicast onto the fault-aware trunk path.
        self._link_loss: dict[tuple[str, str], object] = {}
        self._cut_times: dict[tuple[str, str], int] = {}
        self._adversity = False
        #: Crash-stopped hosts: address -> (node, home segments at crash
        #: time).  Entries live from :meth:`crash_node` to
        #: :meth:`restart_node`.
        self._crash_info: dict[str, tuple[Node, list[Segment]]] = {}
        #: Fleet-wide restart ordinal; grows in workload-step order, which
        #: is identical on every engine, so restart blocks are deterministic.
        self._restart_count = 0
        self.default_segment = self.add_segment(
            self.DEFAULT_SEGMENT, subnet=subnet, latency=self.latency
        )

    # -- topology -----------------------------------------------------------

    def add_segment(
        self,
        name: str,
        subnet: str | None = None,
        latency: LatencyModel | None = None,
    ) -> Segment:
        """Create a new LAN segment; the subnet is auto-allocated if omitted."""
        if name in self.segments:
            raise NetworkError(f"segment {name!r} already exists")
        if self.engine is not None and name not in self.engine.pmap.pid_of:
            raise NetworkError(
                f"segment {name!r} is not in the frozen partition map; the "
                "partitioned engine cannot grow new districts mid-run"
            )
        if subnet is None:
            used = {s.subnet for s in self.segments.values()}
            while f"192.168.{self._next_auto_subnet}" in used:
                self._next_auto_subnet += 1
            subnet = f"192.168.{self._next_auto_subnet}"
            self._next_auto_subnet += 1
        segment = Segment(self, name, subnet=subnet, latency=latency)
        self.segments[name] = segment
        self._note_topology_change()
        return segment

    def segment(self, name: str) -> Segment:
        try:
            return self.segments[name]
        except KeyError:
            raise NetworkError(f"no segment named {name!r}") from None

    def _resolve_segment(self, segment: Segment | str | None) -> Segment:
        if segment is None:
            return self.default_segment
        if isinstance(segment, Segment):
            return segment
        return self.segment(segment)

    def link(
        self,
        a: Segment | str,
        b: Segment | str,
        latency_us: int = DEFAULT_LINK_LATENCY_US,
    ) -> Link:
        """Connect two segments with a routed point-to-point link."""
        seg_a, seg_b = self._resolve_segment(a), self._resolve_segment(b)
        engine = self.engine
        if engine is not None:
            pmap = engine.pmap
            lookahead = pmap.lookahead_us
            if (
                pmap.pid_of.get(seg_a.name) != pmap.pid_of.get(seg_b.name)
                and lookahead is not None
                and latency_us < lookahead
            ):
                raise NetworkError(
                    f"link {seg_a.name}-{seg_b.name} ({latency_us} us) is "
                    f"faster than the engine's lookahead ({lookahead} us)"
                )
        return self.router.connect(seg_a.name, seg_b.name, latency_us)

    def add_node(
        self,
        name: str,
        address: str | None = None,
        segment: Segment | str | None = None,
    ) -> Node:
        """Attach a host; the address is allocated from the segment's subnet
        if omitted."""
        seg = self._resolve_segment(segment)
        if address is None:
            address = seg.allocate_address()
        else:
            parse_ipv4(address)
        if address in self._nodes:
            raise AddressError(f"address {address} already attached")
        node = Node(self, name, address)
        self._nodes[address] = node
        seg.attach(node)
        return node

    def bridge(self, node: Node, *segments: Segment | str) -> Bridge:
        """Multi-home ``node`` onto additional segments (gateway placement)."""
        resolved = [self._resolve_segment(s) for s in segments]
        if self.engine is not None:
            pmap = self.engine.pmap
            pids = {
                pmap.pid_of[seg.name]
                for seg in [*node.segments, *resolved]
                if seg.name in pmap.pid_of
            }
            if len(pids) > 1:
                raise NetworkError(
                    f"bridging {node.name!r} across districts {sorted(pids)} "
                    "would merge partitions the engine already sharded"
                )
        return Bridge(node, *resolved)

    def detach_node(self, node: Node) -> None:
        """Remove a host from every segment it is attached to.

        Pending in-flight deliveries to its sockets still land (frames
        already on the wire); new unicasts to the address drop as
        unrouted, and cached delivery plans involving the node expire.
        A detached host's own sends drop silently (NIC down), so its
        periodic tasks may keep firing while it is off the network —
        the membership-churn workloads rely on both properties.
        """
        for segment in list(node.segments):
            segment.detach(node)
        self._nodes.pop(node.address, None)
        self._note_topology_change()

    def reattach_node(self, node: Node, segments=None) -> None:
        """Re-attach a previously detached host (fleet churn rejoin).

        The node keeps its address and sockets; every multicast group
        membership is re-indexed on the segments it returns to, and all
        cached delivery plans are flushed.  ``segments`` defaults to the
        network's default segment; pass the detach-time list to restore a
        gateway's bridged placement.
        """
        if node.address in self._nodes:
            raise AddressError(f"address {node.address} already attached")
        if node.segments:
            raise NetworkError(f"node {node.name!r} is still attached")
        targets = [
            self._resolve_segment(s)
            for s in (segments if segments else [self.default_segment])
        ]
        if self.engine is not None and node._pid is not None:
            pmap = self.engine.pmap
            for segment in targets:
                pid = pmap.pid_of.get(segment.name)
                if pid is not None and pid != node._pid:
                    raise NetworkError(
                        f"cannot reattach {node.name!r} to district {pid}: its "
                        f"timers live on district {node._pid}'s scheduler"
                    )
        self._nodes[node.address] = node
        for segment in targets:
            segment.attach(node)

    # -- crash faults (crash-stop / crash-recovery) -----------------------------

    def is_crashed(self, node_or_address) -> bool:
        address = (
            node_or_address
            if isinstance(node_or_address, str)
            else node_or_address.address
        )
        return address in self._crash_info

    def crashed_node(self, address: str) -> Optional[Node]:
        """The crash-stopped node at ``address`` (it left ``node_at``'s
        table when it crashed), or None."""
        info = self._crash_info.get(address)
        return info[0] if info is not None else None

    def crash_node(self, node: Node) -> None:
        """Crash-stop a host: the process dies mid-flight.

        Differs from :meth:`detach_node` (NIC down) in exactly the ways a
        dead process differs from an unplugged cable:

        * **in-flight frames addressed to the host drop exactly once** —
          its sockets close, so deliveries already scheduled are swallowed
          by the closed-socket guard and can never land on a post-restart
          successor socket;
        * **volatile transport state is lost** — the UDP port table and
          every TCP connection die (no FIN: peers only notice through
          their own timeouts), and the stacks are reset so a restart
          starts from nothing;
        * sends from stale timers that still hold a dead socket vanish
          silently instead of raising into the surviving event loop.

        Like detach, a crashed host keeps its home district: its (now
        inert) timers stay on the same shard, so the partitioned engines
        schedule identically.  No RNG is drawn anywhere on this path — a
        crash armed but never fired stays bit-identical to a crash-free
        run.
        """
        address = node.address
        if address in self._crash_info:
            raise NetworkError(f"node {node.name!r} is already crashed")
        home = list(node.segments)
        # Close sockets while still attached so multicast memberships
        # unindex from the segments that indexed them.
        if node._udp is not None:
            node._udp.crash()
        if node._tcp is not None:
            node._tcp.crash()
        node._udp = None
        node._tcp = None
        for segment in home:
            segment.detach(node)
        self._nodes.pop(address, None)
        self._crash_info[address] = (node, home)
        self._note_topology_change()
        obs = self.obs
        if obs.on:
            pid = self.partition_of_node(node)
            pmap = self.partition_map
            if pmap is None or obs.owns(pid):
                obs.trace.instant(
                    "net.node.crash", self.scheduler_for(node).now_us, pid,
                    cat="fault", args={"host": node.name},
                )
                obs.metrics.counter("net.node.crashes", host=node.name).inc()

    def restart_node(self, node: Node, segments=None) -> None:
        """Crash-recovery: bring a crashed host back with empty stacks.

        ``segments`` defaults to the host's crash-time placement.  The
        same district guard as :meth:`reattach_node` applies — a restarted
        host's timers still live on its home shard.  The restarted
        instance mints session ids from a fresh block
        (``(RESTART_SESSION_BLOCK + n) * SESSION_ID_BLOCK`` for the n-th
        restart), so no session id is ever reused across the crash; the
        ordinal grows in workload-step order, identical on every engine.
        """
        info = self._crash_info.get(node.address)
        if info is None:
            raise NetworkError(f"node {node.name!r} is not crashed")
        _, home = info
        targets = [
            self._resolve_segment(s) for s in (segments if segments else home)
        ]
        if not targets:
            targets = [self.default_segment]
        if self.engine is not None and node._pid is not None:
            pmap = self.engine.pmap
            for segment in targets:
                pid = pmap.pid_of.get(segment.name)
                if pid is not None and pid != node._pid:
                    raise NetworkError(
                        f"cannot restart {node.name!r} on district {pid}: its "
                        f"timers live on district {node._pid}'s scheduler"
                    )
        del self._crash_info[node.address]
        self._nodes[node.address] = node
        for segment in targets:
            segment.attach(node)
        self._restart_count += 1
        base = (RESTART_SESSION_BLOCK + self._restart_count) * SESSION_ID_BLOCK
        self._session_counters[node.address] = itertools.count(base)
        self._note_topology_change()
        obs = self.obs
        if obs.on:
            pid = self.partition_of_node(node)
            pmap = self.partition_map
            if pmap is None or obs.owns(pid):
                obs.trace.instant(
                    "net.node.restart", self.scheduler_for(node).now_us, pid,
                    cat="fault", args={"host": node.name},
                )
                obs.metrics.counter("net.node.restarts", host=node.name).inc()

    # -- adversity: loss models and fault injection ----------------------------

    def enable_faults(self) -> None:
        """Arm the adversity layer: multi-hop unicast switches to the
        fault-aware *trunk* delivery event (one event at the pre-final-hop
        delay that re-checks link state and draws link loss at delivery
        time), so frames in flight on a cut link drop instead of landing.

        Sticky for the run.  Never armed implicitly: lossless worlds keep
        the classic send-time scheduling shape and stay bit-identical to
        the golden traces.  Builders arm it when a spec carries ``Fault``/
        ``Heal`` steps; direct API users should arm it before sending
        traffic they want in-flight cut semantics for.
        """
        self._adversity = True

    def set_segment_loss(self, segment: Segment | str, model) -> None:
        """Install (or clear, with ``None``) a per-segment loss model.

        Drops are drawn per receiver at delivery-event time from the
        model's own RNG stream, so they replay identically on the single,
        inline, and multiprocess engines.  Loopback copies never drop.
        """
        self._resolve_segment(segment).loss = model
        if model is not None:
            self._adversity = True

    def set_link_loss(self, a: Segment | str, b: Segment | str, model) -> None:
        """Install (or clear, with ``None``) a loss model on link ``a``-``b``.

        Link loss draws once per frame (not per receiver) at the trunk
        delivery event.  Under the partitioned engine only intra-district
        links may be lossy; see :meth:`attach_engine`.
        """
        seg_a, seg_b = self._resolve_segment(a), self._resolve_segment(b)
        if not any(
            link.other(seg_a.name) == seg_b.name
            for link in self.router._adjacency.get(seg_a.name, ())
        ):
            raise NetworkError(
                f"no link between segments {seg_a.name!r} and {seg_b.name!r}"
            )
        pair = Router.pair(seg_a.name, seg_b.name)
        if model is None:
            self._link_loss.pop(pair, None)
            return
        if self.engine is not None:
            pmap = self.engine.pmap
            if pmap.pid_of.get(pair[0]) != pmap.pid_of.get(pair[1]):
                raise NetworkError(
                    f"cross-district link {pair[0]}-{pair[1]} cannot carry a "
                    "loss model under the partitioned engine: its drop draws "
                    "would make one district's RNG depend on another "
                    "district's traffic"
                )
        self._link_loss[pair] = model
        self._adversity = True

    def cut_link(self, a: Segment | str, b: Segment | str) -> bool:
        """Administratively cut link ``a``-``b``; True when state changed.

        Routing immediately excludes the link (cached delivery plans
        expire through ``topology_version``); with faults armed, frames
        already in flight across it drop at their trunk event.
        """
        seg_a, seg_b = self._resolve_segment(a), self._resolve_segment(b)
        self._adversity = True
        changed = self.router.set_link_state(seg_a.name, seg_b.name, up=False)
        if changed:
            pair = Router.pair(seg_a.name, seg_b.name)
            self._cut_times[pair] = self.scheduler.now_us
            self._obs_link_state(pair, up=False)
        return changed

    def heal_link(self, a: Segment | str, b: Segment | str) -> bool:
        """Bring link ``a``-``b`` back up; True when state changed."""
        seg_a, seg_b = self._resolve_segment(a), self._resolve_segment(b)
        changed = self.router.set_link_state(seg_a.name, seg_b.name, up=True)
        if changed:
            pair = Router.pair(seg_a.name, seg_b.name)
            self._obs_link_state(pair, up=True, cut_at=self._cut_times.pop(pair, None))
        return changed

    def isolate_segment(self, segment: Segment | str) -> list[tuple[str, str]]:
        """Cut every up link incident to ``segment`` (network partition).

        Returns the canonical pairs cut, for a later selective heal.
        Multicast stays segment-scoped as always; this only severs routed
        unicast in and out of the segment.
        """
        seg = self._resolve_segment(segment)
        cut: list[tuple[str, str]] = []
        for a, b, _latency in self.router.links():
            if seg.name in (a, b) and self.router.link_is_up(a, b):
                self.cut_link(a, b)
                cut.append(Router.pair(a, b))
        return cut

    def heal_segment(self, segment: Segment | str) -> None:
        """Heal every down link incident to ``segment``."""
        seg = self._resolve_segment(segment)
        for a, b, _latency in self.router.links():
            if seg.name in (a, b) and not self.router.link_is_up(a, b):
                self.heal_link(a, b)

    def loss_report(self) -> dict[str, dict[str, int]]:
        """Dropped/delivered totals per lossy edge (bench + test probe)."""
        report: dict[str, dict[str, int]] = {}
        for name, seg in sorted(self.segments.items()):
            if seg.loss is not None:
                report[f"segment:{name}"] = {
                    "dropped": seg.loss.dropped, "delivered": seg.loss.delivered
                }
        for (a, b), model in sorted(self._link_loss.items()):
            report[f"link:{a}-{b}"] = {
                "dropped": model.dropped, "delivered": model.delivered
            }
        if self.loss is not None:
            report["global"] = {
                "dropped": self.loss.dropped, "delivered": self.loss.delivered
            }
        return report

    def _obs_loss_drop(self, edge: str, segment_name: str, kind: str = "drops") -> None:
        """Count one adversity drop, gated by district ownership (drops
        draw on the owning shard only)."""
        obs = self.obs
        if not obs.on:
            return
        pmap = self.partition_map
        pid = pmap.pid_of.get(segment_name, 0) if pmap is not None else 0
        if obs.owns(pid):
            obs.metrics.counter(f"net.loss.{kind}", edge=edge).inc()

    def _obs_link_state(
        self, pair: tuple[str, str], up: bool, cut_at: int | None = None
    ) -> None:
        """Gauge + fault-window span for one link state flip."""
        obs = self.obs
        if not obs.on:
            return
        pmap = self.partition_map
        pid = pmap.pid_of.get(pair[0], 0) if pmap is not None else 0
        if not obs.owns(pid):
            return
        name = f"{pair[0]}-{pair[1]}"
        now = self.scheduler.now_us
        obs.metrics.gauge("net.link.state", link=name).set(1 if up else 0)
        if up:
            if cut_at is not None:
                obs.trace.span(
                    "net.fault.window", cut_at, now - cut_at, pid,
                    cat="fault", args={"link": name},
                )
        else:
            obs.trace.instant(
                "net.link.cut", now, pid, cat="fault", args={"link": name}
            )

    # -- partitions & the parallel engine -------------------------------------

    def freeze_partitions(self, pmap: PartitionMap) -> None:
        """Fix the district map for the rest of the run (both engines).

        Partition-aware builders call this once the topology is complete.
        The map is deliberately *not* recomputed on later attach/detach:
        a churned-out gateway must keep its home district (its timers keep
        firing on the same shard, and the single-threaded oracle must make
        identical delay decisions), so membership is a build-time property.

        A multi-district map also replaces session-id block 0 with one
        disjoint block per district, so the single, inline, and
        multiprocess backends all mint identical ids (one shared block's
        values would depend on cross-district interleaving).
        """
        self._pmap = pmap
        if pmap.count > 1:
            self._session_counters.update(
                (pid, itertools.count((pid + 1) * SESSION_ID_BLOCK))
                for pid in range(pmap.count)
            )

    def attach_engine(self, engine: "ShardedScheduler") -> None:
        """Bind a partitioned engine (its façade is ``self.scheduler``).

        Loss is allowed under the engine only where its draws stay inside
        one district's event order: a *global* loss model (one RNG drawn
        across districts) and *cross-district* lossy links are rejected;
        intra-district segment and link loss models are fine because their
        drops are drawn at delivery-event time on the owning shard.
        """
        if self.loss is not None:
            raise NetworkError(
                "the partitioned engine does not support a global loss "
                "model: one shared RNG drawn across districts is not "
                "reproducible across shards — use set_segment_loss or "
                "set_link_loss on intra-district edges instead"
            )
        pmap = engine.pmap
        for a, b in self._link_loss:
            if pmap.pid_of.get(a) != pmap.pid_of.get(b):
                raise NetworkError(
                    f"cross-district link {a}-{b} cannot carry a loss model "
                    "under the partitioned engine: its drop draws would make "
                    "one district's RNG depend on another district's traffic"
                )
        self.engine = engine
        engine.bind(self)
        self.freeze_partitions(engine.pmap)

    @property
    def partition_map(self) -> PartitionMap | None:
        return self.engine.pmap if self.engine is not None else self._pmap

    def partition_of_node(self, node: Node) -> int:
        """The district a node belongs to (0 on partition-unaware networks).

        A detached node (fleet churn) keeps its last known district.
        """
        pmap = self.partition_map
        if pmap is None:
            return 0
        if node.segments:
            pid = pmap.pid_of.get(node.segments[0].name)
            if pid is None:
                return node._pid or 0
            node._pid = pid
            return pid
        return node._pid or 0

    def scheduler_for(self, node: Node) -> Scheduler:
        """The scheduler a node's events belong on: its district's shard under
        the partitioned engine, the shared scheduler otherwise.  Every
        node-level scheduling convenience routes through here."""
        engine = self.engine
        if engine is None:
            return self.scheduler
        return engine.shards[self.partition_of_node(node)]

    def session_id_source(self, node: Node) -> Callable[[], int]:
        """The only source of session ids: ``node``'s district block
        (block 0, ids from 1, on single-district and hand-built networks).

        A host that came back through :meth:`restart_node` allocates from
        its own fresh restart block instead — on any topology — so a
        restarted instance can never mint a pre-crash session id.
        """
        counters = self._session_counters
        counter = counters.get(node.address)
        if counter is None:
            counter = counters[self.partition_of_node(node)]
        return counter.__next__

    def node_at(self, address: str) -> Optional[Node]:
        return self._nodes.get(address)

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    # -- capture --------------------------------------------------------------

    def trace_message(
        self,
        transport: str,
        source: Endpoint,
        destination: Endpoint,
        payload: bytes,
        segment: str = "",
    ) -> None:
        if self._capture:
            self.trace.append(
                TraceRecord(
                    self.scheduler.now_us,
                    transport,
                    source,
                    destination,
                    len(payload),
                    payload,
                    segment=segment,
                )
            )

    # -- routing ---------------------------------------------------------------

    def _note_topology_change(self) -> None:
        """Drop every cached delivery plan (segment/link/bridge/detach)."""
        if self._route_plans:
            self._route_plans.clear()
            self.route_cache_invalidations += 1

    def _route_segments(
        self, sender: Node, target: Node
    ) -> Optional[tuple[tuple[Segment, ...], int, tuple[tuple[str, str], ...]]]:
        """Delivery plan for a unicast frame: traversed segments, total
        link latency, and the canonical pairs of the links crossed (empty
        for same-segment delivery).  Returns None when no path exists.

        Plans are memoized per (sender, target) address pair — steady-state
        traffic between two hosts costs one dict hit.  The memo is flushed
        on any attach/detach (:meth:`_note_topology_change`) and expires
        wholesale when the router's link topology version moves.
        """
        if self._route_plans_version != self.router.topology_version:
            self._route_plans.clear()
            self._route_plans_version = self.router.topology_version
        key = (sender.address, target.address)
        try:
            plan = self._route_plans[key]
        except KeyError:
            pass
        else:
            self.route_cache_hits += 1
            return plan
        self.route_cache_misses += 1
        for seg in sender.segments:
            if target in seg:
                plan = self._route_plans[key] = (seg,), 0, ()
                return plan
        best = self.router.route(
            (s.name for s in sender.segments), (s.name for s in target.segments)
        )
        if best is None:
            self._route_plans[key] = None
            return None
        source_name, hops = best
        traversed = [self.segments[source_name]]
        link_pairs = []
        cursor = source_name
        link_latency = 0
        for hop in hops:
            cursor = hop.other(cursor)
            traversed.append(self.segments[cursor])
            link_pairs.append(Router.pair(hop.a, hop.b))
            link_latency += hop.latency_us
        plan = self._route_plans[key] = tuple(traversed), link_latency, tuple(link_pairs)
        return plan

    def unicast_delay_us(
        self, sender: Node, remote_host: str, size_bytes: int, loopback: bool = False
    ) -> Optional[int]:
        """One-way unicast delay from ``sender`` to ``remote_host``.

        Used by the UDP and TCP paths alike; returns None when the host is
        unknown or unreachable across the segment graph.
        """
        if loopback or is_loopback(remote_host) or remote_host == sender.address:
            if not sender.segments:  # detached host: loopback still works
                return self.latency.delay_us(size_bytes, True)
            return sender.segments[0].latency.delay_us(size_bytes, True)
        if not sender.segments:
            return None  # detached host: nothing reaches the wire
        target = self._nodes.get(remote_host)
        if target is None:
            return None
        route = self._route_segments(sender, target)
        if route is None:
            return None
        traversed, link_latency, _pairs = route
        upstream = self._upstream_delay_us(traversed, link_latency, size_bytes)
        return upstream + traversed[-1].latency.delay_us(size_bytes, False)

    @staticmethod
    def _upstream_delay_us(traversed, link_latency: int, size: int) -> int:
        """The pre-final-hop cost of a routed frame: one delay draw per
        segment before the last, in path order, plus the links' latency."""
        delay = link_latency
        for segment in traversed[:-1]:
            delay += segment.latency.delay_us(size, False)
        return delay

    # -- decode accounting -----------------------------------------------------

    def parse_counter(self, protocol: str) -> ParseCounter:
        """The decode counter for ``protocol``, created on first use.

        Receive paths fetch this once at construction time and increment
        ``decoded``/``shared`` per frame; send paths count ``seeded``.
        """
        counter = self.parse_stats.get(protocol)
        if counter is None:
            # With parse_once off, decode hints are dropped before they
            # reach any frame, so seed notes are suppressed too.
            counter = ParseCounter(count_seeds=self.parse_once)
            self.parse_stats[protocol] = counter
        return counter

    def memo(self, bound: int) -> Memo:
        """A receiver cache of up to ``bound`` entries; with ``parse_once``
        off it stores nothing, so every cache in the world is off too."""
        return Memo(bound if self.parse_once else 0)

    # -- datagram delivery -----------------------------------------------------

    def send_datagram(
        self,
        sender: Node,
        source: Endpoint,
        destination: Endpoint,
        payload: bytes,
        decode_hint: tuple | None = None,
    ) -> None:
        """Route one UDP datagram (unicast, multicast, or broadcast).

        ``decode_hint`` pre-seeds the frame's decode memo with the sender's
        structured form of the payload (see :meth:`UdpSocket.sendto`).
        Every booking of the frame uses one ``scheduler.now_us`` reading
        (only the façade property returns the sending shard's clock).
        """
        if not sender.segments:
            # A detached host (fleet churn) has no NIC: the send drops.
            self.unrouted += 1
            return
        host = destination.host
        multicast = is_multicast(host)
        now = self.scheduler.now_us
        self.traffic.record(now, len(payload))
        datagram = self._frame(payload, source, destination, decode_hint)
        if multicast:
            self._deliver_multicast(sender, datagram, now)
        elif host == BROADCAST:
            self._deliver_broadcast(sender, datagram, now)
        else:
            self._deliver_unicast(sender, datagram, now)

    def _book(self, segments, datagram: Datagram, now: int) -> None:
        """Book one frame on each of ``segments``: traffic monitors, then
        the wire trace when capturing."""
        payload = datagram.payload
        size = len(payload)
        for segment in segments:
            segment.traffic.record(now, size)
        if self._capture:
            for segment in segments:
                self.trace.append(
                    TraceRecord(
                        now, "udp", datagram.source, datagram.destination, size,
                        payload, segment.name,
                    )
                )

    def _deliver_unicast(self, sender: Node, datagram: Datagram, now: int) -> None:
        """Route one unicast frame: loopback, unrouted, cross-district,
        fault trunk, or routed/same-segment (target looked up per send)."""
        host = datagram.destination.host
        if host == sender.address or is_loopback(host):
            home = sender.segments[0]
            self._book((home,), datagram, now)
            self._deliver_to_sockets(sender, datagram, True, home, 0)
            return
        target = self._nodes.get(host)
        route = None if target is None else self._route_segments(sender, target)
        if route is None:
            self._book(sender.segments[:1], datagram, now)
            self.unrouted += 1
            return
        traversed, link_latency, link_pairs = route
        pmap = self.partition_map
        if pmap is not None and len(traversed) > 1:
            src_pid = pmap.pid_of.get(traversed[0].name)
            dst_pid = pmap.pid_of.get(traversed[-1].name)
            if src_pid is not None and dst_pid is not None and src_pid != dst_pid:
                # Cross-district frames are exempt from per-edge loss in
                # both engines: a delivery-time draw on the far side would
                # make the destination district's RNG order depend on the
                # source district's traffic interleaving.
                self._deliver_cross(
                    sender, datagram, traversed, link_latency, src_pid, dst_pid, now
                )
                return
        self._book(traversed, datagram, now)
        if link_pairs and self._adversity:
            self._deliver_trunk(target, datagram, traversed, link_latency, link_pairs)
            return
        # Upstream (pre-final-hop) cost is drawn once; the final-segment
        # delay is drawn per receiving socket, like local delivery.
        prefix = self._upstream_delay_us(traversed, link_latency, len(datagram.payload))
        self._deliver_to_sockets(target, datagram, False, traversed[-1], prefix)

    def _deliver_to_sockets(
        self, node: Node, datagram: Datagram, loopback: bool, segment: Segment, prefix: int
    ) -> None:
        """Post one delivery event per socket ``node`` bound to the frame's
        port (global loss draw, then delay draw, per socket); the loop only
        posts events, so it walks the port table without a copy."""
        stack = node._udp
        if stack is None:
            return  # the host never opened a socket; nothing can bind
        sockets = stack._ports.get(datagram.destination.port)
        if not sockets:
            return
        schedule = self.scheduler_for(node).schedule
        latency = segment.latency
        size = len(datagram.payload)
        loss = None if loopback else self.loss
        deliver = UdpSocket.deliver
        if segment.loss is not None and not loopback:
            deliver = partial(self._deliver_lossy, segment.loss, segment)
        for sock in sockets:
            if loss is not None and loss.should_drop():
                continue
            delay = prefix + latency.delay_us(size, loopback)
            schedule(delay, partial(deliver, sock, datagram), "udp-delivery")

    def _deliver_lossy(self, loss, segment: Segment, sock, datagram: Datagram) -> None:
        # Adversity: the per-edge drop is drawn at delivery-event time on
        # the owning shard — send paths replay in forked workers.
        if loss.should_drop():
            self._obs_loss_drop(segment.name, segment.name)
        else:
            sock.deliver(datagram)

    def _deliver_trunk(
        self,
        target: Node,
        datagram: Datagram,
        traversed: tuple[Segment, ...],
        link_latency: int,
        link_pairs: tuple[tuple[str, str], ...],
    ) -> None:
        """Fault-aware multi-hop unicast (faults armed only).

        One *trunk* event fires after the upstream cost; at that moment —
        not at send time — it re-checks link state (a frame in flight on a
        freshly cut link drops, never duplicates) and draws each lossy
        link's model once per frame, then hands off to the normal
        final-segment per-socket delivery.  All draws happen in delivery
        event order on the district that owns the path, so seeded fault
        runs replay identically on every engine backend.
        """
        prefix = self._upstream_delay_us(traversed, link_latency, len(datagram.payload))
        final = traversed[-1]
        router = self.router

        def on_trunk() -> None:
            if router.any_down(link_pairs):
                self._obs_loss_drop(
                    f"{link_pairs[0][0]}-{link_pairs[0][1]}",
                    final.name,
                    kind="inflight_dropped",
                )
                return
            for pair in link_pairs:
                model = self._link_loss.get(pair)
                if model is not None and model.should_drop():
                    self._obs_loss_drop(f"{pair[0]}-{pair[1]}", final.name)
                    return
            self._deliver_to_sockets(target, datagram, False, final, 0)

        self.scheduler_for(target).schedule(prefix, on_trunk, label="udp-trunk")

    def _deliver_cross(
        self,
        sender: Node,
        datagram: Datagram,
        traversed: tuple[Segment, ...],
        link_latency: int,
        src_pid: int,
        dst_pid: int,
        now: int,
    ) -> None:
        """Unicast across a district boundary — identical in both engines.

        Rules that keep the single-threaded oracle and the partitioned
        backends bit-compatible:

        * the delay is the *deterministic* per-segment cost plus the link
          latency — no jitter draws, so the sender district's RNG stream
          does not depend on cross-district traffic interleaving;
        * one event delivers to every bound socket of the target (instead
          of one event per socket), so ``events_fired`` is backend-free;
        * the frame is rebuilt without the sender's decode seed — the
          multiprocess backend ships wire bytes only, so the in-process
          paths must re-decode on the far side too;
        * the target is resolved by address *at delivery time*: a host
          that churned out while the frame crossed the link drops it.

        Only sender-district segments (and the final, target-district one)
        record traffic: a multiprocess worker never sees transit districts.
        """
        size = len(datagram.payload)
        final = traversed[-1]
        pid_of = self.partition_map.pid_of
        self._book(
            [s for s in traversed if pid_of.get(s.name) == src_pid], datagram, now
        )
        delay = (
            sum(s.det_delay_us(size) for s in traversed[:-1])
            + link_latency
            + final.det_delay_us(size)
        )
        engine = self.engine
        send_time = self.scheduler_for(sender).now_us
        destination = datagram.destination
        if engine is not None:
            engine.enqueue_cross(
                CrossFrame(
                    due_us=send_time + delay,
                    src_pid=src_pid,
                    seq=engine.next_cross_seq(src_pid),
                    dst_pid=dst_pid,
                    payload=datagram.payload,
                    source_host=datagram.source.host,
                    source_port=datagram.source.port,
                    dest_host=destination.host,
                    dest_port=destination.port,
                    final_segment=final.name,
                    send_time_us=send_time,
                )
            )
            return
        # Single-threaded oracle: same delay, same single event, but the
        # frame never leaves the process.  Loss (forbidden under the
        # engine) draws once per frame here.
        if self.loss is not None and self.loss.should_drop():
            return
        self._book((final,), datagram, now)
        # A fresh frame: parse-once restarts among the target's sockets.
        fresh = self._frame(datagram.payload, datagram.source, destination)
        self.scheduler.schedule(
            delay,
            partial(self._deliver_cross_frame, destination.host, destination.port, fresh),
            label=CROSS_LABEL,
        )

    def _frame(
        self, payload: bytes, source: Endpoint, destination: Endpoint, decode_hint=None
    ) -> Datagram:
        """A new frame, its memo seeded with ``decode_hint`` if given.  With
        ``parse_once`` off (A/B mode) every frame carries the shared null
        memo, so each receiver pays its own decode."""
        if not self.parse_once:
            return Datagram(payload, source, destination, NULL_MEMO)
        if decode_hint is None:
            return Datagram(payload, source, destination)
        memo = FrameMemo()
        memo.store(decode_hint[0], payload, decode_hint[1])
        return Datagram(payload, source, destination, memo)

    def _deliver_cross_frame(
        self, dest_host: str, dest_port: int, datagram: Datagram
    ) -> None:
        target = self._nodes.get(dest_host)
        if target is None:
            # Churned out while the frame crossed the link.
            self.unrouted += 1
            return
        stack = target.udp_stack
        if stack is None:
            return
        for sock in stack.sockets_for(dest_port):
            sock.deliver(datagram)

    def inject_cross(self, frame: CrossFrame) -> None:
        """Schedule one barrier-exchanged frame on its target shard."""
        source = Endpoint(frame.source_host, frame.source_port)
        destination = Endpoint(frame.dest_host, frame.dest_port)
        datagram = self._frame(frame.payload, source, destination)
        final = self.segments.get(frame.final_segment)
        if final is not None:
            # Booked at its (earlier) send time, like the single-threaded
            # oracle books it inline.
            self._book((final,), datagram, frame.send_time_us)
        shard = self.engine.shards[frame.dst_pid]
        shard.schedule(
            frame.due_us - shard._now_us,
            partial(self._deliver_cross_frame, frame.dest_host, frame.dest_port, datagram),
            label=CROSS_LABEL,
        )

    def _deliver_multicast(self, sender: Node, datagram: Datagram, now: int) -> None:
        """Fan a datagram out to the group on each of the sender's segments.

        Group membership resolves at *delivery* time (a socket that joins
        while the frame is in flight still receives it), matching a shared
        segment where every NIC sees the frame simultaneously.  The sender
        host's own members receive a loopback copy sooner.  The frame never
        crosses a link: multicast is segment-scoped.

        Delivery walks the segment's (group, port) membership index rather
        than every attached node, so a frame costs O(group members) — idle
        background hosts on a large LAN are never touched.
        """
        size = len(datagram.payload)
        segments = sender.segments
        # Multicast is segment-scoped, so every receiver shares the
        # sender's district: its shard carries the whole fan-out (and this
        # also keeps workload-time sends off the engine façade).
        schedule = self.scheduler_for(sender).schedule
        self._book(segments, datagram, now)
        loss = self.loss
        for segment in segments:
            lan_delay = segment.latency.delay_us(size, False)
            fan_out = partial(self._fan_out, datagram, sender, segment)
            if loss is not None and loss.should_drop():
                fan_out = _dropped
            schedule(lan_delay, fan_out, "udp-mcast")
        loop_delay = segments[0].latency.delay_us(size, True)
        schedule(loop_delay, partial(self._fan_out, datagram, sender), "udp-mcast-loop")

    def _fan_out(
        self, datagram: Datagram, sender: Node, segment: Optional[Segment] = None
    ) -> None:
        """Hand one multicast frame to the group's members on ``segment``,
        or (no segment) to the sender host's own members, resolved now.

        On a LAN the sender's own sockets are skipped and each receiver
        draws the segment's per-edge loss.  The draws happen here, at
        delivery-event time on the owning shard — never at send time,
        where the workload replay in forked workers would diverge RNGs —
        and *before* the receive filter, so filters never change the draw
        order.  Each frame is classified at most once per distinct
        classifier among the receivers' filters.
        """
        group = datagram.destination.host
        port = datagram.destination.port
        if segment is None:
            sockets = sender.udp.sockets_for_group(group, port)
            loss = skip = None
        else:
            sockets = segment.group_members(group, port)
            loss = segment.loss
            skip = sender
        payload = datagram.payload
        kinds: dict = {}
        last = kind = None
        for sock in sockets:
            if sock._node is skip:
                continue
            if loss is not None and loss.should_drop():
                self._obs_loss_drop(segment.name, segment.name)
                continue
            rx = sock.receive_filter
            if rx is not None:
                classify, admitted = rx
                if classify is not last:
                    if classify not in kinds:
                        kinds[classify] = classify(payload)
                    last = classify
                    kind = kinds[classify]
                if kind not in admitted:
                    continue
            sock._accept(datagram)

    def _deliver_broadcast(self, sender: Node, datagram: Datagram, now: int) -> None:
        delivered: set[str] = set()
        for segment in sender.segments:
            self._book((segment,), datagram, now)
            for node in segment.nodes:
                if node.address in delivered:
                    continue
                delivered.add(node.address)
                self._deliver_to_sockets(node, datagram, node is sender, segment, 0)

    # -- run helpers ------------------------------------------------------------

    def run(self, duration_us: int | None = None) -> None:
        """Run the simulation until idle (or for a bounded window)."""
        if self.obs.on and self.engine is None:
            self._obs_sample_wheel()
        if duration_us is None:
            self.scheduler.run_until_idle()
        else:
            self.scheduler.run_until(self.scheduler.now_us + duration_us)
        if self.obs.on and self.engine is None:
            self._obs_sample_wheel()

    def _obs_sample_wheel(self) -> None:
        """Queue-depth gauge for the classic single scheduler.

        Sampled at run boundaries only; the partitioned engine samples its
        shards at every window barrier instead.
        """
        self.obs.metrics.gauge("net.wheel.pending").set(self.scheduler.pending)


def _dropped() -> None:
    """The event of a multicast copy the global loss model dropped."""


__all__ = ["Network", "TraceRecord", "LOOPBACK"]
