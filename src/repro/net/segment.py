"""LAN segments, inter-segment links, and the unicast router.

The paper's testbed is one shared 10 Mb/s segment; its §4.2 placement
analysis, however, puts INDISS instances on *boundaries* — client hosts,
service hosts, and dedicated gateways.  This module generalizes the network
layer so a :class:`~repro.net.network.Network` is an internetwork of
:class:`Segment` objects:

* **multicast and broadcast are scoped to a segment** — a frame fans out
  only to the LANs the sending host is attached to, never across a link;
* **unicast is routed** — the :class:`Router` finds the shortest link path
  between segments and charges per-segment latency plus per-link latency,
  like store-and-forward IP forwarding;
* a :class:`Bridge` multi-homes a host onto additional segments, which is
  how an INDISS gateway hears two LANs at once and chains discovery across
  them.

A ``Network`` built with no explicit segments still behaves exactly like
the original single-LAN model: every node lands on the default segment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from .addressing import AddressAllocator
from .errors import AddressError, NetworkError
from .latency import LatencyModel
from .node import Node
from .traffic import UTILIZATION_WINDOW_US, TrafficMonitor

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

#: Default one-way latency charged for crossing one inter-segment link.
DEFAULT_LINK_LATENCY_US = 500


class Segment:
    """One shared LAN segment: a subnet, its attached hosts, a latency model."""

    def __init__(
        self,
        network: "Network",
        name: str,
        subnet: str,
        latency: LatencyModel | None = None,
    ):
        self.network = network
        self.name = name
        self.subnet = subnet
        self.latency = latency if latency is not None else network.latency
        self._allocator = AddressAllocator(subnet)
        self._nodes: dict[str, "Node"] = {}
        #: (group, port) -> joined sockets, kept current by the UDP layer.
        #: Multicast delivery walks this index instead of scanning every
        #: attached node's port table — the difference between O(members)
        #: and O(nodes) per frame, which is what lets the 1000+-node
        #: federation scenarios spend their time discovering instead of
        #: iterating idle background hosts.
        self._group_members: dict[tuple[str, int], list] = {}
        #: Per-segment accounting; the acceptance tests for multicast
        #: confinement read these counters.  The window is retained from
        #: birth: the gateway elector reads whichever segments a member
        #: sits on when it elects, including members that join late.
        self.traffic = TrafficMonitor(
            self.latency.bandwidth_bps, window_us=UTILIZATION_WINDOW_US
        )
        #: Optional per-edge loss model (adversity layer).  ``None`` — the
        #: default — keeps delivery draw-free and bit-identical to the
        #: lossless golden traces.  Set via ``Network.set_segment_loss``;
        #: drops are drawn at delivery-event time on the owning shard.
        self.loss = None

    # -- membership ---------------------------------------------------------

    def allocate_address(self) -> str:
        return self._allocator.allocate()

    @property
    def free_addresses(self) -> int:
        """How many more hosts the segment's subnet can attach."""
        return self._allocator.remaining

    def reserve_idle(self, count: int) -> None:
        """Reserve the next ``count`` addresses for idle hosts (see
        :meth:`Network.reserve_hosts`)."""
        self._allocator.reserve(count)

    def claim_idle(self, address: str) -> Optional[Node]:
        """The idle host reserved at ``address`` as a stackless node
        attached here, or None when no such host is reserved.

        Claiming changes no reachability (the host counted as attached
        all along), so no cached delivery plan is dropped.
        """
        if not self._allocator.claim(address):
            return None
        node = Node(self.network, f"bg-{self.name}-{address}", address)
        self._nodes[address] = node
        node.segments.append(self)
        return node

    def attach(self, node: "Node") -> None:
        """Attach ``node`` to this segment (multi-homing is allowed)."""
        if node.address in self._nodes:
            raise AddressError(f"{node.address} already attached to segment {self.name}")
        self._nodes[node.address] = node
        if self not in node.segments:
            node.segments.append(self)
        # A node bridged onto this segment after its sockets joined their
        # groups (gateway placement) brings its memberships along.
        stack = node.udp_stack
        if stack is not None:
            for group, port, sock in stack.multicast_members():
                self.index_group_member(sock, group, port)
        # Reachability changed (a bridge may have shortened routes).
        self.network._note_topology_change()

    def detach(self, node: "Node") -> None:
        """Remove ``node`` from this segment, dropping its group indexes."""
        if self._nodes.get(node.address) is not node:
            raise NetworkError(
                f"{node.address} is not attached to segment {self.name}"
            )
        stack = node.udp_stack
        if stack is not None:
            for group, port, sock in stack.multicast_members():
                self.unindex_group_member(sock, group, port)
        del self._nodes[node.address]
        if self in node.segments:
            node.segments.remove(self)
        self.network._note_topology_change()

    # -- multicast membership index -----------------------------------------

    def index_group_member(self, sock, group: str, port: int) -> None:
        members = self._group_members.setdefault((group, port), [])
        if sock not in members:
            members.append(sock)

    def unindex_group_member(self, sock, group: str, port: int) -> None:
        members = self._group_members.get((group, port))
        if members is None:
            return
        if sock in members:
            members.remove(sock)
        if not members:
            del self._group_members[(group, port)]

    def group_members(self, group: str, port: int) -> list:
        """Sockets on this segment that joined ``group`` on ``port``."""
        return list(self._group_members.get((group, port), ()))

    @property
    def nodes(self) -> list["Node"]:
        """Hosts attached here that exist as objects (unclaimed idle
        reservations are not listed)."""
        return list(self._nodes.values())

    def __contains__(self, node: "Node") -> bool:
        return self._nodes.get(node.address) is node

    def delay_us(self, size_bytes: int, loopback: bool = False) -> int:
        return self.latency.delay_us(size_bytes, loopback=loopback)

    def det_delay_us(self, size_bytes: int) -> int:
        """Jitter-free delivery delay, for cross-partition unicast.

        Frames crossing a partition boundary must not consume the segment's
        jitter RNG: the draw order would depend on which partition ran
        first, breaking the partitioned engine's determinism.  The parallel
        and single-threaded engines both use this deterministic rule for
        boundary-crossing frames, so their schedules agree exactly.
        """
        return self.latency.det_delay_us(size_bytes)

    def __repr__(self) -> str:
        hosts = len(self._nodes) + self._allocator.idle
        return f"Segment({self.name!r}, {self._allocator.cidr}, nodes={hosts})"


@dataclass(frozen=True)
class Link:
    """A point-to-point link between two segments with one-way latency."""

    a: str
    b: str
    latency_us: int = DEFAULT_LINK_LATENCY_US

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise NetworkError(f"segment {name!r} is not an endpoint of link {self.a}-{self.b}")


class Router:
    """Shortest-path (min-hop) unicast routing over the segment graph.

    Paths are cached per (source, destination) pair; the cache is dropped
    whenever topology changes so routes always reflect the current graph.
    ``topology_version`` counts those changes — the network layer keys its
    precomputed delivery plans on it, so plan memos expire the moment a
    link is added.
    """

    def __init__(self) -> None:
        self._adjacency: dict[str, list[Link]] = {}
        self._paths: dict[tuple[str, str], Optional[tuple[Link, ...]]] = {}
        self.topology_version = 0
        #: Administratively-down segment pairs (fault injection).  A pair
        #: covers every parallel link between its endpoints; empty in any
        #: fault-free run, so the BFS below never pays for the check.
        self._down_pairs: set[tuple[str, str]] = set()

    @staticmethod
    def pair(a: str, b: str) -> tuple[str, str]:
        """Canonical (sorted) key for the segment pair of one link."""
        return (a, b) if a <= b else (b, a)

    def set_link_state(self, a: str, b: str, up: bool) -> bool:
        """Mark the ``a``-``b`` link up or down; True when state changed.

        Routing treats a down link as absent: cached paths are dropped and
        ``topology_version`` bumps so memoized delivery plans rebuilt from
        the surviving graph.  Raises when no such link exists.
        """
        key = self.pair(a, b)
        if not any(link.other(a) == b for link in self._adjacency.get(a, ())):
            raise NetworkError(f"no link between segments {a!r} and {b!r}")
        if up:
            changed = key in self._down_pairs
            self._down_pairs.discard(key)
        else:
            changed = key not in self._down_pairs
            self._down_pairs.add(key)
        if changed:
            self._paths.clear()
            self.topology_version += 1
        return changed

    def link_is_up(self, a: str, b: str) -> bool:
        return self.pair(a, b) not in self._down_pairs

    def any_down(self, pairs) -> bool:
        """True when any of the given canonical pairs is currently down."""
        if not self._down_pairs:
            return False
        return any(p in self._down_pairs for p in pairs)

    def down_pairs(self) -> set[tuple[str, str]]:
        return set(self._down_pairs)

    def connect(self, a: str, b: str, latency_us: int = DEFAULT_LINK_LATENCY_US) -> Link:
        if a == b:
            raise NetworkError(f"cannot link segment {a!r} to itself")
        link = Link(a, b, latency_us)
        self._adjacency.setdefault(a, []).append(link)
        self._adjacency.setdefault(b, []).append(link)
        self._paths.clear()
        self.topology_version += 1
        return link

    def links(self) -> list[tuple[str, str, int]]:
        """Every link once, as ``(a, b, latency_us)``, in creation order.

        Each :class:`Link` is registered under both endpoints, so the
        adjacency lists are deduplicated by object identity.
        """
        seen: set[int] = set()
        result: list[tuple[str, str, int]] = []
        for links in self._adjacency.values():
            for link in links:
                if id(link) not in seen:
                    seen.add(id(link))
                    result.append((link.a, link.b, link.latency_us))
        return result

    def path(self, source: str, destination: str) -> Optional[list[Link]]:
        """Min-hop link sequence from ``source`` to ``destination``.

        Returns an empty list when they are the same segment, None when
        disconnected.
        """
        if source == destination:
            return []
        cached = self._paths.get((source, destination))
        if (source, destination) in self._paths:
            return list(cached) if cached is not None else None
        parents: dict[str, tuple[str, Link]] = {}
        frontier: deque[str] = deque([source])
        seen = {source}
        found = False
        down = self._down_pairs
        while frontier and not found:
            current = frontier.popleft()
            for link in self._adjacency.get(current, ()):
                nxt = link.other(current)
                if nxt in seen:
                    continue
                if down and self.pair(link.a, link.b) in down:
                    continue
                seen.add(nxt)
                parents[nxt] = (current, link)
                if nxt == destination:
                    found = True
                    break
                frontier.append(nxt)
        if not found:
            self._paths[(source, destination)] = None
            return None
        hops: list[Link] = []
        cursor = destination
        while cursor != source:
            prev, link = parents[cursor]
            hops.append(link)
            cursor = prev
        hops.reverse()
        self._paths[(source, destination)] = tuple(hops)
        return hops

    def route(
        self, sources: Iterable[str], destinations: Iterable[str]
    ) -> Optional[tuple[str, list[Link]]]:
        """Best (source-segment, link path) over all source/destination pairs.

        Equal-hop-count candidates tie-break lexicographically on the
        source segment name, so the chosen route never depends on segment
        iteration order (multi-homed gateways used to pick whichever
        interface happened to come first).
        """
        best: Optional[tuple[str, list[Link]]] = None
        destination_list = list(destinations)
        for source in sources:
            for destination in destination_list:
                hops = self.path(source, destination)
                if hops is None:
                    continue
                if (
                    best is None
                    or len(hops) < len(best[1])
                    or (len(hops) == len(best[1]) and source < best[0])
                ):
                    best = (source, hops)
        return best


class Bridge:
    """Multi-homes one host node across several segments.

    This is the physical premise of a gateway-placed INDISS instance: the
    host has an interface on each LAN, so its monitor hears both and its
    units' multicasts reach both.
    """

    def __init__(self, node: "Node", *segments: Segment):
        self.node = node
        self.segments: list[Segment] = list(node.segments)
        for segment in segments:
            if node not in segment:
                segment.attach(node)
            if segment not in self.segments:
                self.segments.append(segment)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        names = ", ".join(s.name for s in self.segments)
        return f"Bridge({self.node.name!r} on {names})"


__all__ = ["Segment", "Link", "Router", "Bridge", "DEFAULT_LINK_LATENCY_US"]
