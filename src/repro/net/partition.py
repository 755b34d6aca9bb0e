"""District partitioning: the parallel engine's partition key.

A **district** is a maximal group of segments connected only through
:class:`~repro.net.segment.Bridge`-style multi-homing: two segments merge
into one district whenever some node is attached to both.  Router
:class:`~repro.net.segment.Link`s do *not* merge districts — a link is a
latency-bearing point-to-point edge, and that latency is exactly what
makes conservative parallel simulation possible: a frame sent across a
link at time *t* cannot be delivered before ``t + link_latency``, so a
partition may safely run ahead of its neighbours by the minimum inbound
link latency (the **lookahead horizon**).

Every existing bridge-coupled scenario (the metro/media/campus families)
collapses to a single district — their inter-segment gateways are bridged
hosts, so events on any segment can affect any other within one LAN
delay.  Worlds built for the partitioned engine connect districts with
links only (see ``district_grid``), which is what yields real parallelism.

This module is pure topology math over names and tuples, shared by three
consumers: the live :class:`~repro.net.Network` (delivery-time partition
checks), the parallel engine (shard construction), and the spec-level
analysis behind ``python -m repro.world describe`` (no network is built).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class PartitionMap:
    """Immutable segment -> partition assignment plus the cross links.

    ``segments`` lists each partition's segment names; partitions are
    numbered by the declaration order of their earliest segment, and the
    member lists preserve declaration order too, so the numbering is
    deterministic for a given topology-construction order.
    """

    __slots__ = ("segments", "pid_of", "cross_links", "lookahead_us")

    def __init__(
        self,
        groups: Sequence[Sequence[str]],
        cross_links: Sequence[tuple[str, str, int]] = (),
    ):
        self.segments: tuple[tuple[str, ...], ...] = tuple(
            tuple(group) for group in groups
        )
        self.pid_of: dict[str, int] = {
            name: pid for pid, group in enumerate(self.segments) for name in group
        }
        self.cross_links: tuple[tuple[str, str, int], ...] = tuple(cross_links)
        #: Conservative lookahead: the minimum latency of any cross-partition
        #: link.  ``None`` when partitions are mutually unreachable (they may
        #: run fully independently).
        self.lookahead_us: Optional[int] = min(
            (latency for _, _, latency in self.cross_links), default=None
        )

    @property
    def count(self) -> int:
        return len(self.segments)

    def describe(self, hosts_of: Optional[dict[int, list[str]]] = None) -> str:
        """Human-readable rendering (the CLI's ``describe`` block)."""
        lines = [f"partitions: {self.count}"]
        if self.lookahead_us is not None:
            lines[0] += f" (lookahead {self.lookahead_us} us)"
        elif self.count > 1:
            lines[0] += " (no cross links: partitions are independent)"
        for pid, group in enumerate(self.segments):
            line = f"  district {pid}: segments {', '.join(group)}"
            if hosts_of:
                hosts = hosts_of.get(pid, [])
                shown = ", ".join(hosts[:6])
                if len(hosts) > 6:
                    shown += f", ... ({len(hosts)} hosts)"
                line += f" | hosts {shown}" if hosts else " | no spec hosts"
            lines.append(line)
        for a, b, latency in self.cross_links:
            lines.append(f"  cross link: {a} <-> {b} ({latency} us)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PartitionMap(count={self.count}, lookahead_us={self.lookahead_us})"


def compute_partition_map(
    segment_names: Sequence[str],
    bridge_groups: Iterable[Sequence[str]],
    links: Iterable[tuple[str, str, int]],
) -> PartitionMap:
    """Union-find over segments: merge every bridge group, then split the
    link set into intra-partition (ignored) and cross-partition edges.

    ``segment_names`` must be in declaration order — it fixes the
    deterministic partition numbering.
    """
    order = {name: i for i, name in enumerate(segment_names)}
    parent = {name: name for name in segment_names}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        # Keep the earliest-declared segment as the root for determinism.
        if order[ra] > order[rb]:
            ra, rb = rb, ra
        parent[rb] = ra

    for group in bridge_groups:
        group = [name for name in group if name in parent]
        for name in group[1:]:
            union(group[0], name)

    members: dict[str, list[str]] = {}
    for name in segment_names:
        members.setdefault(find(name), []).append(name)
    roots = sorted(members, key=lambda root: order[root])
    groups = [members[root] for root in roots]
    pid_of = {name: pid for pid, group in enumerate(groups) for name in group}

    cross = []
    for a, b, latency in links:
        if a in pid_of and b in pid_of and pid_of[a] != pid_of[b]:
            cross.append((a, b, latency))
    return PartitionMap(groups, cross)


def network_partition_map(network) -> PartitionMap:
    """The live network's partition map (bridged nodes merge segments)."""
    bridge_groups = [
        [segment.name for segment in node.segments]
        for node in network.nodes
        if len(node.segments) > 1
    ]
    return compute_partition_map(
        list(network.segments), bridge_groups, network.router.links()
    )


__all__ = ["PartitionMap", "compute_partition_map", "network_partition_map"]
