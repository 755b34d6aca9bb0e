"""Idle background hosts are an address reservation, not node objects.

``Fill`` reserves one run of addresses per segment; a host there becomes a
:class:`Node` only when its address is first looked up.  Everything a
reservation can be asked must answer as it did when ``Fill`` built every
host: the counts, the taken addresses, the traffic a send to one books,
and where the subnets run out.  The pinned figures were read from the
build that made every background host a node.
"""

import gc

import pytest

from repro.net import AddressError, Endpoint, NetworkError, Node
from repro.world import Fill, HostSpec, SegmentSpec, World, WorldSpec


def idle_world(total: int = 600) -> World:
    """Two linked /16 segments beside the default /24 one, one spec host
    on ``a`` and a fill: lan0 gets 192.168.1.1-200, ``a`` 10.1.0.2-201
    (after the spec host's 10.1.0.1), ``b`` 10.2.0.1-199."""
    return World.build(
        WorldSpec(
            "idle",
            elements=(
                SegmentSpec("a", subnet="10.1"),
                SegmentSpec("b", subnet="10.2", link_to="a"),
                HostSpec("src", segment="a"),
                Fill(total),
            ),
        ),
        seed=3,
    )


def live_nodes(net) -> int:
    return sum(
        1 for obj in gc.get_objects() if isinstance(obj, Node) and obj.network is net
    )


def test_a_bigger_fill_builds_no_more_nodes():
    small, large = idle_world(500), idle_world(2000)
    assert small.net.node_count == 500 and large.net.node_count == 2000
    assert live_nodes(small.net) == live_nodes(large.net) == 1  # the spec host
    assert len(large.net.nodes) == 1


def test_reserved_addresses_stay_taken():
    net = idle_world().net
    with pytest.raises(AddressError, match="10.2.0.199 already attached"):
        net.add_node("dup", address="10.2.0.199")
    # Allocation resumes after each segment's run, as it did.
    assert {name: seg.allocate_address() for name, seg in net.segments.items()} == {
        "lan0": "192.168.1.201",
        "a": "10.1.0.202",
        "b": "10.2.0.200",
    }


def test_unicast_to_idle_hosts_books_as_before():
    net = idle_world().net
    src = net.node_at("10.1.0.1")
    assert net.unicast_delay_us(src, "10.2.0.50", 100) == 1012
    sock = src.udp.socket()
    for host in (
        "10.2.0.50",  # idle on b: routed over the link
        "10.1.0.100",  # idle on a
        "192.168.1.7",  # idle on lan0, which has no link to a: unrouted
        "10.2.0.250",  # never reserved: unrouted
        "10.1.0.201",  # the last host of a's run
        "10.1.0.202",  # one past it: unrouted
    ):
        sock.sendto(b"x" * 100, Endpoint(host, 9))
    net.run()
    assert (net.traffic.total_messages, net.traffic.total_bytes) == (6, 600)
    assert {
        name: (seg.traffic.total_messages, seg.traffic.total_bytes)
        for name, seg in net.segments.items()
    } == {"lan0": (0, 0), "a": (6, 600), "b": (1, 100)}
    assert net.unrouted == 3
    assert net.node_count == 600


def test_an_idle_host_is_built_once_and_can_crash():
    net = idle_world().net
    node = net.node_at("10.2.0.7")
    assert node is not None and node.udp_stack is None
    assert node.segments == [net.segment("b")] and node in net.segment("b")
    assert net.node_at("10.2.0.7") is node
    assert net.node_count == 600
    net.crash_node(node)
    assert net.node_at("10.2.0.7") is None  # not rebuilt from the run
    assert net.crashed_node("10.2.0.7") is node
    assert net.node_count == 599
    net.restart_node(node)
    assert net.node_at("10.2.0.7") is node and net.node_count == 600
    net.detach_node(node)
    assert net.node_at("10.2.0.7") is None and net.node_count == 599


def test_segment_repr_counts_idle_hosts():
    net = idle_world().net
    assert repr(net.segment("a")) == "Segment('a', 10.1.0.0/16, nodes=201)"
    assert repr(net.segment("lan0")) == "Segment('lan0', 192.168.1.0/24, nodes=200)"


def exhaustible_world() -> World:
    """Two /24 segments, 200 hosts already on the first."""
    world = World.build(
        WorldSpec("ex", subnet="10.9.0", elements=(SegmentSpec("b", subnet="10.9.1"),))
    )
    for i in range(200):
        world.net.add_node(f"h{i}")
    return world


def test_subnets_run_out_at_the_same_count():
    with pytest.raises(NetworkError, match="all subnets exhausted after 508 nodes"):
        exhaustible_world().apply(Fill(600))
    world = exhaustible_world()
    world.apply(Fill(400))  # lan0's 54 free addresses go first, then b's
    assert world.net.node_count == 400
    assert world.net.segment("b").allocate_address() == "10.9.1.147"
    assert world.net.segment("lan0").free_addresses == 0
