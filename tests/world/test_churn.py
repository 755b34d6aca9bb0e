"""Sustained membership churn: detach/rejoin must leave no stale state.

The ``Churn`` workload step repeatedly removes a fleet member's host from
the internetwork (``Network.detach_node``) and brings it back
(``Network.reattach_node`` + ``GatewayFleet.join``).  These tests pin the
invariants that make that safe:

* no stale route plans — the delivery-plan memo flushes on detach and on
  re-attach, and unicasts to a detached address drop as unrouted;
* no stale multicast index entries — a detached gateway's sockets leave
  every segment's (group, port) index, and return on re-attach;
* no stale shard-ring keys — a leaver's ring points are released while it
  is down and restored on rejoin, so ownership stays consistent.
"""

import pytest

from repro.net import Network
from repro.world import Churn, World, run_world
from repro.world.scenarios import churn_backbone_spec

SMALL = dict(members=3, nodes=60, service_types=2, churn_cycles=2,
             warmup_us=800_000, down_us=300_000, recover_us=400_000)


def _group_index_sockets(segment):
    """Every socket currently present in the segment's multicast index."""
    return {
        sock
        for members in segment._group_members.values()
        for sock in members
    }


def _node_sockets(node):
    stack = node.udp_stack
    if stack is None:
        return set()
    return {sock for _, _, sock in stack.multicast_members()}


class TestDetachReattachPrimitives:
    def test_detached_node_sends_drop_instead_of_crashing(self):
        net = Network()
        a = net.add_node("a")
        b = net.add_node("b")
        inbox = []
        b_sock = b.udp.socket().bind(5000)
        b_sock.on_datagram(inbox.append)
        a_sock = a.udp.socket().bind(5000, reuse=True)
        net.detach_node(a)
        before = net.unrouted
        from repro.net import Endpoint

        a_sock.sendto(b"hello", Endpoint(b.address, 5000))
        assert net.unrouted == before + 1
        net.run()
        assert inbox == []

    def test_reattach_restores_address_and_multicast_index(self):
        net = Network()
        a = net.add_node("a")
        b = net.add_node("b")
        group, port = "239.255.255.250", 1900
        received = []
        a_sock = a.udp.socket().bind(port, reuse=True)
        a_sock.join_group(group)
        a_sock.on_datagram(received.append)
        segment = net.default_segment
        assert a_sock in _group_index_sockets(segment)

        net.detach_node(a)
        assert a_sock not in _group_index_sockets(segment)
        assert net.node_at(a.address) is None

        net.reattach_node(a, [segment])
        assert net.node_at(a.address) is a
        assert a_sock in _group_index_sockets(segment)

        from repro.net import Endpoint

        sender = b.udp.socket().bind(port, reuse=True)
        sender.sendto(b"NOTIFY", Endpoint(group, port))
        net.run()
        assert received, "re-attached socket missed multicast delivery"

    def test_reattach_rejects_double_attach(self):
        net = Network()
        a = net.add_node("a")
        with pytest.raises(Exception):
            net.reattach_node(a)

    def test_route_plans_flush_on_detach_and_reattach(self):
        net = Network()
        seg_b = net.add_segment("segB")
        net.link(net.default_segment, seg_b)
        a = net.add_node("a")
        b = net.add_node("b", segment=seg_b)
        # Prime the plan cache.
        assert net.unicast_delay_us(a, b.address, 100) is not None
        assert net._route_plans
        net.detach_node(b)
        assert not net._route_plans
        assert net.unicast_delay_us(a, b.address, 100) is None
        net.reattach_node(b, [seg_b])
        assert net.unicast_delay_us(a, b.address, 100) is not None


class TestChurnWorkload:
    def test_churn_leaves_no_stale_state(self):
        spec = churn_backbone_spec(**SMALL)
        world = World.build(spec, seed=0)
        world.run_workload()
        net = world.net
        fleet = world.fleets["fleet"]

        # Every member rejoined: the ring holds all of them again, and
        # every registered type resolves to a live member.
        assert len(fleet.ring) == SMALL["members"]
        assert sorted(fleet.members) == fleet.ring.members
        for i in range(SMALL["service_types"]):
            owner = fleet.ring.owner(f"sensor{i}")
            assert owner in fleet.members

        # No multicast index entry points at a socket whose node is
        # detached, anywhere in the internetwork.
        for segment in net.segments.values():
            for sock in _group_index_sockets(segment):
                assert sock.node.segments, (
                    f"stale index entry for detached {sock.node.name}"
                )
                assert net.node_at(sock.node.address) is sock.node

        # Every member's sockets are back in their segments' indexes.
        for member in fleet.members.values():
            node = member.indiss.node
            for segment in node.segments:
                indexed = _group_index_sockets(segment)
                own = _node_sockets(node)
                assert own & indexed, f"{node.name} unindexed on {segment.name}"

        # Route plans recompute cleanly for every member address.
        prober = world.hosts["prober"]
        for address in fleet.members:
            assert net.unicast_delay_us(prober, address, 100) is not None

        # The churn log recorded each cycle shrinking and restoring the ring.
        log = world.extras["churn_log"]
        assert len(log) == SMALL["churn_cycles"]
        for record in log:
            assert record["rejoined"]
            assert record["ring_size_down"] == SMALL["members"] - 1
            assert record["ring_size_up"] == SMALL["members"]

    def test_churned_fleet_still_answers(self):
        outcome = run_world(churn_backbone_spec(**SMALL), seed=0)
        assert outcome.latency_us is not None
        assert outcome.results >= 1
        assert outcome.extras["churn_cycles"] == SMALL["churn_cycles"]
        assert outcome.extras["churn_rejoins"] == SMALL["churn_cycles"]
        # Chatter kept completing through the churn (clients on surviving
        # leaves; a few searches may land in a down window and miss).
        assert outcome.extras["chatter_searches_completed"] > 0
        assert outcome.extras["chatter_found_rate"] > 0.5

    def test_churn_is_deterministic(self):
        spec = churn_backbone_spec(**SMALL)
        first = run_world(spec, seed=5)
        second = run_world(spec, seed=5)
        assert first.latency_us == second.latency_us
        assert (
            first.world.scheduler.events_fired == second.world.scheduler.events_fired
        )

    def test_mid_churn_state_has_no_stale_entries(self):
        """Drive one cycle by hand and inspect the down window."""
        spec = churn_backbone_spec(**SMALL)
        world = World.build(spec, seed=0)
        world.run(800_000)
        net = world.net
        fleet = world.fleets["fleet"]
        victim_id = sorted(fleet.members)[0]
        victim = fleet.members[victim_id].indiss
        node = victim.node
        home = list(node.segments)
        victim_sockets = _node_sockets(node)

        fleet.leave(victim_id)
        net.detach_node(node)

        assert victim_id not in fleet.ring.members
        assert len(fleet.ring) == SMALL["members"] - 1
        for segment in net.segments.values():
            assert not (victim_sockets & _group_index_sockets(segment))
        assert net.node_at(node.address) is None
        # Ownership of every type fell to a surviving member.
        for i in range(SMALL["service_types"]):
            assert fleet.ring.owner(f"sensor{i}") != victim_id

        net.run(300_000)  # degraded window: detached sends must not crash

        net.reattach_node(node, home)
        fleet.join(victim, gossip_period_us=150_000)
        assert len(fleet.ring) == SMALL["members"]
        net.run(400_000)
        for segment in node.segments:
            assert _node_sockets(node) & _group_index_sockets(segment)
