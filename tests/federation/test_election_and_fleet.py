"""Fleet membership and utilization-driven responder election."""

import pytest

from repro import Indiss, IndissConfig, Network
from repro.core import ShardRingPolicy, make_policy
from repro.federation import GatewayElector, GatewayFleet
from repro.net import UTILIZATION_WINDOW_US, Endpoint


def build_world(member_count=3, election_hold_us=1_000_000):
    net = Network()
    backbone = net.default_segment
    instances, leaves = [], []
    for i in range(member_count):
        leaf = net.add_segment(f"leaf{i}")
        net.link(backbone, leaf)
        leaves.append(leaf)
        gateway = net.add_node(f"gateway{i}", segment=leaf)
        net.bridge(gateway, backbone)
        config = IndissConfig(
            units=("slp", "upnp"), deployment="gateway", dispatch="shard-ring"
        )
        instances.append(Indiss(gateway, config))
    fleet = GatewayFleet(net, backbone, election_hold_us=election_hold_us)
    for instance in instances:
        fleet.join(instance, gossip_period_us=None)
    return net, fleet, instances, leaves


# -- membership -----------------------------------------------------------------


def test_join_binds_handle_and_ring():
    net, fleet, instances, _ = build_world()
    for instance in instances:
        handle = instance.federation
        assert handle is not None and handle.fleet is fleet
        assert instance.node.address in fleet.ring
    assert len(fleet) == 3


def test_join_rejects_double_join_and_foreign_segments():
    net, fleet, instances, _ = build_world()
    with pytest.raises(ValueError):
        fleet.join(instances[0])
    lonely_segment = net.add_segment("elsewhere")
    lonely = Indiss(
        net.add_node("lonely", segment=lonely_segment),
        IndissConfig(units=("slp", "upnp"), dispatch="shard-ring"),
    )
    with pytest.raises(ValueError):
        fleet.join(lonely)


def test_leave_releases_ring_points_and_stops_gossip():
    net, fleet, instances, _ = build_world()
    fleet.leave(instances[1].node.address)
    assert instances[1].federation is None
    assert instances[1].node.address not in fleet.ring
    assert len(fleet) == 2
    # Ownership rebalanced onto the survivors.
    owners = {fleet.ring.owner(f"svc{i}") for i in range(50)}
    assert instances[1].node.address not in owners
    with pytest.raises(KeyError):
        fleet.leave(instances[1].node.address)


def test_fleet_requires_known_segment():
    net = Network()
    with pytest.raises(ValueError):
        GatewayFleet(net, "no-such-segment")


# -- election --------------------------------------------------------------------


def _flood_segment(net, segment, bytes_total=40_000):
    """Generate traffic on one leaf so its gateway looks busy."""
    sender = net.add_node("flooder", segment=segment)
    receiver = net.add_node("sink", segment=segment)
    sock = sender.udp.socket()
    for i in range(bytes_total // 1000):
        sock.sendto(b"x" * 1000, Endpoint(receiver.address, 9000))
    net.run(duration_us=200_000)


def test_elector_prefers_the_quietest_edge():
    net, fleet, instances, leaves = build_world(election_hold_us=0)
    # With all segments idle the tie breaks deterministically to the
    # lowest member id.
    idle_choice = fleet.elector.responder("clock")
    assert idle_choice == min(fleet.members)
    # Flood the elected member's leaf: the election must move away.
    busy_leaf = next(
        leaf
        for instance, leaf in zip(instances, leaves)
        if instance.node.address == idle_choice
    )
    _flood_segment(net, busy_leaf)
    assert fleet.elector.member_load(idle_choice) > 0
    assert fleet.elector.responder("clock") != idle_choice


def test_election_hold_gives_hysteresis():
    net, fleet, instances, leaves = build_world(election_hold_us=10_000_000)
    first = fleet.elector.responder("clock")
    busy_leaf = next(
        leaf
        for instance, leaf in zip(instances, leaves)
        if instance.node.address == first
    )
    _flood_segment(net, busy_leaf)
    # Within the hold window the previous responder is kept.
    assert fleet.elector.responder("clock") == first


def test_election_excludes_the_requesting_member():
    net, fleet, instances, _ = build_world()
    everyone = fleet.members
    excluded = min(everyone)
    chosen = fleet.elector.responder("clock", exclude=frozenset((excluded,)))
    assert chosen is not None and chosen != excluded
    assert fleet.elector.responder("clock", exclude=frozenset(everyone)) is None


def test_election_history_records_decisions():
    net, fleet, instances, _ = build_world()
    fleet.elector.responder("clock")
    fleet.elector.responder("printer")
    assert [entry[1] for entry in fleet.elector.history] == ["clock", "printer"]


def test_owner_answers_when_elected_responder_is_cold():
    """A warm owner with a cold elected peer must still serve the request
    (regression: the owner used to stand down on its own warmth and the
    request went silently unanswered)."""
    from repro import ServiceRecord
    from repro.sdp.slp import SLP_PORT, SlpConfig, UserAgent

    net, fleet, instances, _ = build_world(member_count=4)  # no gossip
    # Pick a type whose ring owner is NOT the member the idle election
    # would choose, so the elected responder is genuinely cold.
    elected_when_idle = fleet.elector.responder("probe")
    type_name = next(
        name
        for name in (f"svc{i}" for i in range(100))
        if fleet.ring.owner(name) != elected_when_idle
    )
    owner_address = fleet.ring.owner(type_name)
    owner = next(i for i in instances if i.node.address == owner_address)
    owner.cache.store(
        ServiceRecord(
            service_type=type_name,
            url="http://10.1.1.1:4004/control",
            source_sdp="upnp",
        )
    )
    client = UserAgent(
        net.add_node("client", segment=net.default_segment),
        config=SlpConfig(wait_us=400_000, retries=0),
    )
    done: list = []
    client.find_services(f"service:{type_name}", on_complete=done.append)
    net.run(duration_us=2_000_000)
    assert done and len(done[0].results) == 1
    handle = owner.federation
    # The owner answered from its cache (the fallback role), rather than
    # translating or staying silent.
    assert handle.stats.owner_cache_answers >= 1
    assert sum(i.stats.translated for i in instances) == 0


def test_owner_translates_when_nobody_can_cache_answer():
    """Cold fleet, backbone client: exactly the owner fans out."""
    from repro.sdp.slp import SlpConfig, UserAgent

    net, fleet, instances, _ = build_world(member_count=3)
    client = UserAgent(
        net.add_node("client", segment=net.default_segment),
        config=SlpConfig(wait_us=200_000, retries=0),
    )
    client.find_services("service:ghost", on_complete=lambda *_: None)
    net.run(duration_us=2_000_000)
    owner_address = fleet.ring.owner("ghost")
    for instance in instances:
        expected = 1 if instance.node.address == owner_address else 0
        assert instance.stats.translated == expected, instance.node.address


def test_an_election_window_longer_than_segments_retain_is_rejected():
    net = Network()
    with pytest.raises(ValueError):
        GatewayFleet(net, net.default_segment, election_window_us=UTILIZATION_WINDOW_US + 1)
    fleet = GatewayFleet(net, net.default_segment)
    with pytest.raises(ValueError):
        GatewayElector(fleet, window_us=UTILIZATION_WINDOW_US + 1)
    assert fleet.elector.window_us == UTILIZATION_WINDOW_US


# -- policy wiring ---------------------------------------------------------------


def test_shard_ring_policy_is_registered():
    policy = make_policy("shard-ring")
    assert isinstance(policy, ShardRingPolicy)
    assert policy.dedup_scope == "service-type"


def test_unfederated_shard_ring_degrades_to_gateway_forward():
    net = Network()
    gateway = net.add_node("gateway")
    instance = Indiss(
        gateway, IndissConfig(units=("slp", "upnp"), dispatch="shard-ring")
    )
    assert instance.federation is None
    session = instance.session_manager.open(
        "slp", None, [], on_reply=lambda *_: None
    )
    session.vars["service_type"] = "clock"
    targets = instance.policy.select_targets(instance, session)
    assert {unit.sdp_id for unit in targets} == {"slp", "upnp"}

