"""Acceptance criteria for the federation scenario family, at test scale."""

from repro.world import run_world
from repro.world.scenarios import federated_campus_spec, sharded_backbone_spec


def test_federated_campus_collapses_duplicate_translations():
    """Per-request duplicate translations across the fleet fall to <= 1
    owner + the elected responder — versus one per leaf gateway before."""
    outcome = run_world(federated_campus_spec(segments=5, nodes=60), seed=0)
    extras = outcome.extras
    assert outcome.results >= 1 and outcome.latency_us is not None
    # Gossip warmed every member before the query.
    assert extras["warm_members_after_gossip"] == extras["fleet_size"]
    # One edge translation plus at most one ring-owner translation.
    assert 1 <= extras["query_translations"] <= 2
    # The elected responder (or the edge cache) answered; nobody fanned out.
    federation = extras["federation"]
    assert federation["shard_suppressed"] >= 1
    assert federation["elected_cache_answers"] >= 1


def test_federated_campus_beats_the_unfederated_baseline():
    federated = run_world(federated_campus_spec(segments=5, nodes=60), seed=0)
    baseline = run_world(
        federated_campus_spec(segments=5, nodes=60, federated=False), seed=0
    )
    assert baseline.results >= 1
    assert (
        federated.extras["query_translations"]
        < baseline.extras["query_translations"]
    )


def test_gossip_warmed_gateway_answers_repeat_query_from_cache():
    outcome = run_world(federated_campus_spec(segments=5, nodes=60), seed=1)
    extras = outcome.extras
    assert extras["repeat_results"] >= 1
    assert extras["repeat_cache_answers"] >= 1
    assert extras["repeat_translations"] == 0
    # Warm-edge phase: the gossip-replicated record alone serves the query
    # in cache-lookup time, no fleet traffic at all.
    assert extras["warm_edge_results"] >= 1
    assert extras["warm_edge_translations"] == 0
    assert extras["warm_edge_latency_us"] < 5_000
    assert outcome.latency_us > extras["warm_edge_latency_us"]


def test_sharded_backbone_partitions_types_across_owners():
    outcome = run_world(
        sharded_backbone_spec(members=4, nodes=80, service_types=4), seed=0
    )
    extras = outcome.extras
    per_type = extras["per_type"]
    assert all(entry["results"] >= 1 for entry in per_type.values())
    # Warm types are answered from the gossiped cache by the elected
    # responder; cold types cost exactly one owner translation each.
    cold = [entry for entry in per_type.values() if not entry["warm"]]
    assert extras["query_translations"] <= len(cold)
    assert extras["federation"]["elected_cache_answers"] >= 1
    # Cold services were reachable because they live in their owner's leaf.
    for entry in cold:
        assert entry["placed_on"] is not None
    # Warm answers are two orders of magnitude faster than cold discovery.
    warm_lat = [e["latency_us"] for e in per_type.values() if e["warm"]]
    cold_lat = [e["latency_us"] for e in per_type.values() if not e["warm"]]
    assert max(warm_lat) < min(cold_lat)


def test_fleet_member_departure_rebalances_ownership():
    """A leaver's types fall to ring successors and stay answerable."""
    from repro.federation import ShardRing

    outcome = run_world(
        sharded_backbone_spec(members=4, nodes=40, service_types=2), seed=0
    )
    # Reconstruct the fleet's ring from the measured owners and remove one.
    owners = {
        name: entry["owner"] for name, entry in outcome.extras["per_type"].items()
    }
    members = sorted(outcome.extras["cache_sizes"])
    ring = ShardRing(members)
    assert {name: ring.owner(name) for name in owners} == owners
    departed = owners[next(iter(owners))]
    ring.remove(departed)
    for name in owners:
        new_owner = ring.owner(name)
        assert new_owner != departed and new_owner in members
