"""Gossip convergence: identical caches, delta-only steady state, no
resurrection of expired records."""

import pytest

from repro import Indiss, IndissConfig, Network, ServiceRecord
from repro.core.cache import ServiceCache
from repro.federation import GatewayFleet

GOSSIP_PERIOD_US = 200_000


def build_fleet(member_count=2, gossip_period_us=GOSSIP_PERIOD_US, parse_once=True):
    """A backbone with ``member_count`` bridged, federated gateways."""
    net = Network(parse_once=parse_once)
    backbone = net.default_segment
    instances = []
    for i in range(member_count):
        leaf = net.add_segment(f"leaf{i}")
        net.link(backbone, leaf)
        gateway = net.add_node(f"gateway{i}", segment=leaf)
        net.bridge(gateway, backbone)
        config = IndissConfig(
            units=("slp", "upnp"), deployment="gateway", dispatch="shard-ring"
        )
        instances.append(Indiss(gateway, config))
    fleet = GatewayFleet(net, backbone)
    for instance in instances:
        fleet.join(instance, gossip_period_us=gossip_period_us)
    return net, fleet, instances


def record(name="clock", url="http://10.9.9.9:4004/control", lifetime_s=3600,
           source_sdp="upnp"):
    return ServiceRecord(
        service_type=name, url=url, lifetime_s=lifetime_s, source_sdp=source_sdp
    )


# -- ServiceCache primitives the protocol builds on -----------------------------


def test_cache_merge_rejects_expired_and_stale():
    clock = [0]
    cache = ServiceCache(lambda: clock[0])
    assert not cache.merge(record(), expires_at_us=0)  # already expired
    assert cache.merge(record(), expires_at_us=5_000_000)
    assert not cache.merge(record(), expires_at_us=4_000_000)  # staler copy
    assert cache.merge(record(), expires_at_us=6_000_000)  # fresher copy
    clock[0] = 7_000_000
    assert cache.digest() == {}


def test_cache_digest_matches_live_entries():
    clock = [0]
    cache = ServiceCache(lambda: clock[0])
    cache.store(record(lifetime_s=10))
    assert cache.digest() == {("clock", "http://10.9.9.9:4004/control"): 10_000_000}
    clock[0] = 11_000_000
    assert cache.digest() == {}
    assert cache.live_entries() == []


# -- convergence -----------------------------------------------------------------


def test_two_gateways_converge_within_two_round_trips():
    net, fleet, (a, b) = build_fleet()
    a.cache.store(record("clock", "http://10.0.0.1/ctl"))
    b.cache.store(record("printer", "http://10.0.0.2/ctl", source_sdp="slp"))
    # Two full periods: each member digests the other at least once, and
    # each digest pulls back the missing record.
    net.run(duration_us=2 * GOSSIP_PERIOD_US + 50_000)
    assert a.cache.digest() == b.cache.digest()
    assert len(a.cache) == 2 and len(b.cache) == 2


def test_gossiped_records_keep_provenance_and_ttl():
    net, fleet, (a, b) = build_fleet()
    a.cache.store(record("clock", lifetime_s=600, source_sdp="upnp"))
    original_expiry = a.cache.digest()[("clock", "http://10.9.9.9:4004/control")]
    net.run(duration_us=3 * GOSSIP_PERIOD_US)
    copied = b.cache.lookup("clock")
    assert copied and copied[0].source_sdp == "upnp"
    # The replica expires exactly when the original does: gossip never
    # extends a record's advertised lifetime.
    assert (
        b.cache.digest()[("clock", "http://10.9.9.9:4004/control")]
        == original_expiry
    )


def test_steady_state_gossip_is_delta_only():
    net, fleet, (a, b) = build_fleet()
    a.cache.store(record())
    net.run(duration_us=3 * GOSSIP_PERIOD_US)
    stats = fleet.aggregate_gossip_stats()
    assert stats["records_applied"] == 1
    records_sent_converged = stats["records_sent"]
    net.run(duration_us=10 * GOSSIP_PERIOD_US)
    stats = fleet.aggregate_gossip_stats()
    # Many more digest rounds, zero additional record transfers.
    assert stats["records_sent"] == records_sent_converged
    assert stats["rounds"] >= 20


def test_expired_records_are_not_resurrected():
    net, fleet, (a, b) = build_fleet()
    a.cache.store(record(lifetime_s=1))  # expires at 1 s virtual
    net.run(duration_us=600_000)
    assert len(b.cache) == 1, "replica should arrive while the record lives"
    net.run(duration_us=1_000_000)  # past expiry on both members
    assert len(a.cache) == 0 and len(b.cache) == 0
    net.run(duration_us=10 * GOSSIP_PERIOD_US)
    assert len(a.cache) == 0 and len(b.cache) == 0
    assert fleet.aggregate_gossip_stats()["records_ignored"] == 0


def test_large_caches_converge_across_multiple_delta_batches():
    net, fleet, (a, b) = build_fleet()
    for member in fleet.members.values():
        assert member.gossiper is not None
        member.gossiper.max_delta_records = 8
    for i in range(20):
        a.cache.store(record(f"svc{i}", f"http://10.0.0.{i + 1}/ctl"))
    # 20 records at 8 per delta need three digest->delta exchanges from b.
    net.run(duration_us=8 * GOSSIP_PERIOD_US)
    assert a.cache.digest() == b.cache.digest()
    assert len(b.cache) == 20


def test_malformed_gossip_datagrams_are_counted_not_fatal():
    from repro.federation.gossip import GOSSIP_PORT
    from repro.net import Endpoint

    net, fleet, (a, b) = build_fleet()
    prober = net.add_node("prober", segment=net.default_segment)
    sock = prober.udp.socket()
    target = Endpoint(a.node.address, GOSSIP_PORT)
    a.cache.store(record())  # so digest comparison actually reads entries
    sock.sendto(b"not json", target)
    sock.sendto(b'{"kind": "unknown"}', target)
    # Non-numeric expiry in a digest must not escape the datagram handler.
    key = "clock|http://10.9.9.9:4004/control"
    sock.sendto(
        ('{"kind": "digest", "from": "10.0.0.250", "entries": '
         f'{{"{key}": "bogus"}}}}').encode(),
        target,
    )
    # A spoofed non-member "from" must not steer (or crash) the delta reply.
    sock.sendto(
        b'{"kind": "digest", "from": "not-an-address", "entries": {}}', target
    )
    # Malformed record fields in a delta are skipped, not fatal.
    sock.sendto(
        b'{"kind": "delta", "records": [{"t": "clock", "u": "http://x/c", '
        b'"x": "soon", "l": 5}]}',
        target,
    )
    sock.sendto(b'{"kind": "delta", "records": "zap"}', target)
    net.run(duration_us=100_000)
    gossiper = fleet.members[a.node.address].gossiper
    assert gossiper.stats.decode_errors == 5
    # The spoofed-from digest instead produced a delta back to the prober's
    # real source address, which is harmless; nothing was applied locally.
    assert gossiper.stats.records_applied == 0


def test_fleet_member_addresses_are_gossip_peers():
    net, fleet, instances = build_fleet(member_count=3)
    me = instances[0].node.address
    peers = fleet.peer_addresses(me)
    assert me not in peers and len(peers) == 2


def test_gossip_requires_positive_period():
    net, fleet, instances = build_fleet(member_count=2, gossip_period_us=None)
    from repro.federation import CacheGossiper

    with pytest.raises(ValueError):
        CacheGossiper(instances[0], fleet, instances[0].node.address, period_us=0)


# -- encode-once payload reuse ---------------------------------------------------


def test_digest_serialized_once_while_cache_unchanged():
    """Steady state: digests keep flowing every round, but the payload is
    serialized exactly once until the cache's version moves."""
    net, fleet, (a, b, _) = build_fleet(member_count=3)
    a.cache.store(record("clock", "http://10.0.0.1/ctl"))
    net.run(duration_us=6 * GOSSIP_PERIOD_US + 50_000)
    gossiper = fleet.members[a.node.address].gossiper
    assert gossiper.stats.digests_sent >= 5
    # One serialization when the cache was empty at most, one after the
    # store, plus at most one per delta-driven merge — far fewer than the
    # rounds that reused the bytes.
    assert gossiper.stats.digest_encodes < gossiper.stats.digests_sent
    # Every peer converged all the same.
    assert a.cache.digest() == b.cache.digest()


def test_digest_reserialized_when_cache_changes():
    net, fleet, (a, b) = build_fleet(member_count=2)
    a.cache.store(record("clock", "http://10.0.0.1/ctl"))
    net.run(duration_us=2 * GOSSIP_PERIOD_US + 50_000)
    gossiper = fleet.members[a.node.address].gossiper
    encodes_before = gossiper.stats.digest_encodes
    a.cache.store(record("printer", "http://10.0.0.9/ctl"))
    net.run(duration_us=2 * GOSSIP_PERIOD_US + 50_000)
    assert gossiper.stats.digest_encodes > encodes_before
    assert len(b.cache) == 2  # the new record still propagated


def test_delta_record_wire_form_reused_across_peers():
    """A record pushed to several laggard peers is wire-encoded once."""
    net, fleet, instances = build_fleet(member_count=4)
    a = instances[0]
    a.cache.store(record("clock", "http://10.0.0.1/ctl"))
    net.run(duration_us=8 * GOSSIP_PERIOD_US + 50_000)
    gossiper = fleet.members[a.node.address].gossiper
    assert gossiper.stats.records_sent >= 2  # pushed to multiple peers
    assert gossiper.stats.record_encodes <= 1
    for inst in instances[1:]:
        assert len(inst.cache) == 1


def test_cache_version_tracks_mutations_and_evictions():
    clock = [0]
    cache = ServiceCache(lambda: clock[0])
    v0 = cache.version
    cache.store(record(lifetime_s=10))
    assert cache.version > v0
    v1 = cache.version
    cache.evict_expired()
    assert cache.version == v1  # nothing expired: version stands
    clock[0] = 11_000_000
    cache.evict_expired()
    assert cache.version > v1  # TTL eviction is a mutation too


# -- byebye tombstones ------------------------------------------------------------


class TestTombstones:
    def test_remove_url_plants_a_ttl_tombstone(self):
        clock = [0]
        cache = ServiceCache(lambda: clock[0], tombstone_ttl_s=10)
        cache.store(record("clock", "http://10.0.0.1/ctl"))
        assert cache.remove_url("http://10.0.0.1/ctl") == 1
        tombstones = cache.tombstones()
        assert ("clock", "http://10.0.0.1/ctl") in tombstones
        deleted, expires = tombstones[("clock", "http://10.0.0.1/ctl")]
        assert deleted == 0 and expires == 10_000_000
        # Expired tombstones evict (and bump the version for the digest).
        clock[0] = 10_000_001
        assert cache.tombstones() == {}

    def test_merge_refused_while_tombstone_lives(self):
        clock = [0]
        cache = ServiceCache(lambda: clock[0], tombstone_ttl_s=10)
        cache.store(record("clock", "http://10.0.0.1/ctl"))
        cache.remove_url("http://10.0.0.1/ctl")
        # A stale peer offers the record back: refused until TTL expiry.
        assert not cache.merge(
            record("clock", "http://10.0.0.1/ctl"), expires_at_us=3_600_000_000
        )
        assert len(cache) == 0
        clock[0] = 10_000_001
        assert cache.merge(
            record("clock", "http://10.0.0.1/ctl"), expires_at_us=3_600_000_000
        )

    def test_local_store_overrides_tombstone(self):
        """A re-announcing service heard first-hand beats its retraction."""
        clock = [0]
        cache = ServiceCache(lambda: clock[0], tombstone_ttl_s=10)
        cache.store(record("clock", "http://10.0.0.1/ctl"))
        cache.remove_url("http://10.0.0.1/ctl")
        cache.store(record("clock", "http://10.0.0.1/ctl"))
        assert len(cache) == 1
        assert cache.tombstones() == {}

    def test_apply_tombstone_drops_older_entry_keeps_newer(self):
        clock = [100]
        cache = ServiceCache(lambda: clock[0])
        cache.store(record("clock", "http://10.0.0.1/ctl"))
        # A retraction dated after our store drops the entry.
        assert cache.apply_tombstone(
            ("clock", "http://10.0.0.1/ctl"), deleted_at_us=200, expires_at_us=5_000_000
        )
        assert len(cache) == 0
        # A record stored after the deletion survives a replayed tombstone.
        clock[0] = 300
        cache.store(record("printer", "http://10.0.0.2/ctl"))
        assert not cache.apply_tombstone(
            ("printer", "http://10.0.0.2/ctl"), deleted_at_us=200, expires_at_us=5_000_000
        ) or len(cache) == 1
        assert cache.apply_tombstone(
            ("printer", "http://10.0.0.2/ctl"), deleted_at_us=250, expires_at_us=6_000_000
        )
        assert len(cache) == 1  # stored_at 300 > deleted_at 250: kept

    def test_retraction_not_relearnt_from_stale_peer(self):
        """The satellite's acceptance case: A removes a record, B still
        holds it; gossip must not resurrect it at A inside the TTL, and
        must retract it at B instead."""
        net, fleet, (a, b) = build_fleet()
        a.cache.store(record("clock", "http://10.0.0.1/ctl"))
        net.run(duration_us=3 * GOSSIP_PERIOD_US)
        assert len(b.cache) == 1  # replicated
        removed = a.cache.remove_url("http://10.0.0.1/ctl")
        assert removed == 1
        # Many rounds inside the tombstone TTL (15s vs 0.2s periods): the
        # record must not come back to A, and B must drop it.
        net.run(duration_us=6 * GOSSIP_PERIOD_US)
        assert len(a.cache) == 0, "retraction re-learnt from a stale peer"
        assert len(b.cache) == 0, "peer kept serving the retracted record"
        stats = fleet.aggregate_gossip_stats()
        assert stats["tombstones_applied"] >= 1
        assert len(a.cache.tombstones()) == 1

    def test_tombstones_ride_both_digests_and_deltas(self):
        net, fleet, (a, b) = build_fleet()
        a.cache.store(record("clock", "http://10.0.0.1/ctl"))
        net.run(duration_us=3 * GOSSIP_PERIOD_US)
        b.cache.remove_url("http://10.0.0.1/ctl")
        net.run(duration_us=6 * GOSSIP_PERIOD_US)
        assert len(a.cache) == 0 and len(b.cache) == 0
        # Encode-once still holds: planting the tombstone bumped the cache
        # version exactly once, so the digest re-encoded, then froze again.
        stats = fleet.aggregate_gossip_stats()
        assert stats["digest_encodes"] < stats["digests_sent"]

    def test_fresh_readvertisement_beats_the_tombstone_fleetwide(self):
        net, fleet, (a, b) = build_fleet()
        a.cache.store(record("clock", "http://10.0.0.1/ctl"))
        net.run(duration_us=3 * GOSSIP_PERIOD_US)
        a.cache.remove_url("http://10.0.0.1/ctl")
        net.run(duration_us=4 * GOSSIP_PERIOD_US)
        assert len(a.cache) == 0 and len(b.cache) == 0
        # The service re-announces; gateway A hears it first-hand.
        a.cache.store(record("clock", "http://10.0.0.1/ctl"))
        net.run(duration_us=6 * GOSSIP_PERIOD_US)
        assert len(a.cache) == 1
        assert len(b.cache) == 1, "re-announced record failed to re-replicate"

    def test_rejected_merge_does_not_erase_the_tombstone(self):
        """A re-announcement copy *staler than what we hold* must be
        rejected without clearing retraction protection (review fix)."""
        clock = [2_000_000]
        cache = ServiceCache(lambda: clock[0], tombstone_ttl_s=100)
        # Entry stored at t=2s; a replayed tombstone dated t=1s arrives:
        # the entry survives (post-deletion store) and the tombstone is
        # adopted — the coexistence state.
        cache.store(record("clock", "http://10.0.0.1/ctl", lifetime_s=3600))
        assert cache.apply_tombstone(
            ("clock", "http://10.0.0.1/ctl"), deleted_at_us=1_000_000,
            expires_at_us=101_000_000,
        )
        assert len(cache) == 1 and len(cache.tombstones()) == 1
        version = cache.version
        # A post-retraction but *staler-than-ours* copy (implied observed
        # 1.5s > deleted 1s; expiry below our entry's 3602s): rejected by
        # the freshness rule — and must not clear the tombstone or bump
        # the version on the way out.
        assert not cache.merge(
            record("clock", "http://10.0.0.1/ctl", lifetime_s=10),
            expires_at_us=11_500_000,
        )
        assert cache.version == version, "rejected merge mutated the cache"
        assert len(cache.tombstones()) == 1, "rejected merge ate the tombstone"
        # With the entry gone, a stale pre-retraction copy still bounces
        # off the preserved tombstone.
        cache._entries.clear()
        assert not cache.merge(
            record("clock", "http://10.0.0.1/ctl", lifetime_s=3600),
            expires_at_us=900_000_000,  # implied observed < 0 < deleted_at
        )
        assert len(cache) == 0, "stale copy resurrected after rejected merge"


@pytest.mark.parametrize("payload", [b"[1]", b'"x"', b"3", b"null"])
def test_gossip_json_that_is_not_an_object_is_a_decode_error(payload):
    from repro.federation.gossip import GOSSIP_PORT
    from repro.net import Endpoint

    net, fleet, (a, b) = build_fleet()
    prober = net.add_node("prober", segment=net.default_segment)
    prober.udp.socket().sendto(payload, Endpoint(a.node.address, GOSSIP_PORT))
    net.run(duration_us=100_000)
    assert fleet.members[a.node.address].gossiper.stats.decode_errors == 1


# -- parse-once receive path ------------------------------------------------------


def _capture_gossip_frames(monkeypatch):
    """Record (payload, decode hint) of every datagram sent to a gossip port."""
    from repro.federation.gossip import GOSSIP_PORT
    from repro.net.network import Network as NetworkClass

    frames = []
    send = NetworkClass.send_datagram

    def capture(self, sender, source, destination, payload, decode_hint=None, origin=None):
        if destination.port == GOSSIP_PORT:
            frames.append((payload, decode_hint))
        return send(self, sender, source, destination, payload, decode_hint, origin)

    monkeypatch.setattr(NetworkClass, "send_datagram", capture)
    return frames


def test_every_gossip_frame_is_seeded_with_its_message(monkeypatch):
    """Digests, deltas and bootstrap frames each carry the dict they encode,
    so ``json.loads(payload) == hint`` — and the payload is exactly the
    sorted-keys encoding of the hint, fragments and all."""
    import json

    from repro.federation.gossip import GOSSIP_MEMO_KEY
    from repro.world import run_world
    from repro.world.scenarios import SCENARIO_SPECS, SMALL_SCALE_OVERRIDES

    frames = _capture_gossip_frames(monkeypatch)
    name = "federated_campus"
    run_world(SCENARIO_SPECS[name](**SMALL_SCALE_OVERRIDES[name]), seed=0)
    net, fleet, (a, b, c) = build_fleet(member_count=3)
    for i in range(5):
        a.cache.store(record(f"svc{i}", f"http://10.0.0.{i + 1}/ctl"))
    a.cache.remove_url("http://10.0.0.5/ctl")  # a tombstone to carry
    net.run(duration_us=3 * GOSSIP_PERIOD_US)
    fleet.members[c.node.address].gossiper.request_bootstrap()
    net.run(duration_us=GOSSIP_PERIOD_US)
    kinds = set()
    for payload, hint in frames:
        assert hint is not None and hint[0] == GOSSIP_MEMO_KEY
        assert json.loads(payload) == hint[1]
        assert json.dumps(hint[1], sort_keys=True).encode() == payload
        kinds.add(hint[1]["kind"])
    assert kinds == {"digest", "delta", "bootstrap_req", "bootstrap"}
    assert any("tombstones" in hint[1] for _, hint in frames)


@pytest.mark.parametrize("parse_once", [True, False])
def test_receivers_decode_only_without_a_seed(monkeypatch, parse_once):
    import repro.federation.gossip as gossip

    calls = []
    decode = gossip._decode_message
    monkeypatch.setattr(
        gossip, "_decode_message", lambda payload: calls.append(1) or decode(payload)
    )
    net, fleet, (a, b) = build_fleet(parse_once=parse_once)
    a.cache.store(record())
    net.run(duration_us=4 * GOSSIP_PERIOD_US)
    received = sum(
        m.gossiper.stats.digests_received + m.gossiper.stats.deltas_received
        for m in fleet.members.values()
    )
    assert received > 0 and a.cache.digest() == b.cache.digest()
    assert len(calls) == (0 if parse_once else received)
