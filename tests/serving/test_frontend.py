"""`QueryFrontend` endpoint behaviour, in-sim: every wire endpoint, the
staleness honesty contract across a partition, and the miss fallback
through the translation pipeline."""

import pytest

from repro.net.udp import Endpoint
from repro.serving import wire
from repro.world import (
    BridgeSpec,
    Fault,
    FleetSpec,
    Heal,
    HostSpec,
    IndissApp,
    QueryFrontendApp,
    SegmentSpec,
    TypedDevice,
    World,
    WorldSpec,
)

GOSSIP_US = 150_000
NOTIFY_US = 400_000


def serving_world(seed=0, stale_after_us=2_000_000, fallback=True):
    """Two federated gateways; a warm device behind gateway1 (so gateway0
    only ever learns it through gossip) and an unadvertised cold device
    behind gateway0 for the fallback path."""
    elements = (
        SegmentSpec("leaf0", seed_offset=1, link_to="lan0"),
        SegmentSpec("leaf1", seed_offset=2, link_to="lan0"),
        HostSpec("gateway0", segment="leaf0"),
        BridgeSpec("gateway0", ("lan0",)),
        IndissApp(host="gateway0", profile="fleet", seed_offset=0),
        HostSpec("gateway1", segment="leaf1"),
        BridgeSpec("gateway1", ("lan0",)),
        IndissApp(host="gateway1", profile="fleet", seed_offset=1),
        FleetSpec("fleet", "lan0", ("gateway0", "gateway1"), GOSSIP_US),
        QueryFrontendApp(host="gateway0", stale_after_us=stale_after_us,
                         fallback=fallback),
        QueryFrontendApp(host="gateway1"),
        HostSpec("device-warm", segment="leaf1"),
        TypedDevice("warm", host="device-warm", advertise=True,
                    notify_period_us=NOTIFY_US),
        HostSpec("device-cold", segment="leaf0"),
        TypedDevice("cold", host="device-cold", advertise=False),
        HostSpec("tester", segment="leaf0"),
    )
    world = World.build(
        WorldSpec(name="serving_frontend_test", elements=elements), seed=seed
    )
    world.run(1_000_000)  # announce + resolve + a few gossip rounds
    return world


class Client:
    def __init__(self, world, host="tester"):
        self.world = world
        self.node = world.hosts[host]
        self.replies = []
        self.sock = self.node.udp.socket()
        self.sock.on_datagram(
            lambda datagram: self.replies.append(wire.decode(datagram.payload))
        )

    def ask(self, target_host, message, wait_us=200_000):
        target = self.world.hosts[target_host]
        self.sock.sendto(
            wire.encode(message), Endpoint(target.address, wire.SERVING_PORT)
        )
        seen = len(self.replies)
        self.world.run(wait_us)
        fresh = self.replies[seen:]
        assert len(fresh) == 1, f"expected one reply, got {fresh}"
        return fresh[0]

    def send_raw(self, target_host, payload, wait_us=100_000):
        target = self.world.hosts[target_host]
        self.sock.sendto(payload, Endpoint(target.address, wire.SERVING_PORT))
        self.world.run(wait_us)


@pytest.fixture(scope="module")
def world():
    return serving_world()


@pytest.fixture()
def client(world):
    return Client(world)


def frontend_of(world, host):
    return world._app(host, "frontend")


class TestEndpoints:
    def test_local_type_hit(self, world, client):
        reply = client.ask("gateway1", wire.request("type", 7, st="service:warm"))
        assert reply["status"] == "ok"
        assert reply["rid"] == 7
        assert reply["served_by"] == world.hosts["gateway1"].address
        assert reply["ver"] > 0
        (record,) = reply["records"]
        assert record["t"] == "warm"
        assert record["u"]
        # Local announcements refresh on every NOTIFY: nearly fresh.
        assert reply["staleness_us"] <= NOTIFY_US + 100_000

    def test_gossiped_type_hit_carries_lag(self, world, client):
        reply = client.ask("gateway0", wire.request("type", 8, st="service:warm"))
        assert reply["status"] == "ok"
        assert reply["served_by"] == world.hosts["gateway0"].address
        # The record could only arrive through gossip; the stamp is
        # honest about announcement age + gossip lag, and bounded by it.
        assert 0 < reply["staleness_us"] <= NOTIFY_US + 2 * GOSSIP_US + 200_000

    def test_prefix_lookup(self, world, client):
        reply = client.ask(
            "gateway1", wire.request("type", 9, st="service:wa", prefix=True)
        )
        assert reply["status"] == "ok"
        assert reply["records"][0]["t"] == "warm"

    def test_attribute_predicate_filters(self, world, client):
        miss = client.ask(
            "gateway1",
            wire.request("type", 10, st="service:warm",
                         where={"friendlyName": "nope"}),
        )
        assert miss["status"] == "miss"
        hit = client.ask(
            "gateway1",
            wire.request("type", 11, st="service:warm",
                         where={"friendlyName": "Sensor warm"}),
        )
        assert hit["status"] == "ok"

    def test_url_lookup_roundtrip(self, world, client):
        by_type = client.ask("gateway1", wire.request("type", 12, st="warm"))
        url = by_type["records"][0]["u"]
        reply = client.ask("gateway1", wire.request("url", 13, url=url))
        assert reply["status"] == "ok"
        assert reply["records"][0]["u"] == url
        assert client.ask("gateway1", wire.request("url", 14, url="nope"))[
            "status"
        ] == "miss"

    def test_batch_reports_per_target(self, world, client):
        reply = client.ask(
            "gateway1",
            wire.request("batch", 15, targets=["service:warm", "service:ghost"]),
        )
        assert reply["status"] == "ok"
        # At least the device's native record; an earlier miss-fallback may
        # also have cached a translated (SLP-URL) rendition of the service.
        warm = reply["by_target"]["service:warm"]
        assert len(warm) >= 1 and all(r["t"] == "warm" for r in warm)
        assert reply["by_target"]["service:ghost"] == []

    def test_districts_endpoint(self, world, client):
        reply = client.ask("gateway0", wire.request("districts", 16, st="warm"))
        assert reply["status"] == "ok"
        assert sum(reply["districts"].values()) >= 1

    def test_scope_filter_excludes_everything(self, world, client):
        reply = client.ask(
            "gateway1",
            wire.request("type", 17, st="warm",
                         scope={"districts": [99]}),
        )
        assert reply["status"] == "miss"

    def test_garbage_and_unknown_kinds_counted_not_answered(self, world, client):
        frontend = frontend_of(world, "gateway1")
        before = frontend.stats.decode_errors
        client.send_raw("gateway1", b"\xff\x00 not json")
        client.send_raw("gateway1", wire.encode({"v": 1, "kind": "bogus"}))
        assert frontend.stats.decode_errors == before + 2

    def test_stats_track_queries(self, world, client):
        frontend = frontend_of(world, "gateway1")
        queries = frontend.stats.queries
        client.ask("gateway1", wire.request("type", 18, st="warm"))
        assert frontend.stats.queries == queries + 1
        assert frontend.stats.responses_sent >= frontend.stats.queries - \
            frontend.stats.decode_errors - 2  # minus the unanswered garbage


class TestMalformedQueries:
    def test_bad_rid_and_scope_are_answered_not_raised(self):
        """A request id ``int()`` cannot convert is a decode error (no
        reply); a non-integer scope district gets an ``error`` reply.
        Either way the frontend keeps serving and the world keeps running."""
        world = serving_world()
        client = Client(world)
        frontend = frontend_of(world, "gateway1")
        errors = frontend.stats.decode_errors
        client.send_raw("gateway1", wire.encode(wire.request("type", "abc", st="warm")))
        client.send_raw("gateway1", wire.encode(wire.request("type", [1], st="warm")))
        assert frontend.stats.decode_errors == errors + 2
        assert client.replies == []

        for kind, fields in (("type", {"st": "warm"}), ("batch", {"targets": ["warm"]})):
            reply = client.ask(
                "gateway1",
                wire.request(kind, 5, scope={"districts": ["x"]}, **fields),
            )
            assert reply["status"] == "error"
            assert reply["error"] == "bad scope"
            assert reply["rid"] == 5

        start = world.net.scheduler.now_us
        reply = client.ask("gateway1", wire.request("type", 6, st="warm"))
        assert reply["status"] == "ok"
        assert world.net.scheduler.now_us > start
        assert frontend.stats.decode_errors == errors + 2


class TestFallback:
    def test_miss_triggers_translation_and_warms_cache(self):
        world = serving_world(seed=3)
        client = Client(world)
        frontend = frontend_of(world, "gateway0")
        first = client.ask("gateway0", wire.request("type", 1, st="service:cold"))
        assert first["status"] == "miss"
        assert frontend.stats.fallbacks == 1
        # Let the synthetic translation session multicast, the cold device
        # answer, and the reply land in the cache via _deliver_reply.
        world.run(800_000)
        second = client.ask("gateway0", wire.request("type", 2, st="service:cold"))
        assert second["status"] == "ok"
        assert second["records"][0]["t"] == "cold"

    def test_fallback_window_gates_repeat_misses(self):
        world = serving_world(seed=4)
        client = Client(world)
        frontend = frontend_of(world, "gateway0")
        client.ask("gateway0", wire.request("type", 1, st="service:ghost"),
                   wait_us=50_000)
        client.ask("gateway0", wire.request("type", 2, st="service:ghost"),
                   wait_us=50_000)
        assert frontend.stats.fallbacks == 1  # second miss inside the window

    def test_fallback_disabled_stays_quiet(self):
        world = serving_world(seed=5, fallback=False)
        client = Client(world)
        frontend = frontend_of(world, "gateway0")
        reply = client.ask("gateway0", wire.request("type", 1, st="service:cold"))
        assert reply["status"] == "miss"
        assert frontend.stats.fallbacks == 0


class TestStalenessHonesty:
    def test_partition_grows_stamp_then_heal_collapses_it(self):
        """Mid-partition the stamp is at least the true gossip lag; after
        the heal one NOTIFY + gossip round restores freshness."""
        world = serving_world(seed=6, stale_after_us=600_000)
        client = Client(world)
        frontend = frontend_of(world, "gateway0")

        fresh = client.ask("gateway0", wire.request("type", 1, st="warm"))
        assert fresh["status"] == "ok"
        stamp_fresh = fresh["staleness_us"]

        world.apply(Fault("detach", host="gateway1"))
        lag_us = 1_200_000
        world.run(lag_us)
        mid = client.ask("gateway0", wire.request("type", 2, st="warm"))
        assert mid["status"] == "ok"
        # gateway0's copy last refreshed no later than the detach, so the
        # stamp can never understate the gossip lag.
        assert mid["staleness_us"] >= lag_us
        assert mid["staleness_us"] > stamp_fresh
        assert mid.get("stale") is True
        assert frontend.stats.stale_answers >= 1

        world.apply(Heal("attach", host="gateway1"))
        world.run(NOTIFY_US + 3 * GOSSIP_US + 300_000)
        healed = client.ask("gateway0", wire.request("type", 3, st="warm"))
        assert healed["status"] == "ok"
        assert healed["staleness_us"] < mid["staleness_us"]
        assert healed["staleness_us"] <= NOTIFY_US + 2 * GOSSIP_US + 200_000
