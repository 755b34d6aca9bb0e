"""Discovery-as-a-service: querying the federated cache over the wire.

Run with::

    PYTHONPATH=src python examples/query_service.py

Two INDISS gateways federate over a campus backbone; each also runs a
:class:`~repro.serving.QueryFrontend` — a tiny UDP RPC service that
answers discovery queries straight from the gateway's gossip-replicated
cache, stamping every reply with how stale the answer might be:

1. a UPnP thermostat behind gateway1 announces itself; gossip replicates
   the record so *gateway0* can answer for it without any translation;
2. a client asks gateway0 by exact type, by type prefix, by attribute
   predicate, and asks "which districts have one?";
3. a query for a service nobody announced misses — the frontend falls
   back to a fleet translation, and the repeat query hits;
4. the backbone partitions: the staleness stamp on gateway0's answers
   grows with the true gossip lag, then collapses after the heal.
"""

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


def build_world() -> World:
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
        QueryFrontendApp(host="gateway0", stale_after_us=600_000),
        QueryFrontendApp(host="gateway1"),
        HostSpec("thermostat-host", segment="leaf1"),
        TypedDevice("thermostat", host="thermostat-host", advertise=True,
                    notify_period_us=NOTIFY_US),
        HostSpec("printer-host", segment="leaf0"),
        TypedDevice("printer", host="printer-host", advertise=False),
        HostSpec("client", segment="leaf0"),
    )
    return World.build(WorldSpec(name="query_service", elements=elements),
                       seed=0)


class QueryClient:
    """One UDP socket on the client host; `ask` runs the sim until the
    single expected reply lands."""

    def __init__(self, world: World):
        self.world = world
        self.replies = []
        self.sock = world.hosts["client"].udp.socket()
        self.sock.on_datagram(
            lambda d: self.replies.append(wire.decode(d.payload)))

    def ask(self, gateway: str, message: dict, wait_us: int = 200_000) -> dict:
        target = self.world.hosts[gateway]
        self.sock.sendto(wire.encode(message),
                         Endpoint(target.address, wire.SERVING_PORT))
        seen = len(self.replies)
        self.world.run(wait_us)
        return self.replies[seen]


def main() -> None:
    world = build_world()
    world.run(1_000_000)  # boot announcements + a few gossip rounds
    client = QueryClient(world)

    # Phase 1+2: gateway0 answers for a device it only knows via gossip.
    reply = client.ask("gateway0", wire.request("type", 1,
                                                st="service:thermostat"))
    print(f"lookup service:thermostat at gateway0 -> {reply['status']}, "
          f"{len(reply['records'])} record(s), "
          f"staleness {reply['staleness_us'] / 1000:.1f} ms")
    print(f"  url: {reply['records'][0]['u']}")

    prefix = client.ask("gateway0", wire.request("type", 2, st="service:therm",
                                                 prefix=True))
    print(f"prefix 'service:therm' -> {reply['status']}, "
          f"types {sorted({r['t'] for r in prefix['records']})}")

    attr = client.ask("gateway0", wire.request(
        "type", 3, st="service:thermostat",
        where={"friendlyName": "Sensor thermostat"}))
    print(f"attribute friendlyName='Sensor thermostat' -> {attr['status']}")

    districts = client.ask("gateway0", wire.request("districts", 4,
                                                    st="thermostat"))
    print(f"districts holding a thermostat record: {districts['districts']}")

    # Phase 3: a cold service misses, the frontend translates, then hits.
    miss = client.ask("gateway0", wire.request("type", 5, st="service:printer"))
    print(f"\nlookup service:printer -> {miss['status']} "
          f"(frontend kicked off a fleet translation)")
    world.run(800_000)
    hit = client.ask("gateway0", wire.request("type", 6, st="service:printer"))
    print(f"repeat lookup service:printer -> {hit['status']}")

    # Phase 4: honesty under partition.
    world.apply(Fault("detach", host="gateway1"))
    world.run(1_200_000)
    mid = client.ask("gateway0", wire.request("type", 7,
                                              st="service:thermostat"))
    print(f"\nmid-partition staleness stamp: {mid['staleness_us'] / 1000:.1f} ms"
          f" (stale flag: {mid.get('stale', False)})")

    world.apply(Heal("attach", host="gateway1"))
    world.run(NOTIFY_US + 3 * GOSSIP_US + 300_000)
    healed = client.ask("gateway0", wire.request("type", 8,
                                                 st="service:thermostat"))
    print(f"post-heal staleness stamp: {healed['staleness_us'] / 1000:.1f} ms")
    print("the stamp tracked the true gossip lag and collapsed after the heal")


if __name__ == "__main__":
    main()
