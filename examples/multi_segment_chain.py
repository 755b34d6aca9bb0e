"""A discovery hopping two INDISS gateways across three LAN segments.

Run with::

    PYTHONPATH=src python examples/multi_segment_chain.py

Builds an internetwork of three segments (A - B - C).  An ordinary SLP
client lives on A, an ordinary UPnP clock device on C, and two INDISS
gateway hosts are each bridged across one boundary (A+B and B+C) with the
``gateway-forward`` dispatch policy.  The client's multicast SrvRqst never
leaves segment A — the gateways re-issue the request natively on every LAN
they are homed on, and the answers unwind back down the chain.
"""

from collections import Counter

from repro import Indiss, IndissConfig, Network
from repro.sdp.slp import SlpConfig, UserAgent
from repro.sdp.upnp import make_clock_device


def gateway_config(seed: int) -> IndissConfig:
    return IndissConfig(
        units=("slp", "upnp"),
        deployment="gateway",
        dispatch="gateway-forward",
        upnp_wait_us=300_000,
        slp_wait_us=350_000,
        seed=seed,
    )


def main() -> None:
    net = Network(capture=True)
    seg_a = net.default_segment
    seg_b = net.add_segment("segB")
    seg_c = net.add_segment("segC")
    net.link(seg_a, seg_b)
    net.link(seg_b, seg_c)

    client_node = net.add_node("client", segment=seg_a)
    service_node = net.add_node("service", segment=seg_c)

    gw_ab = net.add_node("gw-ab", segment=seg_a)
    net.bridge(gw_ab, seg_b)
    gw_bc = net.add_node("gw-bc", segment=seg_b)
    net.bridge(gw_bc, seg_c)

    client = UserAgent(client_node, config=SlpConfig(wait_us=400_000, retries=0))
    make_clock_device(service_node)
    indiss_ab = Indiss(gw_ab, gateway_config(seed=1))
    indiss_bc = Indiss(gw_bc, gateway_config(seed=2))

    searches = []
    client.find_services("service:clock", on_complete=searches.append)
    net.run(duration_us=3_000_000)

    search = searches[0]
    print("SLP client on segment A searched for 'service:clock' and received:")
    for entry in search.results:
        print(f"  {entry.url}")
    print(f"first answer after {search.first_latency_us / 1000:.2f} ms (virtual)")
    print()

    for label, indiss in (("A+B", indiss_ab), ("B+C", indiss_bc)):
        print(f"gateway {label}: {indiss.describe()}")
    print()

    print("multicast confinement (frames per segment):")
    multicast = Counter(
        (r.segment, r.destination.port) for r in net.trace if r.destination.is_multicast
    )
    for name in net.segments:
        slp, ssdp = multicast[name, 427], multicast[name, 1900]
        print(f"  {name:6s} SLP multicast={slp:2d}  SSDP multicast={ssdp:2d}")
    client_leaks = [
        r
        for r in net.trace
        if r.source.host == client_node.address
        and r.destination.is_multicast
        and r.segment != seg_a.name
    ]
    print(f"client multicast frames seen outside segment A: {len(client_leaks)}")


if __name__ == "__main__":
    main()
