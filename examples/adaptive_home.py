"""Self-adaptation demo: the paper's Figure 6 passive/passive scenario.

A passive SLP client (listens for SAAdvert, never requests) shares the
home network with a passive UPnP clock (multicasts NOTIFY, never answers
what it cannot hear).  Without INDISS adaptation the two can never meet.
The adaptation manager watches network-wide utilization over a trailing
1 s (it retains that window on the network's traffic monitor when it is
built) and switches INDISS to the active model when the network is quiet
- and back to passive when background traffic picks up.

Run with::

    python examples/adaptive_home.py
"""

from repro import AdaptationManager, Indiss, IndissConfig, Network
from repro.net import Endpoint
from repro.sdp.slp import UserAgent
from repro.sdp.upnp import make_clock_device


def main() -> None:
    net = Network()
    client_node = net.add_node("client")
    service_node = net.add_node("service")

    client = UserAgent(client_node, passive=True)
    heard = []
    client.on_advert = lambda advert: heard.append((net.scheduler.now_ms, advert.url))

    make_clock_device(service_node, advertise=True)
    indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp"), deployment="service"))
    manager = AdaptationManager(indiss, threshold=0.05, check_period_us=250_000)

    print("phase 1: quiet network -> INDISS should go active and translate")
    net.run(duration_us=4_000_000)
    print(f"  mode: {'ACTIVE' if manager.active else 'passive'}")
    print(f"  SAAdverts heard by the passive SLP client: {len(heard)}")
    if heard:
        at_ms, url = heard[0]
        print(f"  first translated advert at t={at_ms:.0f} ms: {url}")

    print()
    print("phase 2: heavy background traffic -> INDISS should back off")
    blaster_a, blaster_b = net.add_node("ba"), net.add_node("bb")
    blaster_b.udp.socket().bind(9000)
    blast_socket = blaster_a.udp.socket().bind(9001)
    blaster = blaster_a.every(
        2_000, lambda: blast_socket.sendto(b"x" * 1200, Endpoint(blaster_b.address, 9000))
    )
    net.run(duration_us=3_000_000)
    print(f"  utilization now: {manager.current_utilization():.1%}")
    print(f"  mode: {'ACTIVE' if manager.active else 'passive'}")

    print()
    print("phase 3: traffic stops -> INDISS reactivates")
    blaster.stop()
    net.run(duration_us=3_000_000)
    print(f"  mode: {'ACTIVE' if manager.active else 'passive'}")

    print()
    print("mode-flip history:")
    for event in manager.history:
        mode = "ACTIVE" if event.active else "passive"
        print(
            f"  t={event.time_us / 1000:8.0f} ms -> {mode:7s}"
            f" (utilization {event.utilization:.1%})"
        )
    manager.stop()


if __name__ == "__main__":
    main()
