"""The paper's Figure 4 walkthrough, reproduced message-for-message.

An SLP client searches for a clock service; the clock is a UPnP device.
This script captures every wire message and every semantic event stream of
the translation session and prints them in the three steps of the paper's
figure: (1) SLP request -> events -> composed M-SEARCH; (2) SSDP response
-> events -> recursive GET; (3) description XML -> parser switch ->
SDP_RES_ATTR events -> composed SrvRply.

Run with::

    python examples/slp_to_upnp_clock.py
"""

from repro import Indiss, IndissConfig, Network
from repro.sdp.slp import UserAgent, decode as slp_decode, SrvRply
from repro.sdp.upnp import make_clock_device


def print_wire(title: str, payload: bytes) -> None:
    print(f"  [{title}]")
    text = payload.decode("latin-1", errors="replace")
    for line in text.splitlines()[:12]:
        print(f"    | {line}")
    if payload.count(b"\n") > 12:
        print("    | ...")


def main() -> None:
    net = Network(capture=True)
    client_node = net.add_node("client")
    service_node = net.add_node("service")

    ua = UserAgent(client_node)
    make_clock_device(service_node)
    indiss = Indiss(service_node, IndissConfig(units=("slp", "upnp"), deployment="service"))

    # Application-layer listener: trace every parsed event stream in real
    # time (paper §2.3's debugging/visualization hook).
    captured_streams = []
    indiss.stream_listeners.append(
        lambda sdp, stream, meta: captured_streams.append((sdp, stream))
    )
    # ... and every finished translation session, with its step log.
    finished_sessions = []
    indiss.session_listeners.append(finished_sessions.append)

    searches = []
    ua.find_services("service:clock", on_complete=searches.append)
    net.run(duration_us=2_000_000)

    print("=" * 72)
    print("Step 1 - the SLP search request becomes a stream of events")
    print("=" * 72)
    sdp, stream = captured_streams[0]
    print(f"  parsed by the {sdp.upper()} unit's parser:")
    for event in stream:
        print(f"    {event}")

    print()
    print("=" * 72)
    print("Step 2 - the UPnP unit's composed M-SEARCH and the device's answer")
    print("=" * 72)
    msearch = [r for r in net.trace if b"M-SEARCH" in r.payload]
    if msearch:
        print_wire("composed UPnP search request", msearch[0].payload)
    responses = [r for r in net.trace if r.payload.startswith(b"HTTP/1.1 200") and b"ST:" in r.payload]
    if responses:
        print_wire("UPnP search answer (LOCATION, no service URL yet)", responses[0].payload)

    print()
    print("=" * 72)
    print("Step 3 - recursive GET, parser switch, and the final SLP reply")
    print("=" * 72)
    for session in sorted(finished_sessions, key=lambda s: s.session_id):
        for step in session.steps:
            print(f"  - {step}")
    replies = []
    for record in net.trace:
        if record.transport != "udp":
            continue
        try:
            message = slp_decode(record.payload)
        except Exception:
            continue
        if isinstance(message, SrvRply) and message.url_entries:
            replies.append(message)
    if replies:
        reply = replies[0]
        print()
        print("  [final SrvRply delivered to the SLP client]")
        for entry in reply.url_entries:
            print(f"    SrvRply: {entry.url}")

    print()
    search = searches[0]
    print(f"client-observed latency: {search.first_latency_us / 1000:.2f} ms (virtual)")


if __name__ == "__main__":
    main()
