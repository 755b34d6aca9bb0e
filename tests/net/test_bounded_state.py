"""State the frame path keeps follows the live state, not the traffic.

A traffic window holds integer columns, not one container per booked
bucket; a TCP stack forgets a connection the moment it closes; the
description exporter keeps what a document needs and renders it when a
client fetches it.  Each test pins one of these together with the
behaviour that must not move with it: the ephemeral-port sequence
across a wrap, crash-stop silence for stale sends, and the served bytes.
"""

import functools
import gc
import importlib.util
import random
from pathlib import Path

import pytest

from repro.net import Endpoint, LatencyModel, Network, SocketClosedError
from repro.net.traffic import TrafficMonitor
from repro.sdp.base import ServiceRecord
from repro.sdp.upnp import http_get


def make_net():
    return Network(latency=LatencyModel(jitter_us=0))


@functools.cache
def _upnp_unit_tests():
    """The UPnP unit's test module, which keeps the field-by-field
    reference render of an exported description."""
    path = Path(__file__).parents[1] / "units" / "test_upnp_unit.py"
    spec = importlib.util.spec_from_file_location("upnp_unit_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exporter_world():
    from repro.core.unit import UnitRuntime
    from repro.units.upnp_unit import DescriptionExporter

    net = make_net()
    host, client = net.add_node("indiss"), net.add_node("client")
    exporter = DescriptionExporter(UnitRuntime(host), port=4104)
    return net, host, client, exporter


CLOCK = ServiceRecord(
    service_type="clock",
    url="service:clock:soap://192.168.1.5:4005/c",
    attributes={"friendlyName": "Hall <clock> & co", "modelName": "T-1"},
    source_sdp="slp",
)


def test_finished_http_fetches_leave_only_open_connections():
    net, host, client, exporter = _exporter_world()
    location = exporter.export(CLOCK, 7)
    responses = []
    for _ in range(25):
        http_get(client, location, responses.append)
    net.run()
    assert [response.status for response in responses] == [200] * 25
    assert client.tcp._connections == set() and host.tcp._connections == set()
    # A connection still open stays; it leaves with its peer's FIN.
    opened = []
    client.tcp.connect(Endpoint(host.address, 4104), opened.append)
    net.run()
    (held,) = opened
    assert client.tcp._connections == {held}
    assert all(not c.closed for c in host.tcp._connections)
    assert len(host.tcp._connections) == 1
    held.close()
    net.run()
    assert client.tcp._connections == set() and host.tcp._connections == set()


def _reference_ports(base, requests):
    """Today's rule replayed on its own: a cursor over ``[base, 65536)``
    that, once it has wrapped, skips the ports of open connections."""
    span = 65536 - base
    cursor = 0
    for held in requests:
        skip = held if cursor >= span else ()
        for _ in range(span):
            port = base + cursor % span
            cursor += 1
            if port not in skip:
                yield port
                break


def test_a_wrapped_cursor_hands_out_the_reference_port_sequence():
    """More ports than the ephemeral range holds, from real connects: some
    connections stay open across the wrap, others close from either
    side, and the sequence equals a replay of the rule over the ports
    the test itself knows to be open."""
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    accepted = []
    server.tcp.listen(80, accepted.append)
    rng = random.Random(5)
    base = client.tcp.EPHEMERAL_BASE
    open_ports: dict[int, object] = {}
    handed, held_at_request = [], []
    batches = (65536 - base) // 500 + 8
    for _ in range(batches):
        connected = []
        for _ in range(500):
            held_at_request.append(frozenset(open_ports))
            client.tcp.connect(Endpoint(server.address, 80), connected.append)
        net.run()
        accepted_now, accepted[:] = list(accepted), []
        for connection, peer in zip(connected, accepted_now):
            handed.append(connection.local.port)
            roll = rng.random()
            if roll < 0.01:
                open_ports[connection.local.port] = connection
            elif roll < 0.5:
                connection.close()
            else:
                peer.close()
        for port in sorted(open_ports):
            if rng.random() < 0.03:
                open_ports.pop(port).close()
        net.run()
        assert {c.local.port for c in client.tcp._connections} == set(open_ports)
    span = 65536 - base
    assert len(handed) > span
    assert handed == list(_reference_ports(base, held_at_request))
    # The held ports were skipped: after the wrap the sequence is not the
    # bare cursor.
    assert handed[span:] != [base + i for i in range(len(handed) - span)]


def test_stale_sends_after_a_crash_stay_silent():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    received = []
    server.tcp.listen(80, lambda conn: conn.on_data(received.append))
    conns = []
    for _ in range(2):
        client.tcp.connect(Endpoint(server.address, 80), conns.append)
    net.run()
    closed_before, open_at_crash = conns
    closed_before.close()
    net.run()
    assert client.tcp._connections == {open_at_crash}
    with pytest.raises(SocketClosedError):
        closed_before.send(b"too late")
    net.crash_node(client)
    closed_before.send(b"stale")
    open_at_crash.send(b"stale")
    net.run()
    assert received == []


def test_fetched_descriptions_match_the_reference_and_evicted_paths_404():
    from repro.units.upnp_unit import EXPORTED_DOCUMENTS

    net, host, client, exporter = _exporter_world()
    advertised = exporter.export_advertised(CLOCK, 10**6)
    locations = [exporter.export(CLOCK, session) for session in range(EXPORTED_DOCUMENTS + 3)]
    fetched = (locations[-1], locations[3], advertised, locations[0])
    responses = {}
    for location in fetched:
        http_get(client, location, lambda r, location=location: responses.update({location: r}))
    net.run()
    newest, oldest_kept, served_all_run, evicted = (responses[url] for url in fetched)
    for response, session in ((newest, EXPORTED_DOCUMENTS + 2), (oldest_kept, 3),
                              (served_all_run, 10**6)):
        assert response.status == 200
        assert response.body == _upnp_unit_tests()._reference_description(CLOCK, session)
        assert response.headers.get("CONTENT-LENGTH") == str(len(response.body))
    assert evicted.status == 404
    assert exporter.serves == 3
    assert exporter.document(locations[0].split(":4104", 1)[1]) is None


def _tracked_reachable(root):
    """GC-tracked objects reachable from ``root``, ``root`` excluded."""
    seen, stack = {id(root)}, [root]
    count = 0
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) in seen or not gc.is_tracked(referent):
                continue
            if isinstance(referent, type):
                continue  # classes reach the whole module graph
            seen.add(id(referent))
            count += 1
            stack.append(referent)
    return count


def test_a_traffic_monitor_holds_no_tracked_object_per_bucket():
    monitor = TrafficMonitor(10_000_000, window_us=1_000_000)
    for time_us in range(0, 50, 7):
        monitor.record(time_us, 100)
    baseline = _tracked_reachable(monitor)
    for time_us in range(50, 500_000, 7):  # ~71k buckets, all still live
        monitor.record(time_us, 100)
    assert _tracked_reachable(monitor) == baseline
    assert monitor.bytes_in_window(500_000, 1_000_000) == monitor.total_bytes


def test_a_long_run_keeps_the_window_columns_bounded():
    """Memory follows the live window: after a million µs of traffic
    behind a 1000 µs window, the monitor is about as large as after the
    first window."""
    monitor = TrafficMonitor(None, window_us=1_000)

    def footprint():
        return sum(
            referent.__sizeof__() for referent in gc.get_referents(monitor.__dict__)
        )

    for time_us in range(0, 2_000, 3):
        monitor.record(time_us, 60)
    early = footprint()
    for time_us in range(2_000, 1_000_000, 3):
        monitor.record(time_us, 60)
    assert footprint() <= 2 * early
    live = [t for t in range(2_000, 1_000_000, 3) if t >= 999_999 - 1_000]
    assert monitor.bytes_in_window(999_999, 1_000) == 60 * len(live)
