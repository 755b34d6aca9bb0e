"""The UDP delivery path, primitive by primitive and branch by branch.

The first half pins the per-frame primitives to their reference
definitions: the latency formula and its jitter stream, the frame's
equality/hash/repr, and a sender's source endpoint.  The second half is
one table row per branch of unicast, multicast and broadcast delivery on
hand-built networks; each row pins the exact delivery times, the events
fired, the unrouted count and every traffic monitor's totals, so a change
to how a frame is delivered cannot move what the simulation does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.net import (
    Endpoint,
    LatencyModel,
    LossModel,
    Network,
    Scheduler,
    SocketClosedError,
)
from repro.net.parallel import ShardedScheduler
from repro.net.partition import compute_partition_map
from repro.net.udp import NULL_MEMO, Datagram, FrameMemo

#: Every bandwidth the scenario catalog builds segments with.
CATALOG_BANDWIDTHS = (10_000_000, None)


# -- primitives ---------------------------------------------------------------


def reference_delay_us(
    model: LatencyModel, rng: random.Random, size: int, loopback: bool
) -> int:
    """The delay formula as first written: transmission term, then a
    ``randint`` jitter draw, then a floor of 1 µs."""
    if loopback:
        return model.loopback_latency_us
    transmission = 0
    if model.bandwidth_bps is not None and size > 0:
        transmission = int(round(size * 8 * 1_000_000 / model.bandwidth_bps))
    delay = model.lan_latency_us + transmission
    if model.jitter_us > 0:
        delay += rng.randint(0, model.jitter_us)
    return max(delay, 1)


@pytest.mark.parametrize("bandwidth", CATALOG_BANDWIDTHS)
@pytest.mark.parametrize("lan_us,jitter_us", [(150, 0), (0, 0), (150, 40)])
def test_delay_matches_reference_formula_for_every_size(bandwidth, lan_us, jitter_us):
    model = LatencyModel(
        lan_latency_us=lan_us, bandwidth_bps=bandwidth, jitter_us=jitter_us, seed=11
    )
    rng = random.Random(11)
    for size in range(65536):
        assert model.delay_us(size, False) == reference_delay_us(model, rng, size, False)
    assert model.delay_us(512, loopback=True) == model.loopback_latency_us


@pytest.mark.parametrize("jitter_us", [1, 40, 1000, 65535])
def test_jitter_stream_equals_randint(jitter_us):
    model = LatencyModel(lan_latency_us=0, bandwidth_bps=None, jitter_us=jitter_us, seed=5)
    rng = random.Random(5)
    drawn = [model.delay_us(0, False) for _ in range(10_000)]
    assert drawn == [max(rng.randint(0, jitter_us), 1) for _ in range(10_000)]
    # The next draw from both streams still agrees: no hidden extra draw.
    assert model._rng.random() == rng.random()


def test_det_delay_never_draws():
    model = LatencyModel(jitter_us=40, seed=3)
    state = model._rng.getstate()
    assert model.det_delay_us(1250) == 150 + 1000
    assert LatencyModel(lan_latency_us=0, bandwidth_bps=None).det_delay_us(0) == 1
    assert model._rng.getstate() == state


@dataclass(frozen=True)
class ReferenceDatagram:
    """The frame as first written (a frozen dataclass)."""

    payload: bytes
    source: Endpoint
    destination: Endpoint
    memo: Optional[FrameMemo] = field(default=None, compare=False, repr=False)


SRC = Endpoint("192.168.1.1", 4000)
DST = Endpoint("239.255.255.253", 427)


def test_datagram_equality_hash_and_repr_match_the_dataclass():
    frame = Datagram(b"abc", SRC, DST)
    keyword = Datagram(payload=b"abc", source=SRC, destination=DST, memo=FrameMemo())
    reference = ReferenceDatagram(b"abc", SRC, DST)
    assert frame == keyword and hash(frame) == hash(keyword)
    assert hash(frame) == hash(reference)
    assert repr(frame) == repr(reference).replace("ReferenceDatagram", "Datagram")
    assert frame != Datagram(b"abd", SRC, DST)
    assert frame != Datagram(b"abc", DST, SRC)
    assert frame != reference  # a different class never compares equal
    assert len({frame, keyword, Datagram(b"abc", SRC, DST, NULL_MEMO)}) == 1
    assert frame.multicast and not Datagram(b"", DST, SRC).multicast
    assert len(frame) == 3


def test_datagram_memo_is_created_once_and_excluded():
    frame = Datagram(b"x", SRC, DST)
    assert frame.memo is None
    memo = frame.ensure_memo()
    assert frame.ensure_memo() is memo is frame.memo
    memo.store("k", b"x", 1)
    assert frame == Datagram(b"x", SRC, DST)
    assert "memo" not in repr(frame)
    assert Datagram(b"x", SRC, DST, NULL_MEMO).ensure_memo() is NULL_MEMO


def test_sender_source_endpoint_after_auto_bind():
    net = Network()
    a, b = net.add_node("a"), net.add_node("b")
    got = []
    b.udp.socket().bind(5000).on_datagram(got.append)
    tx = a.udp.socket()
    tx.sendto(b"one", Endpoint(b.address, 5000))
    assert tx.port == a.udp.EPHEMERAL_BASE
    second = a.udp.socket()
    second.sendto(b"two", Endpoint(b.address, 5000))
    tx.sendto(b"three", Endpoint(b.address, 5000))
    net.run()
    assert [(d.payload, d.source) for d in got] == [
        (b"one", Endpoint(a.address, a.udp.EPHEMERAL_BASE)),
        (b"two", Endpoint(a.address, a.udp.EPHEMERAL_BASE + 1)),
        (b"three", Endpoint(a.address, a.udp.EPHEMERAL_BASE)),
    ]
    assert tx.sent_count == 2 and second.sent_count == 1


def test_closed_socket_raises_and_crashed_socket_is_silent():
    net = Network()
    a, b = net.add_node("a"), net.add_node("b")
    closed = a.udp.socket().bind(6000)
    closed.close()
    with pytest.raises(SocketClosedError):
        closed.sendto(b"x", Endpoint(b.address, 5000))
    stale = a.udp.socket().bind(6001)
    net.crash_node(a)
    stale.sendto(b"x", Endpoint(b.address, 5000))  # no raise, no frame
    assert stale.sent_count == 0 and net.traffic.total_messages == 0


# -- one row per delivery branch ------------------------------------------------


class Probe:
    """Collects ``(time_us, socket name, payload size)`` per delivery, in
    delivery order."""

    def __init__(self, net: Network):
        self.net = net
        self.got: list = []

    def sink(self, node, port: int, name: str, group: str | None = None):
        sock = node.udp.socket().bind(port, reuse=True)
        if group is not None:
            sock.join_group(group)
        sock.on_datagram(lambda d: self.got.append((node.now_us, name, len(d.payload))))
        return sock

    def observe(self) -> dict:
        net = self.net
        return {
            "got": self.got,
            "events": net.scheduler.events_fired,
            "unrouted": net.unrouted,
            "net": (net.traffic.total_messages, net.traffic.total_bytes),
            "segments": {
                name: (seg.traffic.total_messages, seg.traffic.total_bytes)
                for name, seg in sorted(net.segments.items())
            },
        }


def jittery() -> LatencyModel:
    return LatencyModel(jitter_us=40, seed=7)


def row_loopback():
    net = Network(latency=jittery())
    probe = Probe(net)
    a = net.add_node("a")
    probe.sink(a, 5000, "a1")
    probe.sink(a, 5000, "a2")
    tx = a.udp.socket()
    tx.sendto(b"to-self", Endpoint(a.address, 5000))
    tx.sendto(b"to-127", Endpoint("127.0.0.1", 5000))
    net.run()
    return probe.observe()


def row_same_segment():
    net = Network(latency=jittery())
    probe = Probe(net)
    a, b = net.add_node("a"), net.add_node("b")
    probe.sink(b, 5000, "b1")
    probe.sink(b, 5000, "b2")
    tx = a.udp.socket()
    for size in (10, 700, 1400):
        tx.sendto(bytes(size), Endpoint(b.address, 5000))
        tx.sendto(b"nobody", Endpoint(b.address, 5999))
    net.run()
    return probe.observe()


def row_two_hop():
    net = Network(latency=jittery())
    probe = Probe(net)
    mid = net.add_segment("mid")
    far = net.add_segment("far")
    net.link(net.default_segment, mid, latency_us=300)
    net.link(mid, far, latency_us=700)
    a = net.add_node("a")
    c = net.add_node("c", segment=far)
    probe.sink(c, 5000, "c1")
    probe.sink(c, 5000, "c2")
    tx = a.udp.socket()
    tx.sendto(bytes(200), Endpoint(c.address, 5000))
    a.schedule(5_000, lambda: tx.sendto(bytes(900), Endpoint(c.address, 5000)))
    net.run()
    return probe.observe()


def row_unrouted():
    net = Network(latency=jittery())
    probe = Probe(net)
    island = net.add_segment("island")
    a = net.add_node("a")
    lonely = net.add_node("lonely", segment=island)
    probe.sink(lonely, 5000, "lonely")
    tx = a.udp.socket()
    tx.sendto(b"no route", Endpoint(lonely.address, 5000))
    tx.sendto(b"no host", Endpoint("192.168.1.200", 5000))
    net.run()
    return probe.observe()


def row_detached_sender():
    net = Network(latency=jittery())
    probe = Probe(net)
    a, b = net.add_node("a"), net.add_node("b")
    probe.sink(b, 5000, "b")
    tx = a.udp.socket()
    tx.sendto(b"before", Endpoint(b.address, 5000))
    net.run()
    net.detach_node(a)
    tx.sendto(b"nic down", Endpoint(b.address, 5000))
    tx.sendto(b"nic down", Endpoint("239.1.1.1", 5000))
    net.run()
    return probe.observe()


def row_lossy_segment():
    net = Network(latency=jittery())
    probe = Probe(net)
    a, b = net.add_node("a"), net.add_node("b")
    net.set_segment_loss(net.default_segment, LossModel(rate=0.4, seed=9))
    probe.sink(b, 5000, "b1")
    probe.sink(b, 5000, "b2")
    tx = a.udp.socket()
    for index in range(12):
        tx.sendto(bytes([index]) * (20 + index), Endpoint(b.address, 5000))
    probe.sink(a, 5000, "a")
    tx.sendto(b"loop", Endpoint(a.address, 5000))  # loopback never drops
    net.run()
    return probe.observe()


def row_global_loss():
    net = Network(latency=jittery(), loss=LossModel(rate=0.3, seed=4))
    probe = Probe(net)
    a, b = net.add_node("a"), net.add_node("b")
    probe.sink(b, 5000, "b1")
    probe.sink(b, 5000, "b2")
    tx = a.udp.socket()
    for index in range(8):
        tx.sendto(bytes(30 + index), Endpoint(b.address, 5000))
    net.run()
    return probe.observe()


def row_fault_trunk():
    net = Network(latency=jittery())
    probe = Probe(net)
    far = net.add_segment("far")
    net.link(net.default_segment, far, latency_us=2_000)
    net.enable_faults()
    a = net.add_node("a")
    c = net.add_node("c", segment=far)
    probe.sink(c, 5000, "c1")
    probe.sink(c, 5000, "c2")
    tx = a.udp.socket()
    tx.sendto(b"in flight", Endpoint(c.address, 5000))
    a.schedule(100, lambda: net.cut_link("lan0", "far"))
    a.schedule(200, lambda: tx.sendto(b"cut", Endpoint(c.address, 5000)))
    a.schedule(5_000, lambda: net.heal_link("lan0", "far"))
    a.schedule(6_000, lambda: tx.sendto(b"healed", Endpoint(c.address, 5000)))
    net.run()
    return probe.observe()


def row_crash_restart():
    net = Network(latency=jittery())
    probe = Probe(net)
    a, b = net.add_node("a"), net.add_node("b")
    probe.sink(b, 5000, "b-before")
    tx = a.udp.socket()
    tx.sendto(b"first", Endpoint(b.address, 5000))
    net.run()
    tx.sendto(b"in flight", Endpoint(b.address, 5000))
    net.crash_node(b)
    tx.sendto(b"while down", Endpoint(b.address, 5000))
    net.run()
    net.restart_node(b)
    probe.sink(b, 5000, "b-after")
    tx.sendto(b"after", Endpoint(b.address, 5000))
    net.run()
    return probe.observe()


def row_multicast():
    net = Network(latency=jittery())
    probe = Probe(net)
    other = net.add_segment("other")
    a, b, c = net.add_node("a"), net.add_node("b"), net.add_node("c")
    gw = net.add_node("gw")
    net.bridge(gw, other)
    group = "239.255.255.253"
    probe.sink(a, 427, "a", group)
    probe.sink(b, 427, "b", group)
    leaver = c.udp.socket().bind(427, reuse=True).join_group(group)

    def on_leaver(datagram):
        probe.got.append((c.now_us, "c", len(datagram.payload)))
        leaver.leave_group(group)

    leaver.on_datagram(on_leaver)
    probe.sink(gw, 427, "gw", group)
    d = net.add_node("d", segment=other)
    probe.sink(d, 427, "d", group)
    tx = a.udp.socket()
    tx.sendto(b"hello group", Endpoint(group, 427))
    gw.udp.socket().sendto(b"from gw", Endpoint(group, 427))
    a.schedule(2_000, lambda: tx.sendto(b"again", Endpoint(group, 427)))
    net.run()
    return probe.observe()


def row_broadcast():
    net = Network(latency=jittery())
    probe = Probe(net)
    a, b = net.add_node("a"), net.add_node("b")
    net.add_node("idle")
    probe.sink(a, 6000, "a")
    probe.sink(b, 6000, "b")
    a.udp.socket().sendto(b"everyone", Endpoint("255.255.255.255", 6000))
    net.run()
    return probe.observe()


def cross_district_net(engine: str, capture: bool = False):
    """Two districts (lan0, east) joined by one 10 ms link."""
    pmap = compute_partition_map(["lan0", "east"], [], [("lan0", "east", 10_000)])
    scheduler = ShardedScheduler(pmap) if engine == "partitioned" else Scheduler()
    net = Network(scheduler=scheduler, latency=jittery(), capture=capture)
    net.add_segment("east")
    net.link(net.default_segment, "east", latency_us=10_000)
    if engine == "partitioned":
        net.attach_engine(scheduler)
    else:
        net.freeze_partitions(pmap)
    return net


def row_cross_district(engine: str = "single"):
    net = cross_district_net(engine)
    probe = Probe(net)
    a = net.add_node("a")
    b = net.add_node("b")
    e = net.add_node("e", segment="east")
    probe.sink(e, 5000, "e1")
    probe.sink(e, 5000, "e2")
    probe.sink(b, 5000, "b")
    probe.sink(a, 5000, "a")
    tx = a.udp.socket()
    back = e.udp.socket()

    def burst():
        tx.sendto(bytes(300), Endpoint(e.address, 5000))
        tx.sendto(bytes(40), Endpoint(b.address, 5000))

    net.scheduler_for(a).schedule(1_000, burst)
    net.scheduler_for(e).schedule(
        3_000, lambda: back.sendto(bytes(120), Endpoint(a.address, 5000))
    )
    net.scheduler_for(a).schedule(
        4_000, lambda: tx.sendto(bytes(50), Endpoint("192.168.1.250", 5000))
    )
    net.scheduler.run_until_idle()
    return probe.observe()


# Expected observations, one per branch.  Delays at 10 Mb/s: 150 µs LAN
# cost + 0.8 µs per byte + a 0..40 µs jitter draw per receiving socket;
# 15 µs on loopback.
ROWS = {
    "loopback": (row_loopback, {
        "got": [(15, "a1", 7), (15, "a2", 7), (15, "a1", 6), (15, "a2", 6)],
        "events": 4, "unrouted": 0, "net": (2, 13),
        "segments": {"lan0": (2, 13)},
    }),
    "same_segment": (row_same_segment, {
        "got": [(167, "b2", 10), (178, "b1", 10), (713, "b2", 700),
                (735, "b1", 700), (1274, "b1", 1400), (1304, "b2", 1400)],
        "events": 6, "unrouted": 0, "net": (6, 2128),
        "segments": {"lan0": (6, 2128)},
    }),
    "two_hop": (row_two_hop, {
        "got": [(1962, "c2", 200), (1984, "c1", 200), (8654, "c1", 900),
                (8671, "c2", 900)],
        "events": 5, "unrouted": 0, "net": (2, 1100),
        "segments": {"far": (2, 1100), "lan0": (2, 1100), "mid": (2, 1100)},
    }),
    "unrouted": (row_unrouted, {
        "got": [],
        "events": 0, "unrouted": 2, "net": (2, 15),
        "segments": {"island": (0, 0), "lan0": (2, 15)},
    }),
    "detached_sender": (row_detached_sender, {
        "got": [(175, "b", 6)],
        "events": 1, "unrouted": 2, "net": (1, 6),
        "segments": {"lan0": (1, 6)},
    }),
    "lossy_segment": (row_lossy_segment, {
        "got": [(15, "a", 4), (170, "b2", 21), (173, "b1", 26), (175, "b2", 20),
                (176, "b2", 26), (177, "b2", 30), (178, "b1", 29), (186, "b1", 20),
                (187, "b2", 28), (191, "b2", 23), (201, "b1", 30), (202, "b2", 22),
                (202, "b1", 25), (206, "b1", 24), (211, "b1", 31)],
        "events": 25, "unrouted": 0, "net": (13, 310),
        "segments": {"lan0": (13, 310)},
    }),
    "global_loss": (row_global_loss, {
        "got": [(179, "b2", 33), (181, "b1", 34), (185, "b2", 32), (186, "b2", 37),
                (195, "b1", 31), (201, "b1", 33), (212, "b1", 35)],
        "events": 7, "unrouted": 0, "net": (8, 268),
        "segments": {"lan0": (8, 268)},
    }),
    "fault_trunk": (row_fault_trunk, {
        "got": [(8322, "c2", 6), (8344, "c1", 6)],
        "events": 8, "unrouted": 1, "net": (3, 18),
        "segments": {"far": (2, 15), "lan0": (3, 18)},
    }),
    "crash_restart": (row_crash_restart, {
        "got": [(174, "b-before", 5), (519, "b-after", 5)],
        "events": 3, "unrouted": 1, "net": (4, 29),
        "segments": {"lan0": (4, 29)},
    }),
    "multicast": (row_multicast, {
        "got": [(15, "a", 11), (15, "gw", 7), (165, "a", 7), (165, "b", 7),
                (165, "c", 7), (179, "b", 11), (179, "gw", 11), (181, "d", 7),
                (2015, "a", 5), (2157, "b", 5), (2157, "gw", 5)],
        "events": 8, "unrouted": 0, "net": (3, 23),
        "segments": {"lan0": (3, 23), "other": (1, 7)},
    }),
    "broadcast": (row_broadcast, {
        "got": [(15, "a", 8), (176, "b", 8)],
        "events": 2, "unrouted": 0, "net": (1, 8),
        "segments": {"lan0": (1, 8)},
    }),
    "cross_district": (row_cross_district, {
        "got": [(1202, "b", 40), (11780, "e1", 300), (11780, "e2", 300),
                (13492, "a", 120)],
        "events": 6, "unrouted": 1, "net": (4, 510),
        "segments": {"east": (2, 420), "lan0": (4, 510)},
    }),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_delivery_branch(name):
    build, expected = ROWS[name]
    assert build() == expected


def test_cross_district_partitioned_matches_single():
    # Each district's deliveries keep their order; the two districts'
    # windows may interleave differently, so compare the merged list sorted.
    single = row_cross_district("single")
    partitioned = row_cross_district("partitioned")
    single["got"].sort()
    partitioned["got"].sort()
    assert partitioned == single
    assert single["got"]  # the row exercised real deliveries


@pytest.mark.parametrize("engine", ["single", "partitioned"])
def test_cross_district_frame_is_captured_at_its_send_time(engine):
    net = cross_district_net(engine, capture=True)
    a = net.add_node("a")
    e = net.add_node("e", segment="east")
    e.udp.socket().bind(5000)
    tx = a.udp.socket()
    net.scheduler_for(a).schedule(
        1_000, lambda: tx.sendto(bytes(300), Endpoint(e.address, 5000))
    )
    net.scheduler.run_until_idle()
    assert [(r.time_us, r.segment, r.size) for r in net.trace] == [
        (1_000, "lan0", 300), (1_000, "east", 300)
    ]
