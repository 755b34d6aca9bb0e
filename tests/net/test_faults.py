"""The adversity layer's net primitives: seeded loss models, link state
and reroute, and in-flight drops.  Worlds drive the same primitives
through ``Fault``/``Heal`` workload steps (``tests/world/test_fault_steps.py``).

Everything here must be deterministic (dedicated per-edge RNG streams) and
strictly opt-in: an armed-but-lossless network behaves observably like an
unarmed one.
"""

import pytest

from repro.net import (
    Endpoint,
    GilbertElliottLoss,
    LossModel,
    Network,
    NetworkError,
    edge_seed,
    make_loss_model,
)


def triangle():
    """Two hosts three segments apart, with a redundant two-hop path."""
    net = Network()
    seg_a = net.add_segment("segA")
    seg_b = net.add_segment("segB")
    seg_c = net.add_segment("segC")
    net.link(seg_a, seg_b)
    net.link(seg_b, seg_c)
    net.link(seg_a, seg_c)
    src = net.add_node("src", segment=seg_a)
    dst = net.add_node("dst", segment=seg_c)
    return net, src, dst


def sink_on(net, node, port):
    got = []
    sock = node.udp.socket().bind(port, reuse=True)
    sock.on_datagram(lambda datagram: got.append(net.scheduler.now_us))
    return got


# -- loss models ------------------------------------------------------------------


def test_bernoulli_loss_is_seeded_per_edge():
    first = LossModel(0.3, seed=edge_seed(7, "segA"))
    again = LossModel(0.3, seed=edge_seed(7, "segA"))
    seq = [first.should_drop() for _ in range(200)]
    assert seq == [again.should_drop() for _ in range(200)]
    assert any(seq) and not all(seq)
    # A different edge gets its own independent stream under the same seed.
    other = LossModel(0.3, seed=edge_seed(7, "segB"))
    assert [other.should_drop() for _ in range(200)] != seq


def test_gilbert_elliott_drops_in_bursts():
    model = GilbertElliottLoss(p_bad=0.2, p_good=0.5, seed=42)
    seq = [model.should_drop() for _ in range(600)]
    assert any(seq) and not all(seq)
    runs, current = [], 0
    for dropped in seq:
        if dropped:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    # loss_bad=1 and p_good=0.5 make drop runs geometric with mean 2: the
    # burstiness a per-frame Bernoulli model cannot produce.
    assert runs and sum(runs) / len(runs) > 1.2
    twin = GilbertElliottLoss(p_bad=0.2, p_good=0.5, seed=42)
    assert [twin.should_drop() for _ in range(600)] == seq


def test_make_loss_model_dispatch():
    bern = make_loss_model("bernoulli", 0.1, 5, "segA-segB")
    assert isinstance(bern, LossModel) and bern.rate == 0.1
    gilbert = make_loss_model("gilbert", 0.1, 5, "segA-segB")
    assert isinstance(gilbert, GilbertElliottLoss) and gilbert.p_bad == 0.1
    with pytest.raises(ValueError):
        make_loss_model("fountain", 0.1, 5, "segA-segB")


# -- link state and reroute (satellite: Router reroute coverage) ------------------


def test_unicast_falls_back_to_the_surviving_path():
    net, src, dst = triangle()
    got = sink_on(net, dst, 5000)
    tx = src.udp.socket()
    tx.sendto(b"one", Endpoint(dst.address, 5000))
    net.run()
    assert len(got) == 1
    direct_delay = got[0]
    assert [link.latency_us for link in net.router.path("segA", "segC")] and (
        len(net.router.path("segA", "segC")) == 1
    )

    net.cut_link("segA", "segC")
    # BFS now detours via segB: two link hops instead of one.
    assert len(net.router.path("segA", "segC")) == 2
    sent_at = net.scheduler.now_us
    tx.sendto(b"two", Endpoint(dst.address, 5000))
    net.run()
    assert len(got) == 2
    assert got[1] - sent_at > direct_delay


def test_cut_invalidates_memoized_route_plans():
    net, src, dst = triangle()
    got = sink_on(net, dst, 5001)
    tx = src.udp.socket()
    tx.sendto(b"warm", Endpoint(dst.address, 5001))
    net.run()
    version_before = net.router.topology_version
    net.cut_link("segA", "segC")
    assert net.router.topology_version > version_before
    tx.sendto(b"after", Endpoint(dst.address, 5001))
    net.run()
    # The stale one-hop plan was not replayed: the frame still arrived,
    # which is only possible via the recomputed two-hop route.
    assert len(got) == 2
    net.heal_link("segA", "segC")
    assert len(net.router.path("segA", "segC")) == 1


def test_cut_drops_to_none_when_no_path_survives():
    net, src, dst = triangle()
    got = sink_on(net, dst, 5002)
    for pair in (("segA", "segC"), ("segB", "segC")):
        net.cut_link(*pair)
    assert net.router.path("segA", "segC") is None
    src.udp.socket().sendto(b"void", Endpoint(dst.address, 5002))
    net.run()
    assert got == []


def test_inflight_frame_on_a_cut_link_is_dropped_not_duplicated():
    net, src, dst = triangle()
    net.enable_faults()
    got = sink_on(net, dst, 5003)
    tx = src.udp.socket()
    tx.sendto(b"doomed", Endpoint(dst.address, 5003))
    # Cut while the frame is still traversing the direct link (well before
    # the trunk's link-latency prefix elapses).
    src.schedule(1, lambda: net.cut_link("segA", "segC"))
    net.run()
    assert got == []
    net.heal_link("segA", "segC")
    tx.sendto(b"healed", Endpoint(dst.address, 5003))
    net.run()
    assert len(got) == 1  # exactly once: dropped frames never resurface


def test_set_link_state_requires_an_existing_link():
    net, _, _ = triangle()
    with pytest.raises(NetworkError):
        net.cut_link("segA", "lan0")


def test_isolate_and_heal_segment_round_trip():
    net, src, dst = triangle()
    cut = net.isolate_segment("segC")
    assert sorted(cut) == [("segA", "segC"), ("segB", "segC")]
    assert net.router.path("segA", "segC") is None
    net.heal_segment("segC")
    assert len(net.router.path("segA", "segC")) == 1
    assert net.router.down_pairs() == set()


# -- armed-but-lossless identity --------------------------------------------------


def test_enable_faults_alone_is_observably_identical():
    """Arming the machinery without any fault leaves every delivery time
    unchanged — the knobs-off half of the determinism contract."""
    arrivals = []
    for armed in (False, True):
        net, src, dst = triangle()
        if armed:
            net.enable_faults()
        got = sink_on(net, dst, 5004)
        tx = src.udp.socket()
        for _ in range(5):
            tx.sendto(b"probe", Endpoint(dst.address, 5004))
        net.run()
        arrivals.append(got)
    assert arrivals[0] == arrivals[1]


# -- per-edge loss on live traffic ------------------------------------------------


def test_segment_loss_drops_frames_and_reports():
    net = Network()
    seg = net.default_segment
    a = net.add_node("a")
    b = net.add_node("b")
    got = sink_on(net, b, 5005)
    net.set_segment_loss(seg, LossModel(0.5, seed=edge_seed(3, seg.name)))
    tx = a.udp.socket()
    for _ in range(100):
        tx.sendto(b"x", Endpoint(b.address, 5005))
    net.run()
    report = net.loss_report()[f"segment:{seg.name}"]
    assert report["dropped"] > 0 and report["delivered"] > 0
    assert report["delivered"] == len(got)
    assert report["dropped"] + report["delivered"] == 100


def test_link_loss_drops_multi_hop_frames():
    net, src, dst = triangle()
    got = sink_on(net, dst, 5006)
    net.set_link_loss("segA", "segC", LossModel(0.5, seed=edge_seed(3, "segA-segC")))
    tx = src.udp.socket()
    for _ in range(100):
        tx.sendto(b"x", Endpoint(dst.address, 5006))
    net.run()
    report = net.loss_report()["link:segA-segC"]
    assert report["dropped"] > 0 and report["delivered"] > 0
    assert report["delivered"] == len(got)


def test_same_seed_same_drop_pattern_end_to_end():
    patterns = []
    for _ in range(2):
        net, src, dst = triangle()
        got = sink_on(net, dst, 5007)
        net.set_link_loss(
            "segA", "segC", LossModel(0.3, seed=edge_seed(9, "segA-segC"))
        )
        tx = src.udp.socket()
        for _ in range(60):
            tx.sendto(b"x", Endpoint(dst.address, 5007))
        net.run()
        patterns.append(got)
    assert patterns[0] == patterns[1]


def test_link_degrade_then_clear():
    """A loss model installed mid-run drops frames; clearing it mid-run
    lets every later frame through."""
    net, src, dst = triangle()
    net.enable_faults()
    lossy = make_loss_model("bernoulli", 0.4, 5, "segA-segC")
    src.schedule(1_000, lambda: net.set_link_loss("segA", "segC", lossy))
    src.schedule(500_000, lambda: net.set_link_loss("segA", "segC", None))
    got = sink_on(net, dst, 5008)
    tx = src.udp.socket()

    def burst():
        for _ in range(50):
            tx.sendto(b"x", Endpoint(dst.address, 5008))

    src.schedule(2_000, burst)
    net.run(duration_us=400_000)
    lossy_phase = len(got)
    assert lossy_phase < 50  # the degraded link genuinely dropped frames
    net.run(duration_us=200_000)
    src.schedule(1_000, burst)
    net.run()
    assert len(got) == lossy_phase + 50  # cleared: every frame arrives
