"""The traffic window's readers, pinned to literal values.

Two components decide from ``TrafficMonitor.utilization``: the Fig. 6
adaptation manager (paper §4.2) and the fleet's gateway elector, which
reads each member's local segments or, with ``wire_utilization`` on, the
samples members gossip to each other.  Every value below was taken from
a run of the code before the monitor lost its per-port counters; any
change to what the window reports shows up here as a different flip
time, utilization, election or sample.
"""

from repro.bench import PAPER_TESTBED
from repro.core import AdaptationManager, Indiss, IndissConfig
from repro.net import Endpoint, Network
from repro.sdp.slp import SlpConfig, UserAgent
from repro.sdp.upnp import make_clock_device
from repro.world import World
from repro.world.scenarios import SCENARIO_SPECS, SMALL_SCALE_OVERRIDES


def test_adaptation_flips_active_passive_active_with_the_blaster():
    """Quiet -> active; a 1200-byte frame every 3 ms from 1.5 s to 3.5 s
    -> passive; quiet again -> active (threshold 0.05, 1 s window)."""
    costs = PAPER_TESTBED
    net = Network(latency=costs.latency_model(0))
    client, service = net.add_node("client"), net.add_node("service")
    blaster, sink = net.add_node("ba"), net.add_node("bb")
    UserAgent(client, config=SlpConfig(timings=costs.slp), passive=True)
    make_clock_device(service, timings=costs.upnp, seed=0, advertise=True)
    indiss = Indiss(
        service,
        IndissConfig(units=("slp", "upnp"), deployment="service",
                     timings=costs.indiss, seed=0),
    )
    manager = AdaptationManager(indiss, threshold=0.05, check_period_us=250_000)
    sink.udp.socket().bind(9000)
    blast = blaster.udp.socket().bind(9001)
    net.run(duration_us=1_500_000)
    task = blaster.every(
        3_000, lambda: blast.sendto(b"x" * 1200, Endpoint(sink.address, 9000))
    )
    net.run(duration_us=2_000_000)
    task.stop()
    net.run(duration_us=2_500_000)
    manager.stop()
    assert [(e.time_us, e.active, e.utilization) for e in manager.history] == [
        (250_000, True, 0.0131816),
        (1_750_000, False, 0.0799488),
        (4_500_000, True, 0.0008368),
    ]


def _fleet(name: str):
    spec = SCENARIO_SPECS[name](**SMALL_SCALE_OVERRIDES.get(name, {}))
    world = World.build(spec, seed=0)
    world.run_workload()
    return world.fleets["fleet"]


def test_federated_campus_elector_reads_local_utilization():
    fleet = _fleet("federated_campus")
    assert not fleet.wire_utilization
    assert fleet.elector.history == [(1_500_546, "clock", "192.168.3.1")]
    assert fleet.elector.flaps == 0


def test_partitioned_campus_elector_boards_carry_wire_samples():
    fleet = _fleet("partitioned_campus")
    assert fleet.wire_utilization
    assert fleet.elector.history == []
    assert fleet.elector.flaps == 0
    boards = {
        member_id: dict(sorted(member.handle.util_samples.items()))
        for member_id, member in sorted(fleet.members.items())
    }
    assert boards == {
        "192.168.2.1": {
            "192.168.3.1": (8_412_017, 0.0),
            "192.168.4.1": (8_462_605, 0.00084),
        },
        "192.168.3.1": {
            "192.168.2.1": (8_430_867, 0.000106),
            "192.168.4.1": (8_262_605, 0.00084),
        },
        "192.168.4.1": {
            "192.168.2.1": (8_230_867, 0.000106),
            "192.168.3.1": (8_212_017, 0.0),
        },
    }
