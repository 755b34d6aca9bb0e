"""Receive filters change host work, never the simulation.

Each world runs twice with one seed: once as built, and once with every
socket filter ignored, so each handler sees every frame again and drops
the unwanted ones itself.  The fired event schedule and the outcome must be
identical, apart from the count of shared decodes (with filters ignored,
handlers decode frames they then drop).  The lossy variants put a
Bernoulli loss model on one leaf segment, which pins the per-receiver
loss-draw order: the draw happens before the filter is consulted, so
filtered receivers still draw.  Both runs share one process; each world's
network mints its own session ids, so the first run cannot shift the
second's payloads.
"""

from dataclasses import replace

import pytest

from repro.net import UdpSocket
from repro.world import Fault, World
from repro.world.scenarios import district_grid_spec, media_city_spec, serving_backbone_spec

WORLDS = {
    "serving_backbone": (
        lambda: serving_backbone_spec(
            members=3, nodes=30, service_types=6, cold_types=2, clients_per_leaf=1,
            queries_per_client=12, mean_interval_us=20_000, notify_period_us=100_000,
            run_us=1_500_000,
        ),
        "leaf0",
    ),
    "district_grid": (
        lambda: district_grid_spec(districts=2, leaves_per_district=2, run_us=1_500_000),
        "g0l0",
    ),
    "media_city": (
        lambda: media_city_spec(
            districts=1, leaves_per_district=2, nodes=60, devices_per_leaf=2,
            cp_per_leaf=2, run_us=1_500_000,
        ),
        None,
    ),
}


def run(name: str, lossy: bool):
    build_spec, leaf = WORLDS[name]
    spec = build_spec()
    if lossy:
        spec = replace(
            spec,
            workload=(Fault("degrade", segment=leaf, rate=0.2, seed_offset=5),)
            + tuple(spec.workload),
        )
    world = World.build(spec, seed=3)
    world.net.scheduler.fire_log = []
    world.run_workload()
    outcome = world.outcome()
    hotpaths = outcome.extras.get("hotpaths")
    if hotpaths is not None:
        hotpaths.pop("parse_shared")
    return {
        "fire_log": world.net.scheduler.fire_log,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "extras": outcome.extras,
        "messages": world.net.traffic.total_messages,
        "bytes": world.net.traffic.total_bytes,
    }


def ignore_filters(monkeypatch):
    monkeypatch.setattr(
        UdpSocket, "set_receive_filter", lambda self, classify, admitted: self
    )


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
@pytest.mark.parametrize("name", ["serving_backbone", "district_grid"])
def test_filters_do_not_change_the_run(monkeypatch, name, lossy):
    filtered = run(name, lossy)
    ignore_filters(monkeypatch)
    unfiltered = run(name, lossy)
    assert len(filtered["fire_log"]) > 100
    assert filtered == unfiltered
    if lossy:
        clean = run(name, lossy=False)
        assert filtered["fire_log"] != clean["fire_log"], "the leaf lost frames"


def test_control_point_filters_do_not_change_the_run(monkeypatch):
    filtered = run("media_city", lossy=False)
    ignore_filters(monkeypatch)
    assert filtered == run("media_city", lossy=False)


def test_filters_are_declared_where_handlers_dropped_frames():
    """The filters under test are really installed (so the comparison
    above is not vacuous)."""
    world = World.build(WORLDS["media_city"][0](), seed=3)
    filtered = {
        sock.receive_filter.classify.__name__
        for node in world.net.nodes
        if node.udp_stack is not None
        for port in node.udp_stack.bound_ports()
        for sock in node.udp_stack.sockets_for(port)
        if sock.receive_filter is not None
    }
    assert {"peek_ssdp_kind", "peek_function_id"} <= filtered
