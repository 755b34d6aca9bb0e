"""Receive filters change host work, never the simulation.

With every socket filter ignored, each handler sees every frame again
and drops the unwanted ones itself.  The clean cases run every golden
row of a catalog entry that way and compare it with its row in every
field but the full extras digest (with filters ignored, handlers decode
frames they then drop; ``test_catalog_golden.VARIANT_EXTRAS``).  The
lossy cases put a Bernoulli loss model on one leaf segment, which pins
the per-receiver loss-draw order: the draw happens before the filter is
consulted, so filtered receivers still draw.  Each lossy world runs
twice with one seed, once as built and once with filters ignored, and
the fired event schedule and outcome must be identical, apart from the
count of shared decodes.  Both runs share one process; each world's
network mints its own session ids, so the first run cannot shift the
second's payloads.
"""

from dataclasses import replace

import pytest

from repro.world import Fault, World
from repro.world.scenarios import (
    SCENARIO_SPECS,
    district_grid_spec,
    media_city_spec,
    serving_backbone_spec,
)

from net.introspect import bound_ports

from .test_catalog_golden import assert_matches_golden, entry_rows, ignore_receive_filters

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


#: Clean cases: every catalog entry but ``media_city`` (the control-point
#: case below).  Lossy cases: the two :data:`WORLDS` with a leaf to degrade.
CASES = [
    pytest.param(name, False, id=f"{name}-clean")
    for name in sorted(SCENARIO_SPECS) if name != "media_city"
] + [
    pytest.param(name, True, id=f"{name}-lossy")
    for name in ("serving_backbone", "district_grid")
]


@pytest.mark.parametrize("name, lossy", CASES)
def test_filters_do_not_change_the_run(monkeypatch, name, lossy):
    if not lossy:
        ignore_receive_filters(monkeypatch)
        assert_matches_golden(entry_rows(name), "filters_ignored")
        return
    filtered = run(name, lossy=True)
    ignore_receive_filters(monkeypatch)
    assert len(filtered["fire_log"]) > 100
    assert filtered == run(name, lossy=True)
    clean = run(name, lossy=False)
    assert filtered["fire_log"] != clean["fire_log"], "the leaf lost frames"


def test_control_point_filters_do_not_change_the_run(monkeypatch):
    ignore_receive_filters(monkeypatch)
    assert_matches_golden(entry_rows("media_city"), "filters_ignored")


def test_filters_are_declared_where_handlers_dropped_frames():
    """The filters under test are really installed (so the comparisons
    above are not vacuous)."""
    world = World.build(WORLDS["media_city"][0](), seed=3)
    filtered = {
        sock.receive_filter.classify.__name__
        for node in world.net.nodes
        if node.udp_stack is not None
        for port in bound_ports(node.udp_stack)
        for sock in node.udp_stack.sockets_for(port)
        if sock.receive_filter is not None
    }
    assert {"peek_ssdp_kind", "peek_function_id"} <= filtered
