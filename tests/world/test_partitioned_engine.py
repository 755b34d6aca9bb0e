"""The partitioned engine vs the single-threaded oracle, end to end.

The single wheel is the reference: the committed golden table
(``test_catalog_golden``) was written by it, and every catalog row run
on the district-sharded engine must match its row in every field but
the capture order (shards append capture records window by window).
The other tests pin what that comparison cannot see: ``district_grid``
really shards into windows, the catalog's scale worlds collapse to one
district, and the forked multiprocess backend (whose result has no
capture trace) reports exactly what the inline partitioned engine
reports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.world import SpecError, World, run_world, run_world_mp, spec_partition_map
from repro.world.engine import run_world_partitioned
from repro.world.scenarios import (
    SCENARIO_SPECS,
    SMALL_SCALE_OVERRIDES,
    district_grid_spec,
    serving_grid_spec,
)

from .test_catalog_golden import (
    assert_matches_golden,
    golden_rows,
    moved_fields,
    outcome_fingerprint,
    row_keys,
)

#: The catalog's shared test sizes for its scale worlds.
SCALE = {
    name: (SCENARIO_SPECS[name], SMALL_SCALE_OVERRIDES[name])
    for name in ("metro_backbone", "media_city", "churn_backbone")
}


def _row_case(entry: str, seed: int, params: dict):
    """One golden row as a case named ``seed-entry`` (plus its parameters
    when they are not the entry's test sizes)."""
    case_id = f"{seed}-{entry}"
    if params != SMALL_SCALE_OVERRIDES.get(entry, {}):
        case_id += "-" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return pytest.param(entry, seed, params, id=case_id)


@pytest.mark.parametrize("entry, seed, params", [_row_case(*key) for key in row_keys()])
def test_partitioned_engine_matches_single_oracle(entry, seed, params):
    assert_matches_golden(golden_rows(entry, seeds=(seed,), params=params), "partitioned")


def test_district_grid_actually_shards():
    spec = district_grid_spec(districts=3, leaves_per_district=2)
    pmap, hosts_of = spec_partition_map(spec)
    assert pmap.count == 3
    assert pmap.lookahead_us == 30_000
    # Every district got hosts, and the map renders.
    assert set(hosts_of) == {0, 1, 2}
    assert "lookahead" in pmap.describe(hosts_of)
    world = World.build(spec, engine="partitioned")
    engine = world.net.engine
    world.run_workload()
    assert engine.windows > 10
    by_pid = engine.events_by_partition()
    assert len(by_pid) == 3 and all(n > 50 for n in by_pid)


def test_catalog_scale_worlds_collapse_to_one_district():
    for name in ("metro_backbone", "media_city", "churn_backbone"):
        builder, params = SCALE[name]
        pmap, _ = spec_partition_map(builder(**params))
        assert pmap.count == 1, f"{name} unexpectedly multi-district"


def test_multiprocess_backend_matches_inline():
    spec = district_grid_spec(districts=3, leaves_per_district=2,
                              run_us=2_000_000)
    inline = run_world_partitioned(spec, seed=0)
    mp = run_world_mp(spec, seed=0)
    assert mp["backend"] == "multiprocess"
    assert mp["processes"] == 3
    for key in ("partitions", "lookahead_us", "events_fired",
                "events_by_partition", "windows", "unrouted", "extras",
                "latency_us", "results"):
        assert mp[key] == inline[key], key
    assert mp["extras"]["ping_received"] > 0
    assert mp["extras"]["chatter_found_rate"] > 0.8


def test_importing_the_world_api_skips_multiprocessing():
    """Only :func:`run_world_mp` forks, so only it loads multiprocessing
    (and the socket, pickle, select and signal modules it brings)."""
    code = (
        "import sys, repro.world, repro.world.scenarios; "
        "print(sorted({'multiprocessing', 'socket', 'pickle', 'select', "
        "'signal'} & set(sys.modules)))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_multiprocess_backend_matches_inline_for_serving():
    """The serving tier's query/response streams are byte-identical under
    the forked backend: every client row (sent, hits, staleness, latency
    buckets) merges back to exactly the inline run's values."""
    spec = serving_grid_spec(districts=3, leaves_per_district=2,
                             clients_per_leaf=1, queries_per_client=8,
                             run_us=2_000_000)
    inline = run_world_partitioned(spec, seed=0)
    mp = run_world_mp(spec, seed=0)
    assert mp["backend"] == "multiprocess"
    assert mp["processes"] == 3
    for key in ("partitions", "lookahead_us", "events_fired",
                "events_by_partition", "windows", "unrouted", "extras",
                "latency_us", "results"):
        assert mp[key] == inline[key], key
    assert mp["load_groups"]["query"] == inline["load_groups"]["query"]
    assert mp["extras"]["query_responses"] > 0
    assert mp["extras"]["query_hit_rate"] == 1.0


def test_mp_driver_falls_back_inline_for_single_district():
    builder, params = SCALE["churn_backbone"]
    result = run_world_mp(builder(**params), seed=0)
    assert result["backend"] == "inline"
    assert result["partitions"] == 1


def test_churn_under_partitioned_engine_matches_single():
    """Detach/reattach cycles (fleet churn) with the engine bound: the
    reattach path must restore per-partition placement and caches, and
    the run must match the single wheel's golden row."""
    (row,) = golden_rows("churn_backbone", seeds=(0,))
    builder, params = SCALE["churn_backbone"]
    sharded = run_world(builder(**params), seed=0, engine="partitioned", capture=True)
    assert sharded.extras["churn_rejoins"] > 0
    assert moved_fields(row, outcome_fingerprint(sharded), "partitioned") == []


def test_partitioned_spec_freezes_map_on_single_engine_too():
    spec = district_grid_spec(districts=3, leaves_per_district=2)
    assert spec.partitioned
    world = World.build(spec, engine="single")
    assert world.engine_kind == "single"
    assert world.net.engine is None
    assert world.net.partition_map is not None
    assert world.net.partition_map.count == 3


def test_bridged_resolver_host_is_a_spec_error():
    from repro.world import BridgeSpec, HostSpec, RingOwnerLeaf, SegmentSpec, WorldSpec

    spec = WorldSpec(
        name="bad",
        elements=(
            SegmentSpec("leaf"),
            HostSpec("gw", segment=RingOwnerLeaf("fleet", "svc")),
            BridgeSpec("gw", ("leaf",)),
        ),
    )
    with pytest.raises(SpecError, match="placement resolver"):
        spec_partition_map(spec)


def test_ping_spec_validation():
    from repro.world import HostSpec, Ping, WorldSpec

    bad = WorldSpec(
        name="bad",
        elements=(HostSpec("a"), Ping("a", "nowhere", 1_000)),
    )
    assert any("nowhere" in p for p in bad.problems())
    zero = WorldSpec(
        name="bad2",
        elements=(HostSpec("a"), HostSpec("b"), Ping("a", "b", 0)),
    )
    assert zero.problems()


def test_describe_prints_partition_map(capsys):
    from repro.world.__main__ import main

    assert main(["prog", "describe", "district_grid", "districts=3"]) == 0
    out = capsys.readouterr().out
    assert "partitions: 3 (lookahead 30000 us)" in out
    assert "cross link: lan0 <-> grid1 (30000 us)" in out
