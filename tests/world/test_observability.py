"""The flight recorder end to end: recorded runs stay bit-identical
across engines, and the recording itself is exact across backends.

This is the recorded twin of ``test_partitioned_engine``: the same
single == partitioned == multiprocess contract, but with metrics and
trace recording enabled — recording must observe the run without
perturbing it (every golden row of ``test_catalog_golden`` runs recorded),
and the per-district timelines merged from forked workers must equal the
inline timeline record for record.
"""

import re

import pytest

from repro.world import World, run_world, run_world_mp
from repro.world.engine import run_world_partitioned
from repro.world.scenarios import district_grid_spec, metro_backbone_spec

from .test_catalog_golden import assert_matches_golden, load_golden

GRID_PARAMS = {"districts": 3, "leaves_per_district": 2, "run_us": 2_000_000}
METRO_PARAMS = {"districts": 2, "leaves_per_district": 3, "nodes": 300,
                "chatter_per_leaf": 2, "run_us": 2_500_000}

#: Extras keys that only exist on recorded runs (percentiles from rows).
_LATENCY_KEY = re.compile(r"_latency_(count|p\d+_us)$")


def _signature(outcome):
    return {
        "events_fired": outcome.world.scheduler.events_fired,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "extras": outcome.extras,
        "nodes": outcome.world.node_count,
    }


class TestRecordingIsTransparent:
    def test_outcome_metrics_absent_when_off(self):
        outcome = run_world(metro_backbone_spec(**METRO_PARAMS), seed=0, engine="single")
        assert outcome.metrics is None
        assert not any(_LATENCY_KEY.search(k) for k in outcome.extras)

    def test_recording_does_not_perturb_the_schedule(self):
        assert_matches_golden(list(load_golden()), "recorded")

    def test_chatter_percentiles_appear_only_when_recorded(self):
        spec = metro_backbone_spec(**METRO_PARAMS)
        recorded = run_world(spec, seed=0, engine="single", record=True)
        assert recorded.extras["chatter_latency_count"] > 0
        p50 = recorded.extras["chatter_latency_p50_us"]
        p99 = recorded.extras["chatter_latency_p99_us"]
        assert 0 < p50 <= p99


class TestRecordedRunContents:
    @pytest.fixture(scope="class")
    def recorded(self):
        spec = metro_backbone_spec(**METRO_PARAMS)
        world = World.build(spec, record=True)
        world.run_workload()
        return world, world.outcome()

    def test_metrics_snapshot_attached(self, recorded):
        world, outcome = recorded
        metrics = outcome.metrics
        assert metrics["global"]["events_fired"] == \
            world.net.scheduler.events_fired
        counters = metrics["counters"]
        assert any(k.startswith("core.monitor.frames") for k in counters)
        assert any(k.startswith("net.segment.frames") for k in counters)
        assert any(k.startswith("federation.rounds") for k in counters)
        assert any(k.startswith("world.search.latency_us")
                   for k in metrics["histograms"])

    def test_session_spans_link_to_monitor_frames(self, recorded):
        """Causality: a translation session's frame identity matches a
        monitored frame seen earlier on the wire."""
        world, _ = recorded
        records = world.recording.trace.records
        rx_frames = {r["args"]["frame"] for r in records
                     if r["name"] == "monitor.rx"}
        sessions = [r for r in records if r["name"] == "session.open"]
        assert sessions
        assert all(s["args"]["frame"] in rx_frames for s in sessions)

    def test_session_spans_carry_outcomes(self, recorded):
        world, _ = recorded
        spans = [r for r in world.recording.trace.records
                 if r["name"] == "session" and r["ph"] == "X"]
        assert spans
        assert {s["args"]["outcome"] for s in spans} <= \
            {"translated", "cache", "silent"}
        assert all(s["dur"] >= 0 for s in spans)

    def test_gossip_rounds_recorded(self, recorded):
        world, _ = recorded
        names = {r["name"] for r in world.recording.trace.records}
        assert "gossip.round" in names
        assert "gossip.exchange" in names


class TestRecordedEngineParity:
    def test_single_vs_partitioned_bit_identical(self):
        spec = district_grid_spec(**GRID_PARAMS)
        single = run_world(spec, seed=0, engine="single", record=True)
        sharded = run_world(spec, seed=0, engine="partitioned", record=True)
        assert _signature(sharded) == _signature(single)
        # Simulation-level counters and histograms are engine-independent.
        # The engine's own self-description is engine-specific by design:
        # engine.* counters/gauges exist only on the sharded backend,
        # net.wheel.* gauges only on the single wheel.
        def sim_level(metrics):
            return {k: v for k, v in metrics.items()
                    if not k.startswith("engine.")}

        assert sim_level(sharded.metrics["counters"]) == \
            single.metrics["counters"]
        assert sharded.metrics["histograms"] == single.metrics["histograms"]
        assert sharded.metrics["global"] == single.metrics["global"]
        assert any(k.startswith("engine.windows")
                   for k in sharded.metrics["counters"])
        assert not any(k.startswith("engine.")
                       for k in single.metrics["counters"])

    def test_engine_timeline_has_window_and_stall_spans(self):
        spec = district_grid_spec(**GRID_PARAMS)
        world = World.build(spec, engine="partitioned", record=True)
        world.run_workload()
        records = world.recording.trace.records
        windows = [r for r in records if r["name"] == "engine.window"]
        assert {r["pid"] for r in windows} == {0, 1, 2}
        assert all(r["dur"] > 0 for r in windows)
        # A 3-district grid is never perfectly balanced: some district
        # idles out before its window edge at least once.
        assert any(r["name"] == "engine.stall" for r in records)

    def test_multiprocess_timeline_merges_exactly(self):
        """The ISSUE's hardest acceptance line: forked per-district
        workers, recording on, merged timelines == inline, bit for bit."""
        spec = district_grid_spec(**GRID_PARAMS)
        inline = run_world_partitioned(spec, seed=0, record=True)
        mp = run_world_mp(spec, seed=0, record=True)
        assert mp["backend"] == "multiprocess"
        for key in ("partitions", "lookahead_us", "events_fired",
                    "events_by_partition", "windows", "unrouted", "extras",
                    "latency_us", "results"):
            assert mp[key] == inline[key], key
        # Merged worker metrics equal the inline registry exactly —
        # gauges included, because each is only written by its owner.
        assert mp["obs"]["metrics"] == inline["obs"]["metrics"]
        # And the merged per-district span streams are identical.
        assert mp["obs"]["spans"] == inline["obs"]["spans"]
        assert any(r["name"] == "engine.window" for r in mp["obs"]["spans"])

    def test_mp_without_recording_has_no_obs(self):
        spec = district_grid_spec(**GRID_PARAMS)
        assert run_world_partitioned(spec, seed=0)["obs"] is None


class TestRunCli:
    def test_run_writes_artifacts(self, tmp_path, monkeypatch, capsys):
        from repro.world.__main__ import main

        monkeypatch.chdir(tmp_path)
        code = main(["prog", "run", "slp_to_upnp_gateway",
                     "--trace", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency_us=" in out
        assert (tmp_path / "slp_to_upnp_gateway.trace.json").exists()
        assert (tmp_path / "slp_to_upnp_gateway.metrics.jsonl").exists()

        from repro.obs.export import read_chrome_trace, read_metrics_jsonl

        lines = read_metrics_jsonl(
            str(tmp_path / "slp_to_upnp_gateway.metrics.jsonl"))
        assert any(line["kind"] == "counter" for line in lines)
        trace = read_chrome_trace(
            str(tmp_path / "slp_to_upnp_gateway.trace.json"))
        assert any(e.get("ph") == "i" for e in trace["traceEvents"])

    def test_run_without_flags_records_nothing(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.world.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["prog", "run", "slp_to_upnp_gateway"]) == 0
        assert list(tmp_path.iterdir()) == []
