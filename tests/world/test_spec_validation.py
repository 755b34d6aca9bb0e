"""Spec-layer validation and the ``python -m repro.world`` CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.world import (
    BridgeSpec,
    Chatter,
    Fill,
    FleetSpec,
    HostSpec,
    IndissApp,
    Probe,
    SegmentSpec,
    SlpClient,
    SpecError,
    WorldSpec,
)
from repro.world.scenarios import SCENARIO_SPECS

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.world", *args],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


class TestValidation:
    def test_every_registered_spec_validates(self):
        for name, builder in SCENARIO_SPECS.items():
            builder().validate()  # must not raise

    def test_duplicate_segment_rejected(self):
        spec = WorldSpec(
            "bad", elements=(SegmentSpec("a"), SegmentSpec("a")), workload=()
        )
        with pytest.raises(SpecError, match="duplicate segment"):
            spec.validate()

    def test_unknown_segment_reference_rejected(self):
        spec = WorldSpec("bad", elements=(HostSpec("h", segment="nope"),))
        with pytest.raises(SpecError, match="unknown segment"):
            spec.validate()

    def test_unknown_host_in_app_rejected(self):
        spec = WorldSpec("bad", elements=(SlpClient(host="ghost"),))
        with pytest.raises(SpecError, match="unknown host"):
            spec.validate()

    def test_fleet_member_without_indiss_rejected(self):
        spec = WorldSpec(
            "bad",
            elements=(
                HostSpec("gw"),
                FleetSpec("fleet", "lan0", ("gw",)),
            ),
        )
        with pytest.raises(SpecError, match="no INDISS app"):
            spec.validate()

    def test_bridge_to_unknown_segment_rejected(self):
        spec = WorldSpec(
            "bad", elements=(HostSpec("gw"), BridgeSpec("gw", ("nope",)))
        )
        with pytest.raises(SpecError, match="unknown segment"):
            spec.validate()

    def test_probe_without_anchor_rejected(self):
        spec = WorldSpec("bad", workload=(Probe("p", "service:x"),))
        with pytest.raises(SpecError, match="needs a host or a segment"):
            spec.validate()

    def test_chatter_on_unknown_leaf_rejected(self):
        spec = WorldSpec(
            "bad", workload=(Chatter(("ghost",), ("t",), 1, 100_000),)
        )
        with pytest.raises(SpecError, match="unknown"):
            spec.validate()

    def test_subnet_budget_guard_catches_oversized_fill(self):
        # One /24 segment cannot hold a 10_000-node fill.
        spec = WorldSpec("bad", elements=(Fill(10_000),))
        with pytest.raises(SpecError, match="exceeds the combined subnet capacity"):
            spec.validate()

    def test_subnet_collision_rejected(self):
        spec = WorldSpec(
            "bad",
            elements=(
                SegmentSpec("a", subnet="10.1"),
                SegmentSpec("b", subnet="10.1"),
            ),
        )
        with pytest.raises(SpecError, match="share subnet"):
            spec.validate()

    def test_shape_guards_still_raise_like_the_legacy_builders(self):
        from repro.world.scenarios import (
            gateway_chain_spec,
            media_city_spec,
            metro_backbone_spec,
            sharded_backbone_spec,
        )

        with pytest.raises(ValueError, match="at least two segments"):
            gateway_chain_spec(segments=1)
        with pytest.raises(ValueError, match="at least two fleet members"):
            sharded_backbone_spec(members=1)
        with pytest.raises(ValueError, match="at most 199 leaves"):
            metro_backbone_spec(districts=40, leaves_per_district=8)
        with pytest.raises(ValueError, match="at most 56 districts"):
            media_city_spec(districts=60, leaves_per_district=1)

    def test_describe_renders_every_spec(self):
        for name, builder in SCENARIO_SPECS.items():
            text = builder().describe()
            assert text.startswith(f"world {name}")
            assert "workload:" in text


class TestCli:
    def test_validate_passes_over_the_catalog(self):
        result = _cli("validate")
        assert result.returncode == 0, result.stderr
        assert f"all {len(SCENARIO_SPECS)} scenario specs valid" in result.stdout

    def test_list_shows_every_scenario(self):
        result = _cli("list")
        assert result.returncode == 0, result.stderr
        for name in SCENARIO_SPECS:
            assert name in result.stdout

    def test_describe_with_params(self):
        result = _cli("describe", "gateway_chain", "segments=5")
        assert result.returncode == 0, result.stderr
        assert "world gateway_chain" in result.stdout
        assert "valid" in result.stdout

    def test_describe_parses_float_params(self):
        result = _cli("describe", "partitioned_campus", "degrade_rate=0.2")
        assert result.returncode == 0, result.stderr
        assert "rate=0.2)" in result.stdout

    def test_describe_unknown_scenario_fails(self):
        result = _cli("describe", "no_such_world")
        assert result.returncode != 0
        assert "unknown scenario" in result.stderr

    def test_describe_invalid_params_fail_fast(self):
        result = _cli("describe", "gateway_chain", "segments=1")
        assert result.returncode != 0

    def test_unknown_param_lists_the_accepted_ones(self):
        result = _cli("run", "native_slp", "nodes=3")
        assert result.returncode != 0
        assert result.stderr.strip() == (
            "native_slp takes no parameter 'nodes'; accepted: none"
        )
        result = _cli("describe", "gateway_chain", "sgments=4")
        assert result.stderr.strip().endswith("accepted: segments")

    def test_builder_shape_error_is_one_line(self):
        for args in (("media_city", "districts=100"),
                     ("federated_campus", "segments=1")):
            result = _cli("describe", *args)
            assert result.returncode != 0
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"invalid {args[0]} parameters: ")
