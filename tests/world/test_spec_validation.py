"""Spec-layer validation and the ``python -m repro.world`` CLI."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.world
from repro.world import (
    BridgeSpec,
    Chatter,
    Check,
    Delta,
    Fill,
    FleetSpec,
    HostSpec,
    IndissApp,
    Ping,
    Probe,
    QueryFrontendApp,
    RingOwnerLeaf,
    SegmentSpec,
    SetConfig,
    SlpClient,
    Snapshot,
    SpecError,
    TypeSweepReport,
    WorldSpec,
)
from repro.world.build import SPEC_TABLE
from repro.world.scenarios import SCENARIO_SPECS
from repro.world.spec import _Element, _Step

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli(*args):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-m", "repro.world", *args], capture_output=True, text=True, env=env,
    )


def _late_world(*workload, extra=()):
    """A valid world for one suspect step or element to be added to."""
    return WorldSpec(
        "late",
        elements=(
            SegmentSpec("leaf", link_to="lan0"),
            HostSpec("gw", apps=(IndissApp(profile="fleet"),)),
            HostSpec("client", segment="leaf", apps=(SlpClient(),)),
            FleetSpec("fleet", "lan0", ("gw",)),
            *extra,
        ),
        workload=workload,
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

    def test_set_config_names_an_indiss_config_field(self):
        # A typo would otherwise create a new attribute and leave the
        # field the author meant at its old value.
        spec = _late_world(SetConfig("answer_from_cahce", True, hosts=("gw",)))
        with pytest.raises(SpecError, match="'answer_from_cahce' is not an Indiss"):
            spec.validate()
        _late_world(SetConfig("answer_from_cache", True, hosts=("gw",))).validate()

    def test_negative_workload_fill_rejected(self):
        # The budget sums element and workload fills, so a negative
        # workload fill would hide an oversized element fill.
        spec = WorldSpec("bad", elements=(Fill(400),), workload=(Fill(-300),))
        with pytest.raises(SpecError, match=r"workload\[0\]: negative fill"):
            spec.validate()

    @pytest.mark.parametrize("spec, problem", [
        pytest.param(
            _late_world(Check("cache_full", host="gw")),
            r"workload\[0\]: unknown check kind 'cache_full'",
            id="check-kind",
        ),
        pytest.param(
            _late_world(Check("cache_nonempty")),
            r"workload\[0\]: Check names no host",
            id="check-no-host",
        ),
        pytest.param(
            _late_world(Check("cache_nonempty", host="client")),
            "host 'client' carries no IndissApp",
            id="check-host-no-indiss",
        ),
        pytest.param(
            _late_world(Delta("d", "translations", "nope")),
            "unknown snapshot 'nope'",
            id="delta-unknown-snapshot",
        ),
        pytest.param(
            _late_world(Snapshot("s", ("translation",))),
            "unknown metric 'translation'",
            id="snapshot-metric",
        ),
        pytest.param(
            _late_world(
                Snapshot("s", ("translations",)), Delta("d", "cache_answers:client", "s")
            ),
            r"workload\[1\]: metric 'cache_answers:client'",
            id="delta-metric",
        ),
        pytest.param(
            _late_world(
                Probe("p", "service:x", segment="leaf"),
                TypeSweepReport("fleet", (("x", True, "q"),)),
            ),
            r"workload\[1\]: unknown probe 'q'",
            id="sweep-unknown-probe",
        ),
        pytest.param(
            _late_world(Probe("p", "upnp:x", kind="upnp", host="client")),
            "probe host 'client' has no ControlPoint",
            id="probe-host-no-agent",
        ),
        pytest.param(
            _late_world(
                Probe("p", "service:x", host="client"),
                Probe("p", "service:y", host="client"),
            ),
            r"workload\[1\]: duplicate probe name 'p'",
            id="probe-duplicate",
        ),
        pytest.param(
            _late_world(extra=(
                HostSpec("fe"), QueryFrontendApp(host="fe"), IndissApp(host="fe"),
            )),
            r"elements\[5\]: QueryFrontendApp needs an IndissApp on 'fe' first",
            id="frontend-before-indiss",
        ),
        pytest.param(
            _late_world(extra=(Ping("gw", "client", 1_000, port=70_000),)),
            "ping port 70000 outside 0-65535",
            id="ping-port",
        ),
    ])
    def test_late_failures_are_spec_errors(self, spec, problem):
        """Each spec here passed validation once and then failed (or
        misbehaved) only mid-run."""
        with pytest.raises(SpecError, match=problem):
            spec.validate()

    def test_every_spec_kind_has_one_table_entry_and_a_check(self):
        not_kinds = {
            "WorldSpec", "ScenarioOutcome", "RingOwnerLeaf", "SlpServiceReg",
            "JiniItem",
        }
        kinds = {
            getattr(repro.world, name)
            for name in repro.world.__all__
            if name not in not_kinds
            and dataclasses.is_dataclass(getattr(repro.world, name))
        }
        assert set(SPEC_TABLE) == kinds
        for kind in kinds:
            assert issubclass(kind, (_Element, _Step)), kind
            assert callable(kind.check), kind

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

    def test_validate_checks_the_partition_map_of_partitioned_specs(
        self, monkeypatch, capsys
    ):
        from repro.world.__main__ import main

        unpartitionable = WorldSpec(
            "bridged_resolver",
            elements=(
                SegmentSpec("leaf", link_to="lan0"),
                HostSpec("gw0", apps=(IndissApp(profile="fleet"),)),
                FleetSpec("fleet", "lan0", ("gw0",)),
                HostSpec("gw", segment=RingOwnerLeaf("fleet", "svc")),
                BridgeSpec("gw", ("leaf",)),
            ),
            partitioned=True,
        )
        unpartitionable.validate()  # the schema alone is fine
        monkeypatch.setitem(SCENARIO_SPECS, "bridged_resolver", lambda: unpartitionable)
        assert main(["prog", "validate"]) == 1
        assert "FAIL bridged_resolver: " in capsys.readouterr().err

    def test_builder_shape_error_is_one_line(self):
        for args in (("media_city", "districts=100"),
                     ("federated_campus", "segments=1")):
            result = _cli("describe", *args)
            assert result.returncode != 0
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"invalid {args[0]} parameters: ")
