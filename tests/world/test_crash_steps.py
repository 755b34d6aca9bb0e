"""Crash/Restart workload steps: spec validation, world application, the
detector knobs on FleetSpec, and the crash_recovery scenario end to end."""

import pytest

from repro.world import (
    BridgeSpec,
    BuildError,
    ClockDevice,
    Crash,
    FleetSpec,
    HostSpec,
    IndissApp,
    Probe,
    Restart,
    Run,
    SegmentSpec,
    SlpClient,
    SpecError,
    World,
    WorldSpec,
    run_world,
)
from repro.world.scenarios import SCENARIO_SPECS, crash_recovery_spec

from net.introspect import is_crashed


def fleet_spec(workload, suspect_after=None, dead_after=None) -> WorldSpec:
    """Two federated leaf gateways, a client behind one, a clock device
    behind the other: the smallest world a gateway crash can hurt."""
    elements = [
        SegmentSpec("leafA", link_to="lan0"),
        SegmentSpec("leafB", link_to="lan0"),
        HostSpec("gwA", segment="leafA"),
        BridgeSpec("gwA", ("lan0",)),
        IndissApp(host="gwA", profile="fleet"),
        HostSpec("gwB", segment="leafB"),
        BridgeSpec("gwB", ("lan0",)),
        IndissApp(host="gwB", profile="fleet", seed_offset=1),
        FleetSpec(
            "fleet", "lan0", ("gwA", "gwB"), 100_000,
            suspect_after=suspect_after, dead_after=dead_after,
        ),
        HostSpec("client", segment="leafA", apps=(SlpClient(),)),
        HostSpec(
            "service", segment="leafB", apps=(ClockDevice(advertise=True),)
        ),
    ]
    return WorldSpec(
        name="crash_world", elements=tuple(elements), workload=tuple(workload)
    )


class TestSpecValidation:
    def test_crash_and_restart_steps_validate(self):
        fleet_spec(
            (Run(10_000), Crash("gwB"), Run(10_000), Restart("gwB", bootstrap=True))
        ).validate()

    def test_unknown_host_rejected(self):
        with pytest.raises(SpecError, match="unknown host"):
            fleet_spec((Crash("ghost"),)).validate()
        with pytest.raises(SpecError, match="unknown host"):
            fleet_spec((Restart("ghost"),)).validate()

    def test_detector_knobs_validated(self):
        with pytest.raises(SpecError, match="suspect_after"):
            fleet_spec((), suspect_after=0).validate()
        with pytest.raises(SpecError, match="dead_after"):
            fleet_spec((), dead_after=3).validate()
        fleet_spec((), suspect_after=3, dead_after=2).validate()


class TestApplication:
    def test_crash_step_arms_adversity_at_build_time(self):
        armed = World.build(
            fleet_spec((Crash("gwB"), Run(1_000), Restart("gwB"))), seed=0
        )
        assert armed.net._adversity

    def test_crash_then_restart_rejoins_the_fleet(self):
        world = World.build(
            fleet_spec(
                (
                    Run(500_000),
                    Crash("gwB"),
                    Run(500_000),
                    Restart("gwB", bootstrap=True),
                    Run(500_000),
                ),
                suspect_after=3, dead_after=1,
            ),
            seed=0,
        )
        fleet = world.fleets["fleet"]
        gwb = world.hosts["gwB"].address
        world.run_workload()
        # Back in the network, back in the fleet, back on the ring.
        assert not is_crashed(world.net, gwb)
        assert gwb in fleet.members and gwb in fleet.ring
        assert fleet.members[gwb].gossiper is not None
        assert not fleet.health.is_down(gwb)
        # The crash really passed through the detector while it was down.
        assert any(s == "dead" and m == gwb for _, m, s in fleet.health.transitions)
        assert fleet.repairs and fleet.repairs[0][1] == gwb
        # The restarted instance mints post-crash session ids only.
        source = world.net.session_id_source(world.hosts["gwB"])
        assert source is not None and source() >= 1001 * 10**8

    def test_crash_restart_works_for_plain_hosts_too(self):
        # No INDISS, no fleet membership: the steps degrade to the pure
        # network-level crash/restart.
        world = World.build(
            fleet_spec(
                (Run(10_000), Crash("service"), Run(10_000), Restart("service"))
            ),
            seed=0,
        )
        world.run_workload()
        assert not is_crashed(world.net, world.hosts["service"].address)

    def test_restart_without_crash_fails_loudly(self):
        world = World.build(fleet_spec((Restart("gwB"),)), seed=0)
        with pytest.raises(BuildError, match="not crashed"):
            world.run_workload()

    def test_armed_detector_without_crash_changes_nothing(self):
        """FleetSpec detector knobs set, no Crash step: the probe family
        must be bit-identical to the detector-off world."""
        workload = (
            Run(1_200_000),
            Probe(
                "find", "service:clock", host="client",
                horizon_us=1_000_000, headline=True,
            ),
        )
        off = run_world(fleet_spec(workload), seed=0)
        armed = run_world(
            fleet_spec(workload, suspect_after=4, dead_after=2), seed=0
        )
        assert armed.results == off.results
        assert armed.latency_us == off.latency_us
        assert armed.extras == off.extras


class TestCrashRecoveryScenario:
    def test_registered_and_valid(self):
        assert "crash_recovery" in SCENARIO_SPECS
        crash_recovery_spec().validate()

    def test_cycle_detects_repairs_and_recovers(self):
        outcome = run_world(crash_recovery_spec(segments=4, nodes=60), seed=0)
        extras = outcome.extras
        for phase in ("pre", "during", "post"):
            assert extras[f"{phase}_results"] >= 1, phase
        health = extras["health"]
        victim = extras["crashed_member"]
        dead = [
            (t, m) for t, m, s in health["detector_transitions"]
            if s == "dead"
        ]
        assert len(dead) == 1
        assert [m for _, m in health["ring_repairs"]] == [dead[0][1]]
        assert health["bootstrap_completed_at"], "bootstrap never completed"
        # The restart wiped the verdicts: nobody is suspected or dead now.
        assert health["dead_now"] == [] and health["suspects_now"] == []
        assert victim  # the Emit carried the spec's victim through
        assert extras["detect_bound_us"] == 2_000_000

    def test_runs_are_deterministic(self):
        spec = crash_recovery_spec(segments=4, nodes=60)
        first = run_world(spec, seed=9)
        second = run_world(spec, seed=9)
        assert first.extras == second.extras
        assert first.latency_us == second.latency_us
