"""Fault/Heal workload steps: spec validation, build-time application,
and the determinism contract of adversity-bearing worlds."""

import pytest

from repro.world import (
    BuildError,
    ClockDevice,
    Collect,
    Fault,
    Heal,
    HostSpec,
    IndissApp,
    Ping,
    Probe,
    Run,
    SegmentSpec,
    SlpClient,
    SpecError,
    World,
    WorldSpec,
    run_world,
)
from repro.world.scenarios import SCENARIO_SPECS, partitioned_campus_spec


def adversity_spec(workload, ping=False) -> WorldSpec:
    """Discovery stays leaf-local (client + INDISS'd clock share ``left``);
    the optional ping flow crosses the backbone, where faults land."""
    elements = [
        SegmentSpec("left", link_to="lan0"),
        SegmentSpec("right", link_to="lan0"),
        SegmentSpec("spare", link_to="left"),
        HostSpec("client", segment="left", apps=(SlpClient(),)),
        HostSpec(
            "service",
            segment="left",
            apps=(ClockDevice(), IndissApp(deployment="service")),
        ),
    ]
    if ping:
        elements += [
            HostSpec("pinger", segment="left"),
            HostSpec("sink", segment="right"),
            Ping("pinger", "sink", period_us=50_000),
        ]
    return WorldSpec(
        name="adversity", elements=tuple(elements), workload=tuple(workload)
    )


class TestSpecValidation:
    def test_fault_and_heal_steps_validate(self):
        adversity_spec(
            (
                Fault("degrade", link=("left", "lan0"), rate=0.1, model="gilbert"),
                Fault("cut", link=("right", "lan0")),
                Fault("isolate", segment="spare"),
                Fault("detach", host="service"),
                Heal("link", link=("right", "lan0")),
                Heal("attach", host="service"),
                Heal("clear", segment="spare"),
                Heal(),
            )
        ).validate()

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown fault kind"):
            adversity_spec((Fault("melt", link=("left", "lan0")),)).validate()

    def test_missing_operand_rejected(self):
        with pytest.raises(SpecError, match="needs link"):
            adversity_spec((Fault("cut"),)).validate()
        with pytest.raises(SpecError, match="needs host"):
            adversity_spec((Heal("attach"),)).validate()

    def test_degrade_needs_exactly_one_target(self):
        with pytest.raises(SpecError, match="exactly one of"):
            adversity_spec((Fault("degrade", rate=0.1),)).validate()
        with pytest.raises(SpecError, match="exactly one of"):
            adversity_spec(
                (Fault("degrade", link=("left", "lan0"), segment="spare", rate=0.1),)
            ).validate()

    def test_degrade_rate_and_model_checked(self):
        with pytest.raises(SpecError, match="not in"):
            adversity_spec((Fault("degrade", segment="spare", rate=1.0),)).validate()
        with pytest.raises(SpecError, match="unknown loss model"):
            adversity_spec(
                (Fault("degrade", segment="spare", rate=0.1, model="fog"),)
            ).validate()

    def test_non_numeric_degrade_rate_reported(self):
        with pytest.raises(SpecError, match="degrade rate '0.2' is not a number"):
            adversity_spec((Fault("degrade", segment="spare", rate="0.2"),)).validate()

    def test_unknown_references_rejected(self):
        with pytest.raises(SpecError, match="link end"):
            adversity_spec((Fault("cut", link=("left", "nowhere")),)).validate()
        with pytest.raises(SpecError, match="unknown segment"):
            adversity_spec((Fault("isolate", segment="nowhere"),)).validate()
        with pytest.raises(SpecError, match="unknown host"):
            adversity_spec((Fault("detach", host="ghost"),)).validate()


class TestApplication:
    def test_fault_step_arms_adversity_at_build_time(self):
        plain = World.build(adversity_spec(()), seed=0)
        assert not plain.net._adversity
        armed = World.build(
            adversity_spec((Fault("cut", link=("left", "lan0")), Heal())), seed=0
        )
        assert armed.net._adversity

    def test_cut_and_heal_round_trip(self):
        world = World.build(
            adversity_spec(
                (
                    Run(10_000),
                    Fault("cut", link=("left", "lan0")),
                    Run(10_000),
                    Heal("link", link=("left", "lan0")),
                )
            ),
            seed=0,
        )
        world.run_workload()
        assert world.net.router.down_pairs() == set()

    def test_ping_stalls_through_partition_and_resumes_after_heal(self):
        # The backbone link under the ping flow goes down mid-run: frames
        # sent during the outage drop (no duplicate delivery on heal), and
        # the flow resumes once the link is back.
        outcome = run_world(
            adversity_spec(
                (
                    Run(500_000),
                    Fault("cut", link=("left", "lan0")),
                    Run(500_000),
                    Heal("link", link=("left", "lan0")),
                    Run(500_000),
                    Collect("ping"),
                ),
                ping=True,
            ),
            seed=0,
        )
        extras = outcome.extras
        assert extras["ping_received"] > 0
        lost = extras["ping_sent"] - extras["ping_received"]
        # Roughly one outage worth of frames (~10 at 50ms period over
        # 500ms), never more than the outage could explain.
        assert 5 <= lost <= 15

    def test_detach_then_attach_restores_home_segments(self):
        world = World.build(
            adversity_spec(
                (
                    Run(10_000),
                    Fault("detach", host="service"),
                    Run(10_000),
                    Heal("attach", host="service"),
                )
            ),
            seed=0,
        )
        service = world.hosts["service"]
        homes = [segment.name for segment in service.segments]
        world.run_workload()
        assert [segment.name for segment in service.segments] == homes
        assert not world._detached_hosts

    def test_attach_without_detach_fails_loudly(self):
        world = World.build(
            adversity_spec((Heal("attach", host="service"),)), seed=0
        )
        with pytest.raises(BuildError, match="not detached"):
            world.run_workload()

    def test_heal_all_clears_every_condition(self):
        world = World.build(
            adversity_spec(
                (
                    Fault("cut", link=("left", "lan0")),
                    Fault("degrade", segment="spare", rate=0.2),
                    Fault("degrade", link=("right", "lan0"), rate=0.2),
                    Fault("detach", host="service"),
                    Run(10_000),
                    Heal(),
                )
            ),
            seed=0,
        )
        world.run_workload()
        net = world.net
        assert net.router.down_pairs() == set()
        assert net.segment("spare").loss is None
        assert not net._link_loss
        assert world.hosts["service"].segments
        assert not world._detached_hosts

    def test_probe_unaffected_by_backbone_faults(self):
        # Discovery is leaf-local here: the cut backbone link must not
        # perturb it (results and latency match the fault-free run).
        probe = Probe(
            "main", "service:clock", host="client",
            horizon_us=2_000_000, headline=True,
        )
        clean = run_world(adversity_spec((probe,)), seed=0)
        cut = run_world(
            adversity_spec((Fault("cut", link=("left", "lan0")), probe)), seed=0
        )
        assert cut.results == clean.results == 1
        assert cut.latency_us == clean.latency_us

    def test_adversity_runs_are_deterministic(self):
        spec = adversity_spec(
            (
                Fault("degrade", link=("left", "lan0"), rate=0.3),
                Run(2_000_000),
                Collect("ping"),
            ),
            ping=True,
        )
        first = run_world(spec, seed=21)
        second = run_world(spec, seed=21)
        assert first.extras == second.extras
        assert first.extras["ping_received"] < first.extras["ping_sent"]
        assert (
            first.world.scheduler.events_fired
            == second.world.scheduler.events_fired
        )


class TestPartitionedCampusScenario:
    def test_registered_and_valid(self):
        assert "partitioned_campus" in SCENARIO_SPECS
        partitioned_campus_spec().validate()

    def test_small_run_discovers_through_the_cycle(self):
        outcome = run_world(partitioned_campus_spec(segments=4, nodes=60), seed=0)
        extras = outcome.extras
        # The probe family: pre-partition, mid-partition (answered from the
        # gossiped edge cache), and post-heal.
        for phase in ("pre", "during", "post"):
            assert extras[f"{phase}_results"] >= 1, phase
        assert extras["gossip"]["catchup_escalations"] >= 1
