"""The World run-control surface: build, run_until, probes, observers."""

import pytest

from repro.bench.calibration import PAPER_TESTBED
from repro.core import IndissConfig
from repro.world import (
    BuildError,
    Chatter,
    ClockDevice,
    Collect,
    Emit,
    HostSpec,
    IndissApp,
    Probe,
    Run,
    SegmentSpec,
    SlpClient,
    SlpService,
    SlpServiceReg,
    SpecError,
    World,
    WorldSpec,
    run_world,
)
from repro.world.scenarios import CLOCK_REG


def tiny_spec(**kwargs) -> WorldSpec:
    """The quickstart world: SLP client, UPnP clock + INDISS on one host."""
    defaults = dict(
        name="tiny",
        elements=(
            HostSpec("client", apps=(SlpClient(),)),
            HostSpec(
                "service",
                apps=(ClockDevice(), IndissApp(deployment="service")),
            ),
        ),
        workload=(
            Probe(
                "main", "service:clock", host="client",
                horizon_us=2_000_000, headline=True,
            ),
        ),
    )
    defaults.update(kwargs)
    return WorldSpec(**defaults)


class TestBuild:
    def test_nested_host_apps_build_in_order(self):
        world = World.build(tiny_spec(), seed=0)
        assert set(world.hosts) == {"client", "service"}
        assert len(world.instances) == 1
        assert len(world.devices) == 1

    def test_run_workload_produces_headline_outcome(self):
        outcome = run_world(tiny_spec(), seed=0)
        assert outcome.latency_us is not None
        assert outcome.results == 1

    def test_build_is_deterministic(self):
        first = run_world(tiny_spec(), seed=7)
        second = run_world(tiny_spec(), seed=7)
        assert first.latency_us == second.latency_us
        assert (
            first.world.scheduler.events_fired == second.world.scheduler.events_fired
        )

    def test_capture_override(self):
        world = World.build(tiny_spec(), seed=0, capture=True)
        world.run_workload()
        assert world.net.trace, "capture override produced no trace"

    def test_segment_and_links_compile(self):
        spec = WorldSpec(
            "two-lans",
            elements=(
                SegmentSpec("den", link_to="lan0"),
                HostSpec("a"),
                HostSpec("b", segment="den"),
            ),
        )
        world = World.build(spec, seed=0)
        assert set(world.net.segments) == {"lan0", "den"}
        a, b = world.hosts["a"], world.hosts["b"]
        assert world.net.unicast_delay_us(a, b.address, 100) is not None


def reference_indiss_config(profile: str, seed: int) -> IndissConfig:
    """Each INDISS profile's config, spelled out field by field."""
    costs = PAPER_TESTBED
    common = dict(deployment="gateway", timings=costs.indiss, seed=seed)
    delay = costs.indiss_upnp_responder_delay_us
    return {
        "paper": lambda: IndissConfig(
            units=("slp", "upnp"), answer_from_cache=False,
            upnp_responder_delay_us=delay, upnp_wait_us=300_000,
            slp_wait_us=15_000, **common,
        ),
        "chain": lambda: IndissConfig(
            units=("slp", "upnp"), dispatch="gateway-forward",
            upnp_responder_delay_us=delay, upnp_wait_us=300_000,
            slp_wait_us=350_000, **common,
        ),
        "fleet": lambda: IndissConfig(
            units=("slp", "upnp"), dispatch="shard-ring",
            upnp_responder_delay_us=delay, upnp_wait_us=300_000,
            slp_wait_us=350_000, **common,
        ),
        "slp-jini": lambda: IndissConfig(
            units=("slp", "jini"), slp_wait_us=15_000, **common,
        ),
        "media": lambda: IndissConfig(
            units=("slp", "upnp", "jini"), dispatch="shard-ring",
            upnp_responder_delay_us=delay, upnp_wait_us=300_000,
            slp_wait_us=350_000, **common,
        ),
    }[profile]()


class TestIndissProfiles:
    @pytest.mark.parametrize(
        "profile", ["paper", "chain", "fleet", "slp-jini", "media"]
    )
    def test_profile_config_is_field_for_field_equal(self, profile):
        app = IndissApp(profile=profile, seed_offset=3)
        spec = WorldSpec("profiles", elements=(HostSpec("gw", apps=(app,)),))
        config = World.build(spec, seed=5).instances[0].config
        assert config == reference_indiss_config(profile, seed=8)

    def test_unknown_profile_is_a_spec_error(self):
        app = IndissApp(profile="x")
        spec = WorldSpec("bad", elements=(HostSpec("gw", apps=(app,)),))
        with pytest.raises(SpecError, match="unknown INDISS profile 'x'"):
            spec.validate()


class TestRunControl:
    def test_run_until_predicate_stops_early(self):
        spec = tiny_spec(
            workload=(Probe("main", "service:clock", host="client", headline=True),)
        )
        world = World.build(spec, seed=0)
        world.run_workload()  # issues the probe, does not run
        held = world.run_until(
            lambda w: w.probe("main").results > 0, horizon_us=2_000_000
        )
        assert held
        # The predicate stopped the run well before the 2s horizon.
        assert world.net.scheduler.now_us < 1_000_000
        assert world.probe("main").latency_us is not None

    def test_run_until_horizon_expires_when_predicate_never_holds(self):
        world = World.build(tiny_spec(), seed=0)
        # Keep the scheduler busy so the horizon, not idleness, stops us.
        world.hosts["client"].every(10_000, lambda: None)
        held = world.run_until(lambda w: False, horizon_us=100_000)
        assert not held
        assert world.net.scheduler.now_us >= 100_000

    def test_run_until_idle_scheduler_returns_predicate_state(self):
        world = World.build(tiny_spec(), seed=0)
        world.run()  # drain everything
        assert not world.run_until(lambda w: False)

    def test_named_probe_lookup_fails_loudly(self):
        world = World.build(tiny_spec(), seed=0)
        with pytest.raises(BuildError, match="no probe named"):
            world.probe("ghost")


class TestObservers:
    def test_builtin_collectors_feed_extras(self):
        spec = tiny_spec(
            workload=(
                Probe(
                    "main", "service:clock", host="client",
                    horizon_us=2_000_000, headline=True,
                ),
                Emit("shape", "tiny"),
                Collect("hotpaths", key="hotpaths"),
                Collect("node_count", key="total_nodes"),
            )
        )
        outcome = run_world(spec, seed=0)
        assert outcome.extras["shape"] == "tiny"
        assert outcome.extras["total_nodes"] == 2
        hotpaths = outcome.extras["hotpaths"]
        assert hotpaths["events_fired"] > 0
        assert "parse_dedup_rate" in hotpaths

    def test_custom_observer_registration(self):
        world = World.build(tiny_spec(), seed=0)
        world.add_observer(
            "sessions", lambda w: {"sessions": w.instances[0].stats.opened}
        )
        world.run_workload()
        row = world.collect("sessions")
        assert row["sessions"] >= 1

    def test_unknown_collector_fails_loudly(self):
        world = World.build(tiny_spec(), seed=0)
        with pytest.raises(BuildError, match="no collector named"):
            world.collect("ghost")

    def test_chatter_step_aggregates_per_group(self):
        spec = WorldSpec(
            "chatterbox",
            elements=(
                HostSpec("service", apps=(SlpService(registrations=(CLOCK_REG,)),)),
            ),
            workload=(
                Chatter(("lan0",), ("clock",), per_leaf=2, period_us=300_000,
                        start_delay_us=50_000),
                Run(1_000_000),
                Collect("chatter"),
            ),
        )
        outcome = run_world(spec, seed=0)
        assert outcome.extras["chatter_clients"] == 2
        assert outcome.extras["chatter_searches_issued"] >= 4
        assert outcome.extras["chatter_found_rate"] > 0.9

    def test_template_registration_resolves_address(self):
        spec = WorldSpec(
            "template",
            elements=(
                HostSpec(
                    "s",
                    apps=(
                        SlpService(
                            registrations=(
                                SlpServiceReg(
                                    url="service:x://{address}:1/ctl",
                                    service_type="service:x",
                                ),
                            )
                        ),
                    ),
                ),
            ),
        )
        world = World.build(spec, seed=0)
        agent = world._apps[("s", "sa")]
        (registration,) = agent.registrations
        assert world.hosts["s"].address in registration.url
