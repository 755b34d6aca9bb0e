"""Federation benchmarks: gossiped caches + sharded dispatch across a fleet.

Measures what the federation subsystem buys over PR 1's independent
gateways on the same topology:

* ``federated_campus`` vs its unfederated baseline — fleet-wide duplicate
  translations per backbone request (the headline: ~1 owner + elected
  responder instead of one per leaf gateway), repeat-query cache answers,
  and the warm-edge latency for a service the edge gateway never
  discovered itself;
* ``sharded_backbone`` — many service types partitioned across the ring
  (warm types answered from the gossiped cache by the elected responder,
  cold types translated exactly once by their owner);
* a fleet-size sweep showing cache hit rate and translation suppression as
  the fleet grows;
* a chaos tier: a seeded crash/restart schedule over a live fleet, reporting
  time-to-detect (failure detector), time-to-repair (ring), and discovery
  availability before / during / after each outage, gated against the
  ``(suspect_after + dead_after) * gossip_period`` detection bound.

Results are also written to ``BENCH_federation.json`` (CI uploads it so the
perf trajectory accumulates across commits).

Run directly (``PYTHONPATH=src python benchmarks/bench_federation.py``)
for a quick smoke with few trials, or through pytest with the rest of the
benchmark suite.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

from repro.world import run_world
from repro.world.scenarios import (
    crash_recovery_spec,
    federated_campus_spec,
    partitioned_campus_spec,
    sharded_backbone_spec,
)

RESULT_FILE = "BENCH_federation.json"
CHAOS_RESULT_FILE = "BENCH_chaos_sweep.json"


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _fmt(value, spec: str = "8.2f", scale: float = 1.0) -> str:
    """Format a possibly-missing measurement without crashing the report."""
    return format(value * scale, spec) if value is not None else "n/a"


def _cache_hit_rate(extras: dict) -> float:
    hits, misses = extras["cache_hits"], extras["cache_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def run_campus(trials: int = 3, segments: int = 6, nodes: int = 500) -> dict:
    """Federated campus vs the unfederated baseline on the same topology."""
    results: dict[str, dict] = {}
    for label, federated in (("federated", True), ("baseline", False)):
        latencies, translations, repeat_cache, repeat_trans, warm_lat, hit_rates = (
            [], [], [], [], [], []
        )
        spec = federated_campus_spec(
            segments=segments, nodes=nodes, federated=federated
        )
        for seed in range(trials):
            outcome = run_world(spec, seed=seed)
            extras = outcome.extras
            latencies.append(outcome.latency_ms)
            translations.append(extras["query_translations"])
            repeat_cache.append(extras["repeat_cache_answers"])
            repeat_trans.append(extras["repeat_translations"])
            warm_lat.append(extras["warm_edge_latency_us"])
            hit_rates.append(_cache_hit_rate(extras))
        results[label] = {
            "median_latency_ms": _median(latencies),
            "median_query_translations": _median(translations),
            "median_repeat_cache_answers": _median(repeat_cache),
            "median_repeat_translations": _median(repeat_trans),
            "median_warm_edge_latency_us": _median(warm_lat),
            "median_cache_hit_rate": _median(hit_rates),
            "trials": trials,
            "segments": segments,
            "nodes": nodes,
        }
    return results


def run_backbone(trials: int = 3, members: int = 6, nodes: int = 800,
                 service_types: int = 4) -> dict:
    """Sharded dispatch over one backbone: warm + cold type families."""
    warm_lat, cold_lat, translations, elected, found = [], [], [], [], []
    spec = sharded_backbone_spec(
        members=members, nodes=nodes, service_types=service_types
    )
    for seed in range(trials):
        outcome = run_world(spec, seed=seed)
        extras = outcome.extras
        per_type = extras["per_type"]
        warm_lat.extend(
            t["latency_us"] for t in per_type.values() if t["warm"]
        )
        cold_lat.extend(
            t["latency_us"] for t in per_type.values() if not t["warm"]
        )
        translations.append(extras["query_translations"])
        elected.append(extras["federation"]["elected_cache_answers"])
        found.append(all(t["results"] >= 1 for t in per_type.values()))
    return {
        "median_warm_latency_us": _median(warm_lat),
        "median_cold_latency_us": _median(cold_lat),
        "median_query_translations": _median(translations),
        "median_elected_cache_answers": _median(elected),
        "all_types_found": all(found),
        "trials": trials,
        "members": members,
        "nodes": nodes,
        "service_types": service_types,
    }


def run_fleet_sweep(sizes=(4, 6, 8), nodes: int = 500, seed: int = 0) -> dict:
    """Duplicate suppression and cache hit rate as the fleet grows."""
    sweep = {}
    for segments in sizes:
        outcome = run_world(
            federated_campus_spec(segments=segments, nodes=nodes), seed=seed
        )
        extras = outcome.extras
        sweep[str(segments - 1)] = {
            "query_translations": extras["query_translations"],
            "cache_hit_rate": _cache_hit_rate(extras),
            "warm_members_after_gossip": extras["warm_members_after_gossip"],
            "gossip_records_applied": extras["gossip"]["records_applied"],
            "latency_ms": outcome.latency_ms,
        }
    return sweep


# -- adversity tier ---------------------------------------------------------------


def _build_lossy_fleet(members: int, loss_rate: float, loss_model: str,
                       seed: int, gossip_period_us: int, catchup_after: int):
    """A backbone fleet whose shared segment drops gossip frames at
    ``loss_rate`` (dedicated per-edge RNG stream, so runs are seeded)."""
    from repro import Indiss, IndissConfig, Network
    from repro.federation import GatewayFleet
    from repro.net import make_loss_model

    net = Network()
    backbone = net.default_segment
    instances = []
    for i in range(members):
        leaf = net.add_segment(f"leaf{i}")
        net.link(backbone, leaf)
        gateway = net.add_node(f"gateway{i}", segment=leaf)
        net.bridge(gateway, backbone)
        config = IndissConfig(
            units=("slp", "upnp"), deployment="gateway",
            dispatch="shard-ring", seed=seed + i,
        )
        instances.append(Indiss(gateway, config))
    fleet = GatewayFleet(net, backbone, wire_utilization=True)
    for instance in instances:
        fleet.join(
            instance,
            gossip_period_us=gossip_period_us,
            catchup_after=catchup_after,
        )
    if loss_rate > 0:
        net.set_segment_loss(
            backbone,
            make_loss_model(loss_model, loss_rate, seed, backbone.name),
        )
    return net, fleet, instances


def run_loss_sweep(loss_rates=(0.0, 0.05, 0.2), members: int = 4, seed: int = 0,
                   gossip_period_us: int = 100_000, catchup_after: int = 2,
                   horizon_rounds: int = 400) -> dict:
    """Gossip rounds-to-convergence and catch-up traffic vs loss rate.

    Each member starts holding one distinct record; the fleet has
    converged when every cache holds all of them.  The per-edge loss RNG
    is seeded, so a sweep is reproducible run to run.
    """
    from repro import ServiceRecord

    rows: dict[str, dict] = {}
    for rate in loss_rates:
        net, fleet, instances = _build_lossy_fleet(
            members, rate, "bernoulli", seed, gossip_period_us, catchup_after
        )
        for i, instance in enumerate(instances):
            instance.cache.store(ServiceRecord(
                service_type=f"svc{i}", url=f"http://10.0.{i}.1/ctl",
                lifetime_s=3600, source_sdp="upnp",
            ))
        rounds = None
        for r in range(1, horizon_rounds + 1):
            net.run(duration_us=gossip_period_us)
            if all(len(instance.cache) == members for instance in instances):
                rounds = r
                break
        gossip = fleet.aggregate_gossip_stats()
        rows[f"{rate:g}"] = {
            "converged": rounds is not None,
            "rounds_to_convergence": rounds,
            "digests_sent": gossip.get("digests_sent", 0),
            "catchup_escalations": gossip.get("catchup_escalations", 0),
            "catchup_bytes": gossip.get("catchup_bytes", 0),
            "frames_dropped": sum(
                row["dropped"] for row in net.loss_report().values()
            ),
            "members": members,
        }
    return rows


def run_partition_cycle(trials: int = 2, segments: int = 4, nodes: int = 80) -> dict:
    """Discovery success and election flapping across one scripted
    partition/heal cycle of the federated campus (every adversity knob
    on: lossy gossip link, catch-up, wire-carried elections)."""
    phases = {"pre": [], "during": [], "post": []}
    catchups, flaps, latencies = [], [], []
    spec = partitioned_campus_spec(segments=segments, nodes=nodes)
    for seed in range(trials):
        outcome = run_world(spec, seed=seed)
        extras = outcome.extras
        for phase, hits in phases.items():
            hits.append(extras[f"{phase}_results"] >= 1)
        catchups.append(extras["gossip"]["catchup_escalations"])
        flaps.append(extras["election_flaps"])
        latencies.append(outcome.latency_ms)
    return {
        "discovery_success_rate": {
            phase: sum(hits) / len(hits) for phase, hits in phases.items()
        },
        "median_catchup_escalations": _median(catchups),
        "median_election_flaps": _median(flaps),
        "median_latency_ms": _median(latencies),
        "trials": trials,
        "segments": segments,
        "nodes": nodes,
    }


def run_adversity(trials: int = 2) -> dict:
    return {
        "loss_sweep": run_loss_sweep(),
        "partition_cycle": run_partition_cycle(trials=trials),
    }


# -- chaos tier: crash faults and self-healing ------------------------------------


def _build_chaos_fleet(members: int, seed: int, gossip_period_us: int,
                       suspect_after: int | None, dead_after: int | None):
    """A backbone fleet with the failure detector armed, one SLP client on
    the first leaf and one UPnP clock device on the last: the probe the
    sweep repeats to measure discovery availability."""
    from repro import Indiss, IndissConfig, Network
    from repro.federation import GatewayFleet
    from repro.sdp.slp import SlpConfig, UserAgent
    from repro.sdp.upnp import make_clock_device

    net = Network()
    backbone = net.default_segment
    leaves, instances = [], []
    for i in range(members):
        leaf = net.add_segment(f"leaf{i}")
        net.link(backbone, leaf)
        leaves.append(leaf)
        gateway = net.add_node(f"gateway{i}", segment=leaf)
        net.bridge(gateway, backbone)
        config = IndissConfig(
            units=("slp", "upnp"), deployment="gateway",
            dispatch="shard-ring", answer_from_cache=True, seed=seed + i,
        )
        instances.append(Indiss(gateway, config))
    fleet = GatewayFleet(
        net, backbone, suspect_after=suspect_after, dead_after=dead_after
    )
    for instance in instances:
        fleet.join(instance, gossip_period_us=gossip_period_us)
    client = UserAgent(
        net.add_node("client", segment=leaves[0]),
        config=SlpConfig(wait_us=400_000, retries=0),
    )
    make_clock_device(
        net.add_node("service", segment=leaves[-1]), advertise=True
    )
    return net, fleet, instances, client


def _probe(client, net, wait_us: int = 600_000) -> int:
    """One SLP search for the clock; returns how many URLs came back."""
    searches = []
    client.find_services("service:clock", on_complete=searches.append)
    net.run(duration_us=wait_us)
    return len(searches[0].results) if searches else 0


def _chaos_parity(members: int, seed: int, gossip_period_us: int,
                  warmup_us: int) -> bool:
    """Armed-but-unfired parity: the detector reads existing gossip traffic
    and adds nothing to the wire, so a crash-free run with the detector on
    must match the detector-off run stat for stat."""
    outcomes = []
    for armed in (False, True):
        net, fleet, _, client = _build_chaos_fleet(
            members, seed, gossip_period_us,
            suspect_after=6 if armed else None,
            dead_after=4 if armed else None,
        )
        net.run(duration_us=warmup_us)
        outcomes.append({
            "results": _probe(client, net),
            "now_us": net.scheduler.now_us,
            "gossip": fleet.aggregate_gossip_stats(),
            "federation": fleet.aggregate_stats(),
            "transitions": list(fleet.health.transitions),
        })
    # The armed run must also have stayed silent (no spurious suspicions).
    return outcomes[0] == outcomes[1] and not outcomes[1]["transitions"]


def run_chaos_sweep(cycles: int = 2, members: int = 4, seed: int = 0,
                    gossip_period_us: int = 200_000, suspect_after: int = 6,
                    dead_after: int = 4, warmup_us: int = 1_500_000) -> dict:
    """Seeded crash/restart schedule over one live fleet.

    ``random.Random(seed)`` draws the schedule only — which gateway dies,
    how long it stays down, how long the fleet recovers; the simulation
    itself consumes nothing from this RNG, so one seed is one schedule and
    the run is bit-reproducible.  Per cycle the sweep records:

    * ``time_to_detect_us`` — crash to the detector's DEAD transition,
      gated against ``detect_bound_us = (suspect_after + dead_after) *
      gossip_period``;
    * ``time_to_repair_us`` — crash to the ring repair that rebalances the
      dead member's vnodes;
    * discovery availability — an SLP probe during the outage and after
      the restart + bootstrap (post-repair availability must return to 1.0).
    """
    rng = random.Random(seed)
    net, fleet, instances, client = _build_chaos_fleet(
        members, seed, gossip_period_us, suspect_after, dead_after
    )
    bound = fleet.health.detect_bound_us(gossip_period_us)
    net.run(duration_us=warmup_us)
    pre_results = _probe(client, net)

    rows, during_hits, post_hits = [], [], []
    for _ in range(cycles):
        victim = instances[rng.randrange(len(instances))]
        address = victim.node.address
        down_us = bound + rng.randrange(500_000, 1_500_000)
        recover_us = rng.randrange(2_000_000, 3_000_000)

        crash_at = net.scheduler.now_us
        fleet.crash_member(address)
        victim.crash()
        net.crash_node(victim.node)
        net.run(duration_us=down_us)
        during_results = _probe(client, net)

        net.restart_node(net.crashed_node(address))
        victim.restart()
        handle = fleet.restart_member(
            victim, gossip_period_us=gossip_period_us, bootstrap=True
        )
        restart_at = net.scheduler.now_us
        net.run(duration_us=recover_us)
        post_results = _probe(client, net)

        dead_at = next(
            (t for t, m, s in fleet.health.transitions
             if m == address and s == "dead" and t >= crash_at), None,
        )
        repair_at = next(
            (t for t, m in fleet.repairs if m == address and t >= crash_at),
            None,
        )
        boot_at = handle.gossiper.bootstrap_completed_at if handle.gossiper else None
        rows.append({
            "victim": address,
            "down_us": down_us,
            "time_to_detect_us": None if dead_at is None else dead_at - crash_at,
            "time_to_repair_us": None if repair_at is None else repair_at - crash_at,
            "bootstrap_after_restart_us":
                None if boot_at is None else boot_at - restart_at,
            "during_results": during_results,
            "post_results": post_results,
        })
        during_hits.append(during_results >= 1)
        post_hits.append(post_results >= 1)

    detects = [row["time_to_detect_us"] for row in rows]
    return {
        "cycles": rows,
        "availability": {
            "pre": 1.0 if pre_results >= 1 else 0.0,
            "during": sum(during_hits) / len(during_hits) if during_hits else None,
            "post": sum(post_hits) / len(post_hits) if post_hits else None,
        },
        "median_time_to_detect_us": _median(detects),
        "median_time_to_repair_us": _median(
            [row["time_to_repair_us"] for row in rows]
        ),
        "detect_bound_us": bound,
        "detect_within_bound": all(d is not None and d <= bound for d in detects),
        "parity_armed_vs_off": _chaos_parity(
            members, seed, gossip_period_us, warmup_us
        ),
        "members": members,
        "seed": seed,
        "gossip_period_us": gossip_period_us,
        "suspect_after": suspect_after,
        "dead_after": dead_after,
    }


def run(trials: int = 3, nodes: int = 500) -> dict:
    return {
        "campus": run_campus(trials=trials, nodes=nodes),
        "backbone": run_backbone(trials=trials, nodes=max(nodes, 500)),
        "fleet_sweep": run_fleet_sweep(nodes=nodes),
        "adversity": run_adversity(trials=min(trials, 2)),
        "chaos": run_chaos_sweep(cycles=min(trials, 3)),
    }


def write_results(results: dict, path: str = RESULT_FILE) -> None:
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True))


# -- pytest entry points ---------------------------------------------------------


def test_federation_smoke():
    """The acceptance criteria, measured: duplicate translations collapse
    to <= 1 owner + elected responder, repeat queries come from cache."""
    results = run_campus(trials=2, segments=5, nodes=200)
    federated, baseline = results["federated"], results["baseline"]
    # Every phase must have produced an answer before comparing medians.
    for label, row in results.items():
        for metric, value in row.items():
            assert value is not None, f"{label}.{metric} has no measurement"
    # <=1 owner translation + the edge gateway's own entry translation.
    assert federated["median_query_translations"] <= 2
    assert (
        federated["median_query_translations"]
        < baseline["median_query_translations"]
    )
    # Gossip-warmed gateway answers the repeat query without re-discovery.
    assert federated["median_repeat_cache_answers"] >= 1
    assert federated["median_repeat_translations"] == 0
    assert federated["median_warm_edge_latency_us"] < 5_000

    backbone = run_backbone(trials=2, members=4, nodes=200, service_types=4)
    assert backbone["all_types_found"]
    # Two cold types, each translated exactly once by its ring owner.
    assert backbone["median_query_translations"] <= 2
    assert backbone["median_elected_cache_answers"] >= 1


def test_adversity_convergence():
    """Gossip genuinely converges at every tested loss rate, and the
    partition/heal cycle never loses discovery."""
    sweep = run_loss_sweep(loss_rates=(0.0, 0.05, 0.2), members=4)
    for rate, row in sweep.items():
        assert row["converged"], f"gossip never converged at loss {rate}"
        assert row["rounds_to_convergence"] >= 1
    # Loss actually happened at the lossy rates, and the lossless run
    # never escalated (peers are heard inside the catch-up window).
    assert sweep["0"]["frames_dropped"] == 0
    assert sweep["0.2"]["frames_dropped"] > 0
    assert sweep["0.2"]["catchup_bytes"] >= sweep["0"]["catchup_bytes"]

    cycle = run_partition_cycle(trials=2, segments=4, nodes=60)
    for phase, rate in cycle["discovery_success_rate"].items():
        assert rate == 1.0, f"discovery failed in the {phase!r} phase"
    assert cycle["median_catchup_escalations"] >= 1


def test_adversity_determinism():
    """Same seed + same fault plan => identical ScenarioOutcome, twice."""
    spec = partitioned_campus_spec(segments=4, nodes=60)
    runs = [run_world(spec, seed=11) for _ in range(2)]
    first, second = runs
    assert first.latency_ms == second.latency_ms
    assert first.results == second.results
    assert first.extras == second.extras


def test_crash_chaos_gates():
    """The ISSUE's chaos gates: every crash detected within the bound,
    ring repaired, and post-repair discovery availability back to 1.0."""
    sweep = run_chaos_sweep(cycles=2, members=4, seed=0)
    assert sweep["parity_armed_vs_off"], (
        "armed-but-unfired detector changed a crash-free run"
    )
    for cycle in sweep["cycles"]:
        assert cycle["time_to_detect_us"] is not None, f"undetected: {cycle}"
        assert cycle["time_to_repair_us"] is not None, f"unrepaired: {cycle}"
        assert cycle["bootstrap_after_restart_us"] is not None, (
            f"bootstrap never completed: {cycle}"
        )
    assert sweep["detect_within_bound"]
    assert sweep["availability"]["pre"] == 1.0
    assert sweep["availability"]["post"] == 1.0


def chaos_smoke() -> int:
    """The CI chaos gate: a seeded lossy partition/heal run and a seeded
    crash/restart schedule, each twice, must produce byte-identical
    outcomes; the crash sweep must also pass its detection/availability
    gates.  Writes the sweep to ``BENCH_chaos_sweep.json``."""
    rows = []
    spec = partitioned_campus_spec(segments=4, nodes=80)
    for attempt in range(2):
        outcome = run_world(spec, seed=3)
        rows.append({
            "latency_ms": outcome.latency_ms,
            "results": outcome.results,
            "extras": outcome.extras,
        })
    if rows[0] != rows[1]:
        print("chaos smoke FAILED: two identically seeded lossy runs diverged")
        for key in rows[0]:
            if rows[0][key] != rows[1][key]:
                print(f"  {key}: {rows[0][key]!r} != {rows[1][key]!r}")
        return 1
    extras = rows[0]["extras"]
    print("chaos smoke: two seeded partition/heal runs are identical")
    print(f"  pre/during/post results: {extras['pre_results']}/"
          f"{extras['during_results']}/{extras['post_results']}")
    print(f"  gossip catch-up escalations: "
          f"{extras['gossip']['catchup_escalations']}, "
          f"election flaps: {extras['election_flaps']}")

    # Crash/restart schedule: same seed, twice, compared byte for byte.
    sweeps = [
        json.dumps(run_chaos_sweep(cycles=2, members=4, seed=7),
                   sort_keys=True)
        for attempt in range(2)
    ]
    if sweeps[0] != sweeps[1]:
        print("chaos smoke FAILED: two identically seeded crash/restart "
              "sweeps diverged")
        return 1
    crash_spec = crash_recovery_spec(segments=4, nodes=80)
    scenario_rows = [run_world(crash_spec, seed=5).extras for _ in range(2)]
    if scenario_rows[0] != scenario_rows[1]:
        print("chaos smoke FAILED: two identically seeded crash_recovery "
              "scenario runs diverged")
        return 1
    sweep = json.loads(sweeps[0])
    Path(CHAOS_RESULT_FILE).write_text(json.dumps(sweep, indent=2,
                                                  sort_keys=True))
    print("chaos smoke: two seeded crash/restart sweeps are identical")
    print(f"  median time-to-detect "
          f"{_fmt(sweep['median_time_to_detect_us'], '.0f', 1 / 1000)} ms "
          f"(bound {sweep['detect_bound_us'] // 1000} ms), "
          f"time-to-repair "
          f"{_fmt(sweep['median_time_to_repair_us'], '.0f', 1 / 1000)} ms")
    availability = sweep["availability"]
    print(f"  availability pre {availability['pre']:.2f} / during "
          f"{availability['during']:.2f} / post {availability['post']:.2f}")
    if not sweep["detect_within_bound"]:
        print("chaos smoke FAILED: a crash went undetected within the bound")
        return 1
    if availability["post"] != 1.0:
        print("chaos smoke FAILED: discovery did not return to full "
              "availability after repair")
        return 1
    if not sweep["parity_armed_vs_off"]:
        print("chaos smoke FAILED: armed-but-unfired detector changed a "
              "crash-free run")
        return 1
    print(f"wrote {CHAOS_RESULT_FILE}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 1 and argv[1] == "--chaos-smoke":
        return chaos_smoke()
    try:
        trials = int(argv[1]) if len(argv) > 1 else 3
        nodes = int(argv[2]) if len(argv) > 2 else 500
    except ValueError:
        print(f"usage: {argv[0]} [trials] [nodes]", file=sys.stderr)
        return 2
    if trials < 1 or nodes < 0:
        print("trials must be >= 1 and nodes >= 0", file=sys.stderr)
        return 2
    results = run(trials=trials, nodes=nodes)
    write_results(results)

    campus = results["campus"]
    print(f"federated campus ({campus['federated']['segments'] - 1} gateways, "
          f"{campus['federated']['nodes']} nodes, median of {trials} trials)")
    for label in ("baseline", "federated"):
        row = campus[label]
        print(f"  {label:10s} latency {_fmt(row['median_latency_ms'])} ms   "
              f"query translations {_fmt(row['median_query_translations'], '.0f')}   "
              f"cache hit rate {_fmt(row['median_cache_hit_rate'], '.2f')}")
    federated = campus["federated"]
    print(f"  repeat query: {_fmt(federated['median_repeat_cache_answers'], '.0f')} "
          f"cache answer(s), "
          f"{_fmt(federated['median_repeat_translations'], '.0f')} translations")
    print(f"  warm edge   : "
          f"{_fmt(federated['median_warm_edge_latency_us'], '.2f', 1 / 1000)} ms "
          "from the gossip-replicated record")

    backbone = results["backbone"]
    print(f"sharded backbone ({backbone['members']} members, "
          f"{backbone['service_types']} types, {backbone['nodes']} nodes)")
    print(f"  warm types  {_fmt(backbone['median_warm_latency_us'], '8.2f', 1 / 1000)} ms "
          "(elected responder, gossiped cache)")
    print(f"  cold types  {_fmt(backbone['median_cold_latency_us'], '8.2f', 1 / 1000)} ms "
          "(single owner translation)")
    print(f"  fleet translations {_fmt(backbone['median_query_translations'], '.0f')} "
          f"(all types found: {backbone['all_types_found']})")

    print("fleet-size sweep (gateways -> translations / cache hit rate):")
    for size, row in results["fleet_sweep"].items():
        print(f"  {size:>2s} gateways: {row['query_translations']} translation(s), "
              f"hit rate {row['cache_hit_rate']:.2f}, "
              f"{row['warm_members_after_gossip']} members gossip-warmed")

    adversity = results["adversity"]
    print("adversity: gossip convergence vs backbone loss rate:")
    for rate, row in adversity["loss_sweep"].items():
        rounds = row["rounds_to_convergence"]
        print(f"  loss {rate:>4s}: "
              f"{'converged in ' + str(rounds) + ' round(s)' if row['converged'] else 'DID NOT CONVERGE'}, "
              f"{row['catchup_escalations']} catch-up(s) "
              f"({row['catchup_bytes']} bytes), "
              f"{row['frames_dropped']} frame(s) dropped")
    cycle = adversity["partition_cycle"]
    success = cycle["discovery_success_rate"]
    print(f"adversity: partition/heal cycle discovery success "
          f"pre {success['pre']:.2f} / during {success['during']:.2f} / "
          f"post {success['post']:.2f}, "
          f"{_fmt(cycle['median_election_flaps'], '.0f')} election flap(s)")

    chaos = results["chaos"]
    availability = chaos["availability"]
    print(f"chaos: {len(chaos['cycles'])} seeded crash/restart cycle(s) over "
          f"{chaos['members']} gateways")
    print(f"  time-to-detect "
          f"{_fmt(chaos['median_time_to_detect_us'], '.0f', 1 / 1000)} ms "
          f"(bound {chaos['detect_bound_us'] // 1000} ms, "
          f"within: {chaos['detect_within_bound']}), time-to-repair "
          f"{_fmt(chaos['median_time_to_repair_us'], '.0f', 1 / 1000)} ms")
    print(f"  availability pre {availability['pre']:.2f} / during "
          f"{availability['during']:.2f} / post {availability['post']:.2f}, "
          f"armed-but-unfired parity: {chaos['parity_armed_vs_off']}")
    print(f"wrote {RESULT_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
