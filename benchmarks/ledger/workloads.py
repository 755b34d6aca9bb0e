"""The ledger's workloads, and one measured repetition of one of them.

Run as a script, this module performs exactly one repetition of one
workload in the interpreter it was started in and prints one JSON object
on stdout.  ``run.py`` starts a fresh interpreter per repetition, in a
fixed order, so no repetition inherits module-level state from another:
single-district worlds draw session ids from a process-global counter,
and those ids reach payload lengths and therefore the event schedule.

    PYTHONPATH=src python benchmarks/ledger/workloads.py \
        --workload media_city --seed 0 --mode plain

Modes:

* ``plain`` -- tracing off; the host timings come from these.
* ``virtual`` -- a metrics-only flight recording, so the world reports
  every discovery latency (the worlds record latencies only while a
  recording is on); its host timings are not used.
* ``traced`` -- a full recording plus ``cProfile``; the per-layer numbers.
* ``mp`` -- ``run_world_mp`` with one forked worker per district.

The program is reached only through its public surface: the spec
functions in ``repro.world.scenarios``, ``World.build``,
``World.run_workload``, ``World.outcome``, ``run_world_mp``, the public
stats objects and the flight recorder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import sys
import time

#: Workload names, in the order every full invocation runs them.
ORDER = ("paper_figs", "media_city", "district_grid", "serving_read", "serving_write")

#: The six paper section 4.3 configurations:
#: (per-layer metric name, scenario, key in ``PAPER_RESULTS_MS``).
FIGURES = (
    ("fig7_native_slp", "native_slp", "fig7_native_slp"),
    ("fig7_native_upnp", "native_upnp", "fig7_native_upnp"),
    ("fig8_slp_to_upnp", "slp_to_upnp_service_side", "fig8_slp_to_upnp_service_side"),
    ("fig8_upnp_to_slp", "upnp_to_slp_service_side", "fig8_upnp_to_slp_service_side"),
    ("fig9_slp_to_upnp", "slp_to_upnp_client_side", "fig9_slp_to_upnp_client_side"),
    ("fig9_upnp_to_slp", "upnp_to_slp_client_side", "fig9_upnp_to_slp_client_side"),
)

#: Spec function per load workload (``paper_figs`` builds one world per trial).
SPEC_FUNCTIONS = {
    "media_city": "media_city_spec",
    "district_grid": "district_grid_spec",
    "serving_read": "serving_backbone_spec",
    "serving_write": "serving_backbone_spec",
}

#: Full sizes: each repetition takes roughly 2.5-4 s on a 2-core x86 box,
#: so a 24 s run holds five or more of them besides its reference.
SIZES = {
    "paper_figs": {"trials": 500},
    # One SLP island leaf, so every chatter search has a service on its
    # own segment and succeeds; with two, the second leaf's searches all
    # come back empty.
    "media_city": {
        "nodes": 3000, "run_us": 7_000_000,
        "slp_island_leaves": 1, "slp_chatter_per_island": 10,
    },
    "district_grid": {
        "nodes": 20000, "districts": 2, "leaves_per_district": 24,
        "chatter_per_leaf": 4, "chatter_period_us": 150_000,
        "ping_period_us": 50_000, "run_us": 20_000_000,
    },
    "serving_read": {
        "members": 4, "nodes": 200, "service_types": 4, "cold_types": 1,
        "clients_per_leaf": 5, "queries_per_client": 1250,
        "mean_interval_us": 5_000, "run_us": 7_500_000,
    },
    # 64 re-NOTIFYing devices rather than 32: with fewer, the latency tail
    # depends on how a seed happens to align their announcement phases.
    "serving_write": {
        "members": 4, "nodes": 200, "service_types": 96, "cold_types": 32,
        "clients_per_leaf": 3, "queries_per_client": 400,
        "mean_interval_us": 10_000, "notify_period_us": 100_000,
        "gossip_period_us": 100_000, "run_us": 5_000_000,
    },
}

#: Smoke-test sizes: the same worlds, each repetition well under a second.
TINY_SIZES = {
    "paper_figs": {"trials": 3},
    "media_city": {
        "districts": 2, "leaves_per_district": 2, "devices_per_leaf": 4,
        "cp_per_leaf": 2, "nodes": 200, "run_us": 1_000_000,
        "slp_island_leaves": 1, "slp_chatter_per_island": 4,
    },
    "district_grid": {
        "nodes": 600, "districts": 2, "leaves_per_district": 2,
        "chatter_per_leaf": 2, "chatter_period_us": 150_000,
        "ping_period_us": 50_000, "run_us": 1_000_000,
    },
    "serving_read": {
        "members": 2, "nodes": 60, "service_types": 4, "cold_types": 1,
        "clients_per_leaf": 1, "queries_per_client": 40,
        "mean_interval_us": 5_000, "run_us": 1_000_000,
    },
    "serving_write": {
        "members": 2, "nodes": 60, "service_types": 8, "cold_types": 2,
        "clients_per_leaf": 1, "queries_per_client": 40,
        "mean_interval_us": 10_000, "notify_period_us": 100_000,
        "gossip_period_us": 100_000, "run_us": 1_000_000,
    },
}

#: Virtual time per timed section of a ``Run`` step.
SLICE_US = 100_000

#: Extras keys that only recorded runs carry; left out of the digest so
#: plain, virtual and traced repetitions digest alike.
_RECORDED_ONLY = re.compile(r"_latency_(count|p\d+_us)$")


def percentile(ordered: list, pct: float):
    """Exact nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _new_counters() -> dict:
    keys = (
        "events_fired", "attempted", "answered", "ops", "messages", "bytes",
        "compactions", "route_hits", "route_misses", "translations", "sessions",
        "cache_mutations", "session_retries", "records_applied",
        "digest_encodes", "fallbacks", "stale_answers", "index_rebuilds",
        "query_responses", "query_hits", "responses_sent", "staleness_sum_us",
    )
    counters = {key: 0 for key in keys}
    counters["parse"] = {}
    return counters


def _add_world(counters: dict, world) -> None:
    """Add one finished world's public counters into ``counters``."""
    net = world.net
    counters["events_fired"] += net.scheduler.events_fired
    counters["compactions"] += getattr(net.scheduler, "compactions", 0)
    counters["messages"] += net.traffic.total_messages
    counters["bytes"] += net.traffic.total_bytes
    counters["route_hits"] += net.route_cache_hits
    counters["route_misses"] += net.route_cache_misses
    for proto, counter in net.parse_stats.items():
        row = counters["parse"].setdefault(proto, [0, 0])
        row[0] += counter.decoded
        row[1] += counter.shared
    for instance in world.instances:
        counters["translations"] += instance.stats.translated
        counters["sessions"] += instance.stats.opened
        counters["session_retries"] += instance.stats.retries
        counters["cache_mutations"] += instance.cache.version
    for fleet in world.fleets.values():
        gossip = fleet.aggregate_gossip_stats()
        counters["records_applied"] += gossip.get("records_applied", 0)
        counters["digest_encodes"] += gossip.get("digest_encodes", 0)
    for frontend in world.serving_frontends:
        counters["fallbacks"] += frontend.stats.fallbacks
        counters["stale_answers"] += frontend.stats.stale_answers
        counters["index_rebuilds"] += frontend.index.rebuilds
        counters["responses_sent"] += frontend.stats.responses_sent
        counters["staleness_sum_us"] += frontend.stats.staleness_sum_us
    _add_rows(counters, world.load_groups)


def _add_rows(counters: dict, load_groups: dict) -> None:
    """Discovery operations from the load groups' per-client rows.

    A search counts once it completes (its wait window closed) and is
    answered when it found a service; a query counts once sent and is
    answered when its response arrived.  Ping rows carry no discovery.
    """
    for rows in load_groups.values():
        for row in rows:
            if "completed" in row and "found" in row:
                counters["attempted"] += row["completed"]
                counters["answered"] += row["found"]
                counters["ops"] += row["completed"]
            elif "responses" in row:
                counters["attempted"] += row["sent"]
                counters["answered"] += row["responses"]
                counters["ops"] += row["responses"]
                counters["query_responses"] += row["responses"]
                counters["query_hits"] += row["hits"]


def _rows_for_digest(load_groups: dict) -> dict:
    return {
        name: [
            {k: v for k, v in row.items() if not k.startswith("lat_")}
            for row in rows
        ]
        for name, rows in load_groups.items()
    }


def _split_workload(spec):
    """The steps before the first ``Run`` (set-up) and the rest (run phase)."""
    from repro.world import Run

    for index, step in enumerate(spec.workload):
        if isinstance(step, Run):
            return spec.workload[:index], spec.workload[index:]
    return spec.workload, ()


class Phase:
    """Wall time of one phase of a repetition, one entry per section.

    Every repetition of a run cuts its phases into the same sections, so
    ``run.py`` can take each section's median across repetitions: a burst
    of host slowdown then spoils only the sections it hit in one
    repetition.  With a profiler, each section is also profiled.  Only
    the program's own calls run inside a section, so neither the timings
    nor the profile include the benchmark's bookkeeping between sections.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.sections: list = []
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        if self.profiler is not None:
            self.profiler.enable()

    def __exit__(self, *exc):
        if self.profiler is not None:
            self.profiler.disable()
        self.sections.append(time.perf_counter() - self._start)


def _recording(mode: str):
    from repro.obs import Recording

    if mode == "virtual":
        return Recording(metrics=True, trace=False)
    return mode == "traced"


def _session_durations(world) -> list:
    recording = world.recording
    if recording is None or not recording.trace.on:
        return []
    return [
        record["dur"] for record in recording.trace.records
        if record["ph"] == "X" and record["name"] == "session"
    ]


def _run_paper_figs(seed, mode, sizes, setup: Phase, run: Phase, out: dict) -> None:
    """Every configuration x ``trials`` seeds, one fresh world per trial.

    Set-up is the sum of the spec builds and world builds; the run phase
    is the sum of the workloads (each one probe with its horizon).
    """
    from repro.bench.calibration import PAPER_RESULTS_MS
    from repro.world import World
    from repro.world.scenarios import SCENARIO_SPECS

    trials = sizes["trials"]
    counters = out["counters"]
    trial_rows = []
    medians = {}
    for metric, scenario, _ in FIGURES:
        make_spec = SCENARIO_SPECS[scenario]
        found = []
        for trial_seed in range(seed * trials, (seed + 1) * trials):
            record = _recording(mode)
            with setup:
                world = World.build(make_spec(), seed=trial_seed, record=record)
            with run:
                world.run_workload()
                outcome = world.outcome()
            counters["attempted"] += 1
            if outcome.latency_us is not None and outcome.results > 0:
                counters["answered"] += 1
                counters["ops"] += 1
                found.append(outcome.latency_us)
            _add_world(counters, world)
            out["session_us"].extend(_session_durations(world))
            trial_rows.append(
                (scenario, trial_seed, outcome.latency_us, outcome.results,
                 world.net.scheduler.events_fired)
            )
        out["latencies_us"].extend(found)
        medians[metric] = statistics.median(found) / 1000.0 if found else None
    out["figures_ms"] = medians
    out["paper_ms"] = {key: PAPER_RESULTS_MS[key] for _, _, key in FIGURES}
    out["digest"] = _digest([trial_rows, counters])


def _run_world(name, seed, mode, sizes, setup: Phase, run: Phase, out: dict) -> None:
    """Set-up is the spec build, ``World.build`` and the steps before the
    first ``Run``; the run phase is the remaining steps and the outcome.

    Each ``Run`` step advances virtual time in ``SLICE_US`` sections, which
    fires exactly the events one long run would (``run_until`` semantics).
    """
    from dataclasses import replace

    from repro.world import Run, World, scenarios

    record = _recording(mode)
    with setup:
        spec = getattr(scenarios, SPEC_FUNCTIONS[name])(**sizes)
        world = World.build(spec, seed=seed, record=record)
    setup_steps, run_steps = _split_workload(spec)
    world.spec = replace(spec, workload=setup_steps)
    with setup:
        world.run_workload()
    for step in run_steps:
        if isinstance(step, Run):
            for start in range(0, step.duration_us, SLICE_US):
                with run:
                    world.run(min(SLICE_US, step.duration_us - start))
        else:
            world.spec = replace(spec, workload=(step,))
            with run:
                world.run_workload()
    with run:
        outcome = world.outcome()
    world.spec = spec
    _add_world(out["counters"], world)
    out["session_us"] = _session_durations(world)
    extras = {k: v for k, v in outcome.extras.items() if not _RECORDED_ONLY.search(k)}
    out["digest"] = _digest(
        [outcome.latency_us, outcome.results, extras,
         _rows_for_digest(world.load_groups), out["counters"]]
    )


def _run_mp(name, seed, sizes, run: Phase, out: dict) -> None:
    """Build once, fork one worker per district (``run_world_mp``); the
    whole call is the run phase."""
    from repro.world import run_world_mp, scenarios

    spec = getattr(scenarios, SPEC_FUNCTIONS[name])(**sizes)
    with run:
        result = run_world_mp(spec, seed=seed)
    out["windows"] = result["windows"]
    out["counters"]["events_fired"] = result["events_fired"]
    _add_rows(out["counters"], result["load_groups"])


def run_rep(name: str, seed: int, mode: str, sizes: dict) -> dict:
    """One repetition; returns the JSON-ready summary ``run.py`` reads."""
    import repro.world.build as world_build

    out = {"latencies_us": [], "session_us": [], "counters": _new_counters()}
    if mode in ("virtual", "traced"):
        note = world_build.note_row_latency

        def capture(row, latency_us, _note=note, _into=out["latencies_us"]):
            _into.append(latency_us)
            _note(row, latency_us)

        world_build.note_row_latency = capture
    profiler = None
    if mode == "traced":
        import cProfile

        profiler = cProfile.Profile()
    setup, run = Phase(profiler), Phase(profiler)
    if mode == "mp":
        _run_mp(name, seed, sizes, run, out)
    elif name == "paper_figs":
        _run_paper_figs(seed, mode, sizes, setup, run, out)
    else:
        _run_world(name, seed, mode, sizes, setup, run, out)
    out["setup_sections"] = setup.sections
    out["run_sections"] = run.sections
    out["setup_s"] = sum(setup.sections)
    out["run_s"] = sum(run.sections)
    if profiler is not None:
        from layers import attribute

        import repro

        out["profile"] = attribute(profiler, repro.__path__[0])
    ordered = sorted(out.pop("latencies_us"))
    out["latency"] = {
        "count": len(ordered),
        "p50_us": percentile(ordered, 50) if ordered else None,
        "p99_us": percentile(ordered, 99) if ordered else None,
        "digest": _digest(ordered),
    }
    sessions = sorted(out.pop("session_us"))
    out["session_p50_us"] = percentile(sessions, 50) if sessions else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ORDER)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "virtual", "traced", "mp"))
    parser.add_argument("--sizes", help="JSON object overriding the workload's SIZES entry")
    args = parser.parse_args(argv)
    sizes = json.loads(args.sizes) if args.sizes else SIZES[args.workload]
    start = time.perf_counter()
    import repro.world  # noqa: F401 - timed: import is part of set-up
    import repro.world.scenarios  # noqa: F401

    import_s = time.perf_counter() - start
    out = run_rep(args.workload, args.seed, args.mode, sizes)
    out["import_s"] = import_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
