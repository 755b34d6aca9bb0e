"""Serving-tier benchmark: the query frontend under open-loop load.

Drives the ``serving_backbone`` scenario — federated campus gateways,
gossip-warmed caches, a :class:`~repro.serving.frontend.QueryFrontend`
per gateway — with an open-loop ``QueryLoad`` population sized to offer
>= 10^4 queries, and reports the serving tier's headline numbers:

* per-query latency percentiles (``p50_us`` / ``p95_us`` / ``p99_us``,
  from the flight recorder's histogram buckets);
* warm hit rate (the ``--check`` gate requires >= ``WARM_HIT_GATE``);
* staleness of served answers (mean / max honesty stamps, stale count);
* miss-fallback traffic, and simulator throughput for the perf gate.

The headline tier runs **twice with the same seed** and the row digests
(canonical JSON over the client rows plus the serving counters) must be
byte-identical — ``--check`` fails otherwise, which is the CI
reproducibility gate.  A small ``serving_grid`` pair additionally pins
the single-threaded and inline-partitioned engines to identical query
row streams.

Results go to ``BENCH_serving.json``.  ``--check`` also compares
machine-normalized events/sec against every entry in the committed
``benchmarks/BENCH_serving.baseline.json`` (falling below
``GATE_FRACTION`` of a gate fails), through the gate ``perf_gate.py``
shares with ``bench_core_hotpaths``.

Run directly (``PYTHONPATH=src python benchmarks/bench_serving.py``) or
through pytest for the smoke test.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from perf_gate import check_gates, machine_ref_score
from repro.world import World, run_world_partitioned
from repro.world.scenarios import serving_backbone_spec, serving_grid_spec

RESULT_FILE = "BENCH_serving.json"
BASELINE_FILE = Path(__file__).parent / "BENCH_serving.baseline.json"

#: CI fails when normalized events/sec drops below this fraction of the
#: committed gate value.  Wider than the core bench's 0.8: the headline
#: run is short (~1.5s), so the normalized metric is noisier than the
#: core gates' 10s+ workloads.
GATE_FRACTION = 0.7
#: ... or when the warm-cache hit rate falls below the ISSUE's floor.
WARM_HIT_GATE = 0.9
#: ... or when fewer open-loop queries than this were actually answered.
MIN_QUERIES = 10_000

#: The headline tier: 4 fleet gateways x 4 leaves x 5 clients x 600
#: queries = 12,000 offered queries, one type in four served cold so the
#: miss -> fallback -> gossip path stays exercised at scale.
BACKBONE_PARAMS = dict(
    members=4,
    nodes=200,
    service_types=4,
    cold_types=1,
    clients_per_leaf=5,
    queries_per_client=600,
    mean_interval_us=5_000,
    run_us=4_500_000,
)

GATE_KEY = "serving_backbone_12000"


def _digest(world, outcome) -> str:
    """Canonical digest of everything the serving tier produced: the
    per-client query rows plus the frontend counters.  Byte-identical
    across runs of the same spec + seed, on any engine."""
    rows = world.load_groups.get("query", [])
    counters = {
        key: value
        for key, value in sorted(outcome.extras.items())
        if key.startswith(("query_", "serving_", "queries_"))
    }
    payload = json.dumps([rows, counters], sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _serving_row(world, outcome, wall_s: float) -> dict:
    extras = outcome.extras
    answered = extras.get("query_responses", 0)
    rows = world.load_groups.get("query", [])
    lat_sum = sum(row.get("lat_sum", 0) for row in rows)
    lat_count = sum(row.get("lat_count", 0) for row in rows)
    return {
        # Exact mean over every answered query; the percentiles below
        # come from the recorder's histogram buckets, so they quantize
        # to bucket edges.
        "latency_mean_us": round(lat_sum / lat_count) if lat_count else 0,
        "wall_s": round(wall_s, 4),
        "events_fired": outcome.world.scheduler.events_fired,
        "events_per_sec": (
            round(outcome.world.scheduler.events_fired / wall_s) if wall_s else 0
        ),
        "nodes": outcome.world.node_count,
        "queries_offered": extras.get("queries_offered", 0),
        "queries_sent": extras.get("queries_sent", 0),
        "responses": answered,
        "hit_rate": extras.get("query_hit_rate", 0.0),
        "p50_us": extras.get("query_latency_p50_us", 0),
        "p95_us": extras.get("query_latency_p95_us", 0),
        "p99_us": extras.get("query_latency_p99_us", 0),
        "stale_answers": extras.get("serving_stale_answers", 0),
        "staleness_mean_us": extras.get("serving_staleness_mean_us", 0),
        "staleness_max_us": extras.get("serving_staleness_max_us", 0),
        "fallbacks": extras.get("serving_fallbacks", 0),
        "decode_errors": extras.get("query_decode_errors", 0),
        "warm_members": extras.get("warm_members_after_gossip", 0),
        "frontends": extras.get("serving_frontends", 0),
    }


def run_backbone(seed: int = 0, **overrides) -> dict:
    """The headline tier, run twice at the same seed for the digest pair."""
    params = dict(BACKBONE_PARAMS)
    params.update(overrides)
    spec = serving_backbone_spec(**params)
    rows = {}
    digests = []
    best = None
    for attempt in range(2):
        start = time.perf_counter()
        world = World.build(spec, seed=seed, record=True)
        world.run_workload()
        outcome = world.outcome()
        wall_s = time.perf_counter() - start
        digests.append(_digest(world, outcome))
        if best is None or wall_s < best["wall_s"]:
            best = _serving_row(world, outcome, wall_s)
    best["digest"] = digests[0]
    best["reproducible"] = digests[0] == digests[1]
    rows[GATE_KEY] = best
    return rows


def run_grid_parity(seed: int = 0) -> dict:
    """Single-threaded vs inline-partitioned engines on ``serving_grid``:
    identical query rows, reported with both wall clocks.  (The full
    three-engine suite, multiprocess included, lives in tests/world.)"""
    spec = serving_grid_spec(
        districts=3, leaves_per_district=2, clients_per_leaf=2,
        queries_per_client=25, mean_interval_us=40_000, run_us=2_500_000,
    )
    start = time.perf_counter()
    single = World.build(spec, seed=seed)
    single.run_workload()
    single_wall = time.perf_counter() - start
    partitioned = run_world_partitioned(spec, seed=seed)
    single_rows = [dict(row) for row in single.load_groups.get("query", [])]
    part_rows = partitioned["load_groups"].get("query", [])
    return {
        "serving_grid_parity": {
            "wall_s": round(single_wall, 4),
            "partitioned_wall_s": partitioned["wall_s"],
            "partitions": partitioned["partitions"],
            "queries_sent": sum(r["sent"] for r in single_rows),
            "responses": sum(r["responses"] for r in single_rows),
            "engines_agree": single_rows == part_rows,
        }
    }


def run(seed: int = 0) -> dict:
    results = run_backbone(seed=seed)
    results.update(run_grid_parity(seed=seed))
    results["machine_ref_score"] = round(machine_ref_score())
    return results


def write_results(results: dict, path: str = RESULT_FILE) -> None:
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True))


def check_results(results: dict, baseline_path: Path = BASELINE_FILE) -> list[str]:
    """Gate messages (empty when everything passes): functional gates on
    the measured run itself, plus the machine-normalized perf gates from
    the committed baseline."""
    problems = []
    headline = results.get(GATE_KEY, {})
    if headline.get("responses", 0) < MIN_QUERIES:
        problems.append(
            f"{GATE_KEY}: only {headline.get('responses', 0)} queries answered "
            f"(gate requires >= {MIN_QUERIES})"
        )
    if headline.get("hit_rate", 0.0) < WARM_HIT_GATE:
        problems.append(
            f"{GATE_KEY}: warm hit rate {headline.get('hit_rate', 0.0):.4f} "
            f"below the {WARM_HIT_GATE} gate"
        )
    if not headline.get("reproducible"):
        problems.append(
            f"{GATE_KEY}: two same-seed runs produced different row digests"
        )
    parity = results.get("serving_grid_parity", {})
    if not parity.get("engines_agree"):
        problems.append(
            "serving_grid_parity: single and partitioned engines disagree"
        )
    if not baseline_path.exists():
        problems.append(f"baseline file {baseline_path} missing")
        return problems
    baseline = json.loads(baseline_path.read_text())
    problems.extend(
        check_gates(results, baseline.get("gates", ()), GATE_FRACTION, GATE_KEY)
    )
    return problems


# -- pytest entry point ----------------------------------------------------------


def test_serving_bench_smoke():
    """Small-scale sanity: the headline tier answers with a warm cache,
    reports latency percentiles, and is byte-reproducible per seed."""
    rows = run_backbone(
        seed=0, nodes=40, clients_per_leaf=1, queries_per_client=30,
        mean_interval_us=20_000, run_us=2_500_000,
    )
    row = rows[GATE_KEY]
    assert row["responses"] == row["queries_sent"] > 0
    assert row["hit_rate"] > 0.7
    assert row["p99_us"] >= row["p50_us"] > 0
    assert row["reproducible"], "same-seed runs diverged"
    assert row["warm_members"] >= 4
    parity = run_grid_parity(seed=0)["serving_grid_parity"]
    assert parity["engines_agree"]
    assert parity["responses"] > 0


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    check = "--check" in args
    if check:
        args.remove("--check")
    try:
        seed = int(args[0]) if args else 0
    except ValueError:
        print(f"usage: {argv[0]} [--check] [seed]", file=sys.stderr)
        return 2
    results = run(seed=seed)
    write_results(results)

    for name, row in sorted(results.items()):
        if not isinstance(row, dict):
            print(f"{name:24s} {row}")
            continue
        if name == "serving_grid_parity":
            print(
                f"{name:24s} {row['wall_s']:7.2f}s wall  "
                f"{row['responses']:>6d} answered  "
                f"engines_agree={row['engines_agree']}"
            )
            continue
        print(
            f"{name:24s} {row['wall_s']:7.2f}s wall  "
            f"{row['responses']:>6d} answered  hit {row['hit_rate']:.4f}  "
            f"p50 {row['p50_us']}us  p99 {row['p99_us']}us  "
            f"stale_max {row['staleness_max_us']}us  "
            f"reproducible={row['reproducible']}"
        )
    print(f"wrote {RESULT_FILE}")

    if check:
        problems = check_results(results)
        for problem in problems:
            print(f"SERVING GATE: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"serving gates ok (hit rate >= {WARM_HIT_GATE}, >= {MIN_QUERIES} "
            f"queries, reproducible, perf >= {GATE_FRACTION:.0%} of baseline)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
