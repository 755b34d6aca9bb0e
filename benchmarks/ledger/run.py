"""The INDISS performance ledger: five workloads, end-to-end and per-layer metrics.

Every workload and metric is declared in ``BENCHMARK.json`` at the repo
root; ``README.md`` beside this file says why each one is there.

One run of one workload (what a regression check invokes)::

    python3 benchmarks/ledger/run.py --workload media_city --seed 3 --seconds 24 --trace 0

prints each metric by name with its unit, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

The full ledger (every workload, both blocks, one results file)::

    python3 benchmarks/ledger/run.py [--seed N] [--workload NAME ...] [--out PATH]

Run protocol.  Each repetition is a fresh interpreter (``workloads.py``),
started one at a time in a fixed order.  A run first makes one reference
repetition -- with a metrics-only recording, or with the full recording and
``cProfile`` when traced -- which yields the discovery latencies and the
per-layer numbers.  It then repeats the workload untraced while another
repetition still fits in ``--seconds`` (counted from the start of the
reference), and at least three times; host metrics are the medians of
those.  Every repetition digests its virtual
outputs, and the run fails unless all digests agree.  Exits 1 when a
correctness check fails, 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import LAYERS

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: Untraced repetitions per run, at least; more while ``--seconds`` last.
MIN_REPS = 3
#: A repetition is killed (and the run fails) after this long.
REP_TIMEOUT_S = 150
#: End-to-end metrics computed from virtual time and simulator counters.
#: They are identical for a given seed, so ``compare.py`` wants them equal.
DETERMINISTIC = frozenset(
    ("found_rate", "discovery_p50", "discovery_p99", "messages_per_op", "bytes_per_op")
)
#: Tolerances of the correctness checks.  The hit-rate floor applies to
#: ``serving_read`` only: a third of ``serving_write``'s types start cold.
FIGURE_TOLERANCE = 0.25
MIN_HIT_RATE = 0.9
RECONCILE_TOLERANCE = 0.05
MAX_UNATTRIBUTED = 0.02


class RepFailed(RuntimeError):
    """A repetition exited non-zero or timed out."""


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, mode: str, sizes=None) -> dict:
    """Run one repetition in a fresh interpreter and return its summary."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if sizes is not None:
        cmd += ["--sizes", json.dumps(sizes)]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload}/{mode} timed out after {REP_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RepFailed(f"{workload}/{mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def sectioned(plain: list, phase: str) -> float:
    """A phase's wall time: the sum over its sections of each section's
    median across the untraced repetitions."""
    columns = zip(*(r[f"{phase}_sections"] for r in plain), strict=True)
    return sum(statistics.median(column) for column in columns)


def end_to_end(reference: dict, plain: list) -> dict:
    """``{metric: (value, samples)}``: host metrics from the untraced
    repetitions (samples are per repetition), virtual ones from the
    reference repetition."""
    counters = reference["counters"]
    latency = reference["latency"]
    setup_s = statistics.median(r["import_s"] for r in plain) + sectioned(plain, "setup")
    virtual = {
        "found_rate": _ratio(counters["answered"], counters["attempted"]),
        "discovery_p50": latency["p50_us"] / 1000.0,
        "discovery_p99": latency["p99_us"] / 1000.0,
        "messages_per_op": _ratio(counters["messages"], counters["ops"]),
        "bytes_per_op": _ratio(counters["bytes"], counters["ops"]),
    }
    rss = [r["peak_rss_mb"] for r in plain]
    return {
        "ops_per_s": (
            counters["ops"] / sectioned(plain, "run"),
            [r["counters"]["ops"] / r["run_s"] for r in plain],
        ),
        "setup_s": (setup_s, [r["import_s"] + r["setup_s"] for r in plain]),
        "peak_rss_mb": (statistics.median(rss), rss),
        **{name: (value, [value]) for name, value in virtual.items()},
    }


def per_layer(reference: dict, plain: list, mp) -> dict:
    """Per-layer metrics from the traced reference repetition."""
    counters = reference["counters"]
    profile = reference["profile"]
    out = {}
    for layer in LAYERS:
        row = profile["layers"][layer]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = _ratio(row["self_s"], profile["total_s"])
        if layer != "unattributed":
            out[f"{layer}.calls_in"] = row["calls_in"]
    run_s = sectioned(plain, "run")
    untraced_wall = sectioned(plain, "setup") + run_s
    out["net.simclock.events_fired"] = counters["events_fired"]
    out["net.simclock.events_per_s"] = counters["events_fired"] / run_s
    out["net.simclock.compactions"] = counters["compactions"]
    out["net.route_cache_hit_rate"] = _ratio(
        counters["route_hits"], counters["route_hits"] + counters["route_misses"]
    )
    out["net.messages"] = counters["messages"]
    parse = counters["parse"]
    out["sdp.parse_dedup_rate"] = _ratio(
        sum(shared for _, shared in parse.values()),
        sum(decoded + shared for decoded, shared in parse.values()),
    )
    for proto in ("slp", "upnp", "jini"):
        decoded, shared = parse.get(proto, (0, 0))
        out[f"sdp.{proto}.parse_dedup_rate"] = _ratio(shared, decoded + shared)
    out["core.translations"] = counters["translations"]
    out["core.sessions"] = counters["sessions"]
    out["core.cache_mutations"] = counters["cache_mutations"]
    out["core.session_retries"] = counters["session_retries"]
    out["core.session_p50"] = (reference["session_p50_us"] or 0) / 1000.0
    out["federation.records_applied"] = counters["records_applied"]
    out["federation.digest_encodes"] = counters["digest_encodes"]
    out["serving.fallbacks"] = counters["fallbacks"]
    out["serving.stale_answers"] = counters["stale_answers"]
    out["serving.index_rebuilds"] = counters["index_rebuilds"]
    out["query_hit_rate"] = _ratio(counters["query_hits"], counters["query_responses"])
    out["staleness_mean"] = (
        _ratio(counters["staleness_sum_us"], counters["responses_sent"]) / 1000.0
    )
    out["world.engine.mp_windows"] = mp["windows"] if mp else 0
    out["world.engine.mp_speedup"] = untraced_wall / mp["run_s"] if mp else 0.0
    out["mp_ops_per_s"] = mp["counters"]["ops"] / mp["run_s"] if mp else 0.0
    out["obs.trace_overhead"] = (
        (reference["setup_s"] + reference["run_s"]) / untraced_wall - 1.0
    )
    figures = reference.get("figures_ms") or {}
    for metric, _, _ in workloads.FIGURES:
        out[metric] = figures.get(metric) or 0.0
    return out


def checks(workload: str, reference: dict, plain: list, mp, traced: bool) -> dict:
    """The run's correctness checks, by name."""
    counters = reference["counters"]
    result = {
        "same_virtual_outputs_every_repetition": all(
            r["digest"] == reference["digest"] for r in plain
        ),
        "no_failed_operations": all(
            r["counters"]["attempted"] == r["counters"]["answered"] > 0
            for r in [reference, *plain]
        ),
    }
    if workload == "paper_figs":
        paper = reference["paper_ms"]
        result["figures_within_25pct_of_paper"] = all(
            abs(reference["figures_ms"][metric] - paper[key])
            <= FIGURE_TOLERANCE * paper[key]
            for metric, _, key in workloads.FIGURES
        )
    if workload == "serving_read":
        result["query_hit_rate_at_least_0.9"] = (
            counters["query_hits"] >= MIN_HIT_RATE * counters["query_responses"]
        )
    if traced:
        profile = reference["profile"]
        wall = reference["setup_s"] + reference["run_s"]
        unattributed = profile["layers"]["unattributed"]["self_s"]
        result["layer_attribution_reconciles"] = (
            abs(profile["total_s"] - wall) <= RECONCILE_TOLERANCE * wall
            and unattributed <= MAX_UNATTRIBUTED * profile["total_s"]
        )
    if mp is not None:
        result["multiprocess_matches_single_engine"] = all(
            mp["counters"][key] == counters[key]
            for key in ("events_fired", "attempted", "answered", "ops")
        )
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool, sizes=None) -> dict:
    """One run of one workload: its repetitions, metrics and checks.

    ``seconds`` bounds the whole run, reference included: after the
    first ``MIN_REPS`` untraced repetitions, another starts only while
    one more of median length still ends within it.
    """
    start = time.perf_counter()
    reference = spawn(workload, seed, "traced" if traced else "virtual", sizes)
    plain, walls = [], []
    while len(plain) < MIN_REPS or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        began = time.perf_counter()
        plain.append(spawn(workload, seed, "plain", sizes))
        walls.append(time.perf_counter() - began)
    mp = None
    if traced and workload == "district_grid":
        mp = spawn(workload, seed, "mp", sizes)
    metrics = end_to_end(reference, plain)
    run = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(plain),
        "attempted": sum(r["counters"]["attempted"] for r in [reference, *plain]),
        "failed": sum(
            r["counters"]["attempted"] - r["counters"]["answered"]
            for r in [reference, *plain]
        ),
        "latency_samples": reference["latency"]["count"],
        "digest": reference["digest"],
        "end_to_end": {
            name: {"value": value, "samples": samples, "deterministic": name in DETERMINISTIC}
            for name, (value, samples) in metrics.items()
        },
        "checks": checks(workload, reference, plain, mp, traced),
    }
    if traced:
        run["per_layer"] = {
            name: {"value": value} for name, value in per_layer(reference, plain, mp).items()
        }
    run["correct"] = all(run["checks"].values())
    return run


def _block(run: dict, kind: str, spec: dict) -> dict:
    """The declared metrics of one block, with units, in declared order."""
    return {
        entry["name"]: {"value": run[kind][entry["name"]]["value"], "unit": entry["unit"]}
        for entry in spec[kind]
    }


def _print_run(run: dict, spec: dict, kinds) -> None:
    workload = run["workload"]
    for kind in kinds:
        for name, metric in _block(run, kind, spec).items():
            print(f"{workload:14s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"{workload:14s} {'repetitions':34s} {run['repetitions']:>16d}   "
        f"(latency samples {run['latency_samples']}, digest {run['digest']})"
    )
    for name, ok in run["checks"].items():
        print(f"{workload:14s} check {name:28s} {'pass' if ok else 'FAIL':>16s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="INDISS performance ledger",
        epilog="With --trace, one workload is run and one result line printed; "
        "without it, every named workload gets both blocks and a results file.",
    )
    parser.add_argument("--workload", action="append", choices=workloads.ORDER)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="results file (full-ledger mode)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = declared()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or list(workloads.ORDER)
    try:
        if args.trace is not None:
            if len(names) != 1:
                parser.error("--trace runs exactly one --workload")
            run = measure(names[0], args.seed, seconds, traced=bool(args.trace))
            kind = "per_layer" if args.trace else "end_to_end"
            _print_run(run, spec, (kind,))
            print(json.dumps({
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": _block(run, kind, spec),
            }))
            return 0 if run["correct"] else 1
        runs = {}
        for name in names:
            runs[name] = measure(name, args.seed, seconds, traced=True)
            _print_run(runs[name], spec, ("end_to_end", "per_layer"))
    except RepFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    out = args.out or HERE / "out" / f"ledger-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "workloads": runs}, handle, indent=1)
    print(f"wrote {out}")
    return 0 if all(run["correct"] for run in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
