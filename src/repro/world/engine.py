"""The multiprocess partition driver: one forked worker per district.

The inline partitioned backend (``World.build(engine="partitioned")``)
already runs every district in lookahead windows; this module is the step
to *true* parallelism: the world is built **once** in the parent, the
process forks one worker per district (copy-on-write, so the 20k-node
build cost is paid a single time), and each worker runs only its own
shard's windows.  At every barrier the workers swap their cross-district
frame batches with the parent over pipes:

    worker  ->  parent:  ("window", edge_us, [CrossFrame, ...])
    parent  ->  worker:  ("window", edge_us, union of all batches)
    worker  ->  parent:  ("done", result payload)           (at the end)

No negotiation is needed: every worker replays the same build + workload
script, so the barrier-edge sequence is identical arithmetic everywhere
(see ``repro.net.parallel``).  Frames carry wire bytes and primitives
only, so they pickle through the pipe; sequence numbers assigned at send
time make the injection order — and therefore every shard's event stream —
identical to the inline backend's.

Result merging is exact, not approximate, because the workloads this
backend accepts keep *event-driven* counters only: a worker's non-local
shards never run, so its copies of their counters stay zero, and summing
across workers reconstructs the inline totals bit-for-bit (the parity
suite pins this).  Workloads needing run-until-idle, predicates, or churn
belong on the inline backend, which shares the same window protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Optional

from ..obs import MetricsRegistry, sort_records
from .build import World
from .observers import (
    chatter_rows_summary, ping_rows_summary, query_rows_summary, recorded_metrics,
)
from .partition import spec_partition_map
from .spec import WorldSpec

#: Seconds a barrier may stall before the parent declares the run wedged.
BARRIER_TIMEOUT_S = 300.0


def _worker_result(world: World) -> dict:
    """What one process (or the inline run) reports: per-shard counters
    plus the raw load-group rows (merged by :func:`_merge_rows`)."""
    outcome = world.outcome()
    engine = world.net.engine
    payload = {
        "events_by_partition": engine.events_by_partition(),
        "windows": engine.windows,
        "unrouted": world.net.unrouted,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "load_groups": {
            name: [dict(row) for row in rows]
            for name, rows in world.load_groups.items()
        },
    }
    recording = world.recording
    if recording is not None and recording.on:
        # A worker's snapshot covers only its owned districts (the
        # ``Recording.restrict`` contract), so summing snapshots and
        # concatenating span streams reconstructs the inline timeline
        # exactly; canonical (ts, district, seq) order makes the merge
        # deterministic.
        payload["obs"] = {
            "metrics": recorded_metrics(world),
            "spans": sort_records(recording.trace.records),
        }
    return payload


def _worker_main(world: World, pid: int, conn) -> None:
    """Run one district's shard to completion, swapping barrier batches."""
    try:
        def exchange(edge_us: int, frames: list) -> list:
            conn.send(("window", edge_us, frames))
            kind, got_edge, inbound = conn.recv()
            if kind != "window" or got_edge != edge_us:
                raise RuntimeError(
                    f"worker {pid}: barrier mismatch ({kind} @ {got_edge} "
                    f"vs window @ {edge_us})"
                )
            return inbound

        world.net.engine.configure_worker(pid, exchange)
        world.run_workload()
        conn.send(("done", _worker_result(world)))
    except BaseException:  # noqa: BLE001 - shipped to the parent verbatim
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _merge_rows(payloads: list[dict]) -> dict[str, list[dict]]:
    """Element-wise merge of each group's rows across workers.

    Every worker replays the same build, so group lists line up row for
    row; numeric fields sum (event-driven counters are zero outside their
    owner worker), everything else keeps the first non-null value.
    """
    merged: dict[str, list[dict]] = {}
    for payload in payloads:
        for name, rows in payload["load_groups"].items():
            if name not in merged:
                merged[name] = [dict(row) for row in rows]
                continue
            for target, row in zip(merged[name], rows):
                for key, value in row.items():
                    if isinstance(value, bool):
                        target[key] = bool(target.get(key)) or value
                    elif isinstance(value, (int, float)):
                        target[key] = target.get(key, 0) + value
                    elif target.get(key) is None:
                        target[key] = value
    return merged


def _summarise(pmap, payloads: list[dict], backend: str, wall_s: float) -> dict:
    count = pmap.count
    per_pid = [0] * count
    for payload in payloads:
        for pid, events in enumerate(payload["events_by_partition"]):
            per_pid[pid] += events
    groups = _merge_rows(payloads)
    extras: dict = {}
    if "ping" in groups:
        extras.update(ping_rows_summary(groups["ping"]))
    if "chatter" in groups:
        extras.update(chatter_rows_summary(groups["chatter"]))
    if "query" in groups:
        extras.update(query_rows_summary(groups["query"]))
    latency = next(
        (p["latency_us"] for p in payloads if p["latency_us"] is not None), None
    )
    obs: Optional[dict] = None
    obs_payloads = [p["obs"] for p in payloads if p.get("obs")]
    if obs_payloads:
        spans: list = []
        for payload in obs_payloads:
            spans.extend(payload["spans"])
        obs = {
            "metrics": MetricsRegistry.merge_snapshots(
                [p["metrics"] for p in obs_payloads]
            ),
            "spans": sort_records(spans),
        }
    return {
        "backend": backend,
        "processes": len(payloads),
        "partitions": count,
        "lookahead_us": pmap.lookahead_us,
        "events_fired": sum(per_pid),
        "events_by_partition": per_pid,
        "windows": max(p["windows"] for p in payloads),
        "unrouted": sum(p["unrouted"] for p in payloads),
        "latency_us": latency,
        "results": max(p["results"] for p in payloads),
        "extras": extras,
        "load_groups": groups,
        "obs": obs,
        "wall_s": round(wall_s, 4),
    }


def run_world_partitioned(
    spec: WorldSpec, seed: int = 0, costs=None, record=False
) -> dict:
    """Inline partitioned run, reported in the same shape as the
    multiprocess result (the A/B row benchmarks put next to it)."""
    start = time.perf_counter()
    world = World.build(
        spec, seed=seed, costs=costs, engine="partitioned", record=record
    )
    world.run_workload()
    result = _worker_result(world)
    wall = time.perf_counter() - start
    return _summarise(world.net.engine.pmap, [result], "inline", wall)


def run_world_mp(
    spec: WorldSpec,
    seed: int = 0,
    costs=None,
    timeout_s: Optional[float] = BARRIER_TIMEOUT_S,
    record=False,
) -> dict:
    """Build once, fork one worker per district, merge the results.

    Falls back to the inline backend when the topology has a single
    district or the platform cannot fork.  Raises :class:`RuntimeError`
    when a worker dies or a barrier stalls past ``timeout_s``.
    """
    pmap, _ = spec_partition_map(spec)
    if pmap.count == 1 or not hasattr(os, "fork"):
        return run_world_partitioned(spec, seed=seed, costs=costs, record=record)

    ctx = multiprocessing.get_context("fork")
    start = time.perf_counter()
    world = World.build(
        spec, seed=seed, costs=costs, engine="partitioned", record=record
    )
    conns = []
    workers = []
    try:
        for pid in range(pmap.count):
            parent_conn, child_conn = ctx.Pipe()
            worker = ctx.Process(
                target=_worker_main, args=(world, pid, child_conn), daemon=True
            )
            worker.start()
            child_conn.close()
            conns.append(parent_conn)
            workers.append(worker)

        payloads: list[Optional[dict]] = [None] * pmap.count
        pending = set(range(pmap.count))
        while pending:
            batch: dict[int, tuple[int, list]] = {}
            for pid in sorted(pending):
                if timeout_s is not None and not conns[pid].poll(timeout_s):
                    raise RuntimeError(
                        f"partition worker {pid} stalled for {timeout_s}s"
                    )
                kind, *rest = conns[pid].recv()
                if kind == "done":
                    payloads[pid] = rest[0]
                elif kind == "error":
                    raise RuntimeError(f"partition worker {pid} failed:\n{rest[0]}")
                else:
                    batch[pid] = (rest[0], rest[1])
            pending -= {pid for pid in pending if payloads[pid] is not None}
            if not batch:
                continue
            edges = {edge for edge, _ in batch.values()}
            if len(edges) != 1 or len(batch) != len(pending):
                raise RuntimeError(
                    f"barrier desync: edges {sorted(edges)} from "
                    f"{sorted(batch)} while {sorted(pending)} still run"
                )
            edge = edges.pop()
            union: list = []
            for pid in sorted(batch):
                union.extend(batch[pid][1])
            for pid in sorted(batch):
                conns[pid].send(("window", edge, union))
        wall = time.perf_counter() - start
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            worker.join(timeout=10)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=10)
    return _summarise(pmap, [p for p in payloads if p is not None], "multiprocess", wall)


__all__ = ["run_world_mp", "run_world_partitioned", "BARRIER_TIMEOUT_S"]
