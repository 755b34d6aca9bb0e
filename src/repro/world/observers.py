"""The world's reusable metrics collectors (the observer API).

One collector registry replaces the per-scenario stat plumbing the legacy
builders carried around (``_hotpath_stats`` / ``_chatter_extras`` /
``_fleet_extras``): a workload's :class:`~repro.world.spec.Collect` steps
name a provider, the provider reads the built world, and the rows merge
into ``ScenarioOutcome.extras``.  Scenario-specific observers register at
runtime through :meth:`World.add_observer`.

Providers receive ``(world, **params)`` and return a dict.  Values are
captured *when the step runs* — a ``Collect`` placed right after warmup
reports the warmed-up state, not the end-of-run state.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional

from ..obs import LATENCY_BUCKETS_US, Histogram, metric_key


def hotpath_stats(world) -> dict:
    """Core hot-path counters the perf benchmarks read.

    ``parse_dedup_rate`` is decode-level across *every* memo-aware
    receiver (native endpoints and units alike, from the network's
    per-protocol :class:`~repro.net.ParseCounter` registry); per-protocol
    rates ride along as ``parse_dedup_rate_<proto>``.  The unit-level
    stream counters (``streams_parsed``/``streams_shared``) keep their
    historical meaning.
    """
    net = world.net
    sched = net.scheduler
    units = [u for inst in world.instances for u in inst.units.values()]
    parsed = sum(u.streams_parsed for u in units)
    shared = sum(u.streams_shared for u in units)
    hits = net.route_cache_hits
    misses = net.route_cache_misses
    row = {
        "events_fired": sched.events_fired,
        "sched_compactions": sched.compactions,
        "route_cache_hits": hits,
        "route_cache_misses": misses,
        "route_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "streams_parsed": parsed,
        "streams_shared": shared,
        "parse_dedup_rate": shared / (parsed + shared) if parsed + shared else 0.0,
    }
    counters = net.parse_stats
    if counters:
        decoded_total = sum(c.decoded for c in counters.values())
        shared_total = sum(c.shared for c in counters.values())
        row["parse_decoded"] = decoded_total
        row["parse_shared"] = shared_total
        row["parse_seeded"] = sum(c.seeded for c in counters.values())
        if decoded_total + shared_total:
            row["parse_dedup_rate"] = shared_total / (decoded_total + shared_total)
        for proto, counter in sorted(counters.items()):
            row[f"parse_dedup_rate_{proto}"] = round(counter.dedup_rate, 4)
    return row


def note_row_latency(row: dict, latency_us: int) -> None:
    """Fold one observed latency into a load-group row, as flat fields.

    The fields are plain numeric keys (``lat_b<i>`` per fixed bucket,
    ``lat_count``, ``lat_sum``) so the multiprocess driver's row merge —
    which sums numeric fields across workers — reconstructs the combined
    histogram exactly.  Only called when flight recording is on, so the
    legacy extras key set is unchanged for unrecorded runs.
    """
    index = bisect_left(LATENCY_BUCKETS_US, latency_us)
    row[f"lat_b{index}"] = row.get(f"lat_b{index}", 0) + 1
    row["lat_count"] = row.get("lat_count", 0) + 1
    row["lat_sum"] = row.get("lat_sum", 0) + latency_us


def rows_latency_histogram(rows) -> Optional[Histogram]:
    """Rebuild one :class:`~repro.obs.Histogram` from a group's rows,
    or ``None`` when no row carries latency fields (recording was off)."""
    if not any(row.get("lat_count") for row in rows):
        return None
    hist = Histogram(LATENCY_BUCKETS_US)
    for row in rows:
        count = row.get("lat_count", 0)
        if not count:
            continue
        hist.count += count
        hist.sum += row.get("lat_sum", 0)
        for index in range(len(hist.buckets)):
            hist.buckets[index] += row.get(f"lat_b{index}", 0)
    return hist


def summarize_rows(
    rows,
    count_key: str,
    sums: tuple = (),
    rates: tuple = (),
    latency_prefix: Optional[str] = None,
) -> dict:
    """One aggregation for every load-group family.

    ``sums`` are ``(out_key, row_field)`` pairs; ``rates`` are
    ``(out_key, numerator_field, denominator_field)`` triples (0.0 when
    the denominator is zero).  When ``latency_prefix`` is given and the
    rows carry the flat latency fields written by :func:`note_row_latency`,
    p50/p95/p99 percentiles ride along — recorded runs only, so the
    legacy key set is stable.
    """
    out = {count_key: len(rows)}
    for key, column in sums:
        out[key] = sum(row.get(column, 0) for row in rows)
    for key, numerator, denominator in rates:
        num = sum(row.get(numerator, 0) for row in rows)
        den = sum(row.get(denominator, 0) for row in rows)
        out[key] = num / den if den else 0.0
    if latency_prefix is not None:
        hist = rows_latency_histogram(rows)
        if hist is not None:
            out[f"{latency_prefix}_latency_count"] = hist.count
            out[f"{latency_prefix}_latency_p50_us"] = hist.percentile(50)
            out[f"{latency_prefix}_latency_p95_us"] = hist.percentile(95)
            out[f"{latency_prefix}_latency_p99_us"] = hist.percentile(99)
    return out


def chatter_rows_summary(rows) -> dict:
    """Sums over one chatter group's per-client records.

    Shared with the multiprocess partition driver, which aggregates the
    merged per-worker rows with the same arithmetic the inline collector
    uses — so both backends report comparable fields.
    """
    return summarize_rows(
        rows,
        "chatter_clients",
        sums=(
            ("chatter_searches_issued", "issued"),
            ("chatter_searches_completed", "completed"),
        ),
        rates=(("chatter_found_rate", "found", "completed"),),
        latency_prefix="chatter",
    )


def chatter_stats(world, group: str = "chatter") -> dict:
    """Aggregate the per-client accounting of one SLP chatter group."""
    return chatter_rows_summary(world.load_groups.get(group, []))


def ping_rows_summary(rows) -> dict:
    """Sums over one ping group's per-flow records (see ``Ping``)."""
    return summarize_rows(
        rows,
        "ping_flows",
        sums=(("ping_sent", "sent"), ("ping_received", "received")),
    )


def ping_stats(world, group: str = "ping") -> dict:
    """Aggregate the standing unicast flows of one ``Ping`` group."""
    return ping_rows_summary(world.load_groups.get(group, []))


def cp_chatter_stats(world, group: str = "cp") -> dict:
    """Aggregate one control-point chatter group (UPnP M-SEARCH load)."""
    return summarize_rows(
        world.load_groups.get(group, []),
        "cp_clients",
        sums=(("cp_searches_completed", "completed"),),
        rates=(("cp_found_rate", "found", "completed"),),
        latency_prefix="cp",
    )


def query_rows_summary(rows) -> dict:
    """Sums over one query-load group's per-client records (``QueryLoad``).

    Shared with the multiprocess partition driver so both backends report
    identical serving extras: counters sum, the hit rate is recomputed
    from the summed counters, the staleness bound is the max over rows
    (each row is owned by exactly one worker, so merged rows carry the
    owner's value and zeros elsewhere).
    """
    out = summarize_rows(
        rows,
        "query_clients",
        sums=(
            ("queries_sent", "sent"),
            ("query_responses", "responses"),
            ("query_hits", "hits"),
            ("query_misses", "misses"),
            ("query_stale", "stale"),
            ("query_batch_sent", "batch_sent"),
            ("query_districts_sent", "districts_sent"),
            ("query_url_sent", "url_sent"),
            ("query_decode_errors", "decode_errors"),
        ),
        rates=(("query_hit_rate", "hits", "responses"),),
        latency_prefix="query",
    )
    out["query_staleness_max_us"] = max(
        (row.get("staleness_max_us", 0) for row in rows), default=0
    )
    return out


def serving_stats(world, group: str = "query") -> dict:
    """The serving tier's extras block: client-side query accounting plus
    the frontends' own endpoint counters and staleness aggregates."""
    extras = query_rows_summary(world.load_groups.get(group, []))
    frontends = getattr(world, "serving_frontends", [])
    extras["serving_frontends"] = len(frontends)
    if frontends:
        extras["serving_queries"] = sum(f.stats.queries for f in frontends)
        extras["serving_hits"] = sum(f.stats.hits for f in frontends)
        extras["serving_misses"] = sum(f.stats.misses for f in frontends)
        extras["serving_stale_answers"] = sum(
            f.stats.stale_answers for f in frontends
        )
        extras["serving_fallbacks"] = sum(f.stats.fallbacks for f in frontends)
        extras["serving_staleness_max_us"] = max(
            f.stats.staleness_max_us for f in frontends
        )
        answered = sum(f.stats.hits for f in frontends)
        stamped = sum(f.stats.staleness_sum_us for f in frontends)
        extras["serving_staleness_mean_us"] = (
            stamped // answered if answered else 0
        )
        extras["serving_index_rebuilds"] = sum(
            f.index.rebuilds for f in frontends
        )
    return extras


def fleet_stats(world, fleet=None) -> dict:
    """The federation family's shared extras block: instance-level cache
    and translation counters over every INDISS in the world, plus the
    named fleet's federation and gossip aggregates."""
    instances = world.instances
    extras = {
        "fleet_size": len(instances),
        "translations_total": sum(i.stats.translated for i in instances),
        "cache_hits": sum(i.cache.hits for i in instances),
        "cache_misses": sum(i.cache.misses for i in instances),
        "cache_sizes": {i.node.address: len(i.cache) for i in instances},
    }
    handle = world.fleets.get(fleet) if fleet is not None else None
    if handle is not None:
        extras["federation"] = handle.aggregate_stats()
        extras["gossip"] = handle.aggregate_gossip_stats()
        extras["election_flaps"] = handle.elector.flaps
        extras["session_retries"] = sum(i.stats.retries for i in instances)
        extras["session_gave_up"] = sum(i.stats.gave_up for i in instances)
    return extras


def fleet_health(world, fleet=None) -> dict:
    """Failure-detector and self-healing extras for one named fleet:
    every detector transition, completed ring repairs, the current
    suspect/dead boards, and the crash-path session/bootstrap counters."""
    handle = world.fleets[fleet]
    health = handle.health
    row = {
        "detector_transitions": [list(t) for t in health.transitions],
        "ring_repairs": [list(r) for r in handle.repairs],
        "suspects_now": sorted(m for m, s in health.status.items() if s == "suspect"),
        "dead_now": sorted(m for m, s in health.status.items() if s == "dead"),
        "session_retry_fallbacks": sum(
            i.stats.retry_fallbacks for i in world.instances
        ),
        "owner_down_fallbacks": handle.aggregate_stats()["owner_down_fallbacks"],
        "bootstrap_completed_at": {
            member_id: member.gossiper.bootstrap_completed_at
            for member_id, member in sorted(handle.members.items())
            if member.gossiper is not None
            and member.gossiper.bootstrap_completed_at is not None
        },
    }
    return row


def warm_members(world, fleet=None) -> dict:
    """How many gateways hold at least one cached record (fleet members
    when a fleet is named, every INDISS instance otherwise)."""
    if fleet is not None:
        instances = [m.indiss for m in world.fleets[fleet].members.values()]
    else:
        instances = world.instances
    count = sum(1 for instance in instances if len(instance.cache) > 0)
    return {"warm_members_after_gossip": count}


def gateway_count(world) -> dict:
    return {"gateways": len(world.instances)}


def node_count(world) -> dict:
    return {"total_nodes": len(world.net.nodes)}


def device_count(world) -> dict:
    return {"devices": len(world.devices)}


def gena_events(world) -> dict:
    return {"gena_events": sum(s.events_received for s in world.gena_subscribers)}


def monitor_attribution(world) -> dict:
    """Per-SDP frame/seed attribution summed over every INDISS monitor."""
    aggregated: dict[str, dict[str, int]] = {}
    for instance in world.instances:
        for sdp_id, row in instance.monitor.parse_attribution().items():
            agg = aggregated.setdefault(sdp_id, {"frames": 0, "seeded": 0})
            agg["frames"] += row["frames"]
            agg["seeded"] += row["seeded"]
    return {"monitor_attribution": aggregated}


def ring_spread(world, fleet: str, keys: tuple = ()) -> dict:
    return {"owner_spread": world.fleets[fleet].ring.spread(tuple(keys))}


def parse_once_flag(world) -> dict:
    return {"parse_once": world.net.parse_once}


def partition_stats(world) -> dict:
    """The frozen district map and, when partitioned, per-shard counters."""
    pmap = world.net.partition_map
    if pmap is None:
        return {"partitions": 1}
    row = {"partitions": pmap.count, "lookahead_us": pmap.lookahead_us}
    engine = world.net.engine
    if engine is not None:
        row["events_by_partition"] = engine.events_by_partition()
        row["barrier_windows"] = engine.windows
    return row


def churn_stats(world, group: str = "churn") -> dict:
    """Aggregate the Churn step's per-cycle records."""
    cycles = world.load_groups.get(group, [])
    row = summarize_rows(
        cycles, "churn_cycles", sums=(("churn_rejoins", "rejoined"),)
    )
    row["churn_members_hit"] = len({c["member"] for c in cycles})
    row["churn_log"] = list(cycles)
    return row


def global_metrics(world) -> dict:
    """End-of-run global counters mirrored into ``ScenarioOutcome.metrics``.

    Read once from existing simulator statistics when the outcome is
    resolved — nothing here touches the event hot path, so the mirror is
    free even for recorded runs.
    """
    net = world.net
    sched = net.scheduler
    return {
        "events_fired": sched.events_fired,
        "nodes": len(net.nodes),
        "unrouted": net.unrouted,
        "route_cache_hits": getattr(net, "route_cache_hits", 0),
        "route_cache_misses": getattr(net, "route_cache_misses", 0),
        "translations": sum(i.stats.translated for i in world.instances),
        "cache_answers": sum(i.stats.answered_from_cache for i in world.instances),
    }


def recorded_metrics(world) -> dict:
    """The snapshot of ``world.recording``, with the per-segment traffic
    counters ``net.segment.frames``/``net.segment.bytes`` read from the
    segments' traffic monitors.

    A segment is reported once it has booked a frame, and only by the
    process that owns its district: a forked worker's monitors also book
    the workload-time sends it replays for other districts, so counting
    owned segments only keeps worker snapshots summing exactly to the
    single-process totals.
    """
    recording = world.recording
    snapshot = recording.metrics.snapshot()
    if not recording.metrics.on:
        return snapshot
    counters = snapshot["counters"]
    pmap = world.net.partition_map
    pid_of = pmap.pid_of if pmap is not None else {}
    for name, segment in world.net.segments.items():
        traffic = segment.traffic
        if traffic.total_messages and recording.owns(pid_of.get(name, 0)):
            labels = {"segment": name}
            counters[metric_key("net.segment.frames", labels)] = traffic.total_messages
            counters[metric_key("net.segment.bytes", labels)] = traffic.total_bytes
    snapshot["counters"] = dict(sorted(counters.items()))
    return snapshot


#: provider name -> callable(world, **params) -> dict
COLLECTORS: dict[str, Callable[..., dict]] = {
    "hotpaths": hotpath_stats,
    "chatter": chatter_stats,
    "cp_chatter": cp_chatter_stats,
    "fleet": fleet_stats,
    "fleet_health": fleet_health,
    "warm_members": warm_members,
    "gateway_count": gateway_count,
    "node_count": node_count,
    "device_count": device_count,
    "gena_events": gena_events,
    "monitor_attribution": monitor_attribution,
    "ring_spread": ring_spread,
    "parse_once": parse_once_flag,
    "churn": churn_stats,
    "ping": ping_stats,
    "serving": serving_stats,
    "partitions": partition_stats,
}


__all__ = [
    "COLLECTORS",
    "hotpath_stats",
    "chatter_stats",
    "chatter_rows_summary",
    "ping_stats",
    "ping_rows_summary",
    "query_rows_summary",
    "recorded_metrics",
    "serving_stats",
    "partition_stats",
    "fleet_stats",
    "summarize_rows",
    "note_row_latency",
    "rows_latency_histogram",
    "global_metrics",
]
