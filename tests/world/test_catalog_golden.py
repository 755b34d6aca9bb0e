"""One committed golden table for the scenario catalog.

``golden_catalog.json`` holds one row per catalog run: every
``SCENARIO_SPECS`` entry at its ``SMALL_SCALE_OVERRIDES`` sizes and seeds
0 and 1, plus the extra parameter sets in :data:`EXTRA_ROWS`.  A row is
the :func:`fingerprint` of that run: a digest of the capture trace in
capture order, the fired event count, the headline latency and result
count, the node count and segment names, and two digests of the extras
(all of them, and all but the :data:`VARIANT_EXTRAS`).

:func:`assert_matches_golden` runs one variant of some rows and compares
each run with its row, naming every row and field that moved:

* ``plain`` — every field.  The table is written by
  ``regen_golden.py``, one fresh interpreter per row; a test process has
  run many worlds before this one, so a match also shows that no run
  depends on worlds run earlier in the process;
* ``memos_off`` (``parse_once=False``), ``recorded`` (``record=True``) and
  ``filters_ignored`` (every socket receive filter ignored, so handlers
  see and drop the unwanted frames themselves) — every field but
  ``extras``: memos, recording and filters change host work, never the
  simulation;
* ``partitioned`` (the district-sharded engine) — every field but
  ``trace``: shards append capture records window by window, so the
  records agree as a multiset but not in order.

Each variant is checked where its subject is tested, catalog entry by
catalog entry: ``plain`` in ``tests/bench/test_scenarios.py``
(``TestDeterminism``) and ``test_parity.py``, ``memos_off`` in
``test_memo_transparency.py``, ``recorded`` in ``test_observability.py``,
``filters_ignored`` in ``test_receive_filter_transparency.py`` and
``partitioned`` in ``test_partitioned_engine.py``.

Regenerate the table with ``PYTHONPATH=src python tests/world/regen_golden.py``
after a change that is meant to move simulated behaviour; its diff names
every row that moved.
"""

from __future__ import annotations

import hashlib
import json
from fnmatch import fnmatchcase
from functools import cache
from pathlib import Path

from repro.net import UdpSocket
from repro.world import run_world
from repro.world.scenarios import SCENARIO_SPECS, SMALL_SCALE_OVERRIDES

GOLDEN = Path(__file__).with_name("golden_catalog.json")

SEEDS = (0, 1)

#: Parameter sets checked beyond every entry x :data:`SEEDS` at its test
#: sizes: ``(entry, seed, params)``.
EXTRA_ROWS = (
    ("native_upnp", 4, {}),
    ("multi_segment_home", 4, {}),
    ("upnp_to_slp_client_side", 2, {"warm_cache": False}),
    ("federated_campus", 0, {"segments": 5, "nodes": 60}),
    ("sharded_backbone", 0, {"members": 4, "nodes": 80, "service_types": 4}),
)

#: Flattened extras keys a variant may change: the decodes, shares, seeds
#: and encodes a memo saves, the memo switch itself, and the latency
#: percentiles only a recorded run reports.
VARIANT_EXTRAS = (
    "hotpaths.parse_*",
    "hotpaths.streams_*",
    "monitor_attribution.*.seeded",
    "parse_once",
    "gossip.record_encodes",
    "*_latency_count",
    "*_latency_p*_us",
)

FIELDS = (
    "trace", "events_fired", "latency_us", "results", "nodes", "segments",
    "extras", "extras_invariant",
)


def row_keys() -> list[tuple[str, int, dict]]:
    """Every ``(entry, seed, params)`` the table holds a row for."""
    keys = [
        (name, seed, SMALL_SCALE_OVERRIDES.get(name, {}))
        for name in sorted(SCENARIO_SPECS)
        for seed in SEEDS
    ]
    return keys + list(EXTRA_ROWS)


def flatten(extras: dict, prefix: str = "") -> dict:
    """Nested extras as one ``{"a.b.c": value}`` dict."""
    flat = {}
    for key, value in extras.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def invariant_extras(extras: dict) -> dict:
    """Flattened ``extras`` without the :data:`VARIANT_EXTRAS` keys."""
    return {
        key: value
        for key, value in flatten(extras).items()
        if not any(fnmatchcase(key, pattern) for pattern in VARIANT_EXTRAS)
    }


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def fingerprint(entry: str, seed: int, params: dict, **run_kwargs) -> dict:
    """What one run of catalog ``entry`` put on the wire and reported."""
    return outcome_fingerprint(run_world(
        SCENARIO_SPECS[entry](**params), seed=seed, capture=True, **run_kwargs
    ))


def outcome_fingerprint(outcome) -> dict:
    """The golden-row fields of one captured run's ``outcome``."""
    world = outcome.world
    trace = hashlib.sha256()
    for record in world.trace:
        trace.update(repr((
            record.time_us, record.transport, record.source,
            record.destination, record.size, record.segment,
        )).encode())
        trace.update(record.payload)
    return {
        "trace": trace.hexdigest(),
        "events_fired": world.scheduler.events_fired,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "nodes": world.node_count,
        "segments": sorted(world.segments),
        "extras": _digest(outcome.extras),
        "extras_invariant": _digest(invariant_extras(outcome.extras)),
    }


def row_id(entry: str, seed: int, params: dict) -> str:
    args = [f"seed={seed}"] + [f"{k}={v}" for k, v in sorted(params.items())]
    return f"{entry}[{','.join(args)}]"


def ignore_receive_filters(monkeypatch) -> None:
    """Make every ``UdpSocket.set_receive_filter`` call a no-op."""
    monkeypatch.setattr(
        UdpSocket, "set_receive_filter", lambda self, classify, admitted: self
    )


@cache
def load_golden() -> tuple[dict, ...]:
    return tuple(json.loads(GOLDEN.read_text()))


def golden_rows(entry: str, seeds=SEEDS, params: dict | None = None) -> list[dict]:
    """The rows of catalog ``entry`` at ``seeds`` run with ``params``
    (default: its ``SMALL_SCALE_OVERRIDES`` sizes)."""
    if params is None:
        params = SMALL_SCALE_OVERRIDES.get(entry, {})
    return [
        row for row in load_golden()
        if row["entry"] == entry and row["seed"] in seeds and row["params"] == params
    ]


def entry_rows(entry: str) -> list[dict]:
    """Every row of catalog ``entry``, its extra parameter sets included."""
    return [row for row in load_golden() if row["entry"] == entry]


#: variant -> (run_world keywords, fields the variant may change).
VARIANTS = {
    "plain": ({}, ()),
    "memos_off": ({"parse_once": False}, ("extras",)),
    "recorded": ({"record": True}, ("extras",)),
    "filters_ignored": ({}, ("extras",)),
    "partitioned": ({"engine": "partitioned"}, ("trace",)),
}


def moved_fields(row: dict, got: dict, variant: str) -> list[str]:
    """Fields of fingerprint ``got`` that differ from golden ``row`` and
    that ``variant`` may not change."""
    may_change = VARIANTS[variant][1]
    return [f for f in FIELDS if f not in may_change and got[f] != row[f]]


def assert_matches_golden(rows: list[dict], variant: str) -> None:
    """Run ``variant`` of every row in ``rows``; fail naming each row and
    field that moved.  The ``filters_ignored`` caller ignores the filters
    first (:func:`ignore_receive_filters`)."""
    assert rows, "no golden rows selected"
    run_kwargs = VARIANTS[variant][0]
    moved = []
    for row in rows:
        key = (row["entry"], row["seed"], row["params"])
        fields = moved_fields(row, fingerprint(*key, **run_kwargs), variant)
        if fields:
            moved.append(f"{row_id(*key)}: {', '.join(fields)}")
    assert not moved, f"{variant} run differs from the golden table:\n" + "\n".join(moved)


def test_table_has_one_row_per_key():
    keys = [(row["entry"], row["seed"], row["params"]) for row in load_golden()]
    assert keys == row_keys(), "regenerate with tests/world/regen_golden.py"
