"""Memos change host work, never the simulation.

Every catalog entry runs twice with one seed: with every memo on, and
with ``parse_once=False``, which attaches the null frame memo to every
frame and hands every receiver cache (``Network.memo``) a bound of 0.
The capture trace, the fired event count, the latency and the results
must be identical.  Extras may differ only in the counters that measure
the host work a memo saves (:data:`MEMO_EXTRAS`).
"""

from fnmatch import fnmatchcase

import pytest

from repro.world.scenarios import SCENARIO_SPECS

from .test_history_independence import fingerprint

#: Extras that count decodes, shares, seeds and encodes a memo saves, plus
#: the switch itself.
MEMO_EXTRAS = (
    "hotpaths.parse_*",
    "hotpaths.streams_*",
    "monitor_attribution.*.seeded",
    "parse_once",
    "gossip.record_encodes",
)


def flatten(extras: dict, prefix: str = "") -> dict:
    """Nested extras as one ``{"a.b.c": value}`` dict."""
    flat = {}
    for key, value in extras.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def extras_outside_memo_counters(a: dict, b: dict) -> list[str]:
    """Keys whose values differ between extras ``a`` and ``b`` and that
    :data:`MEMO_EXTRAS` does not allow to differ."""
    a, b = flatten(a), flatten(b)
    return sorted(
        key for key in a.keys() | b.keys()
        if a.get(key) != b.get(key)
        and not any(fnmatchcase(key, pattern) for pattern in MEMO_EXTRAS)
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
def test_memos_off_change_nothing_simulated(name):
    on = fingerprint(name, parse_once=True)
    off = fingerprint(name, parse_once=False)
    assert extras_outside_memo_counters(on.pop("extras"), off.pop("extras")) == []
    assert on == off
