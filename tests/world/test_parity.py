"""Golden parity: spec-built scenarios == the frozen imperative builders.

Every scenario the legacy builders (``legacy_builders.py``) construct by
hand is now a ``SCENARIO_SPECS`` entry compiled from a
:class:`~repro.world.WorldSpec`.  These tests run each catalog spec side
by side with its frozen pre-redesign builder and assert the outcomes are
identical:

* the scheduler fired the **same number of events** (the construction
  order, and therefore the whole event schedule, is reproduced);
* the headline discovery returned the same result count and the same
  first-answer latency in virtual microseconds;
* the extras carry the same key set (the observer pipeline reproduces
  every measurement the hand-rolled stat plumbing made).

The scale scenarios run under the catalog's SMALL_SCALE_OVERRIDES so
tier-1 stays fast.
"""

import pytest

from repro.world import run_world
from repro.world.scenarios import SCENARIO_SPECS, SMALL_SCALE_OVERRIDES

from . import legacy_builders

LEGACY = legacy_builders.SCENARIOS

#: Legacy registry keys whose catalog entry carries a different name.
CATALOG_NAME = {
    "fig7_native_slp": "native_slp",
    "fig7_native_upnp": "native_upnp",
    "fig8_slp_to_upnp_service_side": "slp_to_upnp_service_side",
    "fig8_upnp_to_slp_service_side": "upnp_to_slp_service_side",
    "fig9_slp_to_upnp_client_side": "slp_to_upnp_client_side",
    "fig9_upnp_to_slp_client_side": "upnp_to_slp_client_side",
    "gateway_slp_to_upnp": "slp_to_upnp_gateway",
    "gateway_slp_to_jini": "slp_to_jini_gateway",
}


def _modern(name, seed, **params):
    """The catalog spec for legacy key ``name``, run with ``seed``."""
    spec = SCENARIO_SPECS[CATALOG_NAME.get(name, name)](**params)
    return run_world(spec=spec, seed=seed)


def _small(name):
    return SMALL_SCALE_OVERRIDES.get(CATALOG_NAME.get(name, name), {})


def _outcome_signature(outcome):
    return {
        "events_fired": outcome.world.scheduler.events_fired,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "extras_keys": set(outcome.extras),
        "nodes": len(outcome.world.nodes),
        "segments": sorted(outcome.world.segments),
    }


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_spec_built_scenario_matches_legacy_builder(name):
    kwargs = _small(name)
    legacy = LEGACY[name](seed=0, **kwargs)
    modern = _modern(name, seed=0, **kwargs)
    assert _outcome_signature(modern) == _outcome_signature(legacy)


@pytest.mark.parametrize("name", ["fig7_native_upnp", "multi_segment_home"])
def test_parity_holds_across_seeds(name):
    kwargs = _small(name)
    for seed in (1, 4):
        legacy = LEGACY[name](seed=seed, **kwargs)
        modern = _modern(name, seed=seed, **kwargs)
        assert _outcome_signature(modern) == _outcome_signature(legacy)


def test_warm_cache_off_variant_matches():
    legacy = LEGACY["fig9_upnp_to_slp_client_side"](seed=2, warm_cache=False)
    modern = _modern("fig9_upnp_to_slp_client_side", seed=2, warm_cache=False)
    assert _outcome_signature(modern) == _outcome_signature(legacy)


def test_federated_campus_extras_values_match():
    """Beyond key-set parity: the federation family's measured values are
    what downstream tests assert on, so they must match exactly too."""
    kwargs = {"segments": 5, "nodes": 60}
    legacy = LEGACY["federated_campus"](seed=0, **kwargs)
    modern = _modern("federated_campus", seed=0, **kwargs)
    for key in (
        "warm_members_after_gossip",
        "query_translations",
        "repeat_translations",
        "repeat_cache_answers",
        "warm_edge_translations",
        "fleet_size",
        "translations_total",
    ):
        assert modern.extras[key] == legacy.extras[key], key
    assert modern.extras["federation"] == legacy.extras["federation"]


def test_sharded_backbone_per_type_matches():
    kwargs = {"members": 4, "nodes": 80, "service_types": 4}
    legacy = LEGACY["sharded_backbone"](seed=0, **kwargs)
    modern = _modern("sharded_backbone", seed=0, **kwargs)
    assert modern.extras["per_type"] == legacy.extras["per_type"]
    assert modern.extras["owner_spread"] == legacy.extras["owner_spread"]
    assert modern.extras["query_translations"] == legacy.extras["query_translations"]
    assert (
        modern.extras["hotpaths"]["events_fired"]
        == legacy.extras["hotpaths"]["events_fired"]
    )
