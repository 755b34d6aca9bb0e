"""Golden parity: spec-built scenarios == the frozen imperative builders.

Every scenario the pre-redesign imperative builders constructed by hand
is a ``SCENARIO_SPECS`` entry compiled from a
:class:`~repro.world.WorldSpec`.  The golden rows of those entries were
written while the spec-built worlds still matched the builders (same
fired events, latency, results, extras keys, nodes and segments); the
builders are gone, and these tests hold each spec-built run to its row
in every field (``test_catalog_golden``), at the seeds and parameter
sets the builder comparisons ran.
"""

import pytest

from .test_catalog_golden import assert_matches_golden, golden_rows

#: Builder key -> catalog entry, for the entries the builders covered.
LEGACY = {
    "campus_fanout": "campus_fanout",
    "federated_campus": "federated_campus",
    "fig7_native_slp": "native_slp",
    "fig7_native_upnp": "native_upnp",
    "fig8_slp_to_upnp_service_side": "slp_to_upnp_service_side",
    "fig8_upnp_to_slp_service_side": "upnp_to_slp_service_side",
    "fig9_slp_to_upnp_client_side": "slp_to_upnp_client_side",
    "fig9_upnp_to_slp_client_side": "upnp_to_slp_client_side",
    "gateway_chain": "gateway_chain",
    "gateway_slp_to_jini": "slp_to_jini_gateway",
    "gateway_slp_to_upnp": "slp_to_upnp_gateway",
    "media_city": "media_city",
    "metro_backbone": "metro_backbone",
    "multi_segment_home": "multi_segment_home",
    "sharded_backbone": "sharded_backbone",
}


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_spec_built_scenario_matches_legacy_builder(name):
    assert_matches_golden(golden_rows(LEGACY[name], seeds=(0,)), "plain")


@pytest.mark.parametrize("name", ["fig7_native_upnp", "multi_segment_home"])
def test_parity_holds_across_seeds(name):
    assert_matches_golden(golden_rows(LEGACY[name], seeds=(1, 4)), "plain")


def test_warm_cache_off_variant_matches():
    rows = golden_rows("upnp_to_slp_client_side", seeds=(2,), params={"warm_cache": False})
    assert_matches_golden(rows, "plain")


def test_federated_campus_extras_values_match():
    """The federation family's measured values are what downstream tests
    assert on; the row's extras digest pins every one of them."""
    rows = golden_rows("federated_campus", seeds=(0,), params={"segments": 5, "nodes": 60})
    assert_matches_golden(rows, "plain")


def test_sharded_backbone_per_type_matches():
    params = {"members": 4, "nodes": 80, "service_types": 4}
    assert_matches_golden(golden_rows("sharded_backbone", seeds=(0,), params=params), "plain")
