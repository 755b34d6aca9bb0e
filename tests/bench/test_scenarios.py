"""Tests for the scenario catalog: determinism and paper shapes.

These run a reduced trial count (the full 30-trial medians live in
``benchmarks/``); they pin down that every catalog scenario completes,
that equal seeds give identical runs (each entry's golden rows at seeds
0 and 1, ``tests/world/test_catalog_golden.py``) and different seeds
different latencies, and that the coarse orderings the paper reports
always hold.
"""

import statistics

import pytest

from repro.bench import PAPER_RESULTS_MS, PAPER_SCENARIOS, measure, run_trials
from repro.world import run_world
from repro.world.scenarios import (
    SCENARIO_SPECS,
    SMALL_SCALE_OVERRIDES,
    native_slp_spec,
    native_upnp_spec,
    slp_to_upnp_client_side_spec,
    slp_to_upnp_service_side_spec,
    upnp_to_slp_client_side_spec,
    upnp_to_slp_service_side_spec,
)

from world.test_catalog_golden import assert_matches_golden, golden_rows

#: Cases are named by the paper's figure key (and the gateway ablations by
#: their ``gateway_*`` names) where one exists, so a failure reads against
#: the figure it reproduces; every other entry uses its catalog name.
_IDS = {scenario: figure for figure, scenario in PAPER_SCENARIOS.items()} | {
    "slp_to_upnp_gateway": "gateway_slp_to_upnp",
    "slp_to_jini_gateway": "gateway_slp_to_jini",
}
CATALOG = [
    pytest.param(name, id=_IDS.get(name, name)) for name in sorted(SCENARIO_SPECS)
]


def small_spec(name):
    return SCENARIO_SPECS[name](**SMALL_SCALE_OVERRIDES.get(name, {}))


class TestDeterminism:
    @pytest.mark.parametrize("name", CATALOG)
    def test_same_seed_same_latency(self, name):
        assert_matches_golden(golden_rows(name), "plain")

    def test_different_seeds_vary(self):
        spec = native_upnp_spec()
        latencies = {run_world(spec, seed=s).latency_us for s in range(6)}
        assert len(latencies) > 1  # responder jitter varies by seed


class TestCompleteness:
    @pytest.mark.parametrize("name", CATALOG)
    def test_scenario_yields_exactly_one_answer(self, name):
        outcome = run_world(small_spec(name), seed=0)
        if name.startswith("serving_"):
            # The serving scenarios measure an open-loop query workload,
            # not a single named probe: success is answered queries.
            assert outcome.extras["query_responses"] > 0
            assert outcome.extras["query_hit_rate"] > 0
            return
        assert outcome.latency_us is not None
        if name == "media_city":
            # A UPnP search legitimately draws several responders: the
            # matching native device plus the INDISS gateway's translated
            # answer (exported LOCATION).
            assert outcome.results >= 1
        else:
            assert outcome.results == 1


class TestPaperShapes:
    """Coarse orderings that must hold at any reasonable calibration."""

    @pytest.fixture(scope="class")
    def medians(self):
        def med(spec):
            return statistics.median(run_trials(spec, trials=7))

        return {
            "native_slp": med(native_slp_spec()),
            "native_upnp": med(native_upnp_spec()),
            "fig8a": med(slp_to_upnp_service_side_spec()),
            "fig8b": med(upnp_to_slp_service_side_spec()),
            "fig9a": med(slp_to_upnp_client_side_spec()),
            "fig9b": med(upnp_to_slp_client_side_spec()),
        }

    def test_total_order_of_scenarios(self, medians):
        # 9b < native slp < native upnp <= 8b < 8a < 9a
        assert medians["fig9b"] < medians["native_slp"]
        assert medians["native_slp"] < medians["native_upnp"]
        assert medians["native_upnp"] <= medians["fig8b"] * 1.05
        assert medians["fig8b"] < medians["fig8a"]
        assert medians["fig8a"] < medians["fig9a"]

    def test_translation_overhead_is_bounded(self, medians):
        """INDISS's own cost stays small: the translated path never costs
        more than ~2.5 native cycles (paper's worst ratio is 2: 80/40)."""
        assert medians["fig9a"] < 2.5 * medians["native_upnp"]

    def test_cold_cache_slower_than_warm(self):
        warm = statistics.median(run_trials(upnp_to_slp_client_side_spec(), trials=5))
        cold = statistics.median(
            run_trials(upnp_to_slp_client_side_spec(warm_cache=False), trials=5)
        )
        assert warm < cold


class TestHarness:
    def test_measure_populates_paper_reference(self):
        measurement = measure("native_slp", trials=3)
        assert measurement.paper_ms == PAPER_RESULTS_MS["fig7_native_slp"]
        assert measurement.trials == 3
        assert measurement.min_ms <= measurement.median_ms <= measurement.max_ms

    def test_run_trials_length(self):
        assert len(run_trials(native_slp_spec(), trials=4)) == 4
