"""Figure 9: INDISS deployed on the client side.

Paper: [SLP-UPnP] -> UPnP 80 ms ("corresponds globally to two native UPnP
responses"; +15 ms over the service-side case because the UPnP traffic now
crosses the network); [UPnP-SLP] -> SLP 0.12 ms (the best case: only local
UPnP traffic plus an already-known answer — see DESIGN.md's note on why
the paper's figure implies a warm cache).
"""

import pytest

from conftest import report
from repro.bench import format_measurements, measure, run_trials
from repro.world import run_world
from repro.world.scenarios import (
    slp_to_upnp_client_side_spec,
    upnp_to_slp_client_side_spec,
)
import statistics


@pytest.fixture(scope="module")
def medians():
    return {
        "native_slp": measure("native_slp"),
        "native_upnp": measure("native_upnp"),
        "service_side": measure("slp_to_upnp_service_side"),
        "slp_to_upnp": measure("slp_to_upnp_client_side"),
        "upnp_to_slp_warm": measure("upnp_to_slp_client_side"),
    }


@pytest.fixture(scope="module")
def cold_median_ms():
    latencies = run_trials(upnp_to_slp_client_side_spec(warm_cache=False), trials=10)
    return statistics.median(latencies)


def test_slp_client_side_search(benchmark, medians):
    outcome = benchmark(lambda: run_world(slp_to_upnp_client_side_spec(), seed=1))
    assert outcome.results == 1
    # "+15 ms": the two UPnP requests now cross the network.
    delta_ms = medians["slp_to_upnp"].median_ms - medians["service_side"].median_ms
    assert 5.0 < delta_ms < 25.0


def test_upnp_client_side_search_warm(benchmark, medians, cold_median_ms):
    outcome = benchmark(
        lambda: run_world(upnp_to_slp_client_side_spec(warm_cache=True), seed=1)
    )
    assert outcome.results == 1
    # The best case: faster even than a native SLP search (paper: 0.12 ms).
    assert medians["upnp_to_slp_warm"].median_ms < medians["native_slp"].median_ms
    block = format_measurements(
        [medians["slp_to_upnp"], medians["upnp_to_slp_warm"]],
        "Figure 9: INDISS on the client side",
    )
    block += f"\n(cold-cache variant of UPnP->SLP: {cold_median_ms:.3f} ms)"
    report(block)


class TestFigure9Shape:
    def test_client_side_costs_more_than_service_side(self, medians):
        """The paper's +15 ms: the two UPnP requests cross the network."""
        delta_ms = medians["slp_to_upnp"].median_ms - medians["service_side"].median_ms
        assert 5.0 < delta_ms < 25.0  # paper: 15 ms

    def test_client_side_is_about_two_native_upnp(self, medians):
        """Paper: "corresponds globally to two native UPnP responses"."""
        ratio = medians["slp_to_upnp"].median_ms / medians["native_upnp"].median_ms
        assert 1.5 < ratio < 2.5

    def test_warm_upnp_to_slp_is_best_case(self, medians):
        """Paper: 0.12 ms — faster even than a native SLP search."""
        assert medians["upnp_to_slp_warm"].median_ms < medians["native_slp"].median_ms
        assert medians["upnp_to_slp_warm"].median_ms < 0.5

    def test_cold_variant_documented(self, medians, cold_median_ms):
        """Cold cache pays a network SLP exchange plus the responder-delay
        exemption; it sits between the warm case and native UPnP."""
        assert cold_median_ms > medians["upnp_to_slp_warm"].median_ms
        assert cold_median_ms < medians["native_upnp"].median_ms

    def test_within_25_percent_of_paper(self, medians):
        assert 0.75 < medians["slp_to_upnp"].ratio_to_paper < 1.25
        # 9b tolerates a wider band: the paper's 0.12 ms is itself at the
        # resolution limit of its measurement method.
        assert 0.5 < medians["upnp_to_slp_warm"].ratio_to_paper < 1.5

    def test_report(self, medians, cold_median_ms):
        block = format_measurements(
            [medians["slp_to_upnp"], medians["upnp_to_slp_warm"]],
            "Figure 9: INDISS on the client side",
        )
        block += f"\n(cold-cache variant of UPnP->SLP: {cold_median_ms:.3f} ms)"
        report(block)
