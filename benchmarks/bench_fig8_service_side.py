"""Figure 8: INDISS deployed on the service side.

Paper: SLP -> [SLP-UPnP] 65 ms (the translated search needs two local UPnP
requests, so it costs more than one native UPnP cycle but the UPnP legs
stay on the loopback); UPnP -> [UPnP-SLP] 40 ms ("corresponds exactly to a
search request ... from a native UPnP client to a native UPnP service"
because the local SLP exchange is negligible).
"""

import pytest

from conftest import report
from repro.bench import format_measurements, measure
from repro.world import run_world
from repro.world.scenarios import (
    slp_to_upnp_service_side_spec,
    upnp_to_slp_service_side_spec,
)


@pytest.fixture(scope="module")
def medians():
    return {
        "native_upnp": measure("native_upnp"),
        "slp_to_upnp": measure("slp_to_upnp_service_side"),
        "upnp_to_slp": measure("upnp_to_slp_service_side"),
    }


def test_slp_client_to_upnp_service(benchmark, medians):
    outcome = benchmark(lambda: run_world(slp_to_upnp_service_side_spec(), seed=1))
    assert outcome.results == 1
    # Two local UPnP requests instead of one SSDP cycle (paper: 65 vs 40).
    ratio = medians["slp_to_upnp"].median_ms / medians["native_upnp"].median_ms
    assert 1.2 < ratio < 2.5


def test_upnp_client_to_slp_service(benchmark, medians):
    outcome = benchmark(lambda: run_world(upnp_to_slp_service_side_spec(), seed=1))
    assert outcome.results == 1
    # "Corresponds exactly to a ... native UPnP" exchange (paper: 40 ms).
    ratio = medians["upnp_to_slp"].median_ms / medians["native_upnp"].median_ms
    assert 0.9 < ratio < 1.15
    report(
        format_measurements(
            [medians["slp_to_upnp"], medians["upnp_to_slp"]],
            "Figure 8: INDISS on the service side",
        )
    )


class TestFigure8Shape:
    def test_slp_to_upnp_costs_more_than_native_upnp(self, medians):
        """Two local UPnP requests instead of one SSDP cycle."""
        assert medians["slp_to_upnp"].median_ms > medians["native_upnp"].median_ms
        ratio = medians["slp_to_upnp"].median_ms / medians["native_upnp"].median_ms
        assert 1.2 < ratio < 2.5  # paper: 65/40 = 1.63

    def test_upnp_to_slp_matches_native_upnp(self, medians):
        """Paper: "it corresponds exactly to a search request generated on
        the network from a native UPnP client to a native UPnP service"."""
        ratio = medians["upnp_to_slp"].median_ms / medians["native_upnp"].median_ms
        assert 0.9 < ratio < 1.15

    def test_within_25_percent_of_paper(self, medians):
        for key in ("slp_to_upnp", "upnp_to_slp"):
            assert 0.75 < medians[key].ratio_to_paper < 1.25

    def test_report(self, medians):
        report(
            format_measurements(
                [medians["slp_to_upnp"], medians["upnp_to_slp"]],
                "Figure 8: INDISS on the service side",
            )
        )
