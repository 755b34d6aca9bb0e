"""Ablation: INDISS placement (client vs service vs gateway).

Paper §4.2 argues placement interacts with the discovery models; §4.3
quantifies client vs service side.  The gateway case ("INDISS may be
deployed on a dedicated networked node") is described but not measured —
this ablation fills in the number: a gateway pays the network on *both*
legs, so it should cost at least as much as the client-side placement.
"""

import pytest

from conftest import report
from repro.bench import format_measurements, measure
from repro.world import run_world
from repro.world.scenarios import slp_to_upnp_gateway_spec


@pytest.fixture(scope="module")
def medians():
    return {
        "service": measure("slp_to_upnp_service_side"),
        "client": measure("slp_to_upnp_client_side"),
        "gateway": measure("slp_to_upnp_gateway"),
    }


def test_gateway_translation(benchmark, medians):
    outcome = benchmark(lambda: run_world(slp_to_upnp_gateway_spec(), seed=1))
    assert outcome.results == 1
    assert medians["service"].median_ms < medians["gateway"].median_ms
    report(
        format_measurements(
            [medians["service"], medians["client"], medians["gateway"]],
            "Ablation: placement of INDISS (SLP client -> UPnP service)",
        )
    )


class TestPlacementShape:
    def test_service_side_is_cheapest(self, medians):
        assert medians["service"].median_ms < medians["client"].median_ms
        assert medians["service"].median_ms < medians["gateway"].median_ms

    def test_gateway_close_to_client_side(self, medians):
        """Both pay network UPnP legs; the gateway adds an SLP network leg."""
        ratio = medians["gateway"].median_ms / medians["client"].median_ms
        assert 0.9 < ratio < 1.3

    def test_report(self, medians):
        report(
            format_measurements(
                [medians["service"], medians["client"], medians["gateway"]],
                "Ablation: placement of INDISS (SLP client -> UPnP service)",
            )
        )
