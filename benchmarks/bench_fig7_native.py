"""Figure 7: native client/service response times (the baselines).

Paper: SLP -> SLP 0.7 ms; UPnP -> UPnP 40 ms (medians of 30).  The shape
to reproduce: UPnP discovery is roughly two orders of magnitude slower
than SLP, because the SSDP responder window dominates while SLP is two
small UDP messages.
"""

import statistics

import pytest

from conftest import report
from repro.bench import format_measurements, measure
from repro.world import run_world
from repro.world.scenarios import native_slp_spec, native_upnp_spec


@pytest.fixture(scope="module")
def medians():
    return {
        "slp": measure("native_slp"),
        "upnp": measure("native_upnp"),
    }


def test_native_slp_search(benchmark, medians):
    """One full native SLP discovery in the simulated world."""
    outcome = benchmark(lambda: run_world(native_slp_spec(), seed=1))
    assert outcome.results == 1
    assert medians["slp"].median_ms < 1.0  # paper: 0.7 ms


def test_native_upnp_search(benchmark, medians):
    """One full native UPnP discovery in the simulated world."""
    outcome = benchmark(lambda: run_world(native_upnp_spec(), seed=1))
    assert outcome.results == 1
    # The headline shape: UPnP is orders of magnitude slower than SLP.
    assert medians["upnp"].median_ms / medians["slp"].median_ms > 20
    report(format_measurements(list(medians.values()), "Figure 7: native baselines"))


class TestFigure7Shape:
    def test_slp_is_sub_millisecond(self, medians):
        assert medians["slp"].median_ms < 1.0

    def test_upnp_is_tens_of_milliseconds(self, medians):
        assert 20.0 < medians["upnp"].median_ms < 80.0

    def test_upnp_much_slower_than_slp(self, medians):
        """The headline: "using SLP is much more efficient than UPnP"."""
        ratio = medians["upnp"].median_ms / medians["slp"].median_ms
        assert ratio > 20  # paper's ratio is ~57x

    def test_within_25_percent_of_paper(self, medians):
        for m in medians.values():
            assert m.ratio_to_paper is not None
            assert 0.75 < m.ratio_to_paper < 1.25

    def test_report(self, medians):
        report(format_measurements(list(medians.values()), "Figure 7: native baselines"))
