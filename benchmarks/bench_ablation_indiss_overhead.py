"""Ablation: how much of the translated latency is INDISS itself?

Paper §4.3's framing is that the translated response time is dominated by
the native stacks ("on the service side ... we cannot interfere on the
native time taken to get UPnP response from the service").  This ablation
quantifies that: the same scenario with INDISS's own processing charges
zeroed out isolates the share attributable to event parsing, composition,
dispatch and XML handling.
"""

import dataclasses
import statistics

import pytest

from conftest import report
from repro.bench import CostModel, PAPER_TESTBED, run_trials
from repro.core.unit import IndissTimings
from repro.world import run_world
from repro.world.scenarios import slp_to_upnp_service_side_spec


def free_indiss_costs() -> CostModel:
    return dataclasses.replace(
        PAPER_TESTBED,
        indiss=IndissTimings(
            parse_us=0, compose_us=0, dispatch_us=0, xml_parse_us=0, cache_lookup_us=0
        ),
    )


@pytest.fixture(scope="module")
def medians():
    spec = slp_to_upnp_service_side_spec()
    calibrated = statistics.median(run_trials(spec, trials=15))
    free = statistics.median(run_trials(spec, trials=15, costs=free_indiss_costs()))
    return calibrated, free


def test_indiss_overhead(benchmark, medians):
    outcome = benchmark(
        lambda: run_world(
            slp_to_upnp_service_side_spec(), seed=1, costs=free_indiss_costs()
        )
    )
    assert outcome.results == 1
    calibrated, free = medians
    overhead_ms = calibrated - free
    share = overhead_ms / calibrated
    # INDISS's own processing is a small fraction of the translated path.
    assert share < 0.05
    report(
        "Ablation: INDISS's own processing share (SLP->UPnP, service side)\n"
        "=================================================================\n"
        f"calibrated INDISS costs : {calibrated:8.3f} ms\n"
        f"zeroed INDISS costs     : {free:8.3f} ms\n"
        f"INDISS contribution     : {overhead_ms:8.3f} ms ({share:.1%} of the total)\n"
        "(the native UPnP stack dominates, as the paper argues)"
    )
