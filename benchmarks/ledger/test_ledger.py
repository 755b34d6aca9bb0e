"""Smoke test of the performance ledger: all five workloads at tiny sizes.

Each workload gets one traced run with the minimum number of untraced
repetitions, so the whole module takes a few seconds of fresh interpreters.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads
from layers import LAYERS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs():
    return {
        name: run.measure(name, seed=0, seconds=0, traced=True, sizes=workloads.TINY_SIZES[name])
        for name in workloads.ORDER
    }


@pytest.mark.parametrize("name", workloads.ORDER)
def test_correctness_checks_pass(runs, name):
    result = runs[name]
    assert result["checks"]["same_virtual_outputs_every_repetition"]
    assert all(result["checks"].values()), result["checks"]
    assert result["repetitions"] == run.MIN_REPS
    assert result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("name", workloads.ORDER)
@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_reported_with_its_unit(runs, name, kind):
    block = run._block(runs[name], kind, DECLARED)
    assert list(block) == [entry["name"] for entry in DECLARED[kind]]
    for entry in DECLARED[kind]:
        metric = block[entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if kind == "end_to_end":
        assert all(metric["value"] > 0 for metric in block.values())


@pytest.mark.parametrize("name", workloads.ORDER)
def test_layer_attribution_reconciles(runs, name):
    layers = runs[name]["per_layer"]
    shares = [layers[f"{layer}.share"]["value"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert layers["unattributed.share"]["value"] <= run.MAX_UNATTRIBUTED
    assert runs[name]["checks"]["layer_attribution_reconciles"]


def test_multiprocess_engine_runs_only_on_district_grid(runs):
    assert runs["district_grid"]["checks"]["multiprocess_matches_single_engine"]
    assert runs["district_grid"]["per_layer"]["world.engine.mp_speedup"]["value"] > 0
    for name in workloads.ORDER:
        if name != "district_grid":
            assert runs[name]["per_layer"]["mp_ops_per_s"]["value"] == 0


def test_compare_finds_no_change_between_a_run_and_itself(runs):
    import compare

    results = {"workloads": runs}
    rows = compare.compare(results, results, DECLARED)
    assert len(rows) == len(runs) * len(DECLARED["end_to_end"])
    for workload, name, _, _, result in rows:
        # Tiny repetitions are noisy, so a host metric may be unresolved.
        expected = {"same"} if name in run.DETERMINISTIC else {"same", "unresolved"}
        assert result in expected, (workload, name, result)
