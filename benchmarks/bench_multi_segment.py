"""Multi-segment internetwork benchmarks: discovery across INDISS gateways.

Measures first-answer latency for the segment/bridge/router scenario family
(no paper reference values exist for these — they are our scaling ablation):

* ``multi_segment_home`` — 2 segments, 1 bridged gateway, 50 hosts;
* ``gateway_chain``      — 3 segments, 2 chained gateways;
* ``campus_fanout``      — backbone + 5 leaves, 5 gateways, 120 hosts.

Run directly (``PYTHONPATH=src python benchmarks/bench_multi_segment.py``)
for a quick smoke with few trials, or through pytest with the rest of the
benchmark suite.
"""

from __future__ import annotations

import statistics
import sys

from repro.bench import run_trials
from repro.world.scenarios import SCENARIO_SPECS

MULTI_SEGMENT_SCENARIOS = ("multi_segment_home", "gateway_chain", "campus_fanout")


def run(trials: int = 5) -> dict[str, float]:
    medians: dict[str, float] = {}
    for name in MULTI_SEGMENT_SCENARIOS:
        latencies = run_trials(SCENARIO_SPECS[name](), trials=trials)
        medians[name] = statistics.median(latencies)
    return medians


def test_multi_segment_smoke():
    """One small trial set per scenario; every trial must find the service
    and gateway hops must cost more than a single bridged gateway."""
    medians = run(trials=3)
    assert set(medians) == set(MULTI_SEGMENT_SCENARIOS)
    for name, median in medians.items():
        assert median > 0, name
    # Two gateway translations (chain) dominate one (home).
    assert medians["gateway_chain"] > medians["multi_segment_home"]


def main(argv: list[str]) -> int:
    try:
        trials = int(argv[1]) if len(argv) > 1 else 5
    except ValueError:
        print(f"usage: {argv[0]} [trials]", file=sys.stderr)
        return 2
    if trials < 1:
        print("trials must be >= 1", file=sys.stderr)
        return 2
    print(f"multi-segment scenarios, median of {trials} trials")
    for name, median in run(trials=trials).items():
        print(f"  {name:24s} {median:8.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
