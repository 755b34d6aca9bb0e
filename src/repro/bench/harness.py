"""Trial runner: medians of 30 seeded trials, like the paper's §4.3.

"The given measurements are in ms and are the median of 30 successful
tests to avoid a mean skewed by a single high or low value."
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..world import WorldSpec, run_world
from ..world.scenarios import SCENARIO_SPECS
from .calibration import PAPER_RESULTS_MS, PAPER_SCENARIOS

#: The paper's trial count.
DEFAULT_TRIALS = 30


@dataclass
class Measurement:
    """Median outcome of one scenario, with the paper's reference value."""

    name: str
    median_ms: float
    min_ms: float
    max_ms: float
    trials: int
    paper_ms: float | None

    @property
    def ratio_to_paper(self) -> float | None:
        if self.paper_ms in (None, 0):
            return None
        return self.median_ms / self.paper_ms


def run_trials(
    spec: WorldSpec, trials: int = DEFAULT_TRIALS, **run_kwargs
) -> list[float]:
    """Run ``spec`` in ``trials`` independent seeded worlds; returns
    latencies in ms.  ``run_kwargs`` go to :func:`repro.world.run_world`."""
    latencies: list[float] = []
    for seed in range(trials):
        outcome = run_world(spec, seed=seed, **run_kwargs)
        if outcome.latency_ms is None:
            raise RuntimeError(
                f"scenario {spec.name} produced no answer at seed {seed}"
            )
        latencies.append(outcome.latency_ms)
    return latencies


def measure(name: str, trials: int = DEFAULT_TRIALS, **run_kwargs) -> Measurement:
    """Measure one catalog scenario (a ``SCENARIO_SPECS`` name) at its
    default parameters."""
    latencies = run_trials(SCENARIO_SPECS[name](), trials=trials, **run_kwargs)
    figures = {scenario: key for key, scenario in PAPER_SCENARIOS.items()}
    return Measurement(
        name=name,
        median_ms=statistics.median(latencies),
        min_ms=min(latencies),
        max_ms=max(latencies),
        trials=trials,
        paper_ms=PAPER_RESULTS_MS.get(figures.get(name)),
    )


__all__ = ["Measurement", "run_trials", "measure", "DEFAULT_TRIALS"]
