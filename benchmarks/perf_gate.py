"""The machine-normalized perf gate shared by the gated bench scripts.

``bench_core_hotpaths.py`` and ``bench_serving.py`` each commit a
baseline file of blessed events/sec rows.  ``--check`` compares the
measured rows against it through :func:`check_gates`, with both sides
divided by their :func:`machine_ref_score`, so the gate tracks the code
rather than the runner the job landed on.
"""

from __future__ import annotations

import time


def machine_ref_score(loops: int = 400_000) -> float:
    """Throughput of a fixed pure-Python workload (iterations/second).

    CI runners and dev machines differ ~2x in single-thread speed, so the
    perf gate compares *normalized* events/sec (measured / this score)
    rather than absolute numbers.  The reference is deliberately
    independent of the repository's code, so a simulator regression
    cannot hide inside the reference.
    """
    best = None
    for _ in range(3):
        bucket = {}
        acc = 0
        start = time.perf_counter()
        for i in range(loops):
            bucket[i & 1023] = i
            acc += i ^ (i >> 3)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return loops / best


def check_gates(results: dict, gates, fraction: float, default_key: str) -> list[str]:
    """Regression messages for every baseline gate entry ``results`` misses.

    Each gate is a baseline row (``key`` defaults to ``default_key``) with
    its ``events_per_sec`` and, when measured, its ``machine_ref_score``.
    A gate fails when the measured events/sec falls below ``fraction`` of
    the gate's, both normalized by their reference scores when both
    sides have one.
    """
    problems = []
    measured_ref = results.get("machine_ref_score")
    for gate in gates:
        key = gate.get("key", default_key)
        measured = results.get(key)
        if "events_per_sec" not in gate or not measured:
            problems.append(f"gate key {key!r} missing from baseline or results")
            continue
        gate_ref = gate.get("machine_ref_score")
        if gate_ref and measured_ref:
            gate_value = gate["events_per_sec"] / gate_ref
            measured_value = measured["events_per_sec"] / measured_ref
            unit = "normalized events/sec (events per reference-iteration)"
        else:
            gate_value = gate["events_per_sec"]
            measured_value = measured["events_per_sec"]
            unit = "events/sec"
        if measured_value < gate_value * fraction:
            problems.append(
                f"{key}: {measured_value:.6f} {unit} is below "
                f"{fraction:.0%} of the committed gate value "
                f"({gate_value:.6f})"
            )
    return problems
