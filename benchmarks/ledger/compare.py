"""Compare two ledger results files, metric by metric and workload by workload.

    python3 benchmarks/ledger/compare.py BEFORE.json AFTER.json

For every (end-to-end metric, workload) pair present in both files it
prints ``better``, ``same``, ``worse`` or ``unresolved``, judged by the
metric's direction and bound in ``BENCHMARK.json``:

* a deterministic metric (virtual time, simulator counts) is ``same`` only
  when both values are equal; any change is ``better`` or ``worse``;
* a host metric is compared by the medians of its repetitions.  When
  either side's spread (quartile distance over median) exceeds the bound,
  it is ``unresolved`` unless every AFTER repetition beats every BEFORE one.

Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _spread(samples: list) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def verdict(before: dict, after: dict, better: str, bound: float) -> str:
    """One pair's verdict; ``before``/``after`` are results-file metric rows."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = before["value"], after["value"]
    if before.get("deterministic"):
        if a == b:
            return "same"
        return "better" if sign * (b - a) > 0 else "worse"
    gain = sign * (b - a) / abs(a)
    if max(_spread(before["samples"]), _spread(after["samples"])) > bound:
        if min(sign * s for s in after["samples"]) > max(sign * s for s in before["samples"]):
            return "better"
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(before: dict, after: dict, declared: dict) -> list:
    """``[(workload, metric, before, after, verdict)]`` in declared order."""
    rows = []
    for workload, run in before["workloads"].items():
        other = after["workloads"].get(workload)
        if other is None:
            continue
        for entry in declared["end_to_end"]:
            name = entry["name"]
            a, b = run["end_to_end"].get(name), other["end_to_end"].get(name)
            if a is None or b is None:
                rows.append((workload, name, a, b, "unresolved"))
                continue
            rows.append((workload, name, a, b, verdict(a, b, entry["better"], entry["bound"])))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as handle:
            files.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    rows = compare(files[0], files[1], declared)
    for workload, name, a, b, result in rows:
        left = "-" if a is None else f"{a['value']:.6g}"
        right = "-" if b is None else f"{b['value']:.6g}"
        print(f"{workload:14s} {name:18s} {left:>14s} {right:>14s}  {result}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
