"""``python -m repro.world`` — validate, inspect and run the scenario catalog.

Commands:

* ``list`` — one row per registered scenario spec (validated first);
* ``describe <scenario> [param=value ...]`` — validate and pretty-print
  one spec, optionally re-parameterized (ints and floats parse as
  numbers), including the computed district partition map the parallel
  engine would use;
* ``validate`` — schema + subnet-budget checks over **every** registered
  spec, plus the district partition map of every ``partitioned=True``
  spec, exiting non-zero on the first failure.  CI runs this as a fast
  pre-test step: a malformed scenario fails in milliseconds, before any
  simulation runs;
* ``run <scenario> [param=value ...] [--seed N] [--engine single|partitioned|mp]
  [--trace[=PATH]] [--metrics[=PATH]]`` — build the scenario, execute its
  workload, and print the outcome.  ``--trace`` turns on the flight
  recorder and writes a Perfetto-loadable Chrome trace-event file
  (default ``<scenario>.trace.json``); ``--metrics`` writes the metrics
  registry as JSONL (default ``<scenario>.metrics.jsonl``).  Either flag
  also prints the ``python -m repro.obs report`` text digest.

Only ``run`` builds a network — validation is pure spec analysis.
"""

from __future__ import annotations

import inspect
import sys

from .partition import spec_partition_map
from .scenarios import SCENARIO_SPECS
from .spec import SpecError, WorldSpec


def _parse_value(value: str):
    if value in ("True", "False"):
        return value == "True"
    for parse in (int, float):
        try:
            return parse(value)
        except ValueError:
            pass
    return value


def _parse_params(args: list[str]) -> dict:
    params: dict = {}
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep:
            raise SystemExit(f"expected param=value, got {arg!r}")
        params[key] = _parse_value(value)
    return params


def _spec_for(name: str, params: dict) -> WorldSpec:
    try:
        builder = SCENARIO_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_SPECS))
        raise SystemExit(f"unknown scenario {name!r}; known: {known}") from None
    accepted = inspect.signature(builder).parameters
    unknown = ", ".join(repr(key) for key in params if key not in accepted)
    if unknown:
        raise SystemExit(f"{name} takes no parameter {unknown}; "
                         f"accepted: {', '.join(accepted) or 'none'}")
    try:
        return builder(**params)
    except ValueError as exc:
        raise SystemExit(f"invalid {name} parameters: {exc}") from None


def cmd_list() -> int:
    width = max(len(name) for name in SCENARIO_SPECS)
    failures = 0
    for name, builder in SCENARIO_SPECS.items():
        spec = builder()
        problems = spec.problems()
        row = spec.summary()
        status = "ok" if not problems else f"INVALID ({problems[0]})"
        print(
            f"{name:<{width}}  segs={row['segments']:<3} hosts={row['hosts']:<4} "
            f"fill={row['fill']:<5} fleets={row['fleets']} "
            f"steps={row['steps']:<2} probes={row['probes']:<2} {status}"
        )
        failures += bool(problems)
    return 1 if failures else 0


def cmd_describe(name: str, params: dict) -> int:
    spec = _spec_for(name, params)
    try:
        spec.validate()
    except SpecError as exc:
        print(spec.describe())
        print(f"\nINVALID: {exc}", file=sys.stderr)
        return 1
    print(spec.describe())
    try:
        pmap, hosts_of = spec_partition_map(spec)
    except SpecError as exc:
        print(f"\npartitions: unresolvable from the spec ({exc})")
    else:
        print()
        print(pmap.describe(hosts_of))
    print("\nvalid: schema and subnet budgets check out")
    return 0


def _split_run_args(args: list[str]) -> tuple[dict, dict]:
    """Separate ``param=value`` spec parameters from ``--flag`` options."""
    options = {"seed": 0, "engine": "single", "trace": None, "metrics": None}
    plain: list[str] = []
    index = 0
    while index < len(args):
        arg = args[index]
        if not arg.startswith("--"):
            plain.append(arg)
            index += 1
            continue
        flag, sep, value = arg[2:].partition("=")
        if flag not in options:
            raise SystemExit(f"unknown option --{flag}")
        if flag in ("seed", "engine"):
            if not sep:
                index += 1
                if index >= len(args):
                    raise SystemExit(f"--{flag} needs a value")
                value = args[index]
            options[flag] = int(value) if flag == "seed" else value
        else:  # --trace / --metrics: optional value, "" means default path
            options[flag] = value if sep else ""
        index += 1
    return _parse_params(plain), options


def cmd_run(name: str, args: list[str]) -> int:
    from ..obs import Recording, sort_records
    from ..obs.export import text_summary, write_chrome_trace, write_metrics_jsonl
    from .build import World
    from .engine import run_world_mp

    params, options = _split_run_args(args)
    engine = options["engine"]
    if engine not in ("single", "partitioned", "mp"):
        raise SystemExit(f"unknown engine {engine!r}; try single, partitioned, mp")
    trace_path = options["trace"]
    metrics_path = options["metrics"]
    if trace_path == "":
        trace_path = f"{name}.trace.json"
    if metrics_path == "":
        metrics_path = f"{name}.metrics.jsonl"
    recording = None
    if trace_path is not None or metrics_path is not None:
        recording = Recording(metrics=True, trace=trace_path is not None)
    spec = _spec_for(name, params)
    spec.validate()

    meta = {"scenario": name, "seed": options["seed"], "engine": engine,
            "params": params}
    if engine == "mp":
        result = run_world_mp(
            spec, seed=options["seed"],
            record=recording if recording is not None else False,
        )
        print(f"{name}: backend={result['backend']} "
              f"partitions={result['partitions']} "
              f"events={result['events_fired']} "
              f"latency_us={result['latency_us']} results={result['results']}")
        obs = result.get("obs") or {}
        snapshot = obs.get("metrics") or {}
        spans = obs.get("spans") or []
    else:
        world = World.build(
            spec, seed=options["seed"], engine=engine,
            record=recording if recording is not None else False,
        )
        world.run_workload()
        outcome = world.outcome()
        print(f"{name}: engine={engine} "
              f"events={world.net.scheduler.events_fired} "
              f"latency_us={outcome.latency_us} results={outcome.results}")
        snapshot = outcome.metrics or {}
        spans = [] if recording is None else sort_records(recording.trace.records)

    if metrics_path is not None:
        count = write_metrics_jsonl(metrics_path, snapshot, meta)
        print(f"metrics: {count} lines -> {metrics_path}")
    if trace_path is not None:
        count = write_chrome_trace(trace_path, spans, meta)
        print(f"trace: {count} records -> {trace_path}")
    if recording is not None:
        print(text_summary(snapshot, spans, title=name))
    return 0


def cmd_validate() -> int:
    failures = []
    for name, builder in SCENARIO_SPECS.items():
        try:
            spec = builder()
            spec.validate()
            if spec.partitioned:
                spec_partition_map(spec)
        except ValueError as exc:
            failures.append(f"{name}: {exc}")
            continue
        print(f"{name}: ok")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"all {len(SCENARIO_SPECS)} scenario specs valid")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0 if len(argv) >= 2 else 2
    command = argv[1]
    if command == "list":
        return cmd_list()
    if command == "describe":
        if len(argv) < 3:
            print("usage: python -m repro.world describe <scenario> [param=value ...]",
                  file=sys.stderr)
            return 2
        return cmd_describe(argv[2], _parse_params(argv[3:]))
    if command == "validate":
        return cmd_validate()
    if command == "run":
        if len(argv) < 3:
            print("usage: python -m repro.world run <scenario> [param=value ...] "
                  "[--seed N] [--engine single|partitioned|mp] "
                  "[--trace[=PATH]] [--metrics[=PATH]]", file=sys.stderr)
            return 2
        return cmd_run(argv[2], argv[3:])
    print(f"unknown command {command!r}; try list, describe, validate, run",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
