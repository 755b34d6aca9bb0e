"""The declarative World API: spec-built topologies with run control.

``repro.world`` is the repo's public construction surface:

* :mod:`repro.world.spec` — the validated spec vocabulary
  (:class:`WorldSpec` → :class:`SegmentSpec` / :class:`HostSpec` /
  :class:`BridgeSpec` / :class:`FleetSpec` plus app specs and the phased
  workload steps ``Run`` / ``Probe`` / ``Chatter`` / ``Churn`` / ...);
* :mod:`repro.world.build` — ``World.build`` compiles a spec into the
  ``Network``/``Segment``/``GatewayFleet`` runtime and returns the
  :class:`World` run-control handle (``run_until``, named probes, the
  observer/metrics API feeding ``ScenarioOutcome.extras``);
* :mod:`repro.world.partition` / :mod:`repro.world.engine` — spec-level
  district analysis and the partition run drivers: ``World.build(...,
  engine="partitioned")`` shards the event loop per district with
  conservative lookahead, and :func:`run_world_mp` forks one worker
  process per district;
* :mod:`repro.world.scenarios` — the registered scenario catalog
  (``SCENARIO_SPECS``), from the paper's Figs. 7-9 configurations to the
  metro/media scale workloads and the spec-only churn/district sweeps;
* ``python -m repro.world list|describe|validate`` — schema, subnet-budget
  and partition-map validation of every registered spec, without running one.
"""

from .build import BuildError, ProbeHandle, World, run_world
from .engine import run_world_mp, run_world_partitioned
from .outcome import ScenarioOutcome
from .partition import spec_partition_map
from .spec import (
    BridgeSpec,
    Chatter,
    Check,
    Churn,
    ClockDevice,
    Collect,
    ControlPoint,
    CpChatter,
    Crash,
    Delta,
    Emit,
    Fault,
    Fill,
    FleetSpec,
    Heal,
    GenaFeed,
    GenaSubscriber,
    HostSpec,
    IndissApp,
    JiniItem,
    JiniListener,
    JiniRegistrar,
    Ping,
    Probe,
    QueryFrontendApp,
    QueryLoad,
    Restart,
    RingOwnerLeaf,
    Run,
    SegmentSpec,
    SetConfig,
    SlpClient,
    SlpService,
    SlpServiceReg,
    Snapshot,
    SpecError,
    TypeSweepReport,
    TypedDevice,
    WorldSpec,
)

__all__ = [
    "World",
    "WorldSpec",
    "BuildError",
    "SpecError",
    "ProbeHandle",
    "ScenarioOutcome",
    "run_world",
    "run_world_mp",
    "run_world_partitioned",
    "spec_partition_map",
    "SegmentSpec",
    "HostSpec",
    "BridgeSpec",
    "FleetSpec",
    "Fill",
    "RingOwnerLeaf",
    "SlpClient",
    "SlpService",
    "SlpServiceReg",
    "ClockDevice",
    "TypedDevice",
    "ControlPoint",
    "IndissApp",
    "JiniRegistrar",
    "JiniListener",
    "JiniItem",
    "GenaSubscriber",
    "GenaFeed",
    "QueryFrontendApp",
    "QueryLoad",
    "Run",
    "Probe",
    "Ping",
    "Chatter",
    "CpChatter",
    "Churn",
    "Fault",
    "Heal",
    "Crash",
    "Restart",
    "SetConfig",
    "Snapshot",
    "Delta",
    "Collect",
    "Emit",
    "Check",
    "TypeSweepReport",
]
