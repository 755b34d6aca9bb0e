"""Quickstart: an SLP client discovering a UPnP device through INDISS.

Run with::

    python examples/quickstart.py

Declares the smallest useful world as a :class:`~repro.world.WorldSpec` —
one SLP client host, one UPnP clock device host carrying INDISS — then
compiles it with ``World.build`` and drives one translated discovery
through the run-control surface (``run_until`` + a named probe).

The spec is pure data: validate it, print it, or sweep its parameters
without touching the simulator (``python -m repro.world`` does exactly
that for the whole scenario catalog).
"""

from repro.world import (
    ClockDevice,
    HostSpec,
    IndissApp,
    Probe,
    SlpClient,
    World,
    WorldSpec,
)

#: A simulated 10 Mb/s home LAN: two hosts on the default segment.  The
#: client runs a completely ordinary SLP user agent; the service host runs
#: a stock UPnP clock device plus INDISS (paper Fig. 8 deployment).
#: Neither endpoint knows anything about INDISS.
QUICKSTART = WorldSpec(
    name="quickstart",
    description="SLP client -> [SLP-UPnP] INDISS -> UPnP clock device",
    elements=(
        HostSpec("client", apps=(SlpClient(),)),
        HostSpec(
            "service",
            apps=(ClockDevice(), IndissApp(deployment="service")),
        ),
    ),
    workload=(
        Probe("clock", "service:clock", host="client", headline=True),
    ),
)


def main() -> None:
    QUICKSTART.validate()
    world = World.build(QUICKSTART, seed=0)
    indiss = world.instances[0]
    # INDISS keeps only open sessions; subscribe to the finished ones to
    # read their step logs (paper Fig. 4).
    finished = []
    indiss.session_listeners.append(finished.append)

    # Issue the probe, then run just until the answer arrives (run-control:
    # a predicate over the live world, not a fixed horizon).
    world.run_workload()
    world.run_until(lambda w: w.probe("clock").completed, horizon_us=2_000_000)

    probe = world.probe("clock")
    search = probe.search
    print("SLP client searched for 'service:clock' and received:")
    for entry in search.results:
        print(f"  {entry.url}  (lifetime {entry.lifetime_s}s)")
    print(f"first answer after {probe.latency_us / 1000:.2f} ms (virtual)")
    print()
    print("What INDISS did:")
    for session in sorted(finished, key=lambda s: s.session_id):
        for step in session.steps:
            print(f"  - {step}")
    print()
    print(indiss.describe())


if __name__ == "__main__":
    main()
