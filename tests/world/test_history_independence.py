"""Same spec + seed gives a byte-identical run, whatever ran before it.

Session ids reach the wire (translated USNs, export paths), so an id
allocator shared across worlds would let one run shift the payload
lengths, and so the event schedule, of the next.  Each world's network
owns its allocator; these tests run a catalog entry, then a different
translating world, then the entry again, and assert the two runs of the
entry are identical on the wire.
"""

import hashlib

import pytest

from repro.world import run_world
from repro.world.scenarios import SCENARIO_SPECS, SMALL_SCALE_OVERRIDES

#: A translating world run in between: it opens sessions and exports
#: translated UPnP descriptions on more than one gateway.
INTERLOPER = "gateway_chain"


def fingerprint(name: str, parse_once: bool = True) -> dict:
    """What a run of catalog entry ``name`` put on the wire and reported."""
    spec = SCENARIO_SPECS[name](**SMALL_SCALE_OVERRIDES.get(name, {}))
    outcome = run_world(spec, seed=0, capture=True, parse_once=parse_once)
    digest = hashlib.sha256()
    for record in outcome.world.trace:
        digest.update(repr((
            record.time_us, record.transport, record.source,
            record.destination, record.size, record.segment,
        )).encode())
        digest.update(record.payload)
    return {
        "trace": digest.hexdigest(),
        "events_fired": outcome.world.scheduler.events_fired,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "extras": outcome.extras,
    }


@pytest.mark.parametrize("name", [
    "upnp_to_slp_client_side",
    "slp_to_upnp_service_side",
    "media_city",
    "crash_recovery",
    "district_grid",
])
def test_run_does_not_depend_on_earlier_worlds(name):
    first = fingerprint(name)
    run_world(SCENARIO_SPECS[INTERLOPER](), seed=1)
    assert fingerprint(name) == first
