"""Same spec + seed gives a byte-identical run, whatever ran before it.

Session ids reach the wire (translated USNs, export paths), so an id
allocator shared across worlds would let one run shift the payload
lengths, and so the event schedule, of the next.  Each world's network
owns its allocator; these tests run a different translating world, then
the catalog entry, and assert the entry's run matches its golden row,
which was written in a fresh interpreter.
"""

import pytest

from repro.world import run_world
from repro.world.scenarios import SCENARIO_SPECS

from .test_catalog_golden import assert_matches_golden, golden_rows

#: A translating world run in between: it opens sessions and exports
#: translated UPnP descriptions on more than one gateway.
INTERLOPER = "gateway_chain"


@pytest.mark.parametrize("name", [
    "upnp_to_slp_client_side",
    "slp_to_upnp_service_side",
    "media_city",
    "crash_recovery",
    "district_grid",
])
def test_run_does_not_depend_on_earlier_worlds(name):
    run_world(SCENARIO_SPECS[INTERLOPER](), seed=1)
    assert_matches_golden(golden_rows(name, seeds=(0,)), "plain")
