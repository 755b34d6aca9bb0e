"""Same-protocol discovery across a fleet of INDISS gateways.

A city of UPnP leaves with ``n`` SLP islands: every SLP chatter client
searches for a type that a service somewhere in the fleet offers, so every
search should be answered.  At seed 0 the found rate reads 0.5 with two
islands and 0.333 with three.  Most of the loss comes from the
same-protocol exclusion: a cached SLP record is withheld from SLP
requesters on every segment, not only on the one where the native service
could answer directly (see ROADMAP item 1).  The xfail is strict, so the
fix has to flip it to a pass.
"""

import pytest

from repro.world import run_world
from repro.world.scenarios import media_city_spec


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("islands", [2, 3])
def test_every_slp_island_finds_the_fleet_services(islands):
    spec = media_city_spec(
        districts=1,
        leaves_per_district=4,
        nodes=300,
        devices_per_leaf=2,
        cp_per_leaf=1,
        run_us=3_000_000,
        slp_island_leaves=islands,
    )
    outcome = run_world(spec, seed=0)
    assert outcome.extras["chatter_found_rate"] == 1.0
