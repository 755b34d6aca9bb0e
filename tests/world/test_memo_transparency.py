"""Memos change host work, never the simulation.

``parse_once=False`` attaches the null frame memo to every frame and
hands every receiver cache (``Network.memo``) a bound of 0.  Every golden
row of each catalog entry runs that way and must match its row in every
field but the full extras digest: extras may differ only in the
counters that measure the host work a memo saves
(``test_catalog_golden.VARIANT_EXTRAS``).
"""

import pytest

from repro.world.scenarios import SCENARIO_SPECS

from .test_catalog_golden import assert_matches_golden, entry_rows


@pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
def test_memos_off_change_nothing_simulated(name):
    assert_matches_golden(entry_rows(name), "memos_off")
