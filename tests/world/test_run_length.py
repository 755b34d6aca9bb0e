"""What INDISS retains follows the translations in flight, not run length.

A translation session is a process (paper §2.2): it opens when a native
request enters INDISS and ends when the composed reply leaves.  It ends
everywhere at once: once it has ended, neither INDISS nor any unit it was
fanned out to holds it, so at every horizon the live sessions are exactly
the open ones, however long the world has run.
"""

import gc

from repro.core.session import TranslationSession
from repro.world import World
from repro.world.scenarios import SCENARIO_SPECS, SMALL_SCALE_OVERRIDES


def _live_sessions() -> list[TranslationSession]:
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is TranslationSession]


def _opened(world: World) -> int:
    return sum(instance.stats.opened for instance in world.instances)


def test_media_city_sessions_do_not_accumulate_with_run_length():
    spec = SCENARIO_SPECS["media_city"](**SMALL_SCALE_OVERRIDES["media_city"])
    world = World.build(spec, seed=0)
    world.run_workload()
    horizon_us = world.net.scheduler.now_us
    opened = []
    for horizon in (1, 2, 3):
        if horizon > 1:
            world.run(horizon_us)
        opened.append(_opened(world))
        open_ids = {
            session.session_id
            for instance in world.instances
            for session in instance.session_manager.active()
        }
        live_ids = [session.session_id for session in _live_sessions()]
        assert sorted(live_ids) == sorted(open_ids), f"at {horizon}T"
        held = {
            session_id
            for instance in world.instances
            for unit in instance.units.values()
            for session_id in unit.sessions
        }
        assert held <= open_ids, f"at {horizon}T"
    # Each later horizon opens at least half as many sessions again, all
    # of which a store keeping finished sessions would still hold.
    for before, after in zip(opened, opened[1:]):
        assert after - before >= opened[0] // 2 > 0
