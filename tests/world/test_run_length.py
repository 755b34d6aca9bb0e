"""What INDISS retains follows the translations in flight, not run length.

A translation session is a process (paper §2.2): it opens when a native
request enters INDISS and ends when the composed reply leaves.  Once it
has ended, nothing in the simulator holds it, so running a world twice as
long must not leave more sessions alive than the first half did, beyond
those still open at the end.
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
    live_at_t = len(_live_sessions())
    opened_at_t = _opened(world)

    world.run(horizon_us)
    live = _live_sessions()
    still_open = sum(1 for session in live if not session.completed)

    # The second half opens at least half as many sessions again, all of
    # which a store keeping finished sessions would still hold.
    assert _opened(world) - opened_at_t >= opened_at_t // 2 > 0
    assert len(live) <= live_at_t + still_open
    assert still_open == sum(len(i.session_manager) for i in world.instances)
