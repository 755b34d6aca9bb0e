"""Scheduler ordering, counters, compaction and timer re-arm.

The delays sit on the boundaries of the hierarchical timer wheel the
scheduler used to be (1.024 ms near granules, a ~262 ms near horizon, a
~67 s far horizon, an overflow heap beyond it).  The event heap has no
levels, but those inputs stay the sharpest edge cases for its
``(time_us, seq)`` contract.
"""

import pytest

from repro.net.simclock import SECOND, Scheduler, Timer


def test_ordering_across_all_levels():
    """Events land in ready, near wheel, far wheel, and overflow; firing
    order is still globally (time, seq)."""
    sched = Scheduler()
    fired = []
    delays = [0, 5, 1_023, 1_024, 200_000, 262_143, 262_144, 5_000_000,
              67_000_000, 67_108_864, 500_000_000]
    for d in reversed(delays):
        sched.schedule(d, lambda d=d: fired.append(d))
    sched.run_until_idle()
    assert fired == sorted(delays)


def test_far_slot_pour_merges_with_existing_near_wheel_content():
    """Regression: an entry cascading down from the far wheel into the
    anchor granule must not overtake an *earlier* entry that was already
    sitting in the near wheel for that same granule.  (Found in review:
    the pour pushed straight to the ready heap and skipped the near-wheel
    slot, firing t=524788 before t=524289 and running the clock
    backwards.)"""
    sched = Scheduler()
    fired = []
    # A lands in the far wheel (granule 512, two far-blocks ahead of t=0).
    sched.schedule((512 << 10) + 500, lambda: fired.append(("A", sched.now_us)))

    # A stepping stone in far-block 1 whose callback schedules B into the
    # near wheel at A's granule but an earlier timestamp.
    def stepping():
        sched.schedule((512 << 10) + 1 - sched.now_us, lambda: fired.append(("B", sched.now_us)))

    sched.schedule(300 << 10, stepping)
    sched.run_until_idle()
    assert [name for name, _ in fired] == ["B", "A"]
    times = [t for _, t in fired]
    assert times == sorted(times), "virtual clock ran backwards"


def test_same_time_cross_level_ties_fire_in_seq_order():
    sched = Scheduler()
    fired = []
    # Park an event far in the future, then let time advance so previously
    # far entries cascade down and tie with freshly scheduled ones.
    sched.schedule(10_000_000, lambda: fired.append("far"))
    sched.schedule(10_000_000, lambda: fired.append("far2"))
    sched.schedule(1_000, lambda: sched.schedule(9_999_000, lambda: fired.append("near")))
    sched.run_until_idle()
    assert fired == ["far", "far2", "near"]


def test_interleaved_run_until_and_new_schedules():
    sched = Scheduler()
    fired = []
    sched.schedule(300_000, lambda: fired.append("a"))
    sched.run_until(100_000)  # peeks ahead, anchor may advance
    sched.schedule(50_000, lambda: fired.append("b"))  # earlier than "a"
    sched.run_until_idle()
    assert fired == ["b", "a"]
    assert sched.now_us == 300_000


def test_compaction_triggers_and_preserves_survivors():
    sched = Scheduler()
    fired = []
    keep = []
    handles = []
    for i in range(500):
        delay = 1_000 * (i + 1)
        if i % 10 == 0:
            keep.append(delay)
            sched.schedule(delay, lambda d=delay: fired.append(d))
        handles.append(sched.schedule(delay, lambda: fired.append("cancelled!")))
    for handle in handles:
        handle.cancel()
    assert sched.compactions >= 1
    assert sched.pending == len(keep)
    sched.run_until_idle()
    assert fired == keep


def test_compaction_threshold_not_hit_by_few_cancels():
    sched = Scheduler()
    for _ in range(10):
        sched.schedule(100, lambda: None).cancel()
    assert sched.compactions == 0
    sched.run_until_idle()


def test_timer_restart_reuses_wheel_entry():
    """Re-arming an armed timer fires it once, at the new time, under the
    sequence number a fresh schedule would have drawn."""
    sched = Scheduler()
    sched.fire_log = []
    timer = Timer(sched, lambda: None)
    timer.start(50_000)
    timer.start(80_000)
    assert sched.pending == 1
    sched.run_until_idle()
    fresh = Scheduler()
    fresh.fire_log = []
    fresh.schedule(50_000, lambda: None).cancel()
    fresh.schedule(80_000, lambda: None, label="timer")
    fresh.run_until_idle()
    assert sched.fire_log == fresh.fire_log == [("timer", 80_000, 1)]


def test_timer_start_on_armed_timer_behaves_like_restart():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(500)
    sched.run_until(100)
    timer.start(500)
    sched.run_until_idle()
    assert fired == [600]


def test_reschedule_falls_back_when_entry_is_ready():
    """Re-arming from inside a callback, while the armed entry is due in
    the current granule, tombstones it and fires only the fresh entry."""
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))

    def rearm():
        timer.start(2_000_000)

    timer.start(500)  # the wheel's granule 0
    sched.schedule(100, rearm)
    sched.run_until_idle()
    assert fired == [2_000_100]


def test_restart_across_levels():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(100 * SECOND)   # the wheel's overflow heap
    timer.start(300_000)        # its far wheel
    timer.start(5_000)          # its near wheel
    sched.run_until_idle()
    assert fired == [5_000]
    assert sched.pending == 0


def test_pending_counter_with_wheel_levels():
    sched = Scheduler()
    handles = [
        sched.schedule(d, lambda: None)
        for d in (0, 2_000, 500_000, 90 * SECOND)
    ]
    assert sched.pending == 4
    handles[2].cancel()
    assert sched.pending == 3
    sched.run_until(10_000)
    assert sched.pending == 1
    sched.run_until_idle()
    assert sched.pending == 0


def test_run_until_idle_budget_with_wheel():
    sched = Scheduler()

    def rearm():
        sched.schedule(1, rearm)

    sched.schedule(1, rearm)
    with pytest.raises(RuntimeError, match="runaway"):
        sched.run_until_idle(max_events=100)


def test_cancel_after_fire_is_a_counter_safe_noop():
    """Regression: cancelling a handle whose event already fired must not
    corrupt the live/dead bookkeeping (pending went negative and the
    compaction predicate fired spuriously)."""
    sched = Scheduler()
    handle = sched.schedule(10, lambda: None)
    sched.run_until_idle()
    assert sched.pending == 0
    handle.cancel()
    handle.cancel()
    assert sched.pending == 0
    assert sched._dead == 0


def test_periodic_max_firings_keeps_counters_clean():
    sched = Scheduler()
    fired = []
    from repro.net.simclock import PeriodicTask

    PeriodicTask(sched, 10, lambda: fired.append(sched.now_us), max_firings=3)
    sched.run_until_idle()
    assert fired == [10, 20, 30]
    assert sched.pending == 0
    assert sched._dead == 0
    assert sched.compactions == 0


def test_periodic_stop_from_callback_keeps_counters_clean():
    sched = Scheduler()
    from repro.net.simclock import PeriodicTask

    fired = []

    def cb():
        fired.append(sched.now_us)
        if len(fired) == 2:
            task.stop()

    task = PeriodicTask(sched, 10, cb)
    sched.run_until_idle()
    assert fired == [10, 20]
    assert sched.pending == 0
    assert sched._dead == 0


def test_reschedule_of_fired_handle_schedules_fresh():
    """Cancelling a fired handle is a no-op, so cancel plus schedule on it
    arms one fresh event with clean counters."""
    sched = Scheduler()
    fired = []
    handle = sched.schedule(10, lambda: fired.append(sched.now_us))
    sched.run_until_idle()
    handle.cancel()
    new_handle = sched.schedule(25, handle.callback)
    assert sched.pending == 1
    sched.run_until_idle()
    assert fired == [10, 35]
    assert sched.pending == 0
    assert sched._dead == 0
    assert not new_handle.cancelled


def test_reschedule_walks_near_far_overflow_and_back():
    """One timer re-armed through every old wheel level fires exactly once,
    at the final re-arm time, with clean counters."""
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(50_000)         # near wheel
    timer.start(5_000_000)      # far wheel
    timer.start(500_000_000)    # overflow heap
    timer.start(1_000)          # back to near
    assert sched.pending == 1
    sched.run_until_idle()
    assert fired == [1_000]
    assert sched.pending == 0
    assert sched._dead == 0


def test_reschedule_far_entry_after_time_advanced():
    """Re-arming a far-future timer while the clock sits mid-run lands it
    relative to *now*, not relative to its old due time."""
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(5_000_000)
    sched.run_until(2_000_000)
    timer.start(10_000)
    sched.run_until_idle()
    assert fired == [2_010_000]


def test_cancel_after_fire_from_far_and_overflow_levels():
    """The cancel-after-fire no-op holds for entries that lived in the far
    wheel and the overflow heap, not just the ready/near path."""
    sched = Scheduler()
    handles = [
        sched.schedule(5_000_000, lambda: None),     # far wheel
        sched.schedule(500_000_000, lambda: None),   # overflow heap
    ]
    sched.run_until_idle()
    assert sched.pending == 0
    for handle in handles:
        handle.cancel()
        handle.cancel()
    assert sched.pending == 0
    assert sched._dead == 0


def test_seeded_random_ops_match_heap_oracle():
    """Randomized schedule/cancel/re-arm churn across all old wheel levels
    fires in exactly the (time, seq) order a plain sorted oracle predicts.

    The oracle mirrors the scheduler's contract: every schedule, re-arms
    included, consumes one fresh sequence number; cancelling an
    already-fired handle is a no-op, so re-arming it schedules fresh.
    """
    import random

    rng = random.Random(0xC0FFEE)
    sched = Scheduler()
    fired: list = []
    oracle_fired: list = []
    live = {}    # key -> handle (pending or already fired)
    oracle = {}  # key -> (time_us, seq), pending only
    seq = 0
    now = 0
    next_key = 0

    def oracle_run_until(t):
        due = sorted(
            ((time_us, s, key) for key, (time_us, s) in oracle.items() if time_us <= t)
        )
        for _, _, key in due:
            oracle_fired.append(key)
            del oracle[key]

    for _ in range(40):
        for _ in range(rng.randrange(1, 25)):
            delay = rng.choice(
                (
                    rng.randrange(0, 1_000),          # ready / same granule
                    rng.randrange(0, 300_000),        # near wheel
                    rng.randrange(0, 70_000_000),     # far wheel
                    rng.randrange(0, 600_000_000),    # overflow heap
                )
            )
            key = next_key
            next_key += 1
            live[key] = sched.schedule(delay, lambda k=key: fired.append(k))
            oracle[key] = (now + delay, seq)
            seq += 1
        for key in rng.sample(sorted(live), k=min(len(live), rng.randrange(0, 6))):
            live.pop(key).cancel()   # no-op when the event already fired
            oracle.pop(key, None)
        for key in rng.sample(sorted(live), k=min(len(live), rng.randrange(0, 6))):
            delay = rng.randrange(0, 100_000_000)
            live[key].cancel()
            live[key] = sched.schedule(delay, live[key].callback)
            oracle.pop(key, None)    # fired handles re-arm fresh
            oracle[key] = (now + delay, seq)
            seq += 1
        now += rng.randrange(0, 50_000_000)
        sched.run_until(now)
        oracle_run_until(now)

    sched.run_until_idle()
    oracle_run_until(max((t for t, _ in oracle.values()), default=now))
    assert fired == oracle_fired
    assert sched.pending == 0
