"""``Scheduler.run_until``'s one-pop loop against the peek/step loop.

The reference below is the loop ``run_until`` used to be: peek at the
next live event, stop past the limit, otherwise ``step()``.  Two fresh
schedulers replay the same random program -- one driven by
``run_until``, the other by the reference -- and must agree on the fire
log, the counters and the clock after every limit.
"""

from hypothesis import given, settings, strategies as st

from repro.net.simclock import Scheduler, Timer


def reference_run_until(sched: Scheduler, time_us: int) -> None:
    while True:
        head = sched._peek_time()
        if head is None or head > time_us:
            break
        sched.step()
    if sched._now_us < time_us:
        sched._now_us = time_us


#: Delays around the boundaries of the timer wheel the heap replaced: same
#: instant, near-granule edges (1024 us), the near horizon (262 ms), the far
#: horizon (~67 s) and the overflow heap beyond it.
DELAY = st.one_of(
    st.sampled_from([0, 0, 1, 1023, 1024, 1025, 262_143, 262_144, 300_000,
                     67_108_863, 67_108_864, 70_000_000, 200_000_000]),
    st.integers(0, 3_000_000),
)
#: One action a callback (or the initial setup) performs.
ACTION = st.tuples(
    st.sampled_from(["schedule", "untracked", "cancel", "timer", "rearm", "timer_cancel"]),
    DELAY,
    st.integers(0, 31),
)
SCRIPTS = st.lists(st.lists(ACTION, max_size=4), min_size=1, max_size=8)
#: Run limits as increments, so some land between events and some on them.
STEPS = st.lists(
    st.one_of(st.integers(0, 2_000), st.integers(0, 400_000),
              st.sampled_from([67_108_864, 150_000_000])),
    min_size=1, max_size=10,
)


class Program:
    """A scheduler plus the deterministic world the scripts act on."""

    #: Schedule/timer/re-arm actions one program may take, so callbacks
    #: (a timer re-arming itself, say) cannot run away.
    BUDGET = 120

    def __init__(self, scripts):
        self.sched = Scheduler()
        self.sched.fire_log = []
        self.scripts = scripts
        self.handles = []
        self.timers = []
        self.created = 0
        self.arms = 0

    def apply(self, actions) -> None:
        for kind, delay, ref in actions:
            if kind in ("schedule", "untracked", "timer", "rearm"):
                if self.arms >= self.BUDGET:
                    continue
                self.arms += 1
            if kind == "schedule":
                self.handles.append(
                    self.sched.schedule(delay, self._callback(), label=f"e{self.created}")
                )
                self.created += 1
            elif kind == "untracked":
                self.sched.schedule(delay, self._callback(), label=f"p{self.created}")
                self.created += 1
            elif kind == "cancel" and self.handles:
                self.handles[ref % len(self.handles)].cancel()
            elif kind == "timer":
                timer = Timer(self.sched, self._callback())
                timer.start(delay)
                self.timers.append(timer)
                self.created += 1
            elif kind == "rearm" and self.timers:
                self.timers[ref % len(self.timers)].start(delay)
            elif kind == "timer_cancel" and self.timers:
                self.timers[ref % len(self.timers)].cancel()

    def _callback(self):
        index = self.created

        def fire() -> None:
            self.apply(self.scripts[index % len(self.scripts)])

        return fire

    def state(self):
        sched = self.sched
        return (list(sched.fire_log), sched.events_fired, sched.pending, sched.now_us)


@settings(max_examples=300, deadline=None)
@given(scripts=SCRIPTS, setup=st.lists(ACTION, min_size=1, max_size=12), steps=STEPS)
def test_one_pop_loop_matches_the_peek_step_loop(scripts, setup, steps):
    fast, slow = Program(scripts), Program(scripts)
    fast.apply(setup)
    slow.apply(setup)
    limit = 0
    for increment in steps:
        limit += increment
        fast.sched.run_until(limit)
        reference_run_until(slow.sched, limit)
        assert fast.state() == slow.state()
    fast.sched.run_until_idle()
    slow.sched.run_until_idle()
    assert fast.state() == slow.state()


def test_callbacks_posting_for_the_current_instant_fire_in_the_same_run():
    fast, slow = Scheduler(), Scheduler()
    for sched, run in ((fast, Scheduler.run_until), (slow, reference_run_until)):
        sched.fire_log = []

        def chain(sched=sched, depth=0):
            if depth < 5:
                sched.schedule(0, lambda: chain(sched, depth + 1), label=f"d{depth}")

        sched.schedule(10, chain, label="root")
        sched.schedule(10, lambda: None, label="tie")
        run(sched, 10)
    assert fast.fire_log == slow.fire_log
    assert [label for label, _, _ in fast.fire_log] == [
        "root", "tie", "d0", "d1", "d2", "d3", "d4"
    ]
    assert fast.now_us == slow.now_us == 10


def test_compaction_inside_a_callback_keeps_the_loops_in_step():
    # Cancelling most of the queue from a callback compacts it mid-run; the
    # loop must keep popping from the compacted heap.
    fast, slow = Scheduler(), Scheduler()
    for sched, run in ((fast, Scheduler.run_until), (slow, reference_run_until)):
        sched.fire_log = []
        handles = [sched.schedule(t, lambda: None, label=f"t{t}") for t in range(2, 400)]

        def purge(handles=handles):
            for handle in handles[::4] + handles[1::4] + handles[2::4]:
                handle.cancel()

        sched.schedule(1, purge, label="purge")
        run(sched, 200)
        run(sched, 5_000)
    assert fast.compactions == slow.compactions >= 1
    assert fast.fire_log == slow.fire_log
    assert (fast.events_fired, fast.pending, fast.now_us) == (
        slow.events_fired, slow.pending, slow.now_us
    )
