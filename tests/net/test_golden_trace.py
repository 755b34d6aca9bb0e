"""Scheduler-order equivalence: the production scheduler fires the exact
sequence an independent single-heap oracle fires.

``_ReferenceHeapScheduler`` below is a deliberately naive implementation
(dataclass events with lazy-cancel tombstones on one ``heapq``, no live
counter, no compaction), kept apart from ``repro.net.simclock`` as the
ordering oracle.  Both schedulers log every fired event as
``(label, time_us, seq)``; running the same scenario under each must
produce identical logs *and* identical captured wire traces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import pytest

import repro.net.network as network_module
from repro.net.simclock import Scheduler
from repro.world import run_world
from repro.world.scenarios import federated_campus_spec, multi_segment_home_spec


@dataclass(order=True)
class _RefEvent:
    time_us: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class _RefHandle:
    def __init__(self, event: _RefEvent):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time_us(self) -> int:
        return self._event.time_us


class _ReferenceHeapScheduler:
    """The oracle scheduler: one heap, lazy-cancel tombstones."""

    def __init__(self) -> None:
        self._now_us = 0
        self._seq = 0
        self._queue: list[_RefEvent] = []
        self._events_fired = 0
        self.fire_log: list = []

    @property
    def now_us(self) -> int:
        return self._now_us

    @property
    def now_ms(self) -> float:
        return self._now_us / 1000.0

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    def schedule(self, delay_us, callback, label=""):
        if delay_us < 0:
            delay_us = 0
        event = _RefEvent(self._now_us + int(delay_us), self._seq, callback, label=label)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return _RefHandle(event)

    def schedule_at(self, time_us, callback, label=""):
        return self.schedule(time_us - self._now_us, callback, label=label)

    def _pop_next(self):
        while self._queue:
            event = heapq.heappop(self._queue)
            if not event.cancelled:
                return event
        return None

    def step(self) -> bool:
        event = self._pop_next()
        if event is None:
            return False
        self._now_us = event.time_us
        self._events_fired += 1
        self.fire_log.append((event.label, event.time_us, event.seq))
        event.callback()
        return True

    def run_until(self, time_us) -> None:
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time_us > time_us:
                break
            self.step()
        if self._now_us < time_us:
            self._now_us = time_us

    def run_until_idle(self, limit_us=None, max_events=10_000_000) -> None:
        fired = 0
        while fired < max_events:
            event = None
            while self._queue:
                head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                event = head
                break
            if event is None:
                return
            if limit_us is not None and event.time_us > limit_us:
                self._now_us = max(self._now_us, limit_us)
                return
            self.step()
            fired += 1
        raise RuntimeError("runaway")

    def run_for(self, delay_us) -> None:
        self.run_until(self._now_us + delay_us)

    def drain(self, handles) -> None:
        for handle in handles:
            handle.cancel()


class _LoggingScheduler(Scheduler):
    def __init__(self) -> None:
        super().__init__()
        self.fire_log = []


def _run_with_scheduler(monkeypatch, scheduler_cls, spec, seed):
    monkeypatch.setattr(network_module, "Scheduler", scheduler_cls)
    outcome = run_world(spec, seed=seed, capture=True)
    sched = outcome.world.scheduler
    trace = [
        (r.time_us, r.transport, r.source, r.destination, r.payload, r.segment)
        for r in outcome.world.trace
    ]
    return sched.fire_log, trace, outcome


SCENARIO_CASES = {
    "multi_segment_home": multi_segment_home_spec(nodes=30),
    "federated_campus": federated_campus_spec(segments=4, nodes=60),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_CASES))
def test_wheel_fires_identical_event_sequence(monkeypatch, name):
    spec = SCENARIO_CASES[name]
    ref_log, ref_trace, ref_outcome = _run_with_scheduler(
        monkeypatch, _ReferenceHeapScheduler, spec, seed=2
    )
    wheel_log, wheel_trace, wheel_outcome = _run_with_scheduler(
        monkeypatch, _LoggingScheduler, spec, seed=2
    )
    assert len(ref_log) > 20, "scenario fired suspiciously few events"
    assert wheel_log == ref_log
    assert wheel_trace == ref_trace
    assert wheel_outcome.latency_us == ref_outcome.latency_us
    assert wheel_outcome.results == ref_outcome.results


def test_wheel_matches_reference_on_adversarial_timer_mix():
    """Randomized schedule/cancel mix across the old wheel's levels."""
    import random

    rng = random.Random(1234)
    ref = _ReferenceHeapScheduler()
    wheel = _LoggingScheduler()
    for sched in (ref, wheel):
        rng_local = random.Random(99)
        handles = []

        def spawn(depth, sched=sched, rng_local=rng_local, handles=handles):
            # Delays span the levels of the timer wheel this scheduler
            # replaced: same instant (0), near wheel (us..ms), far wheel
            # (hundreds of ms) and overflow (minutes), including values
            # around its 2^18us far-granule boundary.
            delay = rng_local.choice(
                [0, 3, 700, 12_000, 180_000, 262_000, 262_300, 400_000,
                 524_100, 524_500, 30_000_000, 120_000_000]
            )
            if depth < 3:
                handle = sched.schedule(
                    delay, lambda: spawn(depth + 1), label=f"d{depth}"
                )
                handles.append(handle)
            if handles and rng_local.random() < 0.3:
                victim = handles[rng_local.randrange(len(handles))]
                victim.cancel()

        for _ in range(120):
            spawn(0)
        sched.run_until_idle()
    assert wheel.fire_log == ref.fire_log
    times = [t for _, t, _ in wheel.fire_log]
    assert times == sorted(times), "virtual clock ran backwards"
