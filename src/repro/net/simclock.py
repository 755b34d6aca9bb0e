"""Virtual time and the discrete-event scheduler.

Every component of the simulated network shares one :class:`Scheduler`.
Time is an integer number of **microseconds** so that runs are exactly
reproducible (no floating point accumulation) and event ordering is total:
ties on the timestamp are broken by insertion sequence number.

The scheduler is one binary heap of ``(time_us, seq, event)`` tuples, so
events fire in exact ``(time_us, seq)`` order (see ARCHITECTURE.md
"Event-queue scheduler").  The event record is also the caller's handle.
Cancellation is lazy (tombstones are skipped when they reach the head)
with a compaction sweep once dead entries outnumber live ones; the live
count itself is maintained incrementally so :attr:`Scheduler.pending` is
O(1).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

#: One millisecond expressed in the scheduler's microsecond unit.
MILLISECOND = 1_000
#: One second expressed in the scheduler's microsecond unit.
SECOND = 1_000_000

#: Compaction runs when at least this many tombstones have accumulated
#: *and* they outnumber the live entries (dead fraction above one half).
_COMPACT_MIN_DEAD = 64


def us_to_ms(micros: int) -> float:
    """Convert integer microseconds to float milliseconds (for reporting)."""
    return micros / 1_000.0


def ms_to_us(millis: float) -> int:
    """Convert float milliseconds to the integer microsecond unit."""
    return int(round(millis * 1_000))


class EventHandle:
    """One scheduled callback, returned by :meth:`Scheduler.schedule`.

    The queued record is its own handle: callers read ``time_us`` and
    ``cancelled`` and call :meth:`cancel` on the object the heap holds.
    """

    __slots__ = ("time_us", "callback", "label", "cancelled", "fired", "_scheduler")

    def __init__(
        self, time_us: int, callback: Callable[[], None], label: str, scheduler: "Scheduler"
    ):
        self.time_us = time_us
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing; cancelling twice — or cancelling
        an event that already fired — is a harmless no-op (a periodic
        task's stop() cancels the handle of the firing it is inside of)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._scheduler._note_cancel()


class Scheduler:
    """A deterministic discrete-event scheduler over virtual microseconds.

    Usage::

        sched = Scheduler()
        sched.schedule(1_000, lambda: print("fires at t=1ms"))
        sched.run_until_idle()
    """

    def __init__(self) -> None:
        self._now_us = 0
        self._seq = 0
        self._events_fired = 0
        #: Live (scheduled, not yet fired or cancelled) event count, kept
        #: current on schedule/cancel/fire so :attr:`pending` is O(1).
        self._live = 0
        #: Cancelled entries still resident in the queue.
        self._dead = 0
        #: Compaction sweeps performed (benchmarks report this).
        self.compactions = 0
        #: When set to a list, every fired event appends
        #: ``(label, time_us, seq)`` — the golden-trace tests' probe.
        self.fire_log: list | None = None
        #: The event queue, a heap ordered exactly by ``(time_us, seq)``.
        #: Compaction filters it in place, so the list object never changes.
        self._queue: list[tuple[int, int, EventHandle]] = []

    # -- introspection -------------------------------------------------------

    @property
    def now_us(self) -> int:
        """Current virtual time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return us_to_ms(self._now_us)

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live (not cancelled, not yet fired) queued events."""
        return self._live

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        delay_us: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay_us`` after the current time.

        A negative delay is clamped to zero (fires "now", after any events
        already queued for the current instant).
        """
        if delay_us < 0:
            delay_us = 0
        time_us = self._now_us + int(delay_us)
        event = EventHandle(time_us, callback, label, self)
        heapq.heappush(self._queue, (time_us, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def schedule_at(
        self,
        time_us: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute virtual time."""
        return self.schedule(time_us - self._now_us, callback, label=label)

    def _note_cancel(self) -> None:
        """Bookkeeping for a first-time cancellation of a queued event."""
        self._live -= 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Sweep tombstones out of the queue (dead fraction > 1/2)."""
        self.compactions += 1
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._dead = 0

    # -- the run loop --------------------------------------------------------

    def _peek_time(self) -> int | None:
        """Timestamp of the next live event, skipping tombstones."""
        queue = self._queue
        while queue:
            time_us, _, event = queue[0]
            if not event.cancelled:
                return time_us
            heapq.heappop(queue)
            self._dead -= 1
        return None

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue was empty."""
        queue = self._queue
        while queue:
            time_us, seq, event = heapq.heappop(queue)
            if event.cancelled:
                self._dead -= 1
                continue
            self._now_us = time_us
            self._events_fired += 1
            self._live -= 1
            event.fired = True
            if self.fire_log is not None:
                self.fire_log.append((event.label, time_us, seq))
            event.callback()
            return True
        return False

    def run_until(self, time_us: int) -> None:
        """Run all events with timestamp <= ``time_us``; advance time there.

        One pop per event: the loop drops tombstones at the head of the
        queue, stops at the first live entry past ``time_us``, and
        otherwise pops and fires it inline — the order and bookkeeping of
        :meth:`_peek_time` followed by :meth:`step`, without their calls.
        """
        heappop = heapq.heappop
        queue = self._queue
        while queue:
            head_us, seq, event = queue[0]
            if event.cancelled:
                heappop(queue)
                self._dead -= 1
                continue
            if head_us > time_us:
                break
            heappop(queue)
            self._now_us = head_us
            self._events_fired += 1
            self._live -= 1
            event.fired = True
            if self.fire_log is not None:
                self.fire_log.append((event.label, head_us, seq))
            event.callback()
        if self._now_us < time_us:
            self._now_us = time_us

    def run_until_idle(self, limit_us: int | None = None, max_events: int = 10_000_000) -> None:
        """Run until no events remain, the time limit, or the event budget.

        ``limit_us`` is an absolute virtual-time ceiling; events scheduled
        beyond it stay queued.  ``max_events`` guards against runaway loops in
        tests (periodic advertisements are the usual culprit).
        """
        fired = 0
        while fired < max_events:
            head = self._peek_time()
            if head is None:
                return
            if limit_us is not None and head > limit_us:
                self._now_us = max(self._now_us, limit_us)
                return
            self.step()
            fired += 1
        raise RuntimeError(f"run_until_idle exceeded {max_events} events; runaway timer?")

    def run_for(self, delay_us: int) -> None:
        """Run events for a relative window of virtual time."""
        self.run_until(self._now_us + delay_us)

    def drain(self, handles: Iterable[EventHandle]) -> None:
        """Cancel a batch of handles (convenience for component teardown)."""
        for handle in handles:
            handle.cancel()


class Timer:
    """A restartable one-shot timer bound to a scheduler.

    Components use this for protocol timeouts (e.g. an SLP user agent waiting
    for unicast replies after a multicast request).  Re-arming a running
    timer cancels its queued event and schedules a fresh one.
    """

    def __init__(self, scheduler: Scheduler, callback: Callable[[], None]):
        self._scheduler = scheduler
        self._callback = callback
        self._handle: EventHandle | None = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def start(self, delay_us: int) -> None:
        """Arm (or re-arm) the timer ``delay_us`` from now."""
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._scheduler.schedule(delay_us, self._fire, label="timer")

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicTask:
    """Repeatedly runs a callback with a fixed virtual-time period.

    Used for service advertisement loops (SSDP NOTIFY, SLP SAAdvert, Jini
    announcements).  The first firing happens after ``initial_delay_us``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        period_us: int,
        callback: Callable[[], None],
        initial_delay_us: int | None = None,
        max_firings: int | None = None,
    ):
        if period_us <= 0:
            raise ValueError("period_us must be positive")
        self._scheduler = scheduler
        self._period_us = period_us
        self._callback = callback
        self._max_firings = max_firings
        self._firings = 0
        self._handle: EventHandle | None = None
        self._stopped = False
        first = period_us if initial_delay_us is None else initial_delay_us
        self._handle = scheduler.schedule(first, self._fire, label="periodic")

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if self._stopped:
            return
        # The handle points at the event that is firing right now; drop it
        # so a stop() from inside the callback does not cancel a dead event.
        self._handle = None
        self._firings += 1
        self._callback()
        if self._max_firings is not None and self._firings >= self._max_firings:
            self.stop()
            return
        if not self._stopped:
            self._handle = self._scheduler.schedule(self._period_us, self._fire, label="periodic")


__all__ = [
    "MILLISECOND",
    "SECOND",
    "Scheduler",
    "EventHandle",
    "Timer",
    "PeriodicTask",
    "us_to_ms",
    "ms_to_us",
]
