"""Virtual time and the discrete-event scheduler.

Every component of the simulated network shares one :class:`Scheduler`.
Time is an integer number of **microseconds** so that runs are exactly
reproducible (no floating point accumulation) and event ordering is total:
ties on the timestamp are broken by insertion sequence number.

The scheduler is a hierarchical **timer wheel** backed by an overflow
heap (see ARCHITECTURE.md "Performance architecture"):

* a near wheel of 256 slots, one per 1.024 ms granule (~262 ms horizon);
* a far wheel of 256 slots, one per 262 ms granule (~67 s horizon);
* a plain heap for anything beyond the far horizon.

Events due in the current granule sit in a small *ready* heap ordered by
the exact ``(time_us, seq)`` key, so the firing order is bit-identical to
the classic single-heap implementation the golden-trace tests compare
against.  Cancellation is lazy (tombstones are skipped when met) with a
compaction sweep once dead entries outnumber live ones; the live count
itself is maintained incrementally so :attr:`Scheduler.pending` is O(1).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

#: One millisecond expressed in the scheduler's microsecond unit.
MILLISECOND = 1_000
#: One second expressed in the scheduler's microsecond unit.
SECOND = 1_000_000

#: log2 of the near-wheel granule (1024 us).
_G0_BITS = 10
#: log2 of the far-wheel granule (262.144 ms).
_G1_BITS = _G0_BITS + 8
#: Slots per wheel level.
_SLOTS = 256
_MASK = _SLOTS - 1

#: Compaction runs when at least this many tombstones have accumulated
#: *and* they outnumber the live entries (dead fraction above one half).
_COMPACT_MIN_DEAD = 64


def us_to_ms(micros: int) -> float:
    """Convert integer microseconds to float milliseconds (for reporting)."""
    return micros / 1_000.0


def ms_to_us(millis: float) -> int:
    """Convert float milliseconds to the integer microsecond unit."""
    return int(round(millis * 1_000))


class Cancelled(Exception):
    """Raised internally when a cancelled event would have fired."""


class _Event:
    """One scheduled callback: an allocation-light slotted record.

    ``bucket`` is the wheel-slot list currently holding the entry (None
    while it sits in the ready or overflow heaps), which is what lets
    :meth:`Scheduler.reschedule` pull a timer out and reuse the record
    instead of tombstoning it.
    """

    __slots__ = ("time_us", "seq", "callback", "label", "cancelled", "fired", "bucket")

    def __init__(self, time_us: int, seq: int, callback: Callable[[], None], label: str):
        self.time_us = time_us
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self.bucket: list | None = None


class EventHandle:
    """Opaque handle returned by :meth:`Scheduler.schedule`, usable to cancel."""

    __slots__ = ("_event", "_scheduler")

    def __init__(self, event: _Event, scheduler: "Scheduler"):
        self._event = event
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing; cancelling twice — or cancelling
        an event that already fired — is a harmless no-op (a periodic
        task's stop() cancels the handle of the firing it is inside of)."""
        event = self._event
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._scheduler._note_cancel(event)

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time_us(self) -> int:
        return self._event.time_us


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
        #: Cancelled entries still resident in some structure.
        self._dead = 0
        #: Compaction sweeps performed (benchmarks report this).
        self.compactions = 0
        #: When set to a list, every fired event appends
        #: ``(label, time_us, seq)`` — the golden-trace tests' probe.
        self.fire_log: list | None = None
        # Entries with granule <= anchor, ordered exactly by (time_us, seq).
        self._ready: list[tuple[int, int, _Event]] = []
        #: Absolute near-granule the ready set is anchored at.  Only ever
        #: advances, and only when the ready heap is empty.
        self._anchor = 0
        self._l0: list[list[_Event] | None] = [None] * _SLOTS
        self._occ0 = 0  # occupancy bitmap, bit i <=> slot i non-empty
        self._l1: list[list[_Event] | None] = [None] * _SLOTS
        self._occ1 = 0
        self._overflow: list[tuple[int, int, _Event]] = []

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
        event = _Event(self._now_us + int(delay_us), self._seq, callback, label)
        self._seq += 1
        self._live += 1
        self._insert(event)
        return EventHandle(event, self)

    def schedule_at(
        self,
        time_us: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute virtual time."""
        return self.schedule(time_us - self._now_us, callback, label=label)

    def post(self, delay_us: int, callback: Callable[[], None], label: str = "") -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        The datagram-delivery paths post one event per frame/socket and
        never cancel them, so skipping the handle allocation is a real
        saving at hundreds of thousands of deliveries per run.  Sequencing
        is identical to :meth:`schedule`.
        """
        if delay_us < 0:
            delay_us = 0
        event = _Event(self._now_us + int(delay_us), self._seq, callback, label)
        self._seq += 1
        self._live += 1
        self._insert(event)

    def reschedule(self, handle: EventHandle, delay_us: int) -> EventHandle:
        """Re-arm a pending event ``delay_us`` from now (timer restart).

        When the entry still sits in a wheel slot this reuses the record in
        place — no tombstone, no allocation.  Entries already promoted to
        the ready heap (or parked in the overflow heap) fall back to
        cancel-plus-schedule.  Either way the event is sequenced exactly as
        a freshly scheduled one would be.
        """
        event = handle._event
        if event.cancelled or event.fired:
            return self.schedule(delay_us, event.callback, label=event.label)
        bucket = event.bucket
        if bucket is None:
            handle.cancel()
            return self.schedule(delay_us, event.callback, label=event.label)
        bucket.remove(event)
        if not bucket:
            gran = event.time_us >> _G0_BITS
            idx = gran & _MASK
            if self._l0[idx] is bucket:
                self._occ0 &= ~(1 << idx)
            else:
                idx = (gran >> 8) & _MASK
                if self._l1[idx] is bucket:
                    self._occ1 &= ~(1 << idx)
        if delay_us < 0:
            delay_us = 0
        event.time_us = self._now_us + int(delay_us)
        event.seq = self._seq
        self._seq += 1
        event.bucket = None
        self._insert(event)
        return handle

    def _note_cancel(self, event: _Event) -> None:
        """Bookkeeping for a first-time cancellation of a queued event."""
        self._live -= 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    # -- wheel internals -----------------------------------------------------

    def _insert(self, event: _Event) -> None:
        """Place an entry in ready / near wheel / far wheel / overflow."""
        gran = event.time_us >> _G0_BITS
        delta = gran - self._anchor
        if delta <= 0:
            heapq.heappush(self._ready, (event.time_us, event.seq, event))
        elif delta < _SLOTS:
            idx = gran & _MASK
            bucket = self._l0[idx]
            if bucket is None:
                bucket = self._l0[idx] = []
            if not bucket:
                self._occ0 |= 1 << idx
            bucket.append(event)
            event.bucket = bucket
        elif (gran >> 8) - (self._anchor >> 8) < _SLOTS:
            idx = (gran >> 8) & _MASK
            bucket = self._l1[idx]
            if bucket is None:
                bucket = self._l1[idx] = []
            if not bucket:
                self._occ1 |= 1 << idx
            bucket.append(event)
            event.bucket = bucket
        else:
            heapq.heappush(self._overflow, (event.time_us, event.seq, event))

    @staticmethod
    def _next_bit(mask: int, start: int) -> int:
        """Circular distance from ``start`` to the next set bit of ``mask``.

        ``mask`` must be non-zero.  Returns an offset in [0, 256).
        """
        m = mask >> start
        if m:
            return (m & -m).bit_length() - 1
        m = mask & ((1 << start) - 1)
        return _SLOTS - start + (m & -m).bit_length() - 1

    def _drain_l0(self, gran: int) -> None:
        """Promote one near-wheel slot into the (empty) ready heap."""
        idx = gran & _MASK
        bucket = self._l0[idx]
        self._l0[idx] = None
        self._occ0 &= ~(1 << idx)
        self._anchor = gran
        ready = self._ready
        for event in bucket:
            if event.cancelled:
                self._dead -= 1
                continue
            event.bucket = None
            ready.append((event.time_us, event.seq, event))
        heapq.heapify(ready)

    def _pour_l1(self, l1_gran: int) -> None:
        """Cascade one far-wheel slot down into the near wheel / ready."""
        idx = l1_gran & _MASK
        if not (self._occ1 & (1 << idx)):
            return
        bucket = self._l1[idx]
        self._l1[idx] = None
        self._occ1 &= ~(1 << idx)
        for event in bucket:
            if event.cancelled:
                self._dead -= 1
                continue
            event.bucket = None
            self._insert(event)

    def _pour_overflow(self, l1_gran: int) -> None:
        """Move overflow entries due within ``l1_gran`` into the wheels."""
        overflow = self._overflow
        while overflow and (overflow[0][0] >> _G1_BITS) <= l1_gran:
            _, _, event = heapq.heappop(overflow)
            if event.cancelled:
                self._dead -= 1
                continue
            self._insert(event)

    def _refill_ready(self) -> bool:
        """Advance the wheels until the ready heap has a live entry.

        Returns False when nothing is pending anywhere.  The anchor only
        moves to the earliest granule that still holds content, so firing
        order is globally exact.
        """
        while not self._ready:
            anchor = self._anchor
            c0_gran = None
            if self._occ0:
                c0_gran = anchor + self._next_bit(self._occ0, anchor & _MASK)
            if c0_gran is not None and (c0_gran >> 8) == (anchor >> 8):
                # Near content within the current far-granule: nothing in
                # the far wheel or overflow can precede it.
                self._drain_l0(c0_gran)
                continue
            anchor_l1 = anchor >> 8
            target = None
            if c0_gran is not None:
                target = c0_gran >> 8
            if self._occ1:
                c1 = anchor_l1 + self._next_bit(self._occ1, anchor_l1 & _MASK)
                target = c1 if target is None else min(target, c1)
            if self._overflow:
                ov = self._overflow[0][0] >> _G1_BITS
                target = ov if target is None else min(target, ov)
            if target is None:
                return False
            # Enter the target far-granule: pour its far-wheel slot and any
            # overflow entries due inside it, then search the near wheel.
            self._anchor = target << 8
            self._pour_l1(target)
            self._pour_overflow(target)
            # Poured entries due in the anchor granule itself went straight
            # to the ready heap — but the near wheel may *already* hold
            # entries for that same granule (scheduled while the old window
            # covered it).  Merge them now, or a poured late event would
            # fire before an earlier near-wheel one.
            anchor_idx = self._anchor & _MASK
            if self._occ0 & (1 << anchor_idx):
                self._drain_l0(self._anchor)
        return True

    def _compact(self) -> None:
        """Sweep tombstones out of every structure (dead fraction > 1/2)."""
        self.compactions += 1
        self._ready = [t for t in self._ready if not t[2].cancelled]
        heapq.heapify(self._ready)
        for slots, occ_attr in ((self._l0, "_occ0"), (self._l1, "_occ1")):
            occ = 0
            for idx in range(_SLOTS):
                bucket = slots[idx]
                if not bucket:
                    continue
                bucket[:] = [e for e in bucket if not e.cancelled]
                if bucket:
                    occ |= 1 << idx
                else:
                    slots[idx] = None
            setattr(self, occ_attr, occ)
        self._overflow = [t for t in self._overflow if not t[2].cancelled]
        heapq.heapify(self._overflow)
        self._dead = 0

    # -- the run loop --------------------------------------------------------

    def _peek_time(self) -> int | None:
        """Timestamp of the next live event, skipping tombstones."""
        while True:
            if not self._ready and not self._refill_ready():
                return None
            time_us, _, event = self._ready[0]
            if event.cancelled:
                heapq.heappop(self._ready)
                self._dead -= 1
                continue
            return time_us

    def _pop_next(self) -> _Event | None:
        while True:
            if not self._ready and not self._refill_ready():
                return None
            _, _, event = heapq.heappop(self._ready)
            if event.cancelled:
                self._dead -= 1
                continue
            return event

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue was empty."""
        event = self._pop_next()
        if event is None:
            return False
        self._now_us = event.time_us
        self._events_fired += 1
        self._live -= 1
        event.fired = True
        if self.fire_log is not None:
            self.fire_log.append((event.label, event.time_us, event.seq))
        event.callback()
        return True

    def run_until(self, time_us: int) -> None:
        """Run all events with timestamp <= ``time_us``; advance time there.

        One pop per event: the loop drops tombstones at the head of the
        ready heap, stops at the first live entry past ``time_us``, and
        otherwise pops and fires it inline — the order and bookkeeping of
        :meth:`_peek_time` followed by :meth:`step`, without their calls.
        """
        heappop = heapq.heappop
        while True:
            # Re-read every pass: a callback's cancel may compact the heap
            # into a new list.
            ready = self._ready
            if not ready and not self._refill_ready():
                break
            head_us, seq, event = ready[0]
            if event.cancelled:
                heappop(ready)
                self._dead -= 1
                continue
            if head_us > time_us:
                break
            heappop(ready)
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
    timer goes through :meth:`Scheduler.reschedule`, which reuses the
    scheduled entry instead of tombstoning it.
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
        if self._handle is not None and not self._handle.cancelled:
            self.restart(delay_us)
            return
        self._handle = self._scheduler.schedule(delay_us, self._fire, label="timer")

    def restart(self, delay_us: int) -> None:
        """Re-arm a running timer, reusing its scheduler entry when possible."""
        if self._handle is None or self._handle.cancelled:
            self.start(delay_us)
            return
        self._handle = self._scheduler.reschedule(self._handle, delay_us)

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
    def firings(self) -> int:
        return self._firings

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
