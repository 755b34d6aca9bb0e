"""Traffic accounting for the simulated network and each segment.

INDISS's adaptation manager (paper §4.2, Figure 6) switches a passively
deployed instance to active advertisement only "when the network traffic is
low"; this module provides the utilization measurements that decision needs,
plus the frame and byte totals the flight recorder and the benchmark ledger
report.  Who sent a frame to which port is the capture trace's business
(``Network(capture=True)``), not the monitor's.

A window costs memory in proportion to the traffic it covers, so a
monitor keeps one only as long as its readers need: every segment keeps
:data:`UTILIZATION_WINDOW_US` (the gateway elector may read any of them),
and the network-wide monitor keeps totals only unless an adaptation
manager calls :meth:`TrafficMonitor.retain`.
"""

from __future__ import annotations

from array import array

#: The trailing window every utilization reader asks for: the adaptation
#: manager's traffic threshold and the gateway elector's ranking both look
#: back this far, and segments retain exactly this much.
UTILIZATION_WINDOW_US = 1_000_000


class TrafficMonitor:
    """Counts every message the network delivers or attempts to deliver.

    The monitor keeps two cumulative totals, ``total_messages`` and
    ``total_bytes``, and, once retained, a sliding window of recent
    traffic for utilization queries.  The retention (``window_us``, or
    the largest :meth:`retain` request) bounds how far back
    :meth:`utilization` can look; at 0 the monitor keeps totals only and
    every window read raises.

    The window is two parallel integer columns, bucket times and bucket
    byte counts, with a head index marking the oldest live bucket.  A
    frame recorded in the same µs as the newest bucket adds its bytes
    there, so a multicast burst costs one bucket; no booking allocates a
    container.  Eviction advances the head past buckets older than the
    horizon exactly where popping samples from a per-frame queue would
    stop, so every window query answers as that queue did.  Once the
    head passes half the columns the dead prefix is cut off, which keeps
    the columns proportional to the live window at O(1) amortised cost.

    A frame may be booked at an earlier time than the latest one booked
    so far (a district crossing books its send time).  Every bucket after
    the newest such *late* bucket is at least as recent as all buckets
    before it, which is what lets :meth:`bytes_in_window` stop early.
    """

    def __init__(self, bandwidth_bps: int | None, window_us: int = 0):
        self._bandwidth_bps = bandwidth_bps
        self._window_us = 0
        #: Bucket columns; the live window is ``[_head, len)``.  Both stay
        #: empty while the retention is 0.
        self._times = array("q")
        self._sizes = array("q")
        self._head = 0
        #: Latest time booked so far, and the column index of the newest
        #: late bucket (below ``_head`` once evicted, or when none exists).
        #: A totals-only monitor stops tracking the time once it is spread.
        self._latest_us = -1
        self._late = -1
        #: True once frames were booked at two different times: from then
        #: on no window can be widened exactly.
        self._spread = False
        self.total_messages = 0
        self.total_bytes = 0
        self.retain(window_us)

    def retain(self, window_us: int) -> None:
        """Keep at least the trailing ``window_us`` for window reads.

        Raises the retention to the largest window ever asked for; a
        smaller request does nothing.  Raising it after frames were
        booked at two or more different times raises ``ValueError``: the
        traffic the wider window should cover is already gone, and a
        partial window would read as idle.  While every frame so far
        shares one µs, the window starts exact from a single bucket.
        """
        if window_us < 0:
            raise ValueError(f"window_us must not be negative, got {window_us}")
        if window_us <= self._window_us:
            return
        if self._spread:
            raise ValueError(
                f"cannot widen the window to {window_us} µs after frames "
                "were booked at different times"
            )
        if self.total_messages and not self._times:
            self._times.append(self._latest_us)
            self._sizes.append(self.total_bytes)
        self._window_us = window_us

    def record(self, time_us: int, size: int) -> None:
        """Book one frame of ``size`` bytes seen at ``time_us``."""
        self.total_messages += 1
        self.total_bytes += size
        if not self._window_us:
            if not self._spread and time_us != self._latest_us:
                if self._latest_us < 0:
                    self._latest_us = time_us
                else:
                    self._spread = True
            return
        times = self._times
        if times:
            if times[-1] == time_us:
                self._sizes[-1] += size
                return
            self._spread = True
        if time_us < self._latest_us:
            self._late = len(times)
        else:
            self._latest_us = time_us
        times.append(time_us)
        self._sizes.append(size)
        horizon = time_us - self._window_us
        head = self._head
        if times[head] < horizon:
            head += 1
            while times[head] < horizon:
                head += 1
            if head << 1 > len(times):
                del times[:head]
                del self._sizes[:head]
                self._late -= head
                head = 0
            self._head = head

    def bytes_in_window(self, now_us: int, window_us: int) -> int:
        """Bytes observed during the last ``window_us`` of virtual time."""
        if not self._window_us or window_us > self._window_us:
            raise ValueError(
                f"window {window_us} exceeds monitor retention {self._window_us}"
            )
        horizon = now_us - window_us
        times = self._times
        sizes = self._sizes
        head = self._head
        # Walk back from the newest bucket.  Until the walk reaches the
        # newest late bucket, a bucket older than the horizon has only
        # older ones before it.
        late = self._late
        index = len(times) - 1
        stop = late if late >= head else head - 1
        total = 0
        while index > stop:
            if times[index] < horizon:
                return total
            total += sizes[index]
            index -= 1
        for i in range(head, index + 1):
            if times[i] >= horizon:
                total += sizes[i]
        return total

    def utilization(self, now_us: int, window_us: int = UTILIZATION_WINDOW_US) -> float:
        """Fraction of segment bandwidth consumed over the trailing window.

        Returns 0.0 when the model has infinite bandwidth.  Raises
        ``ValueError`` for a window that is not positive, or, on a link
        with finite bandwidth, longer than the monitor retains.
        """
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        if not self._bandwidth_bps:
            return 0.0
        bits = self.bytes_in_window(now_us, window_us) * 8
        capacity_bits = self._bandwidth_bps * window_us / 1_000_000
        return min(bits / capacity_bits, 1.0)

    def check(self) -> list[str]:
        """Window bookkeeping audit.  Returns the problems found.

        A totals-only monitor holds no bucket.  A retained one keeps its
        head inside equal-length columns, at most twice its live buckets
        (plus one), no more live bytes than it ever booked, and every live
        bucket that is not late within the retention of the newest
        booking.
        """
        times, sizes, head = self._times, self._sizes, self._head
        if not self._window_us:
            return ["a totals-only monitor holds buckets"] if times or sizes else []
        problems: list[str] = []
        if len(times) != len(sizes):
            problems.append(f"columns of {len(times)} times and {len(sizes)} sizes")
        if not 0 <= head <= len(times):
            problems.append(f"head {head} outside {len(times)} buckets")
        live = len(times) - head
        if len(times) > 2 * live + 1:
            problems.append(f"{len(times)} buckets held for {live} live")
        if sum(sizes[head:]) > self.total_bytes:
            problems.append("live bytes exceed the bytes ever booked")
        horizon = self._latest_us - self._window_us
        newest_before = -1
        for time_us in times[head:]:
            if time_us >= newest_before:  # not booked behind a newer bucket
                if time_us < horizon:
                    problems.append(
                        f"bucket at {time_us} µs outlived the retention of "
                        f"the booking at {self._latest_us} µs"
                    )
                newest_before = time_us
        return problems


__all__ = ["TrafficMonitor", "UTILIZATION_WINDOW_US"]
