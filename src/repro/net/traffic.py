"""Traffic accounting for the simulated network and each segment.

INDISS's adaptation manager (paper §4.2, Figure 6) switches a passively
deployed instance to active advertisement only "when the network traffic is
low"; this module provides the utilization measurements that decision needs,
plus the frame and byte totals the flight recorder and the benchmark ledger
report.  Who sent a frame to which port is the capture trace's business
(``Network(capture=True)``), not the monitor's.
"""

from __future__ import annotations


class TrafficMonitor:
    """Counts every message the network delivers or attempts to deliver.

    The monitor keeps two cumulative totals, ``total_messages`` and
    ``total_bytes``, and a sliding window of recent traffic for
    utilization queries.  ``window_us`` bounds how far back
    :meth:`utilization` can look.

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

    def __init__(self, bandwidth_bps: int | None, window_us: int = 5_000_000):
        self._bandwidth_bps = bandwidth_bps
        self._window_us = window_us
        #: Bucket columns; the live window is ``[_head, len)``.
        self._times: list[int] = []
        self._sizes: list[int] = []
        self._head = 0
        #: Latest time booked so far, and the column index of the newest
        #: late bucket (below ``_head`` once evicted, or when none exists).
        self._latest_us = -1
        self._late = -1
        self.total_messages = 0
        self.total_bytes = 0

    def record(self, time_us: int, size: int) -> None:
        """Book one frame of ``size`` bytes seen at ``time_us``."""
        self.total_messages += 1
        self.total_bytes += size
        times = self._times
        if times and times[-1] == time_us:
            self._sizes[-1] += size
            return
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
        if window_us > self._window_us:
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

    def utilization(self, now_us: int, window_us: int = 1_000_000) -> float:
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


__all__ = ["TrafficMonitor"]
