"""Per-port traffic accounting for the simulated segment.

INDISS's adaptation manager (paper §4.2, Figure 6) switches a passively
deployed instance to active advertisement only "when the network traffic is
low"; this module provides the utilization measurements that decision needs,
plus the per-port counters used by tests and benchmark reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class PortCounters:
    """Cumulative counters for one UDP/TCP port."""

    messages: int = 0
    bytes: int = 0
    multicast_messages: int = 0
    last_seen_us: int = -1


class TrafficMonitor:
    """Counts every message the network delivers or attempts to deliver.

    The monitor keeps cumulative per-port counters forever and a sliding
    window of recent traffic for utilization queries.  ``window_us`` bounds
    how far back :meth:`utilization` can look.

    The window holds coalesced ``[time_us, bytes]`` buckets, not one
    sample per frame: a frame recorded in the same µs as the newest
    bucket adds its bytes there, so a multicast burst costs one bucket.
    Eviction pops buckets from the front exactly where it would have
    popped the samples they merge, so every window query is unchanged.

    A frame may be booked at an earlier time than the latest one booked
    so far (a district crossing books its send time).  Every bucket after
    the newest such *late* bucket is at least as recent as all buckets
    before it, which is what lets :meth:`bytes_in_window` stop early.
    """

    def __init__(self, bandwidth_bps: int | None, window_us: int = 5_000_000):
        self._bandwidth_bps = bandwidth_bps
        self._window_us = window_us
        self._per_port: dict[int, PortCounters] = {}
        self._recent: deque[list[int]] = deque()
        #: Latest time booked so far, and the newest late bucket.
        self._latest_us = -1
        self._late: list[int] | None = None
        self.total_messages = 0
        self.total_bytes = 0

    def record(self, time_us: int, port: int, size: int, transport: str, multicast: bool) -> None:
        counters = self._per_port.get(port)
        if counters is None:
            counters = self._per_port[port] = PortCounters()
        counters.messages += 1
        counters.bytes += size
        counters.last_seen_us = time_us
        if multicast:
            counters.multicast_messages += 1
        self.total_messages += 1
        self.total_bytes += size
        recent = self._recent
        if recent and recent[-1][0] == time_us:
            recent[-1][1] += size
            return
        bucket = [time_us, size]
        recent.append(bucket)
        if time_us < self._latest_us:
            self._late = bucket
        else:
            self._latest_us = time_us
        horizon = time_us - self._window_us
        while recent[0][0] < horizon:
            recent.popleft()

    def port(self, port: int) -> PortCounters:
        """Counters for ``port`` (zeros if never seen)."""
        return self._per_port.get(port, PortCounters())

    def ports_seen(self) -> list[int]:
        return sorted(p for p, c in self._per_port.items() if c.messages)

    def bytes_in_window(self, now_us: int, window_us: int) -> int:
        """Bytes observed during the last ``window_us`` of virtual time."""
        if window_us > self._window_us:
            raise ValueError(
                f"window {window_us} exceeds monitor retention {self._window_us}"
            )
        horizon = now_us - window_us
        total = 0
        # Walk back from the newest bucket.  Until the walk reaches the
        # newest late bucket, a bucket older than the horizon has only
        # older ones before it.
        late = self._late
        may_stop = True
        for bucket in reversed(self._recent):
            if bucket is late:
                may_stop = False
            if bucket[0] >= horizon:
                total += bucket[1]
            elif may_stop:
                break
        return total

    def utilization(self, now_us: int, window_us: int = 1_000_000) -> float:
        """Fraction of segment bandwidth consumed over the trailing window.

        Returns 0.0 when the model has infinite bandwidth.
        """
        if not self._bandwidth_bps:
            return 0.0
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        bits = self.bytes_in_window(now_us, min(window_us, self._window_us)) * 8
        capacity_bits = self._bandwidth_bps * window_us / 1_000_000
        return min(bits / capacity_bits, 1.0) if capacity_bits else 0.0


__all__ = ["TrafficMonitor", "PortCounters"]
