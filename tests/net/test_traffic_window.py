"""`TrafficMonitor`'s coalesced window against the per-sample original.

The monitor keeps its utilization window as parallel time and byte
columns of buckets, merging frames recorded in the same µs.  The
reference below is the monitor it replaced: one sample per frame,
evicted one at a time.  Every
answer, counter and total must agree on random record/query sequences,
including repeated µs, gaps longer than the window, and frames booked at
an earlier time than the newest one (cross-shard frames are recorded at
their send time).
"""

from collections import defaultdict, deque

from hypothesis import given, strategies as st

from repro.net.traffic import PortCounters, TrafficMonitor

RETENTION_US = 1_000


class SampleDequeMonitor:
    """Reference: a deque of one ``(time_us, size)`` sample per frame."""

    def __init__(self, bandwidth_bps, window_us):
        self._bandwidth_bps = bandwidth_bps
        self._window_us = window_us
        self._per_port = defaultdict(PortCounters)
        self._recent = deque()
        self.total_messages = 0
        self.total_bytes = 0

    def record(self, time_us, port, size, transport, multicast):
        counters = self._per_port[port]
        counters.messages += 1
        counters.bytes += size
        counters.last_seen_us = time_us
        if multicast:
            counters.multicast_messages += 1
        self.total_messages += 1
        self.total_bytes += size
        self._recent.append((time_us, size))
        horizon = time_us - self._window_us
        while self._recent and self._recent[0][0] < horizon:
            self._recent.popleft()

    def port(self, port):
        return self._per_port.get(port, PortCounters())

    def ports_seen(self):
        return sorted(p for p, c in self._per_port.items() if c.messages)

    def bytes_in_window(self, now_us, window_us):
        horizon = now_us - window_us
        return sum(size for time_us, size in self._recent if time_us >= horizon)

    def utilization(self, now_us, window_us=1_000_000):
        if not self._bandwidth_bps:
            return 0.0
        bits = self.bytes_in_window(now_us, min(window_us, self._window_us)) * 8
        capacity_bits = self._bandwidth_bps * window_us / 1_000_000
        return min(bits / capacity_bits, 1.0) if capacity_bits else 0.0


STEPS = st.one_of(
    st.just(0),  # same µs as the previous frame
    st.sampled_from([RETENTION_US // 2, RETENTION_US]),  # lands on a horizon
    st.integers(min_value=1, max_value=RETENTION_US // 4),
    st.integers(min_value=RETENTION_US + 1, max_value=3 * RETENTION_US),  # gap
    st.integers(min_value=-RETENTION_US // 2, max_value=-1),  # booked earlier
)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            STEPS,
            st.sampled_from([427, 1900, 4620]),
            st.integers(min_value=0, max_value=1500),
            st.booleans(),
        ),
        st.tuples(
            st.just("window"),
            st.integers(min_value=0, max_value=RETENTION_US),
            st.integers(min_value=1, max_value=RETENTION_US),
        ),
        st.tuples(
            st.just("utilization"),
            st.integers(min_value=0, max_value=RETENTION_US),
            st.integers(min_value=1, max_value=2 * RETENTION_US),
        ),
    ),
    max_size=60,
)


@given(ops=OPS, bandwidth=st.sampled_from([None, 80_000, 10_000_000]))
def test_coalesced_window_answers_like_the_sample_deque(ops, bandwidth):
    monitor = TrafficMonitor(bandwidth, window_us=RETENTION_US)
    reference = SampleDequeMonitor(bandwidth, RETENTION_US)
    newest = 0  # the latest time booked so far; queries look back from it
    clock = 0  # where the next frame's step starts
    for op in ops:
        if op[0] == "record":
            _, step, port, size, multicast = op
            clock = max(0, clock + step)
            newest = max(newest, clock)
            for target in (monitor, reference):
                target.record(clock, port, size, "udp", multicast)
        elif op[0] == "window":
            _, ahead, window = op
            assert monitor.bytes_in_window(newest + ahead, window) == \
                reference.bytes_in_window(newest + ahead, window)
        else:
            _, ahead, window = op
            assert monitor.utilization(newest + ahead, window) == \
                reference.utilization(newest + ahead, window)
    assert monitor.total_messages == reference.total_messages
    assert monitor.total_bytes == reference.total_bytes
    assert monitor.ports_seen() == reference.ports_seen()
    for port in (427, 1900, 4620, 9):
        assert monitor.port(port) == reference.port(port)
    for window in (1, RETENTION_US // 2, RETENTION_US):
        assert monitor.bytes_in_window(newest, window) == \
            reference.bytes_in_window(newest, window)


BOOKINGS = st.lists(
    st.tuples(
        st.integers(min_value=-RETENTION_US, max_value=RETENTION_US // 3),
        st.integers(min_value=1, max_value=1500),
    ),
    max_size=80,
)


@given(
    bookings=BOOKINGS,
    in_order=st.booleans(),
    queries=st.lists(
        st.tuples(
            st.integers(min_value=-RETENTION_US, max_value=2 * RETENTION_US),
            st.integers(min_value=1, max_value=RETENTION_US),
        ),
        min_size=1, max_size=10,
    ),
)
def test_window_sums_only_what_the_reference_sums(bookings, in_order, queries):
    """``bytes_in_window`` walks back from the newest bucket and stops
    early; on monotone and on out-of-order bookings, and for query times
    before, at and after the newest booking, it answers like the
    per-sample reference."""
    monitor = TrafficMonitor(None, window_us=RETENTION_US)
    reference = SampleDequeMonitor(None, RETENTION_US)
    clock = newest = 0
    for step, size in bookings:
        if in_order:
            step = abs(step)
        clock = max(0, clock + step)
        newest = max(newest, clock)
        for target in (monitor, reference):
            target.record(clock, 1900, size, "udp", False)
        for offset, window in queries:
            now = max(0, newest + offset)
            assert monitor.bytes_in_window(now, window) == \
                reference.bytes_in_window(now, window), (clock, now, window)


def test_a_late_booking_behind_an_old_bucket_still_counts():
    monitor = TrafficMonitor(None, window_us=RETENTION_US)
    monitor.record(500, 1900, 7, "udp", False)
    monitor.record(100, 1900, 5, "udp", False)  # booked at its send time
    monitor.record(101, 1900, 3, "udp", False)
    # The two newest buckets are older than the horizon; the first is not.
    assert monitor.bytes_in_window(600, 300) == 7
    assert monitor.bytes_in_window(600, 500) == 15


def test_frames_in_one_microsecond_share_a_bucket():
    monitor = TrafficMonitor(10_000_000, window_us=RETENTION_US)
    for _ in range(5):
        monitor.record(10, 1900, 100, "udp", True)
    monitor.record(11, 1900, 7, "udp", True)
    assert monitor.bytes_in_window(11, 0) == 7
    assert monitor.bytes_in_window(11, 1) == 507
    # The horizon passing 10 µs evicts all five frames booked there at once.
    monitor.record(10 + RETENTION_US + 1, 427, 3, "udp", False)
    assert monitor.bytes_in_window(10 + RETENTION_US + 1, RETENTION_US) == 10
    monitor.record(11 + RETENTION_US + 1, 427, 3, "udp", False)
    assert monitor.bytes_in_window(11 + RETENTION_US + 1, RETENTION_US) == 6
    assert monitor.total_messages == 8 and monitor.total_bytes == 513
    assert monitor.port(1900).multicast_messages == 6


#: One burst of a long run: frames at distinct or repeated µs, some
#: booked earlier than the newest one.
BURST = st.lists(
    st.tuples(
        st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=RETENTION_US // 8),
            st.integers(min_value=-RETENTION_US // 2, max_value=-1),
        ),
        st.integers(min_value=1, max_value=1500),
    ),
    min_size=1, max_size=40,
)


@given(
    bursts=st.lists(
        st.tuples(BURST, st.integers(min_value=RETENTION_US // 2, max_value=3 * RETENTION_US)),
        min_size=6, max_size=12,
    ),
    queries=st.lists(
        st.tuples(
            st.integers(min_value=-RETENTION_US, max_value=RETENTION_US),
            st.integers(min_value=0, max_value=RETENTION_US),
        ),
        min_size=1, max_size=4,
    ),
)
def test_long_runs_across_compactions_answer_like_the_sample_deque(bursts, queries):
    """Runs long enough to cut the dead prefix off the columns many times.

    Each burst ends with a gap of at least half the retention, so the
    next frames evict most or all of the buckets before them and the
    head passes half the columns.  Late buckets are booked inside
    bursts, so some are still live when the columns are cut and others
    arrive right after a cut."""
    monitor = TrafficMonitor(80_000, window_us=RETENTION_US)
    reference = SampleDequeMonitor(80_000, RETENTION_US)
    clock = newest = 0
    for burst, gap in bursts:
        for step, size in burst:
            clock = max(0, clock + step)
            newest = max(newest, clock)
            for target in (monitor, reference):
                target.record(clock, 1900, size, "udp", False)
            for offset, window in queries:
                now = max(0, newest + offset)
                assert monitor.bytes_in_window(now, window) == \
                    reference.bytes_in_window(now, window), (clock, now, window)
        clock = newest + gap
    for window in (1, RETENTION_US // 2, RETENTION_US):
        assert monitor.utilization(newest, window) == reference.utilization(newest, window)
    assert monitor.total_messages == reference.total_messages
    assert monitor.total_bytes == reference.total_bytes
