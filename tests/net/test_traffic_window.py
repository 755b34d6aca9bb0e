"""`TrafficMonitor`'s coalesced window against the per-sample original.

The monitor keeps its utilization window as parallel time and byte
columns of buckets, merging frames recorded in the same µs.  The
reference below is the monitor it replaced: one sample per frame,
evicted one at a time.  Every
answer and total must agree on random record/query sequences,
including repeated µs, gaps longer than the window, and frames booked at
an earlier time than the newest one (cross-shard frames are recorded at
their send time).
"""

from collections import deque

from hypothesis import given, strategies as st

from repro.net.traffic import TrafficMonitor

RETENTION_US = 1_000


class SampleDequeMonitor:
    """Reference: a deque of one ``(time_us, size)`` sample per frame."""

    def __init__(self, bandwidth_bps, window_us):
        self._bandwidth_bps = bandwidth_bps
        self._window_us = window_us
        self._recent = deque()
        self.total_messages = 0
        self.total_bytes = 0

    def record(self, time_us, size):
        self.total_messages += 1
        self.total_bytes += size
        self._recent.append((time_us, size))
        horizon = time_us - self._window_us
        while self._recent and self._recent[0][0] < horizon:
            self._recent.popleft()

    def bytes_in_window(self, now_us, window_us):
        horizon = now_us - window_us
        return sum(size for time_us, size in self._recent if time_us >= horizon)

    def utilization(self, now_us, window_us=1_000_000):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        if not self._bandwidth_bps:
            return 0.0
        if window_us > self._window_us:
            raise ValueError("window exceeds retention")
        bits = self.bytes_in_window(now_us, window_us) * 8
        return min(bits / (self._bandwidth_bps * window_us / 1_000_000), 1.0)


def answer(query, *args):
    """``query(*args)``, or ``ValueError`` if the query rejects its window."""
    try:
        return query(*args)
    except ValueError:
        return ValueError


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
            st.integers(min_value=0, max_value=1500),
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
            _, step, size = op
            clock = max(0, clock + step)
            newest = max(newest, clock)
            for target in (monitor, reference):
                target.record(clock, size)
        elif op[0] == "window":
            _, ahead, window = op
            assert monitor.bytes_in_window(newest + ahead, window) == \
                reference.bytes_in_window(newest + ahead, window)
        else:
            _, ahead, window = op
            assert answer(monitor.utilization, newest + ahead, window) == \
                answer(reference.utilization, newest + ahead, window)
    assert monitor.total_messages == reference.total_messages
    assert monitor.total_bytes == reference.total_bytes
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
            target.record(clock, size)
        for offset, window in queries:
            now = max(0, newest + offset)
            assert monitor.bytes_in_window(now, window) == \
                reference.bytes_in_window(now, window), (clock, now, window)


def test_a_late_booking_behind_an_old_bucket_still_counts():
    monitor = TrafficMonitor(None, window_us=RETENTION_US)
    monitor.record(500, 7)
    monitor.record(100, 5)  # booked at its send time
    monitor.record(101, 3)
    # The two newest buckets are older than the horizon; the first is not.
    assert monitor.bytes_in_window(600, 300) == 7
    assert monitor.bytes_in_window(600, 500) == 15


def test_frames_in_one_microsecond_share_a_bucket():
    monitor = TrafficMonitor(10_000_000, window_us=RETENTION_US)
    for _ in range(5):
        monitor.record(10, 100)
    monitor.record(11, 7)
    assert monitor.bytes_in_window(11, 0) == 7
    assert monitor.bytes_in_window(11, 1) == 507
    # The horizon passing 10 µs evicts all five frames booked there at once.
    monitor.record(10 + RETENTION_US + 1, 3)
    assert monitor.bytes_in_window(10 + RETENTION_US + 1, RETENTION_US) == 10
    monitor.record(11 + RETENTION_US + 1, 3)
    assert monitor.bytes_in_window(11 + RETENTION_US + 1, RETENTION_US) == 6
    assert monitor.total_messages == 8 and monitor.total_bytes == 513


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
                target.record(clock, size)
            for offset, window in queries:
                now = max(0, newest + offset)
                assert monitor.bytes_in_window(now, window) == \
                    reference.bytes_in_window(now, window), (clock, now, window)
        clock = newest + gap
    for window in (1, RETENTION_US // 2, RETENTION_US):
        assert monitor.utilization(newest, window) == reference.utilization(newest, window)
    assert monitor.total_messages == reference.total_messages
    assert monitor.total_bytes == reference.total_bytes
