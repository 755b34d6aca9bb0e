"""`ServiceCache`'s upkeep bookkeeping against a naive full-scan reference.

The cache keeps an expiry watermark (so a sweep with nothing due is O(1))
and a location -> keys map (so a re-NOTIFY refreshes only its device's
entries).  Neither may change what the cache does: random operation
sequences run against both the cache and :class:`NaiveCache`, a
full-scan implementation of the same contract, and after every operation
the return value, ``version``, entries, tombstones and the index
notifications must agree, and :meth:`ServiceCache.check` must be clean.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import ServiceCache
from repro.sdp.base import ServiceRecord, normalize_service_type

SECOND = 1_000_000
TOMBSTONE_TTL_S = 3


class Clock:
    def __init__(self):
        self.now_us = 0

    def __call__(self):
        return self.now_us


class NaiveCache:
    """Every sweep and refresh scans everything; no bookkeeping at all."""

    def __init__(self, clock, tombstone_ttl_s):
        self._clock = clock
        self.tombstone_ttl_s = tombstone_ttl_s
        self.entries = {}  # key -> [record, stored_at_us, expires_at_us]
        self.tombstones = {}  # key -> (deleted_at_us, expires_at_us)
        self.version = 0
        self.log = []

    def _evict(self):
        now = self._clock()
        expired = [k for k, e in self.entries.items() if e[2] <= now]
        for key in expired:
            del self.entries[key]
            self.log.append(("remove", key))
        dead = [k for k, (_, expires) in self.tombstones.items() if expires <= now]
        for key in dead:
            del self.tombstones[key]
        if expired or dead:
            self.version += 1

    def _put(self, record, expires):
        key = (record.service_type, record.url)
        self.entries[key] = [record, self._clock(), expires]
        self.log.append(("store", key, record, expires))
        self.version += 1

    def store(self, record):
        self.tombstones.pop((record.service_type, record.url), None)
        self._put(record, self._clock() + record.lifetime_s * SECOND)

    def merge(self, record, expires_at_us):
        now = self._clock()
        if expires_at_us <= now:
            return False
        key = (record.service_type, record.url)
        tombstone = self.tombstones.get(key)
        if tombstone is not None and tombstone[1] > now:
            if expires_at_us - record.lifetime_s * SECOND <= tombstone[0]:
                return False
        existing = self.entries.get(key)
        if existing is not None and existing[2] >= expires_at_us:
            return False
        self.tombstones.pop(key, None)
        self._put(record, expires_at_us)
        return True

    def refresh_location(self, location):
        if not location:
            return 0
        self._evict()
        now = self._clock()
        refreshed = 0
        for entry in self.entries.values():
            if entry[0].location == location:
                entry[1] = now
                entry[2] = now + entry[0].lifetime_s * SECOND
                refreshed += 1
        if refreshed:
            self.version += 1
        return refreshed

    def _remove_keys(self, keys):
        if not keys:
            return 0
        now = self._clock()
        for key in keys:
            del self.entries[key]
            self.tombstones[key] = (now, now + self.tombstone_ttl_s * SECOND)
            self.log.append(("remove", key))
        self.version += 1
        return len(keys)

    def remove_url(self, url):
        self._evict()
        return self._remove_keys([k for k in self.entries if k[1] == url])

    def remove_type(self, service_type, source_sdp=""):
        self._evict()
        wanted = normalize_service_type(service_type)
        return self._remove_keys([
            k for k, e in self.entries.items()
            if e[0].service_type == wanted
            and (not source_sdp or e[0].source_sdp == source_sdp)
        ])

    def apply_tombstone(self, key, deleted_at_us, expires_at_us):
        if expires_at_us <= self._clock():
            return False
        existing = self.tombstones.get(key)
        if existing is not None and existing[1] >= expires_at_us:
            return False
        self.tombstones[key] = (deleted_at_us, expires_at_us)
        entry = self.entries.get(key)
        if entry is not None and entry[1] <= deleted_at_us:
            del self.entries[key]
            self.log.append(("remove", key))
        self.version += 1
        return True

    def lookup(self, service_type):
        self._evict()
        wanted = normalize_service_type(service_type)
        return [e[0] for e in self.entries.values() if e[0].service_type == wanted]

    def evict_expired(self):
        self._evict()


class Recorder:
    """A secondary index that only logs its notifications."""

    def __init__(self):
        self.log = []

    def on_store(self, key, entry):
        self.log.append(("store", key, entry.record, entry.expires_at_us))

    def on_remove(self, key):
        self.log.append(("remove", key))


TYPES = ("clock", "printer")
URLS = ("http://10.0.0.1/a", "http://10.0.0.2/b", "http://10.0.0.3/c")
LOCATIONS = ("", "http://10.0.0.1:80/d.xml", "http://10.0.0.2:80/d.xml")

records = st.builds(
    ServiceRecord,
    service_type=st.sampled_from(TYPES),
    url=st.sampled_from(URLS),
    lifetime_s=st.sampled_from((1, 2, 5)),
    source_sdp=st.sampled_from(("slp", "upnp")),
    location=st.sampled_from(LOCATIONS),
)
keys = st.tuples(st.sampled_from(TYPES), st.sampled_from(URLS))
quarter_seconds = st.integers(min_value=-8, max_value=24).map(lambda q: q * SECOND // 4)

operations = st.one_of(
    st.tuples(st.just("store"), records),
    st.tuples(st.just("merge"), records, quarter_seconds),
    st.tuples(st.just("remove_url"), st.sampled_from(URLS)),
    st.tuples(st.just("remove_type"), st.sampled_from(TYPES), st.sampled_from(("", "slp"))),
    st.tuples(st.just("apply_tombstone"), keys, quarter_seconds, quarter_seconds),
    st.tuples(st.just("refresh_location"), st.sampled_from(LOCATIONS)),
    st.tuples(st.just("lookup"), st.sampled_from(TYPES)),
    st.tuples(st.just("evict_expired")),
    st.tuples(st.just("advance"), st.integers(min_value=0, max_value=12)),
)


def apply(target, clock, op):
    name, args = op[0], op[1:]
    now = clock.now_us
    if name == "advance":
        clock.now_us += args[0] * SECOND // 4
        return None
    if name == "merge":
        record, offset = args
        return target.merge(record, now + offset)
    if name == "apply_tombstone":
        key, deleted, expires = args
        return target.apply_tombstone(key, now + deleted, now + abs(expires))
    return getattr(target, name)(*args)


def state_of(cache):
    return (
        cache.version,
        {k: [e.record, e.stored_at_us, e.expires_at_us] for k, e in cache._entries.items()},
        dict(cache._tombstones),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60))
# A refresh moves a merged record's later absolute expiry earlier, below a
# watermark the preceding sweep had just raised.
@example([
    ("store", ServiceRecord("clock", URLS[0], lifetime_s=1)),
    ("advance", 4),
    ("merge", ServiceRecord("clock", URLS[0], lifetime_s=1, location=LOCATIONS[1]),
     5 * SECOND // 4),
    ("refresh_location", LOCATIONS[1]),
    ("advance", 4),
    ("evict_expired",),
])
def test_cache_matches_the_full_scan_reference(ops):
    clock = Clock()
    cache = ServiceCache(clock, tombstone_ttl_s=TOMBSTONE_TTL_S)
    recorder = Recorder()
    cache.attach_index(recorder)
    naive = NaiveCache(clock, TOMBSTONE_TTL_S)
    for op in ops:
        before = clock.now_us
        got = apply(cache, clock, op)
        clock.now_us = before
        want = apply(naive, clock, op)
        assert got == want, op
        assert state_of(cache) == (naive.version, naive.entries, naive.tombstones), op
        assert recorder.log == naive.log, op
        assert cache.check() == [], op


def test_sweep_is_skipped_while_nothing_is_due():
    clock = Clock()
    cache = ServiceCache(clock)
    cache.store(ServiceRecord("clock", URLS[0], lifetime_s=10))
    cache._entries.clear()  # a full sweep would now have nothing to scan
    clock.now_us = 9 * SECOND
    cache.evict_expired()
    assert cache._watermark == 10 * SECOND, "below the watermark: no sweep"
    clock.now_us = 10 * SECOND
    cache.evict_expired()
    assert cache._watermark == float("inf"), "sweep recomputed the watermark"


def test_check_reports_broken_bookkeeping():
    clock = Clock()
    cache = ServiceCache(clock)
    cache.store(ServiceRecord("clock", URLS[0], lifetime_s=10, location=LOCATIONS[1]))
    assert cache.check() == []
    cache._watermark = 11 * SECOND
    cache._by_location.clear()
    problems = cache.check()
    assert any("watermark" in p for p in problems)
    assert any("location map" in p for p in problems)


# -- the type index ----------------------------------------------------------

MANY_TYPES = ("clock", "printer", "urn:schemas-upnp-org:device:clock:1", "service:printer:lpr")
MANY_URLS = tuple(f"http://10.0.0.{i}/s" for i in range(1, 7))
typed_records = st.builds(
    ServiceRecord,
    service_type=st.sampled_from(MANY_TYPES).map(normalize_service_type),
    url=st.sampled_from(MANY_URLS),
    lifetime_s=st.sampled_from((1, 2, 5)),
    location=st.sampled_from(LOCATIONS),
)
typed_operations = st.one_of(
    st.tuples(st.just("store"), typed_records),
    st.tuples(st.just("merge"), typed_records, quarter_seconds),
    st.tuples(st.just("remove_url"), st.sampled_from(MANY_URLS)),
    st.tuples(st.just("remove_type"), st.sampled_from(MANY_TYPES), st.just("")),
    st.tuples(st.just("refresh_location"), st.sampled_from(LOCATIONS)),
    st.tuples(st.just("advance"), st.integers(min_value=0, max_value=12)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(typed_operations, max_size=50))
def test_lookup_answers_in_full_scan_order(ops):
    """After every operation, ``lookup`` of every type (raw or normalized
    spelling) returns the full scan's records in the full scan's order."""
    clock = Clock()
    cache = ServiceCache(clock, tombstone_ttl_s=TOMBSTONE_TTL_S)
    naive = NaiveCache(clock, TOMBSTONE_TTL_S)
    for op in ops:
        before = clock.now_us
        apply(cache, clock, op)
        clock.now_us = before
        apply(naive, clock, op)
        for service_type in MANY_TYPES + ("absent",):
            got = cache.lookup(service_type)
            want = naive.lookup(service_type)
            assert [(r.service_type, r.url) for r in got] == \
                [(r.service_type, r.url) for r in want], (op, service_type)
            assert got == want
        assert cache.check() == [], op


def test_check_reports_a_broken_type_index():
    clock = Clock()
    cache = ServiceCache(clock)
    cache.store(ServiceRecord("clock", URLS[0], lifetime_s=10))
    cache.store(ServiceRecord("clock", URLS[1], lifetime_s=10))
    assert cache.check() == []
    keys = cache._by_type["clock"]
    first = next(iter(keys))
    keys[first] = keys.pop(first)  # same keys, wrong order
    assert any("type index" in p for p in cache.check())
