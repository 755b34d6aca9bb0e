"""`ServiceCache` version/eviction bookkeeping and the serving tier's
secondary index, pinned through every mutation path.

The satellite contract: TTL evictions and tombstone purges bump
``version`` exactly once per sweep, and no interleaving of ``store`` /
``merge`` / byebye removal / remote tombstone / eviction may leave a
stale entry in an attached :class:`~repro.serving.index.CacheIndex`
(``check()`` stays clean throughout).
"""

import json

import pytest

from repro.core.cache import ServiceCache
from repro.sdp.base import ServiceRecord
from repro.serving import wire
from repro.serving.index import CacheIndex, staleness_us


class Clock:
    def __init__(self):
        self.now_us = 0

    def __call__(self):
        return self.now_us


def rec(service_type="clock", url="http://10.0.0.1/clock", lifetime_s=10,
        attributes=None, location=""):
    return ServiceRecord(
        service_type=service_type,
        url=url,
        attributes=attributes or {},
        lifetime_s=lifetime_s,
        source_sdp="slp",
        location=location,
    )


@pytest.fixture()
def cache():
    clock = Clock()
    cache = ServiceCache(clock, tombstone_ttl_s=5)
    cache.clock = clock  # test handle
    return cache


@pytest.fixture()
def indexed(cache):
    return cache, CacheIndex(cache)


# -- version bookkeeping -----------------------------------------------------------


class TestVersionBookkeeping:
    def test_eviction_sweep_bumps_version_exactly_once(self, cache):
        for i in range(4):
            cache.store(rec(url=f"http://10.0.0.{i}/svc", lifetime_s=10))
        before = cache.version
        cache.clock.now_us = 11_000_000  # all four expired together
        cache.evict_expired()
        assert len(cache.digest()) == 0
        assert cache.version == before + 1

    def test_eviction_is_idempotent_on_version(self, cache):
        cache.store(rec())
        cache.clock.now_us = 11_000_000
        cache.evict_expired()
        settled = cache.version
        cache.evict_expired()
        cache.evict_expired()
        assert cache.version == settled

    def test_entries_and_tombstones_expiring_together_bump_once(self, cache):
        cache.store(rec(url="http://10.0.0.1/a"))
        cache.remove_url("http://10.0.0.1/a")  # plants a 5s tombstone
        cache.store(rec(url="http://10.0.0.2/b", lifetime_s=4))
        before = cache.version
        cache.clock.now_us = 6_000_000  # tombstone and entry both dead
        cache.evict_expired()
        assert cache.version == before + 1
        assert not cache.tombstones()

    def test_remove_url_sweeps_expired_without_tombstoning(self, cache):
        cache.store(rec(url="http://10.0.0.1/a", lifetime_s=2))
        cache.clock.now_us = 3_000_000
        assert cache.remove_url("http://10.0.0.1/a") == 0
        # The entry died of TTL, not retraction: no resurrection protection.
        assert not cache.tombstones()

    def test_noop_mutations_leave_version_alone(self, cache):
        cache.store(rec())
        version = cache.version
        # Stale merge copy: refused, no bump.
        assert not cache.merge(rec(), expires_at_us=5_000_000)
        # Expired merge copy: refused, no bump.
        assert not cache.merge(rec(url="http://other"), expires_at_us=0)
        assert cache.version == version

    def test_refresh_location_bumps_once_for_all_entries(self, cache):
        loc = "http://10.0.0.9:4004/description.xml"
        cache.store(rec(service_type="a", url="u1", location=loc))
        cache.store(rec(service_type="b", url="u2", location=loc))
        cache.clock.now_us = 4_000_000
        before = cache.version
        assert cache.refresh_location(loc) == 2
        assert cache.version == before + 1
        for _, entry in cache.live_entries():
            assert entry.expires_at_us == 4_000_000 + 10 * 1_000_000
        assert cache.refresh_location("http://nowhere") == 0


# -- secondary index maintenance ---------------------------------------------------


class TestCacheIndex:
    def test_store_merge_evict_interleavings_stay_clean(self, indexed):
        cache, index = indexed
        cache.store(rec(service_type="clock", url="u1",
                        attributes={"room": "lab"}))
        cache.store(rec(service_type="clock", url="u2", lifetime_s=2))
        cache.store(rec(service_type="printer", url="u3"))
        assert index.check() == []

        # Merge-replace u1 with a fresher copy carrying different attrs:
        # the URL lookup must serve the merged record.
        assert cache.merge(
            rec(service_type="clock", url="u1", attributes={"room": "hall"}),
            expires_at_us=int(20e6),
        )
        assert index.check() == []
        snap = index.snapshot()
        assert [e.record.attributes for e in snap.by_url("u1")] == [{"room": "hall"}]

        # u2 expires mid-merge-train; the sweep happens lazily on the next
        # read path and the index must follow it out.
        cache.clock.now_us = 3_000_000
        assert cache.merge(
            rec(service_type="printer", url="u4"), expires_at_us=int(30e6)
        )
        snap = index.snapshot()
        assert [k[1] for k in sorted(e.record.url for e in snap.by_type("clock"))] \
            or True
        assert {e.record.url for e in snap.by_type("clock")} == {"u1"}
        assert index.check() == []

    def test_removal_paths_clear_index(self, indexed):
        cache, index = indexed
        cache.store(rec(service_type="clock", url="u1"))
        cache.store(rec(service_type="clock", url="u2"))
        cache.remove_url("u1")
        assert index.check() == []
        assert cache.apply_tombstone(("clock", "u2"), deleted_at_us=1,
                                     expires_at_us=int(9e6))
        assert index.check() == []
        assert index.snapshot().by_type("clock") == []
        assert index.snapshot().by_url("u2") == []

    def test_prefix_and_url_lookups(self, indexed):
        cache, index = indexed
        cache.store(rec(service_type="clock", url="u1"))
        cache.store(rec(service_type="clock2", url="u2"))
        cache.store(rec(service_type="printer", url="u3"))
        snap = index.snapshot()
        assert {e.record.service_type for e in snap.by_type_prefix("clock")} == \
            {"clock", "clock2"}
        assert snap.types() == ["clock", "clock2", "printer"]
        assert [e.record.url for e in snap.by_url("u3")] == ["u3"]
        assert sum(len(snap.by_type(t)) for t in snap.types()) == 3

    def test_rebind_follows_cache_replacement(self, cache):
        index = CacheIndex(cache)
        cache.store(rec(service_type="clock", url="u1"))
        fresh = ServiceCache(cache._clock)
        fresh.store(rec(service_type="printer", url="u9"))
        index.rebind(fresh)
        assert index.cache is fresh
        assert index.check() == []
        snap = index.snapshot()
        assert snap.by_type("clock") == []
        assert len(snap.by_type("printer")) == 1
        assert index.rebuilds == 1
        # Old cache no longer notifies this index.
        cache.store(rec(service_type="clock", url="u2"))
        assert index.check() == []

    def test_fragments_follow_the_record_under_each_key(self, indexed):
        cache, index = indexed
        cache.store(rec(service_type="clock", url="u1", attributes={"room": "a"}))
        (entry,) = index.snapshot().by_type("clock")
        first = index.fragment(entry.record)
        assert index.fragment(entry.record) is first  # encoded once
        assert first.to_wire(7) == wire.record_to_wire(entry.record, 7)
        # A re-announcement with new content replaces the record object:
        # the identity check re-encodes instead of serving the old bytes.
        cache.store(rec(service_type="clock", url="u1", attributes={"room": "b"}))
        (entry,) = index.snapshot().by_type("clock")
        assert index.fragment(entry.record).render(7) == \
            json.dumps(wire.record_to_wire(entry.record, 7), sort_keys=True)
        assert '"room": "b"' in index.fragment(entry.record).pre
        # The check is by identity, not by the index's own notifications.
        twin = rec(service_type="clock", url="u1", attributes={"room": "c"})
        assert index.fragment(twin).record is twin
        # Dropping the key drops its fragment.
        cache.remove_url("u1")
        assert index._fragments == {}
        assert index.check() == []

    def test_detach_on_close_stops_notifications(self, indexed):
        cache, index = indexed
        cache.detach_index(index)
        cache.store(rec(service_type="clock", url="u1"))
        assert index.snapshot().by_type("clock") == []


# -- staleness math ----------------------------------------------------------------


def test_staleness_is_now_minus_implied_observation(cache):
    cache.store(rec(lifetime_s=10))
    ((_, entry),) = cache.live_entries()
    assert staleness_us(entry, 0) == 0
    assert staleness_us(entry, 4_000_000) == 4_000_000
    # A merge adopting a fresher expiry collapses the stamp.
    assert cache.merge(rec(lifetime_s=10), expires_at_us=int(13e6))
    ((_, entry),) = cache.live_entries()
    assert staleness_us(entry, 4_000_000) == 1_000_000
    # Clamped at zero for records observed "in the future" of the reader.
    assert staleness_us(entry, 2_000_000) == 0
