"""Secondary index over :class:`~repro.core.cache.ServiceCache`.

The cache itself is a flat ``(type, url) -> entry`` dict — perfect for
the translation pipeline's "first live record of this type" probe, linear
for what the serving tier wants to answer: by URL and by type prefix.
``CacheIndex`` maintains those two inverted maps **incrementally**: the
cache notifies it from every mutation path (store, merge, byebye removal,
remote tombstone, TTL eviction — see ``ServiceCache.attach_index``), so a
read never rescans the entry set and never sees a key the cache already
dropped.

Reads go through :meth:`snapshot`, which stamps the answer with the cache
``version`` it was computed against; the sorted type table behind prefix
queries is rebuilt lazily and reused while the version stands still,
which is what makes reads O(1) amortized even under churn.

The index survives :meth:`Indiss.restart` cache replacement via
:meth:`rebind` — the frontend re-reads ``indiss.cache`` at use time and
rebinds when the object changed.

The index also holds each live key's reply wire form
(:meth:`fragment`), so a record is JSON-encoded once per record object
rather than once per query that returns it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..core.cache import CacheEntry, ServiceCache
from ..sdp.base import ServiceRecord
from .wire import RecordFragment, record_fragment

Key = tuple[str, str]


class IndexSnapshot:
    """A version-stamped read view over the index's inverted maps.

    The maps are shared with the live index (no copy): the stamp, not
    isolation, is the contract.  Consumers compare ``version`` against
    the cache's to detect movement; the frontend takes a fresh snapshot
    per query, which is a constant-time operation.
    """

    __slots__ = ("version", "_index")

    def __init__(self, version: int, index: "CacheIndex"):
        self.version = version
        self._index = index

    def by_url(self, url: str) -> list[CacheEntry]:
        return [e for e in self._index._by_url.get(url, {}).values()]

    def by_type(self, normalized_type: str) -> list[CacheEntry]:
        return [e for e in self._index._by_type.get(normalized_type, {}).values()]

    def by_type_prefix(self, prefix: str) -> list[CacheEntry]:
        """All entries whose normalized type starts with ``prefix``, via a
        bisect over the lazily maintained sorted type table."""
        table = self._index._sorted_types()
        found: list[CacheEntry] = []
        start = bisect_left(table, prefix)
        for i in range(start, len(table)):
            name = table[i]
            if not name.startswith(prefix):
                break
            found.extend(self._index._by_type[name].values())
        return found

    def types(self) -> list[str]:
        return self._index._sorted_types()


class CacheIndex:
    """Incrementally maintained inverted maps over one ``ServiceCache``."""

    def __init__(self, cache: ServiceCache):
        self._cache: Optional[ServiceCache] = None
        self._by_url: dict[str, dict[Key, CacheEntry]] = {}
        self._by_type: dict[str, dict[Key, CacheEntry]] = {}
        #: Sorted type names, rebuilt lazily when the type set moved.
        self._type_table: Optional[list[str]] = None
        #: key -> wire fragment of the record last served under it.
        self._fragments: dict[Key, RecordFragment] = {}
        self.rebuilds = 0
        self.rebind(cache)

    # -- lifecycle -----------------------------------------------------------

    def rebind(self, cache: ServiceCache) -> None:
        """Attach to ``cache``, detaching from any previous one, and
        rebuild from its live entries (crash/restart replaces the cache
        object wholesale — the index follows the new one)."""
        if cache is self._cache:
            return
        if self._cache is not None:
            self._cache.detach_index(self)
            # Only genuine replacements count: the constructor's first
            # bind is not a "rebuild".
            self.rebuilds += 1
        self._cache = cache
        self._by_url.clear()
        self._by_type.clear()
        self._type_table = None
        self._fragments.clear()
        cache.attach_index(self)
        for key, entry in cache.live_entries():
            self.on_store(key, entry)

    @property
    def cache(self) -> ServiceCache:
        assert self._cache is not None
        return self._cache

    # -- mutation hooks (called by ServiceCache) -----------------------------

    def on_store(self, key: Key, entry: CacheEntry) -> None:
        self.on_remove(key)
        self._by_url.setdefault(key[1], {})[key] = entry
        bucket = self._by_type.get(key[0])
        if bucket is None:
            self._by_type[key[0]] = {key: entry}
            self._type_table = None  # new type name: sorted table is stale
        else:
            bucket[key] = entry

    def on_remove(self, key: Key) -> None:
        types = self._by_type.get(key[0])
        if types is None or types.pop(key, None) is None:
            return
        if not types:
            del self._by_type[key[0]]
            self._type_table = None
        urls = self._by_url[key[1]]
        del urls[key]
        if not urls:
            del self._by_url[key[1]]
        self._fragments.pop(key, None)

    # -- reads ---------------------------------------------------------------

    def snapshot(self, evict: bool = True) -> IndexSnapshot:
        """Version-stamped read view; ``evict`` sweeps the cache's TTLs
        first so lazily expired entries never leak into an answer."""
        if evict:
            self.cache.evict_expired()
        return IndexSnapshot(self.cache.version, self)

    def fragment(self, record: ServiceRecord) -> RecordFragment:
        """The wire fragment of an indexed ``record``, built on first use
        and rebuilt once the record under its key is another object."""
        key = (record.service_type, record.url)
        cached = self._fragments.get(key)
        if cached is None or cached.record is not record:
            cached = self._fragments[key] = record_fragment(record)
        return cached

    def _sorted_types(self) -> list[str]:
        if self._type_table is None:
            self._type_table = sorted(self._by_type)
        return self._type_table

    def check(self) -> list[str]:
        """Invariant audit against the authoritative per-type dict; the
        coherence tests call this after every interleaving.  Includes the
        cache's own bookkeeping audit (:meth:`ServiceCache.check`)."""
        problems: list[str] = []
        truth = dict(self.cache.live_entries())
        problems.extend(self.cache.check())
        indexed = {
            key for bucket in self._by_type.values() for key in bucket
        }
        for key in truth:
            if key not in indexed:
                problems.append(f"missing from index: {key!r}")
            if key not in self._by_url.get(key[1], {}):
                problems.append(f"missing from url map: {key!r}")
        for key in indexed - set(truth):
            problems.append(f"stale in index: {key!r}")
        for key in self._fragments:
            if key not in truth:
                problems.append(f"stale in fragment map: {key!r}")
        return problems


def staleness_us(entry: CacheEntry, now_us: int) -> int:
    """µs since the record's *implied observation* at its origin.

    A merged record's absolute expiry encodes when the originating cache
    last saw the service (``expiry - lifetime``); a locally stored record's
    implied observation is its store time.  ``now - implied`` therefore
    grows exactly with gossip lag while a partition starves refreshes, and
    collapses once a fresher expiry is gossiped in — the honesty property
    the staleness tests pin.
    """
    implied = entry.expires_at_us - entry.record.lifetime_s * 1_000_000
    return max(0, int(now_us - implied))


__all__ = ["CacheIndex", "IndexSnapshot", "staleness_us"]
