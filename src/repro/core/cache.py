"""INDISS's cross-SDP service cache.

Composers and the adaptation layer need to remember services learnt from
any protocol: passively observed advertisements, and the results of earlier
translation sessions (the unit FSMs "record events data from previous
states", paper §2.3 — this cache is the system-level counterpart).  Entries
carry the advertised TTL and expire in virtual time.

The cache is what makes the paper's best case (Fig. 9b, 0.12 ms) possible:
a warm INDISS instance answers a local M-SEARCH for an SLP-hosted service
without any network round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..sdp.base import ServiceRecord, normalize_service_type


@dataclass
class CacheEntry:
    record: ServiceRecord
    stored_at_us: int
    expires_at_us: float


class ServiceCache:
    """TTL'd store of normalized service records, keyed by (type, url).

    Removals plant short-lived **tombstones** (``tombstone_ttl_s``): while
    a tombstone is live, :meth:`merge` refuses to re-adopt the key from a
    federation peer, so a byebye retraction cannot be re-learnt from a
    stale gossip partner before the retraction has propagated.  A local
    :meth:`store` — the authoritative path a re-announcing service takes —
    clears the tombstone immediately.

    Three pieces of bookkeeping keep upkeep off the hot paths: an
    **expiry watermark**, a lower bound on every entry and tombstone
    expiry, so a sweep with nothing due is O(1); a **location map**
    (description location -> keys), so :meth:`refresh_location` touches
    only that device's entries; and a **type index** (service type ->
    keys, in entry order), so :meth:`lookup` costs O(matches), not
    O(entries).  :meth:`check` audits all three.
    """

    def __init__(self, clock: Callable[[], int], tombstone_ttl_s: int = 15):
        self._clock = clock
        self._entries: dict[tuple[str, str], CacheEntry] = {}
        self.tombstone_ttl_s = tombstone_ttl_s
        #: key -> (deleted_at_us, tombstone_expires_at_us); see the
        #: class docstring.  Gossip digests and deltas carry these.
        self._tombstones: dict[tuple[str, str], tuple[int, float]] = {}
        #: Lower bound on every entry and tombstone expiry: :meth:`_evict`
        #: has nothing to drop while the clock is below it.  Every write of
        #: an expiry lowers it when needed; only a full sweep raises it
        #: (removals leave a valid, if loose, bound).
        self._watermark = math.inf
        #: record.location -> keys of the entries resolved from it (dicts
        #: used as insertion-ordered sets).
        self._by_location: dict[str, dict[tuple[str, str], None]] = {}
        #: service type -> keys of that type.  A key's type is its
        #: record's, and both dicts keep a replaced key in place and
        #: append a new one, so each type's keys are in entry order.
        self._by_type: dict[str, dict[tuple[str, str], None]] = {}
        self.hits = 0
        self.misses = 0
        #: Monotonic mutation counter: bumped whenever the entry set (or an
        #: entry's freshness) changes, including TTL evictions and
        #: tombstone plants/expiries.  Consumers that derive something
        #: expensive from the contents — the gossiper's serialized digest —
        #: reuse their result while the version stands still.
        self.version = 0
        #: Attached secondary indexes (``repro.serving.index.CacheIndex``).
        #: Every path that inserts or drops an entry notifies them, so an
        #: index never holds a key the per-type dict no longer does.
        self._indexes: list = []

    def attach_index(self, index) -> None:
        """Register a secondary index for incremental maintenance.

        ``index`` must expose ``on_store(key, entry)`` and
        ``on_remove(key)``; both are invoked synchronously from every
        mutation path (store / merge / byebye removal / remote tombstone /
        TTL eviction) *before* ``version`` is bumped for that mutation.
        """
        if index not in self._indexes:
            self._indexes.append(index)

    def detach_index(self, index) -> None:
        if index in self._indexes:
            self._indexes.remove(index)

    def _note_store(self, key: tuple[str, str], entry: CacheEntry) -> None:
        for index in self._indexes:
            index.on_store(key, entry)

    def _note_remove(self, key: tuple[str, str]) -> None:
        for index in self._indexes:
            index.on_remove(key)

    def _put(self, key: tuple[str, str], entry: CacheEntry) -> None:
        """Insert or replace ``key``'s entry, keeping both bookkeeping
        structures in step (index notification stays with the caller)."""
        old = self._entries.get(key)
        if old is not None:
            self._unmap_location(key, old)
        self._entries[key] = entry
        self._by_location.setdefault(entry.record.location, {})[key] = None
        self._by_type.setdefault(key[0], {})[key] = None
        if entry.expires_at_us < self._watermark:
            self._watermark = entry.expires_at_us

    def _drop(self, key: tuple[str, str]) -> None:
        self._unmap_location(key, self._entries.pop(key))
        keys = self._by_type[key[0]]
        del keys[key]
        if not keys:
            del self._by_type[key[0]]

    def _unmap_location(self, key: tuple[str, str], entry: CacheEntry) -> None:
        location = entry.record.location
        keys = self._by_location.get(location)
        if keys is not None:
            keys.pop(key, None)
            if not keys:
                del self._by_location[location]

    def _plant_tombstone(
        self, key: tuple[str, str], deleted_at_us: int, expires_at_us: float
    ) -> None:
        self._tombstones[key] = (deleted_at_us, expires_at_us)
        if expires_at_us < self._watermark:
            self._watermark = expires_at_us

    def __len__(self) -> int:
        self._evict()
        return len(self._entries)

    def store(self, record: ServiceRecord) -> None:
        now = self._clock()
        expires = now + record.lifetime_s * 1_000_000
        key = (record.service_type, record.url)
        # A locally observed (re-)announcement is authoritative: the
        # service is demonstrably back, so any retraction tombstone dies.
        self._tombstones.pop(key, None)
        entry = CacheEntry(record=record, stored_at_us=now, expires_at_us=expires)
        self._put(key, entry)
        self._note_store(key, entry)
        self.version += 1

    def merge(self, record: ServiceRecord, expires_at_us: float) -> bool:
        """Adopt a record learnt from a federation peer, newest-expiry wins.

        Unlike :meth:`store`, the expiry is the *absolute* virtual time the
        originating cache advertised, so a record never outlives its first
        TTL by being gossiped around — and an already-expired record is
        never resurrected.  A key under a live tombstone is refused unless
        the record was demonstrably observed *after* the retraction (its
        implied observation time, ``expiry - lifetime``, postdates the
        deletion — a genuine re-announcement, which also clears the
        tombstone); a stale pre-retraction copy can never sneak back in.
        Returns True when adopted.
        """
        now = self._clock()
        if expires_at_us <= now:
            return False
        key = (record.service_type, record.url)
        tombstone = self._tombstones.get(key)
        if tombstone is not None and tombstone[1] > now:
            implied_observed_us = expires_at_us - record.lifetime_s * 1_000_000
            if implied_observed_us <= tombstone[0]:
                return False
        existing = self._entries.get(key)
        if existing is not None and existing.expires_at_us >= expires_at_us:
            return False
        # Only an *adopted* record clears the tombstone — a copy rejected
        # as staler than what we hold must not erase retraction protection.
        self._tombstones.pop(key, None)
        entry = CacheEntry(
            record=record, stored_at_us=now, expires_at_us=expires_at_us
        )
        self._put(key, entry)
        self._note_store(key, entry)
        self.version += 1
        return True

    def refresh_location(self, location: str) -> int:
        """A device re-announced an already-resolved description: every
        live record resolved from that ``location`` was just observed
        alive, so its TTL restarts now (UPnP max-age semantics).  Returns
        the number of entries refreshed — one version bump covers them
        all, and no index notification is needed because neither the keys
        nor the records change, only their freshness.
        """
        if not location:
            return 0
        self._evict()
        keys = self._by_location.get(location)
        if not keys:
            return 0
        now = self._clock()
        entries = self._entries
        refreshed = 0
        for key in keys:
            entry = entries[key]
            entry.stored_at_us = now
            entry.expires_at_us = expires = now + entry.record.lifetime_s * 1_000_000
            # A merged record may have held a later absolute expiry, so a
            # refresh can move an expiry earlier.
            if expires < self._watermark:
                self._watermark = expires
            refreshed += 1
        if refreshed:
            self.version += 1
        return refreshed

    def digest(self) -> dict[tuple[str, str], float]:
        """Anti-entropy summary: every live key with its absolute expiry.

        Two caches whose digests match hold the same records (at the same
        freshness), so a gossip round between them moves no record data.
        """
        self._evict()
        return {key: entry.expires_at_us for key, entry in self._entries.items()}

    def live_entries(self) -> list[tuple[tuple[str, str], CacheEntry]]:
        """All live (key, entry) pairs — the gossip delta source."""
        self._evict()
        return list(self._entries.items())

    def remove_url(self, url: str) -> int:
        """Drop every record for ``url`` (byebye handling); returns count.

        Each removed key gets a tombstone for ``tombstone_ttl_s``, so
        gossip retracts the record fleet-wide instead of resurrecting it.
        Entries already past their TTL are swept first (one version bump)
        rather than counted and tombstoned as retractions — a record that
        died naturally needs no resurrection protection.
        """
        self._evict()
        keys = [key for key in self._entries if key[1] == url]
        self._remove_keys(keys)
        return len(keys)

    def remove_type(self, service_type: str, source_sdp: str = "") -> int:
        """Drop records of one normalized type (SSDP byebye names only the
        NT, never a service URL); returns count.  Tombstoned like
        :meth:`remove_url` (and, like it, sweeps TTL-expired entries first
        so they are neither counted nor tombstoned)."""
        self._evict()
        wanted = normalize_service_type(service_type)
        keys = [
            key
            for key, entry in self._entries.items()
            if entry.record.service_type == wanted
            and (not source_sdp or entry.record.source_sdp == source_sdp)
        ]
        self._remove_keys(keys)
        return len(keys)

    def _remove_keys(self, keys) -> None:
        if not keys:
            return
        now = self._clock()
        expires = now + self.tombstone_ttl_s * 1_000_000
        for key in keys:
            self._drop(key)
            self._plant_tombstone(key, now, expires)
            self._note_remove(key)
        self.version += 1

    # -- tombstones ---------------------------------------------------------

    def tombstones(self) -> dict[tuple[str, str], tuple[int, float]]:
        """Live tombstones: key -> (deleted_at_us, expires_at_us)."""
        self._evict()
        return dict(self._tombstones)

    def apply_tombstone(
        self, key: tuple[str, str], deleted_at_us: int, expires_at_us: float
    ) -> bool:
        """Adopt a retraction learnt from a federation peer.

        Drops the local entry only when it was stored at or before the
        deletion (a record learnt *after* the retraction is a genuine
        re-announcement and survives).  Returns True when anything
        changed — the tombstone was news, or an entry was dropped.
        """
        now = self._clock()
        if expires_at_us <= now:
            return False
        existing = self._tombstones.get(key)
        if existing is not None and existing[1] >= expires_at_us:
            return False
        self._plant_tombstone(key, deleted_at_us, expires_at_us)
        entry = self._entries.get(key)
        if entry is not None and entry.stored_at_us <= deleted_at_us:
            self._drop(key)
            self._note_remove(key)
        self.version += 1
        return True

    def lookup(self, service_type: str) -> list[ServiceRecord]:
        """All live records whose normalized type matches."""
        self._evict()
        keys = self._by_type.get(normalize_service_type(service_type))
        entries = self._entries
        found = [entries[key].record for key in keys] if keys else []
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def lookup_any(self) -> list[ServiceRecord]:
        self._evict()
        return [entry.record for entry in self._entries.values()]

    def records_from(self, source_sdp: str) -> list[ServiceRecord]:
        self._evict()
        return [
            entry.record
            for entry in self._entries.values()
            if entry.record.source_sdp == source_sdp
        ]

    def evict_expired(self) -> None:
        """Drop entries and tombstones past their TTL now (bumps
        ``version`` if any go)."""
        self._evict()

    def _evict(self) -> None:
        # One sweep bumps ``version`` exactly once, however many entries
        # and tombstones fall out of it together.
        now = self._clock()
        if now < self._watermark:
            return  # nothing can be due yet
        expired = [key for key, entry in self._entries.items() if entry.expires_at_us <= now]
        for key in expired:
            self._drop(key)
            self._note_remove(key)
        dead_tombstones = [
            key for key, (_, expires) in self._tombstones.items() if expires <= now
        ]
        for key in dead_tombstones:
            del self._tombstones[key]
        if expired or dead_tombstones:
            self.version += 1
        self._watermark = min(
            min((entry.expires_at_us for entry in self._entries.values()), default=math.inf),
            min((expires for _, expires in self._tombstones.values()), default=math.inf),
        )

    def check(self) -> list[str]:
        """Bookkeeping audit, without sweeping: the watermark bounds every
        entry and tombstone expiry from below, and the location map and
        the type index (order included) equal ones recomputed from the
        entries.  Returns the problems found."""
        problems: list[str] = []
        for key, entry in self._entries.items():
            if entry.expires_at_us < self._watermark:
                problems.append(f"watermark above entry expiry: {key!r}")
        for key, (_, expires) in self._tombstones.items():
            if expires < self._watermark:
                problems.append(f"watermark above tombstone expiry: {key!r}")
        truth: dict[str, set] = {}
        for key, entry in self._entries.items():
            truth.setdefault(entry.record.location, set()).add(key)
        mapped = {location: set(keys) for location, keys in self._by_location.items()}
        if mapped != truth:
            problems.append("location map differs from the entries")
        by_type: dict[str, list] = {}
        for key, entry in self._entries.items():
            if key[0] != entry.record.service_type:
                problems.append(f"key type differs from its record's: {key!r}")
            by_type.setdefault(key[0], []).append(key)
        indexed = {service_type: list(keys) for service_type, keys in self._by_type.items()}
        if indexed != by_type:
            problems.append("type index differs from the entries")
        return problems


__all__ = ["ServiceCache", "CacheEntry"]
