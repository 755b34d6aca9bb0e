"""Translation-session lifecycle management (extracted from ``Indiss``).

The :class:`SessionManager` owns everything about the *process* side of
translation (paper §2.2): opening sessions for classified requests,
suppressing native retransmissions inside the dedup window, and the
completion/timeout/cache accounting the benchmarks and the adaptation
layer read.

It holds only *open* sessions: once its reply has been delivered, a
session leaves the table, is released from every target unit it was
fanned out to (each drops its state and cancels its timers), and is
handed to the session listeners.  What a run retains is therefore bounded
by the translations in flight, not by how long the run lasts; the finished
processes (Fig. 4's step logs) belong to whoever subscribed to them.

Duplicate suppression used to rebuild the whole recent-request dict on
every incoming request (O(n) on the hot path); :class:`RequestDeduper`
replaces that with a monotonic deque and lazy expiry — O(1) amortized per
request regardless of traffic rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from ..net import Endpoint
from .events import Event
from .session import TranslationSession

#: Receives each session once its reply has been delivered.
SessionListener = Callable[[TranslationSession], None]


@dataclass
class SessionStats:
    """Counters the benchmarks and tests read off one INDISS instance."""

    opened: int = 0
    completed: int = 0
    answered_from_cache: int = 0
    timed_out: int = 0
    duplicates_suppressed: int = 0
    #: Sessions that actually dispatched to target units (drove native
    #: discovery) — the unit the federation benchmarks count duplicate
    #: translations in.
    translated: int = 0
    #: Requests dropped because their gateway-forward hop budget ran out.
    hop_budget_drops: int = 0
    #: Probe re-dispatches after an empty translation (lossy-path retry;
    #: zero unless ``IndissConfig.translate_retries`` is set).
    retries: int = 0
    #: Sessions abandoned after every configured retry came back empty.
    gave_up: int = 0
    #: Final-retry fallbacks: the shard-ring owner gate suppressed every
    #: retry (dead or unreachable owner), so the last attempt was
    #: re-dispatched down the classic gateway-forward path instead of
    #: giving up silently.
    retry_fallbacks: int = 0


class RequestDeduper:
    """Sliding-window duplicate detection with O(1) amortized expiry.

    Keys are opaque hashables; entries expire ``window_us`` after they were
    recorded.  Expiry is lazy: each call prunes only the deque head, so the
    per-request cost stays constant even when thousands of distinct keys
    pass through (the old implementation rebuilt the entire dict per
    request).
    """

    def __init__(self, clock: Callable[[], int], window_us: int):
        self._clock = clock
        self.window_us = window_us
        self._seen: dict[Hashable, int] = {}
        self._order: deque[tuple[Hashable, int]] = deque()

    def __len__(self) -> int:
        self._expire(self._clock())
        return len(self._seen)

    def _expire(self, now: int) -> None:
        horizon = now - self.window_us
        while self._order and self._order[0][1] < horizon:
            key, stamped = self._order.popleft()
            # Only forget the key if it was not re-recorded since: a newer
            # timestamp in the dict belongs to a younger deque entry.
            if self._seen.get(key) == stamped:
                del self._seen[key]

    def seen_recently(self, key: Hashable) -> bool:
        """True when ``key`` was recorded within the window; records it
        (refreshing the window) otherwise."""
        now = self._clock()
        self._expire(now)
        if key in self._seen:
            return True
        self._seen[key] = now
        self._order.append((key, now))
        return False


class SessionManager:
    """Owns the open sessions, the dedup window, and the statistics."""

    def __init__(
        self,
        clock: Callable[[], int],
        dedup_window_us: int,
        session_id_source: Callable[[], int],
        dedup_scope: str = "requester",
        listeners: Optional[list[SessionListener]] = None,
    ):
        if dedup_scope not in ("requester", "service-type"):
            raise ValueError(f"unknown dedup scope {dedup_scope!r}")
        self._clock = clock
        self.dedup_scope = dedup_scope
        self.deduper = RequestDeduper(clock, dedup_window_us)
        #: Open sessions by id, in the order they were opened.
        self._open: dict[int, TranslationSession] = {}
        #: Called with each completed session after its reply was
        #: delivered (the owner passes a list that outlives restarts).
        self.listeners: list[SessionListener] = listeners if listeners is not None else []
        self.stats = SessionStats()
        #: The owning network's allocator for this host (see
        #: :meth:`repro.net.network.Network.session_id_source`).
        self._session_id_source = session_id_source

    # -- dedup ---------------------------------------------------------------

    def dedup_key(
        self,
        origin_sdp: str,
        requester: Optional[Endpoint],
        raw_type: str,
        service_type: str,
        xid,
    ) -> tuple:
        """The identity a request is deduplicated under.

        ``requester`` scope matches the native retransmission pattern (same
        client, same XID); ``service-type`` scope additionally collapses
        *different* requesters asking for the same thing — the loop-breaker
        for gateway chains, where each gateway would otherwise re-translate
        its neighbour's translations forever.
        """
        if self.dedup_scope == "service-type":
            return (origin_sdp, service_type or raw_type)
        return (origin_sdp, requester, raw_type, xid)

    def is_duplicate(self, key: tuple) -> bool:
        if self.deduper.seen_recently(key):
            self.stats.duplicates_suppressed += 1
            return True
        return False

    # -- lifecycle -----------------------------------------------------------

    def open(
        self,
        origin_sdp: str,
        requester: Optional[Endpoint],
        request_stream: list[Event],
        on_reply: Callable[[list[Event], TranslationSession], None],
    ) -> TranslationSession:
        session = TranslationSession(
            origin_sdp=origin_sdp,
            requester=requester,
            request_stream=request_stream,
            created_at_us=self._clock(),
            session_id=self._session_id_source(),
        )
        session.on_reply = on_reply
        session.on_done = self._release
        self._open[session.session_id] = session
        self.stats.opened += 1
        return session

    def _release(self, session: TranslationSession) -> None:
        del self._open[session.session_id]
        for target in session.targets:
            target.release(session)
        for listener in self.listeners:
            listener(session)

    def fence(self) -> None:
        """Crash-stop: release every open session from its target units
        (their timers never fire) and force-complete it, so what cannot be
        cancelled (a registrar lookup in flight) is swallowed by
        ``complete_with()``; listeners never see these sessions, since no
        reply was delivered.
        """
        for session in self._open.values():
            session.completed = True
            for target in session.targets:
                target.release(session)
        self._open.clear()

    def record_completed(self) -> None:
        self.stats.completed += 1

    def record_translated(self) -> None:
        self.stats.translated += 1

    def record_hop_budget_drop(self) -> None:
        self.stats.hop_budget_drops += 1

    def record_timeout(self) -> None:
        self.stats.timed_out += 1

    def record_retry(self) -> None:
        self.stats.retries += 1

    def record_gave_up(self) -> None:
        self.stats.gave_up += 1

    def record_retry_fallback(self) -> None:
        self.stats.retry_fallbacks += 1

    def record_cache_answer(self, session: TranslationSession) -> None:
        session.answered_from_cache = True
        session.vars["answered_by"] = "cache"
        self.stats.answered_from_cache += 1

    # -- introspection -------------------------------------------------------

    def active(self) -> list[TranslationSession]:
        """The open sessions, oldest first."""
        return list(self._open.values())

    def __len__(self) -> int:
        return len(self._open)


__all__ = ["SessionManager", "SessionStats", "RequestDeduper", "SessionListener"]
