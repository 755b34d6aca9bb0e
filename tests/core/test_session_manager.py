"""Session lifecycle: dedup window semantics and completion accounting."""

import gc
import itertools
import weakref

from repro.core.events import (
    Event,
    SDP_RES_OK,
    SDP_RES_SERV_URL,
    SDP_SERVICE_RESPONSE,
    bracket,
)
from repro.core.session import TranslationSession, stream_has_result
from repro.core.sessions import RequestDeduper, SessionManager
from repro.net import Endpoint


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestRequestDeduper:
    def test_repeat_within_window_is_seen(self):
        clock = Clock()
        dedup = RequestDeduper(clock, window_us=1_000)
        assert not dedup.seen_recently("k")
        clock.now = 999
        assert dedup.seen_recently("k")

    def test_expiry_after_window(self):
        clock = Clock()
        dedup = RequestDeduper(clock, window_us=1_000)
        dedup.seen_recently("k")
        clock.now = 2_001
        assert not dedup.seen_recently("k")

    def test_distinct_keys_do_not_collide(self):
        clock = Clock()
        dedup = RequestDeduper(clock, window_us=1_000)
        assert not dedup.seen_recently(("slp", "h", "t", 1))
        assert not dedup.seen_recently(("slp", "h", "t", 2))  # new XID
        assert not dedup.seen_recently(("upnp", "h", "t", 1))  # new SDP
        assert dedup.seen_recently(("slp", "h", "t", 1))

    def test_lazy_expiry_keeps_store_bounded(self):
        clock = Clock()
        dedup = RequestDeduper(clock, window_us=1_000)
        for i in range(10_000):
            clock.now = i * 10
            dedup.seen_recently(("key", i))
        # Only the last window's worth of keys may survive.
        assert len(dedup) <= 101

    def test_refreshed_key_not_dropped_by_stale_deque_entry(self):
        clock = Clock()
        dedup = RequestDeduper(clock, window_us=1_000)
        dedup.seen_recently("k")  # t=0
        clock.now = 1_500
        assert not dedup.seen_recently("k")  # expired, re-recorded at 1500
        clock.now = 2_100  # t=0 deque entry long gone; t=1500 still live
        assert dedup.seen_recently("k")


def _open(manager, origin="slp", requester=None, on_reply=None):
    return manager.open(
        origin,
        requester or Endpoint("192.168.1.10", 427),
        [],
        on_reply or (lambda stream, session: None),
    )


class TestSessionManager:
    def test_requester_scope_key_includes_xid_and_requester(self):
        manager = SessionManager(Clock(), 1_000, itertools.count(1).__next__, dedup_scope="requester")
        base = manager.dedup_key("slp", Endpoint("h", 1), "service:clock", "clock", 7)
        assert manager.dedup_key("slp", Endpoint("h", 1), "service:clock", "clock", 8) != base
        assert manager.dedup_key("slp", Endpoint("h", 2), "service:clock", "clock", 7) != base

    def test_service_type_scope_collapses_requesters(self):
        manager = SessionManager(Clock(), 1_000, itertools.count(1).__next__, dedup_scope="service-type")
        a = manager.dedup_key("slp", Endpoint("h", 1), "service:clock", "clock", 7)
        b = manager.dedup_key("slp", Endpoint("h", 2), "service:clock", "clock", 99)
        assert a == b
        assert manager.dedup_key("upnp", Endpoint("h", 1), "x", "clock", 7) != a

    def test_duplicate_suppression_counts(self):
        manager = SessionManager(Clock(), 1_000, itertools.count(1).__next__)
        key = ("slp", "h", "t", 1)
        assert not manager.is_duplicate(key)
        assert manager.is_duplicate(key)
        assert manager.stats.duplicates_suppressed == 1

    def test_open_and_accounting(self):
        clock = Clock()
        clock.now = 42
        manager = SessionManager(clock, 1_000, itertools.count(1).__next__)
        session = _open(manager)
        assert session.created_at_us == 42
        assert session.session_id == 1
        assert manager.stats.opened == 1
        assert manager.active() == [session]
        manager.record_completed()
        manager.record_timeout()
        assert (manager.stats.completed, manager.stats.timed_out) == (1, 1)

    def test_cache_answer_accounting_marks_session(self):
        manager = SessionManager(Clock(), 1_000, itertools.count(1).__next__)
        session = _open(manager)
        manager.record_cache_answer(session)
        assert session.answered_from_cache
        assert session.vars["answered_by"] == "cache"
        assert manager.stats.answered_from_cache == 1

    def test_completed_session_leaves_the_table(self):
        manager = SessionManager(Clock(), 1_000, itertools.count(1).__next__)
        first, second = _open(manager), _open(manager)
        assert len(manager) == 2
        assert first.complete_with([])
        assert manager.active() == [second]
        assert len(manager) == 1
        assert manager.stats.opened == 2

    def test_completed_session_is_freed_without_a_listener(self):
        manager = SessionManager(Clock(), 1_000, itertools.count(1).__next__)
        session = _open(manager)
        session.log("step")
        ref = weakref.ref(session)
        session.complete_with([])
        del session
        gc.collect()
        assert ref() is None
        assert len(manager) == 0

    def test_listener_sees_session_after_its_reply(self):
        seen = []
        manager = SessionManager(
            Clock(), 1_000, itertools.count(1).__next__, listeners=[seen.append]
        )
        session = _open(
            manager, on_reply=lambda stream, s: s.log("reply composed")
        )
        assert seen == []
        session.complete_with([])
        assert seen == [session]
        assert session.steps == ["reply composed"]
        assert not session.complete_with([])  # duplicate: no second release
        assert seen == [session]

    def test_fence_completes_and_drops_open_sessions_silently(self):
        seen = []
        manager = SessionManager(
            Clock(), 1_000, itertools.count(1).__next__, listeners=[seen.append]
        )
        session = _open(manager)
        manager.fence()
        assert session.completed and len(manager) == 0
        assert not session.complete_with([])  # a stale unit timer fires
        assert seen == []

    def test_unknown_scope_rejected(self):
        try:
            SessionManager(Clock(), 1_000, itertools.count(1).__next__, dedup_scope="bogus")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


def _empty_reply():
    return bracket([Event.of(SDP_SERVICE_RESPONSE), Event.of(SDP_RES_OK)], sdp="slp")


def _url_reply(url="service:clock://h"):
    return bracket(
        [
            Event.of(SDP_SERVICE_RESPONSE),
            Event.of(SDP_RES_OK),
            Event.of(SDP_RES_SERV_URL, url=url),
        ],
        sdp="upnp",
    )


class TestMultiTargetCompletion:
    def test_stream_has_result(self):
        assert not stream_has_result(_empty_reply())
        assert stream_has_result(_url_reply())

    def test_single_target_empty_reply_completes(self):
        replies = []
        session = TranslationSession(origin_sdp="slp", requester=None)
        session.on_reply = lambda stream, s: replies.append(stream)
        assert session.complete_with(_empty_reply())
        assert session.completed and len(replies) == 1

    def test_fast_empty_giveup_does_not_clip_slow_answer(self):
        """A 15 ms SLP timeout must not complete a session whose UPnP
        target is still searching (the gateway-chain failure mode)."""
        replies = []
        session = TranslationSession(origin_sdp="slp", requester=None)
        session.on_reply = lambda stream, s: replies.append(stream)
        session.pending_targets = 2
        assert not session.complete_with(_empty_reply())  # slp gives up
        assert not session.completed
        assert session.complete_with(_url_reply())  # upnp answers later
        assert stream_has_result(replies[0])

    def test_all_targets_empty_completes_silently(self):
        replies = []
        session = TranslationSession(origin_sdp="slp", requester=None)
        session.on_reply = lambda stream, s: replies.append(stream)
        session.pending_targets = 3
        assert not session.complete_with(_empty_reply())
        assert not session.complete_with(_empty_reply())
        assert session.complete_with(_empty_reply())  # last one completes
        assert len(replies) == 1 and not stream_has_result(replies[0])

    def test_duplicate_completion_ignored(self):
        session = TranslationSession(origin_sdp="slp", requester=None)
        assert session.complete_with(_url_reply())
        assert not session.complete_with(_url_reply())
