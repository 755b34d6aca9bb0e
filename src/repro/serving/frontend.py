"""`QueryFrontend` — the discovery-as-a-service RPC endpoint.

One frontend rides on each gateway's INDISS instance and turns its
gossiped :class:`~repro.core.cache.ServiceCache` into a read-optimized
query service: clients send one UDP datagram (wire format in
:mod:`repro.serving.wire`), the frontend answers from the local cache via
the incrementally maintained :class:`~repro.serving.index.CacheIndex`,
and every answer carries an honesty stamp.

**Staleness contract.**  Each response's ``staleness_us`` is the maximum,
over the records it returns, of *now minus the record's implied
observation time at its origin* (``expiry - lifetime``).  A record that
can only reach this gateway through gossip therefore reports a stamp that
is **at least the true gossip lag**: while a partition starves refreshes
the stamp grows with wall (virtual) time, and once the partition heals
and a fresher expiry is gossiped in it collapses back toward the gossip
period.  Answers whose stamp exceeds ``stale_after_us`` still ship — the
serving tier is honest, not unavailable — but are counted as stale.

**Miss fallback.**  A type lookup that finds nothing locally answers
``"miss"`` immediately *and* (when ``fallback`` is armed) re-issues the
request through the gateway's own translation pipeline — a synthetic
request stream dispatched to every instantiated unit, exactly the path a
foreign multicast request would take.  Whatever answers lands in the
cache through the ordinary ``_deliver_reply`` path, so the next query
for that type hits.  One fallback per type per ``fallback_window_us``
keeps an open-loop miss storm from multiplying into a multicast storm.

**Encode once, parse once.**  Requests are read through the frame's
decode memo, which the load clients seed with the message they sent.
Each reply's records are rendered from the index's per-record
:class:`~repro.serving.wire.RecordFragment` (only the stamp is formatted
per query), the rest of the reply by :func:`~repro.serving.wire.encode_flat`,
and the reply itself is seeded as the frame's decode hint.  The bytes
equal :func:`~repro.serving.wire.encode` of the reply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.events import (
    Event,
    SDP_SERVICE_REQUEST,
    SDP_SERVICE_TYPE,
    bracket,
)
from ..core.indiss import Indiss
from ..net.udp import Datagram, Endpoint, shared_decode
from ..sdp.base import normalize_service_type
from .index import CacheIndex, IndexSnapshot, staleness_us
from . import wire
from .wire import RecordFragment

#: The synthetic origin SDP stamped on fallback sessions.  Not a unit id
#: on purpose: ``_deliver_reply`` finds no origin unit, so the reply is
#: cached but never composed back onto a native wire.
FALLBACK_ORIGIN = "serving"


#: An endpoint's answer: the reply, and the JSON text already rendered for
#: some of its top-level fields (``rendered`` of :func:`wire.encode_flat`).
Answer = tuple[dict, Optional[dict]]


class _BadScope(Exception):
    """A request scope names a district that is not an integer."""


def _type_url_order(row: tuple[RecordFragment, int]) -> tuple[str, str]:
    record = row[0].record
    return (record.service_type, record.url)


def _render(rows: list) -> tuple[list, str]:
    """A record array from (fragment, stamp) rows: wire dicts, JSON text."""
    return (
        [fragment.to_wire(stamp) for fragment, stamp in rows],
        "[" + ", ".join([fragment.render(stamp) for fragment, stamp in rows]) + "]",
    )


def _ok(rows: list) -> Answer:
    """An ``ok`` reply over (fragment, stamp) rows, records in (type, url)
    order, and its rendered ``records`` text."""
    rows = sorted(rows, key=_type_url_order)
    records, text = _render(rows)
    reply = wire.response(
        0, "ok", records=records, staleness_us=max((stamp for _, stamp in rows), default=0)
    )
    return reply, {"records": text}


@dataclass
class ServingStats:
    queries: int = 0
    hits: int = 0
    misses: int = 0
    stale_answers: int = 0
    fallbacks: int = 0
    decode_errors: int = 0
    responses_sent: int = 0
    staleness_sum_us: int = 0
    staleness_max_us: int = 0
    by_endpoint: dict = field(default_factory=dict)

    def note_endpoint(self, kind: str) -> None:
        self.by_endpoint[kind] = self.by_endpoint.get(kind, 0) + 1

    def snapshot(self) -> dict:
        row = {
            "queries": self.queries,
            "hits": self.hits,
            "misses": self.misses,
            "stale_answers": self.stale_answers,
            "fallbacks": self.fallbacks,
            "decode_errors": self.decode_errors,
            "responses_sent": self.responses_sent,
            "staleness_sum_us": self.staleness_sum_us,
            "staleness_max_us": self.staleness_max_us,
        }
        for kind in sorted(self.by_endpoint):
            row[f"endpoint_{kind}"] = self.by_endpoint[kind]
        return row


class QueryFrontend:
    """In-sim RPC app serving discovery queries from one gateway's cache."""

    def __init__(
        self,
        indiss: Indiss,
        port: int = wire.SERVING_PORT,
        *,
        stale_after_us: int = 2_000_000,
        fallback: bool = True,
        fallback_window_us: int = 500_000,
    ):
        self.indiss = indiss
        self.node = indiss.node
        self.port = port
        self.stale_after_us = stale_after_us
        self.fallback = fallback
        self.fallback_window_us = fallback_window_us
        self.stats = ServingStats()
        self.index = CacheIndex(indiss.cache)
        #: type -> virtual deadline before which no new fallback is issued.
        self._fallback_gate: dict[str, int] = {}
        self._socket = self.node.udp.socket().bind(port, reuse=True)
        self._socket.on_datagram(self._on_datagram)

    def close(self) -> None:
        self._socket.close()
        self.index.cache.detach_index(self.index)

    # -- request handling ----------------------------------------------------

    def _snapshot(self) -> IndexSnapshot:
        # crash()/restart() replace indiss.cache wholesale; follow it.
        self.index.rebind(self.indiss.cache)
        return self.index.snapshot()

    def _on_datagram(self, datagram: Datagram) -> None:
        message = shared_decode(
            datagram.memo, wire.WIRE_MEMO_KEY, datagram.payload, wire.decode
        )
        if message is None or message.get("kind") not in wire.REQUEST_KINDS:
            self.stats.decode_errors += 1
            return
        kind = message["kind"]
        try:
            rid = int(message.get("rid", 0))
        except (TypeError, ValueError, OverflowError):
            self.stats.decode_errors += 1
            return
        self.stats.queries += 1
        self.stats.note_endpoint(kind)
        snap = self._snapshot()
        now = self.node.now_us
        obs = self.node.network.obs

        try:
            if kind == "type":
                reply, rendered = self._answer_type(message, snap, now)
            elif kind == "url":
                reply, rendered = self._answer_url(message, snap, now)
            elif kind == "batch":
                reply, rendered = self._answer_batch(message, snap, now)
            else:
                reply, rendered = self._answer_districts(message, snap, now)
        except _BadScope:
            reply = wire.response(0, "error", records=[], error="bad scope")
            rendered = None
        reply["rid"] = rid
        reply["ver"] = snap.version
        reply["served_by"] = self.node.address

        stamp = int(reply.get("staleness_us", 0))
        if reply["status"] == "ok":
            self.stats.hits += 1
            self.stats.staleness_sum_us += stamp
            if stamp > self.stats.staleness_max_us:
                self.stats.staleness_max_us = stamp
            if stamp > self.stale_after_us:
                self.stats.stale_answers += 1
                reply["stale"] = True
        else:
            self.stats.misses += 1

        if obs.on:
            obs.trace.instant(
                f"serving.query.{kind}",
                now,
                self._district(),
                tid=self.node.name,
                cat="serving",
                args={
                    "rid": rid,
                    "status": reply["status"],
                    "staleness_us": stamp,
                    "ver": snap.version,
                },
            )
            obs.metrics.counter(
                "serving.query.hits" if reply["status"] == "ok" else "serving.query.misses",
                endpoint=kind,
            ).inc()
            if reply.get("stale"):
                obs.metrics.counter("serving.query.stale", endpoint=kind).inc()

        self._socket.sendto(
            wire.encode_flat(reply, rendered),
            datagram.source,
            decode_hint=(wire.WIRE_MEMO_KEY, reply),
        )
        self.stats.responses_sent += 1

    # -- endpoints -----------------------------------------------------------

    def _answer_type(self, message: dict, snap: IndexSnapshot, now: int) -> Answer:
        raw = str(message.get("st", ""))
        wanted = normalize_service_type(raw)
        if message.get("prefix"):
            entries = snap.by_type_prefix(wanted)
        else:
            entries = snap.by_type(wanted)
        where = message.get("where")
        if isinstance(where, dict):
            for name, value in where.items():
                entries = [
                    e
                    for e in entries
                    if str(e.record.attributes.get(str(name), "")) == str(value)
                ]
        entries = self._apply_scope(entries, message.get("scope"))
        if not entries:
            if self.fallback and wanted:
                self._fallback_translate(wanted, raw)
            return wire.response(0, "miss", records=[]), None
        return _ok(self._rows(entries, now))

    def _answer_url(self, message: dict, snap: IndexSnapshot, now: int) -> Answer:
        entries = self._apply_scope(
            snap.by_url(str(message.get("url", ""))), message.get("scope")
        )
        if not entries:
            return wire.response(0, "miss", records=[]), None
        return _ok(self._rows(entries, now))

    def _answer_batch(self, message: dict, snap: IndexSnapshot, now: int) -> Answer:
        targets = message.get("targets")
        if not isinstance(targets, list):
            return wire.response(0, "error", records=[], error="bad targets"), None
        per_target: dict[str, list] = {}
        per_target_text: dict[str, str] = {}
        matched: list = []
        for raw in targets:
            wanted = normalize_service_type(str(raw))
            entries = self._apply_scope(snap.by_type(wanted), message.get("scope"))
            rows = self._rows(entries, now)
            per_target[str(raw)], per_target_text[str(raw)] = _render(rows)
            matched.extend(rows)
            if not entries and self.fallback and wanted:
                self._fallback_translate(wanted, str(raw))
        by_target_text = wire.render_object(per_target_text)
        if not matched:
            reply = wire.response(0, "miss", records=[], by_target=per_target)
            return reply, {"by_target": by_target_text}
        reply, rendered = _ok(matched)
        reply["by_target"] = per_target
        rendered["by_target"] = by_target_text
        return reply, rendered

    def _answer_districts(self, message: dict, snap: IndexSnapshot, now: int) -> Answer:
        wanted = normalize_service_type(str(message.get("st", "")))
        entries = snap.by_type(wanted)
        districts: dict[str, int] = {}
        for entry in entries:
            district = self._district_of_url(entry.record.url)
            districts[str(district)] = districts.get(str(district), 0) + 1
        # Fleet membership widens the answer beyond local URL resolution:
        # a peer whose cache holds the type counts its own district in,
        # even when its records' hosts are not resolvable from here.
        federation = getattr(self.indiss, "federation", None)
        if federation is not None:
            fleet = federation.fleet
            for address in sorted(fleet.members):
                member = fleet.members[address]
                peer = member.indiss
                if peer is self.indiss or peer.crashed:
                    continue
                if any(
                    entry.record.service_type == wanted
                    for _, entry in peer.cache.live_entries()
                ):
                    district = peer.node.network.partition_of_node(peer.node)
                    districts.setdefault(str(district), 0)
        if not entries and not districts:
            return wire.response(0, "miss", records=[], districts={}), None
        if entries:
            reply, rendered = _ok(self._rows(entries, now))
        else:
            reply, rendered = wire.response(0, "ok", records=[]), None
        reply["districts"] = districts
        return reply, rendered

    # -- helpers -------------------------------------------------------------

    def _rows(self, entries: list, now: int) -> list[tuple[RecordFragment, int]]:
        """(wire fragment, staleness stamp) per entry, in entry order."""
        fragment = self.index.fragment
        return [(fragment(e.record), staleness_us(e, now)) for e in entries]

    def _apply_scope(self, entries: list, scope) -> list:
        if not isinstance(scope, dict):
            return entries
        districts = scope.get("districts")
        if isinstance(districts, list) and districts:
            try:
                allowed = {int(d) for d in districts}
            except (TypeError, ValueError, OverflowError):
                raise _BadScope from None
            entries = [
                e for e in entries if self._district_of_url(e.record.url) in allowed
            ]
        return entries

    def _district_of_url(self, url: str) -> int:
        """District of the host behind a service URL; the frontend's own
        district when the host is not resolvable (external locations)."""
        host = url
        if "://" in host:
            host = host.split("://", 1)[1]
        host = host.split("/", 1)[0].rsplit(":", 1)[0]
        network = self.node.network
        node = network.node_at(host)
        if node is None:
            return self._district()
        return network.partition_of_node(node)

    def _district(self) -> int:
        return self.node.network.partition_of_node(self.node)

    # -- miss fallback: re-issue through the translation pipeline ------------

    def _fallback_translate(self, normalized: str, raw_type: str) -> None:
        indiss = self.indiss
        if indiss.crashed or not indiss.units:
            return
        now = self.node.now_us
        gate = self._fallback_gate.get(normalized, -1)
        if gate > now:
            return
        self._fallback_gate[normalized] = now + self.fallback_window_us
        stream = bracket(
            [
                Event.of(SDP_SERVICE_REQUEST),
                Event.of(SDP_SERVICE_TYPE, type=raw_type or normalized, normalized=normalized),
            ],
            sdp=FALLBACK_ORIGIN,
            function="QUERY",
        )
        session = indiss.session_manager.open(
            FALLBACK_ORIGIN, None, stream, on_reply=indiss._deliver_reply
        )
        session.vars["service_type"] = normalized
        session.vars["st"] = raw_type or normalized
        session.log("serving: cache miss; re-issuing through translation units")
        self.stats.fallbacks += 1
        obs = self.node.network.obs
        if obs.on:
            obs.metrics.counter("serving.query.fallbacks", type=normalized).inc()
        indiss.fan_out(session, [indiss.units[name] for name in sorted(indiss.units)])


__all__ = ["QueryFrontend", "ServingStats", "FALLBACK_ORIGIN"]
