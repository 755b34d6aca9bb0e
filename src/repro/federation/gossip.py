"""Anti-entropy gossip of ServiceCache records between fleet gateways.

After PR 1 every gateway on a backbone re-discovered every service on its
own; the federated cache replaces that with periodic peer exchange.  The
protocol is classic two-message anti-entropy over the simulated UDP layer:

1. every ``period_us`` a gossiper unicasts a **digest** — each live cache
   key with its absolute expiry — to the next peer in round-robin order;
2. a peer receiving a digest pushes back a **delta** containing only the
   records the sender is missing or holds staler than the peer does; when
   the digests already agree, *no record data moves* (steady-state gossip
   is delta-only, which the convergence tests assert).

Records travel with their absolute virtual-time expiry, so a record never
outlives its originally advertised TTL by being passed around, and an
expired record can never be resurrected by a slow peer
(:meth:`repro.core.cache.ServiceCache.merge` enforces both).  Provenance
(``source_sdp``) rides along, so a gossiped record still answers only
requesters of *other* protocols, exactly like a locally learnt one.

Retractions propagate as fast as discoveries: a removal (byebye) plants a
short-lived **tombstone** in the cache, digests and deltas carry live
tombstones, and a peer adopting one drops its stale copy — while the
tombstone lives, the record cannot be re-learnt from a lagging peer, but a
record whose implied observation time postdates the deletion (a genuine
re-announcement) still wins.

Rounds are staggered per member so a fleet does not gossip in lockstep.

**Tombstone TTL contract.**  A tombstone lives for
``ServiceCache.tombstone_ttl_s`` (15 s) of *virtual* time from the
deletion; ``_evict`` drops it afterwards.  While it lives, the retraction
is monotone: no digest/delta exchange can re-learn the dead record (only a
genuine re-announcement observed after the deletion wins).  After it
expires, the only remaining guard is the record's own absolute expiry — a
member that was **detached for longer than the TTL** (fleet churn, a
partition outlasting 15 s) never saw the tombstone, still holds the
retracted record, and on reattach will advertise it again; peers whose
tombstones have TTL'd out will re-adopt it until the record's own lifetime
runs out.  That resurrection window is pinned by
``tests/federation/test_adversity.py`` — extending the contract (e.g.
tombstone catch-up on reattach) must move that test deliberately.

**Loss tolerance.**  Every message here is fire-and-forget UDP: a dropped
digest simply delays convergence one round, a dropped delta leaves the
digest disagreement in place so the next round retries.  With
``catchup_after=k`` set, a member escalates on a peer that stayed silent
for ``k`` consecutive digests it sent them: it pushes a full catch-up
delta (live records + live tombstones) directly, skipping the
digest/delta handshake that keeps being dropped.  Off by default — a
lossless fleet must gossip byte-identically with the knob absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..net import Datagram, Endpoint
from ..net.udp import shared_decode
from ..sdp.base import ServiceRecord
from .shard import ring_hash

if TYPE_CHECKING:  # pragma: no cover
    from ..core.indiss import Indiss
    from .fleet import GatewayFleet

#: UDP port the gossipers bind (unassigned in the IANA registry the
#: monitor scans, so gossip traffic is never mistaken for SDP traffic).
GOSSIP_PORT = 4610

#: Records per delta message; a digest round moves at most this many and
#: the remainder follows in later rounds (bounds datagram size).
DEFAULT_MAX_DELTA_RECORDS = 32

#: Frame-memo key of a decoded gossip message.  Every send seeds the
#: frame with the dict it encoded, so receivers never ``json.loads``.
GOSSIP_MEMO_KEY = "gossip-json"

#: Cache keys whose wire key and digest fragment a gossiper remembers.
_KEY_PARTS_MEMO_SIZE = 4096


@dataclass
class GossipStats:
    """Counters the convergence tests and federation benchmarks read."""

    rounds: int = 0
    digests_sent: int = 0
    digests_received: int = 0
    deltas_sent: int = 0
    deltas_received: int = 0
    records_sent: int = 0
    records_applied: int = 0
    records_ignored: int = 0
    records_expired: int = 0
    #: Retraction tombstones pushed to peers still holding the record.
    tombstones_sent: int = 0
    #: Tombstones adopted from a peer (entry dropped and/or news learnt).
    tombstones_applied: int = 0
    decode_errors: int = 0
    #: Digest payloads actually serialized (encode-once: a digest is
    #: rebuilt only when the cache's version moved; steady-state rounds
    #: reuse the previous round's bytes, so ``digests_sent`` grows while
    #: this stands still).
    digest_encodes: int = 0
    #: Per-record wire forms actually built for deltas; records re-sent at
    #: the same freshness reuse the cached form (``records_sent`` counts
    #: every record that travelled).
    record_encodes: int = 0
    #: Catch-up escalations fired at peers silent for ``catchup_after``
    #: consecutive digest rounds (0 unless the knob is set).
    catchup_escalations: int = 0
    #: Records pushed inside catch-up deltas.
    catchup_records: int = 0
    #: Wire bytes spent on catch-up deltas.
    catchup_bytes: int = 0
    #: State-transfer bootstraps this member requested (restart path).
    bootstrap_requests: int = 0
    #: Bootstrap requests this member answered as the donor.
    bootstrap_served: int = 0
    #: Live records shipped inside served bootstraps (uncapped — a
    #: bootstrap is one full cache transfer, not a paced delta).
    bootstrap_records_sent: int = 0
    #: Wire bytes spent serving bootstraps.
    bootstrap_bytes: int = 0
    #: Records this member adopted from a received bootstrap.
    bootstrap_records_applied: int = 0


def _record_to_wire(key: tuple[str, str], entry) -> dict:
    record = entry.record
    return {
        "t": record.service_type,
        "u": record.url,
        "a": dict(record.attributes),
        "l": record.lifetime_s,
        "s": record.source_sdp,
        "loc": record.location,
        "x": entry.expires_at_us,
    }


def _decode_message(payload: bytes) -> dict | None:
    """A gossip datagram's message; None unless it is a JSON object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return message if isinstance(message, dict) else None


def _number(value) -> str:
    """``json.dumps(value)`` for an expiry, without the encoder call."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


def _encode(message: dict) -> bytes:
    return json.dumps(message, sort_keys=True).encode("utf-8")


def _record_from_wire(wire: dict) -> tuple[ServiceRecord, float]:
    record = ServiceRecord(
        service_type=str(wire.get("t", "")),
        url=str(wire.get("u", "")),
        attributes={str(k): str(v) for k, v in dict(wire.get("a", {})).items()},
        lifetime_s=int(wire.get("l", 3600)),
        source_sdp=str(wire.get("s", "")),
        location=str(wire.get("loc", "")),
    )
    return record, float(wire.get("x", 0))


class CacheGossiper:
    """Periodic cache anti-entropy for one fleet member."""

    def __init__(
        self,
        indiss: "Indiss",
        fleet: "GatewayFleet",
        member_id: str,
        period_us: int = 500_000,
        max_delta_records: int = DEFAULT_MAX_DELTA_RECORDS,
        port: int = GOSSIP_PORT,
        catchup_after: int | None = None,
    ):
        if period_us <= 0:
            raise ValueError(f"period_us must be positive, got {period_us}")
        if catchup_after is not None and catchup_after < 1:
            raise ValueError(f"catchup_after must be >= 1, got {catchup_after}")
        self.indiss = indiss
        self.fleet = fleet
        self.member_id = member_id
        self.period_us = period_us
        self.max_delta_records = max_delta_records
        self.port = port
        self.catchup_after = catchup_after
        #: Consecutive digests sent to each peer without hearing anything
        #: back from it (loss-tolerance escalation; see module docstring).
        self._silent_rounds: dict[str, int] = {}
        self.stats = GossipStats()
        self._peer_cursor = 0
        #: Encode-once digest: (cache version it was built at, payload,
        #: message).
        self._digest_payload: tuple[int, bytes, dict] | None = None
        #: Per cache key: (wire key, its JSON text plus ``": "``, expiry,
        #: digest fragment ``"wire key": expiry``).  NOTIFY refreshes move
        #: a few expiries per round, so a rebuilt digest re-renders only
        #: those keys' numbers.
        self._key_parts = indiss.node.network.memo(_KEY_PARTS_MEMO_SIZE)
        #: Per-record wire-form cache for deltas: key -> (expiry, wire dict).
        self._wire_cache = indiss.node.network.memo(4 * max_delta_records)
        self._socket = indiss.node.udp.socket().bind(port, reuse=True)
        self._socket.on_datagram(self._on_datagram)
        #: Virtual time this member finished applying a requested
        #: bootstrap (state transfer complete); None until then.  The
        #: chaos bench reads time-to-recover off this.
        self.bootstrap_completed_at: int | None = None
        #: Virtual time of the latest digest send (flight recorder only):
        #: a delta arriving back closes a ``gossip.exchange`` span — the
        #: digest -> delta round duration.
        self._obs_digest_sent_us: int | None = None
        # Deterministic per-member stagger keeps fleet rounds out of phase.
        offset = ring_hash(member_id) % period_us
        self._task = indiss.node.every(period_us, self.run_round, initial_delay_us=offset)

    def stop(self) -> None:
        self._task.stop()
        self._socket.close()

    # -- sending ------------------------------------------------------------

    def run_round(self) -> None:
        """One gossip round: digest to the next round-robin peer."""
        peers = self.fleet.peer_addresses(self.member_id)
        if not peers:
            return
        self.stats.rounds += 1
        # Each round doubles as a heartbeat tick: the fleet's failure
        # detector ages every peer this member has not heard from (a
        # no-op unless the detector is armed).
        self.fleet.health.note_round(self.member_id, self.indiss.node.now_us)
        peer = peers[self._peer_cursor % len(peers)]
        self._peer_cursor += 1
        payload, message = self._digest()
        self._send_raw(peer, payload, message)
        self.stats.digests_sent += 1
        if self.catchup_after is not None:
            silent = self._silent_rounds.get(peer, 0) + 1
            if silent >= self.catchup_after:
                self._catch_up(peer)
                silent = 0
            self._silent_rounds[peer] = silent
        obs = self.indiss.node.network.obs
        if obs.on:
            now = self.indiss.node.now_us
            self._obs_digest_sent_us = now
            obs.trace.instant(
                "gossip.round", now, self._obs_district(),
                tid=self.member_id, cat="gossip",
                args={"peer": peer, "digest_bytes": len(payload)},
            )
            obs.metrics.counter("federation.rounds", member=self.member_id).inc()
            obs.metrics.histogram("federation.digest_bytes").observe(len(payload))

    def _digest(self) -> tuple[bytes, dict]:
        """The serialized digest and its message, rebuilt only when the
        cache changed.

        The cache's digest is a pure function of its live entries (absolute
        expiries, so nothing in it depends on *when* it is serialized), and
        the ``from`` field is fixed — so one payload serves every peer and
        every steady-state round until the cache's version moves.  TTL
        expiry is folded in by evicting first, which bumps the version.

        The payload is ``json.dumps(message, sort_keys=True)`` byte for
        byte, but its ``entries`` object is joined from per-key fragments
        (:attr:`_key_parts`); only the other fields go through the encoder.
        """
        cache = self.indiss.cache
        cache.evict_expired()
        wire_util = self.fleet.wire_utilization
        cached = self._digest_payload
        if not wire_util and cached is not None and cached[0] == cache.version:
            return cached[1], cached[2]
        parts = self._key_parts
        entries = {}
        fragments = {}
        for key, expires in cache.digest().items():
            part = parts.get(key)
            if part is None:
                wire_key = f"{key[0]}|{key[1]}"
                prefix = f"{json.dumps(wire_key)}: "
                part = parts.remember(key, (wire_key, prefix, expires, prefix + _number(expires)))
            elif part[2] is not expires:
                part = parts.remember(key, (*part[:2], expires, part[1] + _number(expires)))
            entries[part[0]] = expires
            fragments[part[0]] = part[3]
        tombstones = {
            self._wire_key(key): [deleted, expires]
            for key, (deleted, expires) in cache.tombstones().items()
        }
        rest = {"kind": "digest", "from": self.member_id}
        if tombstones:
            rest["tombstones"] = tombstones
        if wire_util:
            # Piggyback this member's *locally measured* utilization so
            # peers elect from wire-carried samples, not shared monitors.
            # The sample changes every round, so the encode-once cache is
            # bypassed while the knob is on (off keeps it byte-identical).
            rest["util"] = [
                self.indiss.node.now_us,
                round(self.fleet.elector.member_load(self.member_id), 6),
            ]
        # "entries" sorts before every other key: splice it in first.
        body = ", ".join([fragments[wire_key] for wire_key in sorted(fragments)])
        payload = f'{{"entries": {{{body}}}, {json.dumps(rest, sort_keys=True)[1:]}'
        payload = payload.encode("utf-8")
        message = {**rest, "entries": entries}
        if not wire_util:
            self._digest_payload = (cache.version, payload, message)
        self.stats.digest_encodes += 1
        return payload, message

    def _wire_key(self, key: tuple[str, str]) -> str:
        """The ``type|url`` string naming ``key`` on the wire, built once."""
        part = self._key_parts.get(key)
        return f"{key[0]}|{key[1]}" if part is None else part[0]

    def _catch_up(self, peer: str) -> None:
        """Escalate at a silent peer: push a full delta unsolicited.

        ``catchup_after`` consecutive digests to this peer produced no
        reply of any kind — on a lossy path the two-message handshake may
        keep failing at either leg, so skip it: send every live record
        (bounded by ``max_delta_records``) plus live tombstones directly.
        The peer's ordinary merge path applies whatever it lacks; absolute
        expiries make replayed records harmless.
        """
        records = []
        for key, entry in self.indiss.cache.live_entries():
            records.append(self._wire_record(key, entry))
            if len(records) >= self.max_delta_records:
                break
        tombstones = {
            self._wire_key(key): [deleted, expires]
            for key, (deleted, expires) in self.indiss.cache.tombstones().items()
        }
        if not records and not tombstones:
            return
        delta = {"kind": "delta", "from": self.member_id, "records": records}
        if tombstones:
            delta["tombstones"] = tombstones
            self.stats.tombstones_sent += len(tombstones)
        payload = _encode(delta)
        self._send_raw(peer, payload, delta)
        self.stats.deltas_sent += 1
        self.stats.records_sent += len(records)
        self.stats.catchup_escalations += 1
        self.stats.catchup_records += len(records)
        self.stats.catchup_bytes += len(payload)
        obs = self.indiss.node.network.obs
        if obs.on:
            obs.metrics.counter(
                "gossip.catchup.escalations", member=self.member_id
            ).inc()
            obs.metrics.counter(
                "gossip.catchup.bytes", member=self.member_id
            ).inc(len(payload))
            obs.trace.instant(
                "gossip.catchup", self.indiss.node.now_us, self._obs_district(),
                tid=self.member_id, cat="gossip",
                args={"peer": peer, "records": len(records)},
            )

    def request_bootstrap(self) -> None:
        """Ask one live peer for a full cache transfer (the restart path).

        A gateway that just restarted (or replaced a dead one) holds an
        empty cache; waiting for anti-entropy to refill it takes one
        digest/delta round trip per ``max_delta_records`` batch.  The
        bootstrap handshake collapses that to a single exchange: pick the
        first *electable* peer in stable order (a suspect or detached
        donor would serve silence) and request its entire live cache,
        tombstones included.  Fire-and-forget like all gossip — if the
        request or the reply drops, ordinary anti-entropy still converges;
        bootstrap is an accelerator, not a correctness mechanism.
        """
        for peer in self.fleet.peer_addresses(self.member_id):
            if not self.fleet.is_electable(peer):
                continue
            message = {"kind": "bootstrap_req", "from": self.member_id}
            self._send_raw(peer, _encode(message), message)
            self.stats.bootstrap_requests += 1
            obs = self.indiss.node.network.obs
            if obs.on:
                obs.metrics.counter(
                    "cache.bootstrap.requests", member=self.member_id
                ).inc()
                obs.trace.instant(
                    "cache.bootstrap.request", self.indiss.node.now_us,
                    self._obs_district(), tid=self.member_id, cat="gossip",
                    args={"donor": peer},
                )
            return

    def _obs_district(self) -> int:
        node = self.indiss.node
        return node.network.partition_of_node(node)

    def _send(self, peer_address: str, message: dict) -> None:
        payload = _encode(message)
        obs = self.indiss.node.network.obs
        if obs.on and message.get("kind") == "delta":
            obs.metrics.histogram("federation.delta_bytes").observe(len(payload))
            obs.metrics.counter(
                "federation.delta_records", member=self.member_id
            ).inc(len(message.get("records", ())))
        self._send_raw(peer_address, payload, message)

    def _send_raw(self, peer_address: str, payload: bytes, message: dict) -> None:
        """Send ``payload``, the encoding of ``message``; the frame carries
        the dict as its decode hint.  Neither side mutates a sent message."""
        self._socket.sendto(
            payload, Endpoint(peer_address, self.port),
            decode_hint=(GOSSIP_MEMO_KEY, message),
        )

    # -- receiving ----------------------------------------------------------

    def _on_datagram(self, datagram: Datagram) -> None:
        message = shared_decode(
            datagram.memo, GOSSIP_MEMO_KEY, datagram.payload, _decode_message
        )
        if message is None:
            self.stats.decode_errors += 1
            return
        kind = message.get("kind")
        sender = str(message.get("from", ""))
        if sender and sender in self.fleet.members:
            # Any traffic from a member resets its silent-round counter
            # and feeds the failure detector's heartbeat accounting.
            if self._silent_rounds.get(sender):
                self._silent_rounds[sender] = 0
            self.fleet.health.note_heard(
                self.member_id, sender, self.indiss.node.now_us
            )
            util = message.get("util")
            if isinstance(util, (list, tuple)) and len(util) == 2:
                self._note_util_sample(sender, util)
        if kind == "digest":
            self._handle_digest(message, datagram.source)
        elif kind == "delta":
            self._handle_delta(message)
        elif kind == "bootstrap_req":
            self._handle_bootstrap_request(message, datagram.source)
        elif kind == "bootstrap":
            self._handle_bootstrap(message)
        else:
            self.stats.decode_errors += 1

    def _note_util_sample(self, sender: str, util) -> None:
        """Adopt a piggybacked utilization sample onto our handle's board."""
        handle = self.indiss.federation
        if handle is None:
            return
        try:
            handle.util_samples[sender] = (int(util[0]), float(util[1]))
        except (TypeError, ValueError):
            self.stats.decode_errors += 1

    def _apply_tombstones(self, wires) -> None:
        """Adopt a peer's retraction tombstones (digests carry them too,
        so retractions propagate as fast as discoveries)."""
        if not isinstance(wires, dict):
            self.stats.decode_errors += 1
            return
        for wire_key, pair in wires.items():
            try:
                deleted, expires = int(pair[0]), float(pair[1])
                service_type, _, url = str(wire_key).partition("|")
            except (TypeError, ValueError, IndexError):
                self.stats.decode_errors += 1
                continue
            if self.indiss.cache.apply_tombstone((service_type, url), deleted, expires):
                self.stats.tombstones_applied += 1

    def _handle_digest(self, message: dict, source: Endpoint) -> None:
        self.stats.digests_received += 1
        theirs = message.get("entries", {})
        if not isinstance(theirs, dict):
            self.stats.decode_errors += 1
            return
        if "tombstones" in message:
            self._apply_tombstones(message["tombstones"])
        records = []
        parts = self._key_parts
        for key, entry in self.indiss.cache.live_entries():
            part = parts.get(key)
            wire_key = f"{key[0]}|{key[1]}" if part is None else part[0]
            try:
                their_expiry = float(theirs.get(wire_key, 0))
            except (TypeError, ValueError):
                self.stats.decode_errors += 1
                return  # a digest we cannot read is a digest we ignore
            if their_expiry >= entry.expires_at_us:
                continue  # peer is already at least as fresh
            records.append(self._wire_record(key, entry))
            if len(records) >= self.max_delta_records:
                break
        # The peer advertises entries we hold tombstones for: push the
        # retraction back so it stops offering (and serving) dead records.
        tombstones = {}
        our_tombstones = self.indiss.cache.tombstones()
        if our_tombstones:
            for key, (deleted, expires) in our_tombstones.items():
                wire_key = self._wire_key(key)
                if wire_key in theirs:
                    tombstones[wire_key] = [deleted, expires]
        if not records and not tombstones:
            return  # digests agree: steady state moves no record data
        # Reply only to fleet members: a spoofed "from" must not steer the
        # delta (or crash the handler with an unroutable address).
        peer = str(message.get("from", ""))
        if peer not in self.fleet.members:
            peer = source.host
        if peer == self.member_id:
            self.stats.decode_errors += 1
            return
        delta = {"kind": "delta", "from": self.member_id, "records": records}
        if tombstones:
            delta["tombstones"] = tombstones
            self.stats.tombstones_sent += len(tombstones)
        self._send(peer, delta)
        self.stats.deltas_sent += 1
        self.stats.records_sent += len(records)

    def _wire_record(self, key: tuple[str, str], entry) -> dict:
        """Encode-once per record: the wire form depends only on the entry
        (record + absolute expiry), so a record pushed to several laggard
        peers across rounds is built once while its freshness stands."""
        cached = self._wire_cache.get(key)
        if cached is not None and cached[0] == entry.expires_at_us:
            return cached[1]
        wire = _record_to_wire(key, entry)
        self._wire_cache.remember(key, (entry.expires_at_us, wire))
        self.stats.record_encodes += 1
        return wire

    def _handle_delta(self, message: dict) -> None:
        self.stats.deltas_received += 1
        obs = self.indiss.node.network.obs
        if obs.on:
            now_us = self.indiss.node.now_us
            sent = self._obs_digest_sent_us
            if sent is not None and now_us >= sent:
                # The digest -> delta round trip this member initiated.
                obs.trace.span(
                    "gossip.exchange", sent, now_us - sent,
                    self._obs_district(), tid=self.member_id, cat="gossip",
                    args={"peer": str(message.get("from", ""))},
                )
                self._obs_digest_sent_us = None
        if "tombstones" in message:
            self._apply_tombstones(message["tombstones"])
        now = self.indiss.node.now_us
        records = message.get("records", ())
        if not isinstance(records, (list, tuple)):
            self.stats.decode_errors += 1
            return
        for wire in records:
            if not isinstance(wire, dict):
                self.stats.decode_errors += 1
                continue
            try:
                record, expires_at_us = _record_from_wire(wire)
            except (TypeError, ValueError):
                self.stats.decode_errors += 1
                continue
            if not record.url:
                self.stats.decode_errors += 1
                continue
            if expires_at_us <= now:
                self.stats.records_expired += 1
                continue
            if self.indiss.cache.merge(record, expires_at_us):
                self.stats.records_applied += 1
                if obs.on:
                    # Last virtual time gossip changed this member's state:
                    # the convergence-to-quiescence marker the report reads.
                    obs.metrics.counter(
                        "federation.records_applied", member=self.member_id
                    ).inc()
                    obs.metrics.gauge(
                        "federation.quiescence_us", member=self.member_id
                    ).set(now)
            else:
                self.stats.records_ignored += 1

    def _handle_bootstrap_request(self, message: dict, source: Endpoint) -> None:
        """Serve a full state transfer: every live record (uncapped — this
        is one cache handoff, not a paced delta) plus every live
        tombstone, so the requester inherits retractions as well as
        discoveries and the tombstone TTL contract survives the restart.
        Absolute expiries travel as always: a bootstrapped record keeps
        exactly the lifetime its original advertisement promised."""
        peer = str(message.get("from", ""))
        if peer not in self.fleet.members:
            peer = source.host
        if peer == self.member_id:
            self.stats.decode_errors += 1
            return
        records = [
            self._wire_record(key, entry)
            for key, entry in self.indiss.cache.live_entries()
        ]
        tombstones = {
            self._wire_key(key): [deleted, expires]
            for key, (deleted, expires) in self.indiss.cache.tombstones().items()
        }
        reply = {"kind": "bootstrap", "from": self.member_id, "records": records}
        if tombstones:
            reply["tombstones"] = tombstones
            self.stats.tombstones_sent += len(tombstones)
        payload = _encode(reply)
        self._send_raw(peer, payload, reply)
        self.stats.bootstrap_served += 1
        self.stats.bootstrap_records_sent += len(records)
        self.stats.bootstrap_bytes += len(payload)
        obs = self.indiss.node.network.obs
        if obs.on:
            obs.metrics.counter(
                "cache.bootstrap.served", member=self.member_id
            ).inc()
            obs.metrics.counter(
                "cache.bootstrap.bytes", member=self.member_id
            ).inc(len(payload))
            obs.trace.instant(
                "cache.bootstrap.serve", self.indiss.node.now_us,
                self._obs_district(), tid=self.member_id, cat="gossip",
                args={"peer": peer, "records": len(records)},
            )

    def _handle_bootstrap(self, message: dict) -> None:
        """Adopt a donor's full cache transfer through the ordinary merge
        path (absolute expiries, provenance, tombstone precedence all
        enforced by :meth:`ServiceCache.merge`), then stamp
        ``bootstrap_completed_at`` — the bench's recovery marker."""
        if "tombstones" in message:
            self._apply_tombstones(message["tombstones"])
        now = self.indiss.node.now_us
        records = message.get("records", ())
        if not isinstance(records, (list, tuple)):
            self.stats.decode_errors += 1
            return
        applied = 0
        for wire in records:
            if not isinstance(wire, dict):
                self.stats.decode_errors += 1
                continue
            try:
                record, expires_at_us = _record_from_wire(wire)
            except (TypeError, ValueError):
                self.stats.decode_errors += 1
                continue
            if not record.url:
                self.stats.decode_errors += 1
                continue
            if expires_at_us <= now:
                self.stats.records_expired += 1
                continue
            if self.indiss.cache.merge(record, expires_at_us):
                applied += 1
            else:
                self.stats.records_ignored += 1
        self.stats.bootstrap_records_applied += applied
        self.bootstrap_completed_at = now
        obs = self.indiss.node.network.obs
        if obs.on:
            obs.metrics.counter(
                "cache.bootstrap.applied", member=self.member_id
            ).inc(applied)
            obs.trace.instant(
                "cache.bootstrap.complete", now, self._obs_district(),
                tid=self.member_id, cat="gossip",
                args={"donor": str(message.get("from", "")), "applied": applied},
            )


__all__ = [
    "CacheGossiper",
    "GOSSIP_MEMO_KEY",
    "GossipStats",
    "GOSSIP_PORT",
    "DEFAULT_MAX_DELTA_RECORDS",
]
