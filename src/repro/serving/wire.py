"""JSON-ish wire codec for the discovery query RPC (serving tier).

The serving protocol is a deliberately boring request/response exchange
over the simulated UDP stack: one datagram per request, one per response,
canonical JSON (``sort_keys=True``) so identical messages are identical
bytes — the property every byte-reproducibility gate in this repo leans
on.  The codec lives apart from the gossip wire format on purpose: gossip
moves *cache state* between gateways, this protocol moves *answers* to
clients, and the two evolve independently.

Request kinds (``"kind"`` field):

* ``"type"``  — lookup-by-normalized-type (``st``), optional attribute
  predicate ``where`` ({name: value} exact match) and ``prefix`` flag
  (``st`` matched as a normalized-type prefix).
* ``"url"``   — lookup-by-url (``url``).
* ``"batch"`` — batched multi-target lookup: ``targets`` is a list of
  service types resolved in one round trip.
* ``"districts"`` — "which districts have X": ``st`` again, the answer
  maps district ids to record counts.
* Any request may carry ``scope`` — ``{"districts": [...], "hops": n}``
  bounds: answers are filtered to records whose service URL resolves into
  one of the named districts, and ``hops`` declares the client's
  forwarding budget (echoed, never exceeded).

Responses carry ``status`` (``"ok"`` | ``"miss"`` | ``"error"``), the
matched records, the serving index ``ver`` (cache version at answer
time), and the honesty stamp ``staleness_us`` — see
:mod:`repro.serving.frontend` for the contract.

:func:`encode` and :func:`decode` are the reference codec.  The serving
hot path produces the same bytes faster: :func:`encode_flat` formats the
flat top level of a message inline, and a :class:`RecordFragment` holds a
record's canonical JSON split around its only per-query field,
``stale_us``, so a reply re-renders a record as ``pre + stamp + suf``.
Senders seed each frame's memo with the message they encoded
(``decode_hint=(WIRE_MEMO_KEY, message)``) and receivers read it back
through :func:`repro.net.shared_decode`, so neither side parses JSON.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Mapping, NamedTuple, Optional

from ..sdp.base import ServiceRecord

#: The frontend's well-known UDP port.  Gossip owns 4610; the serving
#: tier sits next to it on the gateway, one port up the block.
SERVING_PORT = 4620

#: Wire-format version, bumped on incompatible change.
WIRE_VERSION = 1

REQUEST_KINDS = ("type", "url", "batch", "districts")

#: Frame-memo key of the decoded message (see :class:`repro.net.FrameMemo`).
WIRE_MEMO_KEY = "serving-json"

#: The reference encoder's settings, built once (``json.dumps`` with a
#: keyword argument builds a fresh encoder on every call).  It escapes
#: every string, key or value, with ``_encode_str`` (``ensure_ascii``).
_ENCODER = json.JSONEncoder(sort_keys=True)
_encode_value = _ENCODER.encode


def encode(message: Mapping[str, Any]) -> bytes:
    """Canonical-JSON encode: same message, same bytes, every run."""
    return json.dumps(message, sort_keys=True).encode("utf-8")


def render_object(members: Mapping[str, str]) -> str:
    """A JSON object, keys sorted, from already-encoded member values."""
    return (
        "{"
        + ", ".join([f"{_encode_str(key)}: {members[key]}" for key in sorted(members)])
        + "}"
    )


def encode_flat(
    message: Mapping[str, Any], rendered: Optional[Mapping[str, str]] = None
) -> bytes:
    """:func:`encode`, byte for byte, for a message with string keys.

    Top-level ``str``, ``int`` and ``True`` values are formatted here;
    ``rendered`` maps top-level keys to JSON text already produced for
    their values (reply record arrays built from fragments); every other
    value goes through the reference encoder.
    """
    members = []
    for key in sorted(message):
        if rendered is not None and key in rendered:
            text = rendered[key]
        else:
            value = message[key]
            kind = type(value)
            if kind is str:
                text = _encode_str(value)
            elif kind is int:
                text = int.__repr__(value)
            elif value is True:
                text = "true"
            else:
                text = _encode_value(value)
        members.append(f"{_encode_str(key)}: {text}")
    return ("{" + ", ".join(members) + "}").encode("utf-8")


def decode(payload: bytes) -> Optional[dict]:
    """Best-effort decode; None for anything that is not a JSON object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(message, dict):
        return None
    return message


def record_to_wire(record: ServiceRecord, staleness_us: int) -> dict:
    """One matched record plus its per-record staleness (µs since the
    record's implied observation at the origin)."""
    wire = {
        "t": record.service_type,
        "u": record.url,
        "l": record.lifetime_s,
        "s": record.source_sdp,
        "stale_us": staleness_us,
    }
    if record.attributes:
        wire["a"] = dict(record.attributes)
    if record.location:
        wire["loc"] = record.location
    return wire


class RecordFragment(NamedTuple):
    """One record's wire form, pre-encoded around its ``stale_us`` field.

    ``record`` is the object the fragment was built from; a holder checks
    it by identity before reuse.  ``wire`` is :func:`record_to_wire`
    without ``stale_us``, shared read-only by every reply that carries it.
    """

    record: ServiceRecord
    wire: dict
    pre: str
    suf: str

    def to_wire(self, staleness_us: int) -> dict:
        """Equals ``record_to_wire(self.record, staleness_us)``."""
        return {**self.wire, "stale_us": staleness_us}

    def render(self, staleness_us: int) -> str:
        """Equals ``_ENCODER.encode(self.to_wire(staleness_us))``."""
        return f"{self.pre}{staleness_us}{self.suf}"


def record_fragment(record: ServiceRecord) -> RecordFragment:
    """Build the :class:`RecordFragment` of ``record``."""
    body = record_to_wire(record, 0)
    del body["stale_us"]
    head: list[str] = []
    tail: list[str] = []
    for key in sorted(body):
        (head if key < "stale_us" else tail).append(
            f"{_encode_str(key)}: {_encode_value(body[key])}"
        )
    pre = "{" + "".join([f"{member}, " for member in head]) + '"stale_us": '
    suf = "".join([f", {member}" for member in tail]) + "}"
    return RecordFragment(record, body, pre, suf)


def request(kind: str, rid: int, **fields: Any) -> dict:
    base = {"v": WIRE_VERSION, "kind": kind, "rid": rid}
    base.update(fields)
    return base


def response(
    rid: int,
    status: str,
    *,
    records: Optional[list] = None,
    staleness_us: int = 0,
    ver: int = 0,
    served_by: str = "",
    **fields: Any,
) -> dict:
    base = {
        "v": WIRE_VERSION,
        "kind": "resp",
        "rid": rid,
        "status": status,
        "staleness_us": staleness_us,
        "ver": ver,
        "served_by": served_by,
    }
    if records is not None:
        base["records"] = records
    base.update(fields)
    return base


__all__ = [
    "SERVING_PORT",
    "WIRE_VERSION",
    "REQUEST_KINDS",
    "WIRE_MEMO_KEY",
    "RecordFragment",
    "encode",
    "encode_flat",
    "decode",
    "render_object",
    "record_fragment",
    "record_to_wire",
    "request",
    "response",
]
