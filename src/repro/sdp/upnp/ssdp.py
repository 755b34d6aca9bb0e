"""SSDP: the Simple Service Discovery Protocol layer of UPnP.

Message kinds (UPnP Device Architecture 1.0):

* ``M-SEARCH`` — multicast search request, scoped by ``ST`` (search target)
  and bounded by ``MX`` (max response jitter, seconds);
* search **response** — unicast ``HTTP/1.1 200 OK`` carrying ``ST``, ``USN``
  and ``LOCATION`` (URL of the device description document);
* ``NOTIFY`` with ``NTS: ssdp:alive`` — multicast advertisement;
* ``NOTIFY`` with ``NTS: ssdp:byebye`` — multicast retraction.

The paper's Fig. 4 trace shows exactly these messages; building and parsing
them is the job of this module, while :mod:`repro.sdp.upnp.device` and
:mod:`repro.sdp.upnp.control_point` implement the behaviour around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .constants import (
    DEFAULT_MAX_AGE_S,
    DEFAULT_MX_S,
    SERVER_STRING,
    SSDP_ALIVE,
    SSDP_ALL,
    SSDP_BYEBYE,
    SSDP_DISCOVER,
    SSDP_GROUP,
    SSDP_PORT,
    UPNP_ROOTDEVICE,
)
from ...net import shared_decode
from .errors import SsdpParseError
from .http import HEADER_END, Headers, HttpRequest, HttpResponse


class SsdpKind(IntEnum):
    """The four SSDP message kinds.  An ``IntEnum`` so the kinds hash in C:
    :func:`peek_ssdp_kind` is a receive-filter classifier, and its result
    is looked up in each receiving socket's admitted set."""

    MSEARCH = 1
    RESPONSE = 2
    ALIVE = 3
    BYEBYE = 4


@dataclass(frozen=True)
class SsdpMessage:
    """A parsed SSDP datagram, normalized across the four kinds."""

    kind: SsdpKind
    #: Search target (M-SEARCH / response ``ST``) or notification type
    #: (NOTIFY ``NT``).
    target: str = ""
    usn: str = ""
    location: str = ""
    mx_s: int = DEFAULT_MX_S
    max_age_s: int = DEFAULT_MAX_AGE_S
    server: str = ""
    raw_headers: Headers = None  # type: ignore[assignment]


#: Vendor-extension header carrying the remaining gateway-forward hop
#: budget.  Native stacks ignore unknown SSDP headers, so the extension is
#: invisible to ordinary control points and devices.
HOPS_HEADER = "HOPS.INDISS.ORG"


def build_msearch(st: str, mx_s: int = DEFAULT_MX_S, hops: int | None = None) -> bytes:
    """Render an M-SEARCH datagram (cf. the composed request in Fig. 4).

    ``hops`` adds the INDISS forwarding-budget extension header; None (the
    default, used by native control points) omits it.
    """
    fields = [
        ("HOST", f"{SSDP_GROUP}:{SSDP_PORT}"),
        ("MAN", f'"{SSDP_DISCOVER}"'),
        ("MX", str(mx_s)),
        ("ST", st),
    ]
    if hops is not None:
        fields.append((HOPS_HEADER, str(hops)))
    return HttpRequest(method="M-SEARCH", target="*", headers=Headers(fields)).render()


def build_search_response(
    st: str,
    usn: str,
    location: str,
    server: str = SERVER_STRING,
    max_age_s: int = DEFAULT_MAX_AGE_S,
) -> bytes:
    """Render a unicast 200 OK search response."""
    headers = Headers(
        [
            ("CACHE-CONTROL", f"max-age={max_age_s}"),
            ("EXT", ""),
            ("LOCATION", location),
            ("SERVER", server),
            ("ST", st),
            ("USN", usn),
            ("CONTENT-LENGTH", "0"),
        ]
    )
    return HttpResponse(status=200, reason="OK", headers=headers).render()


def build_notify_alive(
    nt: str,
    usn: str,
    location: str,
    server: str = SERVER_STRING,
    max_age_s: int = DEFAULT_MAX_AGE_S,
) -> bytes:
    headers = Headers(
        [
            ("HOST", f"{SSDP_GROUP}:{SSDP_PORT}"),
            ("CACHE-CONTROL", f"max-age={max_age_s}"),
            ("LOCATION", location),
            ("NT", nt),
            ("NTS", SSDP_ALIVE),
            ("SERVER", server),
            ("USN", usn),
        ]
    )
    return HttpRequest(method="NOTIFY", target="*", headers=headers).render()


def build_notify_byebye(nt: str, usn: str) -> bytes:
    headers = Headers(
        [
            ("HOST", f"{SSDP_GROUP}:{SSDP_PORT}"),
            ("NT", nt),
            ("NTS", SSDP_BYEBYE),
            ("USN", usn),
        ]
    )
    return HttpRequest(method="NOTIFY", target="*", headers=headers).render()


# -- encode-once builders ---------------------------------------------------
#
# Each ``seeded_*`` helper renders the wire bytes *and* constructs the
# exact :class:`SsdpMessage` that :func:`parse_ssdp` would return for
# them, so a sender can pre-seed the outgoing frame's decode memo
# (``decode_hint``) and no receiver ever runs the tokenizer.  Equivalence
# is asserted by tests/sdp/test_ssdp_seeded.py (``parse_ssdp(payload) ==
# message`` for every helper), which is what keeps seeding behaviourally
# invisible.


def seeded_msearch(
    st: str, mx_s: int = DEFAULT_MX_S, hops: int | None = None
) -> tuple[bytes, SsdpMessage]:
    payload = build_msearch(st, mx_s=mx_s, hops=hops)
    pairs = [
        ("HOST", f"{SSDP_GROUP}:{SSDP_PORT}"),
        ("MAN", f'"{SSDP_DISCOVER}"'),
        ("MX", str(mx_s)),
        ("ST", st),
    ]
    if hops is not None:
        pairs.append((HOPS_HEADER, str(hops)))
    message = SsdpMessage(
        kind=SsdpKind.MSEARCH,
        target=st,
        mx_s=mx_s,
        raw_headers=Headers.from_pairs(pairs),
    )
    return payload, message


def seeded_search_response(
    st: str,
    usn: str,
    location: str,
    server: str = SERVER_STRING,
    max_age_s: int = DEFAULT_MAX_AGE_S,
) -> tuple[bytes, SsdpMessage]:
    payload = build_search_response(
        st, usn, location, server=server, max_age_s=max_age_s
    )
    pairs = [
        ("CACHE-CONTROL", f"max-age={max_age_s}"),
        ("EXT", ""),
        ("LOCATION", location),
        ("SERVER", server),
        ("ST", st),
        ("USN", usn),
        ("CONTENT-LENGTH", "0"),
    ]
    message = SsdpMessage(
        kind=SsdpKind.RESPONSE,
        target=st,
        usn=usn,
        location=location,
        max_age_s=max_age_s,
        server=server,
        raw_headers=Headers.from_pairs(pairs),
    )
    return payload, message


def seeded_notify_alive(
    nt: str,
    usn: str,
    location: str,
    server: str = SERVER_STRING,
    max_age_s: int = DEFAULT_MAX_AGE_S,
) -> tuple[bytes, SsdpMessage]:
    payload = build_notify_alive(nt, usn, location, server=server, max_age_s=max_age_s)
    pairs = [
        ("HOST", f"{SSDP_GROUP}:{SSDP_PORT}"),
        ("CACHE-CONTROL", f"max-age={max_age_s}"),
        ("LOCATION", location),
        ("NT", nt),
        ("NTS", SSDP_ALIVE),
        ("SERVER", server),
        ("USN", usn),
    ]
    message = SsdpMessage(
        kind=SsdpKind.ALIVE,
        target=nt,
        usn=usn,
        location=location,
        max_age_s=max_age_s,
        server=server,
        raw_headers=Headers.from_pairs(pairs),
    )
    return payload, message


def seeded_notify_byebye(nt: str, usn: str) -> tuple[bytes, SsdpMessage]:
    payload = build_notify_byebye(nt, usn)
    pairs = [
        ("HOST", f"{SSDP_GROUP}:{SSDP_PORT}"),
        ("NT", nt),
        ("NTS", SSDP_BYEBYE),
        ("USN", usn),
    ]
    message = SsdpMessage(
        kind=SsdpKind.BYEBYE,
        target=nt,
        usn=usn,
        raw_headers=Headers.from_pairs(pairs),
    )
    return payload, message


def _parse_max_age(cache_control: str) -> int:
    for part in cache_control.split(","):
        name, sep, value = part.strip().partition("=")
        if sep and name.strip().lower() == "max-age":
            try:
                return int(value.strip())
            except ValueError:
                break
    return DEFAULT_MAX_AGE_S


#: Per-frame decode-memo key for SSDP datagrams: every native device,
#: control point, and the UPnP unit's SSDP parser share (or pre-seed)
#: parsed :class:`SsdpMessage` values under this key on the delivering
#: frame's :class:`~repro.net.FrameMemo`.
SSDP_MEMO_KEY = "ssdp-msg"


def peek_ssdp_kind(data: bytes) -> Optional[SsdpKind]:
    """Cheap first-line kind peek without tokenizing the datagram.

    The receive-filter classifier of every native SSDP socket (see
    :class:`~repro.net.ReceiveFilter`): a handful of prefix comparisons
    classify the frame before any header is split.  NOTIFY
    needs the ``NTS`` header to distinguish alive from byebye, so it is
    resolved with one substring probe over the raw bytes.  ``None`` means
    "not SSDP-shaped" (uppercase wire forms only — anything else falls
    through to the full tokenizer and its error reporting).
    """
    if data.startswith(b"NOTIFY "):
        # The NTS header value decides the kind; ssdp:alive / ssdp:byebye
        # cannot both appear (a header value occurs once per message).
        if b"ssdp:alive" in data:
            return SsdpKind.ALIVE
        if b"ssdp:byebye" in data:
            return SsdpKind.BYEBYE
        return None
    if data.startswith(b"M-SEARCH "):
        return SsdpKind.MSEARCH
    if data.startswith(b"HTTP/1.1 200") or data.startswith(b"HTTP/1.0 200"):
        return SsdpKind.RESPONSE
    return None


def parse_ssdp(data: bytes) -> SsdpMessage:
    """Parse a datagram into an :class:`SsdpMessage` in a single pass.

    Raises :class:`SsdpParseError` for datagrams that are not SSDP (the
    monitor component never calls this — detection is port-based — but the
    UPnP unit's parser does).

    Unlike the generic HTTP codec this tokenizer sweeps the header block
    exactly once, collecting the original ``(name, value)`` pairs for
    ``raw_headers`` and a lowered-name index for O(1) field access —
    no intermediate ``HttpRequest``/``HttpResponse`` and no per-field
    linear scans.
    """
    head, sep, body = data.partition(HEADER_END)
    if not sep:
        raise SsdpParseError("not an HTTP-shaped datagram: no end-of-headers marker")
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    start = lines[0].strip()

    pairs: list[tuple[str, str]] = []
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise SsdpParseError(f"malformed header line: {line!r}")
        name = name.strip()
        value = value.strip()
        pairs.append((name, value))
        # First value wins, matching Headers.get on repeated names.
        fields.setdefault(name.lower(), value)

    length_text = fields.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise SsdpParseError(
                f"non-integer Content-Length header: {length_text!r}"
            ) from exc
        if length > len(body):
            raise SsdpParseError(
                f"body shorter than Content-Length ({len(body)} < {length})"
            )

    parts = start.split(" ", 2)
    if parts[0].upper().startswith("HTTP/"):
        status_text = parts[1] if len(parts) > 1 else ""
        if not status_text.isdigit():
            raise SsdpParseError(f"malformed status code: {status_text!r}")
        status = int(status_text)
        if status != 200:
            raise SsdpParseError(f"unexpected SSDP response status {status}")
        return SsdpMessage(
            kind=SsdpKind.RESPONSE,
            target=fields.get("st", ""),
            usn=fields.get("usn", ""),
            location=fields.get("location", ""),
            max_age_s=_parse_max_age(fields.get("cache-control", "")),
            server=fields.get("server", ""),
            raw_headers=Headers.from_pairs(pairs),
        )

    if len(parts) < 3:
        raise SsdpParseError(f"malformed start line: {start!r}")
    method, _target, version = parts
    if not version.upper().startswith("HTTP/"):
        raise SsdpParseError(f"malformed HTTP version: {version!r}")
    method = method.upper()
    if method == "M-SEARCH":
        man = fields.get("man", "").strip('"')
        if man and man != SSDP_DISCOVER:
            raise SsdpParseError(f"M-SEARCH with unexpected MAN {man!r}")
        try:
            mx = int(fields.get("mx", str(DEFAULT_MX_S)))
        except ValueError:
            mx = DEFAULT_MX_S
        return SsdpMessage(
            kind=SsdpKind.MSEARCH,
            target=fields.get("st", ""),
            mx_s=mx,
            raw_headers=Headers.from_pairs(pairs),
        )
    if method == "NOTIFY":
        nts = fields.get("nts", "").lower()
        if nts == SSDP_ALIVE:
            return SsdpMessage(
                kind=SsdpKind.ALIVE,
                target=fields.get("nt", ""),
                usn=fields.get("usn", ""),
                location=fields.get("location", ""),
                max_age_s=_parse_max_age(fields.get("cache-control", "")),
                server=fields.get("server", ""),
                raw_headers=Headers.from_pairs(pairs),
            )
        if nts == SSDP_BYEBYE:
            return SsdpMessage(
                kind=SsdpKind.BYEBYE,
                target=fields.get("nt", ""),
                usn=fields.get("usn", ""),
                raw_headers=Headers.from_pairs(pairs),
            )
        raise SsdpParseError(f"NOTIFY with unknown NTS {nts!r}")
    raise SsdpParseError(f"unknown SSDP method {method!r}")


def _parse_or_none(payload: bytes) -> Optional[SsdpMessage]:
    try:
        return parse_ssdp(payload)
    except SsdpParseError:
        return None


def decode_ssdp_shared(payload: bytes, memo, counter=None) -> Optional[SsdpMessage]:
    """Parse-once entry point every SSDP receive path goes through.

    ``memo`` is the delivering frame's :class:`~repro.net.FrameMemo` (or
    None for raw bytes that did not arrive as a datagram): the first
    receiver parses and stores, later receivers — other devices on the
    segment, control points, the UPnP unit — reuse the stored message.
    Failed parses are stored as ``None`` so the rejection is shared too.
    ``counter`` is an optional :class:`~repro.net.ParseCounter` receiving
    one decoded/shared observation.
    """
    return shared_decode(memo, SSDP_MEMO_KEY, payload, _parse_or_none, counter)


def _split_urn(target: str) -> Optional[tuple[str, str, str, int]]:
    """Split ``urn:domain:kind:type:version``; None when not that shape."""
    parts = target.split(":")
    if len(parts) != 5 or parts[0].lower() != "urn":
        return None
    domain, kind, type_name, version_text = parts[1], parts[2], parts[3], parts[4]
    try:
        version = int(version_text)
    except ValueError:
        return None
    return domain, kind.lower(), type_name.lower(), version


def st_matches(search_target: str, offered: str, usn: str = "") -> bool:
    """UPnP search-target matching rules.

    * ``ssdp:all`` matches everything;
    * ``upnp:rootdevice`` matches root devices (offered must advertise it);
    * ``uuid:...`` matches the device with that UDN;
    * ``urn:...:device/service:Type:v`` matches the same type with an
      offered version >= the requested version.
    """
    st = search_target.strip()
    if not st:
        return False
    if st == SSDP_ALL:
        return True
    if st == UPNP_ROOTDEVICE:
        return offered == UPNP_ROOTDEVICE or UPNP_ROOTDEVICE in usn
    if st.lower().startswith("uuid:"):
        return offered.lower() == st.lower() or usn.lower().startswith(st.lower())
    wanted = _split_urn(st)
    if wanted is None:
        # Vendor-specific bare targets (the paper's M-SEARCH uses
        # ``urn:schemas-upnp org:device:clock`` without a version) compare
        # after stripping an optional trailing version from the offer.
        return _loose_equal(st, offered)
    have = _split_urn(offered)
    if have is None:
        return _loose_equal(st, offered)
    return wanted[:3] == have[:3] and have[3] >= wanted[3]


def _loose_equal(st: str, offered: str) -> bool:
    def strip_version(value: str) -> str:
        parts = value.split(":")
        if parts and parts[-1].isdigit():
            parts = parts[:-1]
        return ":".join(p.lower() for p in parts)

    return strip_version(st) == strip_version(offered)


__all__ = [
    "HOPS_HEADER",
    "SSDP_MEMO_KEY",
    "SsdpKind",
    "SsdpMessage",
    "build_msearch",
    "build_search_response",
    "build_notify_alive",
    "build_notify_byebye",
    "decode_ssdp_shared",
    "parse_ssdp",
    "peek_ssdp_kind",
    "seeded_msearch",
    "seeded_notify_alive",
    "seeded_notify_byebye",
    "seeded_search_response",
    "st_matches",
]
