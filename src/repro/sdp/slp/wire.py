"""SLPv2 binary wire codec (RFC 2608 §8).

Layout of the common header::

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |    Version    |  Function-ID  |            Length             |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    | Length, contd.|O|F|R|       reserved          |Next Ext Offset|
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |  Next Extension Offset, contd.|              XID              |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |      Language Tag Length      |         Language Tag          \\
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

Strings on the wire are 2-byte-length-prefixed UTF-8.  Scope and previous
responder lists serialize comma-joined.  Authentication block counts are
always written as zero (and non-zero counts are rejected on decode).
"""

from __future__ import annotations

import struct

from ...net import Memo
from .constants import (
    ErrorCode,
    FunctionId,
    RESERVED_FLAG_MASK,
    SLP_VERSION,
)
from .errors import SlpDecodeError, SlpEncodeError
from .messages import (
    AttrRply,
    AttrRqst,
    DAAdvert,
    Header,
    SAAdvert,
    SlpMessage,
    SrvAck,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    SrvTypeRply,
    SrvTypeRqst,
    UrlEntry,
)

_HEADER_FIXED = struct.Struct("!BB")  # version, function id


class _Writer:
    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def u8(self, value: int) -> None:
        self._chunks.append(struct.pack("!B", value & 0xFF))

    def u16(self, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise SlpEncodeError(f"u16 out of range: {value}")
        self._chunks.append(struct.pack("!H", value))

    def u24(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFF:
            raise SlpEncodeError(f"u24 out of range: {value}")
        self._chunks.append(struct.pack("!I", value)[1:])

    def u32(self, value: int) -> None:
        self._chunks.append(struct.pack("!I", value & 0xFFFFFFFF))

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) > 0xFFFF:
            raise SlpEncodeError(f"string too long for SLP: {len(data)} bytes")
        self.u16(len(data))
        self._chunks.append(data)

    def string_list(self, items) -> None:
        self.string(",".join(items))

    def url_entry(self, entry: UrlEntry) -> None:
        self.u8(0)  # reserved
        if not 0 <= entry.lifetime_s <= 0xFFFF:
            raise SlpEncodeError(f"lifetime out of range: {entry.lifetime_s}")
        self.u16(entry.lifetime_s)
        self.string(entry.url)
        self.u8(0)  # number of URL auth blocks

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        if self.remaining < count:
            raise SlpDecodeError(
                f"truncated message: wanted {count} bytes, have {self.remaining}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self._take(2))[0]

    def u24(self) -> int:
        return struct.unpack("!I", b"\x00" + self._take(3))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self._take(4))[0]

    def string(self) -> str:
        length = self.u16()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SlpDecodeError(f"invalid UTF-8 in string: {exc}") from exc

    def error_code(self) -> ErrorCode:
        try:
            return ErrorCode(self.u16())
        except ValueError as exc:
            raise SlpDecodeError(f"unknown error code: {exc}") from exc

    def string_list(self) -> tuple[str, ...]:
        text = self.string()
        if not text:
            return ()
        return tuple(text.split(","))

    def url_entry(self) -> UrlEntry:
        self.u8()  # reserved
        lifetime = self.u16()
        url = self.string()
        auth_count = self.u8()
        if auth_count:
            raise SlpDecodeError("URL authentication blocks are not supported")
        return UrlEntry(url=url, lifetime_s=lifetime)


def _encode_header(writer: _Writer, header: Header, body: bytes) -> bytes:
    lang = header.language_tag.encode("ascii")
    header_len = 2 + 3 + 2 + 3 + 2 + 2 + len(lang)
    total = header_len + len(body)
    out = _Writer()
    out.u8(SLP_VERSION)
    out.u8(int(header.function_id))
    out.u24(total)
    if header.flags & RESERVED_FLAG_MASK:
        raise SlpEncodeError(f"reserved flag bits set: {header.flags:#06x}")
    out.u16(header.flags)
    out.u24(0)  # next extension offset
    out.u16(header.xid)
    out.u16(len(lang))
    out._chunks.append(lang)
    out._chunks.append(body)
    return out.getvalue()


#: Per-frame decode-memo key for the SLP wire codec: every native SLP
#: endpoint and the SLP unit share (or pre-seed) decoded messages under
#: this key on the delivering frame's FrameMemo.
WIRE_MEMO_KEY = "slp-wire"


#: Entries a sender's encode memo holds (see :func:`encode`).
ENCODE_MEMO_SIZE = 64

#: Packs the XID through ``struct`` as the reference does, so an XID of
#: the wrong type fails with the same exception on both paths.
_XID = struct.Struct("!H")


def encode(message: SlpMessage, memo: Memo | None = None) -> bytes:
    """Render any SLP message dataclass to its binary wire form.

    With a sender's ``memo`` (from ``Network.memo(ENCODE_MEMO_SIZE)``),
    ``SrvRqst`` and ``SrvRply`` are encoded once per distinct body: a
    repeat differs only in its XID, so the frame is spliced together from
    the remembered header prefix, the XID, the language tag and the
    remembered body.  Body keys start with the message class and prefix
    keys with the function id, so one memo holds both.  The memo fills
    only from a successful :func:`_encode_reference` run, so a message it
    rejects is rejected here too; every other type, and every message
    sent without a memo, goes through the reference encoder directly.
    """
    cls = type(message)
    if cls is SrvRqst and memo is not None:
        key = (cls, message.prlist, message.service_type, message.scopes,
               message.predicate, message.spi)
    elif cls is SrvRply and memo is not None:
        key = (cls, message.error_code, message.url_entries)
    else:
        return _encode_reference(message)
    header = message.header
    xid = header.xid
    try:
        body = memo.get(key)
    except TypeError:  # an unhashable field (a list of scopes, say)
        return _encode_reference(message)
    if body is not None and 0 <= xid <= 0xFFFF:
        parts = memo.get(
            (header.function_id, header.flags, header.language_tag, len(body))
        )
        if parts is not None:
            return parts[0] + _XID.pack(xid) + parts[1] + body
    frame = _encode_reference(message)
    # Split the fresh frame at the XID (byte 10) and the end of the
    # language tag to remember both pieces.
    lang_end = 14 + (frame[12] << 8 | frame[13])
    body = memo.remember(key, frame[lang_end:])
    memo.remember(
        (header.function_id, header.flags, header.language_tag, len(body)),
        (frame[:10], frame[12:lang_end]),
    )
    return frame


def _encode_reference(message: SlpMessage) -> bytes:
    """The reference encoder: every field written through :class:`_Writer`.

    :func:`encode` must produce exactly these bytes for every message.
    """
    writer = _Writer()
    header = message.header
    fid = header.function_id

    if isinstance(message, SrvRqst):
        writer.string_list(message.prlist)
        writer.string(message.service_type)
        writer.string_list(message.scopes)
        writer.string(message.predicate)
        writer.string(message.spi)
    elif isinstance(message, SrvRply):
        writer.u16(int(message.error_code))
        writer.u16(len(message.url_entries))
        for entry in message.url_entries:
            writer.url_entry(entry)
    elif isinstance(message, SrvReg):
        writer.url_entry(message.url_entry)
        writer.string(message.service_type)
        writer.string_list(message.scopes)
        writer.string(message.attr_list)
        writer.u8(0)  # attr auth block count
    elif isinstance(message, SrvDeReg):
        writer.string_list(message.scopes)
        writer.url_entry(message.url_entry)
        writer.string(message.tag_list)
    elif isinstance(message, SrvAck):
        writer.u16(int(message.error_code))
    elif isinstance(message, AttrRqst):
        writer.string_list(message.prlist)
        writer.string(message.url)
        writer.string_list(message.scopes)
        writer.string(message.tag_list)
        writer.string(message.spi)
    elif isinstance(message, AttrRply):
        writer.u16(int(message.error_code))
        writer.string(message.attr_list)
        writer.u8(0)  # attr auth block count
    elif isinstance(message, DAAdvert):
        writer.u16(int(message.error_code))
        writer.u32(message.boot_timestamp)
        writer.string(message.url)
        writer.string_list(message.scopes)
        writer.string(message.attr_list)
        writer.string(message.spi)
        writer.u8(0)  # auth block count
    elif isinstance(message, SrvTypeRqst):
        writer.string_list(message.prlist)
        writer.string(message.naming_authority)
        writer.string_list(message.scopes)
    elif isinstance(message, SrvTypeRply):
        writer.u16(int(message.error_code))
        writer.string_list(message.service_types)
    elif isinstance(message, SAAdvert):
        writer.string(message.url)
        writer.string_list(message.scopes)
        writer.string(message.attr_list)
        writer.u8(0)  # auth block count
    else:  # pragma: no cover - exhaustiveness guard
        raise SlpEncodeError(f"cannot encode {type(message).__name__}")

    return _encode_header(writer, header, writer.getvalue())


#: Every function id RFC 2608 defines, as plain ints.
_FUNCTION_IDS = frozenset(int(fid) for fid in FunctionId)


def peek_function_id(data: bytes) -> int | None:
    """The function id in header byte 1 of an SLPv2 frame, without decoding.

    A receive-filter classifier (see :class:`~repro.net.ReceiveFilter`):
    it returns a plain int, or ``None`` when the frame is not SLPv2-shaped
    or carries an id RFC 2608 does not define — such frames still reach
    the socket's handler and its decoder's error accounting.
    """
    if len(data) > 1 and data[0] == SLP_VERSION and data[1] in _FUNCTION_IDS:
        return data[1]
    return None


def decode_header(data: bytes) -> tuple[Header, int, int]:
    """Decode the common header; returns (header, total_length, body_offset)."""
    if len(data) < 5:
        raise SlpDecodeError(f"message too short for SLP header: {len(data)} bytes")
    version, function_raw = _HEADER_FIXED.unpack_from(data, 0)
    if version != SLP_VERSION:
        raise SlpDecodeError(f"unsupported SLP version {version}")
    try:
        function_id = FunctionId(function_raw)
    except ValueError as exc:
        raise SlpDecodeError(f"unknown function id {function_raw}") from exc
    reader = _Reader(data)
    reader._take(2)
    total_length = reader.u24()
    if total_length > len(data):
        raise SlpDecodeError(
            f"declared length {total_length} exceeds buffer {len(data)}"
        )
    flags = reader.u16()
    reader.u24()  # next extension offset (unsupported, ignored)
    xid = reader.u16()
    lang_len = reader.u16()
    try:
        language = reader._take(lang_len).decode("ascii")
    except UnicodeDecodeError as exc:
        raise SlpDecodeError(f"non-ASCII language tag: {exc}") from exc
    header = Header(function_id=function_id, xid=xid, flags=flags, language_tag=language)
    return header, total_length, reader._pos


def decode(data: bytes) -> SlpMessage:
    """Decode binary wire data into the corresponding message dataclass."""
    header, total_length, offset = decode_header(data)
    reader = _Reader(data[offset:total_length])
    fid = header.function_id

    if fid is FunctionId.SRVRQST:
        return SrvRqst(
            header=header,
            prlist=reader.string_list(),
            service_type=reader.string(),
            scopes=reader.string_list(),
            predicate=reader.string(),
            spi=reader.string(),
        )
    if fid is FunctionId.SRVRPLY:
        error = reader.error_code()
        count = reader.u16()
        entries = tuple(reader.url_entry() for _ in range(count))
        return SrvRply(header=header, error_code=error, url_entries=entries)
    if fid is FunctionId.SRVREG:
        entry = reader.url_entry()
        service_type = reader.string()
        scopes = reader.string_list()
        attr_list = reader.string()
        if reader.u8():
            raise SlpDecodeError("attribute authentication blocks are not supported")
        return SrvReg(
            header=header,
            url_entry=entry,
            service_type=service_type,
            scopes=scopes,
            attr_list=attr_list,
        )
    if fid is FunctionId.SRVDEREG:
        return SrvDeReg(
            header=header,
            scopes=reader.string_list(),
            url_entry=reader.url_entry(),
            tag_list=reader.string(),
        )
    if fid is FunctionId.SRVACK:
        return SrvAck(header=header, error_code=reader.error_code())
    if fid is FunctionId.ATTRRQST:
        return AttrRqst(
            header=header,
            prlist=reader.string_list(),
            url=reader.string(),
            scopes=reader.string_list(),
            tag_list=reader.string(),
            spi=reader.string(),
        )
    if fid is FunctionId.ATTRRPLY:
        error = reader.error_code()
        attr_list = reader.string()
        if reader.u8():
            raise SlpDecodeError("attribute authentication blocks are not supported")
        return AttrRply(header=header, error_code=error, attr_list=attr_list)
    if fid is FunctionId.DAADVERT:
        error = reader.error_code()
        boot = reader.u32()
        url = reader.string()
        scopes = reader.string_list()
        attr_list = reader.string()
        spi = reader.string()
        if reader.u8():
            raise SlpDecodeError("DAAdvert authentication blocks are not supported")
        return DAAdvert(
            header=header,
            error_code=error,
            boot_timestamp=boot,
            url=url,
            scopes=scopes,
            attr_list=attr_list,
            spi=spi,
        )
    if fid is FunctionId.SRVTYPERQST:
        return SrvTypeRqst(
            header=header,
            prlist=reader.string_list(),
            naming_authority=reader.string(),
            scopes=reader.string_list(),
        )
    if fid is FunctionId.SRVTYPERPLY:
        return SrvTypeRply(
            header=header,
            error_code=reader.error_code(),
            service_types=reader.string_list(),
        )
    if fid is FunctionId.SAADVERT:
        url = reader.string()
        scopes = reader.string_list()
        attr_list = reader.string()
        if reader.u8():
            raise SlpDecodeError("SAAdvert authentication blocks are not supported")
        return SAAdvert(header=header, url=url, scopes=scopes, attr_list=attr_list)

    raise SlpDecodeError(f"unhandled function id {fid}")  # pragma: no cover


def decode_or_none(data: bytes) -> SlpMessage | None:
    """:func:`decode`, or ``None`` for bytes that are not an SLP message:
    the codec shape :func:`~repro.net.shared_decode` takes."""
    try:
        return decode(data)
    except SlpDecodeError:
        return None


__all__ = [
    "encode",
    "decode",
    "decode_header",
    "decode_or_none",
    "ENCODE_MEMO_SIZE",
    "peek_function_id",
    "WIRE_MEMO_KEY",
]
