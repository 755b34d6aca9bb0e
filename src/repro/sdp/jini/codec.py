"""A DataOutputStream-flavoured binary codec for the Jini substrate.

Real Jini moves serialized Java objects; reproducing Java serialization
would add nothing to the discovery behaviour INDISS translates, so this
codec keeps the *stream primitives* (big-endian ints, length-prefixed UTF
strings, counted sequences) and encodes the small value objects the
discovery and lookup exchanges need.  DESIGN.md records the substitution.
"""

from __future__ import annotations

import struct

from .errors import JiniDecodeError


class StreamWriter:
    """Big-endian primitive writer (java.io.DataOutputStream flavour)."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def write_byte(self, value: int) -> "StreamWriter":
        self._chunks.append(struct.pack("!B", value & 0xFF))
        return self

    def write_int(self, value: int) -> "StreamWriter":
        self._chunks.append(struct.pack("!i", value))
        return self

    def write_long(self, value: int) -> "StreamWriter":
        self._chunks.append(struct.pack("!q", value))
        return self

    def write_utf(self, text: str) -> "StreamWriter":
        data = text.encode("utf-8")
        if len(data) > 0xFFFF:
            raise ValueError(f"UTF string too long: {len(data)}")
        self._chunks.append(struct.pack("!H", len(data)))
        self._chunks.append(data)
        return self

    def write_utf_list(self, items) -> "StreamWriter":
        self.write_int(len(items))
        for item in items:
            self.write_utf(item)
        return self

    def write_str_map(self, mapping: dict[str, str]) -> "StreamWriter":
        self.write_int(len(mapping))
        for key, value in mapping.items():
            self.write_utf(key)
            self.write_utf(value)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class StreamReader:
    """Big-endian primitive reader matching :class:`StreamWriter`."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        if self.remaining < count:
            raise JiniDecodeError(f"truncated stream: wanted {count}, have {self.remaining}")
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_byte(self) -> int:
        return self._take(1)[0]

    def read_int(self) -> int:
        return struct.unpack("!i", self._take(4))[0]

    def read_long(self) -> int:
        return struct.unpack("!q", self._take(8))[0]

    def read_utf(self) -> str:
        length = struct.unpack("!H", self._take(2))[0]
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JiniDecodeError(f"invalid UTF-8: {exc}") from exc

    def read_utf_list(self) -> list[str]:
        count = self.read_int()
        if count < 0 or count > 10_000:
            raise JiniDecodeError(f"implausible list length {count}")
        return [self.read_utf() for _ in range(count)]

    def read_str_map(self) -> dict[str, str]:
        count = self.read_int()
        if count < 0 or count > 10_000:
            raise JiniDecodeError(f"implausible map length {count}")
        return {self.read_utf(): self.read_utf() for _ in range(count)}


__all__ = ["StreamWriter", "StreamReader"]
