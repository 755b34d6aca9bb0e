"""IPv4-style addressing for the simulated LAN.

Addresses are dotted-quad strings (``"192.168.1.10"``); endpoints pair an
address with a port.  The helpers here validate addresses and classify the
multicast range (224.0.0.0/4), which is what SDP detection relies on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import AddressError

#: Start of the IPv4 multicast block (224.0.0.0/4).
_MULTICAST_FIRST_OCTET_LOW = 224
_MULTICAST_FIRST_OCTET_HIGH = 239

#: Loopback address, usable on every node.
LOOPBACK = "127.0.0.1"

#: Wildcard bind address.
ANY = "0.0.0.0"

#: Broadcast to all nodes on the LAN segment.
BROADCAST = "255.255.255.255"


@lru_cache(maxsize=65536)
def parse_ipv4(address: str) -> tuple[int, int, int, int]:
    """Parse and validate a dotted-quad address, returning its four octets.

    Raises :class:`AddressError` for anything that is not a well-formed IPv4
    literal.  Results are memoized: the delivery hot path classifies the
    same few thousand host/group strings millions of times, so each parses
    once (failures are not cached and re-raise).
    """
    if not isinstance(address, str):
        raise AddressError(f"address must be a string, got {type(address).__name__}")
    parts = address.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {address!r}")
    octets = []
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"malformed IPv4 octet {part!r} in {address!r}")
        value = int(part)
        if value > 255:
            raise AddressError(f"IPv4 octet out of range in {address!r}")
        octets.append(value)
    return tuple(octets)  # type: ignore[return-value]


def is_valid_ipv4(address: str) -> bool:
    """True when ``address`` parses as a dotted-quad IPv4 literal."""
    try:
        parse_ipv4(address)
    except AddressError:
        return False
    return True


def is_multicast(address: str) -> bool:
    """True when ``address`` falls within 224.0.0.0/4."""
    first = parse_ipv4(address)[0]
    return _MULTICAST_FIRST_OCTET_LOW <= first <= _MULTICAST_FIRST_OCTET_HIGH


def is_loopback(address: str) -> bool:
    """True for the 127.0.0.0/8 block."""
    return parse_ipv4(address)[0] == 127


def is_broadcast(address: str) -> bool:
    return address == BROADCAST


def validate_port(port: int) -> int:
    """Validate a UDP/TCP port number and return it."""
    if not isinstance(port, int) or isinstance(port, bool):
        raise AddressError(f"port must be an int, got {port!r}")
    if not 0 < port <= 65535:
        raise AddressError(f"port out of range: {port}")
    return port


class Endpoint(NamedTuple):
    """An (address, port) pair; the unit of source/destination on the LAN."""

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"host:port"`` into an Endpoint."""
        host, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise AddressError(f"malformed endpoint: {text!r}")
        parse_ipv4(host)
        return cls(host, validate_port(int(port)))

    @property
    def is_multicast(self) -> bool:
        return is_multicast(self.host)


class AddressAllocator:
    """Hands out sequential host addresses for test topologies.

    A three-octet prefix (``"192.168.1"``) allocates a /24 — 254 hosts, the
    classic home-LAN segment.  A two-octet prefix (``"10.7"``) allocates a
    /16 — enough for the multi-thousand-node metro scenarios, where a /24
    per segment is the binding constraint.

    Host numbers run from 1; :meth:`reserve` sets a block of them aside
    for idle hosts that exist only as addresses until :meth:`claim`
    takes one out.
    """

    def __init__(self, prefix: str = "192.168.1"):
        parts = prefix.split(".")
        if len(parts) not in (2, 3) or not all(
            p.isdigit() and int(p) <= 255 for p in parts
        ):
            raise AddressError(f"prefix must be two or three octets, got {prefix!r}")
        self._prefix = prefix
        self._octets = tuple(int(p) for p in parts)
        self._wide = len(parts) == 2
        self._next_host = 1
        #: Reserved, unclaimed host numbers as ``(first_host, count)`` runs.
        self._idle_runs: list[tuple[int, int]] = []

    @property
    def capacity(self) -> int:
        """Total hosts this allocator can hand out."""
        return 255 * 254 if self._wide else 254

    @property
    def remaining(self) -> int:
        """Hosts still available."""
        return self.capacity - (self._next_host - 1)

    @property
    def cidr(self) -> str:
        """The subnet in prefix-length notation (``"10.7.0.0/16"``)."""
        return f"{self._prefix}.0.0/16" if self._wide else f"{self._prefix}.0/24"

    @property
    def idle(self) -> int:
        """Reserved host numbers not yet claimed."""
        return sum(count for _, count in self._idle_runs)

    def allocate(self) -> str:
        """Return the next unused address in the subnet."""
        if self.remaining <= 0:
            raise AddressError(f"subnet {self.cidr} exhausted")
        if self._wide:
            hi, lo = divmod(self._next_host - 1, 254)
            address = f"{self._prefix}.{hi}.{lo + 1}"
        else:
            address = f"{self._prefix}.{self._next_host}"
        self._next_host += 1
        return address

    def reserve(self, count: int) -> None:
        """Set the next ``count`` host numbers aside as one idle run."""
        if count > self.remaining:
            raise AddressError(f"subnet {self.cidr} exhausted")
        if count > 0:
            self._idle_runs.append((self._next_host, count))
            self._next_host += count

    def claim(self, address: str) -> bool:
        """Take ``address`` out of the idle runs; False when not reserved."""
        try:
            octets = parse_ipv4(address)
        except AddressError:
            return False
        width = len(self._octets)
        last = octets[3]
        if octets[:width] != self._octets or not 1 <= last <= 254:
            return False
        host = octets[2] * 254 + last if self._wide else last
        runs = self._idle_runs
        for i, (first, count) in enumerate(runs):
            if first <= host < first + count:
                before, after = (first, host - first), (host + 1, first + count - host - 1)
                runs[i:i + 1] = [run for run in (before, after) if run[1]]
                return True
        return False


__all__ = [
    "Endpoint",
    "AddressAllocator",
    "LOOPBACK",
    "ANY",
    "BROADCAST",
    "parse_ipv4",
    "is_valid_ipv4",
    "is_multicast",
    "is_loopback",
    "is_broadcast",
    "validate_port",
]
