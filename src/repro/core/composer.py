"""Composer side of the event-based translation (paper §2.2).

A composer assembles event streams back into native SDP messages "totally
hidden to components outside INDISS".  Composers must understand every
mandatory event and are free to handle or ignore SDP-specific ones; ignored
events are counted, which the interoperability tests use to verify the
discard rule (paper §2.3: richer SDPs' extra events "are simply discarded
... as they are unknown").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..net import Endpoint
from .events import Event, EventType, MANDATORY_EVENTS

if TYPE_CHECKING:  # pragma: no cover
    from .session import TranslationSession


@dataclass(frozen=True)
class OutboundMessage:
    """A native message a composer wants on the wire.

    ``transport`` selects the path: ``"udp"`` datagrams go to
    ``destination``; ``"http"`` messages are requests for ``url`` (the unit
    runtime runs the TCP exchange and feeds the response back to the unit's
    parser).
    """

    payload: bytes
    destination: Endpoint | None = None
    transport: str = "udp"
    url: str = ""
    #: Label for traces/tests ("msearch", "srvrply", "get-description"...).
    label: str = ""
    #: Optional (memo_key, decoded_form) pair seeding the outgoing frame's
    #: :class:`repro.net.FrameMemo` — the composer just built the payload
    #: from this structured form, so receivers need not re-derive it.
    decode_hint: tuple | None = None


class ComposeError(Exception):
    """Raised when a composer cannot build a message from a stream."""


class SdpComposer(ABC):
    """Base class for per-protocol composers."""

    sdp_id: str = ""

    #: Event types beyond the mandatory set this composer understands.
    extra_understood: frozenset[EventType] = frozenset()

    def __init__(self) -> None:
        self.events_discarded = 0
        self.discarded_types: set[str] = set()

    def understands(self, event_type: EventType) -> bool:
        return event_type in MANDATORY_EVENTS or event_type in self.extra_understood

    def filter_stream(self, events: Iterable[Event]) -> list[Event]:
        """Keep understood events; count and drop unknown ones."""
        kept = []
        for event in events:
            if self.understands(event.type):
                kept.append(event)
            else:
                self.events_discarded += 1
                self.discarded_types.add(event.type.name)
        return kept

    @abstractmethod
    def compose(self, events: list[Event], session: "TranslationSession") -> list[OutboundMessage]:
        """Assemble native messages from a bracketed event stream."""


__all__ = ["SdpComposer", "OutboundMessage", "ComposeError"]
