"""Translation sessions (paper §2.2, Figure 3).

"The translation of SDP functions ... is actually achieved in terms of
translation of processes and not simply of exchanged messages."  A session
is one such process: it starts when a native request enters INDISS, spans
any recursive requests the target unit must issue (Fig. 4's extra GET), and
ends when the origin unit's composer has sent the native reply back to the
requester, and ends everywhere at once: every target unit it was fanned
out to is released from it, and a unit that lost the race cancels its timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..net import Endpoint
from .events import Event, SDP_RES_SERV_URL


def stream_has_result(stream: list[Event]) -> bool:
    """True when a reply stream actually names a service."""
    return any(
        event.type is SDP_RES_SERV_URL and event.get("url") for event in stream
    )


@dataclass
class TranslationSession:
    """State shared by the units cooperating on one translated exchange."""

    origin_sdp: str
    requester: Optional[Endpoint]
    request_stream: list[Event] = field(default_factory=list)
    created_at_us: int = 0
    #: From ``Network.session_id_source``; composer-only sessions keep 0.
    session_id: int = 0
    #: Scratch variables recorded along the way (xid, service type, ...).
    vars: dict[str, Any] = field(default_factory=dict)
    #: Set by the bridge: receives the reply event stream for composition.
    on_reply: Optional[Callable[[list[Event], "TranslationSession"], None]] = None
    #: Set by the session manager: called once ``on_reply`` has returned,
    #: to release the session from the manager's table and its targets.
    on_done: Optional[Callable[["TranslationSession"], None]] = None
    #: The units the request was fanned out to (``Indiss.fan_out``).
    targets: list[Any] = field(default_factory=list)
    completed: bool = False
    answered_from_cache: bool = False
    #: How many target units are still driving native discovery for this
    #: session.  A reply that names a service completes the session at
    #: once; an empty give-up (timeout/error) only completes it when every
    #: other target has given up too — so a fast protocol's fruitless
    #: timeout cannot clip a slower protocol's answer.
    pending_targets: int = 1
    #: Human-readable log of the translation steps (Fig. 4 reproduction).
    steps: list[str] = field(default_factory=list)

    def log(self, step: str) -> None:
        self.steps.append(step)

    def complete_with(self, reply_stream: list[Event]) -> bool:
        """Deliver the reply stream once; duplicates are ignored.

        Returns True when this call actually completed the session.
        """
        if self.completed:
            return False
        if self.pending_targets > 1 and not stream_has_result(reply_stream):
            self.pending_targets -= 1
            self.log(
                "session: target gave up empty-handed; "
                f"{self.pending_targets} target(s) still searching"
            )
            return False
        self.completed = True
        if self.on_reply is not None:
            self.on_reply(reply_stream, self)
        if self.on_done is not None:
            self.on_done(self)
        return True


__all__ = ["TranslationSession", "stream_has_result"]
