"""SLP service-type strings (RFC 2608 §4, RFC 2609).

A service type is ``service:<abstract>[:<concrete>]`` with an optional
naming authority (``service:clock.acme``).  Matching rules: a request for
the abstract type matches any concrete type beneath it; a request for a
concrete type matches only that concrete type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SlpServiceTypeError

_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789+-")


def _validate_token(token: str, what: str) -> str:
    if not token:
        raise SlpServiceTypeError(f"empty {what} in service type")
    lowered = token.lower()
    if not set(lowered) <= _ALLOWED:
        raise SlpServiceTypeError(f"illegal character in {what}: {token!r}")
    return lowered


@dataclass(frozen=True)
class ServiceType:
    """A parsed SLP service type."""

    abstract: str
    concrete: str = ""
    naming_authority: str = ""

    @classmethod
    @lru_cache(maxsize=1024)
    def parse(cls, text: str) -> "ServiceType":
        """Parse ``service:abstract[.na][:concrete]``.

        The ``service:`` prefix is optional on input (some clients omit it)
        but always present in :meth:`render` output.  Results are memoized
        (instances are frozen, so callers can share them); a malformed
        string raises on every call, since exceptions are never cached.
        """
        if not text or not text.strip():
            raise SlpServiceTypeError("empty service type")
        value = text.strip().lower()
        if value.startswith("service:"):
            value = value[len("service:"):]
        if not value:
            raise SlpServiceTypeError(f"no type after 'service:' in {text!r}")
        parts = value.split(":")
        if len(parts) > 2:
            # service:clock:soap:extra is malformed; keep first two levels.
            raise SlpServiceTypeError(f"too many ':' levels in {text!r}")
        head = parts[0]
        concrete = parts[1] if len(parts) == 2 else ""
        if "." in head:
            abstract, authority = head.split(".", 1)
            authority = _validate_token(authority, "naming authority")
        else:
            abstract, authority = head, ""
        abstract = _validate_token(abstract, "abstract type")
        if concrete:
            concrete = _validate_token(concrete, "concrete type")
        return cls(abstract=abstract, concrete=concrete, naming_authority=authority)

    def render(self) -> str:
        head = self.abstract
        if self.naming_authority:
            head = f"{head}.{self.naming_authority}"
        if self.concrete:
            return f"service:{head}:{self.concrete}"
        return f"service:{head}"

    def matches(self, request: "ServiceType") -> bool:
        """True when an offer of this type satisfies ``request``.

        An abstract request (``service:clock``) matches any concrete
        offering (``service:clock:soap``); a concrete request matches only
        the identical concrete type.  Naming authorities must agree.
        """
        if self.abstract != request.abstract:
            return False
        if self.naming_authority != request.naming_authority:
            return False
        if request.concrete and self.concrete != request.concrete:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return self.render()


__all__ = ["ServiceType"]
