"""SOAP-lite: the UPnP control protocol envelope (UPnP DA 1.0, section 3).

A control point POSTs a SOAP envelope to a service's control URL with a
``SOAPACTION`` header; the device answers with an ``...Response`` envelope
or a UPnPError fault.  Only the envelope subset UPnP actually uses is
implemented (no encodings, no multi-part).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .description import escape
from .errors import SoapError

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
ENCODING_STYLE = "http://schemas.xmlsoap.org/soap/encoding/"
CONTROL_NS = "urn:schemas-upnp-org:control-1-0"


@dataclass(frozen=True)
class SoapCall:
    """A parsed inbound action invocation."""

    service_type: str
    action: str
    arguments: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SoapResult:
    """A parsed action response (or fault)."""

    action: str = ""
    arguments: dict[str, str] = field(default_factory=dict)
    fault_code: int = 0
    fault_string: str = ""

    @property
    def is_fault(self) -> bool:
        return bool(self.fault_code or self.fault_string)


def soap_action_header(service_type: str, action: str) -> str:
    """The value of the ``SOAPACTION`` HTTP header."""
    return f'"{service_type}#{action}"'


def parse_soap_action_header(value: str) -> tuple[str, str]:
    stripped = value.strip().strip('"')
    service_type, sep, action = stripped.rpartition("#")
    if not sep or not service_type or not action:
        raise SoapError(f"malformed SOAPACTION header: {value!r}")
    return service_type, action


def _envelope(body_xml: str) -> str:
    return (
        '<?xml version="1.0"?>\n'
        f'<s:Envelope xmlns:s="{ENVELOPE_NS}" s:encodingStyle="{ENCODING_STYLE}">\n'
        f"<s:Body>{body_xml}</s:Body>\n"
        "</s:Envelope>"
    )


def build_request(service_type: str, action: str, arguments: dict[str, str] | None = None) -> str:
    args_xml = "".join(
        f"<{name}>{escape(str(value))}</{name}>" for name, value in (arguments or {}).items()
    )
    body = f'<u:{action} xmlns:u="{escape(service_type)}">{args_xml}</u:{action}>'
    return _envelope(body)


def build_response(service_type: str, action: str, arguments: dict[str, str] | None = None) -> str:
    args_xml = "".join(
        f"<{name}>{escape(str(value))}</{name}>" for name, value in (arguments or {}).items()
    )
    body = (
        f'<u:{action}Response xmlns:u="{escape(service_type)}">'
        f"{args_xml}</u:{action}Response>"
    )
    return _envelope(body)


def build_fault(error_code: int, error_description: str) -> str:
    body = (
        "<s:Fault>"
        "<faultcode>s:Client</faultcode>"
        "<faultstring>UPnPError</faultstring>"
        "<detail>"
        f'<UPnPError xmlns="{CONTROL_NS}">'
        f"<errorCode>{error_code}</errorCode>"
        f"<errorDescription>{escape(error_description)}</errorDescription>"
        "</UPnPError>"
        "</detail>"
        "</s:Fault>"
    )
    return _envelope(body)


def _body_element(document: str | bytes) -> ET.Element:
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise SoapError(f"malformed SOAP XML: {exc}") from exc
    body = root.find(f"{{{ENVELOPE_NS}}}Body")
    if body is None or len(body) == 0:
        raise SoapError("SOAP envelope has no body element")
    return body[0]


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _namespace(tag: str) -> str:
    if tag.startswith("{"):
        return tag[1:].split("}", 1)[0]
    return ""


def parse_request(document: str | bytes) -> SoapCall:
    """Parse an inbound control request into a :class:`SoapCall`."""
    element = _body_element(document)
    action = _local_name(element.tag)
    service_type = _namespace(element.tag)
    arguments = { _local_name(child.tag): (child.text or "") for child in element }
    return SoapCall(service_type=service_type, action=action, arguments=arguments)


def parse_response(document: str | bytes) -> SoapResult:
    """Parse a control response; faults come back with ``is_fault`` set."""
    element = _body_element(document)
    name = _local_name(element.tag)
    if name == "Fault":
        code, description = 0, ""
        for node in element.iter():
            local = _local_name(node.tag)
            if local == "errorCode":
                try:
                    code = int(node.text or "0")
                except ValueError:
                    code = 0
            elif local == "errorDescription":
                description = node.text or ""
        return SoapResult(fault_code=code or 501, fault_string=description or "fault")
    if not name.endswith("Response"):
        raise SoapError(f"unexpected SOAP response element {name!r}")
    arguments = { _local_name(child.tag): (child.text or "") for child in element }
    return SoapResult(action=name[: -len("Response")], arguments=arguments)


__all__ = [
    "SoapCall",
    "SoapResult",
    "build_request",
    "build_response",
    "build_fault",
    "parse_request",
    "parse_response",
    "soap_action_header",
    "parse_soap_action_header",
]
