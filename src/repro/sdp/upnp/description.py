"""UPnP description documents (UPnP Device Architecture 1.0, section 2).

A root device's ``description.xml`` lists its identity, metadata and
services; each service's SCPD document lists actions and state variables.
The paper's translation scenario (§2.4, Fig. 4) hinges on this document:
the SSDP response only carries LOCATION, so INDISS must fetch and parse the
description to extract the control URL an SLP client expects.

Generation uses plain string assembly; parsing uses ``xml.etree``.  Both
directions round-trip, which the property tests verify.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import DescriptionError


def escape(text: str) -> str:
    """XML-escape character data: ``&``, ``>`` and ``<``, in the order
    ``xml.sax.saxutils.escape`` uses.  Local, because importing
    ``xml.sax.saxutils`` pulls ``urllib.request`` (and with it
    ``http.client``, ``email`` and ``ssl``) into every process."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


DEVICE_NS = "urn:schemas-upnp-org:device-1-0"
SERVICE_NS = "urn:schemas-upnp-org:service-1-0"


@dataclass(frozen=True)
class ServiceDescription:
    """One ``<service>`` entry of a device description."""

    service_type: str
    service_id: str
    scpd_url: str
    control_url: str
    event_sub_url: str


@dataclass(frozen=True)
class IconDescription:
    """One ``<icon>`` entry; real stacks ship several sizes per device."""

    mimetype: str = "image/png"
    width: int = 48
    height: int = 48
    depth: int = 24
    url: str = "/icon48.png"


@dataclass
class DeviceDescription:
    """A root device description document."""

    device_type: str
    friendly_name: str
    udn: str
    manufacturer: str = "CyberGarage-sim"
    manufacturer_url: str = "http://www.cybergarage.org"
    model_name: str = "Device"
    model_description: str = ""
    model_number: str = "1.0"
    model_url: str = ""
    serial_number: str = ""
    presentation_url: str = ""
    services: list[ServiceDescription] = field(default_factory=list)
    icons: list[IconDescription] = field(default_factory=list)
    spec_major: int = 1
    spec_minor: int = 0

    def service_by_type(self, service_type: str) -> ServiceDescription | None:
        for service in self.services:
            if service.service_type == service_type:
                return service
        return None

    def to_xml(self, base_url: str = "") -> str:
        """Render the document; ``base_url`` fills ``<URLBase>`` if given."""
        parts = ['<?xml version="1.0"?>']
        parts.append(f'<root xmlns="{DEVICE_NS}">')
        parts.append(
            f"<specVersion><major>{self.spec_major}</major>"
            f"<minor>{self.spec_minor}</minor></specVersion>"
        )
        if base_url:
            parts.append(f"<URLBase>{escape(base_url)}</URLBase>")
        parts.append("<device>")
        parts.append(f"<deviceType>{escape(self.device_type)}</deviceType>")
        parts.append(f"<friendlyName>{escape(self.friendly_name)}</friendlyName>")
        parts.append(f"<manufacturer>{escape(self.manufacturer)}</manufacturer>")
        if self.manufacturer_url:
            parts.append(f"<manufacturerURL>{escape(self.manufacturer_url)}</manufacturerURL>")
        if self.model_description:
            parts.append(f"<modelDescription>{escape(self.model_description)}</modelDescription>")
        parts.append(f"<modelName>{escape(self.model_name)}</modelName>")
        if self.model_number:
            parts.append(f"<modelNumber>{escape(self.model_number)}</modelNumber>")
        if self.model_url:
            parts.append(f"<modelURL>{escape(self.model_url)}</modelURL>")
        if self.serial_number:
            parts.append(f"<serialNumber>{escape(self.serial_number)}</serialNumber>")
        parts.append(f"<UDN>{escape(self.udn)}</UDN>")
        if self.presentation_url:
            parts.append(f"<presentationURL>{escape(self.presentation_url)}</presentationURL>")
        if self.icons:
            parts.append("<iconList>")
            for icon in self.icons:
                parts.append(
                    "<icon>"
                    f"<mimetype>{escape(icon.mimetype)}</mimetype>"
                    f"<width>{icon.width}</width>"
                    f"<height>{icon.height}</height>"
                    f"<depth>{icon.depth}</depth>"
                    f"<url>{escape(icon.url)}</url>"
                    "</icon>"
                )
            parts.append("</iconList>")
        parts.append("<serviceList>")
        for service in self.services:
            parts.append(
                "<service>"
                f"<serviceType>{escape(service.service_type)}</serviceType>"
                f"<serviceId>{escape(service.service_id)}</serviceId>"
                f"<SCPDURL>{escape(service.scpd_url)}</SCPDURL>"
                f"<controlURL>{escape(service.control_url)}</controlURL>"
                f"<eventSubURL>{escape(service.event_sub_url)}</eventSubURL>"
                "</service>"
            )
        parts.append("</serviceList>")
        parts.append("</device>")
        parts.append("</root>")
        return "\n".join(parts)


def _text(element: ET.Element | None, default: str = "") -> str:
    if element is None or element.text is None:
        return default
    return element.text.strip()


def _find(parent: ET.Element, tag: str) -> ET.Element | None:
    return parent.find(f"{{{DEVICE_NS}}}{tag}")


def parse_device_description(document: str | bytes) -> DeviceDescription:
    """Parse ``description.xml`` back into a :class:`DeviceDescription`."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise DescriptionError(f"malformed description XML: {exc}") from exc
    if root.tag != f"{{{DEVICE_NS}}}root":
        raise DescriptionError(f"unexpected root element {root.tag!r}")
    device = _find(root, "device")
    if device is None:
        raise DescriptionError("description has no <device> element")

    services = []
    service_list = _find(device, "serviceList")
    if service_list is not None:
        for service in service_list:
            services.append(
                ServiceDescription(
                    service_type=_text(_find(service, "serviceType")),
                    service_id=_text(_find(service, "serviceId")),
                    scpd_url=_text(_find(service, "SCPDURL")),
                    control_url=_text(_find(service, "controlURL")),
                    event_sub_url=_text(_find(service, "eventSubURL")),
                )
            )
    icons = []
    icon_list = _find(device, "iconList")
    if icon_list is not None:
        for icon in icon_list:
            icons.append(
                IconDescription(
                    mimetype=_text(_find(icon, "mimetype")),
                    width=int(_text(_find(icon, "width"), "0") or 0),
                    height=int(_text(_find(icon, "height"), "0") or 0),
                    depth=int(_text(_find(icon, "depth"), "0") or 0),
                    url=_text(_find(icon, "url")),
                )
            )

    spec = _find(root, "specVersion")
    major, minor = 1, 0
    if spec is not None:
        major = int(_text(_find(spec, "major"), "1") or 1)
        minor = int(_text(_find(spec, "minor"), "0") or 0)

    description = DeviceDescription(
        device_type=_text(_find(device, "deviceType")),
        friendly_name=_text(_find(device, "friendlyName")),
        udn=_text(_find(device, "UDN")),
        manufacturer=_text(_find(device, "manufacturer")),
        manufacturer_url=_text(_find(device, "manufacturerURL")),
        model_name=_text(_find(device, "modelName")),
        model_description=_text(_find(device, "modelDescription")),
        model_number=_text(_find(device, "modelNumber")),
        model_url=_text(_find(device, "modelURL")),
        serial_number=_text(_find(device, "serialNumber")),
        presentation_url=_text(_find(device, "presentationURL")),
        services=services,
        icons=icons,
        spec_major=major,
        spec_minor=minor,
    )
    if not description.device_type:
        raise DescriptionError("description has no deviceType")
    if not description.udn:
        raise DescriptionError("description has no UDN")
    return description


@dataclass(frozen=True)
class ActionArgument:
    name: str
    direction: str  # 'in' | 'out'
    related_state_variable: str


@dataclass(frozen=True)
class Action:
    name: str
    arguments: tuple[ActionArgument, ...] = ()


@dataclass(frozen=True)
class StateVariable:
    name: str
    data_type: str = "string"
    send_events: bool = False
    default_value: str = ""


@dataclass
class ScpdDescription:
    """A service control protocol description (SCPD) document."""

    actions: list[Action] = field(default_factory=list)
    state_variables: list[StateVariable] = field(default_factory=list)

    def to_xml(self) -> str:
        parts = ['<?xml version="1.0"?>']
        parts.append(f'<scpd xmlns="{SERVICE_NS}">')
        parts.append("<specVersion><major>1</major><minor>0</minor></specVersion>")
        parts.append("<actionList>")
        for action in self.actions:
            parts.append(f"<action><name>{escape(action.name)}</name><argumentList>")
            for arg in action.arguments:
                parts.append(
                    "<argument>"
                    f"<name>{escape(arg.name)}</name>"
                    f"<direction>{escape(arg.direction)}</direction>"
                    f"<relatedStateVariable>{escape(arg.related_state_variable)}"
                    "</relatedStateVariable>"
                    "</argument>"
                )
            parts.append("</argumentList></action>")
        parts.append("</actionList>")
        parts.append("<serviceStateTable>")
        for variable in self.state_variables:
            events = "yes" if variable.send_events else "no"
            parts.append(
                f'<stateVariable sendEvents="{events}">'
                f"<name>{escape(variable.name)}</name>"
                f"<dataType>{escape(variable.data_type)}</dataType>"
                "</stateVariable>"
            )
        parts.append("</serviceStateTable>")
        parts.append("</scpd>")
        return "\n".join(parts)


def parse_scpd(document: str | bytes) -> ScpdDescription:
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise DescriptionError(f"malformed SCPD XML: {exc}") from exc

    def sfind(parent, tag):
        return parent.find(f"{{{SERVICE_NS}}}{tag}")

    actions = []
    action_list = sfind(root, "actionList")
    if action_list is not None:
        for action in action_list:
            arguments = []
            argument_list = sfind(action, "argumentList")
            if argument_list is not None:
                for arg in argument_list:
                    arguments.append(
                        ActionArgument(
                            name=_text(sfind(arg, "name")),
                            direction=_text(sfind(arg, "direction")),
                            related_state_variable=_text(sfind(arg, "relatedStateVariable")),
                        )
                    )
            actions.append(Action(name=_text(sfind(action, "name")), arguments=tuple(arguments)))
    variables = []
    table = sfind(root, "serviceStateTable")
    if table is not None:
        for variable in table:
            variables.append(
                StateVariable(
                    name=_text(sfind(variable, "name")),
                    data_type=_text(sfind(variable, "dataType"), "string"),
                    send_events=variable.get("sendEvents", "no") == "yes",
                )
            )
    return ScpdDescription(actions=actions, state_variables=variables)


__all__ = [
    "DeviceDescription",
    "ServiceDescription",
    "IconDescription",
    "ScpdDescription",
    "Action",
    "ActionArgument",
    "StateVariable",
    "parse_device_description",
    "parse_scpd",
    "DEVICE_NS",
    "SERVICE_NS",
]
