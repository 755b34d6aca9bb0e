"""Integration tests: UPnP device and control point over the simulator."""

import pytest

from repro.net import LatencyModel, Network
from repro.sdp.upnp import (
    CLOCK_DEVICE_TYPE,
    CLOCK_SERVICE_TYPE,
    SSDP_ALL,
    UPNP_ROOTDEVICE,
    UpnpControlPoint,
    UpnpTimings,
    make_clock_device,
)
from repro.sdp.upnp.clock import CLOCK_SCPD_PATH


@pytest.fixture()
def net():
    return Network(latency=LatencyModel(jitter_us=0))


@pytest.fixture()
def world(net):
    cp_node = net.add_node("client")
    dev_node = net.add_node("device")
    control_point = UpnpControlPoint(cp_node)
    device = make_clock_device(dev_node)
    return net, control_point, device


class TestSearch:
    def test_search_by_device_type(self, world):
        net, cp, device = world
        done = []
        cp.search(CLOCK_DEVICE_TYPE, on_complete=done.append)
        net.run()
        search = done[0]
        assert len(search.responses) == 1
        response = search.responses[0]
        assert response.location == device.location
        assert "ClockDevice" in response.usn

    def test_search_versionless_st_like_paper(self, world):
        net, cp, device = world
        done = []
        cp.search("urn:schemas-upnp-org:device:clock", on_complete=done.append)
        net.run()
        assert done[0].responses

    def test_search_rootdevice(self, world):
        net, cp, device = world
        done = []
        cp.search(UPNP_ROOTDEVICE, on_complete=done.append)
        net.run()
        assert done[0].responses

    def test_search_ssdp_all(self, world):
        net, cp, device = world
        done = []
        cp.search(SSDP_ALL, on_complete=done.append)
        net.run()
        assert done[0].responses

    def test_search_wrong_type_silent(self, world):
        net, cp, device = world
        done = []
        cp.search("urn:schemas-upnp-org:device:printer:1", on_complete=done.append)
        net.run()
        assert done[0].responses == []
        assert device.searches_answered == 0

    def test_search_latency_within_responder_window(self, world):
        net, cp, device = world
        done = []
        cp.search(CLOCK_DEVICE_TYPE, on_complete=done.append)
        net.run()
        latency = done[0].first_latency_us
        # responder delay (200..600) + 2 network messages + parse costs
        assert 400 < latency < 2_000

    def test_two_devices_both_respond(self, net):
        cp = UpnpControlPoint(net.add_node("client"))
        make_clock_device(net.add_node("d1"))
        make_clock_device(net.add_node("d2"), http_port=4104)
        done = []
        cp.search(CLOCK_DEVICE_TYPE, on_complete=done.append)
        net.run()
        assert len(done[0].responses) == 2


class TestDescriptionFetch:
    def test_fetch_and_parse(self, world):
        net, cp, device = world
        descriptions = []
        cp.fetch_description(device.location, descriptions.append)
        net.run()
        assert descriptions
        description = descriptions[0]
        assert description.friendly_name == "CyberGarage Clock Device"
        assert description.services[0].control_url == "/service/timer/control"
        assert device.descriptions_served == 1

    def test_fetch_scpd(self, world):
        net, cp, device = world
        scpds = []
        url = f"http://{device.node.address}:{device.http_port}{CLOCK_SCPD_PATH}"
        cp.fetch_scpd(url, scpds.append)
        net.run()
        assert scpds and [a.name for a in scpds[0].actions] == ["GetTime", "SetTime"]

    def test_404_for_unknown_path(self, world):
        net, cp, device = world
        from repro.sdp.upnp import http_get

        responses = []
        url = f"http://{device.node.address}:{device.http_port}/nope.xml"
        http_get(cp.node, url, responses.append)
        net.run()
        assert responses[0].status == 404

    def test_fetch_error_when_device_gone(self, net):
        cp = UpnpControlPoint(net.add_node("client"))
        errors = []
        cp.fetch_description(
            "http://192.168.1.99:4004/description.xml",
            lambda d: pytest.fail("no device there"),
            on_error=errors.append,
        )
        net.run()
        assert errors

    def test_description_padding_inflates_size(self, net):
        cp_node, dev_node = net.add_node("c"), net.add_node("d")
        cp = UpnpControlPoint(cp_node)
        device = make_clock_device(dev_node, timings=UpnpTimings(description_pad_bytes=8000))
        from repro.sdp.upnp import http_get

        responses = []
        http_get(cp_node, device.location, responses.append)
        net.run()
        assert len(responses[0].body) > 8000
        # Padded documents still parse.
        from repro.sdp.upnp import parse_device_description

        assert parse_device_description(responses[0].body).udn == "uuid:ClockDevice"


class TestNotify:
    def test_alive_populates_cache(self, net):
        cp = UpnpControlPoint(net.add_node("client"))
        device = make_clock_device(net.add_node("device"), advertise=True)
        alive = []
        cp.on_alive = alive.append
        net.run(duration_us=100_000)
        assert alive
        assert any("ClockDevice" in usn for usn in cp.known_devices)

    def test_byebye_evicts(self, net):
        cp = UpnpControlPoint(net.add_node("client"))
        device = make_clock_device(net.add_node("device"), advertise=True)
        gone = []
        cp.on_byebye = gone.append
        net.run(duration_us=100_000)
        assert cp.known_devices
        device.stop()
        net.run(duration_us=100_000)
        assert gone
        assert not cp.known_devices

    def test_periodic_notify_repeats(self, net):
        cp = UpnpControlPoint(net.add_node("client"))
        make_clock_device(net.add_node("device"), advertise=True, notify_period_us=500_000)
        count = []
        cp.on_alive = lambda entry: count.append(net.scheduler.now_us)
        net.run(duration_us=1_600_000)
        # initial burst + 3 periodic bursts, several targets each
        assert len(count) >= 12

    def test_repeated_notify_refreshes_the_entry_in_place(self, net):
        from repro.sdp.upnp.ssdp import SsdpKind, SsdpMessage

        cp = UpnpControlPoint(net.add_node("client"))
        make_clock_device(net.add_node("device"), advertise=True, notify_period_us=500_000)
        seen = []
        cp.on_alive = lambda entry: seen.append((entry, entry.last_seen_us))
        net.run(duration_us=1_600_000)
        by_usn = {}
        for entry, _ in seen:
            assert by_usn.setdefault(entry.usn, entry) is entry
            assert cp.known_devices[entry.usn] is entry
        assert len(seen) > len(by_usn)  # every repeat reused its entry
        for entry in by_usn.values():
            assert entry.last_seen_us == max(t for e, t in seen if e is entry)
        # A changed LOCATION replaces the entry instead.
        usn, entry = next(iter(cp.known_devices.items()))
        moved = cp._remember(SsdpMessage(
            kind=SsdpKind.ALIVE, target=entry.target, usn=usn,
            location=entry.location + "?moved", max_age_s=entry.max_age_s,
        ))
        assert moved is not entry and cp.known_devices[usn] is moved
        assert moved.location.endswith("?moved") and entry.location == moved.location[:-6]


class TestSoapControl:
    def test_get_time(self, world):
        net, cp, device = world
        results = []
        control_url = f"http://{device.node.address}:{device.http_port}/service/timer/control"
        cp.invoke(control_url, CLOCK_SERVICE_TYPE, "GetTime", on_result=results.append)
        net.run()
        assert results and not results[0].is_fault
        assert "CurrentTime" in results[0].arguments
        assert device.actions_invoked == 1

    def test_set_time_in_argument(self, world):
        net, cp, device = world
        results = []
        control_url = f"http://{device.node.address}:{device.http_port}/service/timer/control"
        cp.invoke(
            control_url, CLOCK_SERVICE_TYPE, "SetTime", {"NewTime": "12:00"},
            on_result=results.append,
        )
        net.run()
        assert results[0].arguments["Result"] == "accepted:12:00"

    def test_unknown_action_faults(self, world):
        net, cp, device = world
        results = []
        control_url = f"http://{device.node.address}:{device.http_port}/service/timer/control"
        cp.invoke(control_url, CLOCK_SERVICE_TYPE, "Explode", on_result=results.append)
        net.run()
        assert results[0].is_fault
        assert results[0].fault_code == 401


class TestFullDiscoveryFlow:
    def test_search_then_fetch_then_invoke(self, world):
        """The complete native UPnP interaction the paper's INDISS emulates."""
        net, cp, device = world
        outcome = {}

        def on_search_done(search):
            assert search.responses
            cp.fetch_description(search.responses[0].location, on_description)

        def on_description(description):
            service = description.service_by_type(CLOCK_SERVICE_TYPE)
            outcome["control_path"] = service.control_url
            control_url = f"http://{device.node.address}:{device.http_port}{service.control_url}"
            cp.invoke(control_url, CLOCK_SERVICE_TYPE, "GetTime",
                      on_result=lambda r: outcome.update(time=r.arguments["CurrentTime"]))

        cp.search(CLOCK_DEVICE_TYPE, on_complete=on_search_done)
        net.run()
        assert outcome["control_path"] == "/service/timer/control"
        assert "time" in outcome
