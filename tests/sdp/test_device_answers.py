"""The device's M-SEARCH answer table against the ``st_matches`` scan.

``UpnpDevice`` answers a search from a per-ST table instead of matching
the ST against every notification target each time.  The reference below
is the scan the table replaced: the first target ``st_matches`` accepts,
answered with ``seeded_search_response``.  For any ST — ``ssdp:all``,
``upnp:rootdevice``, ``uuid:`` targets, versioned and bare URNs, noise —
the table must give the same response bytes and message, or no answer, on
the first search and on every repeat, and must follow the device's
targets when they change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Endpoint, LatencyModel, Network
from repro.sdp.upnp import SSDP_GROUP, SSDP_PORT, make_clock_device
from repro.sdp.upnp.clock import CLOCK_DEVICE_TYPE, CLOCK_SERVICE_TYPE, CLOCK_UDN
from repro.sdp.upnp.description import ServiceDescription
from repro.sdp.upnp.ssdp import (
    build_msearch,
    seeded_search_response,
    st_matches,
)


def reference_answer(device, search_target):
    """The pre-table matching scan."""
    matching = [
        target
        for target in device.notification_targets()
        if st_matches(search_target, target, usn=device.usn_for(target))
    ]
    if not matching:
        return None
    target = matching[0]
    return seeded_search_response(
        st=search_target if search_target != "ssdp:all" else target,
        usn=device.usn_for(target),
        location=device.location,
    )


def make_device():
    net = Network(latency=LatencyModel(jitter_us=0))
    return net, make_clock_device(net.add_node("device"))


def _urn(kind, name, version):
    base = f"urn:schemas-upnp-org:{kind}:{name}"
    return base if version is None else f"{base}:{version}"


urns = st.builds(
    _urn,
    st.sampled_from(["device", "service"]),
    st.sampled_from(["clock", "timer", "printer", "Clock"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
search_targets = st.one_of(
    st.sampled_from([
        "ssdp:all", "upnp:rootdevice", CLOCK_UDN, CLOCK_UDN.upper(), "uuid:",
        "uuid:nobody", CLOCK_UDN[:8], CLOCK_DEVICE_TYPE, CLOCK_SERVICE_TYPE,
        f" {CLOCK_DEVICE_TYPE} ", "",
        "urn:schemas-upnp org:device:clock",
    ]),
    urns,
    st.text(max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(search_targets, min_size=1, max_size=12))
def test_answer_table_matches_the_scan(targets):
    net, device = make_device()
    for search_target in targets:
        want = reference_answer(device, search_target)
        got = device._answer_for(search_target)
        if want is None:
            assert got is None, search_target
        else:
            assert got is not None, search_target
            assert got[0] == want[0], search_target
            assert got[1] == want[1], search_target


def test_table_follows_a_change_of_targets():
    net, device = make_device()
    wanted = "urn:schemas-upnp-org:service:alarm:1"
    assert device._answer_for(wanted) is None
    device.description.services.append(ServiceDescription(
        service_type=wanted,
        service_id="urn:upnp-org:serviceId:alarm:1",
        scpd_url="/alarm.xml", control_url="/alarm/control",
        event_sub_url="/alarm/event",
    ))
    assert device._answer_for(wanted)[0] == reference_answer(device, wanted)[0]


def test_repeated_searches_answer_and_draw_delays_like_the_scan():
    """Over the wire: each matching M-SEARCH is answered (one RNG draw
    each), a non-matching one is not, and repeats reuse the table."""
    net, device = make_device()
    client = net.add_node("client").udp.socket()
    replies = []
    client.on_datagram(replies.append)
    searches = [CLOCK_DEVICE_TYPE, "urn:schemas-upnp-org:device:printer:1"] * 3 + ["ssdp:all"]
    for search_target in searches:
        client.sendto(build_msearch(search_target, mx_s=0), Endpoint(SSDP_GROUP, SSDP_PORT))
    net.run(duration_us=1_000_000)
    assert device.searches_answered == 4
    assert len(replies) == 4
    assert len(device._answers) == 3
    _, reference_device = make_device()
    expected = [reference_answer(reference_device, t) for t in searches]
    assert sorted(r.payload for r in replies) == sorted(
        answer[0] for answer in expected if answer is not None
    )
