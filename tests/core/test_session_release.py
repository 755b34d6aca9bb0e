"""A translation session ends everywhere at once (paper §2.2).

A request fanned out to two target units completes as soon as one of them
answers.  The unit that lost the race must let go of the session in the
same instant: its session table empties, its pending timers are cancelled,
and a native reply that still arrives for the session is dropped.
"""

from repro.core import Indiss, IndissConfig
from repro.net import Endpoint, LatencyModel, Network
from repro.sdp.slp import ServiceAgent, ServiceType, SlpRegistration
from repro.sdp.upnp import CLOCK_DEVICE_TYPE, UpnpControlPoint
from repro.sdp.upnp.ssdp import build_search_response


def test_losing_target_releases_the_session_when_another_answers():
    net = Network(latency=LatencyModel(jitter_us=0))
    client, gateway, stray = net.add_node("client"), net.add_node("gateway"), net.add_node("stray")
    ServiceAgent(gateway).register(SlpRegistration(
        url=f"service:clock:soap://{gateway.address}:4005/service/timer/control",
        service_type=ServiceType.parse("service:clock:soap"),
        attributes={"friendlyName": "SLP Clock Device"},
    ))
    # gateway-forward re-issues the M-SEARCH natively too, so the session
    # has two targets: the SLP unit (answered by the SA within
    # milliseconds) and the UPnP unit (no device answers it).
    indiss = Indiss(gateway, IndissConfig(units=("slp", "upnp"), dispatch="gateway-forward"))
    upnp = indiss.units["upnp"]
    released = []
    release = upnp.release

    def counting_release(session):
        before = net.scheduler.pending
        release(session)
        released.append((session, upnp.sessions.copy(), before - net.scheduler.pending))

    upnp.release = counting_release
    done = []
    indiss.session_listeners.append(done.append)
    UpnpControlPoint(client).search(CLOCK_DEVICE_TYPE, wait_us=400_000)
    net.run(duration_us=50_000)

    [session] = done
    assert session.vars["answered_by"] == "slp"
    assert [unit.sdp_id for unit in session.targets] == ["slp", "upnp"]
    [(released_session, table, cancelled)] = released
    assert released_session is session
    assert table == {} and upnp.sessions == {}
    assert cancelled == 1  # the UPnP unit's 100 ms convergence timeout

    # A late SSDP response to the UPnP unit's M-SEARCH finds nothing to feed.
    steps = len(session.steps)
    parsed = upnp.streams_parsed
    late = build_search_response(
        st="upnp:clock", usn="uuid:late::upnp:clock",
        location=f"http://{stray.address}:4004/description.xml",
    )
    stray.udp.socket().sendto(late, Endpoint(gateway.address, upnp.runtime._socket.port))
    net.run(duration_us=500_000)
    assert upnp.streams_parsed == parsed + 1
    assert len(session.steps) == steps
    assert upnp.sessions == {}
