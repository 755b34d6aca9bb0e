"""INDISS knows its own frames by who sent them (paper §2.1).

The monitor must never re-translate a frame INDISS's own units sent, and
must translate every native frame, whatever port it comes from.  A host's
ephemeral-port cursor wraps, so a native socket next to INDISS can get a
port one of INDISS's throwaway sockets used before; its requests are
still translated.
"""

from repro.core import Indiss, IndissConfig
from repro.net import Endpoint, LatencyModel, Network
from repro.sdp.slp import ServiceAgent, ServiceType, SlpRegistration
from repro.sdp.upnp import CLOCK_DEVICE_TYPE, UpnpControlPoint


def test_native_socket_on_a_port_indiss_used_is_translated():
    net = Network(latency=LatencyModel(jitter_us=0))
    client, service = net.add_node("client"), net.add_node("service")
    ServiceAgent(service).register(SlpRegistration(
        url=f"service:clock:soap://{service.address}:4005/service/timer/control",
        service_type=ServiceType.parse("service:clock:soap"),
        attributes={"friendlyName": "SLP Clock Device"},
    ))
    indiss = Indiss(client, IndissConfig(units=("slp", "upnp"), deployment="client"))

    port = client.udp._next_ephemeral
    indiss.units["slp"].runtime.send_udp_from_new_socket(b"x", Endpoint(service.address, 9))
    client.udp._next_ephemeral = port  # the cursor wrapped round to it
    control_point = UpnpControlPoint(client)
    search = control_point.search(CLOCK_DEVICE_TYPE, wait_us=400_000)
    net.run(duration_us=1_000_000)

    assert control_point._search_socket.port == port
    assert len(search.responses) == 1
    assert indiss.stats.opened == 1
