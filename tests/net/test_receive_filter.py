"""Socket receive filters: a ``(classify, admitted)`` pair per socket.

Frames whose class is not admitted never reach the handler, on every
delivery path; frames the classifier cannot place (class ``None``) always
do; a multicast fan-out classifies each frame once per classifier; and
the per-receiver loss draw happens before the filter is consulted.
"""

from repro.net import Endpoint, LatencyModel, LossModel, Network, ReceiveFilter

GROUP = "239.1.2.3"
PORT = 7000


def make_net():
    return Network(latency=LatencyModel(jitter_us=0))


def first_byte(payload: bytes):
    """Classifier: the first byte, or None for an empty payload."""
    return payload[0] if payload else None


class CountingClassifier:
    def __init__(self):
        self.calls = 0

    def __call__(self, payload: bytes):
        self.calls += 1
        return first_byte(payload)


def listener(node, received, classify=None, admitted=()):
    sock = node.udp.socket().bind(PORT, reuse=True).join_group(GROUP)
    if classify is not None:
        sock.set_receive_filter(classify, admitted)
    sock.on_datagram(lambda d: received.append(d.payload))
    return sock


def test_filter_normalizes_admitted_and_always_admits_unplaceable():
    net = make_net()
    sock = net.add_node("a").udp.socket()
    assert sock.receive_filter is None
    sock.set_receive_filter(first_byte, [ord("a")])
    assert sock.receive_filter == ReceiveFilter(first_byte, frozenset({ord("a"), None}))


def test_unicast_delivery_applies_the_filter():
    net = make_net()
    a, b = net.add_node("a"), net.add_node("b")
    received = []
    sock = b.udp.socket().bind(PORT)
    sock.set_receive_filter(first_byte, [ord("a")]).on_datagram(
        lambda d: received.append(d.payload)
    )
    sender = a.udp.socket()
    for payload in (b"alpha", b"beta", b"", b"apple"):
        sender.sendto(payload, Endpoint(b.address, PORT))
    net.run()
    # b"" cannot be placed (class None), so it still reaches the handler.
    # (Shorter frames serialize faster, so arrival order is by size.)
    assert sorted(received) == [b"", b"alpha", b"apple"]
    assert sock.received_count == 3, "filtered frames are not counted"


def test_multicast_fan_out_classifies_once_per_classifier():
    net = make_net()
    sender = net.add_node("s")
    nodes = [net.add_node(f"n{i}") for i in range(5)]
    shared, other = CountingClassifier(), CountingClassifier()
    got = {i: [] for i in range(5)}
    for i in (0, 1, 2):
        listener(nodes[i], got[i], shared, [ord("x")])
    listener(nodes[3], got[3], other, [ord("y")])
    listener(nodes[4], got[4])  # no filter: hears everything
    out = sender.udp.socket()
    out.sendto(b"xray", Endpoint(GROUP, PORT))
    out.sendto(b"yank", Endpoint(GROUP, PORT))
    net.run()
    assert shared.calls == 2 and other.calls == 2, "one call per frame per classifier"
    assert got[0] == got[1] == got[2] == [b"xray"]
    assert got[3] == [b"yank"]
    assert got[4] == [b"xray", b"yank"]


def test_multicast_loopback_applies_the_filter():
    net = make_net()
    host = net.add_node("h")
    admitted, everything = [], []
    listener(host, admitted, first_byte, [ord("k")])
    listener(host, everything)
    out = host.udp.socket()
    out.sendto(b"keep", Endpoint(GROUP, PORT))
    out.sendto(b"drop", Endpoint(GROUP, PORT))
    net.run()
    assert admitted == [b"keep"]
    assert everything == [b"keep", b"drop"]


def _lossy_fan_out(filtered: bool):
    net = make_net()
    net.segments["lan0"].loss = LossModel(rate=0.5, seed=11)
    sender = net.add_node("s")
    received = {}
    for i in range(8):
        got = received.setdefault(i, [])
        if filtered and i % 2:
            listener(net.add_node(f"n{i}"), got, first_byte, [ord("a")])
        else:
            listener(net.add_node(f"n{i}"), got)
    out = sender.udp.socket()
    for n in range(20):
        out.sendto(bytes([ord("a") + n % 2]) + b"-%d" % n, Endpoint(GROUP, PORT))
    net.run()
    return received


def test_loss_draws_happen_before_the_filter():
    """Filtering some receivers must not shift which frames the others
    lose: every receiver still draws, in the same order."""
    plain = _lossy_fan_out(filtered=False)
    filtered = _lossy_fan_out(filtered=True)
    for i in range(8):
        if i % 2:
            assert filtered[i] == [p for p in plain[i] if p[:1] == b"a"]
        else:
            assert filtered[i] == plain[i]
    assert any(len(v) < 20 for v in plain.values()), "the segment did drop frames"
