"""Tests for the simplified TCP abstraction."""

import pytest

from repro.net import Endpoint, LatencyModel, Network, PortInUseError, SocketClosedError


def make_net():
    return Network(latency=LatencyModel(jitter_us=0))


def test_connect_and_exchange():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    server_log, client_log = [], []

    def on_conn(conn):
        conn.on_data(lambda data: (server_log.append(data), conn.send(b"pong"))[0])

    server.tcp.listen(8080, on_conn)

    def on_connected(conn):
        conn.on_data(client_log.append)
        conn.send(b"ping")

    client.tcp.connect(Endpoint(server.address, 8080), on_connected)
    net.run()
    assert server_log == [b"ping"]
    assert client_log == [b"pong"]


def test_handshake_costs_three_latencies():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    connected_at = []
    server.tcp.listen(80, lambda conn: None)
    client.tcp.connect(
        Endpoint(server.address, 80), lambda conn: connected_at.append(net.scheduler.now_us)
    )
    net.run()
    assert connected_at == [450]  # 3 x 150us


def test_loopback_handshake_is_cheap():
    net = make_net()
    node = net.add_node("n")
    connected_at = []
    node.tcp.listen(80, lambda conn: None)
    node.tcp.connect(
        Endpoint(node.address, 80), lambda conn: connected_at.append(net.scheduler.now_us)
    )
    net.run()
    assert connected_at == [45]  # 3 x 15us


def test_connection_refused_no_listener():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    errors = []
    client.tcp.connect(
        Endpoint(server.address, 81),
        lambda conn: pytest.fail("must not connect"),
        on_error=errors.append,
    )
    net.run()
    assert len(errors) == 1


def test_connection_refused_unknown_host():
    net = make_net()
    client = net.add_node("c")
    errors = []
    client.tcp.connect(
        Endpoint("192.168.1.250", 80),
        lambda conn: pytest.fail("must not connect"),
        on_error=errors.append,
    )
    net.run()
    assert len(errors) == 1


def test_in_order_delivery_of_many_chunks():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    received = []
    server.tcp.listen(80, lambda conn: conn.on_data(received.append))

    def go(conn):
        for i in range(20):
            conn.send(f"chunk-{i:02d}".encode())

    client.tcp.connect(Endpoint(server.address, 80), go)
    net.run()
    assert received == [f"chunk-{i:02d}".encode() for i in range(20)]


def test_large_payload_charges_transmission_time():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    arrivals = []
    server.tcp.listen(80, lambda conn: conn.on_data(lambda d: arrivals.append(net.scheduler.now_us)))

    def go(conn):
        start = net.scheduler.now_us
        arrivals.append(start)
        conn.send(b"x" * 12_500)  # 12.5 KB -> 100_000 bits -> 10ms at 10Mb/s

    client.tcp.connect(Endpoint(server.address, 80), go)
    net.run()
    sent_at, arrived_at = arrivals
    assert arrived_at - sent_at == 150 + 10_000


def test_close_propagates_eof():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    closed = []
    server.tcp.listen(80, lambda conn: conn.on_close(lambda: closed.append("server")))
    client.tcp.connect(Endpoint(server.address, 80), lambda conn: conn.close())
    net.run()
    assert closed == ["server"]


def test_fin_never_overtakes_data():
    """Regression: send() followed immediately by close() must still deliver.

    The EOF is sequenced behind in-flight data on the same direction.
    """
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    events = []
    server.tcp.listen(
        80,
        lambda conn: conn.on_data(lambda d: events.append(("data", d))).on_close(
            lambda: events.append(("eof", b""))
        ),
    )

    def go(conn):
        conn.send(b"x" * 5000)  # large payload: slower than a bare FIN
        conn.close()

    client.tcp.connect(Endpoint(server.address, 80), go)
    net.run()
    assert events == [("data", b"x" * 5000), ("eof", b"")]


def test_send_after_close_raises():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    server.tcp.listen(80, lambda conn: None)
    conns = []
    client.tcp.connect(Endpoint(server.address, 80), conns.append)
    net.run()
    conn = conns[0]
    conn.close()
    with pytest.raises(SocketClosedError):
        conn.send(b"late")


def test_duplicate_listen_rejected():
    net = make_net()
    server = net.add_node("s")
    server.tcp.listen(80, lambda conn: None)
    with pytest.raises(PortInUseError):
        server.tcp.listen(80, lambda conn: None)


def test_listener_close_then_relisten():
    net = make_net()
    server = net.add_node("s")
    listener = server.tcp.listen(80, lambda conn: None)
    listener.close()
    server.tcp.listen(80, lambda conn: None)


def test_connect_after_listener_closed_is_refused():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    listener = server.tcp.listen(80, lambda conn: None)
    listener.close()
    errors = []
    client.tcp.connect(
        Endpoint(server.address, 80),
        lambda conn: pytest.fail("must not connect"),
        on_error=errors.append,
    )
    net.run()
    assert len(errors) == 1


def test_byte_counters():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    server.tcp.listen(80, lambda conn: conn.on_data(lambda d: None))
    conns = []
    client.tcp.connect(Endpoint(server.address, 80), conns.append)
    net.run()
    conns[0].send(b"12345")
    net.run()
    assert conns[0].bytes_sent == 5


def test_ephemeral_ports_wrap_and_skip_held_ports():
    net = make_net()
    client, server = net.add_node("c"), net.add_node("s")
    server.tcp.listen(80, lambda conn: None)
    held = []
    client.tcp.connect(Endpoint(server.address, 80), held.append)
    net.run()
    base = client.tcp.EPHEMERAL_BASE
    assert held[0].local.port == base
    for expected in range(base + 1, 65536):
        assert client.tcp.ephemeral_port() == expected
    # Wrapped: the open connection still holds the base port.
    opened = []
    client.tcp.connect(Endpoint(server.address, 80), opened.append)
    net.run()
    assert opened[0].local.port == base + 1
    held[0].close()
    net.run()
    for expected in range(base + 2, 65536):
        assert client.tcp.ephemeral_port() == expected
    assert client.tcp.ephemeral_port() == base  # released by the close


def test_ephemeral_ports_exhausted_only_when_all_are_held():
    from repro.net import NotBoundError
    from repro.net.tcp import TcpConnection

    node = make_net().add_node("c")
    stack = node.tcp
    ports = [stack.ephemeral_port() for _ in range(65536 - stack.EPHEMERAL_BASE)]
    remote = Endpoint("192.168.1.200", 80)
    for port in ports:
        TcpConnection(node, Endpoint(node.address, port), remote)
    with pytest.raises(NotBoundError):
        stack.ephemeral_port()
