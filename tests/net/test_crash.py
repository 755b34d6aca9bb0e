"""Crash-stop / crash-recovery semantics at the network layer.

A crash differs from a detach (NIC down) in exactly the ways a dead
process differs from an unplugged cable: in-flight frames addressed to
the host drop exactly once (never land on a post-restart successor
socket), volatile transport state dies (UDP port table, TCP connections
without FIN), and a restarted host mints session ids from a fresh block
so no id is ever reused across the crash.
"""

import pytest

from repro.net import Endpoint, LatencyModel, Network, NetworkError
from repro.net.network import RESTART_SESSION_BLOCK, SESSION_ID_BLOCK

from .introspect import is_crashed


def make_net():
    return Network(latency=LatencyModel(jitter_us=0))


def test_crash_state_transitions_and_errors():
    net = make_net()
    victim = net.add_node("victim")
    address = victim.address
    assert not is_crashed(net, victim)
    net.crash_node(victim)
    assert is_crashed(net, victim) and is_crashed(net, address)
    assert net.crashed_node(address) is victim
    assert net.node_at(address) is None
    with pytest.raises(NetworkError):
        net.crash_node(victim)
    net.restart_node(victim)
    assert not is_crashed(net, victim)
    assert net.crashed_node(address) is None
    assert net.node_at(address) is victim
    with pytest.raises(NetworkError):
        net.restart_node(victim)


def test_in_flight_frame_drops_exactly_once():
    """A frame already in flight at crash time is swallowed by the
    closed-socket guard — even if the host restarts and re-binds the same
    port before the frame's due time."""
    net = make_net()
    sender, victim = net.add_node("sender"), net.add_node("victim")
    got = []
    victim.udp.socket().bind(5000).on_datagram(got.append)
    sender.udp.socket().bind(6000).sendto(b"doomed", Endpoint(victim.address, 5000))
    # Crash + restart before the delivery event fires: the successor
    # socket on the same port must never see the pre-crash frame.
    net.crash_node(victim)
    net.restart_node(victim)
    successor = []
    victim.udp.socket().bind(5000).on_datagram(successor.append)
    net.run()
    assert got == [] and successor == []
    # Post-restart traffic lands on the successor socket normally.
    sender.udp.socket().bind(6001).sendto(b"fresh", Endpoint(victim.address, 5000))
    net.run()
    assert [d.payload for d in successor] == [b"fresh"]


def test_stale_timer_sends_vanish_silently():
    """A timer armed before the crash still fires on the host's wheel, but
    its send through the dead socket disappears instead of raising into
    the surviving event loop."""
    net = make_net()
    victim, peer = net.add_node("victim"), net.add_node("peer")
    got = []
    peer.udp.socket().bind(7000).on_datagram(got.append)
    sock = victim.udp.socket().bind(7001)
    victim.schedule(2_000, lambda: sock.sendto(b"ghost", Endpoint(peer.address, 7000)))
    net.crash_node(victim)
    net.run()  # must not raise
    assert got == []


def test_tcp_dies_without_fin():
    """Crashing one end kills its connections silently: the survivor's
    close handler never fires and its sends are swallowed, not errors —
    it only learns through its own application-level timeouts."""
    net = make_net()
    server, client = net.add_node("server"), net.add_node("client")
    server_log, client_conns, closed = [], [], []
    server.tcp.listen(8080, lambda conn: conn.on_data(server_log.append))
    client.tcp.connect(Endpoint(server.address, 8080), client_conns.append)
    net.run()
    assert len(client_conns) == 1
    conn = client_conns[0]
    conn.on_close(lambda *a: closed.append(True))
    conn.send(b"before")
    net.run()
    assert server_log == [b"before"]
    net.crash_node(server)
    conn.send(b"after")  # silently swallowed at the dead end
    net.run()
    assert server_log == [b"before"]
    assert closed == [] and not conn.closed


def test_restart_mints_fresh_session_block():
    """The n-th restart fleet-wide allocates session ids from
    ``(RESTART_SESSION_BLOCK + n) * SESSION_ID_BLOCK`` — above every
    pre-crash id, and ordered by restart ordinal on every engine."""
    net = make_net()
    a, b = net.add_node("a"), net.add_node("b")
    # Before any restart every host draws from block 0, ids from 1, and
    # two fresh networks mint the same sequence.
    source = net.session_id_source(a)
    assert [source(), source()] == [1, 2]
    other = make_net()
    source = other.session_id_source(other.add_node("a"))
    assert [source(), source()] == [1, 2]
    net.crash_node(a)
    net.restart_node(a)
    source = net.session_id_source(a)
    base = (RESTART_SESSION_BLOCK + 1) * SESSION_ID_BLOCK
    assert [source(), source()] == [base, base + 1]
    net.crash_node(b)
    net.restart_node(b)
    assert net.session_id_source(b)() == (RESTART_SESSION_BLOCK + 2) * SESSION_ID_BLOCK
    # The non-restarted path is untouched by someone else's restart.
    c = net.add_node("c")
    assert net.session_id_source(c)() == 3


def test_scheduled_crash_and_restart():
    """A timed crash stops the host mid-run and a timed restart brings it
    back with empty stacks: deliveries stop at the crash and the
    application must re-bind to receive again (volatile state is
    genuinely lost)."""
    net = make_net()
    sender, victim = net.add_node("sender"), net.add_node("victim")
    got = []
    victim.udp.socket().bind(5000).on_datagram(
        lambda d: got.append(net.scheduler.now_us)
    )
    sock = sender.udp.socket().bind(6000)
    for ms in range(10):
        sender.schedule(
            ms * 1_000,
            lambda: sock.sendto(b"tick", Endpoint(victim.address, 5000)),
        )
    executed = []

    def act(action, apply):
        apply(victim)
        executed.append((net.scheduler.now_us, action))

    sender.schedule(2_500, lambda: act("crash", net.crash_node))
    sender.schedule(6_500, lambda: act("restart", net.restart_node))
    net.run()
    assert executed == [(2_500, "crash"), (6_500, "restart")]
    # Only pre-crash ticks landed; the restarted host has no socket bound.
    assert got and all(t < 2_500 for t in got)
    assert not is_crashed(net, victim)
    count_before = len(got)
    sender.udp.socket().bind(6001).sendto(b"late", Endpoint(victim.address, 5000))
    net.run()
    assert len(got) == count_before  # port table really is empty
    victim.udp.socket().bind(5000).on_datagram(
        lambda d: got.append(net.scheduler.now_us)
    )
    sender.udp.socket().bind(6002).sendto(b"rebound", Endpoint(victim.address, 5000))
    net.run()
    assert len(got) == count_before + 1


def test_armed_but_unfired_crash_is_bit_identical():
    """Arming the adversity layer with a timed crash that never fires (the
    run ends first) must not move a single delivery timestamp."""
    def drive(armed: bool):
        net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        times = []
        b.udp.socket().bind(5000).on_datagram(
            lambda d: times.append(net.scheduler.now_us)
        )
        sock = a.udp.socket().bind(6000)
        if armed:
            net.enable_faults()
            a.schedule(50_000, lambda: net.crash_node(b))
        for ms in range(5):
            a.schedule(
                ms * 1_000,
                lambda: sock.sendto(b"tick", Endpoint(b.address, 5000)),
            )
        net.run(duration_us=10_000)  # ends before the armed crash fires
        return times

    assert drive(armed=False) == drive(armed=True)
