"""Read-only views of network state that only tests ask for."""


def is_crashed(net, node_or_address) -> bool:
    """True while the host (a node or its address) is crash-stopped."""
    address = (
        node_or_address
        if isinstance(node_or_address, str)
        else node_or_address.address
    )
    return net.crashed_node(address) is not None


def bound_ports(stack) -> list[int]:
    """The ports a UDP stack has sockets bound on, ascending."""
    return sorted(stack._ports)
