"""Latency, bandwidth, jitter and loss models for the simulated LAN.

The paper's testbed is a 10 Mb/s LAN between workstations (§4.3).  The
default :class:`LatencyModel` reproduces that regime: a fixed per-message
latency (switch + OS stack), a serialization term proportional to message
size, and optional bounded uniform jitter.  Loopback delivery (INDISS
co-located with a client or service) uses a much smaller constant — this
asymmetry is exactly what Figures 8 and 9 measure.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: Paper testbed bandwidth: hosts "connected to a LAN at 10Mb/s".
DEFAULT_BANDWIDTH_BPS = 10_000_000

#: Fixed per-message LAN cost (propagation + switch + kernel) in microseconds.
DEFAULT_LAN_LATENCY_US = 150

#: Loopback per-message cost in microseconds.
DEFAULT_LOOPBACK_LATENCY_US = 15


@dataclass
class LatencyModel:
    """Computes delivery delay for a message on the simulated segment.

    Parameters
    ----------
    lan_latency_us:
        Fixed cost charged to every message crossing the network.
    loopback_latency_us:
        Fixed cost for node-local delivery.
    bandwidth_bps:
        Serialization rate for the size-proportional term; ``None`` disables
        the term (infinite bandwidth).
    jitter_us:
        Half-width of a uniform jitter applied on top of the fixed LAN cost.
    seed:
        Seed for the jitter RNG; runs with equal seeds are identical.
    """

    lan_latency_us: int = DEFAULT_LAN_LATENCY_US
    loopback_latency_us: int = DEFAULT_LOOPBACK_LATENCY_US
    bandwidth_bps: int | None = DEFAULT_BANDWIDTH_BPS
    jitter_us: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def reseed(self, seed: int) -> None:
        """Reset the jitter RNG (used to vary trials deterministically)."""
        self._rng = random.Random(seed)

    def transmission_us(self, size_bytes: int) -> int:
        """Time to serialize ``size_bytes`` onto the wire."""
        if self.bandwidth_bps is None or size_bytes <= 0:
            return 0
        return int(round(size_bytes * 8 * 1_000_000 / self.bandwidth_bps))

    def delay_us(self, size_bytes: int, loopback: bool) -> int:
        """Total delivery delay for one message, at least 1 µs: the fixed
        cost, :meth:`transmission_us` inline (every frame hop calls this),
        and a ``randrange(j + 1)`` jitter draw, the stream of ``randint``."""
        if loopback:
            return self.loopback_latency_us
        delay = self.lan_latency_us
        bandwidth = self.bandwidth_bps
        if bandwidth is not None and size_bytes > 0:
            delay += round(size_bytes * 8_000_000 / bandwidth)
        jitter = self.jitter_us
        if jitter > 0:
            delay += self._rng.randrange(jitter + 1)
        return delay if delay > 0 else 1

    def det_delay_us(self, size_bytes: int) -> int:
        """The deterministic part of :meth:`delay_us`: no jitter draw.

        Cross-partition deliveries use this so the jitter RNG's draw order
        stays identical between the single-threaded and partitioned
        engines (with ``jitter_us == 0`` the two methods are equal).
        """
        return max(self.lan_latency_us + self.transmission_us(size_bytes), 1)


@dataclass
class LossModel:
    """Bernoulli datagram loss (applied to UDP only; the TCP abstraction is
    reliable by construction).

    ``rate`` is the probability that any single datagram copy is dropped.
    Multicast fan-out applies loss independently per receiver, like a real
    shared segment.
    """

    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.rate}")
        self._rng = random.Random(self.seed)
        self.dropped = 0
        self.delivered = 0

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def should_drop(self) -> bool:
        if self.rate <= 0.0:
            self.delivered += 1
            return False
        drop = self._rng.random() < self.rate
        if drop:
            self.dropped += 1
        else:
            self.delivered += 1
        return drop


@dataclass
class GilbertElliottLoss:
    """Two-state burst loss (Gilbert-Elliott) for one edge.

    The channel alternates between a *good* state (loss probability
    ``loss_good``) and a *bad* state (``loss_bad``).  Per frame, the state
    first transitions (good->bad with ``p_bad``, bad->good with ``p_good``)
    and then the frame is dropped with the current state's loss
    probability.  All draws come from this model's own RNG, so two runs
    with equal seeds see identical loss sequences regardless of what any
    other model draws.
    """

    p_bad: float = 0.05
    p_good: float = 0.5
    loss_good: float = 0.0
    loss_bad: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p_bad", "p_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self._rng = random.Random(self.seed)
        self.bad = False
        self.dropped = 0
        self.delivered = 0

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.bad = False

    def should_drop(self) -> bool:
        if self.bad:
            if self._rng.random() < self.p_good:
                self.bad = False
        else:
            if self._rng.random() < self.p_bad:
                self.bad = True
        rate = self.loss_bad if self.bad else self.loss_good
        drop = rate > 0.0 and self._rng.random() < rate
        if drop:
            self.dropped += 1
        else:
            self.delivered += 1
        return drop


def edge_seed(seed: int, edge: str) -> int:
    """Stable per-edge RNG seed: a dedicated stream for each lossy edge.

    Derived by hashing ``seed`` with the edge's name so that (a) the draw
    sequence on one edge never depends on which other edges are lossy, and
    (b) the same ``(seed, edge)`` pair yields the same stream on every
    platform and run (``hash()`` is salted; ``blake2b`` is not).
    """
    digest = hashlib.blake2b(
        f"{seed}|{edge}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def make_loss_model(model: str, rate: float, seed: int, edge: str):
    """Build a seeded per-edge loss model (``bernoulli`` or ``gilbert``).

    ``gilbert`` maps ``rate`` onto the classic bursty regime: the channel
    enters a fully-lossy bad state with probability ``rate`` per frame and
    escapes with probability 0.5, for an average loss near ``rate`` with
    the drops clustered into bursts.
    """
    if model == "bernoulli":
        return LossModel(rate=rate, seed=edge_seed(seed, edge))
    if model == "gilbert":
        return GilbertElliottLoss(
            p_bad=rate, p_good=0.5, loss_good=0.0, loss_bad=1.0,
            seed=edge_seed(seed, edge),
        )
    raise ValueError(f"unknown loss model {model!r} (expected bernoulli or gilbert)")


__all__ = [
    "LatencyModel",
    "LossModel",
    "GilbertElliottLoss",
    "edge_seed",
    "make_loss_model",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_LAN_LATENCY_US",
    "DEFAULT_LOOPBACK_LATENCY_US",
]
