"""The partitioned execution engine: district shards + conservative lookahead.

The single-threaded :class:`~repro.net.simclock.Scheduler` is the golden
oracle; this module runs the same simulation as K per-district schedulers that
advance in *windows* bounded by the topology's *lookahead* — the minimum
latency of any cross-district link (see ``partition.py``).  The argument is
the classic conservative one (Chandy/Misra/Bryant): a frame emitted at time
``s`` toward another district cannot arrive before ``s + link_latency``, so
while a window ``[B, B + L)`` executes no partition can receive anything
from a peer that is due inside the window.  Partitions therefore run the
window independently and exchange the frames they produced at the barrier,
each stamped with its exact due time.

Two backends share this window protocol:

* **inline** — one process runs every shard's window back to back; this is
  the batched-cross-delivery win (no cross-district frame ever interrupts
  a shard mid-window) and the determinism oracle for the next backend;
* **multiprocess** (``world/engine.py``) — the world is built once, the
  process forks one worker per partition, and each worker runs only its
  own shard, swapping barrier batches with the parent over pipes.  The
  window edges are pure arithmetic over (frontier, lookahead, target), so
  every worker derives the same barrier sequence without negotiation.

Determinism: within a shard, events keep the scheduler's exact ``(time_us,
seq)`` total order.  Cross frames are injected at barriers in a canonical
sort — ``(due_us, source partition, per-source sequence)`` — and the
per-source sequence numbers are assigned at *send* time, so the inline and
multiprocess backends allocate identical injection orders and hence
identical shard ``seq`` streams.  With one partition the engine degenerates
to a single shard running one window per ``run_until`` call: bit-identical
to the plain scheduler, which is what the golden-parity suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .errors import NetworkError
from .partition import PartitionMap
from .simclock import EventHandle, Scheduler, us_to_ms

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

#: Event label used for cross-partition deliveries (one event per frame).
CROSS_LABEL = "udp-cross"


@dataclass(frozen=True)
class CrossFrame:
    """One unicast datagram crossing a district boundary.

    Holds only primitives (wire bytes, addresses, timestamps) so the
    multiprocess backend can pickle it through a pipe; the receiving side
    rebuilds a fresh :class:`~repro.net.udp.Datagram` — and with it a fresh
    :class:`~repro.net.udp.FrameMemo` — so parse-once sharing restarts
    among the destination's sockets (``seq`` is per *source* partition,
    which is what keeps the sort key identical across backends: each
    worker numbers its own sends exactly as the inline engine does).
    """

    due_us: int
    src_pid: int
    seq: int
    dst_pid: int
    payload: bytes
    source_host: str
    source_port: int
    dest_host: str
    dest_port: int
    final_segment: str
    send_time_us: int

    def sort_key(self) -> tuple[int, int, int]:
        return (self.due_us, self.src_pid, self.seq)


class ShardedScheduler:
    """K per-district :class:`Scheduler` shards behind the one-scheduler API.

    ``Network`` code never sees the difference: ``now_us`` / ``schedule`` /
    ``run_until`` behave like the plain scheduler's.  Scheduling
    calls made while a shard's window is executing land on that shard
    (``_current``); calls made between windows must carry a node context —
    ``Network.scheduler_for(node)`` hands out the node's shard directly,
    which is how every ``Node.schedule``/``Timer``/``PeriodicTask`` routes.
    """

    def __init__(self, pmap: PartitionMap):
        self.pmap = pmap
        self.shards: list[Scheduler] = [Scheduler() for _ in range(pmap.count)]
        #: The shard whose window is executing right now (None at barriers).
        self._current: Scheduler | None = None
        self._now_us = 0
        #: First instant no shard has processed yet.
        self._frontier_us = 0
        #: Cross frames produced since the last barrier.
        self.outbox: list[CrossFrame] = []
        self._out_seq = [0] * pmap.count
        self.network: Optional["Network"] = None
        #: Partitions this process actually runs (all of them inline; a
        #: single pid in a multiprocess worker).
        self.local_pids: tuple[int, ...] = tuple(range(pmap.count))
        #: Worker-mode barrier hook: ``exchange(edge, out_frames)`` ships
        #: this window's frames to the coordinator and returns the inbound
        #: batch.  ``None`` selects the inline backend.
        self._exchange: Optional[Callable[[int, list], list]] = None
        #: Barrier windows executed (benchmarks report this).
        self.windows = 0

    # -- wiring ---------------------------------------------------------------

    def bind(self, network: "Network") -> None:
        self.network = network

    def configure_worker(
        self, pid: int, exchange: Callable[[int, list], list]
    ) -> None:
        """Restrict this engine to one partition (multiprocess worker)."""
        self.local_pids = (pid,)
        self._exchange = exchange
        if self.network is not None:
            # A worker replays the full workload script, so recording sites
            # that can fire outside the event loop must know which
            # districts' measurements are this process's to make: restrict
            # the recording to the worker's own partitions.
            self.network.obs.restrict(self.local_pids)

    # -- introspection --------------------------------------------------------

    @property
    def now_us(self) -> int:
        current = self._current
        return current._now_us if current is not None else self._now_us

    @property
    def now_ms(self) -> float:
        return us_to_ms(self.now_us)

    @property
    def events_fired(self) -> int:
        return sum(shard.events_fired for shard in self.shards)

    @property
    def pending(self) -> int:
        return sum(shard.pending for shard in self.shards) + len(self.outbox)

    @property
    def compactions(self) -> int:
        return sum(shard.compactions for shard in self.shards)

    def events_by_partition(self) -> list[int]:
        """Per-district event counts (the tentpole's per-partition view)."""
        return [shard.events_fired for shard in self.shards]

    # -- scheduling (the plain-Scheduler surface) -----------------------------

    def _target(self) -> Scheduler:
        current = self._current
        if current is not None:
            return current
        if len(self.shards) == 1:
            return self.shards[0]
        raise NetworkError(
            "no active partition for a direct schedule; go through the node "
            "(Node.schedule/timer/every) so the event lands on its district"
        )

    def schedule(self, delay_us: int, callback, label: str = "") -> EventHandle:
        return self._target().schedule(delay_us, callback, label=label)

    def schedule_at(self, time_us: int, callback, label: str = "") -> EventHandle:
        shard = self._target()
        return shard.schedule(time_us - shard._now_us, callback, label=label)

    def drain(self, handles: Iterable[EventHandle]) -> None:
        for handle in handles:
            handle.cancel()

    # -- cross-partition traffic ----------------------------------------------

    def next_cross_seq(self, src_pid: int) -> int:
        """Allocate the next per-source sequence number (at send time)."""
        seq = self._out_seq[src_pid]
        self._out_seq[src_pid] = seq + 1
        return seq

    def enqueue_cross(self, frame: CrossFrame) -> None:
        """Queue a frame for injection at the next barrier."""
        self.outbox.append(frame)

    def _drain_outbox(self) -> list[CrossFrame]:
        frames, self.outbox = self.outbox, []
        if self._exchange is not None:
            # A worker executes workload-time sends for *every* partition
            # (the build/workload script is replayed in each process); only
            # frames our own partitions emitted are ours to ship — the
            # owners of the others emit identical copies with identical
            # sequence numbers.
            local = set(self.local_pids)
            frames = [frame for frame in frames if frame.src_pid in local]
        return frames

    def _inject(self, frames: Sequence[CrossFrame]) -> None:
        network = self.network
        local = set(self.local_pids)
        for frame in sorted(frames, key=CrossFrame.sort_key):
            if frame.dst_pid in local:
                network.inject_cross(frame)

    # -- the window engine ----------------------------------------------------

    def _window_edge(self, target_us: int) -> int:
        lookahead = self.pmap.lookahead_us
        if lookahead is None or self.pmap.count == 1:
            return target_us
        # Process [frontier, edge] inclusive.  Frames sent at s >= frontier
        # are due at >= s + lookahead + 1 (every route charges at least one
        # segment delay on top of the link) > edge, so nothing produced
        # inside the window can be due inside it.
        return min(target_us, self._frontier_us + lookahead - 1)

    def _run_window(self, edge_us: int) -> None:
        network = self.network
        obs = network.obs if network is not None else None
        if obs is not None and obs.on:
            self._run_window_traced(edge_us, obs)
            return
        for pid in self.local_pids:
            shard = self.shards[pid]
            self._current = shard
            try:
                shard.run_until(edge_us)
            finally:
                self._current = None
        self.windows += 1

    def _run_window_traced(self, edge_us: int, obs) -> None:
        """One window with the flight recorder on: per-district timelines.

        Replays :meth:`Scheduler.run_until`'s exact loop (peek/step until
        the edge, then advance the clock) so the event schedule stays
        bit-identical to the untraced engine, while tracking the last
        instant each shard actually fired at — the busy/stall split.  Per
        district and window this emits an ``engine.window`` span, an
        ``engine.stall`` span for the idle tail spent waiting on the
        barrier, and a queue-occupancy counter sample at the edge.
        """
        trace = obs.trace
        metrics = obs.metrics
        for pid in self.local_pids:
            shard = self.shards[pid]
            self._current = shard
            start_us = shard._now_us
            fired_before = shard.events_fired
            busy_until = start_us
            try:
                while True:
                    head = shard._peek_time()
                    if head is None or head > edge_us:
                        break
                    shard.step()
                    busy_until = shard._now_us
                if shard._now_us < edge_us:
                    shard._now_us = edge_us
            finally:
                self._current = None
            fired = shard.events_fired - fired_before
            trace.span(
                "engine.window", start_us, edge_us - start_us, pid,
                cat="engine", args={"events": fired, "window": self.windows},
            )
            if busy_until < edge_us and len(self.shards) > 1:
                trace.span(
                    "engine.stall", busy_until, edge_us - busy_until, pid,
                    cat="engine", args={"window": self.windows},
                )
            trace.counter(
                "engine.occupancy", edge_us, pid,
                values={"pending": shard.pending},
            )
            metrics.counter("engine.windows", district=str(pid)).inc()
            metrics.counter("engine.window_events", district=str(pid)).inc(fired)
            metrics.gauge("engine.pending", district=str(pid)).set(shard.pending)
        self.windows += 1

    def _barrier(self, edge_us: int) -> None:
        frames = self._drain_outbox()
        if self._exchange is not None:
            frames = self._exchange(edge_us, frames)
        self._inject(frames)
        self._frontier_us = edge_us + 1
        self._now_us = edge_us

    def run_until(self, time_us: int) -> None:
        """Run every partition's events with timestamp <= ``time_us``."""
        while True:
            edge = self._window_edge(time_us)
            self._run_window(edge)
            self._barrier(edge)
            if edge >= time_us:
                return

    def run_for(self, delay_us: int) -> None:
        self.run_until(self._now_us + delay_us)

    def run_until_idle(
        self, limit_us: int | None = None, max_events: int = 10_000_000
    ) -> None:
        """Window-stepped run-until-idle (inline backend only).

        A multiprocess worker cannot know when *other* partitions go idle,
        so open-ended runs require the inline backend (or bounded ``Run``
        steps, which the multiprocess scenarios use).
        """
        if self._exchange is not None:
            raise NetworkError(
                "run-until-idle is not available under the multiprocess "
                "backend; use bounded run windows"
            )
        start_fired = self.events_fired
        while True:
            heads = [shard._peek_time() for shard in self.shards]
            head = min((h for h in heads if h is not None), default=None)
            if head is None and not self.outbox:
                return
            if limit_us is not None and (head is None or head > limit_us):
                if self._now_us < limit_us:
                    self.run_until(limit_us)
                return
            self.run_until(head if head is not None else self._frontier_us)
            if self.events_fired - start_fired > max_events:
                raise RuntimeError(
                    f"run_until_idle exceeded {max_events} events; runaway timer?"
                )


__all__ = ["CrossFrame", "ShardedScheduler", "CROSS_LABEL"]
