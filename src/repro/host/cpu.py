"""Host processor model: per-operation software costs and polling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim import ArbitratedResource, SimEvent, Simulator, Store, Tracer


@dataclass(frozen=True)
class HostParams:
    """Host software costs (µs).

    ``send_overhead_us`` — building and posting one send descriptor
    (user-level library code, before the PIO doorbell).
    ``recv_overhead_us`` — consuming one receive event (buffer matching,
    callback dispatch).
    ``poll_us`` — one poll of the receive-event queue that finds nothing.
    ``poll_interval_us`` — gap between successive polls while waiting.
    ``barrier_call_us`` — fixed entry/exit software cost of the barrier
    library call itself.
    """

    send_overhead_us: float
    recv_overhead_us: float
    poll_us: float
    poll_interval_us: float
    barrier_call_us: float

    def __post_init__(self) -> None:
        for field_name in (
            "send_overhead_us",
            "recv_overhead_us",
            "poll_us",
            "poll_interval_us",
            "barrier_call_us",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")


class HostCpu:
    """One node's host processor.

    A capacity-1 resource: host library code, polling loops and
    callbacks on the same node serialize (quad-SMP nodes ran one MPI
    process per node in the paper's tests, so one CPU per node is the
    faithful model).

    Same-instant compute requests from *different* processes (two jobs
    sharing the node in a multi-job workload) are arbitrated in
    canonical process-name order via :class:`ArbitratedResource` —
    plain FIFO granting would make the interleaving an event-heap race
    (simlint SL101).  With one process per node this is timing-identical
    to the plain resource: requests never contend.
    """

    def __init__(
        self,
        sim: Simulator,
        params: HostParams,
        node_id: int,
        name: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.name = name or f"host{node_id}"
        self.tracer = tracer or Tracer()
        self._cpu = ArbitratedResource(sim, capacity=1, name=f"{self.name}.cpu")
        self.busy_us = 0.0
        # Chaos-campaign host slowdown: every software cost on this node
        # is multiplied by this factor (1.0 = calibrated speed).  A slow
        # host is the paper's straggler scenario — it stretches barrier
        # skew without touching the network model.
        self.slowdown = 1.0
        # The busy-poll collapsed on this CPU, if any (see busy_poll).
        self._spin: Optional[_Spin] = None

    def compute(self, us: float, label: Optional[str] = None):
        """Occupy the CPU for ``us`` microseconds (yield from a process).

        ``label`` names the software step on the host lane of a span
        timeline (e.g. ``barrier_call``, ``poll``); it costs nothing
        when tracing is disabled.
        """
        if us < 0:
            raise ValueError(f"negative compute time {us}")
        us = us * self.slowdown
        if self._spin is not None:
            # Another process contends with a collapsed busy-poll: the
            # spinner must let go of the CPU at its current boundary.
            self._nudge_spin()
        yield self._cpu.request()
        yield us
        self._cpu.release()
        self.busy_us += us
        tracer = self.tracer
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(now - us, now, self.name, label or "compute")

    def busy_poll(self, queue: Store, drain: Callable[[], Any]):
        """Poll ``queue`` until ``drain()`` returns a result; return it.

        The result, the end time and ``busy_us`` are exactly those of::

            while True:
                yield from self.compute(self.params.poll_us, "poll")
                result = drain()
                if result is not None:
                    return result

        where ``drain`` does not yield: it moves what ``queue`` holds
        into its caller's buffer and returns the first match, or
        ``None``.  A poll can only find something the poll before it
        did not after an item enters ``queue`` or after another process
        computes on this CPU (a co-waiter buffers what it pops right
        after its own poll), so instead of simulating every poll the
        spinner holds the CPU unit and parks on a put-watch of
        ``queue``.  The poll boundaries ``T0 + p, T0 + 2p, ...`` (``p =
        poll_us * slowdown``, ``T0`` the grant) are built by repeated
        float addition, exactly as the loop's sleeps add up; a wake
        lands on the first boundary at or after its cause, so an
        arrival exactly on a boundary is seen there, and every elapsed
        poll is charged to ``busy_us`` in order.

        Contention materializes the spin: a compute by another process
        wakes the spinner at its current boundary, where it releases
        the CPU and re-requests it like the loop.  It polls explicitly
        while anyone else is queued for the CPU or has computed since
        its last poll, and parks again once uncontended.  With tracing
        on (per-poll spans are the observable), with a second spinner
        on this CPU or ``queue``, or with a zero poll cost the loop runs
        as written.  ``slowdown`` is a setup-time knob: a spin reads it
        once, when it starts.
        """
        us = self.params.poll_us * self.slowdown
        if (
            self._spin is not None
            or queue.put_watch is not None
            or self.tracer.enabled
            or not us > 0
        ):
            while True:
                yield from self.compute(self.params.poll_us, "poll")
                result = drain()
                if result is not None:
                    return result
        sim = self.sim
        cpu = self._cpu
        spin = self._spin = _Spin(us, f"{queue.name}.busy_wait")
        nudge = queue.put_watch = self._nudge_spin
        try:
            while True:
                yield cpu.request()
                spin.origin = sim.now
                spin.wake = SimEvent(sim, name=spin.name)
                spin.resume_set = False
                if spin.dirty:
                    nudge()  # poll explicitly: wake at the first boundary
                polls = yield spin.wake
                spin.wake = None
                cpu.release()
                busy = self.busy_us
                for _ in range(polls):  # one addition per poll, as the loop does
                    busy += us
                self.busy_us = busy
                result = drain()
                if result is not None:
                    return result
                spin.dirty = cpu.queue_length > 0
        finally:
            queue.put_watch = None
            self._spin = None

    def _nudge_spin(self) -> None:
        """Something the next poll may see happened: wake the parked
        spinner at the first boundary at or after now (or, between its
        poll and its next grant, make that grant poll explicitly)."""
        spin = self._spin
        if spin.wake is None:
            spin.dirty = True
            return
        if spin.resume_set:
            return  # already waking at the first boundary >= an earlier cause
        spin.resume_set = True
        now = self.sim.now
        boundary, polls = spin.origin, 0
        while True:
            boundary += spin.period
            polls += 1
            if boundary >= now:
                break
        self.sim.schedule_at(boundary, spin.wake.succeed, polls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostCpu {self.name} busy={self.busy_us:.1f}us>"


class _Spin:
    """One busy-poll.  While parked (``wake`` set) the spinner holds the
    CPU from ``origin`` and would poll every ``period``; ``wake``
    resumes it with the number of polls elapsed."""

    __slots__ = ("period", "name", "origin", "wake", "resume_set", "dirty")

    def __init__(self, period: float, name: str):
        self.period = period
        self.name = name  # the wake event's name (quiescence reads it)
        self.origin = 0.0
        self.wake: Optional[SimEvent] = None
        self.resume_set = False
        # The first poll is always explicit: what the queue and the
        # caller's buffer already hold is only known to ``drain``.
        self.dirty = True
