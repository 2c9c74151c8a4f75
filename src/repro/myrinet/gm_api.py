"""Host-side GM API: ports, sends, receive-event polling.

Mirrors the GM user-level interface shape the paper describes:
``gm_send_with_callback`` posts a send event across the PCI bus;
``gm_provide_receive_buffer`` preposts receive buffers; the host polls a
receive-event queue that the NIC DMAs events into.

Host costs (library overhead, polling) come from
:class:`repro.host.HostParams`; bus costs from :class:`repro.pci.PciBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.host import HostCpu
from repro.myrinet.nic import LanaiNic
from repro.myrinet.structures import SendToken
from repro.network import PacketKind
from repro.pci import PciBus
from repro.sim import ArbitratedResource, SimEvent, Simulator


@dataclass(frozen=True)
class GmRecvEvent:
    """A receive event the NIC DMAed into host memory."""

    src: int
    payload: Any
    size: int


class GmPort:
    """One host process's GM port.

    All methods that consume time are generators — call them with
    ``yield from`` inside a host process.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic: LanaiNic,
        cpu: HostCpu,
        pci: PciBus,
    ):
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.cpu = cpu
        self.pci = pci
        self._pending: list[Any] = []  # events popped but not yet matched
        # Poller seat: at most one waiter sits on the NIC event queue;
        # co-waiters queue here.  Arbitrated, so which of two
        # same-instant waiters polls (and pays the poll-lag and poll
        # costs) is canonical, not event-heap order (SL101).
        self._poll_seat = ArbitratedResource(
            sim, 1, name=f"gm{node_id}.poll.seat"
        )
        # Prepost the configured number of receive buffers.
        nic.provide_recv_tokens(nic.params.recv_token_count)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        size_bytes: int,
        payload: Any = None,
        wait_completion: bool = False,
    ):
        """``gm_send_with_callback``: post a send event to the NIC.

        Returns (via generator return value) the token's completion
        event when ``wait_completion`` is requested, after blocking on
        it; otherwise returns immediately after the doorbell.
        """
        yield from self.cpu.compute(self.cpu.params.send_overhead_us, "send_overhead")
        completion: Optional[SimEvent] = None
        if wait_completion:
            completion = SimEvent(self.sim, name=f"send_done@{self.node_id}")
        token = SendToken(
            dst=dst,
            size_bytes=size_bytes,
            payload=payload,
            kind=PacketKind.DATA,
            notify_host=True,
            completion=completion,
        )
        yield from self.pci.pio_write()
        self.nic.post_send_event(token)
        if wait_completion:
            yield from self.recv_matching(
                lambda ev: isinstance(ev, SendToken) and ev is token
            )
        return token

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def provide_receive_buffer(self):
        """``gm_provide_receive_buffer``: repost one receive buffer."""
        yield from self.pci.pio_write()
        self.nic.provide_recv_tokens(1)

    def _next_event(self):
        """Pop the next host-visible event, modeling the polling loop.

        If an event is already queued the poll finds it immediately;
        otherwise the host blocks and discovers the event half a poll
        interval (the mean phase lag) after the NIC posts it.  An event
        posted at the very instant polling begins is caught by the first
        poll — charging the lag there would make the cost depend on
        put-vs-get scheduling order (simlint SL101).
        """
        params = self.cpu.params
        queue = self.nic.recv_event_queue
        if len(queue) > 0 and queue.getters_waiting == 0:
            event = queue.try_get()
        else:
            blocked_at = self.sim.now
            event = yield queue.get()
            if self.sim.now > blocked_at:
                yield params.poll_interval_us / 2.0
        yield from self.cpu.compute(params.poll_us, "poll")
        return event

    def _consume(self, event):
        """Pay the host costs of consuming one matched event."""
        yield from self.cpu.compute(
            self.cpu.params.recv_overhead_us, "recv_overhead"
        )
        if isinstance(event, GmRecvEvent):
            yield from self.provide_receive_buffer()

    def recv_matching(self, matches: Callable[[Any], bool]):
        """Block until an event satisfying ``matches`` arrives.

        Non-matching events are buffered and re-offered on later calls
        (barrier messages from a future iteration can arrive early).
        Consuming a data receive event pays the host receive overhead
        and reposts the receive buffer.

        Multiple waiters may block on one port concurrently (two jobs
        sharing a node each park a collective wait here).  Only the
        *seat holder* sits on the NIC event queue; co-waiters queue on
        the seat.  Whenever the holder pops an event it does not want,
        it buffers the event and releases the seat, so the next waiter
        (in canonical order) re-scans the buffer and takes over
        polling.  Without this hand-off the queue's FIFO getter order
        can deliver waiter B's event to waiter A, which buffers it
        while B stays blocked forever.  The seat is arbitrated: which
        of two same-instant waiters polls — and therefore pays the
        poll-lag and poll costs — must not depend on event-heap pop
        order (simlint SL101).
        """
        while True:
            for i, ev in enumerate(self._pending):
                if matches(ev):
                    self._pending.pop(i)
                    yield from self._consume(ev)
                    return ev
            yield self._poll_seat.request()
            # The buffer may have grown while we queued for the seat.
            matched = None
            for i, ev in enumerate(self._pending):
                if matches(ev):
                    matched = self._pending.pop(i)
                    break
            if matched is not None:
                self._poll_seat.release()
                yield from self._consume(matched)
                return matched
            event = yield from self._next_event()
            self._poll_seat.release()
            if isinstance(event, SendToken) and event.completion is not None:
                if not event.completion.triggered:
                    event.completion.succeed(event)
            if matches(event):
                yield from self._consume(event)
                return event
            self._pending.append(event)

    def _drain_match(self, matches: Callable[[Any], bool]):
        """The non-yielding half of one poll: move whatever the NIC has
        posted into the buffer (firing send-token completions as they
        are seen), then pop and return the first buffered event
        satisfying ``matches``, or ``None``."""
        queue = self.nic.recv_event_queue
        pending = self._pending
        while len(queue) > 0 and queue.getters_waiting == 0:
            ev = queue.try_get()
            if isinstance(ev, SendToken) and ev.completion is not None:
                if not ev.completion.triggered:
                    ev.completion.succeed(ev)
            pending.append(ev)
        for i, ev in enumerate(pending):
            if matches(ev):
                return pending.pop(i)
        return None

    def poll_matching(self, matches: Callable[[Any], bool]):
        """One non-blocking poll for an event satisfying ``matches``.

        Drains whatever the NIC has already posted (paying the poll
        cost once), then returns the matching event or ``None`` —
        never blocks.  Non-matching events are buffered exactly as in
        :meth:`recv_matching`; this is the ``test`` half of the
        non-blocking collective requests.
        """
        yield from self.cpu.compute(self.cpu.params.poll_us, "poll")
        event = self._drain_match(matches)
        if event is not None:
            yield from self._consume(event)
        return event

    def busy_poll_matching(self, matches: Callable[[Any], bool]):
        """Poll until an event satisfying ``matches`` is consumed.

        Exactly ``while (ev := poll_matching(matches)) is None`` — same
        event, end time and host busy time — without simulating the
        empty polls (:meth:`repro.host.HostCpu.busy_poll`).
        """
        event = yield from self.cpu.busy_poll(
            self.nic.recv_event_queue, partial(self._drain_match, matches)
        )
        yield from self._consume(event)
        return event

    def recv_from(self, src: int):
        """Receive the next data message from ``src``."""
        event = yield from self.recv_matching(
            lambda ev: isinstance(ev, GmRecvEvent) and ev.src == src
        )
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GmPort node={self.node_id} pending={len(self._pending)}>"
