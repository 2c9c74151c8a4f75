"""NIC-resident barrier engines for Myrinet.

Both engines run on the shared sequence core
(:class:`~repro.collectives.sequence.SequenceEngine`: state table,
retirement, archive, timers, epoch/teardown/restart sweeps, typed
failures) and execute the same bit-vector phase schedule.  Direct vs
collective is a reliability policy on that core, exactly where the
paper says the schemes differ:

- :class:`NicDirectBarrierEngine` — the *direct scheme* of the prior
  work (Buntinas et al.): the NIC detects arrivals and triggers the next
  barrier messages, but every message travels the full point-to-point
  send path (``SendToken``, round-robin scheduling, packet allocation,
  per-packet send record, ACK + timeout retransmission), with a
  receiver-side deadline watchdog as its only guard against a dead peer.
- :class:`NicCollectiveBarrierEngine` — this paper's scheme: the
  group's dedicated queue means a trigger goes straight to injection of
  the padded static packet (``fast_inject``); bookkeeping is one
  bit-vector send record; reliability is receiver-driven NACK
  retransmission with backoff and *no ACKs*, halving the packet count.

Both engines are driven by the MCP's receive loop (arrivals) and engine
command loop (host start commands + timer pops), so all their
processing contends for the LANai processor like any other MCP task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.collectives.failures import FailureReason
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import (
    BarrierDone,
    BarrierFailed,
    BarrierMsg,
    BarrierNack,
)
from repro.collectives.protocol import CollectiveGroupState, CollectiveScheduleLayout
from repro.collectives.sequence import (
    SEQUENCE_AUTOMATON,
    SequenceEngine,
    wait_sequence,
)
from repro.myrinet.structures import SendToken
from repro.network import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort
    from repro.myrinet.nic import LanaiNic


class _NicBarrierEngineBase(SequenceEngine):
    """Phase-schedule execution shared by both NIC-based schemes."""

    failed_counter = "barrier_failed"
    failed_event = BarrierFailed
    budget_reason = FailureReason.NACK_BUDGET.value

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        self.phases = group.schedule.phases(rank)
        # The schedule's bit maps are identical for every barrier this
        # rank runs: derive them once and share across sequences.
        self._layout = CollectiveScheduleLayout(self.phases)
        self.barriers_completed = 0
        super().__init__(nic, group, rank)

    def _new_state(self, seq: int) -> CollectiveGroupState:
        return CollectiveGroupState(seq, self.phases, self.nic.sim.now, self._layout)

    def on_barrier_packet(self, packet: Packet):
        msg: BarrierMsg = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_trigger, "coll_trigger")
        seq = msg.seq
        if self.closed and self._drops("closed", "arrival", "coll.rx_after_teardown"):
            return
        # The barrier failed here; stray retransmissions from peers
        # still fighting their own budgets are expected.
        if seq in self.failed and self._drops(
            "retired", "arrival", "coll.rx_after_failure"
        ):
            return
        # Late duplicate (a retransmission that raced the original):
        # the barrier already completed here.
        if self._retired(seq) and self._drops("retired", "arrival", "coll.rx_duplicate"):
            return
        state = self._state(seq)
        if not state.mark_arrived(msg.sender):
            nic.tracer.count("coll.rx_unexpected_sender")
            return
        # A known sender's retransmit just sets its bit again.
        if state.started and not state.complete and (
            SEQUENCE_AUTOMATON["running", "arrival"] == "run"
        ):
            yield from self._progress(state)

    # ------------------------------------------------------------------
    # The schedule state machine
    # ------------------------------------------------------------------
    def _progress(self, state: CollectiveGroupState):
        if state.in_progress:
            # Another MCP loop is already driving this barrier; it will
            # re-check arrivals after its pending sends.
            return
        state.in_progress = True
        try:
            phases = self.phases
            while state.phase < len(phases):
                phase = phases[state.phase]
                if phase.send_first and not state.sent_current_phase:
                    state.sent_current_phase = True
                    for dst in phase.sends:
                        yield from self._send_message(state, state.phase, dst)
                if not state.phase_recvs_complete(state.phase):
                    return
                if not phase.send_first and not state.sent_current_phase:
                    state.sent_current_phase = True
                    for dst in phase.sends:
                        yield from self._send_message(state, state.phase, dst)
                state.phase += 1
                state.sent_current_phase = False
            if self._commit(state):
                yield from self._complete(state)
        finally:
            state.in_progress = False

    def _complete(self, state: CollectiveGroupState):
        nic = self.nic
        state.cancel_timer()
        yield from nic.cpu_task(nic.params.t_coll_complete, "coll_complete")
        self.barriers_completed += 1
        nic.tracer.count("coll.barrier_complete")
        self._retire(state)
        yield from nic.notify_host(
            BarrierDone(self.group.group_id, state.seq, completed_at=nic.sim.now)
        )

    def _send_message(self, state: CollectiveGroupState, phase: int, dst: int):
        raise NotImplementedError


class NicDirectBarrierEngine(_NicBarrierEngineBase):
    """Prior work: NIC-triggered barrier over the p2p protocol.

    Each barrier message is a regular GM send: the engine builds a send
    token (``t_sdma_event``), queues it to the destination's send queue,
    and the MCP send scheduler does the rest — packet allocation, a
    per-packet send record, injection, and ACK/timeout reliability.
    """

    def _on_begin(self, state: CollectiveGroupState, args: tuple) -> None:
        # The ACK-based scheme's receivers have no reliability of their
        # own: if an expected sender dies, nothing here would ever time
        # out.  A per-barrier watchdog sized from the sender-side
        # exhaustion horizon (so it cannot fire before a live peer's
        # retries are spent) converts that hang into a typed failure.
        nic = self.nic
        state.timer = nic.sim.schedule(
            nic.params.direct_barrier_deadline_us,
            self._timer_fired, state.seq, "deadline",
        )

    def _send_message(self, state: CollectiveGroupState, phase: int, dst: int):
        nic = self.nic
        state.send_record.mark_sent(phase, dst)
        yield from nic.cpu_task(nic.params.t_sdma_event, "build_token")
        token = SendToken(
            dst=self.group.node_of(dst),
            size_bytes=nic.params.barrier_payload_bytes,
            payload=BarrierMsg(self.group.group_id, state.seq, self.rank, phase),
            kind=PacketKind.BARRIER,
            notify_host=False,
        )
        nic.enqueue_send_token(token)

    def on_nack(self, packet: Packet):
        # The direct scheme has no receiver-driven reliability; a NACK
        # arriving here indicates a misconfigured experiment.
        self.nic.tracer.count("coll.direct_unexpected_nack")
        return
        yield  # pragma: no cover - makes this a generator


class NicCollectiveBarrierEngine(_NicBarrierEngineBase):
    """This paper's scheme: the separate collective protocol (§3, §6).

    Sends bypass the p2p machinery entirely: the group's send token is
    permanently at the front of its dedicated queue and the message
    rides the padded static ACK packet, so a trigger costs only
    ``t_coll_trigger`` + injection.  Reliability is receiver-driven:
    no ACKs; a receiver missing a message after ``nack_timeout_us``
    NACKs the sender, which re-injects from its bit-vector record.
    """

    nack_backoff = True

    def _send_message(self, state: CollectiveGroupState, phase: int, dst: int):
        nic = self.nic
        state.send_record.mark_sent(phase, dst)
        yield from nic.fast_inject(
            self.group.node_of(dst),
            BarrierMsg(self.group.group_id, state.seq, self.rank, phase),
        )

    def _send_nacks(self, state: CollectiveGroupState):
        nic = self.nic
        for phase_idx, sender in state.missing_senders():
            nic.tracer.count("coll.nack_timeout")
            yield from nic.send_nack(
                self.group.node_of(sender),
                BarrierNack(self.group.group_id, state.seq, phase_idx, sender, self.rank),
            )

    def on_nack(self, packet: Packet):
        """A peer is missing one of our messages: retransmit it."""
        nack: BarrierNack = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_nack_process, "nack_process")
        # A barrier that failed here answers no NACKs: the requester is
        # about to fail (or already has) through its own budget.
        if (self.closed or nack.seq in self.failed) and self._drops(
            "closed", "nack", "coll.nack_after_failure"
        ):
            return
        state = self.states.get(nack.seq)
        if state is None:
            if not self._retired(nack.seq) or (
                SEQUENCE_AUTOMATON["retired", "nack"] != "resend_archive"
            ):
                # We have not entered this barrier at all yet: nothing
                # has been sent, so there is nothing to resend — the
                # message goes out through normal progress once the
                # host starts the barrier here.
                nic.tracer.count("coll.nack_premature")
                return
        elif not state.send_record.was_sent(nack.phase, nack.requester):
            # We genuinely have not sent it yet (we are behind, not the
            # wire); it will go out through normal progress.
            nic.tracer.count("coll.nack_premature")
            return
        # Either recorded as sent, or the barrier already completed here
        # (the message is rebuilt from its sequence and phase): resend.
        nic.tracer.count("coll.nack_retransmit")
        yield from nic.fast_inject(
            self.group.node_of(nack.requester),
            BarrierMsg(self.group.group_id, nack.seq, self.rank, nack.phase),
        )


# ----------------------------------------------------------------------
# Host-side entry points
# ----------------------------------------------------------------------
def post_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-blocking half: one PIO starts the NIC engine; the host is
    free until it waits on the completion event."""
    yield from port.cpu.compute(port.cpu.params.barrier_call_us, "barrier_call")
    yield from port.pci.pio_write()
    port.nic.post_engine_command((group.group_id, "start", seq))


def nic_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Host side of a NIC-based barrier (either engine).

    One PIO to start, then the host is completely uninvolved until the
    completion (or failure) event appears in its receive-event queue —
    the entire point of NIC offload.  A failure event is raised as
    :class:`BarrierFailure`.
    """
    yield from post_barrier(port, group, seq)
    done = yield from wait_sequence(port, group, seq)
    return done


def nic_barrier_teardown(port: "GmPort", group: ProcessGroup):
    """Host side of closing a group's engine after a failure.

    One PIO; the engine drops all remaining per-barrier state and
    discards late traffic for the group, so an application that caught
    a :class:`BarrierFailure` and stopped using the group leaves a
    quiescent NIC behind.
    """
    yield from port.pci.pio_write()
    port.nic.post_engine_command((group.group_id, "teardown", -1))


def nic_group_revoke(port: "GmPort", group: ProcessGroup):
    """Host side of revoking a group's engine on an epoch change.

    One PIO; the engine aborts every started sequence with the typed
    ``group-revoked`` reason (resolving any parked waiter) and closes.
    """
    yield from port.pci.pio_write()
    port.nic.post_engine_command((group.group_id, "epoch", -1))
